//! Pinned figure documents: byte identity across changes, tied to
//! `TRIAL_BITS_VERSION`.
//!
//! The determinism contract says a refactor leaves every figure document
//! byte-identical. This test makes that a check. It runs the 15
//! experiment binaries with `--fast --json`, and `fig6_2_least_squares
//! --fast --json --fault-model P` for each of the 14 presets, which pins
//! every fault-model spec's bits through a real figure. `pinned.txt`
//! beside this file holds, after a `trial_bits = N` line, one line per
//! run: the run's name and arguments, then the FNV-1a 64 hash
//! (`json::fnv1a_64`) of its `-- json --` documents (`-` when it prints
//! none) and of its whole stdout.
//!
//! - A document hash that differs while `TRIAL_BITS_VERSION == N` means
//!   trial bits moved without a bump, so cached cells would outlive the
//!   code that produced them: "documents changed: bump
//!   TRIAL_BITS_VERSION and re-pin".
//! - A stdout hash that differs alone is a table format change: "re-pin
//!   with PINNED_BLESS=1".
//! - `PINNED_BLESS=1` rewrites the manifest; its diff names every
//!   changed run.
//!
//! Every run's `-- csv --` blocks must also be RFC 4180 with one field
//! count per block.
//!
//! It takes about a minute under release codegen and far longer in
//! debug, so debug builds skip it. Run it with
//! `cargo test --release -p robustify_bench --test pinned`.

mod common;

use std::fmt::Write as _;

use robustify_engine::campaign::TRIAL_BITS_VERSION;
use stochastic_fpu::json::fnv1a_64;

use common::{json_documents, ragged_csv_blocks, record_widths, spawn, EXPERIMENTS};

/// The manifest, committed beside this file.
const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/pinned.txt");

/// Every `--fault-model` preset the figure CLI accepts.
const PRESETS: [&str; 14] = [
    "emulated",
    "uniform",
    "msb",
    "lsb",
    "stuck0",
    "stuck1",
    "burst",
    "operand",
    "intermittent",
    "muldiv",
    "voltage",
    "dvfs",
    "regfile",
    "memory",
];

/// One pinned run: its name and arguments, and the two hashes.
struct Pin {
    run: String,
    json: String,
    stdout: String,
}

impl Pin {
    fn line(&self) -> String {
        format!("{}  json={}  stdout={}", self.run, self.json, self.stdout)
    }

    fn parse(line: &str) -> Pin {
        let bad = || panic!("malformed manifest line {line:?}");
        let (rest, stdout) = line.rsplit_once("  stdout=").unwrap_or_else(bad);
        let (run, json) = rest.rsplit_once("  json=").unwrap_or_else(bad);
        Pin {
            run: run.to_owned(),
            json: json.to_owned(),
            stdout: stdout.to_owned(),
        }
    }
}

/// Spawns `bin` with `args`, checks its csv blocks into `ragged`, and pins
/// its documents and stdout.
fn pin(name: &str, bin: &str, args: &[&str], ragged: &mut Vec<String>) -> Pin {
    let stdout = spawn(bin, args);
    ragged.extend(ragged_csv_blocks(name, &stdout));
    let docs = json_documents(&stdout);
    let json = if docs.is_empty() {
        "-".to_owned()
    } else {
        let joined: String = docs.iter().map(|d| format!("{d}\n")).collect();
        format!("{:016x}", fnv1a_64(joined.as_bytes()))
    };
    Pin {
        run: format!("{name} {}", args.join(" ")),
        json,
        stdout: format!("{:016x}", fnv1a_64(stdout.as_bytes())),
    }
}

fn current_pins() -> Vec<Pin> {
    let mut ragged = Vec::new();
    let mut pins: Vec<Pin> = EXPERIMENTS
        .iter()
        .map(|&(name, bin)| pin(name, bin, &["--fast", "--json"], &mut ragged))
        .collect();
    let fig6_2 = env!("CARGO_BIN_EXE_fig6_2_least_squares");
    for preset in PRESETS {
        let args = ["--fast", "--json", "--fault-model", preset];
        pins.push(pin("fig6_2_least_squares", fig6_2, &args, &mut ragged));
    }
    assert!(
        ragged.is_empty(),
        "ragged csv blocks:\n{}",
        ragged.join("\n")
    );
    pins
}

/// Why `pins` fails the manifest `text`, or `None` when it passes.
fn verdict(text: &str, pins: &[Pin]) -> Option<String> {
    let mut lines = text.lines();
    let version: u32 = lines
        .next()
        .and_then(|l| l.strip_prefix("trial_bits = "))
        .and_then(|v| v.parse().ok())
        .expect("the manifest starts with `trial_bits = N`");
    let pinned: Vec<Pin> = lines.map(Pin::parse).collect();
    if version != TRIAL_BITS_VERSION {
        return Some(format!(
            "the manifest was pinned at trial_bits = {version}, the code is at \
             {TRIAL_BITS_VERSION}: re-pin with PINNED_BLESS=1"
        ));
    }
    let runs = |ps: &[Pin]| ps.iter().map(|p| p.run.clone()).collect::<Vec<_>>();
    if runs(&pinned) != runs(pins) {
        return Some("the set of runs changed: re-pin with PINNED_BLESS=1".to_owned());
    }
    let moved = |changed: fn(&Pin, &Pin) -> bool| {
        pinned
            .iter()
            .zip(pins)
            .filter(|(old, new)| changed(old, new))
            .map(|(_, new)| format!("  {}", new.run))
            .collect::<Vec<_>>()
    };
    let documents = moved(|old, new| old.json != new.json);
    if !documents.is_empty() {
        return Some(format!(
            "documents changed: bump TRIAL_BITS_VERSION and re-pin\n{}",
            documents.join("\n")
        ));
    }
    let tables = moved(|old, new| old.stdout != new.stdout);
    if !tables.is_empty() {
        return Some(format!(
            "stdout changed: re-pin with PINNED_BLESS=1\n{}",
            tables.join("\n")
        ));
    }
    None
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs 29 figure binaries; release codegen only"
)]
fn figure_documents_match_the_manifest() {
    let pins = current_pins();
    if std::env::var_os("PINNED_BLESS").is_some_and(|v| v == "1") {
        let mut text = format!("trial_bits = {TRIAL_BITS_VERSION}\n");
        for p in &pins {
            writeln!(text, "{}", p.line()).expect("writing to a String");
        }
        std::fs::write(MANIFEST, text).unwrap_or_else(|e| panic!("writing {MANIFEST}: {e}"));
        return;
    }
    let text =
        std::fs::read_to_string(MANIFEST).unwrap_or_else(|e| panic!("reading {MANIFEST}: {e}"));
    if let Some(why) = verdict(&text, &pins) {
        panic!("{why}");
    }
}

/// The manifest rules on a two-run manifest, without spawning anything.
#[test]
fn manifest_rules() {
    let pins = |json: &str, stdout: &str| {
        vec![
            Pin::parse("fig5_1 --fast --json  json=-  stdout=00000000000000aa"),
            Pin::parse(&format!(
                "fig6_1 --fast --json  json={json}  stdout={stdout}"
            )),
        ]
    };
    let text = format!(
        "trial_bits = {TRIAL_BITS_VERSION}\n{}\n",
        pins("00000000000000bb", "00000000000000cc")
            .iter()
            .map(Pin::line)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(
        verdict(&text, &pins("00000000000000bb", "00000000000000cc")),
        None
    );
    let documents = verdict(&text, &pins("00000000000000bd", "00000000000000cd"));
    assert!(documents.is_some_and(|why| {
        why.starts_with("documents changed: bump TRIAL_BITS_VERSION and re-pin\n  fig6_1")
    }));
    let tables = verdict(&text, &pins("00000000000000bb", "00000000000000cd"));
    assert!(tables.is_some_and(|why| why.starts_with("stdout changed: re-pin with PINNED_BLESS=1")));
    let stale = text.replace(
        &format!("trial_bits = {TRIAL_BITS_VERSION}"),
        &format!("trial_bits = {}", TRIAL_BITS_VERSION + 1),
    );
    let bumped = verdict(&stale, &pins("00000000000000bb", "00000000000000cc"));
    assert!(bumped.is_some_and(|why| why.ends_with("re-pin with PINNED_BLESS=1")));
}

#[test]
fn record_widths_follow_rfc_4180() {
    assert_eq!(record_widths("a,b\n1,2\n\nrest"), [2, 2]);
    assert_eq!(record_widths("\"x,y\",b\n\"say \"\"hi\"\"\",2\n"), [2, 2]);
    assert_eq!(record_widths("SGD+AS,LS,b\n1,2\n"), [3, 2]);
}
