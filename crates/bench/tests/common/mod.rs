//! The one spawn-and-parse path of the release tests that run the
//! experiment binaries (`claims`, `pinned`): spawn a binary, and read the
//! `-- json --` documents and `-- csv --` blocks off its stdout.
//!
//! Each test crate includes this module and uses a part of it.
#![allow(dead_code)]

use std::process::Command;

/// The 15 experiment binaries (every binary but `campaign_server`), by
/// name and built path.
pub const EXPERIMENTS: [(&str, &str); 15] = [
    (
        "ablation_fault_model",
        env!("CARGO_BIN_EXE_ablation_fault_model"),
    ),
    ("ablation_guard", env!("CARGO_BIN_EXE_ablation_guard")),
    ("ch7_flop_overhead", env!("CARGO_BIN_EXE_ch7_flop_overhead")),
    ("energy_campaign", env!("CARGO_BIN_EXE_energy_campaign")),
    (
        "fault_model_campaign",
        env!("CARGO_BIN_EXE_fault_model_campaign"),
    ),
    (
        "fig5_1_fault_distribution",
        env!("CARGO_BIN_EXE_fig5_1_fault_distribution"),
    ),
    (
        "fig5_2_voltage_error",
        env!("CARGO_BIN_EXE_fig5_2_voltage_error"),
    ),
    ("fig6_1_sorting", env!("CARGO_BIN_EXE_fig6_1_sorting")),
    (
        "fig6_2_least_squares",
        env!("CARGO_BIN_EXE_fig6_2_least_squares"),
    ),
    ("fig6_3_iir", env!("CARGO_BIN_EXE_fig6_3_iir")),
    ("fig6_4_matching", env!("CARGO_BIN_EXE_fig6_4_matching")),
    (
        "fig6_5_matching_variants",
        env!("CARGO_BIN_EXE_fig6_5_matching_variants"),
    ),
    (
        "fig6_6_cg_accuracy",
        env!("CARGO_BIN_EXE_fig6_6_cg_accuracy"),
    ),
    ("fig6_7_cg_energy", env!("CARGO_BIN_EXE_fig6_7_cg_energy")),
    ("tab6_2_momentum", env!("CARGO_BIN_EXE_tab6_2_momentum")),
];

/// Runs `bin` with `args`; returns its stdout. Panics unless it exits 0.
pub fn spawn(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawning {bin}: {e}"));
    assert!(out.status.success(), "{bin} {args:?} failed: {out:?}");
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// The line of every `-- json --` document on a binary's stdout, in order.
pub fn json_documents(stdout: &str) -> Vec<&str> {
    stdout
        .split("-- json --\n")
        .skip(1)
        .map(|block| block.lines().next().expect("a document line"))
        .collect()
}

/// The field count of each record in `block`, which runs until the first
/// blank line outside quotes. Panics on a quote-state error: an
/// unterminated quoted field, or a quote inside an unquoted field.
pub fn record_widths(block: &str) -> Vec<usize> {
    let mut widths = Vec::new();
    let mut chars = block.chars().peekable();
    let (mut fields, mut field_len, mut quoted) = (1, 0, false);
    while let Some(c) = chars.next() {
        match (quoted, c) {
            (true, '"') if chars.peek() == Some(&'"') => {
                chars.next();
                field_len += 1;
            }
            (true, '"') => quoted = false,
            (true, _) => field_len += 1,
            (false, '"') => {
                assert_eq!(field_len, 0, "quote inside an unquoted field");
                quoted = true;
            }
            (false, ',') => {
                fields += 1;
                field_len = 0;
            }
            (false, '\n') => {
                if fields == 1 && field_len == 0 {
                    return widths;
                }
                widths.push(fields);
                (fields, field_len) = (1, 0);
            }
            (false, _) => field_len += 1,
        }
    }
    assert!(!quoted, "unterminated quoted field");
    if fields > 1 || field_len > 0 {
        widths.push(fields);
    }
    widths
}

/// One line per `-- csv --` block of `bin`'s stdout whose records do not
/// share one field count. Panics if the binary printed no csv block, or a
/// block has no rows.
pub fn ragged_csv_blocks(bin: &str, stdout: &str) -> Vec<String> {
    let blocks: Vec<&str> = stdout.split("\n-- csv --\n").skip(1).collect();
    assert!(!blocks.is_empty(), "{bin} printed no csv block");
    let mut ragged = Vec::new();
    for (i, block) in blocks.into_iter().enumerate() {
        let mut widths = record_widths(block);
        assert!(widths.len() > 1, "{bin} csv block {i} has no rows");
        widths.dedup();
        if widths.len() != 1 {
            ragged.push(format!("{bin} csv block {i}: field counts {widths:?}"));
        }
    }
    ragged
}
