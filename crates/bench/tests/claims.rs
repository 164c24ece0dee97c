//! The figures' conclusions as an executable gate.
//!
//! Every figure binary exists to show one qualitative result: robust SGD
//! keeps sorting and matching right where the baselines break, the IIR
//! recursion blows up while its SGD reformulation does not, CG stays
//! finite where every reliable least-squares baseline fails and saves
//! energy under voltage overscaling. A change that moves trial bits (a
//! `TRIAL_BITS_VERSION` bump) cannot be checked by byte comparison, so
//! this test reruns Figures 6.1–6.7 and Table 6.2 at `--fast` over three
//! fixed seeds and asserts those relations on their documents.
//!
//! The relations are this repository's stated figure conclusions (README
//! and each binary's module docs), not digitized paper numbers: PAPER.md
//! holds only the paper's title. Each margin was set, with slack, from the
//! documents of the code before the first trial-bit change the gate
//! guards, and must never be tuned (nor the seed list changed) to let a
//! later change pass: a change that breaks a claim is at fault until its
//! CHANGES.md entry explains why the conclusion moved.
//!
//! Claims on a robustification ingredient, each with the scratch mutation
//! that fails it:
//!
//! | ingredient | claim | failing mutation |
//! |---|---|---|
//! | aggressive stepping | [`aggressive_stepping`] in Figures 6.1 and 6.4 | `aggressive_phase` returns at once |
//!
//! It runs eight binaries three times, about two minutes under release
//! codegen and far longer in debug, so debug builds skip it. Run it with
//! `cargo test --release -p robustify_bench --test claims`.

mod common;

use robustify_engine::{DocCell, SweepDoc};

use common::json_documents;

/// The seeds every claim must hold at.
const SEEDS: [u64; 3] = [42, 7, 11];

/// Runs `bin --fast --json --seed seed`; returns its stdout.
fn spawn(bin: &str, seed: u64) -> String {
    common::spawn(bin, &["--fast", "--json", "--seed", &seed.to_string()])
}

/// Every `-- json --` document on a binary's stdout, in order.
fn documents(stdout: &str) -> Vec<SweepDoc> {
    json_documents(stdout)
        .into_iter()
        .map(|line| SweepDoc::parse(line).expect("a result document"))
        .collect()
}

/// The one document of a single-campaign binary.
fn document(bin: &str, seed: u64) -> SweepDoc {
    let mut docs = documents(&spawn(bin, seed));
    assert_eq!(docs.len(), 1, "{bin}: one document");
    docs.remove(0)
}

/// The cells of the case labelled `label`, in rate order.
fn case<'a>(doc: &'a SweepDoc, label: &str) -> &'a [DocCell] {
    let i = doc
        .labels
        .iter()
        .position(|l| l == label)
        .unwrap_or_else(|| panic!("no case {label:?} in {:?}", doc.labels));
    &doc.cells[i]
}

/// Whether every trial of a cell failed outright (a non-finite metric).
fn all_failed(cell: &DocCell) -> bool {
    cell.failures == cell.trials
}

/// Collects one failed claim per line, so a run reports every broken
/// claim at every seed at once.
#[derive(Default)]
struct Claims(Vec<String>);

impl Claims {
    fn check(&mut self, holds: bool, claim: impl FnOnce() -> String) {
        if !holds {
            self.0.push(claim());
        }
    }
}

/// Aggressive stepping: in `doc` (figure `fig`), the `SGD+AS,LS` column
/// succeeds in at least 10 points more trials than `without`, the same
/// solver with aggressive stepping off, at every rate ≤ 5%. Set from the
/// smallest parent gap, 20 points; a mutation that makes
/// `aggressive_phase` return at once closes every gap to 0.
fn aggressive_stepping(claims: &mut Claims, fig: &str, seed: u64, doc: &SweepDoc, without: &str) {
    let (with, without_as) = (case(doc, "SGD+AS,LS"), case(doc, without));
    for (r, &rate) in doc.rates_pct.iter().enumerate() {
        let gap = with[r].success_rate - without_as[r].success_rate;
        claims.check(rate > 5.0 || gap >= 10.0, || {
            format!(
                "{fig} seed {seed} rate {rate}%: SGD+AS,LS leads {without} by only {gap} points"
            )
        });
    }
}

/// Figure 6.1: sorting with SGD+AS under `1/√t` succeeds in ≥ 80% of
/// trials at every rate, and in more trials than plain SGD; aggressive
/// stepping lifts `SGD` ([`aggressive_stepping`]).
fn sorting(claims: &mut Claims, seed: u64) {
    let doc = document(env!("CARGO_BIN_EXE_fig6_1_sorting"), seed);
    let (sqs, sgd) = (case(&doc, "SGD+AS,SQS"), case(&doc, "SGD"));
    for (r, rate) in doc.rates_pct.iter().enumerate() {
        claims.check(sqs[r].success_rate >= 80.0, || {
            format!("fig6_1 seed {seed} rate {rate}%: SGD+AS,SQS succeeds in under 80%")
        });
        claims.check(sqs[r].successes > sgd[r].successes, || {
            format!("fig6_1 seed {seed} rate {rate}%: SGD+AS,SQS no better than SGD")
        });
    }
    aggressive_stepping(claims, "fig6_1", seed, &doc, "SGD");
}

/// Figure 6.2: the SVD baseline succeeds in at most 20% of trials at every
/// rate, while both `1/t` SGD variants succeed in ≥ 80% with a median
/// relative error below 0.1.
fn least_squares(claims: &mut Claims, seed: u64) {
    let doc = document(env!("CARGO_BIN_EXE_fig6_2_least_squares"), seed);
    for (r, rate) in doc.rates_pct.iter().enumerate() {
        claims.check(case(&doc, "Base: SVD")[r].success_rate <= 20.0, || {
            format!("fig6_2 seed {seed} rate {rate}%: the SVD baseline survives")
        });
        for label in ["SGD,LS", "SGD+AS,LS"] {
            let cell = case(&doc, label)[r];
            claims.check(cell.success_rate >= 80.0 && cell.median < 0.1, || {
                format!("fig6_2 seed {seed} rate {rate}%: {label} degrades")
            });
        }
    }
}

/// Figure 6.3: every SGD variant's median error stays below 0.1 at every
/// rate; from 1% up the recursion baseline's median exceeds 1e6 or some
/// of its trials fail outright.
fn iir(claims: &mut Claims, seed: u64) {
    let doc = document(env!("CARGO_BIN_EXE_fig6_3_iir"), seed);
    for (r, &rate) in doc.rates_pct.iter().enumerate() {
        for label in doc.labels.iter().filter(|l| *l != "Base") {
            claims.check(case(&doc, label)[r].median < 0.1, || {
                format!("fig6_3 seed {seed} rate {rate}%: {label}'s median error reaches 0.1")
            });
        }
        let base = case(&doc, "Base")[r];
        claims.check(rate < 1.0 || base.median > 1e6 || base.failures > 0, || {
            format!("fig6_3 seed {seed} rate {rate}%: the recursion baseline stays stable")
        });
    }
}

/// Figure 6.4: matching with SGD+AS under `1/√t` succeeds in ≥ 90% of
/// trials at every rate; aggressive stepping lifts `SGD,LS`
/// ([`aggressive_stepping`]).
fn matching(claims: &mut Claims, seed: u64) {
    let doc = document(env!("CARGO_BIN_EXE_fig6_4_matching"), seed);
    for (r, rate) in doc.rates_pct.iter().enumerate() {
        claims.check(case(&doc, "SGD+AS,SQS")[r].success_rate >= 90.0, || {
            format!("fig6_4 seed {seed} rate {rate}%: SGD+AS,SQS succeeds in under 90%")
        });
    }
    aggressive_stepping(claims, "fig6_4", seed, &doc, "SGD,LS");
}

/// Figure 6.5: ALL succeeds in ≥ 50% of trials at every rate up to 50%
/// and ANNEAL does at 50%, where the non-robust baseline succeeds in at
/// most 25%.
fn matching_variants(claims: &mut Claims, seed: u64) {
    let doc = document(env!("CARGO_BIN_EXE_fig6_5_matching_variants"), seed);
    let last = doc.rates_pct.len() - 1;
    for (r, rate) in doc.rates_pct.iter().enumerate() {
        claims.check(case(&doc, "ALL")[r].success_rate >= 50.0, || {
            format!("fig6_5 seed {seed} rate {rate}%: ALL succeeds in under 50%")
        });
    }
    claims.check(case(&doc, "ANNEAL")[last].success_rate >= 50.0, || {
        format!("fig6_5 seed {seed}: ANNEAL succeeds in under 50% at the top rate")
    });
    claims.check(case(&doc, "Non-robust")[last].success_rate <= 25.0, || {
        format!("fig6_5 seed {seed}: the non-robust baseline survives the top rate")
    });
}

/// Figure 6.6, both tables: wherever every reliable baseline fails in all
/// of its trials, CG's trials all stay finite.
fn cg_accuracy(claims: &mut Claims, seed: u64) {
    let docs = documents(&spawn(env!("CARGO_BIN_EXE_fig6_6_cg_accuracy"), seed));
    assert_eq!(
        docs.len(),
        2,
        "fig6_6: the well- and ill-conditioned tables"
    );
    for (t, doc) in docs.iter().enumerate() {
        let cg = case(doc, "CG,N=10");
        for (r, rate) in doc.rates_pct.iter().enumerate() {
            let baselines_fail = ["Base:QR", "Base:SVD", "Base:Cholesky"]
                .iter()
                .all(|label| all_failed(&case(doc, label)[r]));
            claims.check(!baselines_fail || cg[r].failures == 0, || {
                format!(
                    "fig6_6 table {t} seed {seed} rate {rate}%: CG fails where the baselines do"
                )
            });
        }
    }
}

/// Figure 6.7: CG's energy saving over the Cholesky baseline is positive
/// for every accuracy target from 1e-1 down to 1e-4. The saving is a
/// table column (the frontier needs per-trial errors the document lacks).
fn cg_energy(claims: &mut Claims, seed: u64) {
    let stdout = spawn(env!("CARGO_BIN_EXE_fig6_7_cg_energy"), seed);
    let header = stdout
        .lines()
        .skip_while(|l| !l.starts_with("== Figure 6.7"))
        .nth(1)
        .expect("the Figure 6.7 table");
    let column = header
        .split_whitespace()
        .position(|c| c == "saving_%")
        .expect("a saving_% column");
    let mut checked = 0;
    for row in stdout
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
    {
        if let ["1e-1" | "1e-2" | "1e-3" | "1e-4", ..] = row[..] {
            let saving: f64 = row[column].parse().expect("a numeric saving");
            claims.check(saving > 0.0, || {
                format!("fig6_7 seed {seed} target {}: CG saves no energy", row[0])
            });
            checked += 1;
        }
    }
    assert_eq!(checked, 4, "fig6_7: one row per target 1e-1..1e-4");
}

/// Table 6.2: momentum changes matching's success rate by at most 35
/// points at every rate (the paper's "only a marginal benefit").
fn momentum(claims: &mut Claims, seed: u64) {
    let doc = document(env!("CARGO_BIN_EXE_tab6_2_momentum"), seed);
    let (plain, with) = (case(&doc, "match"), case(&doc, "match+mom"));
    for (r, rate) in doc.rates_pct.iter().enumerate() {
        let change = (with[r].success_rate - plain[r].success_rate).abs();
        claims.check(change <= 35.0, || {
            format!("tab6_2 seed {seed} rate {rate}%: momentum moves matching by {change} points")
        });
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs eight figure binaries at three seeds; release codegen only"
)]
fn figure_conclusions_hold_at_every_seed() {
    let mut claims = Claims::default();
    for seed in SEEDS {
        sorting(&mut claims, seed);
        least_squares(&mut claims, seed);
        iir(&mut claims, seed);
        matching(&mut claims, seed);
        matching_variants(&mut claims, seed);
        cg_accuracy(&mut claims, seed);
        cg_energy(&mut claims, seed);
        momentum(&mut claims, seed);
    }
    assert!(
        claims.0.is_empty(),
        "figure conclusions broken:\n{}",
        claims.0.join("\n")
    );
}
