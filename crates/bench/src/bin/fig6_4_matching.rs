//! Figure 6.4: success rate of bipartite matching implementations vs fault
//! rate (10 000 SGD iterations, 11-node / 30-edge graphs).
//!
//! Series: the Hungarian baseline ("Base"; the paper used OpenCV), plain
//! SGD with `1/t` steps ("SGD,LS"), and SGD+AS under `1/t` and `1/√t`
//! schedules.
//!
//! Expected shape (paper): matching "showed little performance degradation
//! with increasing fault rates. However, the maximum success rate obtained,
//! even using aggressive stepping and step scaling, was limited" — the
//! enhancements of Figure 6.5 are needed to push it to 100%.
//!
//! The figure is a declarative campaign (4 solver-variant jobs on the
//! `matching` workload, one fresh graph per trial), so `--server` and
//! `--cache-dir` work as for every campaign binary.
//!
//! Note: per-trial workload seeds use the engine's standard
//! [`robustify_engine::problem_seed`] derivation; earlier serial recordings
//! of this figure used a bespoke `seed ^ (trial * 6007)` stream, so trial
//! graphs (not fault streams) differ from those runs.

#![forbid(unsafe_code)]
use robustify_bench::workloads::paper_registry;
use robustify_bench::{success_table, ExperimentOptions};
use robustify_core::{AggressiveStepping, SolverSpec, StepSchedule};
use robustify_engine::campaign::JobSpec;
use robustify_engine::paper_fault_rates;

const ITERATIONS: usize = 10_000;

fn matching_job(label: &str, spec: SolverSpec) -> JobSpec {
    JobSpec::new(label, "matching")
        .per_trial()
        .with_solver(spec)
}

fn main() {
    let opts = ExperimentOptions::parse();
    let trials = opts.trials(100, 15);

    let ls = StepSchedule::Linear { gamma0: 0.05 };
    let sqs = StepSchedule::Sqrt { gamma0: 0.05 };
    let campaign = opts
        .campaign("fig6_4_matching")
        .rates(paper_fault_rates())
        .trials(trials)
        .job(matching_job("Base", SolverSpec::baseline()))
        .job(matching_job("SGD,LS", SolverSpec::sgd(ITERATIONS, ls)))
        .job(matching_job(
            "SGD+AS,LS",
            SolverSpec::sgd(ITERATIONS, ls).with_aggressive_stepping(AggressiveStepping::default()),
        ))
        .job(matching_job(
            "SGD+AS,SQS",
            SolverSpec::sgd(ITERATIONS, sqs)
                .with_aggressive_stepping(AggressiveStepping::default()),
        ));

    let title = format!(
        "Figure 6.4 — Accuracy of Matching, {ITERATIONS} iterations ({trials} trials/point)"
    );
    opts.report(&campaign, &paper_registry(), |doc| {
        success_table(&title, doc)
    });
}
