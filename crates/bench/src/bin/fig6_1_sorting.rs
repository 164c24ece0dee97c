//! Figure 6.1: success rate of sorting implementations vs fault rate
//! (10 000 SGD iterations, 5-element arrays).
//!
//! Series: the deterministic comparison-sort baseline ("Base"), plain SGD
//! on the doubly stochastic LP with `1/t` steps ("SGD"), and SGD with an
//! aggressive-stepping tail under `1/t` ("SGD+AS,LS") and `1/√t`
//! ("SGD+AS,SQS") schedules.
//!
//! The figure is expressed as a declarative campaign (4 solver-variant
//! jobs on the `sorting` workload, one fresh 5-element array per trial),
//! so `--server` and `--cache-dir` work as for every campaign binary.
//!
//! Expected shape (paper): the baseline degrades as faults corrupt its
//! comparisons; plain 1/t SGD performs poorly; SQS scaling "is able to
//! achieve 100% accuracy even with large fault rates".

#![forbid(unsafe_code)]
use robustify_bench::workloads::paper_registry;
use robustify_bench::{success_table, ExperimentOptions};
use robustify_core::{AggressiveStepping, GradientGuard, SolverSpec, StepSchedule};
use robustify_engine::campaign::JobSpec;
use robustify_engine::paper_fault_rates;

const ITERATIONS: usize = 10_000;

fn sort_job(label: &str, spec: SolverSpec) -> JobSpec {
    // One fresh random array per trial.
    JobSpec::new(label, "sorting").per_trial().with_solver(spec)
}

fn main() {
    let opts = ExperimentOptions::parse();
    let trials = opts.trials(200, 25);

    // All SGD variants share the guard tuned for the cold-started doubly
    // stochastic relaxation (see the guard ablation bench).
    let guard = GradientGuard::Adaptive {
        factor: 3.0,
        reject: 30.0,
    };
    let ls = StepSchedule::Linear { gamma0: 0.1 };
    let sqs = StepSchedule::Sqrt { gamma0: 0.1 };
    let campaign = opts
        .campaign("fig6_1_sorting")
        .rates(paper_fault_rates())
        .trials(trials)
        .job(sort_job("Base", SolverSpec::baseline()))
        .job(sort_job(
            "SGD",
            SolverSpec::sgd(ITERATIONS, ls).with_guard(guard),
        ))
        .job(sort_job(
            "SGD+AS,LS",
            SolverSpec::sgd(ITERATIONS, ls)
                .with_guard(guard)
                .with_aggressive_stepping(AggressiveStepping::default()),
        ))
        .job(sort_job(
            "SGD+AS,SQS",
            SolverSpec::sgd(ITERATIONS, sqs)
                .with_guard(guard)
                .with_aggressive_stepping(AggressiveStepping::default()),
        ));

    let title =
        format!("Figure 6.1 — Accuracy of Sort, {ITERATIONS} iterations ({trials} trials/point)");
    opts.report(&campaign, &paper_registry(), |doc| {
        success_table(&title, doc)
    });
}
