//! §6.2.2 (text result): the effect of momentum on SGD success rates.
//!
//! "For the sorting problem, utilizing momentum improved the success rate
//! 20–40% relative to the basic gradient descent. However, the addition of
//! momentum provided only a marginal benefit (< 5%) for bipartite graph
//! matching."
//!
//! This harness runs basic `1/t` SGD with and without momentum `β = 0.5`
//! on both workloads across fault rates. The grid is a declarative
//! campaign (per-trial jobs on the `sorting` and `matching` registry
//! workloads), so this binary is also a *thin client*: with
//! `--server ADDR` it submits the campaign to a running `campaign_server`
//! and prints the daemon's byte-identical documents; with
//! `--cache-dir PATH` a local run checkpoints per cell and resumes after
//! a kill.

#![forbid(unsafe_code)]
use robustify_bench::workloads::paper_registry;
use robustify_bench::{success_table, ExperimentOptions};
use robustify_core::{GradientGuard, SolverSpec, StepSchedule};
use robustify_engine::campaign::JobSpec;

const ITERATIONS: usize = 10_000;

fn main() {
    let opts = ExperimentOptions::parse();
    let trials = opts.trials(100, 15);

    // Per-app configs matching the Figure 6.1 / 6.4 "SGD" variants.
    let sort_plain = SolverSpec::sgd(ITERATIONS, StepSchedule::Linear { gamma0: 0.1 }).with_guard(
        GradientGuard::Adaptive {
            factor: 3.0,
            reject: 30.0,
        },
    );
    let sort_momentum = sort_plain.clone().with_momentum(0.5);
    let match_plain = SolverSpec::sgd(ITERATIONS, StepSchedule::Linear { gamma0: 0.05 });
    let match_momentum = match_plain.clone().with_momentum(0.5);

    // A fresh random instance per trial (the registry factories are the
    // exact constructors the old closure-based sweep called).
    let job = |label: &str, workload: &str, spec: SolverSpec| {
        JobSpec::new(label, workload).per_trial().with_solver(spec)
    };
    let campaign = opts
        .campaign("tab6_2_momentum")
        .rates(vec![1.0, 2.0, 5.0, 10.0])
        .trials(trials)
        .job(job("sort", "sorting", sort_plain))
        .job(job("sort+mom", "sorting", sort_momentum))
        .job(job("match", "matching", match_plain))
        .job(job("match+mom", "matching", match_momentum));

    let Some(run) = opts.execute_campaign(&campaign, &paper_registry()) else {
        return;
    };
    let result = &run.result;

    let table = success_table(
        &format!("§6.2.2 — momentum (β = 0.5) vs basic SGD ({trials} trials/point)"),
        result,
    );
    opts.emit(&table, &run);
}
