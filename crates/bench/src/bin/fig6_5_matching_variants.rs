//! Figure 6.5: the effect of gradient descent enhancements on the success
//! rate of bipartite matching, across 0–50% fault rates.
//!
//! Series: the non-robust Hungarian baseline, basic SGD with `1/t` steps
//! ("Basic,LS"), sqrt step scaling ("SQS"), QR preconditioning of the LP
//! ("PRECOND"), penalty annealing ("ANNEAL"), and everything combined with
//! momentum and aggressive stepping ("ALL").
//!
//! Expected shape (paper): basic GD loses to the non-robust baseline below
//! ~5%; preconditioning matches the baseline up to ~2% and wins above it;
//! annealing "achieves a 88% success rate even with roughly half of the
//! floating point operations containing noise"; ALL reaches 100% at 50%.
//!
//! Reproduction note: our PRECOND path runs the *generic* LP gradient,
//! whose ~5× larger FLOP footprint proportionally raises its fault
//! exposure under per-FLOP injection; at high fault rates that outweighs
//! the conditioning benefit, so ALL combines every enhancement *except*
//! preconditioning (see EXPERIMENTS.md). The figure is a declarative
//! campaign over the `matching` workload, one fresh graph per trial.
//! Per-trial workload seeds use the
//! engine's standard [`robustify_engine::problem_seed`] derivation, so
//! trial graphs (not fault streams) differ from earlier serial recordings
//! that used a bespoke `seed ^ (trial * 6007)` stream.

#![forbid(unsafe_code)]
use robustify_bench::workloads::paper_registry;
use robustify_bench::{success_table, ExperimentOptions};
use robustify_core::{AggressiveStepping, Annealing, SolverSpec, StepSchedule};
use robustify_engine::campaign::JobSpec;
use robustify_engine::extended_fault_rates;

const ITERATIONS: usize = 10_000;

fn matching_job(label: &str, spec: SolverSpec) -> JobSpec {
    JobSpec::new(label, "matching")
        .per_trial()
        .with_solver(spec)
}

fn main() {
    let opts = ExperimentOptions::parse();
    let trials = opts.trials(40, 8);

    let ls = StepSchedule::Linear { gamma0: 0.05 };
    let sqs = StepSchedule::Sqrt { gamma0: 0.05 };
    let campaign = opts
        .campaign("fig6_5_matching_variants")
        .rates(extended_fault_rates())
        .trials(trials)
        .job(matching_job("Non-robust", SolverSpec::baseline()))
        .job(matching_job("Basic,LS", SolverSpec::sgd(ITERATIONS, ls)))
        .job(matching_job("SQS", SolverSpec::sgd(ITERATIONS, sqs)))
        .job(matching_job(
            "PRECOND",
            SolverSpec::preconditioned_sgd(ITERATIONS, sqs),
        ))
        .job(matching_job(
            "ANNEAL",
            SolverSpec::sgd(ITERATIONS, sqs).with_annealing(Annealing::default()),
        ))
        .job(matching_job(
            "ALL",
            SolverSpec::sgd(ITERATIONS, sqs)
                .with_annealing(Annealing::default())
                .with_momentum(0.5)
                .with_aggressive_stepping(AggressiveStepping::default()),
        ));

    let Some(run) = opts.execute_campaign(&campaign, &paper_registry()) else {
        return;
    };
    let table = success_table(
        &format!(
            "Figure 6.5 — Matching enhancements, {ITERATIONS} iterations ({trials} trials/point)"
        ),
        &run.result,
    );
    opts.emit(&table, &run);
}
