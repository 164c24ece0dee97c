//! Figure 6.3: error-to-signal ratio of IIR implementations vs fault rate
//! (1000 SGD iterations, 10-tap filter, 500 input samples; lower is
//! better).
//!
//! Series: the direct-form recursion baseline ("Base"), SGD with `1/t`
//! steps ("SGD,LS"), and SGD+AS under `1/t` ("SGD+AS,LS") and `1/√t`
//! ("SGD+AS,SQS") schedules — all seeded with the noisy feed-forward
//! output, as in the paper (the problem's warm start runs through the same
//! faulty FPU as the solve).
//!
//! The figure is expressed as a declarative campaign (4 solver-variant
//! jobs on the `iir` workload), so this binary is also a *thin client*:
//! with `--server ADDR` it submits the campaign to a running
//! `campaign_server` and prints the daemon's byte-identical documents;
//! with `--cache-dir PATH` a local run checkpoints per cell and resumes
//! after a kill. Jobs materialize the workload at the campaign's base
//! seed (`Instantiate::Fixed`), so the step size derived below from
//! `paper_iir_problem(opts.seed)` matches the instance each cell solves.
//!
//! Expected shape (paper): "IIR using SGD produces several orders of
//! magnitude less error compared to the baseline procedural IIR
//! implementation. IIR error reduces further with sqrt step scaling."

#![forbid(unsafe_code)]
use robustify_bench::workloads::{paper_iir_problem, paper_registry};
use robustify_bench::{metric_table, ExperimentOptions};
use robustify_core::{AggressiveStepping, GradientGuard, SolverSpec, StepSchedule};
use robustify_engine::campaign::JobSpec;
use robustify_engine::paper_fault_rates;

const ITERATIONS: usize = 1000;

fn main() {
    let opts = ExperimentOptions::parse();
    let trials = opts.trials(10, 3);
    // Stability edge of gradient descent on ||Bx - Au||^2 for this filter.
    let gamma0 = paper_iir_problem(opts.seed).default_gamma0();
    // Per-lane clamping: banded costs localize corruption to a few lanes,
    // so component clamping preserves far more signal than norm clipping
    // (see the guard ablation bench).
    let guard = GradientGuard::ClampComponents { max_abs: 1.0 };

    let ls = StepSchedule::Linear { gamma0 };
    let sqs = StepSchedule::Sqrt { gamma0 };
    let job = |label: &str, spec: SolverSpec| JobSpec::new(label, "iir").with_solver(spec);
    let campaign = opts
        .campaign("fig6_3_iir")
        .rates(paper_fault_rates())
        .trials(trials)
        .job(job("Base", SolverSpec::baseline()))
        .job(job(
            "SGD,LS",
            SolverSpec::sgd(ITERATIONS, ls).with_guard(guard),
        ))
        .job(job(
            "SGD+AS,LS",
            SolverSpec::sgd(ITERATIONS, ls)
                .with_guard(guard)
                .with_aggressive_stepping(AggressiveStepping::default()),
        ))
        .job(job(
            "SGD+AS,SQS",
            SolverSpec::sgd(ITERATIONS, sqs)
                .with_guard(guard)
                .with_aggressive_stepping(AggressiveStepping::default()),
        ));

    let Some(run) = opts.execute_campaign(&campaign, &paper_registry()) else {
        return;
    };
    let result = &run.result;

    let table = metric_table(
        &format!(
            "Figure 6.3 — Accuracy of IIR, {ITERATIONS} iterations \
             (median error-to-signal ratio over {trials} trials)"
        ),
        result,
    );
    opts.emit(&table, &run);
}
