//! Figure 6.2: relative error of least squares implementations vs fault
//! rate (1000 SGD iterations, `A ∈ R^{100×10}`; lower is better).
//!
//! Series: the SVD baseline ("Base: SVD"), plain SGD with `1/t` steps
//! ("SGD,LS"), and SGD+AS with `1/t` steps ("SGD+AS,LS"). The paper notes
//! that the SQS variant "results in errors larger than 1.0" — reported in
//! an extra column for completeness.
//!
//! The y-metric follows the paper's definition: the relative difference
//! between the ideal output and the actual output in residual norm
//! `‖Ax − b‖`. The table reports the median over trials plus the fraction
//! of trials that failed outright (NaN/breakdown).
//!
//! Expected shape (paper): the SVD baseline is "disastrously unstable under
//! numerical noise" at any measurable fault rate; the SGD variants degrade
//! gracefully, with aggressive stepping helping most below 1%.
//!
//! The figure is expressed as a declarative campaign (4 solver-variant
//! jobs on the `least_squares` workload), so this binary is also a *thin
//! client*: with `--server ADDR` it submits the campaign to a running
//! `campaign_server` and prints the daemon's byte-identical documents;
//! with `--cache-dir PATH` a local run checkpoints per cell and resumes
//! after a kill.

#![forbid(unsafe_code)]
use robustify_bench::workloads::{paper_least_squares, paper_registry};
use robustify_bench::{fmt_metric, ExperimentOptions, Table};
use robustify_core::{AggressiveStepping, SolverSpec, StepSchedule};
use robustify_engine::campaign::JobSpec;
use robustify_engine::paper_fault_rates;

const ITERATIONS: usize = 1000;

fn main() {
    let opts = ExperimentOptions::parse();
    let trials = opts.trials(20, 5);
    let gamma0 = paper_least_squares(opts.seed).default_gamma0();

    let ls = StepSchedule::Linear { gamma0 };
    let job =
        |label: &str, spec: SolverSpec| JobSpec::new(label, "least_squares").with_solver(spec);
    let campaign = opts
        .campaign("fig6_2_least_squares")
        .rates(paper_fault_rates())
        .trials(trials)
        .job(job("Base: SVD", SolverSpec::baseline_variant("svd")))
        .job(job("SGD,LS", SolverSpec::sgd(ITERATIONS, ls)))
        .job(job(
            "SGD+AS,LS",
            SolverSpec::sgd(ITERATIONS, ls).with_aggressive_stepping(AggressiveStepping::default()),
        ))
        .job(job(
            "SGD,SQS",
            SolverSpec::sgd(ITERATIONS, StepSchedule::Sqrt { gamma0 }),
        ));

    let Some(run) = opts.execute_campaign(&campaign, &paper_registry()) else {
        return;
    };
    let result = &run.result;

    let mut table = Table::new(
        &format!(
            "Figure 6.2 — Accuracy of Least Squares, {ITERATIONS} iterations \
             (median relative error over {trials} trials; fail = fraction broken)"
        ),
        &[
            "fault_rate_%",
            "Base:SVD",
            "svd_fail",
            "SGD,LS",
            "SGD+AS,LS",
            "SGD,SQS",
        ],
    );
    for (rate_idx, rate) in result.rates_pct().iter().enumerate() {
        let svd = result.cell(0, rate_idx).summary();
        table.row(&[
            format!("{rate}"),
            fmt_metric(svd.median()),
            format!("{:.0}%", 100.0 * svd.failure_fraction()),
            fmt_metric(result.cell(1, rate_idx).summary().median()),
            fmt_metric(result.cell(2, rate_idx).summary().median()),
            fmt_metric(result.cell(3, rate_idx).summary().median()),
        ]);
    }
    opts.emit(&table, &run);
}
