//! Chapter 7 (limitations): the FLOP cost of robustification.
//!
//! "We observed that the number of floating point operations required by
//! our applications could be up to 10 to 1000 times higher than that for
//! the baseline implementations." This harness measures exactly that ratio
//! for every application, at a 0% fault rate so both sides run their
//! nominal FLOP counts — one campaign whose jobs are
//! `(app × {baseline, robust})` on each app's fixed registry instance and
//! whose FLOP totals come from the engine's per-cell accounting.

#![forbid(unsafe_code)]
use robustify_bench::workloads::{paper_iir_problem, paper_least_squares, paper_registry};
use robustify_bench::{ExperimentOptions, Table};
use robustify_core::{Annealing, SolverSpec, StepSchedule};
use robustify_engine::campaign::JobSpec;

fn main() {
    let opts = ExperimentOptions::parse();

    let lsq_gamma0 = paper_least_squares(opts.seed).default_gamma0();
    let iir_gamma0 = paper_iir_problem(opts.seed).default_gamma0();
    let anneal_lp = |gamma0: f64| {
        SolverSpec::sgd(8000, StepSchedule::Sqrt { gamma0 }).with_annealing(Annealing::default())
    };
    let svd = SolverSpec::baseline_variant("svd");
    let sqs = |iters: usize, gamma0: f64| SolverSpec::sgd(iters, StepSchedule::Sqrt { gamma0 });

    // One `(row label, workload, baseline, robust)` pair per application;
    // `CG` is the extra least squares data point of §6.3.
    let pairs = [
        (
            "least_squares (vs SVD)",
            "least_squares",
            svd.clone(),
            SolverSpec::sgd(1000, StepSchedule::Linear { gamma0: lsq_gamma0 }),
        ),
        (
            "least_squares CG (vs SVD)",
            "least_squares",
            svd,
            SolverSpec::cg(10),
        ),
        ("iir", "iir", SolverSpec::baseline(), sqs(1000, iir_gamma0)),
        (
            "sorting",
            "sorting",
            SolverSpec::baseline(),
            sqs(10_000, 0.1),
        ),
        (
            "matching",
            "matching",
            SolverSpec::baseline(),
            sqs(10_000, 0.05),
        ),
        (
            "maxflow",
            "maxflow",
            SolverSpec::baseline(),
            anneal_lp(0.02),
        ),
        ("apsp", "apsp", SolverSpec::baseline(), anneal_lp(0.02)),
        (
            "eigen (vs power iteration)",
            "eigen",
            SolverSpec::baseline(),
            sqs(4000, 0.02),
        ),
        (
            "doubly_stochastic (vs Hungarian)",
            "doubly_stochastic",
            SolverSpec::baseline(),
            sqs(3000, 0.05),
        ),
    ];

    // Fault rate 0, one trial per cell: pure FLOP accounting.
    let mut campaign = opts
        .campaign("ch7_flop_overhead")
        .rates(vec![0.0])
        .trials(1);
    for (label, workload, baseline, robust) in &pairs {
        campaign = campaign
            .job(JobSpec::new(&format!("{label}/baseline"), workload).with_solver(baseline.clone()))
            .job(JobSpec::new(&format!("{label}/robust"), workload).with_solver(robust.clone()));
    }

    let Some(run) = opts.execute_campaign(&campaign, &paper_registry()) else {
        return;
    };

    let mut table = Table::new(
        "Chapter 7 — FLOP overhead of robustification (0% fault rate)",
        &[
            "application",
            "baseline_flops",
            "robust_flops",
            "overhead_x",
        ],
    );
    for (i, (label, ..)) in pairs.iter().enumerate() {
        let baseline = run.result.cell(2 * i, 0).flops();
        let robust = run.result.cell(2 * i + 1, 0).flops();
        table.row(&[
            label.to_string(),
            baseline.to_string(),
            robust.to_string(),
            format!("{:.0}", robust as f64 / baseline.max(1) as f64),
        ]);
    }
    opts.emit(&table, &run);
    println!("paper, Ch. 7: robust FLOP counts are 10-1000x the baselines'.");
}
