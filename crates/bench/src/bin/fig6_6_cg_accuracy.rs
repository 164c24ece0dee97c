//! Figure 6.6: accuracy of the CG-based least squares implementation
//! (10 iterations) vs the QR / SVD / Cholesky baselines, as a function of
//! fault rate (the 0% row is the reliable reference).
//!
//! Expected shape (paper): all three decomposition baselines break down
//! under faults (SVD being the most accurate on a *reliable* processor,
//! "even with ill-conditioned problems"; Cholesky the fastest but the most
//! restricted); CG degrades gracefully.
//!
//! Each table is a declarative campaign (4 solver jobs on the
//! `least_squares` / `least_squares_ill` registry workloads), so this
//! binary is also a *thin client*: with `--server ADDR` it submits both
//! campaigns to a running `campaign_server` and prints the daemon's
//! byte-identical documents; with `--cache-dir PATH` a local run
//! checkpoints per cell and resumes after a kill.

#![forbid(unsafe_code)]
use robustify_bench::workloads::{paper_least_squares, paper_registry};
use robustify_bench::{fmt_metric, ExperimentOptions, Table};
use robustify_core::SolverSpec;
use robustify_engine::campaign::JobSpec;
use robustify_engine::paper_fault_rates;
use stochastic_fpu::{Fpu, ReliableFpu};

const CG_ITERATIONS: usize = 10;

fn run_table(title: &str, name: &str, workload: &str, opts: &ExperimentOptions, trials: usize) {
    let job = |label: &str, spec: SolverSpec| JobSpec::new(label, workload).with_solver(spec);

    // Rate 0 doubles as the reliable reference row of the paper's figure.
    // Its cells run `trials` identical deterministic solves; at this
    // workload's µs-scale solve cost that redundancy is noise next to the
    // faulted cells, and it keeps the grid a single rectangular sweep.
    let mut rates = vec![0.0];
    rates.extend(paper_fault_rates());
    let campaign = opts
        .campaign(name)
        .rates(rates)
        .trials(trials)
        .job(job("Base:QR", SolverSpec::baseline_variant("qr")))
        .job(job("Base:SVD", SolverSpec::baseline_variant("svd")))
        .job(job(
            "Base:Cholesky",
            SolverSpec::baseline_variant("cholesky"),
        ))
        .job(job("CG,N=10", SolverSpec::cg(CG_ITERATIONS)));

    let Some(run) = opts.execute_campaign(&campaign, &paper_registry()) else {
        return;
    };
    let result = &run.result;

    let mut table = Table::new(
        title,
        &[
            "fault_rate_%",
            "Base:QR",
            "Base:SVD",
            "Base:Cholesky",
            "CG,N=10",
            "cg_fail",
        ],
    );
    for (rate_idx, rate) in result.rates_pct().iter().enumerate() {
        let cg = result.cell(3, rate_idx).summary();
        table.row(&[
            format!("{rate}"),
            fmt_metric(result.cell(0, rate_idx).summary().median()),
            fmt_metric(result.cell(1, rate_idx).summary().median()),
            fmt_metric(result.cell(2, rate_idx).summary().median()),
            fmt_metric(cg.median()),
            format!("{:.0}%", 100.0 * cg.failure_fraction()),
        ]);
    }
    opts.emit(&table, &run);
}

fn main() {
    let opts = ExperimentOptions::parse();
    let trials = opts.trials(20, 5);

    run_table(
        &format!(
            "Figure 6.6 — Accuracy of Least Squares, CG N={CG_ITERATIONS} \
             (well-conditioned, median over {trials} trials)"
        ),
        "fig6_6_cg_accuracy",
        "least_squares",
        &opts,
        trials,
    );

    run_table(
        "Figure 6.6 (ill-conditioned κ=1e4) — SVD is the strongest reliable baseline",
        "fig6_6_cg_accuracy_ill",
        "least_squares_ill",
        &opts,
        trials,
    );

    // The §6.3 runtime observation: FLOP counts of each solver on a
    // reliable FPU (CG ≈ 30% cheaper than QR/SVD; comparable to Cholesky).
    let well = paper_least_squares(opts.seed);
    let mut flops_table = Table::new(
        "§6.3 — FLOP cost per solve (reliable FPU)",
        &["solver", "flops"],
    );
    let count = |f: &dyn Fn(&mut ReliableFpu)| {
        let mut fpu = ReliableFpu::new();
        f(&mut fpu);
        fpu.flops()
    };
    flops_table.row(&[
        "QR".into(),
        count(&|fpu| {
            let _ = well.solve_qr(fpu);
        })
        .to_string(),
    ]);
    flops_table.row(&[
        "SVD".into(),
        count(&|fpu| {
            let _ = well.solve_svd(fpu);
        })
        .to_string(),
    ]);
    flops_table.row(&[
        "Cholesky".into(),
        count(&|fpu| {
            let _ = well.solve_cholesky(fpu);
        })
        .to_string(),
    ]);
    flops_table.row(&[
        "CG, N=10".into(),
        count(&|fpu| {
            let _ = well.solve_cg(CG_ITERATIONS, fpu);
        })
        .to_string(),
    ]);
    flops_table.print();
}
