//! Figure 6.7: FPU energy of the CG-based least squares solver under
//! voltage overscaling, as a function of the accuracy target, against the
//! error-free Cholesky baseline.
//!
//! The harness runs *one* voltage-axis campaign
//! ([`CampaignSpec::voltages`](robustify_engine::campaign::CampaignSpec::voltages))
//! over the full `(CG iterations × operating voltage)` grid — the engine
//! derives each column's fault rate from the Figure 5.2 model and accounts
//! `energy = P(V) × FLOPs` per cell — then reads every accuracy target off
//! the same per-cell error quantiles: lower voltage means cheaper FLOPs
//! (`P ∝ V²`) but a higher FPU fault rate, which CG compensates with more
//! iterations. The reported energy is the cheapest `(voltage, iterations)`
//! pair that still meets the target in at least 80% of trials; the
//! Cholesky baseline runs at the nominal voltage, where the FPU is
//! effectively error-free.
//!
//! The grid is declarative (one fixed `least_squares` instance, one job
//! per CG iteration count), and with `--cache-dir PATH` a local run
//! checkpoints per cell and resumes after a kill. Unlike every other
//! campaign binary it runs locally only: its frontier counts the trials
//! whose error meets each target, a per-trial order statistic the result
//! document does not carry, so `--server` exits 2 with a usage message.
//!
//! Targets no grid point meets at the 80% bar are *clamped to the
//! boundary* rather than dropped: the row reports the nominal-voltage
//! (most reliable) cell at the largest iteration count, flagged
//! `clamped`, so the emitted table always carries one row per target.
//!
//! Expected shape (paper): CG's energy sits below the Cholesky baseline
//! across the sweep because voltage and iteration count can be scaled
//! concurrently; targets tighter than the solver's noise floor surface as
//! `clamped` rows instead of disappearing.

#![forbid(unsafe_code)]
use robustify_bench::cli::usage;
use robustify_bench::workloads::{paper_least_squares, paper_registry};
use robustify_bench::{fmt_metric, ExperimentOptions, Table};
use robustify_core::{RobustProblem, SolverSpec};
use robustify_engine::campaign::JobSpec;
use stochastic_fpu::{Fpu, ReliableFpu, VoltageErrorModel};

fn main() {
    let opts = ExperimentOptions::parse();
    if opts.server.is_some() {
        usage("--server: runs locally only; the document lacks the per-trial errors it needs");
    }
    let trials = opts.trials(10, 4);
    let problem = paper_least_squares(opts.seed);
    let model = VoltageErrorModel::paper_figure_5_2();

    // Baseline: Cholesky at the nominal voltage (error-free guardbanded
    // operation; its accuracy is machine precision, meeting every target).
    let cholesky = SolverSpec::baseline_variant("cholesky");
    let mut fpu = ReliableFpu::new();
    let chol_x = problem
        .solve(&cholesky, &mut fpu)
        .expect("least squares has baselines")
        .solution
        .expect("full-rank workload");
    let chol_flops = fpu.flops();
    let chol_energy = model.energy(chol_flops, model.nominal_voltage());

    // The voltage axis, nominal first: 1.0 V down to the calibrated
    // minimum in 25 mV steps.
    let voltages: Vec<f64> = (0..17).map(|i| 1.0 - 0.025 * i as f64).collect();
    let iteration_grid: Vec<usize> = vec![2, 3, 5, 7, 10, 14, 20, 28, 40];

    // The campaign grid: job = CG iteration count, column = operating
    // voltage. Every job shares the one fixed `least_squares` instance
    // the registry materializes from the campaign's base seed — the same
    // instance the Cholesky baseline above solves.
    let mut campaign = opts
        .campaign("fig6_7_cg_energy")
        .voltages(voltages.clone(), model.clone())
        .trials(trials);
    for &n in &iteration_grid {
        campaign = campaign.job(
            JobSpec::new(&format!("CG,N={n}"), "least_squares").with_solver(SolverSpec::cg(n)),
        );
    }
    let run = opts.run_local(&campaign, &paper_registry());
    let result = &run.result;

    let mut table = Table::new(
        &format!(
            "Figure 6.7 — Least Squares energy vs accuracy target \
             (power × FLOP units; {trials} trials per point)"
        ),
        &[
            "accuracy_target",
            "Base:Cholesky",
            "CG_energy",
            "CG_voltage",
            "CG_iters",
            "saving_%",
            "status",
        ],
    );

    for exp in 1..=7 {
        let target = 10f64.powi(-exp);
        // Find the cheapest (voltage, N) meeting the target in ≥ 80% of
        // trials — for each voltage the smallest sufficient N is also the
        // cheapest, so scan N ascending.
        let mut best: Option<(f64, f64, usize)> = None; // (energy, voltage, iters)
        for (vi, &v) in voltages.iter().enumerate() {
            for (ni, &n) in iteration_grid.iter().enumerate() {
                let cell = result.cell(ni, vi);
                let met = cell.summary().count_at_most(target);
                if met * 10 >= cell.trials() * 8 {
                    let energy = result
                        .energy_per_trial(ni, vi)
                        .expect("voltage-axis sweeps always have energy");
                    if best.map(|(e, _, _)| energy < e).unwrap_or(true) {
                        best = Some((energy, v, n));
                    }
                    break; // smallest sufficient N for this voltage
                }
            }
        }
        // Boundary clamp: when no (voltage, N) reaches the target, emit
        // the most reliable grid point — nominal voltage, max iterations —
        // instead of silently dropping the row.
        let (status, (energy, v, n)) = match best {
            Some(found) => ("ok", found),
            None => {
                let ni = iteration_grid.len() - 1;
                let energy = result
                    .energy_per_trial(ni, 0)
                    .expect("voltage-axis sweeps always have energy");
                ("clamped", (energy, voltages[0], iteration_grid[ni]))
            }
        };
        table.row(&[
            format!("1e-{exp}"),
            format!("{chol_energy:.0}"),
            format!("{energy:.0}"),
            format!("{v:.3}"),
            n.to_string(),
            format!("{:.0}", 100.0 * (1.0 - energy / chol_energy)),
            status.to_string(),
        ]);
    }
    opts.emit(&table, &result.to_csv(), &result.to_json());
    robustify_bench::outln!(
        "baseline Cholesky: {} FLOPs at {:.2} V (accuracy ~machine precision, rel err {})",
        chol_flops,
        model.nominal_voltage(),
        fmt_metric(problem.residual_relative_error(&chol_x)),
    );
}
