//! Ablation: gradient-guard policies (the control-plane sanitization that
//! restores Theorem 1's bounded-variance condition).
//!
//! Runs the sorting, least squares and IIR workloads at a 2% fault rate
//! under each guard policy — one campaign with a job per `(guard × app)`
//! pairing. The `off` row shows why *some* guard is
//! necessary under bit-level fault injection; the spread across the others
//! shows the policy is a real design choice (norm clipping for
//! low-dimensional cold-started problems, per-lane clamping for
//! high-dimensional banded costs, adaptive rejection for coherent
//! corruption).

#![forbid(unsafe_code)]
use robustify_bench::workloads::{paper_iir_problem, paper_least_squares, paper_registry};
use robustify_bench::{fmt_metric, ExperimentOptions, Table};
use robustify_core::{GradientGuard, SolverSpec, StepSchedule};
use robustify_engine::campaign::JobSpec;

fn main() {
    let opts = ExperimentOptions::parse();
    let trials = opts.trials(40, 8);

    let guards: Vec<(&str, GradientGuard)> = vec![
        ("off", GradientGuard::Off),
        ("zero_nonfinite", GradientGuard::ZeroNonFinite),
        ("clip_10", GradientGuard::Clip { max_norm: 10.0 }),
        ("clamp_1", GradientGuard::ClampComponents { max_abs: 1.0 }),
        (
            "adaptive_3",
            GradientGuard::Adaptive {
                factor: 3.0,
                reject: 30.0,
            },
        ),
    ];

    // The fixed least squares and IIR instances are the registry's at the
    // base seed; their step sizes are derived from those same instances.
    let lsq_gamma0 = paper_least_squares(opts.seed).default_gamma0();
    let iir_gamma0 = paper_iir_problem(opts.seed).default_gamma0();

    let mut campaign = opts
        .campaign("ablation_guard")
        .rates(vec![2.0])
        .trials(trials);
    for (name, guard) in &guards {
        campaign = campaign
            .job(
                JobSpec::new(&format!("{name}/sort"), "sorting")
                    .per_trial()
                    .with_solver(
                        SolverSpec::sgd(10_000, StepSchedule::Sqrt { gamma0: 0.1 })
                            .with_guard(*guard),
                    ),
            )
            .job(
                JobSpec::new(&format!("{name}/lsq"), "least_squares")
                    .with_solver(
                        SolverSpec::sgd(1000, StepSchedule::Linear { gamma0: lsq_gamma0 })
                            .with_guard(*guard),
                    )
                    .with_trials(trials.min(10)),
            )
            .job(
                JobSpec::new(&format!("{name}/iir"), "iir")
                    .with_solver(
                        SolverSpec::sgd(1000, StepSchedule::Sqrt { gamma0: iir_gamma0 })
                            .with_guard(*guard),
                    )
                    .with_trials(trials.min(6)),
            );
    }

    opts.report(&campaign, &paper_registry(), |result| {
        let mut table = Table::new(
            &format!("Guard ablation at 2% fault rate ({trials} trials/point)"),
            &[
                "guard",
                "sort_success_%",
                "lsq_median_err",
                "iir_median_err",
            ],
        );
        for (i, (name, _)) in guards.iter().enumerate() {
            table.row(&[
                name.to_string(),
                format!("{:.1}", result.cells[3 * i][0].success_rate),
                fmt_metric(result.cells[3 * i + 1][0].median),
                fmt_metric(result.cells[3 * i + 2][0].median),
            ]);
        }
        table
    });
}
