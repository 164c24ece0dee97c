//! End-to-end robustification pipelines across every crate of the
//! workspace, at fixed fault rates with fixed seeds — all driven through
//! the unified `RobustProblem` × `SolverSpec` interface and campaigns over
//! workloads registered locally.

use rand::rngs::StdRng;
use rand::SeedableRng;
use robustify::apps::apsp::ApspProblem;
use robustify::apps::iir::{IirFilter, IirProblem};
use robustify::apps::least_squares::LeastSquares;
use robustify::apps::matching::MatchingProblem;
use robustify::apps::maxflow::MaxFlowProblem;
use robustify::apps::sorting::SortProblem;
use robustify::core::{
    AggressiveStepping, Annealing, GradientGuard, RobustProblem, SolverSpec, StepSchedule,
    WorkloadRegistry,
};
use robustify::engine::campaign::{self, CampaignSpec, JobSpec};
use robustify::engine::SweepResult;
use robustify::fpu::{BitFaultModel, FaultRate, Fpu, NoisyFpu, ReliableFpu};
use robustify::graph::generators::{
    random_bipartite, random_flow_network, random_strongly_connected,
};

const RATE_2PCT: f64 = 2.0;

/// A registry holding `problem` under `name` for every seed, so fixed
/// jobs run one shared instance.
fn fixed<P>(name: &str, problem: P) -> WorkloadRegistry
where
    P: RobustProblem + Clone + Send + Sync + 'static,
{
    let mut reg = WorkloadRegistry::new();
    reg.register(
        name,
        Box::new(move |_| Box::new(problem.clone())),
        Box::new(|_| SolverSpec::baseline()),
    );
    reg
}

/// A registry drawing a fresh 5-element sorting array per seed.
fn random_sorts() -> WorkloadRegistry {
    let mut reg = WorkloadRegistry::new();
    reg.register(
        "sort",
        Box::new(|seed| Box::new(SortProblem::random(&mut StdRng::seed_from_u64(seed), 5))),
        Box::new(|_| SolverSpec::baseline()),
    );
    reg
}

fn grid(name: &str, rate_pct: f64, trials: usize, seed: u64) -> CampaignSpec {
    CampaignSpec::new(name)
        .rates(vec![rate_pct])
        .trials(trials)
        .seed(seed)
        .model(BitFaultModel::emulated())
}

fn run(spec: &CampaignSpec, registry: &WorkloadRegistry) -> SweepResult {
    campaign::run(spec, registry, None, |_| {})
        .expect("campaign runs")
        .result
}

#[test]
fn robust_least_squares_beats_every_baseline_at_2pct() {
    let problem = LeastSquares::random(&mut StdRng::seed_from_u64(1), 100, 10);
    let sgd = SolverSpec::sgd(
        1000,
        StepSchedule::Linear {
            gamma0: problem.default_gamma0(),
        },
    )
    .with_aggressive_stepping(AggressiveStepping::default());
    let reg = fixed("lsq", problem);
    let mut spec =
        grid("lsq_2pct", RATE_2PCT, 8, 77).job(JobSpec::new("robust", "lsq").with_solver(sgd));
    for name in ["svd", "qr", "cholesky"] {
        spec = spec.job(JobSpec::new(name, "lsq").with_solver(SolverSpec::baseline_variant(name)));
    }
    let result = run(&spec, &reg);
    let robust = result.case_cell("robust", 0).summary();
    assert!(
        robust.median() < 0.1,
        "robust median error {}",
        robust.median()
    );
    for name in ["svd", "qr", "cholesky"] {
        let baseline = result.case_cell(name, 0).summary();
        assert!(
            baseline.median() > robust.median() * 10.0,
            "{name} baseline median {} unexpectedly competitive with robust {}",
            baseline.median(),
            robust.median()
        );
    }
}

#[test]
fn robust_sort_high_success_at_5pct() {
    let spec = SolverSpec::sgd(10_000, StepSchedule::Sqrt { gamma0: 0.1 })
        .with_guard(GradientGuard::Adaptive {
            factor: 3.0,
            reject: 30.0,
        })
        .with_aggressive_stepping(AggressiveStepping::default());
    let campaign = grid("sort_5pct", 5.0, 20, 9)
        .job(JobSpec::new("sort", "sort").per_trial().with_solver(spec));
    let result = run(&campaign, &random_sorts());
    let success = result.cell(0, 0).success_rate();
    assert!(success >= 70.0, "robust sort success {success}% at 5%");
}

#[test]
fn robust_matching_high_success_at_10pct_with_annealing() {
    let spec = SolverSpec::sgd(10_000, StepSchedule::Sqrt { gamma0: 0.05 })
        .with_annealing(Annealing::default())
        .with_aggressive_stepping(AggressiveStepping::default());
    let mut reg = WorkloadRegistry::new();
    reg.register(
        "matching",
        Box::new(|seed| {
            Box::new(MatchingProblem::new(random_bipartite(
                &mut StdRng::seed_from_u64(seed),
                5,
                6,
                30,
            )))
        }),
        Box::new(|_| SolverSpec::baseline()),
    );
    let campaign = grid("matching_10pct", 10.0, 12, 5).job(
        JobSpec::new("matching", "matching")
            .per_trial()
            .with_solver(spec),
    );
    let result = run(&campaign, &reg);
    let success = result.cell(0, 0).success_rate();
    assert!(success >= 60.0, "robust matching success {success}% at 10%");
}

#[test]
fn robust_iir_orders_of_magnitude_better_at_1pct() {
    let mut rng = StdRng::seed_from_u64(4);
    let filter = IirFilter::random_stable(&mut rng, 4, 2);
    let u: Vec<f64> = (0..300).map(|i| ((i as f64) * 0.31).sin()).collect();
    let gamma0 = filter
        .default_gamma0(u.len())
        .expect("signal longer than taps");
    let problem = IirProblem::new(filter, u).expect("signal longer than taps");

    let spec = grid("iir_1pct", 1.0, 6, 13)
        .job(JobSpec::new("baseline", "iir"))
        .job(
            JobSpec::new("robust", "iir").with_solver(
                SolverSpec::sgd(1500, StepSchedule::Sqrt { gamma0 })
                    .with_guard(GradientGuard::ClampComponents { max_abs: 1.0 }),
            ),
        );
    let result = run(&spec, &fixed("iir", problem));
    let baseline = result.case_cell("baseline", 0).summary();
    let robust = result.case_cell("robust", 0).summary();
    assert!(
        robust.median() * 10.0 < baseline.median().min(1e12),
        "robust {} vs baseline {}",
        robust.median(),
        baseline.median()
    );
}

#[test]
fn robust_maxflow_small_error_at_1pct() {
    let problem = MaxFlowProblem::new(random_flow_network(&mut StdRng::seed_from_u64(13), 6, 8))
        .expect("non-empty network");
    let spec = SolverSpec::sgd(8000, StepSchedule::Sqrt { gamma0: 0.02 })
        .with_annealing(Annealing::default());
    let campaign =
        grid("maxflow_1pct", 1.0, 5, 3).job(JobSpec::new("maxflow", "maxflow").with_solver(spec));
    let result = run(&campaign, &fixed("maxflow", problem));
    let summary = result.cell(0, 0).summary();
    assert!(
        summary.median() < 0.3,
        "maxflow median error {}",
        summary.median()
    );
}

#[test]
fn robust_apsp_small_error_at_1pct() {
    let problem = ApspProblem::new(random_strongly_connected(
        &mut StdRng::seed_from_u64(11),
        5,
        5,
    ))
    .expect("strongly connected");
    let spec = SolverSpec::sgd(8000, StepSchedule::Sqrt { gamma0: 0.02 })
        .with_annealing(Annealing::default())
        .with_guard(GradientGuard::Adaptive {
            factor: 10.0,
            reject: 100.0,
        });
    let campaign = grid("apsp_1pct", 1.0, 5, 3).job(JobSpec::new("apsp", "apsp").with_solver(spec));
    let result = run(&campaign, &fixed("apsp", problem));
    let summary = result.cell(0, 0).summary();
    assert!(
        summary.median() < 0.3,
        "apsp median error {}",
        summary.median()
    );
}

#[test]
fn real_app_sweep_is_thread_count_invariant() {
    // The engine determinism guarantee on a real application: a sorting
    // campaign aggregated from 1 worker and from 4 workers emits identical
    // bytes.
    let spec = SolverSpec::sgd(2000, StepSchedule::Sqrt { gamma0: 0.1 }).with_guard(
        GradientGuard::Adaptive {
            factor: 3.0,
            reject: 30.0,
        },
    );
    let grid = CampaignSpec::new("sort_determinism")
        .rates(vec![1.0, 10.0])
        .trials(6)
        .seed(42)
        .model(BitFaultModel::emulated())
        .job(JobSpec::new("baseline", "sort").per_trial())
        .job(JobSpec::new("sgd", "sort").per_trial().with_solver(spec));
    let reg = random_sorts();
    let serial = run(&grid.clone().threads(1), &reg);
    let parallel = run(&grid.threads(4), &reg);
    assert_eq!(serial.to_json(), parallel.to_json());
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

#[test]
fn energy_pipeline_cg_beats_cholesky_for_loose_targets() {
    // The Figure 6.7 conclusion as an assertion: at a loose accuracy target
    // there is an overscaled operating point where CG costs less energy
    // than nominal-voltage Cholesky.
    let problem = LeastSquares::random(&mut StdRng::seed_from_u64(1), 100, 10);
    let model = robustify::fpu::VoltageErrorModel::paper_figure_5_2();

    let mut fpu = ReliableFpu::new();
    problem.solve_cholesky(&mut fpu).expect("full rank");
    let baseline_energy = model.energy(fpu.flops(), model.nominal_voltage());

    let v = 0.8;
    let mut fpu = NoisyFpu::new(model.fault_rate_at(v), BitFaultModel::emulated(), 2);
    let report = problem.solve_cg(3, &mut fpu);
    let energy = model.energy(report.flops, v);
    assert!(
        problem.residual_relative_error(&report.x) < 1e-2,
        "accuracy target missed: {}",
        problem.residual_relative_error(&report.x)
    );
    assert!(
        energy < baseline_energy,
        "overscaled CG energy {energy} not below baseline {baseline_energy}"
    );
}

#[test]
fn whole_stack_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let problem = LeastSquares::random(&mut StdRng::seed_from_u64(3), 30, 5);
        let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.02), BitFaultModel::emulated(), seed);
        let report = problem.solve_sgd_default(&mut fpu);
        (report.x, fpu.faults())
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9).0, run(10).0);
}

#[test]
fn facade_reexports_are_usable() {
    // Compile-time sanity that the facade exposes each crate.
    let _ = robustify::fpu::ReliableFpu::new();
    let _ = robustify::linalg::Matrix::identity(2);
    let _ = robustify::core::StepSchedule::Fixed(0.1);
    let _ = robustify::graph::DiGraph::new(2, vec![(0, 1, 1.0)]).expect("valid graph");
    let _ = robustify::apps::sorting::SortProblem::new(vec![1.0]).expect("non-empty");
    let _ = robustify::engine::paper_fault_rates();
}
