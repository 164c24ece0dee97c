//! The engine's determinism guarantee, as a property: a campaign run with
//! 1 worker thread, with N worker threads, and on a shared pool under a
//! forced-steal placement produces byte-identical documents for the same
//! base seed and grid.

use proptest::prelude::*;
use robustify_core::{RobustProblem, SolverSpec, StepSchedule, Verdict, WorkloadRegistry};
use robustify_engine::campaign::{self, CampaignSpec, JobSpec};
use robustify_engine::{Placement, Scheduler, SweepResult};
use robustify_linalg::Matrix;
use stochastic_fpu::{
    BitFaultModel, BitWidth, DvfsStep, FaultModelSpec, FlopOp, VoltageErrorModel,
};

/// A small but non-trivial problem: recover `b` from `f(x) = ‖x − b‖²`,
/// where `b` is derived from the per-trial workload seed so every trial
/// exercises a different instance.
struct Recover {
    b: Vec<f64>,
}

impl Recover {
    fn from_seed(seed: u64) -> Self {
        let b = (0..4)
            .map(|i| ((seed.wrapping_mul(i + 1) % 1000) as f64) / 100.0 - 5.0)
            .collect();
        Recover { b }
    }
}

impl RobustProblem for Recover {
    type Solution = Vec<f64>;
    type Cost = robustify_core::QuadraticResidualCost;

    fn name(&self) -> &'static str {
        "recover"
    }

    fn cost(&self) -> Self::Cost {
        robustify_core::QuadraticResidualCost::new(Matrix::identity(self.b.len()), self.b.clone())
            .expect("square system")
    }

    fn decode(&self, _cost: &Self::Cost, x: &[f64]) -> Vec<f64> {
        x.to_vec()
    }

    fn reference(&self) -> Vec<f64> {
        self.b.clone()
    }

    fn verify(&self, solution: &Vec<f64>) -> Verdict {
        let err = solution
            .iter()
            .zip(&self.b)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        Verdict::from_metric(err, 1e-2)
    }
}

fn registry() -> WorkloadRegistry {
    let mut reg = WorkloadRegistry::new();
    reg.register(
        "recover",
        Box::new(|seed| Box::new(Recover::from_seed(seed))),
        Box::new(|_| SolverSpec::sgd(120, StepSchedule::Fixed(0.2))),
    );
    reg
}

/// A fresh `Recover` instance per trial under `solver`.
fn job(label: &str, solver: SolverSpec) -> JobSpec {
    JobSpec::new(label, "recover")
        .per_trial()
        .with_solver(solver)
}

fn with_jobs(mut spec: CampaignSpec, jobs: Vec<JobSpec>) -> CampaignSpec {
    for job in jobs {
        spec = spec.job(job);
    }
    spec
}

fn jobs() -> Vec<JobSpec> {
    vec![
        job("sgd_fixed", SolverSpec::sgd(120, StepSchedule::Fixed(0.2))),
        job(
            "sgd_sqrt",
            SolverSpec::sgd(120, StepSchedule::Sqrt { gamma0: 0.5 }),
        )
        .with_trials(7),
    ]
}

/// One job per fault-model family, so a single grid mixes ≥ 5 distinct
/// [`FaultModelSpec`] variants.
fn mixed_model_jobs() -> Vec<JobSpec> {
    let spec = SolverSpec::sgd(100, StepSchedule::Sqrt { gamma0: 0.3 });
    let case =
        |label: &str, model: FaultModelSpec| job(label, spec.clone()).with_fault_model(model);
    vec![
        case("transient", FaultModelSpec::default()),
        case("stuck", FaultModelSpec::stuck_at(54, true, BitWidth::F64)),
        case("burst", FaultModelSpec::burst(3, BitFaultModel::emulated())),
        case(
            "operand",
            FaultModelSpec::operand(BitFaultModel::emulated()),
        ),
        case(
            "intermittent",
            FaultModelSpec::intermittent(0.5, 200, FaultModelSpec::default()),
        ),
        case(
            "muldiv",
            FaultModelSpec::op_selective(vec![FlopOp::Mul, FlopOp::Div], FaultModelSpec::default()),
        ),
    ]
}

/// Jobs mixing every voltage-era scenario on one voltage-axis grid: the
/// grid-rated default, a state-persistent memory fault, a job pinned to
/// its own fixed voltage, and a DVFS trajectory.
fn voltage_axis_jobs() -> Vec<JobSpec> {
    let spec = SolverSpec::sgd(100, StepSchedule::Sqrt { gamma0: 0.3 });
    let case = |label: &str| job(label, spec.clone());
    let model = VoltageErrorModel::paper_figure_5_2();
    vec![
        case("grid_rated"),
        case("regfile").with_fault_model(FaultModelSpec::register_file(
            8,
            BitFaultModel::emulated(),
            200,
        )),
        case("array").with_fault_model(FaultModelSpec::array_resident(
            16,
            BitFaultModel::emulated(),
            0,
        )),
        case("pinned").with_fault_model(FaultModelSpec::voltage_linked(model.clone(), 0.68)),
        case("dvfs").with_fault_model(FaultModelSpec::dvfs(
            model,
            vec![
                DvfsStep {
                    flops: 300,
                    voltage: 0.8,
                },
                DvfsStep {
                    flops: 300,
                    voltage: 0.65,
                },
            ],
        )),
    ]
}

fn run(spec: &CampaignSpec, threads: usize) -> SweepResult {
    campaign::run(&spec.clone().threads(threads), &registry(), None, |_| {})
        .expect("campaign runs")
        .result
}

/// Runs `spec` on a shared pool of `workers` with every chunk pinned to
/// one worker's deque.
fn run_pinned(spec: &CampaignSpec, workers: usize, pin: usize) -> SweepResult {
    let reg = registry();
    let pool = Scheduler::new(workers).with_placement(Placement::Pinned(pin));
    std::thread::scope(|scope| {
        pool.start(scope);
        let run = campaign::run_on(spec, &reg, None, &pool, |_| {});
        pool.shutdown();
        run
    })
    .expect("pinned run")
    .result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The determinism guarantee: 1-thread and N-thread runs of the same
    /// grid, and a run on a shared pool whose chunks all land on one
    /// worker's deque (so the others execute only by stealing), emit
    /// byte-identical JSON and CSV.
    #[test]
    fn thread_count_never_changes_results(
        base_seed in 0u64..1_000_000,
        trials in 1usize..10,
        threads in 2usize..8,
        pin in 0usize..8,
    ) {
        let grid = with_jobs(
            CampaignSpec::new("determinism")
                .rates(vec![0.0, 2.0, 20.0])
                .trials(trials)
                .seed(base_seed)
                .model(BitFaultModel::emulated()),
            jobs(),
        );
        let serial = run(&grid, 1);
        let parallel = run(&grid, threads);
        prop_assert_eq!(serial.to_json(), parallel.to_json());
        prop_assert_eq!(serial.to_csv(), parallel.to_csv());
        let stolen = run_pinned(&grid, threads, pin);
        prop_assert_eq!(serial.to_json(), stolen.to_json());
        prop_assert_eq!(serial.to_csv(), stolen.to_csv());
    }

    /// The fault-grid guarantee: a campaign whose jobs mix six distinct
    /// fault-model variants is still byte-identical between a serial and
    /// a parallel run.
    #[test]
    fn mixed_fault_models_stay_deterministic(
        base_seed in 0u64..1_000_000,
        threads in 2usize..8,
    ) {
        let grid = with_jobs(
            CampaignSpec::new("mixed_models")
                .rates(vec![2.0, 20.0])
                .trials(3)
                .seed(base_seed),
            mixed_model_jobs(),
        );
        let serial = run(&grid, 1);
        let parallel = run(&grid, threads);
        prop_assert_eq!(serial.to_json(), parallel.to_json());
        prop_assert_eq!(serial.to_csv(), parallel.to_csv());
        // Each job's model survives into the emitted provenance.
        for (case, name) in [
            "transient_emulated",
            "stuck1_bit54",
            "burst3_emulated",
            "operand_emulated",
            "intermittent50_transient_emulated",
            "only_mul+div_transient_emulated",
        ]
        .iter()
        .enumerate()
        {
            prop_assert_eq!(&serial.fault_model(case).name(), name);
        }
    }

    /// The voltage-axis guarantee: a *voltage* grid mixing grid-rated,
    /// memory-persistent, fixed-voltage and DVFS jobs emits byte-identical
    /// CSV/JSON — including the voltage and energy provenance columns —
    /// between a serial and a parallel run.
    #[test]
    fn voltage_axis_campaigns_stay_deterministic(
        base_seed in 0u64..1_000_000,
        threads in 2usize..8,
    ) {
        let grid = with_jobs(
            CampaignSpec::new("voltage_axis")
                .voltages(vec![1.0, 0.7, 0.62], VoltageErrorModel::paper_figure_5_2())
                .trials(3)
                .seed(base_seed),
            voltage_axis_jobs(),
        );
        let serial = run(&grid, 1);
        let parallel = run(&grid, threads);
        prop_assert_eq!(serial.to_json(), parallel.to_json());
        prop_assert_eq!(serial.to_csv(), parallel.to_csv());
        // The provenance actually carries the axis: every cell of the
        // grid-rated job has a voltage and an energy…
        for rate_idx in 0..serial.rates_pct().len() {
            prop_assert!(serial.voltage(0, rate_idx).is_some());
            prop_assert!(serial.energy_per_trial(0, rate_idx).is_some());
        }
        // …and the pinned job reports its own operating point, while the
        // DVFS job reports none (no single voltage — but still an energy,
        // accounted piecewise over its schedule).
        prop_assert_eq!(serial.voltage(3, 0), Some(0.68));
        prop_assert_eq!(serial.voltage(4, 0), None);
        prop_assert!(serial.energy_per_trial(4, 0).is_some());
    }

    /// Re-running the same spec twice is also reproducible (no hidden
    /// global state).
    #[test]
    fn reruns_are_reproducible(base_seed in 0u64..1_000_000) {
        let grid = with_jobs(
            CampaignSpec::new("rerun")
                .rates(vec![5.0])
                .trials(4)
                .seed(base_seed),
            jobs(),
        );
        prop_assert_eq!(run(&grid, 0).to_json(), run(&grid, 0).to_json());
    }
}
