//! Named, re-materializable workloads: the registry that lets a sweep job
//! travel over a wire.
//!
//! [`RobustProblem`] is deliberately *not* object-safe (associated
//! `Solution`/`Cost` types, `Fpu`-generic methods), which is fine inside
//! one process but means a sweep case built from closures cannot be
//! serialized, hashed, or re-created by a campaign daemon. This module
//! closes that gap:
//!
//! * [`DynProblem`] — the type-erased trial surface: just enough of a
//!   problem (name + run one trial on a [`NoisyFpu`]) for the sweep
//!   executor, with a blanket impl so every `RobustProblem` qualifies.
//! * [`WorkloadRegistry`] — a name → factory table. A campaign job names
//!   its workload (`"least_squares"`) and carries a seed; the daemon
//!   re-materializes the identical problem instance from the registry,
//!   because factories are deterministic functions of the seed. The
//!   registry also owns each workload's *default solver* (itself
//!   seed-dependent, since paper-faithful step sizes are tuned per
//!   instance), so jobs may omit the solver spec entirely.

use crate::problem::{RobustProblem, SolverSpec, Verdict};
use std::collections::BTreeMap;
use stochastic_fpu::NoisyFpu;

/// The type-erased face of a [`RobustProblem`]: what the sweep executor
/// actually needs from a workload, in object-safe form.
pub trait DynProblem: Send + Sync {
    /// A short stable name for emitters and diagnostics.
    fn name(&self) -> &'static str;

    /// Runs one sweep trial (solve, decode, verify) on the fault-injecting
    /// FPU. Breakdowns and unsupported configurations score as failures,
    /// exactly like [`RobustProblem::run_trial`].
    fn run_trial_dyn(&self, spec: &SolverSpec, fpu: &mut NoisyFpu) -> Verdict;
}

impl<P> DynProblem for P
where
    P: RobustProblem + Send + Sync,
{
    fn name(&self) -> &'static str {
        RobustProblem::name(self)
    }

    fn run_trial_dyn(&self, spec: &SolverSpec, fpu: &mut NoisyFpu) -> Verdict {
        self.run_trial(spec, fpu)
    }
}

/// A problem factory: deterministically materializes a workload instance
/// from a seed.
pub type ProblemFactory = Box<dyn Fn(u64) -> Box<dyn DynProblem> + Send + Sync>;

/// A default-solver factory: the workload's paper-faithful solver
/// configuration for the instance a seed materializes (step sizes are
/// tuned per instance, hence the seed argument).
pub type SolverFactory = Box<dyn Fn(u64) -> SolverSpec + Send + Sync>;

struct WorkloadEntry {
    factory: ProblemFactory,
    default_solver: SolverFactory,
}

/// A name → workload-factory table: the declarative vocabulary campaign
/// jobs use instead of closures.
///
/// Registered factories must be deterministic in the seed — materializing
/// the same name with the same seed twice must produce instances whose
/// trials are bit-identical. That determinism is what makes a `(workload
/// name, seed)` pair a sound component of a content-addressed cache key.
///
/// Iteration order is the sorted name order (`BTreeMap`), so listings are
/// stable.
#[derive(Default)]
pub struct WorkloadRegistry {
    entries: BTreeMap<String, WorkloadEntry>,
}

impl WorkloadRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a workload under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered — duplicate names would make
    /// job resolution ambiguous.
    pub fn register(&mut self, name: &str, factory: ProblemFactory, default_solver: SolverFactory) {
        let previous = self.entries.insert(
            name.to_string(),
            WorkloadEntry {
                factory,
                default_solver,
            },
        );
        assert!(previous.is_none(), "workload \"{name}\" registered twice");
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// The registered workload names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Materializes the named workload's instance for `seed` (`None` for
    /// unknown names).
    pub fn materialize(&self, name: &str, seed: u64) -> Option<Box<dyn DynProblem>> {
        self.entries.get(name).map(|e| (e.factory)(seed))
    }

    /// The named workload's default solver for the instance `seed`
    /// materializes (`None` for unknown names).
    pub fn default_solver(&self, name: &str, seed: u64) -> Option<SolverSpec> {
        self.entries.get(name).map(|e| (e.default_solver)(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::QuadraticResidualCost;
    use crate::schedule::StepSchedule;
    use robustify_linalg::Matrix;
    use stochastic_fpu::{BitFaultModel, FaultRate};

    /// A seed-deterministic toy problem: recover `b` from `||x - b||^2`.
    struct Recover {
        b: Vec<f64>,
    }

    impl Recover {
        fn from_seed(seed: u64) -> Self {
            Recover {
                b: vec![(seed % 7) as f64, -((seed % 3) as f64)],
            }
        }
    }

    impl RobustProblem for Recover {
        type Solution = Vec<f64>;
        type Cost = QuadraticResidualCost;

        fn name(&self) -> &'static str {
            "recover"
        }

        fn cost(&self) -> Self::Cost {
            QuadraticResidualCost::new(Matrix::identity(self.b.len()), self.b.clone())
                .expect("square system")
        }

        fn decode(&self, _cost: &Self::Cost, x: &[f64]) -> Vec<f64> {
            x.to_vec()
        }

        fn verify(&self, solution: &Vec<f64>) -> Verdict {
            let err: f64 = solution
                .iter()
                .zip(&self.b)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            Verdict::from_metric(err, 1e-3)
        }
    }

    fn registry() -> WorkloadRegistry {
        let mut reg = WorkloadRegistry::new();
        reg.register(
            "recover",
            Box::new(|seed| Box::new(Recover::from_seed(seed))),
            Box::new(|_seed| SolverSpec::sgd(400, StepSchedule::Fixed(0.2))),
        );
        reg
    }

    #[test]
    fn materialized_instances_are_seed_deterministic() {
        let reg = registry();
        let spec = reg.default_solver("recover", 9).expect("registered");
        let run = |seed| {
            let problem = reg.materialize("recover", seed).expect("registered");
            let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.01), BitFaultModel::emulated(), 42);
            problem.run_trial_dyn(&spec, &mut fpu)
        };
        assert_eq!(run(9), run(9), "same seed, same verdict");
        assert_eq!(reg.names(), vec!["recover"]);
        assert!(reg.contains("recover"));
        assert!(!reg.contains("nope"));
        assert!(reg.materialize("nope", 0).is_none());
        assert!(reg.default_solver("nope", 0).is_none());
    }

    #[test]
    fn dyn_problem_matches_the_static_path() {
        let reg = registry();
        let spec = reg.default_solver("recover", 5).expect("registered");
        let dynamic = {
            let problem = reg.materialize("recover", 5).expect("registered");
            let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.02), BitFaultModel::emulated(), 7);
            problem.run_trial_dyn(&spec, &mut fpu)
        };
        let static_path = {
            let problem = Recover::from_seed(5);
            let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.02), BitFaultModel::emulated(), 7);
            problem.run_trial(&spec, &mut fpu)
        };
        assert_eq!(dynamic, static_path, "type erasure must not change trials");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_are_rejected() {
        let mut reg = registry();
        reg.register(
            "recover",
            Box::new(|seed| Box::new(Recover::from_seed(seed))),
            Box::new(|_| SolverSpec::baseline()),
        );
    }
}
