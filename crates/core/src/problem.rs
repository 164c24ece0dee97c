//! The unified problem interface: every robustified application is one
//! object.
//!
//! The paper's central observation (§4) is that sorting, least squares,
//! matching, max-flow, shortest paths and filtering are all *the same
//! thing*: a cost function whose minimizer encodes the application's
//! output, minimized under gradient noise. [`RobustProblem`] captures that
//! shape once — build the cost, pick a start, run a solver, decode the
//! iterate, verify against the reference — and [`SolverSpec`] makes the
//! *solver* side declarative data, so any problem × solver pairing can be
//! described, serialized and swept without bespoke harness code.

use crate::cost::CostFunction;
use crate::error::CoreError;
use crate::schedule::StepSchedule;
use crate::sgd::{run_sgd, AggressiveStepping, Annealing, GradientGuard, SolveReport};
use stochastic_fpu::json::{JsonCodec, JsonValue};
use stochastic_fpu::json_object;
use stochastic_fpu::Fpu;

/// The outcome of checking a decoded solution against the ground truth.
///
/// Success-style figures (sorting, matching) aggregate `success`; accuracy
/// figures (least squares, IIR) aggregate `metric` (lower is better, `∞`
/// marks a broken trial). Every problem reports both so a sweep can be
/// summarized either way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Whether the trial met the problem's success criterion.
    pub success: bool,
    /// The problem's quality metric (lower is better; `∞` = breakdown).
    pub metric: f64,
}

impl Verdict {
    /// A verdict for a trial that broke down entirely (no decodable
    /// solution).
    pub fn breakdown() -> Self {
        Verdict {
            success: false,
            metric: f64::INFINITY,
        }
    }

    /// A verdict judged only by a metric: success iff the metric is finite
    /// and at most `tolerance`.
    pub fn from_metric(metric: f64, tolerance: f64) -> Self {
        Verdict {
            success: metric.is_finite() && metric <= tolerance,
            metric,
        }
    }
}

/// Which solver family a [`SolverSpec`] selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveMethod {
    /// The application's deterministic fault-exposed baseline (quicksort,
    /// Hungarian, Ford–Fulkerson, SVD, …). [`SolverSpec::variant`] selects
    /// among multiple baselines where a problem offers them.
    Baseline,
    /// Stochastic gradient descent on the robust cost (§3.2).
    Sgd,
    /// SGD on the QR-preconditioned generic LP (§6.2.1); only problems
    /// with an LP form support it.
    PreconditionedSgd,
    /// Conjugate gradient with periodic restarts (§3.3); only least
    /// squares shaped problems support it.
    Cg,
}

impl SolveMethod {
    /// Stable lower-case name used by the JSON serialization.
    pub fn name(self) -> &'static str {
        match self {
            SolveMethod::Baseline => "baseline",
            SolveMethod::Sgd => "sgd",
            SolveMethod::PreconditionedSgd => "preconditioned_sgd",
            SolveMethod::Cg => "cg",
        }
    }
}

/// A declarative description of one solver configuration.
///
/// A spec is plain data: the experiment binaries build grids of
/// `(problem × fault rate × SolverSpec)` and hand them to the sweep engine
/// instead of hand-rolling per-figure solver plumbing.
/// [`JsonCodec::to_json`] serializes the spec for result provenance.
///
/// # Examples
///
/// ```
/// use robustify_core::{SolverSpec, StepSchedule};
/// use stochastic_fpu::json::JsonCodec;
///
/// let spec = SolverSpec::sgd(10_000, StepSchedule::Sqrt { gamma0: 0.1 })
///     .with_momentum(0.5);
/// assert!(spec.to_json().contains("\"method\":\"sgd\""));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SolverSpec {
    /// The solver family.
    pub method: SolveMethod,
    /// Iteration budget (SGD main loop, CG iterations, or baseline
    /// iteration count for iterative baselines like power iteration).
    pub iterations: usize,
    /// SGD step-size schedule (ignored by baselines and CG).
    pub schedule: StepSchedule,
    /// Momentum `β` (paper §6.2.2), if enabled.
    pub momentum: Option<f64>,
    /// Aggressive-stepping tail (§6.2.3), if enabled.
    pub aggressive: Option<AggressiveStepping>,
    /// Penalty annealing (§6.2.4), if enabled.
    pub annealing: Option<Annealing>,
    /// Gradient guard override; `None` is [`GradientGuard::default`].
    pub guard: Option<GradientGuard>,
    /// CG restart interval: the search direction resets to steepest
    /// descent every `restart` iterations (ignored by other methods).
    pub restart: usize,
    /// Baseline variant selector (e.g. `"svd"`, `"qr"`, `"cholesky"` for
    /// least squares); `None` picks the problem's canonical baseline.
    pub variant: Option<String>,
}

/// The largest solver budget a [`SolverSpec`] may ask for, in
/// `iterations` and in an aggressive-stepping tail's `max_steps`. A
/// campaign daemon runs whatever a submission validates, so without a
/// bound one accepted cell could hold a pool worker for hours. It is 100×
/// the largest budget the workload registry and the figures use (10,000
/// SGD iterations).
pub const MAX_SOLVER_STEPS: usize = 1_000_000;

impl SolverSpec {
    /// An SGD spec with the given iteration budget and schedule.
    pub fn sgd(iterations: usize, schedule: StepSchedule) -> Self {
        SolverSpec {
            method: SolveMethod::Sgd,
            iterations,
            schedule,
            momentum: None,
            aggressive: None,
            annealing: None,
            guard: None,
            restart: 4,
            variant: None,
        }
    }

    /// The problem's canonical deterministic baseline.
    pub fn baseline() -> Self {
        SolverSpec {
            method: SolveMethod::Baseline,
            ..Self::sgd(500, StepSchedule::Fixed(0.0))
        }
    }

    /// A named baseline variant (e.g. `"qr"`).
    pub fn baseline_variant(variant: &str) -> Self {
        SolverSpec {
            variant: Some(variant.to_string()),
            ..Self::baseline()
        }
    }

    /// A conjugate gradient spec with the given iteration budget (restart
    /// interval 4, the Figure 6.6 configuration).
    pub fn cg(iterations: usize) -> Self {
        SolverSpec {
            method: SolveMethod::Cg,
            iterations,
            ..Self::sgd(iterations, StepSchedule::Fixed(0.0))
        }
    }

    /// An SGD spec running on the QR-preconditioned generic LP.
    pub fn preconditioned_sgd(iterations: usize, schedule: StepSchedule) -> Self {
        SolverSpec {
            method: SolveMethod::PreconditionedSgd,
            ..Self::sgd(iterations, schedule)
        }
    }

    /// Enables momentum `β`.
    pub fn with_momentum(mut self, beta: f64) -> Self {
        self.momentum = Some(beta);
        self
    }

    /// Appends an aggressive-stepping tail.
    pub fn with_aggressive_stepping(mut self, config: AggressiveStepping) -> Self {
        self.aggressive = Some(config);
        self
    }

    /// Enables penalty annealing.
    pub fn with_annealing(mut self, config: Annealing) -> Self {
        self.annealing = Some(config);
        self
    }

    /// Overrides the gradient guard.
    pub fn with_guard(mut self, guard: GradientGuard) -> Self {
        self.guard = Some(guard);
        self
    }

    /// Sets the CG restart interval.
    pub fn with_restart(mut self, interval: usize) -> Self {
        self.restart = interval;
        self
    }

    /// Checks the values [`run_sgd`](crate::run_sgd) and
    /// [`run_cgls`](crate::run_cgls) refuse with a panic inside a trial:
    /// momentum outside `(0, 1]`, an annealing period of `0` or a
    /// factor that is not a finite number above `1`, a CG restart
    /// interval of `0`, and a gradient guard bound (`clip`, `clamp`,
    /// `adaptive` factor or reject) that is not positive; and a budget
    /// (`iterations`, aggressive-stepping `max_steps`) above
    /// [`MAX_SOLVER_STEPS`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        let max_steps = self.aggressive.map_or(0, |a| a.max_steps);
        for (field, steps) in [("iterations", self.iterations), ("max_steps", max_steps)] {
            if steps > MAX_SOLVER_STEPS {
                return Err(format!(
                    "solver {field} must be at most {MAX_SOLVER_STEPS}, got {steps}"
                ));
            }
        }
        if let Some(beta) = self.momentum {
            if !(beta > 0.0 && beta <= 1.0) {
                return Err(format!("momentum β must be in (0, 1], got {beta}"));
            }
        }
        if let Some(Annealing { period, factor }) = self.annealing {
            if period == 0 {
                return Err("annealing period must be positive".to_string());
            }
            if !(factor > 1.0 && factor.is_finite()) {
                return Err(format!(
                    "annealing factor must be finite and exceed 1.0, got {factor}"
                ));
            }
        }
        if self.restart == 0 {
            return Err("CG restart interval must be positive".to_string());
        }
        let guard_bounds = match self.guard {
            Some(GradientGuard::Clip { max_norm: bound })
            | Some(GradientGuard::ClampComponents { max_abs: bound }) => [bound, bound],
            Some(GradientGuard::Adaptive { factor, reject }) => [factor, reject],
            _ => [1.0, 1.0],
        };
        if !guard_bounds.iter().all(|&bound| bound > 0.0) {
            return Err(format!(
                "guard bounds must be positive, got {:?}",
                self.guard
            ));
        }
        Ok(())
    }
}

/// The wire format carried by campaign jobs and result documents. Every
/// field is present: unset options are `null`, the solver-default guard
/// is `"default"`.
impl JsonCodec for SolverSpec {
    fn to_value(&self) -> JsonValue {
        let (kind, gamma0) = match self.schedule {
            StepSchedule::Fixed(gamma0) => ("fixed", gamma0),
            StepSchedule::Linear { gamma0 } => ("linear", gamma0),
            StepSchedule::Sqrt { gamma0 } => ("sqrt", gamma0),
        };
        let aggressive = self.aggressive.map(|a| {
            json_object!(
                "success_factor" => a.success_factor, "fail_factor" => a.fail_factor,
                "rel_tolerance" => a.rel_tolerance, "max_steps" => a.max_steps,
            )
        });
        let annealing = self
            .annealing
            .map(|a| json_object!("period" => a.period, "factor" => a.factor));
        let guard = match self.guard {
            None => "default".into(),
            Some(GradientGuard::Off) => "off".into(),
            Some(GradientGuard::ZeroNonFinite) => "zero_nonfinite".into(),
            Some(GradientGuard::Clip { max_norm }) => json_object!("clip" => max_norm),
            Some(GradientGuard::ClampComponents { max_abs }) => json_object!("clamp" => max_abs),
            Some(GradientGuard::Adaptive { factor, reject }) => {
                json_object!("adaptive" => factor, "reject" => reject)
            }
        };
        json_object!(
            "method" => self.method.name(), "iterations" => self.iterations,
            "schedule" => json_object!("kind" => kind, "gamma0" => gamma0),
            "momentum" => self.momentum, "aggressive" => aggressive, "annealing" => annealing,
            "guard" => guard, "restart" => self.restart, "variant" => self.variant.as_deref(),
        )
    }

    fn from_value(value: &JsonValue) -> Result<Self, String> {
        let f = value.fields("solver spec");
        let method = match f.get("method")? {
            "baseline" => SolveMethod::Baseline,
            "sgd" => SolveMethod::Sgd,
            "preconditioned_sgd" => SolveMethod::PreconditionedSgd,
            "cg" => SolveMethod::Cg,
            other => return Err(format!("unknown solve method \"{other}\"")),
        };
        let schedule = f.get::<&JsonValue>("schedule")?.fields("schedule");
        let gamma0 = schedule.get("gamma0")?;
        let schedule = match schedule.get("kind")? {
            "fixed" => StepSchedule::Fixed(gamma0),
            "linear" => StepSchedule::Linear { gamma0 },
            "sqrt" => StepSchedule::Sqrt { gamma0 },
            other => return Err(format!("unknown schedule kind \"{other}\"")),
        };
        let aggressive = f.opt::<&JsonValue>("aggressive")?.map(|a| {
            let a = a.fields("aggressive stepping");
            Ok::<_, String>(AggressiveStepping {
                success_factor: a.get("success_factor")?,
                fail_factor: a.get("fail_factor")?,
                rel_tolerance: a.get("rel_tolerance")?,
                max_steps: a.get("max_steps")?,
            })
        });
        let annealing = f.opt::<&JsonValue>("annealing")?.map(|a| {
            let a = a.fields("annealing");
            Ok::<_, String>(Annealing {
                period: a.get("period")?,
                factor: a.get("factor")?,
            })
        });
        let guard = match value.get("guard") {
            None => None,
            Some(JsonValue::String(s)) => match s.as_str() {
                "default" => None,
                "off" => Some(GradientGuard::Off),
                "zero_nonfinite" => Some(GradientGuard::ZeroNonFinite),
                other => return Err(format!("unknown guard name \"{other}\"")),
            },
            Some(g) => {
                let g = g.fields("guard");
                Some(if let Ok(max_norm) = g.get("clip") {
                    GradientGuard::Clip { max_norm }
                } else if let Ok(max_abs) = g.get("clamp") {
                    GradientGuard::ClampComponents { max_abs }
                } else {
                    GradientGuard::Adaptive {
                        factor: g.get("adaptive")?,
                        reject: g.get("reject")?,
                    }
                })
            }
        };
        Ok(SolverSpec {
            method,
            iterations: f.get("iterations")?,
            schedule,
            momentum: f.opt("momentum")?,
            aggressive: aggressive.transpose()?,
            annealing: annealing.transpose()?,
            guard,
            restart: f.get("restart")?,
            variant: f.opt("variant")?,
        })
    }
}

/// What a [`RobustProblem::solve`] call produced.
#[derive(Debug, Clone)]
pub struct RobustOutcome<S> {
    /// The decoded solution, or `None` when the solver broke down (a failed
    /// baseline run).
    pub solution: Option<S>,
    /// The optimizer report, when an iterative robust solver ran (`None`
    /// for direct baselines).
    pub report: Option<SolveReport>,
}

/// An application recast as a cost-minimization problem (§4): the one
/// interface every robustified app implements.
///
/// The contract mirrors the paper's pipeline:
///
/// 1. [`cost`](RobustProblem::cost) builds the variational form (eq. 4.1,
///    4.4, …) whose minimizer encodes the output;
/// 2. [`initial_iterate`](RobustProblem::initial_iterate) picks the start
///    (possibly a fault-exposed warm start, as for IIR);
/// 3. a solver described by a [`SolverSpec`] minimizes the cost through a
///    fault-injecting [`Fpu`];
/// 4. [`decode`](RobustProblem::decode) maps the relaxed iterate back to an
///    application-level output (a protected control step);
/// 5. [`verify`](RobustProblem::verify) scores it against whatever ground
///    truth the problem computed reliably when it was built; it is the
///    only judge of a solution, so the trait exposes no reference output.
///
/// The provided [`solve`](RobustProblem::solve) /
/// [`run_trial`](RobustProblem::run_trial) methods wire those stages
/// together, so the sweep engine can drive any problem × spec pairing
/// without knowing the application. `solve` is every application's one
/// solver entry point: extra solver paths (CG, a preconditioned LP) are
/// arms of an overriding `solve`, not inherent methods beside it.
pub trait RobustProblem {
    /// The application-level output (sorted array, matching, parameters…).
    type Solution;
    /// The concrete cost implementing the robust form.
    type Cost: CostFunction;

    /// A short stable name for emitters and diagnostics.
    fn name(&self) -> &'static str;

    /// Builds the robust cost function.
    fn cost(&self) -> Self::Cost;

    /// The starting iterate for `cost`. Default: the zero vector. Warm
    /// starts may run data-plane work through `fpu` (e.g. IIR's noisy
    /// feed-forward seed).
    fn initial_iterate<F: Fpu>(&self, cost: &Self::Cost, fpu: &mut F) -> Vec<f64> {
        let _ = fpu;
        vec![0.0; cost.dim()]
    }

    /// Decodes a relaxed iterate into an application-level output (native
    /// arithmetic; a protected control step).
    fn decode(&self, cost: &Self::Cost, x: &[f64]) -> Self::Solution;

    /// Scores a solution against the ground truth.
    fn verify(&self, solution: &Self::Solution) -> Verdict;

    /// The deterministic fault-exposed baseline, if the application has
    /// one. `None` signals a breakdown (or an unsupported variant); the
    /// default has no baseline at all.
    fn baseline<F: Fpu>(&self, spec: &SolverSpec, fpu: &mut F) -> Option<Self::Solution> {
        let _ = (spec, fpu);
        None
    }

    /// Runs the solver described by `spec` through `fpu`.
    ///
    /// The default supports [`SolveMethod::Sgd`] (cost → start → SGD →
    /// decode) and [`SolveMethod::Baseline`]; problems with extra solver
    /// paths (CG, preconditioned LP) override this and fall back to the
    /// default for the rest.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a method the problem does
    /// not support — a configuration error, distinct from a fault-induced
    /// breakdown (which is `Ok` with `solution: None`).
    fn solve<F: Fpu>(
        &self,
        spec: &SolverSpec,
        fpu: &mut F,
    ) -> Result<RobustOutcome<Self::Solution>, CoreError> {
        default_solve(self, spec, fpu)
    }

    /// Runs one sweep trial: solve, decode, verify. Breakdowns and
    /// unsupported configurations score as failed trials (matching how the
    /// figures tally broken baseline runs).
    fn run_trial<F: Fpu>(&self, spec: &SolverSpec, fpu: &mut F) -> Verdict {
        match self.solve(spec, fpu) {
            Ok(RobustOutcome {
                solution: Some(s), ..
            }) => self.verify(&s),
            _ => Verdict::breakdown(),
        }
    }
}

/// The default solver dispatch: SGD (cost → start → run → decode) and the
/// problem's baseline. Problems that override
/// [`RobustProblem::solve`] to add extra methods (CG, preconditioned LP)
/// call this for everything else.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for methods the default cannot
/// dispatch ([`SolveMethod::PreconditionedSgd`], [`SolveMethod::Cg`]).
pub fn default_solve<P: RobustProblem + ?Sized, F: Fpu>(
    problem: &P,
    spec: &SolverSpec,
    fpu: &mut F,
) -> Result<RobustOutcome<P::Solution>, CoreError> {
    match spec.method {
        SolveMethod::Baseline => Ok(RobustOutcome {
            solution: problem.baseline(spec, fpu),
            report: None,
        }),
        SolveMethod::Sgd => {
            let mut cost = problem.cost();
            let x0 = problem.initial_iterate(&cost, fpu);
            let report = run_sgd(spec, &mut cost, &x0, fpu);
            let solution = problem.decode(&cost, &report.x);
            Ok(RobustOutcome {
                solution: Some(solution),
                report: Some(report),
            })
        }
        SolveMethod::PreconditionedSgd | SolveMethod::Cg => {
            Err(CoreError::invalid_config(format!(
                "problem `{}` does not support the `{}` solve method",
                problem.name(),
                spec.method.name()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::QuadraticResidualCost;
    use robustify_linalg::Matrix;
    use stochastic_fpu::ReliableFpu;

    /// A toy problem: recover `b` from `f(x) = ||x - b||^2`.
    struct Recover {
        b: Vec<f64>,
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

    #[test]
    fn default_solve_runs_sgd_end_to_end() {
        let p = Recover { b: vec![3.0, -1.0] };
        let spec = SolverSpec::sgd(400, StepSchedule::Fixed(0.2));
        let out = p
            .solve(&spec, &mut ReliableFpu::new())
            .expect("sgd is supported");
        let report = out.report.expect("sgd produces a report");
        assert!(report.flops > 0);
        let verdict = p.verify(&out.solution.expect("sgd decodes"));
        assert!(verdict.success, "metric {}", verdict.metric);
    }

    #[test]
    fn run_trial_scores_breakdowns_as_failures() {
        let p = Recover { b: vec![1.0] };
        // No baseline is defined, so the baseline method breaks down.
        let verdict = p.run_trial(&SolverSpec::baseline(), &mut ReliableFpu::new());
        assert!(!verdict.success);
        assert!(verdict.metric.is_infinite());
    }

    #[test]
    fn unsupported_methods_are_config_errors() {
        let p = Recover { b: vec![1.0] };
        assert!(p
            .solve(&SolverSpec::cg(5), &mut ReliableFpu::new())
            .is_err());
    }

    #[test]
    fn spec_json_is_stable() {
        let spec = SolverSpec::sgd(100, StepSchedule::Linear { gamma0: 0.5 })
            .with_momentum(0.5)
            .with_guard(GradientGuard::Clip { max_norm: 10.0 });
        let json = spec.to_json();
        assert!(json.contains("\"method\":\"sgd\""));
        assert!(json.contains("\"iterations\":100"));
        assert!(json.contains("\"kind\":\"linear\""));
        assert!(json.contains("\"momentum\":0.5"));
        assert!(json.contains("{\"clip\":10}"));
        assert!(SolverSpec::baseline_variant("svd")
            .to_json()
            .contains("\"variant\":\"svd\""));
    }

    #[test]
    fn spec_json_round_trips_every_field_shape() {
        let specs = vec![
            SolverSpec::baseline(),
            SolverSpec::baseline_variant("svd"),
            SolverSpec::sgd(10_000, StepSchedule::Sqrt { gamma0: 0.1 }),
            SolverSpec::sgd(500, StepSchedule::Linear { gamma0: 0.25 })
                .with_momentum(0.5)
                .with_aggressive_stepping(AggressiveStepping::default())
                .with_annealing(Annealing {
                    period: 750,
                    factor: 1.5,
                })
                .with_guard(GradientGuard::Adaptive {
                    factor: 10.0,
                    reject: 100.0,
                }),
            SolverSpec::sgd(100, StepSchedule::Fixed(0.01)).with_guard(GradientGuard::Off),
            SolverSpec::sgd(100, StepSchedule::Fixed(0.01))
                .with_guard(GradientGuard::ZeroNonFinite),
            SolverSpec::sgd(100, StepSchedule::Fixed(0.01))
                .with_guard(GradientGuard::ClampComponents { max_abs: 3.5 }),
            SolverSpec::cg(40).with_restart(8),
            SolverSpec::preconditioned_sgd(2000, StepSchedule::Sqrt { gamma0: 0.05 }),
        ];
        for spec in specs {
            let json = spec.to_json();
            let parsed = SolverSpec::from_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
            assert_eq!(parsed, spec, "round trip changed {json}");
            assert_eq!(parsed.to_json(), json, "re-serialization drifted");
        }
    }

    #[test]
    fn spec_from_json_rejects_malformed_documents() {
        for bad in [
            "{}",
            r#"{"method":"sgd"}"#,
            r#"{"method":"nope","iterations":1,
                "schedule":{"kind":"fixed","gamma0":0.1},"restart":4}"#,
            r#"{"method":"sgd","iterations":1,
                "schedule":{"kind":"nope","gamma0":0.1},"restart":4}"#,
            r#"{"method":"sgd","iterations":1,
                "schedule":{"kind":"fixed","gamma0":0.1},"guard":"nope","restart":4}"#,
        ] {
            assert!(SolverSpec::from_json(bad).is_err(), "accepted {bad}");
        }
    }

    fn assert_rejected(spec: SolverSpec, field: &str) {
        let err = spec.validate().expect_err(&spec.to_json());
        assert!(err.contains(field), "{err}");
    }

    #[test]
    fn validate_caps_the_solver_budget() {
        let at_cap = SolverSpec::sgd(MAX_SOLVER_STEPS, StepSchedule::Fixed(0.1));
        assert_eq!(at_cap.validate(), Ok(()));
        assert_rejected(
            SolverSpec::sgd(MAX_SOLVER_STEPS + 1, StepSchedule::Fixed(0.1)),
            "iterations",
        );
        assert_rejected(SolverSpec::cg(1_000_000_000_000), "iterations");
        let tail = |max_steps| AggressiveStepping {
            max_steps,
            ..AggressiveStepping::default()
        };
        let sgd = || SolverSpec::sgd(50, StepSchedule::Fixed(0.1));
        assert_eq!(
            sgd()
                .with_aggressive_stepping(tail(MAX_SOLVER_STEPS))
                .validate(),
            Ok(())
        );
        assert_rejected(
            sgd().with_aggressive_stepping(tail(MAX_SOLVER_STEPS + 1)),
            "max_steps",
        );
    }

    #[test]
    fn validate_rejects_momentum_outside_unit_interval() {
        for beta in [0.0, -0.5, 5.0, f64::NAN] {
            let spec = SolverSpec::sgd(10, StepSchedule::Fixed(0.1)).with_momentum(beta);
            assert_rejected(spec, "momentum");
        }
        let edge = SolverSpec::sgd(10, StepSchedule::Fixed(0.1)).with_momentum(1.0);
        assert_eq!(edge.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_annealing_period() {
        let annealing = Annealing {
            period: 0,
            factor: 2.0,
        };
        let spec = SolverSpec::sgd(10, StepSchedule::Fixed(0.1)).with_annealing(annealing);
        assert_rejected(spec, "annealing period");
    }

    #[test]
    fn validate_rejects_annealing_factor_not_above_one_or_non_finite() {
        for factor in [1.0, 0.5, f64::INFINITY, f64::NAN] {
            let annealing = Annealing { period: 5, factor };
            let spec = SolverSpec::sgd(10, StepSchedule::Fixed(0.1)).with_annealing(annealing);
            assert_rejected(spec, "annealing factor");
        }
    }

    /// A guard bound that is not positive would panic in `f64::clamp`
    /// (or flip the gradient) in every SGD trial.
    #[test]
    fn validate_rejects_non_positive_guard_bounds() {
        let sgd = || SolverSpec::sgd(50, StepSchedule::Fixed(0.1));
        for bad in [-1.0, 0.0, f64::NAN] {
            for (guard, field) in [
                (GradientGuard::Clip { max_norm: bad }, "max_norm"),
                (GradientGuard::ClampComponents { max_abs: bad }, "max_abs"),
                (
                    GradientGuard::Adaptive {
                        factor: bad,
                        reject: 100.0,
                    },
                    "factor",
                ),
                (
                    GradientGuard::Adaptive {
                        factor: 10.0,
                        reject: bad,
                    },
                    "reject",
                ),
            ] {
                assert_rejected(sgd().with_guard(guard), field);
            }
        }
        for good in [
            GradientGuard::Clip { max_norm: 1e-3 },
            GradientGuard::ClampComponents { max_abs: 2.5 },
            GradientGuard::Adaptive {
                factor: 10.0,
                reject: 100.0,
            },
        ] {
            assert_eq!(sgd().with_guard(good).validate(), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_zero_restart_interval() {
        assert_rejected(SolverSpec::cg(12).with_restart(0), "restart");
        assert_eq!(SolverSpec::cg(12).with_restart(1).validate(), Ok(()));
    }

    #[test]
    fn verdict_from_metric_thresholds() {
        assert!(Verdict::from_metric(0.01, 0.05).success);
        assert!(!Verdict::from_metric(0.1, 0.05).success);
        assert!(!Verdict::from_metric(f64::INFINITY, 0.05).success);
        assert!(!Verdict::breakdown().success);
    }
}
