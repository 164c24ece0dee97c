//! Stochastic (sub)gradient descent with the paper's enhancements.
//!
//! The iteration is `xₜ ← xₜ₋₁ − γₜ dₜ` where `dₜ` is the (possibly
//! momentum-smoothed) gradient evaluated *through a fault-prone FPU*. As in
//! the paper, "the remaining operations, including computing the step size,
//! updating `x` with the step, and testing for convergence, are assumed to
//! be carried out reliably as they are critical for convergence" — those run
//! in native arithmetic here (the control plane).
//!
//! Enhancements from §3.2 / §6.2, each a field of the [`SolverSpec`] that
//! [`run_sgd`] reads:
//!
//! * **Step-size schedules** — `1/t` (LS), `1/√t` (SQS), fixed.
//! * **Aggressive stepping (AS)** — after the fixed iteration budget, a
//!   phase of adaptive stepping grows the step on success and shrinks it on
//!   failure until progress stalls.
//! * **Momentum** — `dₜ = β ∇f + (1−β) dₜ₋₁` smooths oscillating gradients.
//! * **Annealing** — the penalty parameter `μ` of a
//!   [`PenaltyCost`](crate::PenaltyCost) is periodically increased.
//! * **Gradient guard** — a cheap control-plane sanitization of the noisy
//!   gradient (zeroing non-finite lanes, norm clipping). The paper assumes
//!   gradient noise with bounded variance (Theorem 1); raw exponent-bit
//!   flips violate that, and the guard is the software knob that restores
//!   it. Set [`GradientGuard::Off`] to study the unguarded behaviour.

use crate::cost::CostFunction;
use crate::problem::SolverSpec;
use stochastic_fpu::{Fpu, FpuExt, ReliableFpu};

/// The adaptive step-size phase appended after the main loop (§3.2:
/// "aggressive stepping").
///
/// # Examples
///
/// ```
/// use robustify_core::AggressiveStepping;
///
/// let aggressive = AggressiveStepping::default();
/// assert!(aggressive.success_factor > 1.0 && aggressive.fail_factor < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggressiveStepping {
    /// Multiplier applied to the step size after a cost decrease.
    pub success_factor: f64,
    /// Multiplier applied after a cost increase (the move is rolled back).
    pub fail_factor: f64,
    /// The phase stops once the relative cost change between consecutive
    /// accepted steps falls below this threshold.
    pub rel_tolerance: f64,
    /// Upper bound on the number of adaptive steps.
    pub max_steps: usize,
}

impl Default for AggressiveStepping {
    fn default() -> Self {
        AggressiveStepping {
            success_factor: 1.2,
            fail_factor: 0.5,
            rel_tolerance: 1e-6,
            max_steps: 200,
        }
    }
}

/// Periodic scaling of a cost's penalty parameter (§6.2.4: "the parameter μ
/// is periodically increased as the solver moves closer towards the
/// minimum").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Annealing {
    /// Anneal every `period` iterations.
    pub period: usize,
    /// Factor by which `μ` grows at each annealing event.
    pub factor: f64,
}

impl Default for Annealing {
    fn default() -> Self {
        // A doubling every 1000 iterations: slow enough that the shrinking
        // step size keeps the penalized objective's growing curvature
        // stable at the paper's 1000–10000-iteration budgets.
        Annealing {
            period: 1000,
            factor: 2.0,
        }
    }
}

/// Control-plane sanitization applied to each noisy gradient before the
/// iterate update.
///
/// Theorem 1 requires the gradient noise to be unbiased with *bounded
/// variance*. A raw exponent-bit flip violates that — a single corrupted
/// FPU result can be astronomically large — so without some guard a fault
/// in almost any iteration destroys the iterate. The guard is the cheap
/// `O(d)` native-arithmetic step that restores the bounded-variance regime;
/// the paper folds this into its "control phases are protected" assumption,
/// and the `ablation_guard` experiment binary quantifies each policy's effect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GradientGuard {
    /// Use the gradient exactly as the FPU produced it.
    Off,
    /// Replace NaN/±∞ components with zero (skipping the corrupted lane).
    ZeroNonFinite,
    /// Zero non-finite components, then rescale the gradient if its
    /// Euclidean norm exceeds the bound.
    Clip {
        /// Maximum allowed gradient norm.
        max_norm: f64,
    },
    /// Zero non-finite components, then clamp each component's magnitude to
    /// a fixed bound (preserves the uncorrupted lanes, unlike norm
    /// rescaling).
    ClampComponents {
        /// Maximum allowed component magnitude.
        max_abs: f64,
    },
    /// Self-tuning outlier rejection plus component clamp. A running
    /// median-absolute-component scale `s` is maintained from accepted
    /// gradients; a gradient whose median magnitude exceeds `reject × s`
    /// is *rejected outright* (the iteration makes no move — a corrupted
    /// shared subexpression, e.g. one huge residual entry, poisons every
    /// lane coherently and no per-lane repair can save it). Accepted
    /// gradients update `s` and have each lane clamped to `factor × s`.
    ///
    /// Caveat: the scale bootstraps from the first gradient, so a solve
    /// started at a near-optimal iterate (tiny first gradient) can freeze.
    /// Prefer [`Clip`](GradientGuard::Clip) for warm-started problems.
    Adaptive {
        /// Clamp multiplier over the running scale estimate (default 10).
        factor: f64,
        /// Rejection multiplier over the running scale estimate
        /// (default 100).
        reject: f64,
    },
}

impl Default for GradientGuard {
    /// Norm clipping at 10 — the empirically strongest general policy for
    /// costs scaled to `O(1)` gradients, which every cost constructor in
    /// this workspace produces. Beyond the clip radius it behaves like
    /// normalized gradient descent: direction preserved, magnitude bounded.
    fn default() -> Self {
        GradientGuard::Clip { max_norm: 10.0 }
    }
}

/// Mutable state carried by a [`GradientGuard`] across iterations (the
/// running scale estimate of the adaptive variant).
#[derive(Debug, Clone, PartialEq)]
pub struct GuardState {
    guard: GradientGuard,
    /// Running median-absolute-component scale (adaptive variant only).
    scale: Option<f64>,
}

impl GuardState {
    /// Creates fresh state for a guard policy.
    pub fn new(guard: GradientGuard) -> Self {
        GuardState { guard, scale: None }
    }

    /// Applies the guard to `grad` in place (native arithmetic).
    pub fn apply(&mut self, grad: &mut [f64]) {
        match self.guard {
            GradientGuard::Off => {}
            GradientGuard::ZeroNonFinite => zero_non_finite(grad),
            GradientGuard::Clip { max_norm } => {
                zero_non_finite(grad);
                // detlint::allow(float-reassociation, reason = "gradient-guard norm is reliable control-plane arithmetic")
                // detlint::allow(fpu-routing, reason = "gradient-guard norm is reliable control-plane arithmetic")
                let norm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
                if norm > max_norm {
                    let s = max_norm / norm;
                    for g in grad.iter_mut() {
                        *g *= s;
                    }
                }
            }
            GradientGuard::ClampComponents { max_abs } => {
                zero_non_finite(grad);
                for g in grad.iter_mut() {
                    *g = g.clamp(-max_abs, max_abs);
                }
            }
            GradientGuard::Adaptive { factor, reject } => {
                zero_non_finite(grad);
                let med = median_abs(grad);
                let scale = match self.scale {
                    Some(s) => {
                        if med > reject * s {
                            // Coherently corrupted gradient: reject the whole
                            // step and leave the scale estimate untouched.
                            grad.fill(0.0);
                            return;
                        }
                        // detlint::allow(fpu-routing, reason = "guard smoothing is reliable control-plane arithmetic")
                        0.9 * s + 0.1 * med
                    }
                    None => med,
                };
                self.scale = Some(scale);
                if scale > 0.0 {
                    let bound = factor * scale;
                    for g in grad.iter_mut() {
                        *g = g.clamp(-bound, bound);
                    }
                }
            }
        }
    }

    /// The current adaptive scale estimate, if any.
    pub fn scale(&self) -> Option<f64> {
        self.scale
    }
}

fn zero_non_finite(grad: &mut [f64]) {
    for g in grad.iter_mut() {
        if !g.is_finite() {
            *g = 0.0;
        }
    }
}

/// Median of absolute values (native arithmetic; `0` for an empty slice).
///
/// Uses O(n) selection instead of a full sort — this runs once per
/// adaptive-guard iteration, which made the sort a measurable share of
/// SGD trial time. The returned value is identical to the sort-based
/// median: for even `n` the lower middle element is the maximum of the
/// partition left of the selected upper middle.
fn median_abs(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut abs: Vec<f64> = v.iter().map(|x| x.abs()).collect();
    let n = abs.len();
    let (below, upper_mid, _) = abs.select_nth_unstable_by(n / 2, |a, b| {
        a.partial_cmp(b).expect("non-finite lanes were zeroed")
    });
    if n % 2 == 1 {
        *upper_mid
    } else {
        let lower_mid = below.iter().copied().fold(0.0f64, f64::max);
        // detlint::allow(fpu-routing, reason = "guard median midpoint is reliable control-plane arithmetic")
        0.5 * (lower_mid + *upper_mid)
    }
}

/// The outcome of an iterative solve ([`run_sgd`] or
/// [`run_cgls`](crate::run_cgls)).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// The final iterate.
    pub x: Vec<f64>,
    /// Total iterations executed (SGD: main loop + aggressive stepping).
    pub iterations: usize,
    /// Times CG reset its search direction beyond the initial one (always
    /// `0` for SGD).
    pub restarts: usize,
    /// Data-plane FLOPs charged to the provided FPU during the solve.
    pub flops: u64,
    /// Faults the FPU injected during the solve.
    pub faults: u64,
}

/// Runs the stochastic gradient descent that `spec` describes from `x0`,
/// evaluating gradients through `fpu`.
///
/// Reads the spec's `iterations`, `schedule`, `momentum`
/// (`dₜ = β ∇f + (1−β) dₜ₋₁`), `aggressive` tail, `annealing` and
/// `guard` (`None` is [`GradientGuard::default`]); its `method` is the
/// caller's dispatch and is not consulted. The returned report's
/// FLOP/fault counts are the *deltas* accrued on `fpu` during this call.
///
/// # Panics
///
/// Panics with [`SolverSpec::validate`]'s message if the spec is invalid,
/// and if `x0.len() != cost.dim()`.
///
/// # Examples
///
/// ```
/// use robustify_core::{run_sgd, CostFunction, SolverSpec, StepSchedule, QuadraticResidualCost};
/// use robustify_linalg::Matrix;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_core::CoreError> {
/// let mut cost = QuadraticResidualCost::new(Matrix::identity(2), vec![1.0, -1.0])?;
/// let spec = SolverSpec::sgd(200, StepSchedule::Sqrt { gamma0: 0.4 })
///     .with_momentum(0.5)
///     .with_aggressive_stepping(Default::default());
/// let report = run_sgd(&spec, &mut cost, &[0.0, 0.0], &mut ReliableFpu::new());
/// assert!(cost.cost(&report.x, &mut ReliableFpu::new()) < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn run_sgd<C: CostFunction, F: Fpu>(
    spec: &SolverSpec,
    cost: &mut C,
    x0: &[f64],
    fpu: &mut F,
) -> SolveReport {
    if let Err(message) = spec.validate() {
        panic!("{message}");
    }
    assert_eq!(
        x0.len(),
        cost.dim(),
        "initial iterate has the wrong dimension"
    );
    let snapshot = fpu.snapshot();
    let dim = cost.dim();
    let mut x = x0.to_vec();
    let mut grad = vec![0.0; dim];
    let mut direction = vec![0.0; dim];
    let mut guard = GuardState::new(spec.guard.unwrap_or_default());

    let mut executed = 0;
    for t in 1..=spec.iterations {
        cost.gradient(&x, fpu, &mut grad);
        guard.apply(&mut grad);
        match spec.momentum {
            Some(beta) => {
                for (d, &g) in direction.iter_mut().zip(&grad) {
                    // detlint::allow(fpu-routing, reason = "the update step runs on the reliable processor per the paper's split")
                    *d = beta * g + (1.0 - beta) * *d;
                }
            }
            None => direction.copy_from_slice(&grad),
        }
        let gamma = spec.schedule.step(t);
        for (xi, &di) in x.iter_mut().zip(&direction) {
            *xi -= gamma * di;
        }
        if let Some(ann) = spec.annealing {
            if t % ann.period == 0 {
                cost.anneal(ann.factor);
            }
        }
        executed = t;
    }

    if let Some(aggressive) = spec.aggressive {
        let gamma = spec.schedule.step(spec.iterations.max(1));
        executed += aggressive_phase(cost, &mut x, &mut grad, fpu, aggressive, gamma, &mut guard);
    }

    SolveReport {
        x,
        iterations: executed,
        restarts: 0,
        flops: snapshot.flops_since(fpu),
        faults: snapshot.faults_since(fpu),
    }
}

/// The variable step-size phase, starting from step `gamma`: grow the step
/// after each cost decrease, shrink it (and roll back) after each
/// increase; stop when the relative change between consecutive
/// evaluations falls below the tolerance. Cost evaluations here are
/// control-plane (reliable); gradients remain noisy.
fn aggressive_phase<C: CostFunction, F: Fpu>(
    cost: &mut C,
    x: &mut Vec<f64>,
    grad: &mut [f64],
    fpu: &mut F,
    config: AggressiveStepping,
    mut gamma: f64,
    guard: &mut GuardState,
) -> usize {
    let mut measure = ReliableFpu::new();
    let mut f_current = cost.cost(x, &mut measure);
    let mut steps = 0;
    // The phase ends once progress stalls *repeatedly*: a single
    // sub-tolerance step right after entry (where γ is still the tiny
    // tail of the main schedule) must not abort the phase before the
    // success factor has had a chance to grow the step.
    let mut stall_streak = 0;
    for _ in 0..config.max_steps {
        cost.gradient(x, fpu, grad);
        guard.apply(grad);
        let candidate: Vec<f64> = x
            .iter()
            .zip(grad.iter())
            .map(|(xi, gi)| xi - gamma * gi)
            .collect();
        let f_candidate = cost.cost(&candidate, &mut measure);
        steps += 1;
        if f_candidate.is_finite() && f_candidate < f_current {
            let rel = (f_current - f_candidate).abs() / f_current.abs().max(1e-12);
            *x = candidate;
            f_current = f_candidate;
            gamma *= config.success_factor;
            if rel < config.rel_tolerance {
                stall_streak += 1;
                if stall_streak >= 5 {
                    break;
                }
            } else {
                stall_streak = 0;
            }
        } else {
            gamma *= config.fail_factor;
            if gamma < 1e-18 {
                break;
            }
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{QuadraticCost, QuadraticResidualCost};
    use crate::schedule::StepSchedule;
    use robustify_linalg::Matrix;
    use stochastic_fpu::{BitFaultModel, BitWidth, FaultRate, NoisyFpu};

    fn reliable_cost(cost: &impl CostFunction, x: &[f64]) -> f64 {
        cost.cost(x, &mut ReliableFpu::new())
    }

    fn residual_cost() -> QuadraticResidualCost {
        // Minimum at x = (2, -1).
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).expect("valid rows");
        let b = vec![2.0, -1.0, 1.0];
        QuadraticResidualCost::new(a, b).expect("consistent")
    }

    #[test]
    fn converges_on_reliable_fpu() {
        let mut cost = residual_cost();
        let spec = SolverSpec::sgd(300, StepSchedule::Fixed(0.1));
        let report = run_sgd(&spec, &mut cost, &[0.0, 0.0], &mut ReliableFpu::new());
        assert!((report.x[0] - 2.0).abs() < 1e-6, "x = {:?}", report.x);
        assert!((report.x[1] + 1.0).abs() < 1e-6);
        assert!(reliable_cost(&cost, &report.x) < 1e-10);
        assert_eq!(report.iterations, 300);
        assert_eq!(report.restarts, 0);
        assert!(report.flops > 0);
        assert_eq!(report.faults, 0);
    }

    #[test]
    fn converges_under_low_order_faults() {
        // LSB-only faults keep the gradient noise bounded: Theorem 1 applies
        // and the solve should still land near the optimum.
        let mut cost = residual_cost();
        let mut fpu = NoisyFpu::new(
            FaultRate::per_flop(0.05),
            BitFaultModel::lsb_only(BitWidth::F64),
            3,
        );
        let spec = SolverSpec::sgd(2000, StepSchedule::Linear { gamma0: 0.5 });
        let report = run_sgd(&spec, &mut cost, &[0.0, 0.0], &mut fpu);
        assert!(report.faults > 0, "no faults were injected");
        assert!((report.x[0] - 2.0).abs() < 1e-2, "x = {:?}", report.x);
        assert!((report.x[1] + 1.0).abs() < 1e-2);
    }

    #[test]
    fn survives_exponent_faults_with_clip_guard() {
        let mut cost = residual_cost();
        let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.01), BitFaultModel::emulated(), 17);
        let spec = SolverSpec::sgd(3000, StepSchedule::Linear { gamma0: 0.5 })
            .with_guard(GradientGuard::Clip { max_norm: 1e3 });
        let report = run_sgd(&spec, &mut cost, &[0.0, 0.0], &mut fpu);
        assert!(report.x.iter().all(|v| v.is_finite()));
        assert!(
            (report.x[0] - 2.0).abs() < 0.5 && (report.x[1] + 1.0).abs() < 0.5,
            "x = {:?}",
            report.x
        );
    }

    #[test]
    fn momentum_still_converges() {
        let mut cost = residual_cost();
        let spec = SolverSpec::sgd(500, StepSchedule::Fixed(0.05)).with_momentum(0.5);
        let report = run_sgd(&spec, &mut cost, &[0.0, 0.0], &mut ReliableFpu::new());
        assert!(reliable_cost(&cost, &report.x) < 1e-8);
    }

    #[test]
    fn aggressive_stepping_refines_the_solution() {
        let mut cost = residual_cost();
        let spec = SolverSpec::sgd(20, StepSchedule::Linear { gamma0: 0.3 });
        let base = run_sgd(&spec, &mut cost, &[0.0, 0.0], &mut ReliableFpu::new());
        let mut cost2 = residual_cost();
        let with_as = run_sgd(
            &spec.with_aggressive_stepping(AggressiveStepping::default()),
            &mut cost2,
            &[0.0, 0.0],
            &mut ReliableFpu::new(),
        );
        let (with_as_cost, base_cost) = (
            reliable_cost(&cost2, &with_as.x),
            reliable_cost(&cost, &base.x),
        );
        assert!(
            with_as_cost <= base_cost,
            "AS {with_as_cost} vs base {base_cost}"
        );
        assert!(with_as.iterations > base.iterations);
    }

    #[test]
    fn annealing_calls_cost_anneal() {
        use crate::penalty::{AffineConstraints, PenaltyCost, PenaltyKind};
        let ineq = AffineConstraints::new(
            Matrix::from_rows(&[&[1.0, 1.0]]).expect("valid rows"),
            vec![1.0],
        )
        .expect("consistent");
        let mut cost = PenaltyCost::new(
            crate::cost::LinearCost::new(vec![-1.0, -1.0]),
            1.0,
            PenaltyKind::Squared,
        )
        .expect("valid mu")
        .with_inequalities(ineq)
        .expect("dims match")
        .with_nonneg();
        let mu_before = cost.mu();
        let spec =
            SolverSpec::sgd(100, StepSchedule::Sqrt { gamma0: 0.1 }).with_annealing(Annealing {
                period: 10,
                factor: 2.0,
            });
        run_sgd(&spec, &mut cost, &[0.0, 0.0], &mut ReliableFpu::new());
        assert_eq!(cost.mu(), mu_before * 2f64.powi(10));
    }

    #[test]
    fn guard_zeroes_non_finite_components() {
        let mut g = vec![1.0, f64::NAN, f64::INFINITY, -2.0];
        GuardState::new(GradientGuard::ZeroNonFinite).apply(&mut g);
        assert_eq!(g, vec![1.0, 0.0, 0.0, -2.0]);
    }

    #[test]
    fn guard_clips_norm() {
        let mut g = vec![30.0, 40.0]; // norm 50
        GuardState::new(GradientGuard::Clip { max_norm: 5.0 }).apply(&mut g);
        let norm = (g[0] * g[0] + g[1] * g[1]).sqrt();
        assert!((norm - 5.0).abs() < 1e-12);
        assert!((g[0] / g[1] - 0.75).abs() < 1e-12, "direction preserved");
    }

    #[test]
    fn guard_off_is_identity() {
        let mut g = vec![f64::NAN, 1e300];
        GuardState::new(GradientGuard::Off).apply(&mut g);
        assert!(g[0].is_nan());
        assert_eq!(g[1], 1e300);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn run_rejects_bad_x0() {
        let mut cost = residual_cost();
        let spec = SolverSpec::sgd(1, StepSchedule::Fixed(0.1));
        run_sgd(&spec, &mut cost, &[0.0], &mut ReliableFpu::new());
    }

    #[test]
    #[should_panic(expected = "momentum β must be in (0, 1], got 1.5")]
    fn run_sgd_refuses_an_invalid_spec() {
        let mut cost = residual_cost();
        let spec = SolverSpec::sgd(1, StepSchedule::Fixed(0.1)).with_momentum(1.5);
        run_sgd(&spec, &mut cost, &[0.0, 0.0], &mut ReliableFpu::new());
    }

    #[test]
    fn strongly_convex_rate_improves_with_iterations() {
        // Theorem 1 sanity: for a strongly convex quadratic under bounded
        // noise, E[f(x_T) - f*] shrinks as T grows.
        let q = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 2.0]]).expect("valid rows");
        let mean_gap = |iters: usize| -> f64 {
            let mut total = 0.0;
            let runs = 20;
            for seed in 0..runs {
                let mut cost = QuadraticCost::new(q.clone(), vec![2.0, -2.0]).expect("consistent");
                let mut fpu = NoisyFpu::new(
                    FaultRate::per_flop(0.05),
                    BitFaultModel::lsb_only(BitWidth::F64),
                    seed,
                );
                let spec = SolverSpec::sgd(iters, StepSchedule::Linear { gamma0: 0.9 });
                let report = run_sgd(&spec, &mut cost, &[5.0, 5.0], &mut fpu);
                // f* = -b'Q^{-1}b/2 = -(1+1) = -2 for this system.
                total += reliable_cost(&cost, &report.x) - (-2.0);
            }
            total / runs as f64
        };
        let short = mean_gap(30);
        let long = mean_gap(1000);
        assert!(long < short, "gap did not shrink: {short} -> {long}");
        assert!(long < 1e-3, "long-run gap {long} too large");
    }
}
