//! IIR filtering (§4.2): the recursive direct form "accrues noise in x as t
//! grows" on a stochastic processor; the robust form observes that the
//! output must satisfy the post-condition `B x = A u` (banded convolution
//! matrices built from the taps) and minimizes `f(x) = ‖Bx − Au‖²`.
//!
//! "In experiments, we use the standard noisy feed-forward technique to
//! generate the initial iterate for the stochastic least squares solver."

use rand::{Rng, RngExt};
use robustify_core::{CoreError, CostFunction, RobustProblem, SolverSpec, Verdict};
use robustify_linalg::BandedMatrix;
use stochastic_fpu::{Fpu, ReliableFpu};

/// An IIR filter with transfer function
/// `H(z) = (Σ aᵢ z⁻ⁱ) / (Σ bᵢ z⁻ⁱ)`.
///
/// # Examples
///
/// ```
/// use robustify_apps::iir::IirFilter;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_core::CoreError> {
/// // A one-pole lowpass: y[t] = u[t] + 0.5 y[t-1].
/// let filter = IirFilter::new(vec![1.0], vec![1.0, -0.5])?;
/// let y = filter.apply_direct(&mut ReliableFpu::new(), &[1.0, 0.0, 0.0]);
/// assert_eq!(y, vec![1.0, 0.5, 0.25]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IirFilter {
    /// Feed-forward (numerator) taps `a₀ … aₙ`.
    a: Vec<f64>,
    /// Feedback (denominator) taps `b₀ … bₘ` with `b₀ ≠ 0`.
    b: Vec<f64>,
}

impl IirFilter {
    /// Creates a filter from numerator taps `a` and denominator taps `b`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if either tap vector is empty,
    /// contains non-finite values, or `b[0] == 0`.
    pub fn new(a: Vec<f64>, b: Vec<f64>) -> Result<Self, CoreError> {
        if a.is_empty() || b.is_empty() {
            return Err(CoreError::invalid_config("tap vectors must be non-empty"));
        }
        if a.iter().chain(&b).any(|t| !t.is_finite()) {
            return Err(CoreError::invalid_config("taps must be finite"));
        }
        if b[0] == 0.0 {
            return Err(CoreError::invalid_config(
                "leading denominator tap b0 must be non-zero",
            ));
        }
        Ok(IirFilter { a, b })
    }

    /// Generates a random *stable* filter with `2 * pairs + 1` denominator
    /// taps (poles are conjugate pairs with radius in `[0.3, 0.85)`) and
    /// `numerator_taps` feed-forward taps — the paper's 10-tap filters use
    /// `pairs = 4`, `numerator_taps = 2` (9 + 2 ≈ 10 taps total).
    ///
    /// # Panics
    ///
    /// Panics if `numerator_taps == 0`.
    pub fn random_stable<R: Rng>(rng: &mut R, pairs: usize, numerator_taps: usize) -> Self {
        assert!(numerator_taps > 0, "need at least one numerator tap");
        // Denominator = Π (1 − 2 r cosθ z⁻¹ + r² z⁻²): poles strictly
        // inside the unit circle make the filter stable.
        let mut b = vec![1.0];
        for _ in 0..pairs {
            let r: f64 = rng.random_range(0.3..0.85);
            let theta: f64 = rng.random_range(0.0..std::f64::consts::PI);
            // detlint::allow(fpu-routing, reason = "filter synthesis is reliable problem construction")
            let quad = [1.0, -2.0 * r * theta.cos(), r * r];
            b = convolve(&b, &quad);
        }
        let a = (0..numerator_taps)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        Self::new(a, b).expect("constructed taps are finite with b0 = 1")
    }

    /// Denominator taps.
    pub fn denominator(&self) -> &[f64] {
        &self.b
    }

    /// The baseline: the feed-forward recursion
    /// `x[t] = (Σᵢ aᵢ u[t−i] − Σᵢ≥₁ bᵢ x[t−i]) / b₀`
    /// executed through the (possibly faulty) FPU. Errors accumulate in the
    /// recursion state — the instability the robust form removes.
    pub fn apply_direct<F: Fpu>(&self, fpu: &mut F, u: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; u.len()];
        for t in 0..u.len() {
            let mut acc = 0.0;
            for (i, &ai) in self.a.iter().enumerate() {
                if t >= i {
                    let p = fpu.mul(ai, u[t - i]);
                    acc = fpu.add(acc, p);
                }
            }
            for (i, &bi) in self.b.iter().enumerate().skip(1) {
                if t >= i {
                    let p = fpu.mul(bi, x[t - i]);
                    acc = fpu.sub(acc, p);
                }
            }
            x[t] = fpu.div(acc, self.b[0]);
        }
        x
    }

    /// The exact output, computed reliably (the experiment's ground truth).
    pub fn reference(&self, u: &[f64]) -> Vec<f64> {
        self.apply_direct(&mut ReliableFpu::new(), u)
    }

    /// Builds the robust variational form: the banded matrices `(B, A u)`
    /// such that the desired output minimizes `‖B x − A u‖²` (paper
    /// eqs. 4.1–4.2).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the signal is shorter than
    /// the tap vectors.
    pub fn to_least_squares(&self, u: &[f64]) -> Result<(BandedMatrix, Vec<f64>), CoreError> {
        let t = u.len();
        if t < self.a.len() || t < self.b.len() {
            return Err(CoreError::invalid_config(format!(
                "signal of length {t} shorter than the filter taps"
            )));
        }
        let a_mat = BandedMatrix::convolution(t, &self.a)?;
        let b_mat = BandedMatrix::convolution(t, &self.b)?;
        // rhs = A u computed reliably: it is part of the problem statement,
        // not of the iterative solve.
        let au = a_mat.matvec(&mut ReliableFpu::new(), u)?;
        Ok((b_mat, au))
    }

    /// The paper's noisy feed-forward warm start with control-plane
    /// sanitization, for a prebuilt banded system `(B, Au)` over `u`.
    ///
    /// # Panics
    ///
    /// Panics if `b_mat`/`au` were not built for a signal of `u`'s length
    /// (as [`to_least_squares`](IirFilter::to_least_squares) does).
    pub fn warm_start<F: Fpu>(
        &self,
        u: &[f64],
        b_mat: &BandedMatrix,
        au: &[f64],
        fpu: &mut F,
    ) -> Vec<f64> {
        let mut x0 = self.apply_direct(fpu, u);
        // Control-plane sanitization of the warm start, in two stages.
        //
        // Stage 1 — magnitude cap: the true output obeys
        // `‖y‖∞ ≤ ‖h‖₁ ‖u‖∞` with `h` the filter's impulse response
        // (computed reliably over the signal length). Samples beyond that
        // bound are surely corrupt and would overflow the residual check
        // below; they restart from zero.
        let h = self.reference(&unit_impulse(u.len()));
        // detlint::allow(float-reassociation, reason = "warm-start cap is a reliable control-plane guard")
        let gain: f64 = h.iter().map(|v| v.abs()).sum();
        let peak = u.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        // detlint::allow(fpu-routing, reason = "warm-start cap is a reliable control-plane guard")
        let cap = 1.001 * gain * peak + 1e-9;
        for v in &mut x0 {
            if !v.is_finite() || v.abs() > cap {
                *v = 0.0;
            }
        }
        // Stage 2 — fault rollback: every FPU fault in the feed-forward
        // recursion lands as an additive error on exactly one output sample
        // and then propagates homogeneously through the feedback taps — so
        // the reliable residual `r = B x0 − A u` is a spike train with one
        // spike of height `b0 δ` per fault (and per sample zeroed above).
        // Rolling back the spikes beyond the solver's reach
        // (`e = B⁻¹ r_spikes` by banded forward substitution) removes
        // exactly the corrupt tails a clipped gradient could never walk
        // back within its iteration budget, while sub-threshold faults are
        // left for SGD — the data-plane solve the methodology is about.
        let mut setup = ReliableFpu::new();
        let residual = b_mat
            .residual(&mut setup, &x0, au)
            .expect("warm start dimensions match the banded system");
        let drive = au.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        // A residual spike of height `b0 δ` grows into a tail of peak
        // `≈ δ ‖B⁻¹‖` — resonant filters amplify it well beyond δ — while a
        // clipped-gradient solver moves each component at most
        // `Σ γ_t · max_abs` over its whole budget. 1% of the drive scale
        // keeps the surviving tails inside a typical budget without
        // repairing the small-fault noise SGD is there to absorb.
        // detlint::allow(fpu-routing, reason = "spike threshold is a reliable control-plane guard")
        let threshold = 0.01 * self.b[0].abs() * (1.0 + drive);
        let spikes: Vec<f64> = residual
            .iter()
            .map(|&r| if r.abs() > threshold { r } else { 0.0 })
            .collect();
        if spikes.iter().any(|&s| s != 0.0) {
            let tails = b_mat
                .forward_solve(&mut setup, &spikes)
                .expect("spike vector matches the banded system");
            for (x, e) in x0.iter_mut().zip(&tails) {
                *x -= e;
            }
        }
        for v in &mut x0 {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
        x0
    }

    /// A stable initial step size for the banded least squares solve:
    /// `1 / σ_max(B)²`, with `σ_max` estimated by a short reliable power
    /// iteration on `BᵀB` over a length-`t` signal (control-plane setup).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `t` is shorter than the tap
    /// vectors.
    pub fn default_gamma0(&self, t: usize) -> Result<f64, CoreError> {
        if t < self.a.len() || t < self.b.len() {
            return Err(CoreError::invalid_config(format!(
                "signal of length {t} shorter than the filter taps"
            )));
        }
        let b_mat = BandedMatrix::convolution(t, &self.b)?;
        let mut fpu = ReliableFpu::new();
        // detlint::allow(fpu-routing, reason = "gain estimate runs on an explicit ReliableFpu")
        let mut v: Vec<f64> = (0..t).map(|i| 1.0 + 0.01 * (i % 7) as f64).collect();
        let mut lambda: f64 = 1.0;
        for _ in 0..20 {
            let bv = b_mat.matvec(&mut fpu, &v)?;
            let btbv = b_mat.matvec_t(&mut fpu, &bv)?;
            lambda = robustify_linalg::norm2(&mut fpu, &btbv);
            if lambda == 0.0 {
                return Ok(1.0);
            }
            v = btbv.iter().map(|&x| x / lambda).collect();
        }
        // detlint::allow(fpu-routing, reason = "gain estimate runs on an explicit ReliableFpu")
        Ok(1.0 / lambda)
    }

    /// The paper's quality metric for IIR: the ratio of error energy to
    /// output signal energy `‖y − y_ref‖ / ‖y_ref‖` (native measurement;
    /// non-finite outputs yield `∞`).
    pub fn error_to_signal(&self, y: &[f64], y_ref: &[f64]) -> f64 {
        if y.len() != y_ref.len() || y.iter().any(|v| !v.is_finite()) {
            return f64::INFINITY;
        }
        // Overflow-safe scaled norm: corrupted outputs can hold entries
        // around 1e200 whose square overflows; factor out the max first.
        let scaled_norm = |it: &mut dyn Iterator<Item = f64>| -> f64 {
            let vals: Vec<f64> = it.collect();
            let max = vals.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if max == 0.0 {
                return 0.0;
            }
            // detlint::allow(float-reassociation, reason = "error-to-signal metric is reliable verification arithmetic")
            let ssq: f64 = vals.iter().map(|v| (v / max) * (v / max)).sum();
            // detlint::allow(fpu-routing, reason = "error-to-signal metric is reliable verification arithmetic")
            max * ssq.sqrt()
        };
        let err = scaled_norm(&mut y.iter().zip(y_ref).map(|(a, b)| a - b));
        let sig = scaled_norm(&mut y_ref.iter().copied());
        err / sig.max(1e-300)
    }
}

/// The banded least squares cost `‖B x − rhs‖²` with gradient
/// `2 Bᵀ (B x − rhs)`, evaluated in `O(t · band)` per call.
///
/// # Examples
///
/// ```
/// use robustify_apps::iir::BandedResidualCost;
/// use robustify_core::CostFunction;
/// use robustify_linalg::BandedMatrix;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_core::CoreError> {
/// let b = BandedMatrix::convolution(3, &[1.0])?;
/// let cost = BandedResidualCost::new(b, vec![1.0, 2.0, 3.0]);
/// assert_eq!(cost.cost(&[1.0, 2.0, 3.0], &mut ReliableFpu::new()), 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BandedResidualCost {
    b: BandedMatrix,
    rhs: Vec<f64>,
}

impl BandedResidualCost {
    /// Creates the cost for the banded system `(B, rhs)`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs.len() != b.dim()`.
    pub fn new(b: BandedMatrix, rhs: Vec<f64>) -> Self {
        assert_eq!(
            rhs.len(),
            b.dim(),
            "rhs length must match the matrix dimension"
        );
        BandedResidualCost { b, rhs }
    }

    /// The banded system matrix `B`.
    pub fn matrix(&self) -> &BandedMatrix {
        &self.b
    }

    /// The right-hand side `Au`.
    pub fn rhs(&self) -> &[f64] {
        &self.rhs
    }

    fn residual<F: Fpu>(&self, x: &[f64], fpu: &mut F) -> Vec<f64> {
        let mut r = self.b.matvec(fpu, x).expect("x has dim() entries");
        fpu.sub_assign_batch(&self.rhs, &mut r);
        r
    }
}

/// An IIR filtering task bound to a concrete input signal — the
/// [`RobustProblem`] form of §4.2.
///
/// # Examples
///
/// ```
/// use robustify_apps::iir::{IirFilter, IirProblem};
/// use robustify_core::{RobustProblem, SolverSpec, StepSchedule};
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_core::CoreError> {
/// let filter = IirFilter::new(vec![1.0], vec![1.0, -0.5])?;
/// let problem = IirProblem::new(filter, vec![1.0, 0.0, 0.0, 0.0])?;
/// let spec = SolverSpec::sgd(200, StepSchedule::Sqrt { gamma0: problem.default_gamma0() });
/// let out = problem.solve(&spec, &mut ReliableFpu::new())?;
/// let verdict = problem.verify(&out.solution.expect("sgd decodes"));
/// assert!(verdict.success);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IirProblem {
    filter: IirFilter,
    u: Vec<f64>,
    y_ref: Vec<f64>,
}

impl IirProblem {
    /// The success threshold on the error-to-signal ratio: at most 5% of
    /// the output energy may be error for a trial to count as a success.
    pub const SUCCESS_TOLERANCE: f64 = 0.05;

    /// Binds `filter` to the input signal `u`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the signal is shorter than
    /// the filter taps.
    pub fn new(filter: IirFilter, u: Vec<f64>) -> Result<Self, CoreError> {
        // Validate the banded system once so the trait methods (which
        // cannot fail) can build it with `expect`.
        let _ = filter.to_least_squares(&u)?;
        let y_ref = filter.reference(&u);
        Ok(IirProblem { filter, u, y_ref })
    }

    /// The filter.
    pub fn filter(&self) -> &IirFilter {
        &self.filter
    }

    /// The input signal.
    pub fn input(&self) -> &[f64] {
        &self.u
    }

    /// A stable initial step size for this signal length (see
    /// [`IirFilter::default_gamma0`]).
    pub fn default_gamma0(&self) -> f64 {
        self.filter
            .default_gamma0(self.u.len())
            .expect("signal length validated at construction")
    }
}

impl RobustProblem for IirProblem {
    type Solution = Vec<f64>;
    type Cost = BandedResidualCost;

    fn name(&self) -> &'static str {
        "iir"
    }

    fn cost(&self) -> Self::Cost {
        let (b_mat, au) = self
            .filter
            .to_least_squares(&self.u)
            .expect("signal length validated at construction");
        BandedResidualCost::new(b_mat, au)
    }

    fn initial_iterate<F: Fpu>(&self, cost: &Self::Cost, fpu: &mut F) -> Vec<f64> {
        self.filter
            .warm_start(&self.u, cost.matrix(), cost.rhs(), fpu)
    }

    fn decode(&self, _cost: &Self::Cost, x: &[f64]) -> Vec<f64> {
        x.to_vec()
    }

    fn verify(&self, solution: &Vec<f64>) -> Verdict {
        Verdict::from_metric(
            self.filter.error_to_signal(solution, &self.y_ref),
            Self::SUCCESS_TOLERANCE,
        )
    }

    fn baseline<F: Fpu>(&self, _spec: &SolverSpec, fpu: &mut F) -> Option<Vec<f64>> {
        Some(self.filter.apply_direct(fpu, &self.u))
    }
}

impl CostFunction for BandedResidualCost {
    fn dim(&self) -> usize {
        self.b.dim()
    }

    fn cost<F: Fpu>(&self, x: &[f64], fpu: &mut F) -> f64 {
        let r = self.residual(x, fpu);
        robustify_linalg::norm2_sq(fpu, &r)
    }

    fn gradient<F: Fpu>(&self, x: &[f64], fpu: &mut F, grad: &mut [f64]) {
        let r = self.residual(x, fpu);
        let btr = self.b.matvec_t(fpu, &r).expect("r has dim() entries");
        // grad = 2·Bᵀr, batched (the copy is data movement, not a FLOP).
        grad.copy_from_slice(&btr);
        fpu.scale_batch(2.0, grad);
    }
}

/// A length-`t` unit impulse — probe signal for the reliable impulse
/// response used to bound the warm start.
fn unit_impulse(t: usize) -> Vec<f64> {
    let mut e = vec![0.0; t];
    if let Some(first) = e.first_mut() {
        *first = 1.0;
    }
    e
}

/// Polynomial (tap) convolution with native arithmetic — used only during
/// workload generation.
fn convolve(p: &[f64], q: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; p.len() + q.len() - 1];
    for (i, &pi) in p.iter().enumerate() {
        for (j, &qj) in q.iter().enumerate() {
            out[i + j] += pi * qj;
        }
    }
    out
}

/// Generates a random input signal of length `t` with entries in `[-1, 1)`.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use robustify_apps::iir::random_signal;
///
/// let u = random_signal(&mut StdRng::seed_from_u64(1), 500);
/// assert_eq!(u.len(), 500);
/// ```
pub fn random_signal<R: Rng>(rng: &mut R, t: usize) -> Vec<f64> {
    (0..t).map(|_| rng.random_range(-1.0..1.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use robustify_core::StepSchedule;
    use stochastic_fpu::{BitFaultModel, FaultRate, NoisyFpu};

    fn lowpass() -> IirFilter {
        IirFilter::new(vec![0.5, 0.5], vec![1.0, -0.3]).expect("valid taps")
    }

    #[test]
    fn direct_form_matches_hand_computation() {
        let f = IirFilter::new(vec![1.0], vec![1.0, -0.5]).expect("valid taps");
        let y = f.apply_direct(&mut ReliableFpu::new(), &[1.0, 0.0, 0.0, 0.0]);
        assert_eq!(y, vec![1.0, 0.5, 0.25, 0.125]);
    }

    #[test]
    fn variational_form_is_satisfied_by_reference_output() {
        let f = lowpass();
        let u = random_signal(&mut StdRng::seed_from_u64(2), 50);
        let y = f.reference(&u);
        let (b_mat, au) = f.to_least_squares(&u).expect("signal long enough");
        let cost = BandedResidualCost::new(b_mat, au);
        assert!(
            cost.cost(&y, &mut ReliableFpu::new()) < 1e-18,
            "reference output does not satisfy Bx = Au"
        );
    }

    #[test]
    fn banded_cost_gradient_matches_finite_difference() {
        let f = lowpass();
        let u = random_signal(&mut StdRng::seed_from_u64(3), 10);
        let (b_mat, au) = f.to_least_squares(&u).expect("signal long enough");
        let cost = BandedResidualCost::new(b_mat, au);
        let x: Vec<f64> = (0..10).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut fpu = ReliableFpu::new();
        let mut grad = vec![0.0; 10];
        cost.gradient(&x, &mut fpu, &mut grad);
        let h = 1e-6;
        for i in 0..10 {
            let mut xp = x.clone();
            let mut xm = x.clone();
            xp[i] += h;
            xm[i] -= h;
            let fd = (cost.cost(&xp, &mut fpu) - cost.cost(&xm, &mut fpu)) / (2.0 * h);
            assert!((grad[i] - fd).abs() < 1e-4 * (1.0 + fd.abs()), "lane {i}");
        }
    }

    #[test]
    fn sgd_refines_noisy_warm_start() {
        let f = lowpass();
        let u = random_signal(&mut StdRng::seed_from_u64(4), 100);
        let y_ref = f.reference(&u);
        let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.02), BitFaultModel::emulated(), 5);
        let baseline = f.apply_direct(&mut fpu, &u);
        let baseline_err = f.error_to_signal(&baseline, &y_ref);
        let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.02), BitFaultModel::emulated(), 5);
        let spec = SolverSpec::sgd(800, StepSchedule::Linear { gamma0: 0.2 });
        let problem = IirProblem::new(f, u).expect("signal long enough");
        let robust_err = problem.run_trial(&spec, &mut fpu).metric;
        assert!(
            robust_err < baseline_err,
            "robust {robust_err} not better than baseline {baseline_err}"
        );
    }

    #[test]
    fn random_stable_filters_do_not_blow_up() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..10 {
            let f = IirFilter::random_stable(&mut rng, 4, 2);
            assert_eq!(f.denominator().len(), 9);
            let u = random_signal(&mut rng, 400);
            let y = f.reference(&u);
            let max = y.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            assert!(max < 1e4, "unstable output, max |y| = {max}");
        }
    }

    #[test]
    fn error_to_signal_metric() {
        let f = lowpass();
        let y_ref = vec![3.0, 4.0];
        assert_eq!(f.error_to_signal(&y_ref, &y_ref), 0.0);
        assert_eq!(f.error_to_signal(&[f64::NAN, 0.0], &y_ref), f64::INFINITY);
        assert_eq!(
            f.error_to_signal(&[0.0], &y_ref),
            f64::INFINITY,
            "length mismatch"
        );
        assert!((f.error_to_signal(&[3.0, 5.0], &y_ref) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn constructors_validate() {
        assert!(IirFilter::new(vec![], vec![1.0]).is_err());
        assert!(IirFilter::new(vec![1.0], vec![]).is_err());
        assert!(IirFilter::new(vec![1.0], vec![0.0, 1.0]).is_err());
        assert!(IirFilter::new(vec![f64::NAN], vec![1.0]).is_err());
        let f = lowpass();
        assert!(
            f.to_least_squares(&[1.0]).is_err(),
            "signal shorter than taps"
        );
    }
}
