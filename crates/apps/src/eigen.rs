//! Eigenvalue extraction (§4.7, "other numerical problems"): "one can find
//! the top eigenvalue/eigenvector pair by maximizing a Rayleigh quotient,
//! subtracting the resulting rank-1 matrix from the target matrix, and
//! repeating k times."
//!
//! The robust form maximizes `xᵀAx` on the unit sphere via the penalized
//! cost `f(x) = −xᵀAx + μ(xᵀx − 1)²` and extracts the top pair (the first
//! of those `k` stages); the baseline is power iteration through the
//! faulty FPU.

use rand::{Rng, RngExt};
use robustify_core::{CoreError, CostFunction, RobustProblem, SolverSpec, Verdict};
use robustify_linalg::Matrix;
use stochastic_fpu::{Fpu, ReliableFpu};

/// The penalized Rayleigh-quotient cost
/// `f(x) = −xᵀ A x + μ (xᵀx − 1)²` for a symmetric matrix `A`.
///
/// Its minimizers are `±v₁`, the top eigenvectors, once `μ` exceeds the top
/// eigenvalue.
///
/// # Examples
///
/// ```
/// use robustify_apps::eigen::RayleighCost;
/// use robustify_core::CostFunction;
/// use robustify_linalg::Matrix;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_core::CoreError> {
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 1.0]])?;
/// let cost = RayleighCost::new(a, 10.0)?;
/// let mut fpu = ReliableFpu::new();
/// // The top eigenvector e1 scores −λ₁ = −2.
/// assert_eq!(cost.cost(&[1.0, 0.0], &mut fpu), -2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RayleighCost {
    a: Matrix,
    mu: f64,
}

impl RayleighCost {
    /// Creates the cost for symmetric `A` with norm-penalty weight `mu`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `A` is not square/symmetric
    /// or `mu` is not positive and finite.
    pub fn new(a: Matrix, mu: f64) -> Result<Self, CoreError> {
        if !a.is_square() {
            return Err(CoreError::shape(
                "square matrix",
                format!("{}x{}", a.rows(), a.cols()),
            ));
        }
        for i in 0..a.rows() {
            for j in 0..i {
                if (a[(i, j)] - a[(j, i)]).abs() > 1e-9 {
                    return Err(CoreError::invalid_config("matrix must be symmetric"));
                }
            }
        }
        if !mu.is_finite() || mu <= 0.0 {
            return Err(CoreError::invalid_config(format!(
                "penalty weight must be positive and finite, got {mu}"
            )));
        }
        Ok(RayleighCost { a, mu })
    }

    /// The matrix `A`.
    pub fn matrix(&self) -> &Matrix {
        &self.a
    }

    /// The norm-penalty weight `μ`.
    pub fn mu(&self) -> f64 {
        self.mu
    }
}

impl CostFunction for RayleighCost {
    fn dim(&self) -> usize {
        self.a.rows()
    }

    fn cost<F: Fpu>(&self, x: &[f64], fpu: &mut F) -> f64 {
        let ax = self.a.matvec(fpu, x).expect("x has dim() entries");
        let xax = fpu.dot_batch(x, &ax);
        let xx = robustify_linalg::norm2_sq(fpu, x);
        let dev = fpu.sub(xx, 1.0);
        let dev_sq = fpu.mul(dev, dev);
        let pen = fpu.mul(self.mu, dev_sq);
        fpu.sub(pen, xax)
    }

    fn gradient<F: Fpu>(&self, x: &[f64], fpu: &mut F, grad: &mut [f64]) {
        // ∇f = −2 A x + 4 μ (xᵀx − 1) x.
        let ax = self.a.matvec(fpu, x).expect("x has dim() entries");
        let xx = robustify_linalg::norm2_sq(fpu, x);
        let dev = fpu.sub(xx, 1.0);
        // detlint::allow(fpu-routing, reason = "4*mu is a constant fold of problem constants; per-element FLOPs route through the Fpu")
        let coef = fpu.mul(4.0 * self.mu, dev);
        for ((g, &axi), &xi) in grad.iter_mut().zip(&ax).zip(x) {
            let lin = fpu.mul(2.0, axi);
            let sph = fpu.mul(coef, xi);
            *g = fpu.sub(sph, lin);
        }
    }

    fn anneal(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "anneal factor must be positive"
        );
        // Saturated as in `PenaltyCost::anneal`.
        self.mu = (self.mu * factor).min(1e9);
    }
}

/// A top-eigenpair problem for a symmetric matrix, with a robust SGD solver
/// and a power-iteration baseline.
///
/// # Examples
///
/// ```
/// use robustify_apps::eigen::EigenProblem;
/// use robustify_core::{RobustProblem, SolverSpec, StepSchedule};
/// use robustify_linalg::Matrix;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_core::CoreError> {
/// let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 3.0]])?;
/// let p = EigenProblem::new(a)?;
/// let spec = SolverSpec::sgd(2000, StepSchedule::Sqrt { gamma0: 0.05 });
/// let (lambda, _v) = p.solve(&spec, &mut ReliableFpu::new())?.solution.expect("sgd decodes");
/// assert!((lambda - 4.0).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EigenProblem {
    a: Matrix,
    top_eigenvalue: f64,
}

impl EigenProblem {
    /// Creates the problem, computing the reliable top eigenvalue offline
    /// (500 reliable power iterations).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `A` is not symmetric.
    pub fn new(a: Matrix) -> Result<Self, CoreError> {
        // Validate symmetry by constructing the cost once.
        let _ = RayleighCost::new(a.clone(), 1.0)?;
        let (lambda, _) = power_iteration(&mut ReliableFpu::new(), &a, 500);
        Ok(EigenProblem {
            a,
            top_eigenvalue: lambda,
        })
    }

    /// Generates a random symmetric matrix problem with entries in
    /// `[-1, 1)` plus a diagonal shift keeping the top eigenvalue positive.
    pub fn random<R: Rng>(rng: &mut R, n: usize) -> Self {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = rng.random_range(-1.0..1.0);
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
            let d = a[(i, i)];
            // detlint::allow(fpu-routing, reason = "test-matrix construction is reliable problem setup")
            a[(i, i)] = d + n as f64 * 0.5;
        }
        Self::new(a).expect("constructed matrix is symmetric")
    }

    /// The matrix `A`.
    pub fn matrix(&self) -> &Matrix {
        &self.a
    }

    /// The reliable top eigenvalue (ground truth).
    pub fn top_eigenvalue(&self) -> f64 {
        self.top_eigenvalue
    }

    /// Decodes an iterate: normalize (native) and compute the reliable
    /// Rayleigh quotient. Non-finite iterates decode to `(NaN, x)`.
    pub fn decode(&self, x: &[f64]) -> (f64, Vec<f64>) {
        if x.iter().any(|v| !v.is_finite()) {
            return (f64::NAN, x.to_vec());
        }
        // detlint::allow(float-reassociation, reason = "decode normalizes natively: reliable verification measurement")
        // detlint::allow(fpu-routing, reason = "decode normalizes natively: reliable verification measurement")
        let norm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm == 0.0 {
            return (f64::NAN, x.to_vec());
        }
        let v: Vec<f64> = x.iter().map(|e| e / norm).collect();
        let mut fpu = ReliableFpu::new();
        let av = self.a.matvec(&mut fpu, &v).expect("v has dim() entries");
        let lambda = fpu.dot_batch(&v, &av);
        (lambda, v)
    }

    /// Relative eigenvalue error against the ground truth (native
    /// measurement; NaN yields `∞`).
    pub fn relative_error(&self, lambda: f64) -> f64 {
        if !lambda.is_finite() {
            return f64::INFINITY;
        }
        (lambda - self.top_eigenvalue).abs() / self.top_eigenvalue.abs().max(1e-300)
    }
}

impl RobustProblem for EigenProblem {
    type Solution = (f64, Vec<f64>);
    type Cost = RayleighCost;

    fn name(&self) -> &'static str {
        "eigen"
    }

    fn cost(&self) -> Self::Cost {
        // detlint::allow(fpu-routing, reason = "penalty weight mu is a setup-time constant")
        let mu = 2.0 * self.top_eigenvalue.abs().max(1.0);
        RayleighCost::new(self.a.clone(), mu).expect("matrix validated at problem construction")
    }

    /// A deterministic non-degenerate start on the unit sphere.
    fn initial_iterate<F: Fpu>(&self, _cost: &Self::Cost, _fpu: &mut F) -> Vec<f64> {
        let n = self.a.rows();
        // detlint::allow(fpu-routing, reason = "deterministic start vector is reliable problem setup")
        let x0: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).sin()).collect();
        // detlint::allow(float-reassociation, reason = "deterministic start vector is reliable problem setup")
        // detlint::allow(fpu-routing, reason = "deterministic start vector is reliable problem setup")
        let norm: f64 = x0.iter().map(|v| v * v).sum::<f64>().sqrt();
        x0.iter().map(|v| v / norm).collect()
    }

    fn decode(&self, _cost: &Self::Cost, x: &[f64]) -> (f64, Vec<f64>) {
        EigenProblem::decode(self, x)
    }

    /// The metric is the relative eigenvalue error; success requires it at
    /// most 5%.
    fn verify(&self, solution: &(f64, Vec<f64>)) -> Verdict {
        Verdict::from_metric(self.relative_error(solution.0), 0.05)
    }

    /// The power-iteration baseline: `spec.iterations` iterations of
    /// `x ← A x / ‖A x‖` through the faulty FPU, decoded reliably.
    fn baseline<F: Fpu>(&self, spec: &SolverSpec, fpu: &mut F) -> Option<(f64, Vec<f64>)> {
        let (_, v) = power_iteration(fpu, &self.a, spec.iterations);
        Some(EigenProblem::decode(self, &v))
    }
}

/// Power iteration through an FPU; returns `(rayleigh, vector)` where the
/// quotient is computed through the same FPU.
fn power_iteration<F: Fpu>(fpu: &mut F, a: &Matrix, k: usize) -> (f64, Vec<f64>) {
    let n = a.rows();
    // detlint::allow(fpu-routing, reason = "deterministic power-iteration seed is reliable setup")
    let mut x: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 0.01).collect();
    for _ in 0..k {
        let ax = a.matvec(fpu, &x).expect("x has n entries");
        let norm = robustify_linalg::norm2(fpu, &ax);
        if !norm.is_finite() || norm == 0.0 {
            // Restart from the deterministic seed rather than dividing by a
            // corrupted norm.
            // detlint::allow(fpu-routing, reason = "deterministic restart seed is reliable setup")
            x = (0..n).map(|i| 1.0 + (i as f64) * 0.01).collect();
            continue;
        }
        x = ax.iter().map(|&v| fpu.div(v, norm)).collect();
    }
    let ax = a.matvec(fpu, &x).expect("x has n entries");
    let lambda = fpu.dot_batch(&x, &ax);
    (lambda, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use robustify_core::StepSchedule;
    use stochastic_fpu::{BitFaultModel, FaultRate, NoisyFpu};

    fn two_by_two() -> EigenProblem {
        // Eigenvalues 4 and 2, top eigenvector (1, 1)/√2.
        EigenProblem::new(Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 3.0]]).expect("valid rows"))
            .expect("symmetric")
    }

    /// Solves `p` with `spec`, panicking on a breakdown.
    fn solved<F: Fpu>(p: &EigenProblem, spec: &SolverSpec, fpu: &mut F) -> (f64, Vec<f64>) {
        p.solve(spec, fpu)
            .expect("supported method")
            .solution
            .expect("no breakdown")
    }

    #[test]
    fn ground_truth_is_correct() {
        let p = two_by_two();
        assert!((p.top_eigenvalue() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn rayleigh_gradient_matches_finite_difference() {
        let p = two_by_two();
        let cost = RayleighCost::new(p.matrix().clone(), 5.0).expect("symmetric");
        let x = [0.8, -0.3];
        let mut fpu = ReliableFpu::new();
        let mut grad = vec![0.0; 2];
        cost.gradient(&x, &mut fpu, &mut grad);
        let h = 1e-6;
        for i in 0..2 {
            let mut xp = x.to_vec();
            let mut xm = x.to_vec();
            xp[i] += h;
            xm[i] -= h;
            let fd = (cost.cost(&xp, &mut fpu) - cost.cost(&xm, &mut fpu)) / (2.0 * h);
            assert!((grad[i] - fd).abs() < 1e-4 * (1.0 + fd.abs()), "lane {i}");
        }
    }

    #[test]
    fn sgd_finds_top_eigenpair_reliably() {
        let p = two_by_two();
        let spec = SolverSpec::sgd(3000, StepSchedule::Sqrt { gamma0: 0.05 });
        let (lambda, v) = solved(&p, &spec, &mut ReliableFpu::new());
        assert!(p.relative_error(lambda) < 0.01, "lambda {lambda}");
        // Eigenvector alignment: |⟨v, (1,1)/√2⟩| ≈ 1.
        let align = ((v[0] + v[1]) / 2f64.sqrt()).abs();
        assert!(align > 0.99, "alignment {align}");
    }

    #[test]
    fn baseline_power_iteration_is_exact_reliably() {
        let p = two_by_two();
        let (lambda, _) = solved(&p, &SolverSpec::baseline(), &mut ReliableFpu::new());
        assert!(p.relative_error(lambda) < 1e-9);
    }

    #[test]
    fn sgd_degrades_gracefully_under_faults() {
        let p = EigenProblem::random(&mut StdRng::seed_from_u64(3), 6);
        let mut total = 0.0;
        let runs = 5;
        for seed in 0..runs {
            let spec = SolverSpec::sgd(4000, StepSchedule::Sqrt { gamma0: 0.02 });
            let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.01), BitFaultModel::emulated(), seed);
            let (lambda, _) = solved(&p, &spec, &mut fpu);
            total += p.relative_error(lambda).min(10.0);
        }
        assert!(
            total / (runs as f64) < 0.5,
            "mean relative error {}",
            total / runs as f64
        );
    }

    #[test]
    fn constructors_validate() {
        assert!(RayleighCost::new(Matrix::zeros(2, 3), 1.0).is_err());
        let asym = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 1.0]]).expect("valid rows");
        assert!(RayleighCost::new(asym.clone(), 1.0).is_err());
        assert!(EigenProblem::new(asym).is_err());
        let sym = Matrix::identity(2);
        assert!(RayleighCost::new(sym, 0.0).is_err());
    }

    #[test]
    fn decode_handles_degenerate_iterates() {
        let p = two_by_two();
        let (lambda, _) = p.decode(&[f64::NAN, 1.0]);
        assert!(lambda.is_nan());
        let (lambda, _) = p.decode(&[0.0, 0.0]);
        assert!(lambda.is_nan());
        assert_eq!(p.relative_error(f64::NAN), f64::INFINITY);
    }
}
