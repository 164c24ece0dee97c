//! Least squares (§4.1): "a fundamental problem in numerical linear
//! algebra ... typically implemented on current CPUs via the SVD or the QR
//! decomposition of A. ... these algorithms are disastrously unstable under
//! numerical noise, but minimizing `f(x) = ‖Ax − b‖²` by gradient descent
//! tolerates numerical noise well."

use rand::{Rng, RngExt};
use robustify_core::{
    run_cgls, CoreError, QuadraticResidualCost, RobustOutcome, RobustProblem, SolveMethod,
    SolverSpec, Verdict,
};
use robustify_linalg::{lstsq_cholesky, lstsq_qr, lstsq_svd, Matrix, QrFactorization};
use stochastic_fpu::{Fpu, ReliableFpu};

/// A least squares problem `min ‖A x − b‖` with robust (SGD, CG) and
/// baseline (SVD, QR, Cholesky) solvers.
///
/// # Examples
///
/// ```
/// use robustify_apps::least_squares::LeastSquares;
/// use robustify_core::{AggressiveStepping, RobustProblem, SolverSpec, StepSchedule};
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = LeastSquares::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]], vec![1.0, 2.0, 3.0])?;
/// // The paper's "SGD+AS,LS" variant: 1/t steps plus aggressive stepping.
/// let spec = SolverSpec::sgd(1000, StepSchedule::Linear { gamma0: p.default_gamma0() })
///     .with_aggressive_stepping(AggressiveStepping::default());
/// let x = p.solve(&spec, &mut ReliableFpu::new())?.solution.expect("sgd decodes");
/// assert!(p.relative_error(&x) < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LeastSquares {
    a: Matrix,
    b: Vec<f64>,
}

impl LeastSquares {
    /// Creates the problem `(A, b)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if `b.len() != a.rows()` or
    /// `A` has fewer rows than columns.
    pub fn new(a: Matrix, b: Vec<f64>) -> Result<Self, CoreError> {
        if b.len() != a.rows() {
            return Err(CoreError::shape(
                format!("rhs of length {}", a.rows()),
                format!("length {}", b.len()),
            ));
        }
        if a.rows() < a.cols() {
            return Err(CoreError::shape(
                "at least as many rows as columns",
                format!("{}x{}", a.rows(), a.cols()),
            ));
        }
        Ok(LeastSquares { a, b })
    }

    /// Creates the problem from row slices.
    ///
    /// # Errors
    ///
    /// As [`LeastSquares::new`], plus matrix construction errors.
    pub fn from_rows(rows: &[&[f64]], b: Vec<f64>) -> Result<Self, CoreError> {
        Self::new(Matrix::from_rows(rows)?, b)
    }

    /// Generates a random well-conditioned `m × n` problem with entries in
    /// `[-1, 1)` and a diagonal boost for column independence.
    ///
    /// # Panics
    ///
    /// Panics if `m < n` or `n == 0`.
    pub fn random<R: Rng>(rng: &mut R, m: usize, n: usize) -> Self {
        assert!(m >= n && n > 0, "need m >= n > 0, got {m}x{n}");
        let mut a = Matrix::from_fn(m, n, |_, _| rng.random_range(-1.0..1.0));
        for j in 0..n {
            let v = a[(j, j)];
            // detlint::allow(fpu-routing, reason = "test-matrix construction is reliable problem setup")
            a[(j, j)] = v + 2.0;
        }
        let b = (0..m).map(|_| rng.random_range(-1.0..1.0)).collect();
        Self::new(a, b).expect("generated shapes are consistent")
    }

    /// Generates a random `m × n` problem with 2-norm condition number
    /// `cond`, built as `U Σ Vᵀ` from QR-orthonormalized random factors with
    /// log-spaced singular values.
    ///
    /// # Panics
    ///
    /// Panics if `m < n`, `n == 0`, or `cond < 1`.
    pub fn random_with_condition<R: Rng>(rng: &mut R, m: usize, n: usize, cond: f64) -> Self {
        assert!(m >= n && n > 0, "need m >= n > 0, got {m}x{n}");
        assert!(
            cond >= 1.0,
            "condition number must be at least 1, got {cond}"
        );
        let mut fpu = ReliableFpu::new();
        let orthonormal = |rng: &mut R, rows: usize, cols: usize, fpu: &mut ReliableFpu| {
            let raw = Matrix::from_fn(rows, cols, |i, j| {
                rng.random_range(-1.0..1.0) + if i == j { 2.0 } else { 0.0 }
            });
            let (q, _) = QrFactorization::compute(fpu, &raw)
                .expect("randomized full-rank factor")
                .into_parts();
            q
        };
        let u = orthonormal(rng, m, n, &mut fpu);
        let v = orthonormal(rng, n, n, &mut fpu);
        // Singular values log-spaced from 1 down to 1/cond.
        let mut us = u;
        for j in 0..n {
            let t = if n == 1 {
                0.0
            } else {
                j as f64 / (n - 1) as f64
            };
            // detlint::allow(fpu-routing, reason = "singular-value profile is reliable problem construction")
            let sigma = cond.powf(-t);
            for i in 0..m {
                us[(i, j)] *= sigma;
            }
        }
        let a = us.matmul(&mut fpu, &v.transpose()).expect("shapes match");
        let b = (0..m).map(|_| rng.random_range(-1.0..1.0)).collect();
        Self::new(a, b).expect("generated shapes are consistent")
    }

    /// The system matrix `A`.
    pub fn a(&self) -> &Matrix {
        &self.a
    }

    /// The right-hand side `b`.
    pub fn b(&self) -> &[f64] {
        &self.b
    }

    /// Number of unknowns.
    pub fn dim(&self) -> usize {
        self.a.cols()
    }

    /// The variational cost `‖Ax − b‖²` of §4.1.
    pub fn cost(&self) -> QuadraticResidualCost {
        QuadraticResidualCost::new(self.a.clone(), self.b.clone())
            .expect("problem shapes are consistent by construction")
    }

    /// The initial step size used by the default solver: `1 / σ_max²`,
    /// with `σ_max` estimated by a short reliable power iteration on `AᵀA`
    /// (one-time control-plane setup). This is the stability edge of
    /// gradient descent on `‖Ax − b‖²` (whose curvature is `2 σ_max²`),
    /// where the `1/t` schedule makes the most progress — standing in for
    /// the manual per-experiment tuning the paper describes.
    pub fn default_gamma0(&self) -> f64 {
        // detlint::allow(fpu-routing, reason = "gamma0 tuning estimate is reliable control-plane arithmetic")
        1.0 / self.sigma_max_sq_estimate().max(1e-12)
    }

    /// Reliable power-iteration estimate of `σ_max²` (15 iterations).
    fn sigma_max_sq_estimate(&self) -> f64 {
        let mut fpu = ReliableFpu::new();
        let n = self.dim();
        // detlint::allow(fpu-routing, reason = "power-iteration seed on an explicit ReliableFpu")
        let mut v: Vec<f64> = (0..n).map(|i| 1.0 + 0.01 * i as f64).collect();
        let mut lambda = 0.0;
        for _ in 0..15 {
            let av = self.a.matvec(&mut fpu, &v).expect("v has dim() entries");
            let atav = self
                .a
                .matvec_t(&mut fpu, &av)
                .expect("Av has rows() entries");
            lambda = robustify_linalg::norm2(&mut fpu, &atav);
            if lambda == 0.0 {
                return 0.0;
            }
            v = atav.iter().map(|&x| x / lambda).collect();
        }
        lambda
    }

    /// The exact solution computed offline with a reliable QR solve — the
    /// paper's "exact value computed offline with an SVD-based baseline".
    pub fn ideal(&self) -> Vec<f64> {
        lstsq_qr(&mut ReliableFpu::new(), &self.a, &self.b)
            .expect("experiment problems are full rank")
    }

    /// The paper's quality metric: relative difference between the ideal
    /// output and the actual output, `‖x − x*‖ / ‖x*‖` (native arithmetic;
    /// non-finite candidates yield `∞`).
    pub fn relative_error(&self, x: &[f64]) -> f64 {
        if x.iter().any(|v| !v.is_finite()) {
            return f64::INFINITY;
        }
        let ideal = self.ideal();
        let num: f64 = x
            .iter()
            .zip(&ideal)
            .map(|(a, b)| (a - b) * (a - b))
            // detlint::allow(float-reassociation, reason = "relative-error metric is reliable verification arithmetic")
            .sum::<f64>()
            // detlint::allow(fpu-routing, reason = "relative-error metric is reliable verification arithmetic")
            .sqrt();
        // detlint::allow(float-reassociation, reason = "relative-error metric is reliable verification arithmetic")
        // detlint::allow(fpu-routing, reason = "relative-error metric is reliable verification arithmetic")
        let den: f64 = ideal.iter().map(|v| v * v).sum::<f64>().sqrt();
        num / den.max(1e-300)
    }

    /// The paper's Figure 6.2 y-axis as literally defined there — "the
    /// relative difference between the ideal output and actual output
    /// (‖Ax − b‖²)": the relative excess of the candidate's residual norm
    /// over the ideal residual norm, `(‖Ax − b‖ − ‖Ax* − b‖) / ‖Ax* − b‖`
    /// (native measurement; non-finite candidates yield `∞`).
    pub fn residual_relative_error(&self, x: &[f64]) -> f64 {
        let r = self.residual_norm(x);
        if !r.is_finite() {
            return f64::INFINITY;
        }
        let ideal = self.residual_norm(&self.ideal());
        (r - ideal).abs() / ideal.max(1e-300)
    }

    /// The residual norm `‖Ax − b‖` measured reliably (native measurement).
    pub fn residual_norm(&self, x: &[f64]) -> f64 {
        if x.iter().any(|v| !v.is_finite()) {
            return f64::INFINITY;
        }
        let mut fpu = ReliableFpu::new();
        let ax = self.a.matvec(&mut fpu, x).expect("x has dim() entries");
        let r: Vec<f64> = self.b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
        robustify_linalg::norm2(&mut fpu, &r)
    }
}

impl RobustProblem for LeastSquares {
    type Solution = Vec<f64>;
    type Cost = QuadraticResidualCost;

    fn name(&self) -> &'static str {
        "least_squares"
    }

    fn cost(&self) -> Self::Cost {
        LeastSquares::cost(self)
    }

    fn decode(&self, _cost: &Self::Cost, x: &[f64]) -> Vec<f64> {
        x.to_vec()
    }

    /// The metric is the paper's residual relative error; as in Figure 6.2,
    /// a trial only *fails* outright when it breaks down (non-finite
    /// output).
    fn verify(&self, solution: &Vec<f64>) -> Verdict {
        let metric = self.residual_relative_error(solution);
        Verdict {
            success: metric.is_finite(),
            metric,
        }
    }

    /// Baseline variants: `svd` (default), `qr`, `cholesky`.
    fn baseline<F: Fpu>(&self, spec: &SolverSpec, fpu: &mut F) -> Option<Vec<f64>> {
        match spec.variant.as_deref() {
            None | Some("svd") => lstsq_svd(fpu, &self.a, &self.b).ok(),
            Some("qr") => lstsq_qr(fpu, &self.a, &self.b).ok(),
            Some("cholesky") => lstsq_cholesky(fpu, &self.a, &self.b).ok(),
            Some(_) => None,
        }
    }

    /// Adds [`SolveMethod::Cg`] (restarted conjugate gradient, §3.3) on top
    /// of the default SGD/baseline paths.
    fn solve<F: Fpu>(
        &self,
        spec: &SolverSpec,
        fpu: &mut F,
    ) -> Result<RobustOutcome<Vec<f64>>, CoreError> {
        match spec.method {
            SolveMethod::Cg => {
                let report = run_cgls(spec, &self.a, &self.b, fpu);
                Ok(RobustOutcome {
                    solution: Some(report.x.clone()),
                    report: Some(report),
                })
            }
            _ => robustify_core::default_solve(self, spec, fpu),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use robustify_core::StepSchedule;
    use robustify_linalg::condition_number;
    use stochastic_fpu::{BitFaultModel, FaultRate, NoisyFpu};

    fn paper_problem() -> LeastSquares {
        // The paper's Figure 6.2 scale: A is 100 x 10.
        let mut rng = StdRng::seed_from_u64(1);
        LeastSquares::random(&mut rng, 100, 10)
    }

    /// The Figure 6.2 configuration: 1000 iterations of `1/t` SGD.
    fn figure_sgd(p: &LeastSquares) -> SolverSpec {
        SolverSpec::sgd(
            1000,
            StepSchedule::Linear {
                gamma0: p.default_gamma0(),
            },
        )
    }

    /// Solves `p` with `spec`, panicking on a breakdown.
    fn solved<F: Fpu>(p: &LeastSquares, spec: &SolverSpec, fpu: &mut F) -> Vec<f64> {
        p.solve(spec, fpu)
            .expect("supported method")
            .solution
            .expect("no breakdown")
    }

    #[test]
    fn all_solvers_agree_on_reliable_fpu() {
        let p = paper_problem();
        let mut fpu = ReliableFpu::new();
        let ideal = p.ideal();
        for variant in ["svd", "qr", "cholesky"] {
            let x = solved(&p, &SolverSpec::baseline_variant(variant), &mut fpu);
            for (a, b) in x.iter().zip(&ideal) {
                assert!((a - b).abs() < 1e-8, "{variant}");
            }
        }
        let cg = solved(&p, &SolverSpec::cg(10), &mut fpu);
        // Restarted CG does not terminate exactly in n steps, but gets close.
        assert!(
            p.relative_error(&cg) < 1e-4,
            "cg error {}",
            p.relative_error(&cg)
        );
    }

    #[test]
    fn sgd_reaches_modest_accuracy_reliably() {
        let p = paper_problem();
        let x = solved(&p, &figure_sgd(&p), &mut ReliableFpu::new());
        assert!(
            p.relative_error(&x) < 1e-2,
            "relative error {}",
            p.relative_error(&x)
        );
    }

    #[test]
    fn sgd_beats_svd_baseline_under_faults() {
        // The headline claim of Figure 6.2: at a moderate fault rate the SVD
        // baseline is disastrously unstable while SGD degrades gracefully.
        let p = paper_problem();
        let mut sgd_total = 0.0;
        let mut svd_total = 0.0;
        let runs = 5;
        for seed in 0..runs {
            let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.02), BitFaultModel::emulated(), seed);
            let x = solved(&p, &figure_sgd(&p), &mut fpu);
            sgd_total += p.relative_error(&x).min(1e3);
            let mut fpu = NoisyFpu::new(
                FaultRate::per_flop(0.02),
                BitFaultModel::emulated(),
                100 + seed,
            );
            let svd = p
                .solve(&SolverSpec::baseline(), &mut fpu)
                .expect("svd is supported");
            let err = match svd.solution {
                Some(x) => p.relative_error(&x).min(1e3),
                None => 1e3,
            };
            svd_total += err;
        }
        assert!(
            sgd_total < svd_total,
            "sgd mean {} not better than svd mean {}",
            sgd_total / runs as f64,
            svd_total / runs as f64
        );
    }

    #[test]
    fn random_with_condition_hits_target() {
        let mut rng = StdRng::seed_from_u64(3);
        for &target in &[10.0, 1e3] {
            let p = LeastSquares::random_with_condition(&mut rng, 20, 5, target);
            let cond = condition_number(p.a()).expect("full rank");
            assert!(
                (cond / target - 1.0).abs() < 0.05,
                "target {target}, got {cond}"
            );
        }
    }

    #[test]
    fn relative_error_handles_non_finite() {
        let p = paper_problem();
        assert_eq!(p.relative_error(&[f64::NAN; 10]), f64::INFINITY);
        assert_eq!(p.residual_norm(&[f64::INFINITY; 10]), f64::INFINITY);
        assert!(p.relative_error(&p.ideal()) < 1e-12);
    }

    #[test]
    fn constructors_validate() {
        assert!(LeastSquares::new(Matrix::zeros(2, 3), vec![0.0; 2]).is_err());
        assert!(LeastSquares::new(Matrix::zeros(3, 2), vec![0.0; 2]).is_err());
        assert!(LeastSquares::from_rows(&[&[1.0], &[1.0, 2.0]], vec![0.0; 2]).is_err());
    }

    #[test]
    fn cg_converges_faster_than_sgd_in_flops() {
        let p = paper_problem();
        let mut fpu_cg = ReliableFpu::new();
        let cg = solved(&p, &SolverSpec::cg(10), &mut fpu_cg);
        let mut fpu_sgd = ReliableFpu::new();
        let sgd = solved(&p, &figure_sgd(&p), &mut fpu_sgd);
        assert!(p.relative_error(&cg) <= p.relative_error(&sgd) + 1e-9);
        assert!(
            fpu_cg.flops() < fpu_sgd.flops() / 10,
            "cg {} vs sgd {}",
            fpu_cg.flops(),
            fpu_sgd.flops()
        );
    }
}
