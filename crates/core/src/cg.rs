//! Conjugate gradient least squares with noisy-gradient restarts (§3.3).
//!
//! For least squares the problem structure "can be exploited to construct
//! better search directions and step sizes": conjugate gradient converges in
//! at most `n` iterations on a reliable processor, and its behaviour under
//! inexact (noisy) gradients is well understood. "To reduce the effect of
//! noisy gradients, our implementation of CG resets the search direction
//! after every few iterations" — reproduced here via
//! [`CgLeastSquares::with_restart_interval`].
//!
//! The implementation is CGLS (conjugate gradient on the normal equations,
//! applied implicitly): the matrix–vector products `A p` and `Aᵀ r` — the
//! bulk of the computation, i.e. the *gradient work* — run through the
//! caller's FPU, while the scalar recurrences (`α`, `β`) and the iterate
//! updates are control-plane, matching the paper's protection assumption.

use crate::error::CoreError;
use robustify_linalg::{LinearOperator, Matrix};
use stochastic_fpu::{Fpu, FpuExt};

/// The outcome of a conjugate gradient solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CgReport {
    /// The final iterate.
    pub x: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Times the search direction was reset (beyond the initial one).
    pub restarts: usize,
    /// Data-plane FLOPs charged to the provided FPU.
    pub flops: u64,
    /// Faults injected during the solve.
    pub faults: u64,
}

/// Conjugate gradient for `min ‖A x − b‖²` on a stochastic processor.
///
/// Generic over the matrix backend: the solver only needs the
/// [`LinearOperator`] products `A p` and `Aᵀ r`, so the same code runs
/// dense ([`Matrix`], the default) or sparse
/// ([`CsrMatrix`](robustify_linalg::CsrMatrix)) without change.
///
/// # Examples
///
/// ```
/// use robustify_core::CgLeastSquares;
/// use robustify_linalg::Matrix;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_core::CoreError> {
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]])?;
/// let solver = CgLeastSquares::new(&a, &[2.0, 2.0, 3.0])?;
/// let report = solver.solve(&[0.0, 0.0], &mut ReliableFpu::new());
/// // The system is consistent: x = (1, 2) solves it exactly.
/// assert!((report.x[0] - 1.0).abs() < 1e-9 && (report.x[1] - 2.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CgLeastSquares<'a, M: LinearOperator = Matrix> {
    a: &'a M,
    b: &'a [f64],
    max_iterations: usize,
    restart_interval: Option<usize>,
    tolerance: f64,
    /// Inverse Jacobi preconditioner `M⁻¹ = diag(AᵀA)⁻¹`, applied on the
    /// control plane. `None` leaves the recurrence untouched bit-for-bit.
    inv_precond: Option<Vec<f64>>,
}

impl<'a, M: LinearOperator> CgLeastSquares<'a, M> {
    /// Creates a solver for the system `(A, b)` with the default budget of
    /// `A.cols()` iterations (the exact-arithmetic convergence bound), no
    /// restarts, and tolerance `1e-24` on `‖Aᵀr‖²`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if `b.len() != a.rows()`.
    pub fn new(a: &'a M, b: &'a [f64]) -> Result<Self, CoreError> {
        if b.len() != a.rows() {
            return Err(CoreError::shape(
                format!("rhs of length {}", a.rows()),
                format!("length {}", b.len()),
            ));
        }
        Ok(CgLeastSquares {
            a,
            b,
            max_iterations: a.cols(),
            restart_interval: None,
            tolerance: 1e-24,
            inv_precond: None,
        })
    }

    /// Enables the Jacobi (diagonal) preconditioner from the diagonal of
    /// the normal matrix, `normal_diagonal[j] = (AᵀA)ⱼⱼ = Σᵢ aᵢⱼ²` —
    /// [`CsrMatrix::normal_diagonal`](robustify_linalg::CsrMatrix::normal_diagonal)
    /// computes it for sparse systems.
    ///
    /// Each restart and update then preconditions the gradient,
    /// `z = M⁻¹ s`, searches along `z`, and measures progress by
    /// `γ = sᵀ z` instead of `‖s‖²` — on badly column-scaled systems this
    /// undoes the scaling and recovers the well-conditioned iteration
    /// count. The division happens once here; per-iteration application
    /// is `n` control-plane multiplies, consistent with the scalar
    /// recurrences (the data-plane FLOP stream of `A p` / `Aᵀ r` is
    /// unchanged). Non-positive or non-finite diagonal entries (empty
    /// columns) fall back to `1.0`, i.e. unpreconditioned on that
    /// coordinate. The [`with_tolerance`](Self::with_tolerance) threshold
    /// then applies to `sᵀ M⁻¹ s`, which matches `‖Aᵀ r‖²` only up to the
    /// diagonal scale.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if
    /// `normal_diagonal.len() != A.cols()`.
    pub fn with_jacobi_preconditioner(
        mut self,
        normal_diagonal: &[f64],
    ) -> Result<Self, CoreError> {
        if normal_diagonal.len() != self.a.cols() {
            return Err(CoreError::shape(
                format!("normal diagonal of length {}", self.a.cols()),
                format!("length {}", normal_diagonal.len()),
            ));
        }
        self.inv_precond = Some(
            normal_diagonal
                .iter()
                .map(|&d| {
                    if d.is_finite() && d > 0.0 {
                        // detlint::allow(fpu-routing, reason = "one-time control-plane inversion of the preconditioner diagonal")
                        1.0 / d
                    } else {
                        1.0
                    }
                })
                .collect(),
        );
        Ok(self)
    }

    /// Sets the iteration budget (the paper's Figure 6.6 uses `N = 10`).
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }

    /// Resets the search direction to steepest descent every `interval`
    /// iterations, the paper's mitigation for noisy gradients.
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0`.
    pub fn with_restart_interval(mut self, interval: usize) -> Self {
        assert!(interval > 0, "restart interval must be positive");
        self.restart_interval = Some(interval);
        self
    }

    /// Sets the stopping tolerance on `‖Aᵀ r‖²`.
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Runs CGLS from `x0`, routing matrix–vector products through `fpu`.
    ///
    /// # Panics
    ///
    /// Panics if `x0.len() != A.cols()`.
    pub fn solve<F: Fpu>(&self, x0: &[f64], fpu: &mut F) -> CgReport {
        let n = self.a.cols();
        assert_eq!(x0.len(), n, "initial iterate has the wrong dimension");
        let snapshot = fpu.snapshot();

        let mut x = x0.to_vec();
        let (mut r, mut p, mut gamma) = self.restart_state(&x, fpu);

        let mut iterations = 0;
        let mut restarts = 0;
        for t in 1..=self.max_iterations {
            if gamma <= self.tolerance {
                break;
            }
            // q = A p (data plane).
            let q = self.a.matvec(fpu, &p).expect("p has n entries");
            // detlint::allow(float-reassociation, reason = "reliable scalar control plane of robust CGLS (see ARCHITECTURE.md)")
            let qtq: f64 = q.iter().map(|v| v * v).sum();
            if !qtq.is_finite() || qtq <= 0.0 {
                // Degenerate or corrupted direction: restart from steepest
                // descent (control-plane decision).
                let state = self.restart_state(&x, fpu);
                r = state.0;
                p = state.1;
                gamma = state.2;
                restarts += 1;
                iterations = t;
                continue;
            }
            let alpha = gamma / qtq;
            // Control-plane magnitude check: a corrupted product can make
            // `alpha·p` enormous while still finite, after which no later
            // step recovers. Reject any move far beyond the iterate's own
            // scale and restart from steepest descent instead.
            // detlint::allow(fpu-routing, reason = "step-rejection guard is reliable control-plane arithmetic")
            let x_scale = 1.0 + x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let step_too_large = !alpha.is_finite()
                || p.iter()
                    // detlint::allow(fpu-routing, reason = "step-rejection guard is reliable control-plane arithmetic")
                    .any(|&pi| !(alpha * pi).is_finite() || (alpha * pi).abs() > 1e6 * x_scale);
            if step_too_large {
                let state = self.restart_state(&x, fpu);
                r = state.0;
                p = state.1;
                gamma = state.2;
                restarts += 1;
                iterations = t;
                continue;
            }
            for (xi, &pi) in x.iter_mut().zip(&p) {
                *xi += alpha * pi;
            }
            for (ri, &qi) in r.iter_mut().zip(&q) {
                *ri -= alpha * qi;
            }
            // s = Aᵀ r (data plane): the gradient of ½‖Ax − b‖² up to sign.
            let mut s = self.a.matvec_t(fpu, &r).expect("r has rows() entries");
            sanitize(&mut s);
            let (z, gamma_new) = self.precondition(s);
            let forced_restart = self.restart_interval.map(|k| t % k == 0).unwrap_or(false);
            if forced_restart {
                // Steepest-descent reset: p = z.
                p.copy_from_slice(&z);
                restarts += 1;
            } else {
                let beta = if gamma > 0.0 { gamma_new / gamma } else { 0.0 };
                for (pi, &zi) in p.iter_mut().zip(&z) {
                    *pi = zi + beta * *pi;
                }
            }
            gamma = gamma_new;
            iterations = t;
        }

        CgReport {
            x,
            iterations,
            restarts,
            flops: snapshot.flops_since(fpu),
            faults: snapshot.faults_since(fpu),
        }
    }

    /// Computes the steepest-descent restart state `(r, p, γ)` at `x`,
    /// with `p = z = M⁻¹ s` and `γ = sᵀ z` when preconditioned.
    fn restart_state<F: Fpu>(&self, x: &[f64], fpu: &mut F) -> (Vec<f64>, Vec<f64>, f64) {
        let ax = self.a.matvec(fpu, x).expect("x has n entries");
        let mut r: Vec<f64> = self.b.iter().zip(&ax).map(|(&bi, &axi)| bi - axi).collect();
        sanitize(&mut r);
        let mut s = self.a.matvec_t(fpu, &r).expect("r has rows() entries");
        sanitize(&mut s);
        let (z, gamma) = self.precondition(s);
        (r, z, gamma)
    }

    /// Control-plane preconditioning `(z, γ) = (M⁻¹ s, sᵀ z)`. Without a
    /// preconditioner, `s` passes through untouched with `γ = ‖s‖²` —
    /// bit-identical to the unpreconditioned recurrence.
    fn precondition(&self, s: Vec<f64>) -> (Vec<f64>, f64) {
        match &self.inv_precond {
            None => {
                // detlint::allow(float-reassociation, reason = "reliable scalar control plane of robust CGLS (see ARCHITECTURE.md)")
                let gamma: f64 = s.iter().map(|v| v * v).sum();
                (s, gamma)
            }
            Some(inv) => {
                let z: Vec<f64> = s.iter().zip(inv).map(|(&si, &mi)| si * mi).collect();
                // detlint::allow(float-reassociation, reason = "reliable scalar control plane of robust CGLS (see ARCHITECTURE.md)")
                let gamma: f64 = s.iter().zip(&z).map(|(&si, &zi)| si * zi).sum();
                (z, gamma)
            }
        }
    }
}

/// Control-plane sanitization: zero out non-finite lanes so one corrupted
/// product cannot poison every later recurrence.
fn sanitize(v: &mut [f64]) {
    for vi in v {
        if !vi.is_finite() {
            *vi = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostFunction, QuadraticResidualCost};
    use robustify_linalg::lstsq_qr;
    use stochastic_fpu::{BitFaultModel, BitWidth, FaultRate, NoisyFpu, ReliableFpu};

    /// The residual cost `‖A x − b‖²`, measured reliably.
    fn residual(a: &Matrix, b: &[f64], x: &[f64]) -> f64 {
        QuadraticResidualCost::new(a.clone(), b.to_vec())
            .expect("consistent")
            .cost(x, &mut ReliableFpu::new())
    }

    fn tall_system() -> (Matrix, Vec<f64>) {
        let a = Matrix::from_rows(&[
            &[2.0, -1.0, 0.5],
            &[1.0, 3.0, -2.0],
            &[0.0, 1.0, 1.0],
            &[4.0, 0.0, 2.0],
            &[-1.0, 2.0, 0.0],
        ])
        .expect("valid rows");
        (a, vec![1.0, 0.0, 2.0, -1.0, 3.0])
    }

    #[test]
    fn converges_in_n_iterations_reliable() {
        let (a, b) = tall_system();
        let solver = CgLeastSquares::new(&a, &b).expect("consistent");
        let report = solver.solve(&[0.0; 3], &mut ReliableFpu::new());
        let mut fpu = ReliableFpu::new();
        let x_qr = lstsq_qr(&mut fpu, &a, &b).expect("full rank");
        for (c, q) in report.x.iter().zip(&x_qr) {
            assert!((c - q).abs() < 1e-8, "cg {c} vs qr {q}");
        }
        assert!(report.iterations <= 3);
    }

    #[test]
    fn residual_is_monotone_decreasing_reliable() {
        // A reliable solve with budget k stops at iterate k, so rerunning
        // every prefix budget walks the iterates of the full solve.
        let (a, b) = tall_system();
        let solver = CgLeastSquares::new(&a, &b).expect("consistent");
        let full = solver.solve(&[0.0; 3], &mut ReliableFpu::new());
        let prefix = |k: usize| {
            solver
                .clone()
                .with_max_iterations(k)
                .solve(&[0.0; 3], &mut ReliableFpu::new())
        };
        assert_eq!(prefix(full.iterations), full);
        let costs: Vec<f64> = (0..=full.iterations)
            .map(|k| residual(&a, &b, &prefix(k).x))
            .collect();
        for w in costs.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "cost increased: {:?}", costs);
        }
    }

    #[test]
    fn tolerates_low_order_noise() {
        let (a, b) = tall_system();
        let solver = CgLeastSquares::new(&a, &b)
            .expect("consistent")
            .with_max_iterations(10)
            .with_restart_interval(3);
        let mut fpu = NoisyFpu::new(
            FaultRate::per_flop(0.01),
            BitFaultModel::lsb_only(BitWidth::F64),
            5,
        );
        let report = solver.solve(&[0.0; 3], &mut fpu);
        let x_ref = lstsq_qr(&mut ReliableFpu::new(), &a, &b).expect("full rank");
        let (cost, ref_cost) = (residual(&a, &b, &report.x), residual(&a, &b, &x_ref));
        assert!(
            cost < ref_cost + 1e-2,
            "noisy CG cost {cost} vs reference {ref_cost}"
        );
    }

    #[test]
    fn restart_interval_forces_restarts() {
        let (a, b) = tall_system();
        let solver = CgLeastSquares::new(&a, &b)
            .expect("consistent")
            .with_max_iterations(9)
            .with_tolerance(0.0)
            .with_restart_interval(2);
        let report = solver.solve(&[0.0; 3], &mut ReliableFpu::new());
        assert!(report.restarts >= 3, "restarts = {}", report.restarts);
    }

    #[test]
    fn terminates_under_heavy_faults() {
        let (a, b) = tall_system();
        for seed in 0..10 {
            let solver = CgLeastSquares::new(&a, &b)
                .expect("consistent")
                .with_max_iterations(10)
                .with_restart_interval(3);
            let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.3), BitFaultModel::emulated(), seed);
            let report = solver.solve(&[0.0; 3], &mut fpu);
            assert!(report.x.iter().all(|v| v.is_finite()), "iterate corrupted");
        }
    }

    #[test]
    fn shape_validation() {
        let (a, _) = tall_system();
        assert!(CgLeastSquares::new(&a, &[1.0]).is_err());
    }

    #[test]
    fn identity_preconditioner_is_bitwise_unpreconditioned() {
        let (a, b) = tall_system();
        // diag = 1 inverts to 1, so z = s·1 reproduces s exactly; the whole
        // report (iterate, restarts, FLOP/fault counters) must be identical,
        // fault schedule included.
        for seed in [0, 5, 11] {
            let solve = |jacobi: bool| {
                let mut solver = CgLeastSquares::new(&a, &b)
                    .expect("consistent")
                    .with_max_iterations(10)
                    .with_restart_interval(3);
                if jacobi {
                    solver = solver
                        .with_jacobi_preconditioner(&[1.0; 3])
                        .expect("length matches");
                }
                let mut fpu =
                    NoisyFpu::new(FaultRate::per_flop(0.05), BitFaultModel::emulated(), seed);
                solver.solve(&[0.0; 3], &mut fpu)
            };
            assert_eq!(solve(false), solve(true), "seed {seed}");
        }
    }

    #[test]
    fn jacobi_preconditioner_requires_matching_length() {
        let (a, b) = tall_system();
        let solver = CgLeastSquares::new(&a, &b).expect("consistent");
        assert!(solver
            .clone()
            .with_jacobi_preconditioner(&[1.0; 2])
            .is_err());
        assert!(solver.with_jacobi_preconditioner(&[1.0; 3]).is_ok());
    }

    #[test]
    fn jacobi_preconditioner_handles_degenerate_diagonal() {
        let (a, b) = tall_system();
        // Zero / non-finite entries fall back to identity on that
        // coordinate instead of poisoning the search direction.
        let solver = CgLeastSquares::new(&a, &b)
            .expect("consistent")
            .with_jacobi_preconditioner(&[0.0, f64::NAN, 4.0])
            .expect("length matches");
        let report = solver.solve(&[0.0; 3], &mut ReliableFpu::new());
        assert!(report.x.iter().all(|v| v.is_finite()));
        assert!(residual(&a, &b, &report.x).is_finite());
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn solve_rejects_bad_x0() {
        let (a, b) = tall_system();
        let solver = CgLeastSquares::new(&a, &b).expect("consistent");
        solver.solve(&[0.0; 2], &mut ReliableFpu::new());
    }

    #[test]
    fn flops_are_charged_to_caller_fpu() {
        let (a, b) = tall_system();
        let solver = CgLeastSquares::new(&a, &b).expect("consistent");
        let mut fpu = ReliableFpu::new();
        let report = solver.solve(&[0.0; 3], &mut fpu);
        assert_eq!(report.flops, fpu.flops());
        assert!(report.flops > 0);
    }
}
