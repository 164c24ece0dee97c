//! Conjugate gradient least squares with noisy-gradient restarts (§3.3).
//!
//! For least squares the problem structure "can be exploited to construct
//! better search directions and step sizes": conjugate gradient converges in
//! at most `n` iterations on a reliable processor, and its behaviour under
//! inexact (noisy) gradients is well understood. "To reduce the effect of
//! noisy gradients, our implementation of CG resets the search direction
//! after every few iterations" — reproduced here via
//! [`SolverSpec::restart`].
//!
//! The implementation is CGLS (conjugate gradient on the normal equations,
//! applied implicitly): the matrix–vector products `A p` and `Aᵀ r` — the
//! bulk of the computation, i.e. the *gradient work* — run through the
//! caller's FPU, while the scalar recurrences (`α`, `β`) and the iterate
//! updates are control-plane, matching the paper's protection assumption.

use crate::problem::SolverSpec;
use crate::sgd::SolveReport;
use robustify_linalg::LinearOperator;
use stochastic_fpu::{Fpu, FpuExt};

/// The solve stops early once `‖Aᵀ r‖²` falls to this value: the iterate
/// then solves the normal equations to working precision.
const TOLERANCE: f64 = 1e-24;

/// Runs CGLS for `min ‖A x − b‖²` from `x = 0`, routing the
/// matrix–vector products through `fpu`.
///
/// Reads the spec's `iterations` (the budget; the paper's Figure 6.6
/// uses `N = 10`) and `restart`: every `restart` iterations the search
/// direction resets to steepest descent, the paper's mitigation for noisy
/// gradients. Generic over the matrix backend: the solver only needs the
/// [`LinearOperator`] products `A p` and `Aᵀ r`, so the same code runs
/// dense ([`Matrix`](robustify_linalg::Matrix)) or sparse
/// ([`CsrMatrix`](robustify_linalg::CsrMatrix)) without change.
///
/// The solve allocates five vectors up front and no other `n`- or
/// `m`-sized buffer: the iterate `x`, the residual `r = b − A x`, the
/// direction `p`, and the product buffers `q = A p` and `s = Aᵀ r`,
/// which every product overwrites in place.
///
/// # Panics
///
/// Panics with [`SolverSpec::validate`]'s message if the spec is invalid,
/// and if `b.len() != A.rows()`.
///
/// # Examples
///
/// ```
/// use robustify_core::{run_cgls, SolverSpec};
/// use robustify_linalg::Matrix;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_core::CoreError> {
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]])?;
/// let b = [2.0, 2.0, 3.0];
/// let report = run_cgls(&SolverSpec::cg(2), &a, &b, &mut ReliableFpu::new());
/// // The system is consistent: x = (1, 2) solves it exactly.
/// assert!((report.x[0] - 1.0).abs() < 1e-9 && (report.x[1] - 2.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn run_cgls<M: LinearOperator, F: Fpu>(
    spec: &SolverSpec,
    a: &M,
    b: &[f64],
    fpu: &mut F,
) -> SolveReport {
    if let Err(message) = spec.validate() {
        panic!("{message}");
    }
    assert_eq!(b.len(), a.rows(), "right-hand side has the wrong length");
    let snapshot = fpu.snapshot();

    let mut x = vec![0.0; a.cols()];
    let (mut r, mut q) = (vec![0.0; a.rows()], vec![0.0; a.rows()]);
    let (mut p, mut s) = (vec![0.0; a.cols()], vec![0.0; a.cols()]);
    let mut gamma = restart(a, b, &x, &mut r, &mut p, &mut q, fpu);

    let mut iterations = 0;
    let mut restarts = 0;
    for t in 1..=spec.iterations {
        if gamma <= TOLERANCE {
            break;
        }
        // q = A p (data plane).
        a.matvec_into(fpu, &p, &mut q).expect("p has n entries");
        let qtq = squared_norm(&q);
        if !qtq.is_finite() || qtq <= 0.0 {
            // Degenerate or corrupted direction: restart from steepest
            // descent (control-plane decision).
            gamma = restart(a, b, &x, &mut r, &mut p, &mut q, fpu);
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
            gamma = restart(a, b, &x, &mut r, &mut p, &mut q, fpu);
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
        a.matvec_t_into(fpu, &r, &mut s)
            .expect("r has rows() entries");
        sanitize(&mut s);
        let gamma_new = squared_norm(&s);
        if t % spec.restart == 0 {
            // Steepest-descent reset: p = s (`s` is overwritten before
            // its next read).
            std::mem::swap(&mut p, &mut s);
            restarts += 1;
        } else {
            let beta = if gamma > 0.0 { gamma_new / gamma } else { 0.0 };
            for (pi, &si) in p.iter_mut().zip(&s) {
                *pi = si + beta * *pi;
            }
        }
        gamma = gamma_new;
        iterations = t;
    }

    SolveReport {
        x,
        iterations,
        restarts,
        flops: snapshot.flops_since(fpu),
        faults: snapshot.faults_since(fpu),
    }
}

/// Puts the steepest-descent restart state at `x` in place: `r = b − A x`
/// (with `A x` computed into the scratch buffer `q`), `p = Aᵀ r`, and
/// returns `γ = ‖p‖²`.
fn restart<M: LinearOperator, F: Fpu>(
    a: &M,
    b: &[f64],
    x: &[f64],
    r: &mut [f64],
    p: &mut [f64],
    q: &mut [f64],
    fpu: &mut F,
) -> f64 {
    a.matvec_into(fpu, x, q).expect("x has n entries");
    for ((ri, &bi), &axi) in r.iter_mut().zip(b).zip(q.iter()) {
        *ri = bi - axi;
    }
    sanitize(r);
    a.matvec_t_into(fpu, r, p).expect("r has rows() entries");
    sanitize(p);
    squared_norm(p)
}

/// `‖v‖²`, summed in order on the control plane.
fn squared_norm(v: &[f64]) -> f64 {
    // detlint::allow(float-reassociation, reason = "reliable scalar control plane of robust CGLS (see ARCHITECTURE.md)")
    v.iter().map(|vi| vi * vi).sum()
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
    use robustify_linalg::{lstsq_qr, Matrix};
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

    /// Unrestarted CG with a budget of `k` iterations (`k ≤ 3`): the
    /// restart interval lies past the tall system's exact-arithmetic
    /// bound of 3 iterations.
    fn unrestarted(k: usize) -> SolverSpec {
        SolverSpec::cg(k).with_restart(4)
    }

    #[test]
    fn converges_in_n_iterations_reliable() {
        let (a, b) = tall_system();
        let report = run_cgls(&unrestarted(3), &a, &b, &mut ReliableFpu::new());
        let mut fpu = ReliableFpu::new();
        let x_qr = lstsq_qr(&mut fpu, &a, &b).expect("full rank");
        for (c, q) in report.x.iter().zip(&x_qr) {
            assert!((c - q).abs() < 1e-8, "cg {c} vs qr {q}");
        }
        assert!(report.iterations <= 3);
        assert_eq!(report.restarts, 0);
    }

    #[test]
    fn residual_is_monotone_decreasing_reliable() {
        // A reliable solve with budget k stops at iterate k, so rerunning
        // every prefix budget walks the iterates of the full solve.
        let (a, b) = tall_system();
        let prefix = |k: usize| run_cgls(&unrestarted(k), &a, &b, &mut ReliableFpu::new());
        let full = prefix(3);
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
        let mut fpu = NoisyFpu::new(
            FaultRate::per_flop(0.01),
            BitFaultModel::lsb_only(BitWidth::F64),
            5,
        );
        let spec = SolverSpec::cg(10).with_restart(3);
        let report = run_cgls(&spec, &a, &b, &mut fpu);
        let x_ref = lstsq_qr(&mut ReliableFpu::new(), &a, &b).expect("full rank");
        let (cost, ref_cost) = (residual(&a, &b, &report.x), residual(&a, &b, &x_ref));
        assert!(
            cost < ref_cost + 1e-2,
            "noisy CG cost {cost} vs reference {ref_cost}"
        );
    }

    #[test]
    fn restart_interval_forces_restarts() {
        // Low-order noise keeps ‖Aᵀr‖² above the stopping tolerance, so
        // the whole budget runs and every second iteration resets.
        let (a, b) = tall_system();
        let mut fpu = NoisyFpu::new(
            FaultRate::per_flop(0.01),
            BitFaultModel::lsb_only(BitWidth::F64),
            5,
        );
        let spec = SolverSpec::cg(9).with_restart(2);
        let report = run_cgls(&spec, &a, &b, &mut fpu);
        assert_eq!(report.iterations, 9);
        assert!(report.restarts >= 3, "restarts = {}", report.restarts);
    }

    #[test]
    fn terminates_under_heavy_faults() {
        let (a, b) = tall_system();
        let spec = SolverSpec::cg(10).with_restart(3);
        for seed in 0..10 {
            let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.3), BitFaultModel::emulated(), seed);
            let report = run_cgls(&spec, &a, &b, &mut fpu);
            assert!(report.x.iter().all(|v| v.is_finite()), "iterate corrupted");
        }
    }

    #[test]
    #[should_panic(expected = "CG restart interval must be positive")]
    fn run_cgls_refuses_a_zero_restart_interval() {
        let (a, b) = tall_system();
        let spec = SolverSpec::cg(3).with_restart(0);
        run_cgls(&spec, &a, &b, &mut ReliableFpu::new());
    }

    #[test]
    #[should_panic(expected = "right-hand side has the wrong length")]
    fn run_cgls_refuses_a_wrong_length_rhs() {
        let (a, _) = tall_system();
        run_cgls(&SolverSpec::cg(3), &a, &[1.0], &mut ReliableFpu::new());
    }

    #[test]
    fn flops_are_charged_to_caller_fpu() {
        let (a, b) = tall_system();
        let mut fpu = ReliableFpu::new();
        let report = run_cgls(&SolverSpec::cg(3), &a, &b, &mut fpu);
        assert_eq!(report.flops, fpu.flops());
        assert!(report.flops > 0);
    }
}
