//! QR preconditioning of linear programs (§6.2.1).
//!
//! "Preconditioning allows us to rewrite the cost function so that gradient
//! descent is solving an easier problem." Given the LP `min cᵀx s.t. Ax ≤ b`
//! with `A = QR`, substitute `y = R x`:
//!
//! ```text
//! min c_newᵀ y   s.t.   Q y ≤ b,      where Rᵀ c_new = c
//! ```
//!
//! `Q` has orthonormal columns, so the constraint geometry seen by the
//! solver is perfectly conditioned; the original solution is recovered by
//! the triangular solve `R x = y`.
//!
//! The one-time QR setup and the final recovery are control-plane
//! (reliable) operations, consistent with the paper's protected-phases
//! assumption; the per-iteration gradient work on the transformed program
//! still flows through the noisy FPU.

use crate::error::CoreError;
use crate::lp::LinearProgram;
use robustify_linalg::{solve_upper, Matrix, QrFactorization};
use stochastic_fpu::ReliableFpu;

/// A linear program rewritten in preconditioned coordinates, plus the data
/// to map solutions back.
///
/// # Examples
///
/// ```
/// use robustify_core::{precondition_lp, LinearProgram};
/// use robustify_linalg::Matrix;
///
/// # fn main() -> Result<(), robustify_core::CoreError> {
/// let lp = LinearProgram::minimize(vec![-1.0, -1.0])
///     .with_upper_bounds(
///         Matrix::from_rows(&[&[100.0, 0.0], &[0.0, 0.01], &[-1.0, 0.0], &[0.0, -1.0]])?,
///         vec![100.0, 0.01, 0.0, 0.0],
///     )?;
/// let pre = precondition_lp(&lp)?;
/// let y = vec![0.0; 2]; // solve the preconditioned LP for y, then:
/// let x = pre.recover(&y)?;
/// assert_eq!(x.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PreconditionedLp {
    lp: LinearProgram,
    r: Matrix,
}

impl PreconditionedLp {
    /// The preconditioned program over `y = R x`.
    pub fn lp(&self) -> &LinearProgram {
        &self.lp
    }

    /// The triangular change-of-variables factor `R`.
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// Maps a solution `y` of the preconditioned program back to the
    /// original variables by solving `R x = y` (control plane).
    ///
    /// # Errors
    ///
    /// * [`CoreError::DimensionMismatch`] if `y` has the wrong length.
    /// * [`CoreError::Linalg`] if `R` is singular.
    pub fn recover(&self, y: &[f64]) -> Result<Vec<f64>, CoreError> {
        if y.len() != self.r.rows() {
            return Err(CoreError::shape(
                format!("y of length {}", self.r.rows()),
                format!("length {}", y.len()),
            ));
        }
        Ok(solve_upper(&mut ReliableFpu::new(), &self.r, y)?)
    }
}

/// Preconditions `lp` by the QR factorization of its stacked constraint
/// matrix (inequality rows, then equality rows, then `−I` rows for
/// non-negativity).
///
/// The setup runs reliably (it is a one-time control-plane transformation).
///
/// # Errors
///
/// * [`CoreError::InvalidConfig`] if the program has no constraints (there
///   is nothing to precondition).
/// * [`CoreError::Linalg`] if the stacked constraint matrix is rank
///   deficient in its columns (QR breakdown).
pub fn precondition_lp(lp: &LinearProgram) -> Result<PreconditionedLp, CoreError> {
    let n = lp.dim();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut rhs: Vec<f64> = Vec::new();
    let mut eq_range = 0..0;
    if let Some((a, b)) = lp.upper_bounds() {
        for (i, &bi) in b.iter().enumerate() {
            rows.push(a.row(i).to_vec());
            rhs.push(bi);
        }
    }
    if let Some((e, d)) = lp.equalities() {
        let start = rows.len();
        for (i, &di) in d.iter().enumerate() {
            rows.push(e.row(i).to_vec());
            rhs.push(di);
        }
        eq_range = start..rows.len();
    }
    if lp.is_nonneg() {
        for j in 0..n {
            let mut row = vec![0.0; n];
            row[j] = -1.0;
            rows.push(row);
            rhs.push(0.0);
        }
    }
    if rows.is_empty() {
        return Err(CoreError::invalid_config(
            "cannot precondition a program with no constraints",
        ));
    }
    if rows.len() < n {
        return Err(CoreError::invalid_config(format!(
            "need at least {n} stacked constraint rows to precondition, have {}",
            rows.len()
        )));
    }

    let stacked = Matrix::from_fn(rows.len(), n, |i, j| rows[i][j]);
    let mut fpu = ReliableFpu::new();
    let qr = QrFactorization::compute(&mut fpu, &stacked)?;
    let (q, r) = qr.into_parts();
    // Guard against rank deficiency: tiny pivots make recovery meaningless.
    let max_pivot = (0..n).map(|i| r[(i, i)].abs()).fold(0.0, f64::max);
    // detlint::allow(fpu-routing, reason = "rank-deficiency guard is reliable control-plane arithmetic")
    if (0..n).any(|i| r[(i, i)].abs() <= 1e-12 * max_pivot) {
        return Err(CoreError::Linalg(robustify_linalg::LinalgError::Singular));
    }

    // c_new solves Rᵀ c_new = c (lower-triangular system).
    let c_new = robustify_linalg::solve_lower(&mut fpu, &r.transpose(), lp.objective())?;

    // Rebuild the program over y: objective c_new, constraints Q y ≤/= rhs.
    // Row i of Q corresponds to the original row i of the stack.
    let mut new_lp = LinearProgram::minimize(c_new);
    let ineq_rows: Vec<usize> = (0..q.rows()).filter(|i| !eq_range.contains(i)).collect();
    if !ineq_rows.is_empty() {
        let a = Matrix::from_fn(ineq_rows.len(), n, |i, j| q[(ineq_rows[i], j)]);
        let b: Vec<f64> = ineq_rows.iter().map(|&i| rhs[i]).collect();
        new_lp = new_lp.with_upper_bounds(a, b)?;
    }
    if !eq_range.is_empty() {
        let rows: Vec<usize> = eq_range.clone().collect();
        let e = Matrix::from_fn(rows.len(), n, |i, j| q[(rows[i], j)]);
        let d: Vec<f64> = rows.iter().map(|&i| rhs[i]).collect();
        new_lp = new_lp.with_equalities(e, d)?;
    }
    Ok(PreconditionedLp { lp: new_lp, r })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::penalty::PenaltyKind;
    use crate::problem::SolverSpec;
    use crate::schedule::StepSchedule;
    use crate::sgd::{run_sgd, GradientGuard};
    use stochastic_fpu::Fpu;

    /// An ill-conditioned box LP: max x0 + x1 on [0, 1] × [0, 5], with the
    /// two constraint rows scaled 100× apart.
    fn ill_conditioned_lp() -> LinearProgram {
        LinearProgram::minimize(vec![-1.0, -1.0])
            .with_upper_bounds(
                Matrix::from_rows(&[&[10.0, 0.0], &[0.0, 0.1]]).expect("valid rows"),
                vec![10.0, 0.5],
            )
            .expect("consistent")
            .with_nonneg()
    }

    #[test]
    fn preconditioned_solution_maps_back() {
        let lp = ill_conditioned_lp();
        let pre = precondition_lp(&lp).expect("constrained LP");
        // Solve the preconditioned program with plain SGD (reliable FPU).
        // The L1 penalty is exact (Theorem 2), so the minimizer sits on the
        // vertex rather than O(1/mu) outside it; the step size is large
        // because preconditioning shrinks the objective gradient by the
        // constraint scale it removed.
        let mut cost = pre
            .lp()
            .penalized(20.0, PenaltyKind::Abs)
            .expect("valid mu");
        let spec = SolverSpec::sgd(40_000, StepSchedule::Sqrt { gamma0: 0.5 })
            .with_guard(GradientGuard::Off);
        let report = run_sgd(
            &spec,
            &mut cost,
            &[0.0; 2],
            &mut stochastic_fpu::ReliableFpu::new(),
        );
        let x = pre.recover(&report.x).expect("R nonsingular");
        // True optimum of the original LP: x = (1, 5).
        assert!((x[0] - 1.0).abs() < 0.2, "x = {x:?}");
        assert!((x[1] - 5.0).abs() < 0.5, "x = {x:?}");
    }

    #[test]
    fn preconditioned_constraints_are_well_scaled() {
        let lp = ill_conditioned_lp();
        let pre = precondition_lp(&lp).expect("constrained LP");
        let (a, _) = pre.lp().upper_bounds().expect("has inequalities");
        // Columns of the stacked Q are orthonormal: every column norm is 1.
        let mut fpu = stochastic_fpu::ReliableFpu::new();
        for j in 0..a.cols() {
            let col = a.col(j);
            let n = robustify_linalg::norm2(&mut fpu, &col);
            assert!((n - 1.0).abs() < 1e-10, "column {j} norm {n}");
        }
    }

    #[test]
    fn equality_rows_are_preserved_as_equalities() {
        let lp = LinearProgram::minimize(vec![1.0, 2.0])
            .with_upper_bounds(Matrix::identity(2), vec![1.0, 1.0])
            .expect("consistent")
            .with_equalities(
                Matrix::from_rows(&[&[1.0, -1.0]]).expect("valid rows"),
                vec![0.0],
            )
            .expect("consistent");
        let pre = precondition_lp(&lp).expect("constrained LP");
        assert!(pre.lp().equalities().is_some());
        let (e, _) = pre.lp().equalities().expect("preserved");
        assert_eq!(e.rows(), 1);
        let (a, _) = pre.lp().upper_bounds().expect("preserved");
        assert_eq!(a.rows(), 2);
        assert!(!pre.lp().is_nonneg(), "nonneg was folded into rows");
    }

    #[test]
    fn recover_validates_shape() {
        let pre = precondition_lp(&ill_conditioned_lp()).expect("constrained LP");
        assert!(pre.recover(&[1.0]).is_err());
        assert!(pre.recover(&[0.5, 0.5]).is_ok());
    }

    #[test]
    fn unconstrained_program_is_rejected() {
        let lp = LinearProgram::minimize(vec![1.0]);
        assert!(matches!(
            precondition_lp(&lp),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn recover_solves_rx_equals_y() {
        let lp = ill_conditioned_lp();
        let pre = precondition_lp(&lp).expect("constrained LP");
        let x = vec![0.3, -0.7];
        let mut fpu = stochastic_fpu::ReliableFpu::new();
        let y = pre.r().matvec(&mut fpu, &x).expect("shapes match");
        let back = pre.recover(&y).expect("R nonsingular");
        for (b, xi) in back.iter().zip(&x) {
            assert!((b - xi).abs() < 1e-10);
        }
        let _ = fpu.flops();
    }
}
