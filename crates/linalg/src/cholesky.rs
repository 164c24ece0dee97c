//! Cholesky factorization and normal-equations least squares.
//!
//! The paper's fastest least-squares baseline: form the normal equations
//! `AᵀA x = Aᵀb` and factor `AᵀA = L Lᵀ`. As the paper notes, the
//! Cholesky-based solver "is the fastest baseline implementation but can
//! only be used for a subset of problems" — it squares the condition number
//! and requires positive definiteness.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::triangular::{solve_lower, solve_upper};
use stochastic_fpu::Fpu;

/// A Cholesky factorization `A = L Lᵀ` of a symmetric positive definite
/// matrix.
///
/// # Examples
///
/// ```
/// use robustify_linalg::{CholeskyFactorization, Matrix};
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let mut fpu = ReliableFpu::new();
/// let chol = CholeskyFactorization::compute(&mut fpu, &a)?;
/// let x = chol.solve(&mut fpu, &[8.0, 7.0])?;
/// assert!((x[0] - 1.25).abs() < 1e-12 && (x[1] - 1.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CholeskyFactorization {
    l: Matrix,
}

impl CholeskyFactorization {
    /// Computes the Cholesky factor of a symmetric positive definite matrix
    /// through the FPU. Only the lower triangle of `a` is read.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is non-positive or
    ///   non-finite (possibly because FPU faults corrupted it).
    pub fn compute<F: Fpu>(fpu: &mut F, a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::shape(
                "square matrix",
                format!("{}x{}", a.rows(), a.cols()),
            ));
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                // acc = a_ij − Σ_{k<j} l_ik l_jk: the already-computed
                // prefixes of rows i and j are contiguous, so the update
                // is one batched subtractive dot (bit-identical to its
                // per-op expansion).
                let acc = fpu.dot_sub_batch(a[(i, j)], &l.row(i)[..j], &l.row(j)[..j]);
                if i == j {
                    if !acc.is_finite() || acc <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite);
                    }
                    l[(i, j)] = fpu.sqrt(acc);
                } else {
                    l[(i, j)] = fpu.div(acc, l[(j, j)]);
                }
            }
        }
        Ok(CholeskyFactorization { l })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` via `L y = b`, `Lᵀ x = y`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `b` has the wrong length.
    /// * [`LinalgError::Singular`] if a triangular pivot is zero.
    pub fn solve<F: Fpu>(&self, fpu: &mut F, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let y = solve_lower(fpu, &self.l, b)?;
        solve_upper(fpu, &self.l.transpose(), &y)
    }
}

/// Solves `min ‖A x − b‖` via the normal equations and Cholesky — the
/// paper's "Base: Cholesky" implementation.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] for incompatible shapes.
/// * [`LinalgError::NotPositiveDefinite`] if `AᵀA` is not positive definite
///   (rank-deficient `A` or fault corruption).
///
/// # Examples
///
/// ```
/// use robustify_linalg::{lstsq_cholesky, Matrix};
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]])?;
/// let x = lstsq_cholesky(&mut ReliableFpu::new(), &a, &[1.0, 2.0, 3.0])?;
/// assert!((x[1] - 1.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn lstsq_cholesky<F: Fpu>(fpu: &mut F, a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let gram = a.gram(fpu);
    let atb = a.matvec_t(fpu, b)?;
    CholeskyFactorization::compute(fpu, &gram)?.solve(fpu, &atb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochastic_fpu::{BitFaultModel, FaultRate, NoisyFpu, ReliableFpu};

    fn spd() -> Matrix {
        Matrix::from_rows(&[&[4.0, 2.0, 0.6], &[2.0, 5.0, 1.0], &[0.6, 1.0, 3.0]])
            .expect("valid rows")
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd();
        let mut fpu = ReliableFpu::new();
        let chol = CholeskyFactorization::compute(&mut fpu, &a).expect("SPD");
        let llt = chol
            .l()
            .matmul(&mut fpu, &chol.l().transpose())
            .expect("shapes match");
        assert!(llt.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn l_is_lower_triangular_with_positive_diagonal() {
        let chol = CholeskyFactorization::compute(&mut ReliableFpu::new(), &spd()).expect("SPD");
        for i in 0..3 {
            assert!(chol.l()[(i, i)] > 0.0);
            for j in i + 1..3 {
                assert_eq!(chol.l()[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn solve_matches_matvec() {
        let a = spd();
        let mut fpu = ReliableFpu::new();
        let x_true = [1.0, -2.0, 0.5];
        let b = a.matvec(&mut fpu, &x_true).expect("shapes match");
        let chol = CholeskyFactorization::compute(&mut fpu, &a).expect("SPD");
        let x = chol.solve(&mut fpu, &b).expect("nonsingular");
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).expect("valid rows");
        assert_eq!(
            CholeskyFactorization::compute(&mut ReliableFpu::new(), &a),
            Err(LinalgError::NotPositiveDefinite)
        );
    }

    #[test]
    fn non_square_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(CholeskyFactorization::compute(&mut ReliableFpu::new(), &a).is_err());
    }

    #[test]
    fn lstsq_agrees_with_qr() {
        let a = Matrix::from_rows(&[
            &[2.0, -1.0, 0.5],
            &[1.0, 3.0, -2.0],
            &[0.0, 1.0, 1.0],
            &[4.0, 0.0, 2.0],
        ])
        .expect("valid rows");
        let b = [1.0, 0.0, 2.0, -1.0];
        let mut fpu = ReliableFpu::new();
        let x_chol = lstsq_cholesky(&mut fpu, &a, &b).expect("full rank");
        let x_qr = crate::qr::lstsq_qr(&mut fpu, &a, &b).expect("full rank");
        for (c, q) in x_chol.iter().zip(&x_qr) {
            assert!((c - q).abs() < 1e-9, "cholesky {c} vs qr {q}");
        }
    }

    #[test]
    fn faults_usually_break_positive_definiteness_or_accuracy() {
        // Under a heavy exponent-bit fault load, Cholesky either errors out
        // or returns a (possibly wrong) result; it must never hang.
        let a = spd();
        for seed in 0..20 {
            let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.3), BitFaultModel::emulated(), seed);
            let _ = lstsq_cholesky(&mut fpu, &a, &[1.0, 2.0, 3.0]);
        }
    }

    #[test]
    fn nan_input_is_rejected_not_propagated() {
        let mut a = spd();
        a[(0, 0)] = f64::NAN;
        assert_eq!(
            CholeskyFactorization::compute(&mut ReliableFpu::new(), &a),
            Err(LinalgError::NotPositiveDefinite)
        );
    }
}
