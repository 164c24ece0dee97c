//! Matrix-backend abstraction for iterative solvers.
//!
//! Iterative methods (CG least squares, gradient descent on quadratic
//! costs) only ever touch their matrix through the products `A x` and
//! `Aᵀ y`. [`LinearOperator`] captures exactly that surface so the same
//! solver runs over a dense [`Matrix`](crate::Matrix) or a
//! [`CsrMatrix`](crate::CsrMatrix) without knowing which backend holds
//! the entries. Each product writes into a caller buffer, so a solver
//! can hold its vectors for a whole solve; the allocating forms wrap the
//! in-place ones.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use stochastic_fpu::Fpu;

/// A shape plus FPU-routed `A x` / `Aᵀ y` products.
///
/// Implementations must route every multiply and add through the given
/// [`Fpu`] and preserve the workspace determinism contract: for a fixed
/// operator and input, the FLOP sequence is fixed, so batched and scalar
/// dispatch produce bit-identical results and fault streams. The output
/// buffer's prior contents never reach the FPU.
pub trait LinearOperator {
    /// Number of rows.
    fn rows(&self) -> usize;

    /// Number of columns.
    fn cols(&self) -> usize;

    /// Overwrites `y` with `A x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `x.len() != self.cols()` or `y.len() != self.rows()`.
    fn matvec_into<F: Fpu>(&self, fpu: &mut F, x: &[f64], y: &mut [f64])
        -> Result<(), LinalgError>;

    /// Overwrites `out` with `Aᵀ y`, skipping rows whose coefficient
    /// `y[i]` is zero.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `y.len() != self.rows()` or `out.len() != self.cols()`.
    fn matvec_t_into<F: Fpu>(
        &self,
        fpu: &mut F,
        y: &[f64],
        out: &mut [f64],
    ) -> Result<(), LinalgError>;

    /// Computes `A x` into a new vector
    /// ([`matvec_into`](Self::matvec_into)).
    ///
    /// # Errors
    ///
    /// As [`matvec_into`](Self::matvec_into).
    fn matvec<F: Fpu>(&self, fpu: &mut F, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut y = vec![0.0; self.rows()];
        self.matvec_into(fpu, x, &mut y)?;
        Ok(y)
    }

    /// Computes `Aᵀ y` into a new vector
    /// ([`matvec_t_into`](Self::matvec_t_into)).
    ///
    /// # Errors
    ///
    /// As [`matvec_t_into`](Self::matvec_t_into).
    fn matvec_t<F: Fpu>(&self, fpu: &mut F, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut out = vec![0.0; self.cols()];
        self.matvec_t_into(fpu, y, &mut out)?;
        Ok(out)
    }
}

/// Checks one product operand's length: `vector` for an input, `output`
/// for the buffer a product overwrites.
pub(crate) fn check_len(role: &str, expected: usize, v: &[f64]) -> Result<(), LinalgError> {
    if v.len() == expected {
        return Ok(());
    }
    Err(LinalgError::shape(
        format!("{role} of length {expected}"),
        format!("length {}", v.len()),
    ))
}

impl LinearOperator for Matrix {
    fn rows(&self) -> usize {
        Matrix::rows(self)
    }

    fn cols(&self) -> usize {
        Matrix::cols(self)
    }

    fn matvec_into<F: Fpu>(
        &self,
        fpu: &mut F,
        x: &[f64],
        y: &mut [f64],
    ) -> Result<(), LinalgError> {
        Matrix::matvec_into(self, fpu, x, y)
    }

    fn matvec_t_into<F: Fpu>(
        &self,
        fpu: &mut F,
        y: &[f64],
        out: &mut [f64],
    ) -> Result<(), LinalgError> {
        Matrix::matvec_t_into(self, fpu, y, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochastic_fpu::ReliableFpu;

    #[test]
    fn dense_impl_delegates_to_inherent_methods() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[0.0, 1.0]]).expect("valid rows");
        let mut fpu = ReliableFpu::new();
        assert_eq!(LinearOperator::rows(&a), 3);
        assert_eq!(LinearOperator::cols(&a), 2);
        let via_trait = LinearOperator::matvec(&a, &mut fpu, &[1.0, -1.0]).expect("shapes match");
        let direct = a.matvec(&mut fpu, &[1.0, -1.0]).expect("shapes match");
        assert_eq!(via_trait, direct);
        let t_trait =
            LinearOperator::matvec_t(&a, &mut fpu, &[1.0, 0.0, 2.0]).expect("shapes match");
        let t_direct = a
            .matvec_t(&mut fpu, &[1.0, 0.0, 2.0])
            .expect("shapes match");
        assert_eq!(t_trait, t_direct);
    }

    #[test]
    fn in_place_products_check_both_lengths() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[0.0, 1.0]]).expect("valid rows");
        let mut fpu = ReliableFpu::new();
        let mut short = [0.0; 2];
        assert!(LinearOperator::matvec_into(&a, &mut fpu, &[1.0, 1.0], &mut short).is_err());
        assert!(LinearOperator::matvec_t_into(&a, &mut fpu, &[1.0; 3], &mut [0.0; 3]).is_err());
        assert!(LinearOperator::matvec_t_into(&a, &mut fpu, &[1.0; 2], &mut short).is_err());
        assert_eq!(fpu.flops(), 0, "a refused product runs nothing");
    }
}
