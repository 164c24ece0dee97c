//! Triangular solves through an [`Fpu`].

use crate::error::LinalgError;
use crate::matrix::Matrix;
use stochastic_fpu::Fpu;

/// Solves the upper-triangular system `U x = b` by back substitution.
///
/// Only the upper triangle of `u` is read.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if `u` is not square or `b` has the
///   wrong length.
/// * [`LinalgError::Singular`] if a diagonal pivot is exactly zero.
///
/// # Examples
///
/// ```
/// use robustify_linalg::{solve_upper, Matrix};
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_linalg::LinalgError> {
/// let u = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 4.0]])?;
/// let x = solve_upper(&mut ReliableFpu::new(), &u, &[5.0, 8.0])?;
/// assert_eq!(x, vec![1.5, 2.0]);
/// # Ok(())
/// # }
/// ```
pub fn solve_upper<F: Fpu>(fpu: &mut F, u: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    check_square_system(u, b)?;
    let n = u.rows();
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        // The strictly-upper part of row i is contiguous: one batched
        // `acc = b[i] − Σ u_ij·x_j`, bit-identical to its per-op
        // expansion.
        let acc = fpu.dot_sub_batch(b[i], &u.row(i)[i + 1..], &x[i + 1..]);
        let pivot = u[(i, i)];
        if pivot == 0.0 {
            return Err(LinalgError::Singular);
        }
        x[i] = fpu.div(acc, pivot);
    }
    Ok(x)
}

/// Solves the lower-triangular system `L x = b` by forward substitution.
///
/// Only the lower triangle of `l` is read.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if `l` is not square or `b` has the
///   wrong length.
/// * [`LinalgError::Singular`] if a diagonal pivot is exactly zero.
///
/// # Examples
///
/// ```
/// use robustify_linalg::{solve_lower, Matrix};
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_linalg::LinalgError> {
/// let l = Matrix::from_rows(&[&[2.0, 0.0], &[1.0, 4.0]])?;
/// let x = solve_lower(&mut ReliableFpu::new(), &l, &[4.0, 10.0])?;
/// assert_eq!(x, vec![2.0, 2.0]);
/// # Ok(())
/// # }
/// ```
pub fn solve_lower<F: Fpu>(fpu: &mut F, l: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    check_square_system(l, b)?;
    let n = l.rows();
    let mut x = vec![0.0; n];
    for i in 0..n {
        // The strictly-lower part of row i is contiguous: one batched
        // `acc = b[i] − Σ l_ij·x_j`, bit-identical to its per-op
        // expansion.
        let acc = fpu.dot_sub_batch(b[i], &l.row(i)[..i], &x[..i]);
        let pivot = l[(i, i)];
        if pivot == 0.0 {
            return Err(LinalgError::Singular);
        }
        x[i] = fpu.div(acc, pivot);
    }
    Ok(x)
}

fn check_square_system(m: &Matrix, b: &[f64]) -> Result<(), LinalgError> {
    if !m.is_square() {
        return Err(LinalgError::shape(
            "square matrix",
            format!("{}x{}", m.rows(), m.cols()),
        ));
    }
    if b.len() != m.rows() {
        return Err(LinalgError::shape(
            format!("rhs of length {}", m.rows()),
            format!("length {}", b.len()),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochastic_fpu::ReliableFpu;

    #[test]
    fn upper_and_lower_are_consistent() {
        let u = Matrix::from_rows(&[&[3.0, -1.0, 2.0], &[0.0, 2.0, 1.0], &[0.0, 0.0, 5.0]])
            .expect("valid rows");
        let mut fpu = ReliableFpu::new();
        let x = solve_upper(&mut fpu, &u, &[7.0, 7.0, 10.0]).expect("nonsingular");
        let back = u.matvec(&mut fpu, &x).expect("shapes match");
        for (bi, exp) in back.iter().zip(&[7.0, 7.0, 10.0]) {
            assert!((bi - exp).abs() < 1e-12);
        }

        let l = u.transpose();
        let x = solve_lower(&mut fpu, &l, &[6.0, 1.0, 0.0]).expect("nonsingular");
        let back = l.matvec(&mut fpu, &x).expect("shapes match");
        for (bi, exp) in back.iter().zip(&[6.0, 1.0, 0.0]) {
            assert!((bi - exp).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_pivot_is_singular() {
        let u = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 1.0]]).expect("valid rows");
        assert_eq!(
            solve_upper(&mut ReliableFpu::new(), &u, &[1.0, 1.0]),
            Err(LinalgError::Singular)
        );
        assert_eq!(
            solve_lower(&mut ReliableFpu::new(), &u, &[1.0, 1.0]),
            Err(LinalgError::Singular)
        );
    }

    #[test]
    fn shape_errors() {
        let m = Matrix::zeros(2, 3);
        assert!(solve_upper(&mut ReliableFpu::new(), &m, &[1.0, 1.0]).is_err());
        let sq = Matrix::identity(2);
        assert!(solve_upper(&mut ReliableFpu::new(), &sq, &[1.0]).is_err());
        assert!(solve_lower(&mut ReliableFpu::new(), &sq, &[1.0, 1.0, 1.0]).is_err());
    }

    #[test]
    fn identity_solve_is_identity() {
        let i3 = Matrix::identity(3);
        let b = [1.0, -2.0, 3.0];
        let mut fpu = ReliableFpu::new();
        assert_eq!(
            solve_upper(&mut fpu, &i3, &b).expect("nonsingular"),
            b.to_vec()
        );
        assert_eq!(
            solve_lower(&mut fpu, &i3, &b).expect("nonsingular"),
            b.to_vec()
        );
    }
}
