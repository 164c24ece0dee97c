//! Householder QR factorization and QR-based least squares.
//!
//! This is one of the three deterministic least-squares baselines of the
//! paper's evaluation ("least squares was implemented using SVD, QR, or
//! Cholesky decompositions"). The factorization is straight-line code, so it
//! always terminates even when FPU faults corrupt intermediate values — the
//! result is then simply wrong, which is exactly the behaviour the paper's
//! Figure 6.2/6.6 baselines exhibit.

use crate::error::LinalgError;
use crate::kernels;
use crate::matrix::Matrix;
use crate::triangular::solve_upper;
use stochastic_fpu::Fpu;

/// A thin Householder QR factorization `A = Q R` of an `m × n` matrix with
/// `m ≥ n`.
///
/// `Q` is `m × n` with orthonormal columns, `R` is `n × n` upper triangular.
///
/// # Examples
///
/// ```
/// use robustify_linalg::{Matrix, QrFactorization};
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]])?;
/// let mut fpu = ReliableFpu::new();
/// let qr = QrFactorization::compute(&mut fpu, &a)?;
/// let recon = qr.q().matmul(&mut fpu, qr.r())?;
/// assert!(recon.max_abs_diff(&a) < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QrFactorization {
    q: Matrix,
    r: Matrix,
}

impl QrFactorization {
    /// Computes the thin QR factorization of `a` through the FPU.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `a` has fewer rows than
    /// columns.
    pub fn compute<F: Fpu>(fpu: &mut F, a: &Matrix) -> Result<Self, LinalgError> {
        let (m, n) = (a.rows(), a.cols());
        if m < n {
            return Err(LinalgError::shape(
                "at least as many rows as columns",
                format!("{m}x{n}"),
            ));
        }
        // Work on a copy of A; accumulate the Householder reflectors and
        // apply them to the identity afterwards to form the thin Q.
        let mut work = a.clone();
        let mut reflectors: Vec<Vec<f64>> = Vec::with_capacity(n);
        for k in 0..n {
            let v = householder_reflector(fpu, &work, k);
            apply_reflector_to_matrix(fpu, &mut work, &v, k, k);
            reflectors.push(v);
        }
        // R is the top n x n triangle of the transformed A.
        let mut r = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                r[(i, j)] = work[(i, j)];
            }
        }
        // Q = H_0 H_1 … H_{n-1} applied to the first n columns of I_m.
        let mut q = Matrix::zeros(m, n);
        for j in 0..n {
            q[(j, j)] = 1.0;
        }
        for k in (0..n).rev() {
            apply_reflector_to_matrix(fpu, &mut q, &reflectors[k], k, 0);
        }
        Ok(QrFactorization { q, r })
    }

    /// The orthonormal factor `Q` (`m × n`).
    pub fn q(&self) -> &Matrix {
        &self.q
    }

    /// The upper-triangular factor `R` (`n × n`).
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// Consumes the factorization, returning `(Q, R)`.
    pub fn into_parts(self) -> (Matrix, Matrix) {
        (self.q, self.r)
    }

    /// Solves `min ‖A x − b‖` using this factorization: `R x = Qᵀ b`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `b.len() != m`.
    /// * [`LinalgError::Singular`] if `R` has a zero pivot (rank-deficient
    ///   `A`, or fault-corrupted factors).
    pub fn solve<F: Fpu>(&self, fpu: &mut F, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        // A rank-deficient A leaves a pivot that is tiny rather than exactly
        // zero after the reflections; reject it relative to the largest.
        let n = self.r.rows();
        let max_pivot = (0..n).map(|i| self.r[(i, i)].abs()).fold(0.0, f64::max);
        // detlint::allow(fpu-routing, reason = "rank-deficiency guard is reliable control-plane arithmetic")
        if (0..n).any(|i| self.r[(i, i)].abs() <= 1e-12 * max_pivot) {
            return Err(LinalgError::Singular);
        }
        let qtb = self.q.matvec_t(fpu, b)?;
        solve_upper(fpu, &self.r, &qtb)
    }
}

/// Builds the Householder vector that zeroes column `k` below the diagonal.
/// Returns the (full-length, zero-padded) reflector `v`; the convention is
/// `H = I − 2 v vᵀ / (vᵀ v)`, with `v = 0` meaning "no reflection".
fn householder_reflector<F: Fpu>(fpu: &mut F, a: &Matrix, k: usize) -> Vec<f64> {
    let m = a.rows();
    let mut v = vec![0.0; m];
    for i in k..m {
        v[i] = a[(i, k)];
    }
    let norm = kernels::norm2(fpu, &v[k..]);
    if norm == 0.0 {
        return vec![0.0; m];
    }
    // alpha = -sign(a_kk) * norm avoids cancellation.
    let alpha = if v[k] >= 0.0 { -norm } else { norm };
    v[k] = fpu.sub(v[k], alpha);
    v
}

/// Applies `H = I − 2 v vᵀ / (vᵀ v)` to columns `col_start..` of `a`.
/// `k` is the pivot row of the reflector (entries of `v` below `k` are the
/// active part).
///
/// Organized as three row-contiguous passes instead of a strided per-column
/// walk: `w = (vᵀ A)ᵀ` accumulated one matrix row at a time with
/// [`Fpu::axpy_batch`], a per-op coefficient pass `coef_j = 2 (w_j /
/// vᵀv)`, and the per-op rank-1 update `a_row ← a_row − v_r · coef` swept
/// row by row. The per-entry expansions (`p = mul(v[r], a_rj); w_j =
/// add(w_j, p)`; `ratio = div(w_j, vtv); coef_j = mul(2, ratio)`;
/// `p = mul(coef_j, v[r]); a_rj = sub(a_rj, p)`) and each entry's
/// accumulation order match the historical column walk, so fault-rate-0
/// results are bit-identical to it while every inner loop runs over
/// contiguous cache lines.
fn apply_reflector_to_matrix<F: Fpu>(
    fpu: &mut F,
    a: &mut Matrix,
    v: &[f64],
    k: usize,
    col_start: usize,
) {
    let vtv = kernels::norm2_sq(fpu, &v[k..]);
    if vtv == 0.0 {
        return;
    }
    let m = a.rows();
    let width = a.cols() - col_start;
    // Pass 1: w = (vᵀ A)ᵀ, row by row (reflector element first — the
    // operand order the strided walk used).
    let mut w = vec![0.0; width];
    for (r, &vr) in v.iter().enumerate().take(m).skip(k) {
        fpu.axpy_batch(vr, &a.row(r)[col_start..], &mut w);
    }
    // Pass 2: coef_j = 2 (w_j / vᵀv), in place.
    let mut coef = w;
    for c in &mut coef {
        let ratio = fpu.div(*c, vtv);
        *c = fpu.mul(2.0, ratio);
    }
    // Pass 3: A ← A − v coefᵀ, row by row.
    for (r, &vr) in v.iter().enumerate().take(m).skip(k) {
        for (rj, &cj) in a.row_mut(r)[col_start..].iter_mut().zip(&coef) {
            let p = fpu.mul(cj, vr);
            *rj = fpu.sub(*rj, p);
        }
    }
}

/// Solves the least squares problem `min ‖A x − b‖` by Householder QR —
/// the paper's "Base: QR" implementation.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] for incompatible shapes.
/// * [`LinalgError::Singular`] if `A` is rank deficient (or faults corrupted
///   the factorization into singularity).
///
/// # Examples
///
/// ```
/// use robustify_linalg::{lstsq_qr, Matrix};
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]])?;
/// let x = lstsq_qr(&mut ReliableFpu::new(), &a, &[1.0, 2.0, 3.0])?;
/// assert!((x[0] - 0.0).abs() < 1e-10 && (x[1] - 1.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn lstsq_qr<F: Fpu>(fpu: &mut F, a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    QrFactorization::compute(fpu, a)?.solve(fpu, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochastic_fpu::{BitFaultModel, FaultRate, NoisyFpu, ReliableFpu};

    fn tall_matrix() -> Matrix {
        Matrix::from_rows(&[
            &[2.0, -1.0, 0.5],
            &[1.0, 3.0, -2.0],
            &[0.0, 1.0, 1.0],
            &[4.0, 0.0, 2.0],
            &[-1.0, 2.0, 0.0],
        ])
        .expect("valid rows")
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let a = tall_matrix();
        let mut fpu = ReliableFpu::new();
        let qr = QrFactorization::compute(&mut fpu, &a).expect("full rank");
        let qtq = qr.q().gram(&mut fpu);
        assert!(qtq.max_abs_diff(&Matrix::identity(3)) < 1e-12);
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = tall_matrix();
        let qr = QrFactorization::compute(&mut ReliableFpu::new(), &a).expect("full rank");
        for i in 0..3 {
            for j in 0..i {
                assert_eq!(qr.r()[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn qr_reconstructs_a() {
        let a = tall_matrix();
        let mut fpu = ReliableFpu::new();
        let qr = QrFactorization::compute(&mut fpu, &a).expect("full rank");
        let recon = qr.q().matmul(&mut fpu, qr.r()).expect("shapes match");
        assert!(recon.max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn lstsq_exact_system() {
        // Square nonsingular system: least squares is the exact solution.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).expect("valid rows");
        let mut fpu = ReliableFpu::new();
        let x = lstsq_qr(&mut fpu, &a, &[5.0, 10.0]).expect("nonsingular");
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn lstsq_overdetermined_residual_is_orthogonal() {
        let a = tall_matrix();
        let b = [1.0, 0.0, 2.0, -1.0, 3.0];
        let mut fpu = ReliableFpu::new();
        let x = lstsq_qr(&mut fpu, &a, &b).expect("full rank");
        let ax = a.matvec(&mut fpu, &x).expect("shapes match");
        let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
        // Normal equations: Aᵀ r = 0 at the optimum.
        let atr = a.matvec_t(&mut fpu, &r).expect("shapes match");
        for v in atr {
            assert!(v.abs() < 1e-10, "Aᵀr component {v} not ~0");
        }
    }

    #[test]
    fn wide_matrix_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(QrFactorization::compute(&mut ReliableFpu::new(), &a).is_err());
    }

    #[test]
    fn rank_deficient_is_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]).expect("valid rows");
        let result = lstsq_qr(&mut ReliableFpu::new(), &a, &[1.0, 2.0, 3.0]);
        assert!(matches!(result, Err(LinalgError::Singular)));
    }

    #[test]
    fn qr_terminates_under_heavy_faults() {
        // The baseline must always terminate under faults; the answer may be
        // arbitrarily wrong but the code path is straight-line.
        let a = tall_matrix();
        let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.2), BitFaultModel::emulated(), 99);
        let _ = lstsq_qr(&mut fpu, &a, &[1.0, 0.0, 2.0, -1.0, 3.0]);
        assert!(fpu.faults() > 0);
    }

    #[test]
    fn into_parts_returns_factors() {
        let a = tall_matrix();
        let qr = QrFactorization::compute(&mut ReliableFpu::new(), &a).expect("full rank");
        let (q, r) = qr.into_parts();
        assert_eq!(q.rows(), 5);
        assert_eq!(r.rows(), 3);
    }
}
