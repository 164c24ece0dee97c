//! Dense row-major matrices.
//!
//! Structural operations (construction, indexing, transposition) use native
//! arithmetic: they move data without computing on it. Numerical products
//! ([`Matrix::matvec`], [`Matrix::matmul`], …) go through an
//! [`Fpu`](stochastic_fpu::Fpu) so faults reach them.

use crate::error::LinalgError;
use crate::operator::check_len;
use std::fmt;
use std::ops::{Index, IndexMut};
use stochastic_fpu::Fpu;

/// A dense row-major matrix of `f64` entries.
///
/// # Examples
///
/// ```
/// use robustify_linalg::Matrix;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let y = a.matvec(&mut ReliableFpu::new(), &[1.0, 1.0])?;
/// assert_eq!(y, vec![3.0, 7.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the rows have unequal
    /// lengths or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::shape("non-empty rows", "empty input"));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(LinalgError::shape(
                    format!("row of length {cols}"),
                    format!("row {i} of length {}", row.len()),
                ));
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix whose `(i, j)` entry is `f(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows * cols`
    /// or either dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if rows == 0 || cols == 0 || data.len() != rows * cols {
            return Err(LinalgError::shape(
                format!("{rows}x{cols} buffer of length {}", rows * cols),
                format!("length {}", data.len()),
            ));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// A view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// A mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(
            j < self.cols,
            "column {j} out of bounds for {} columns",
            self.cols
        );
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// The flat row-major data buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the transpose (a data movement, not arithmetic).
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Whether all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Matrix–vector product `A x` through the FPU
    /// ([`matvec_into`](Self::matvec_into) into a new vector).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.cols()`.
    pub fn matvec<F: Fpu>(&self, fpu: &mut F, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(fpu, x, &mut y)?;
        Ok(y)
    }

    /// Overwrites `y` with `A x` through the FPU: one
    /// [`Fpu::dot_batch`] per row, in row order.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.cols()`
    /// or `y.len() != self.rows()`.
    pub fn matvec_into<F: Fpu>(
        &self,
        fpu: &mut F,
        x: &[f64],
        y: &mut [f64],
    ) -> Result<(), LinalgError> {
        check_len("vector", self.cols, x)?;
        check_len("output", self.rows, y)?;
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = fpu.dot_batch(self.row(i), x);
        }
        Ok(())
    }

    /// Transposed matrix–vector product `Aᵀ y` through the FPU
    /// ([`matvec_t_into`](Self::matvec_t_into) into a new vector).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `y.len() != self.rows()`.
    pub fn matvec_t<F: Fpu>(&self, fpu: &mut F, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut out = vec![0.0; self.cols];
        self.matvec_t_into(fpu, y, &mut out)?;
        Ok(out)
    }

    /// Overwrites `out` with `Aᵀ y` through the FPU: `out` is zeroed, then
    /// every row with `y[i] != 0.0` adds `row(i)·y[i]` in row order.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `y.len() != self.rows()`
    /// or `out.len() != self.cols()`.
    pub fn matvec_t_into<F: Fpu>(
        &self,
        fpu: &mut F,
        y: &[f64],
        out: &mut [f64],
    ) -> Result<(), LinalgError> {
        check_len("vector", self.rows, y)?;
        check_len("output", self.cols, out)?;
        out.fill(0.0);
        for (i, &yi) in y.iter().enumerate() {
            if yi == 0.0 {
                continue;
            }
            // One batched row update `out += row(i)·yi`, bit-identical to
            // the historical per-op loop (matrix element first, then yi).
            fpu.gemv_t_row(yi, self.row(i), out);
        }
        Ok(())
    }

    /// Matrix product `A B` through the FPU.
    ///
    /// Row-major: for each output row `i` and each nonzero `a_ik` in
    /// ascending `k`, one batched `out_row += a_ik · rhs_row(k)` (scalar
    /// first). Every output element therefore accumulates its `k`-terms
    /// in ascending order, and the batched and per-op dispatch paths
    /// agree bit for bit at any fault rate.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul<F: Fpu>(&self, fpu: &mut F, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::shape(
                format!("rhs with {} rows", self.cols),
                format!("{} rows", rhs.rows),
            ));
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                fpu.axpy_batch(aik, rhs.row(k), out.row_mut(i));
            }
        }
        Ok(out)
    }

    /// Gram matrix `Aᵀ A` through the FPU (symmetric result computed once
    /// per pair).
    ///
    /// Accumulated row-outer (`G[p..] += a_ip · row_i[p..]` for each row
    /// `i`), so every access is contiguous in row-major storage and runs
    /// as one [`Fpu::axpy_batch`] per row — the historical
    /// column-pair walk strided through the whole matrix per entry. Each
    /// upper-triangle entry still receives its per-row product
    /// (`prod = mul(a_ip, a_iq); acc = add(acc, prod)`) in ascending row
    /// order, so at fault rate 0 the result is bit-identical to that
    /// historical walk.
    pub fn gram<F: Fpu>(&self, fpu: &mut F) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for i in 0..self.rows {
            let row = self.row(i);
            for p in 0..n {
                fpu.axpy_batch(row[p], &row[p..], &mut g.row_mut(p)[p..]);
            }
        }
        for p in 0..n {
            for q in p + 1..n {
                g[(q, p)] = g[(p, q)];
            }
        }
        g
    }

    /// Frobenius norm through the FPU.
    pub fn frobenius_norm<F: Fpu>(&self, fpu: &mut F) -> f64 {
        let acc = fpu.dot_batch(&self.data, &self.data);
        fpu.sqrt(acc)
    }

    /// Maximum absolute difference to another matrix (native arithmetic —
    /// a measurement, not part of any algorithm).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "max_abs_diff requires equal shapes"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4}", self[(i, j)])?;
                if j + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochastic_fpu::ReliableFpu;

    fn abc() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).expect("valid rows")
    }

    #[test]
    fn construction_and_shape() {
        let m = abc();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert!(!m.is_square());
        assert!(Matrix::identity(3).is_square());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[&[1.0], &[2.0, 3.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(0, 2, vec![]).is_err());
    }

    #[test]
    fn indexing_and_rows() {
        let mut m = abc();
        assert_eq!(m[(1, 2)], 6.0);
        m[(1, 2)] = 7.0;
        assert_eq!(m.row(1), &[4.0, 5.0, 7.0]);
        assert_eq!(m.col(0), vec![1.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = abc();
        let _ = m[(2, 0)];
    }

    #[test]
    fn transpose_involution() {
        let m = abc();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = abc();
        let y = m
            .matvec(&mut ReliableFpu::new(), &[1.0, 0.0, -1.0])
            .expect("shapes match");
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_rejects_bad_shape() {
        let m = abc();
        assert!(m.matvec(&mut ReliableFpu::new(), &[1.0]).is_err());
        assert!(m
            .matvec_t(&mut ReliableFpu::new(), &[1.0, 2.0, 3.0])
            .is_err());
    }

    #[test]
    fn matvec_t_is_transpose_matvec() {
        let m = abc();
        let mut fpu = ReliableFpu::new();
        let a = m.matvec_t(&mut fpu, &[1.0, 2.0]).expect("shapes match");
        let b = m
            .transpose()
            .matvec(&mut fpu, &[1.0, 2.0])
            .expect("shapes match");
        assert_eq!(a, b);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = abc();
        let mut fpu = ReliableFpu::new();
        let out = m
            .matmul(&mut fpu, &Matrix::identity(3))
            .expect("shapes match");
        assert_eq!(out, m);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let m = abc();
        assert!(m
            .matmul(&mut ReliableFpu::new(), &Matrix::identity(2))
            .is_err());
    }

    #[test]
    fn gram_is_ata() {
        let m = abc();
        let mut fpu = ReliableFpu::new();
        let g = m.gram(&mut fpu);
        let ata = m.transpose().matmul(&mut fpu, &m).expect("shapes match");
        assert!(g.max_abs_diff(&ata) < 1e-12);
    }

    #[test]
    fn frobenius_norm_value() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]).expect("valid rows");
        let n = m.frobenius_norm(&mut ReliableFpu::new());
        assert!((n - 5.0).abs() < 1e-12);
    }

    #[test]
    fn matvec_counts_flops() {
        let m = abc();
        let mut fpu = ReliableFpu::new();
        m.matvec(&mut fpu, &[1.0, 1.0, 1.0]).expect("shapes match");
        // Two rows of a length-3 dot product: 3 muls + 3 adds each.
        assert_eq!(fpu.flops(), 12);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = abc();
        assert!(m.is_finite());
        m[(0, 0)] = f64::NAN;
        assert!(!m.is_finite());
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", abc());
        assert!(s.contains("Matrix 2x3"));
    }
}
