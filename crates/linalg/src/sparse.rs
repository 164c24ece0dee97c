//! Compressed sparse row (CSR) matrices with batched, bit-deterministic
//! SpMV/SpMTV.
//!
//! Structural operations (triplet assembly, validated row-ordered parts,
//! dense round-trips) use native arithmetic: they move data without
//! computing on it. The numerical products route every multiply and add
//! through an [`Fpu`](stochastic_fpu::Fpu): the CSR kernels
//! ([`Fpu::csr_matvec`](stochastic_fpu::Fpu::csr_matvec),
//! [`Fpu::csr_matvec_t`](stochastic_fpu::Fpu::csr_matvec_t)) are the
//! FPU's one kernel family that runs on its exact windows — so runs of
//! whole rows execute natively up to the FPU's event horizon, the row at
//! a window boundary runs its per-op expansion, and every product stays
//! bit-identical to per-op dispatch at every fault rate.
//!
//! Zero-skips are preserved by *storage*: CSR only stores nonzeros, so a
//! zero entry never reaches the FPU — the sparse analogue of the
//! [`for_nonzero_runs`](crate::for_nonzero_runs) segmentation the banded
//! layer uses. At rate 0 the product over the stored entries agrees with
//! the dense [`Matrix::matvec`] over the same data.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::operator::{check_len, LinearOperator};
use std::fmt;
use stochastic_fpu::Fpu;

/// A sparse matrix in compressed sparse row format.
///
/// Within each row the stored column indices are strictly increasing and
/// every stored value is nonzero, so the per-row FLOP sequence of
/// [`matvec`](CsrMatrix::matvec) / [`matvec_t`](CsrMatrix::matvec_t) is a
/// deterministic function of the sparsity pattern alone.
///
/// # Examples
///
/// ```
/// use robustify_linalg::CsrMatrix;
/// use stochastic_fpu::ReliableFpu;
///
/// # fn main() -> Result<(), robustify_linalg::LinalgError> {
/// // [2 0 1]
/// // [0 3 0]
/// let a = CsrMatrix::from_triplets(2, 3, &[(0, 0, 2.0), (0, 2, 1.0), (1, 1, 3.0)])?;
/// let y = a.matvec(&mut ReliableFpu::new(), &[1.0, 1.0, 1.0])?;
/// assert_eq!(y, vec![3.0, 3.0]);
/// assert_eq!(a.nnz(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[i]..row_ptr[i + 1]` indexes row `i`'s entries; length
    /// `rows + 1`.
    row_ptr: Vec<usize>,
    /// Column index per stored entry, strictly increasing within a row.
    col_idx: Vec<usize>,
    /// Value per stored entry; never `0.0`.
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Assembles a `rows × cols` matrix from `(row, col, value)` triplets.
    ///
    /// Triplets may arrive in any order; duplicates targeting the same
    /// entry are summed (native arithmetic — assembly is construction, not
    /// solver work), and entries that end up exactly `0.0` are dropped so
    /// they never reach the FPU.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if either dimension is
    /// zero or any triplet indexes out of bounds.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, LinalgError> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::shape(
                "positive dimensions",
                format!("{rows}x{cols}"),
            ));
        }
        for &(i, j, _) in triplets {
            if i >= rows || j >= cols {
                return Err(LinalgError::shape(
                    format!("entries within {rows}x{cols}"),
                    format!("entry at ({i}, {j})"),
                ));
            }
        }
        let mut order: Vec<usize> = (0..triplets.len()).collect();
        order.sort_by_key(|&k| (triplets[k].0, triplets[k].1));
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut vals = Vec::with_capacity(triplets.len());
        let mut k = 0;
        while k < order.len() {
            let (i, j, mut v) = triplets[order[k]];
            k += 1;
            while k < order.len() {
                let (i2, j2, v2) = triplets[order[k]];
                if (i2, j2) != (i, j) {
                    break;
                }
                v += v2;
                k += 1;
            }
            if v != 0.0 {
                row_ptr[i + 1] += 1;
                col_idx.push(j);
                vals.push(v);
            }
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            vals,
        })
    }

    /// Takes a matrix already in compressed sparse row form: row `i`'s
    /// entries are `col_idx[k]`, `vals[k]` for `k` in
    /// `row_ptr[i]..row_ptr[i + 1]`. Nothing is copied or reordered, so
    /// an assembler that produces rows in order pays for the matrix alone.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] (the kind
    /// [`from_triplets`](Self::from_triplets) returns) if either dimension
    /// is zero; unless `row_ptr` has `rows + 1` non-decreasing offsets from
    /// `0` to `col_idx.len() == vals.len()`; or if a row's column indices
    /// are not strictly increasing, a column index is out of bounds, or a
    /// stored value is `0.0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use robustify_linalg::CsrMatrix;
    ///
    /// # fn main() -> Result<(), robustify_linalg::LinalgError> {
    /// // [2 0 1]
    /// // [0 3 0]
    /// let a = CsrMatrix::from_parts(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![2.0, 1.0, 3.0])?;
    /// let b = CsrMatrix::from_triplets(2, 3, &[(0, 0, 2.0), (0, 2, 1.0), (1, 1, 3.0)])?;
    /// assert_eq!(a, b);
    /// assert!(CsrMatrix::from_parts(2, 3, vec![0, 2, 3], vec![2, 0, 1], vec![1.0; 3]).is_err());
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<f64>,
    ) -> Result<Self, LinalgError> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::shape(
                "positive dimensions",
                format!("{rows}x{cols}"),
            ));
        }
        let nnz = vals.len();
        if row_ptr.len() != rows + 1
            || row_ptr[0] != 0
            || row_ptr[rows] != nnz
            || col_idx.len() != nnz
        {
            return Err(LinalgError::shape(
                format!("{} row offsets from 0 to {nnz} entries", rows + 1),
                format!(
                    "{} offsets from {:?} to {:?} over {} column indices",
                    row_ptr.len(),
                    row_ptr.first(),
                    row_ptr.last(),
                    col_idx.len()
                ),
            ));
        }
        for (i, span) in row_ptr.windows(2).enumerate() {
            let (start, end) = (span[0], span[1]);
            if start > end || end > nnz {
                return Err(LinalgError::shape(
                    "non-decreasing row offsets",
                    format!("row {i} spanning {start}..{end}"),
                ));
            }
            let row_cols = &col_idx[start..end];
            if row_cols.windows(2).any(|w| w[0] >= w[1]) || row_cols.last() >= Some(&cols) {
                return Err(LinalgError::shape(
                    format!("strictly increasing columns below {cols} in each row"),
                    format!("row {i} with columns {row_cols:?}"),
                ));
            }
            if let Some(k) = vals[start..end].iter().position(|&v| v == 0.0) {
                return Err(LinalgError::shape(
                    "nonzero stored values",
                    format!("a stored zero at ({i}, {})", row_cols[k]),
                ));
            }
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            vals,
        })
    }

    /// Compresses a dense matrix, keeping exactly its nonzero entries.
    pub fn from_dense(dense: &Matrix) -> Self {
        let mut row_ptr = Vec::with_capacity(dense.rows() + 1);
        let (mut col_idx, mut vals) = (Vec::new(), Vec::new());
        row_ptr.push(0);
        for i in 0..dense.rows() {
            for (j, &v) in dense.row(i).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(j);
                    vals.push(v);
                }
            }
            row_ptr.push(vals.len());
        }
        Self::from_parts(dense.rows(), dense.cols(), row_ptr, col_idx, vals)
            .expect("dense rows give sorted, in-bounds, nonzero entries")
    }

    /// Expands back to a dense [`Matrix`] (the round-trip inverse of
    /// [`from_dense`](Self::from_dense) for matrices without stored
    /// zeros).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                m[(i, self.col_idx[k])] = self.vals[k];
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Row `i` as parallel `(column indices, values)` slices.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        let range = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[range.clone()], &self.vals[range])
    }

    /// Whether all stored values are finite.
    pub fn is_finite(&self) -> bool {
        self.vals.iter().all(|v| v.is_finite())
    }

    /// Sparse matrix–vector product `A x` through the FPU
    /// ([`matvec_into`](Self::matvec_into) into a new vector).
    ///
    /// # FLOP accounting
    ///
    /// As [`matvec_into`](Self::matvec_into).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `x.len() != self.cols()`.
    pub fn matvec<F: Fpu>(&self, fpu: &mut F, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(fpu, x, &mut y)?;
        Ok(y)
    }

    /// Overwrites `y` with `A x` through the FPU: one
    /// [`Fpu::csr_matvec`] call, whose per-row expansion is
    /// [`Fpu::gemv_row`]'s — `p = mul(a_ij, x_j); acc = add(acc, p)` per
    /// stored entry, in stored order (lane-split once a row reaches
    /// [`LANE_REDUCTION_MIN`](stochastic_fpu::LANE_REDUCTION_MIN)
    /// entries) — with runs of whole rows on one fault-free window. Every
    /// row writes its `y` entry, so `y`'s prior contents never matter.
    ///
    /// # FLOP accounting
    ///
    /// `2·nnz` FLOPs (`mul` + `add` per stored entry; `+ LANE_WIDTH` per
    /// row once its reduction lane-splits).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn matvec_into<F: Fpu>(
        &self,
        fpu: &mut F,
        x: &[f64],
        y: &mut [f64],
    ) -> Result<(), LinalgError> {
        check_len("vector", self.cols, x)?;
        check_len("output", self.rows, y)?;
        fpu.csr_matvec(&self.row_ptr, &self.col_idx, &self.vals, x, y);
        Ok(())
    }

    /// Transposed sparse matrix–vector product `Aᵀ y` through the FPU
    /// ([`matvec_t_into`](Self::matvec_t_into) into a new vector).
    ///
    /// # FLOP accounting
    ///
    /// As [`matvec_t_into`](Self::matvec_t_into).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `y.len() != self.rows()`.
    pub fn matvec_t<F: Fpu>(&self, fpu: &mut F, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut out = vec![0.0; self.cols];
        self.matvec_t_into(fpu, y, &mut out)?;
        Ok(out)
    }

    /// Overwrites `out` with `Aᵀ y` through the FPU: `out` is zeroed, then
    /// one [`Fpu::csr_matvec_t`] call accumulates into it. Rows with
    /// `y[i] == 0.0` are skipped entirely (the same zero-skip the dense
    /// [`Matrix::matvec_t`] applies); every other row updates its output
    /// entries as [`Fpu::gemv_t_row`] does — `p = mul(a_ij, y_i); out_j =
    /// add(out_j, p)` per entry in stored order, matrix element first (the
    /// operand order the operand-side fault models are sensitive to) —
    /// with runs of whole rows on one fault-free window.
    ///
    /// # FLOP accounting
    ///
    /// `2·nnz` FLOPs over the rows with `y[i] != 0.0` (`mul` + `add` per
    /// stored entry); skipped rows cost zero.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `y.len() != self.rows()` or `out.len() != self.cols()`.
    pub fn matvec_t_into<F: Fpu>(
        &self,
        fpu: &mut F,
        y: &[f64],
        out: &mut [f64],
    ) -> Result<(), LinalgError> {
        check_len("vector", self.rows, y)?;
        check_len("output", self.cols, out)?;
        out.fill(0.0);
        fpu.csr_matvec_t(&self.row_ptr, &self.col_idx, &self.vals, y, out);
        Ok(())
    }

    /// Maximum absolute difference to another sparse matrix over the dense
    /// expansion (native arithmetic — a measurement, not solver work).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &CsrMatrix) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "max_abs_diff requires equal shapes"
        );
        self.to_dense().max_abs_diff(&other.to_dense())
    }
}

impl LinearOperator for CsrMatrix {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    /// # FLOP accounting
    ///
    /// `2·nnz` FLOPs — delegates to [`CsrMatrix::matvec_into`].
    fn matvec_into<F: Fpu>(
        &self,
        fpu: &mut F,
        x: &[f64],
        y: &mut [f64],
    ) -> Result<(), LinalgError> {
        CsrMatrix::matvec_into(self, fpu, x, y)
    }

    /// # FLOP accounting
    ///
    /// `2·nnz` FLOPs over nonzero `y` rows — delegates to
    /// [`CsrMatrix::matvec_t_into`].
    fn matvec_t_into<F: Fpu>(
        &self,
        fpu: &mut F,
        y: &[f64],
        out: &mut [f64],
    ) -> Result<(), LinalgError> {
        CsrMatrix::matvec_t_into(self, fpu, y, out)
    }
}

impl fmt::Debug for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrMatrix {}x{} ({} stored entries)",
            self.rows,
            self.cols,
            self.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochastic_fpu::{Fpu, ReliableFpu};

    fn example() -> CsrMatrix {
        // [2 0 1]
        // [0 0 0]
        // [0 3 4]
        CsrMatrix::from_triplets(3, 3, &[(0, 0, 2.0), (0, 2, 1.0), (2, 1, 3.0), (2, 2, 4.0)])
            .expect("valid triplets")
    }

    #[test]
    fn construction_and_shape() {
        let a = example();
        assert_eq!((a.rows(), a.cols(), a.nnz()), (3, 3, 4));
        let (cols, vals) = a.row(2);
        assert_eq!(cols, &[1, 2]);
        assert_eq!(vals, &[3.0, 4.0]);
        assert_eq!(a.row(1), (&[][..], &[][..]));
    }

    #[test]
    fn triplets_accumulate_and_drop_zeros() {
        let a = CsrMatrix::from_triplets(
            2,
            2,
            &[
                (0, 0, 1.0),
                (0, 0, 2.0),
                (1, 1, 5.0),
                (1, 1, -5.0),
                (1, 0, 0.0),
            ],
        )
        .expect("valid triplets");
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.row(0), (&[0][..], &[3.0][..]));
        assert_eq!(a.row(1), (&[][..], &[][..]));
    }

    #[test]
    fn triplets_validate_bounds_and_shape() {
        assert!(CsrMatrix::from_triplets(0, 2, &[]).is_err());
        assert!(CsrMatrix::from_triplets(2, 0, &[]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, &[(0, 2, 1.0)]).is_err());
    }

    #[test]
    fn parts_refuse_malformed_storage() {
        let build = |row_ptr: &[usize], cols: &[usize], vals: &[f64]| {
            CsrMatrix::from_parts(2, 3, row_ptr.to_vec(), cols.to_vec(), vals.to_vec())
        };
        let refused = [
            ("unsorted columns", build(&[0, 2, 2], &[2, 0], &[1.0, 1.0])),
            ("duplicate column", build(&[0, 2, 2], &[1, 1], &[1.0, 1.0])),
            ("column out of range", build(&[0, 1, 1], &[3], &[1.0])),
            ("explicit zero", build(&[0, 1, 2], &[0, 1], &[1.0, 0.0])),
            ("short row_ptr", build(&[0, 1], &[0], &[1.0])),
            ("long row_ptr", build(&[0, 1, 1, 1], &[0], &[1.0])),
            ("row_ptr not from 0", build(&[1, 1, 1], &[0], &[1.0])),
            ("decreasing row_ptr", build(&[0, 2, 1], &[0], &[1.0])),
            ("row_ptr past the entries", build(&[0, 3, 1], &[0], &[1.0])),
            (
                "row_ptr short of the entries",
                build(&[0, 1, 1], &[0, 1], &[1.0, 1.0]),
            ),
            (
                "columns and values differ",
                build(&[0, 1, 1], &[0, 1], &[1.0]),
            ),
            (
                "zero rows",
                CsrMatrix::from_parts(0, 3, vec![0], vec![], vec![]),
            ),
            (
                "zero columns",
                CsrMatrix::from_parts(1, 0, vec![0, 0], vec![], vec![]),
            ),
        ];
        for (case, result) in refused {
            assert!(
                matches!(result, Err(LinalgError::DimensionMismatch { .. })),
                "{case}: {result:?}"
            );
        }
        let triplet_error = CsrMatrix::from_triplets(2, 3, &[(0, 3, 1.0)]).unwrap_err();
        assert!(matches!(
            triplet_error,
            LinalgError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn dense_round_trip() {
        let dense = Matrix::from_rows(&[&[1.0, 0.0, -2.0], &[0.0, 0.0, 0.0], &[0.5, 3.0, 0.0]])
            .expect("valid rows");
        let sparse = CsrMatrix::from_dense(&dense);
        assert_eq!(sparse.nnz(), 4);
        assert_eq!(sparse.to_dense(), dense);
    }

    #[test]
    fn matvec_matches_dense_at_rate_zero() {
        let a = example();
        let x = [1.0, -2.0, 3.0];
        let sparse = a.matvec(&mut ReliableFpu::new(), &x).expect("shapes match");
        let dense = a
            .to_dense()
            .matvec(&mut ReliableFpu::new(), &x)
            .expect("shapes match");
        assert_eq!(sparse, dense);
    }

    #[test]
    fn matvec_t_matches_dense_transpose() {
        let a = example();
        let y = [1.0, 0.0, -2.0];
        let sparse = a
            .matvec_t(&mut ReliableFpu::new(), &y)
            .expect("shapes match");
        let dense = a
            .to_dense()
            .transpose()
            .matvec(&mut ReliableFpu::new(), &y)
            .expect("shapes match");
        for (s, d) in sparse.iter().zip(&dense) {
            assert!((s - d).abs() < 1e-12, "sparse {s} vs dense {d}");
        }
    }

    #[test]
    fn products_skip_zeros_in_flop_counts() {
        let a = example();
        let mut fpu = ReliableFpu::new();
        a.matvec(&mut fpu, &[1.0; 3]).expect("shapes match");
        // 4 stored entries × (mul + add); the empty row and the five zero
        // entries contribute nothing.
        assert_eq!(fpu.flops(), 8);
        let before = fpu.flops();
        a.matvec_t(&mut fpu, &[1.0, 5.0, 0.0])
            .expect("shapes match");
        // Row 2 is skipped (y[2] = 0), row 1 stores nothing: only row 0's
        // two entries execute.
        assert_eq!(fpu.flops() - before, 4);
    }

    #[test]
    fn shape_mismatches_are_errors() {
        let a = example();
        assert!(a.matvec(&mut ReliableFpu::new(), &[1.0]).is_err());
        assert!(a.matvec_t(&mut ReliableFpu::new(), &[1.0]).is_err());
    }

    #[test]
    fn operator_trait_delegates() {
        let a = example();
        let mut fpu = ReliableFpu::new();
        let via_trait =
            LinearOperator::matvec(&a, &mut fpu, &[1.0, 1.0, 1.0]).expect("shapes match");
        let direct = a.matvec(&mut fpu, &[1.0, 1.0, 1.0]).expect("shapes match");
        assert_eq!(via_trait, direct);
        assert_eq!(LinearOperator::rows(&a), 3);
        assert_eq!(LinearOperator::cols(&a), 3);
    }

    #[test]
    fn debug_is_compact() {
        assert_eq!(
            format!("{:?}", example()),
            "CsrMatrix 3x3 (4 stored entries)"
        );
    }
}
