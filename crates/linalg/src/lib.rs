//! Dense and banded linear algebra executed through a stochastic FPU.
//!
//! This crate is the numerical substrate of the robustification workspace.
//! Every arithmetic operation of every kernel flows through an
//! [`Fpu`](stochastic_fpu::Fpu), so the same factorization code serves both
//! as the *error-free reference* (with a
//! [`ReliableFpu`](stochastic_fpu::ReliableFpu)) and as the *fault-exposed
//! baseline* of the paper's evaluation (with a
//! [`NoisyFpu`](stochastic_fpu::NoisyFpu)) — exactly how the paper ran SVD,
//! QR and Cholesky least-squares solvers on its fault-injected Leon3 FPU.
//!
//! Provided here:
//!
//! * [`Matrix`] — dense row-major matrices with structural (non-FPU)
//!   manipulation and FPU-routed products.
//! * [`BandedMatrix`] — lower-banded matrices for the IIR transformation.
//! * [`CsrMatrix`] — compressed sparse rows with batched, bit-deterministic
//!   SpMV/SpMTV for 10⁵–10⁶-unknown problems.
//! * [`LinearOperator`] — the matrix-backend abstraction iterative solvers
//!   are generic over (dense and sparse backends ship here).
//! * Vector norms ([`norm2`], [`norm2_sq`]); the BLAS-1 kernels are the
//!   [`Fpu`](stochastic_fpu::Fpu) batch kernels.
//! * [`QrFactorization`] — Householder QR and least squares.
//! * [`SvdFactorization`] — one-sided Jacobi SVD and least squares.
//! * [`CholeskyFactorization`] — Cholesky of the normal equations.
//!
//! # Quickstart
//!
//! ```
//! use robustify_linalg::{lstsq_qr, Matrix};
//! use stochastic_fpu::ReliableFpu;
//!
//! # fn main() -> Result<(), robustify_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0], &[0.0, 0.0]])?;
//! let b = [3.0, 4.0, 5.0];
//! let x = lstsq_qr(&mut ReliableFpu::new(), &a, &b)?;
//! assert!((x[0] - 3.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod banded;
mod cholesky;
mod error;
mod kernels;
mod matrix;
mod operator;
mod qr;
mod sparse;
mod svd;
mod triangular;

pub use banded::BandedMatrix;
pub use cholesky::{lstsq_cholesky, CholeskyFactorization};
pub use error::LinalgError;
pub use kernels::{for_nonzero_runs, norm2, norm2_sq};
pub use matrix::Matrix;
pub use operator::LinearOperator;
pub use qr::{lstsq_qr, QrFactorization};
pub use sparse::CsrMatrix;
pub use svd::{condition_number, lstsq_svd, SvdFactorization};
pub use triangular::{solve_lower, solve_upper};
