//! Property-based tests for the linear algebra substrate.

use proptest::prelude::*;
use robustify_linalg::{
    lstsq_cholesky, lstsq_qr, lstsq_svd, norm2, norm2_sq, BandedMatrix, CholeskyFactorization,
    Matrix, QrFactorization, SvdFactorization,
};
use stochastic_fpu::{Fpu, ReliableFpu};

/// A strategy producing an `m × n` matrix with entries in `[-10, 10]`.
fn matrix_strategy(m: usize, n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f64..10.0, m * n)
        .prop_map(move |data| Matrix::from_vec(m, n, data).expect("buffer sized m*n"))
}

/// A well-conditioned tall matrix: random entries plus a scaled identity
/// block so columns stay independent.
fn tall_full_rank(m: usize, n: usize) -> impl Strategy<Value = Matrix> {
    matrix_strategy(m, n).prop_map(move |mut a| {
        for j in 0..n {
            let v = a[(j, j)];
            a[(j, j)] = v + 25.0;
        }
        a
    })
}

fn vec_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-10.0f64..10.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dot_is_commutative(x in vec_strategy(8), y in vec_strategy(8)) {
        let mut fpu = ReliableFpu::new();
        let a = fpu.dot_batch(&x, &y);
        let b = fpu.dot_batch(&y, &x);
        prop_assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()));
    }

    #[test]
    fn cauchy_schwarz(x in vec_strategy(8), y in vec_strategy(8)) {
        let mut fpu = ReliableFpu::new();
        let d = fpu.dot_batch(&x, &y).abs();
        let bound = norm2(&mut fpu, &x) * norm2(&mut fpu, &y);
        prop_assert!(d <= bound + 1e-9);
    }

    #[test]
    fn norm_sq_consistency(x in vec_strategy(10)) {
        let mut fpu = ReliableFpu::new();
        let n = norm2(&mut fpu, &x);
        let nsq = norm2_sq(&mut fpu, &x);
        prop_assert!((n * n - nsq).abs() <= 1e-9 * (1.0 + nsq));
    }

    #[test]
    fn transpose_is_involution(a in matrix_strategy(5, 7)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_is_linear(a in matrix_strategy(4, 3), x in vec_strategy(3), y in vec_strategy(3)) {
        let mut fpu = ReliableFpu::new();
        let sum: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
        let axy = a.matvec(&mut fpu, &sum).expect("shapes match");
        let ax = a.matvec(&mut fpu, &x).expect("shapes match");
        let ay = a.matvec(&mut fpu, &y).expect("shapes match");
        for i in 0..4 {
            prop_assert!((axy[i] - ax[i] - ay[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn qr_reconstructs(a in tall_full_rank(6, 3)) {
        let mut fpu = ReliableFpu::new();
        let qr = QrFactorization::compute(&mut fpu, &a).expect("full rank");
        let recon = qr.q().matmul(&mut fpu, qr.r()).expect("shapes match");
        prop_assert!(recon.max_abs_diff(&a) < 1e-8);
    }

    #[test]
    fn qr_q_orthonormal(a in tall_full_rank(6, 3)) {
        let mut fpu = ReliableFpu::new();
        let qr = QrFactorization::compute(&mut fpu, &a).expect("full rank");
        let qtq = qr.q().gram(&mut fpu);
        prop_assert!(qtq.max_abs_diff(&Matrix::identity(3)) < 1e-10);
    }

    #[test]
    fn svd_singular_values_nonnegative_descending(a in matrix_strategy(6, 4)) {
        let mut fpu = ReliableFpu::new();
        let svd = SvdFactorization::compute(&mut fpu, &a).expect("converges");
        let s = svd.singular_values();
        for w in s.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
        for &v in s {
            prop_assert!(v >= 0.0);
        }
    }

    #[test]
    fn svd_frobenius_identity(a in matrix_strategy(5, 3)) {
        // ‖A‖_F² = Σ σᵢ².
        let mut fpu = ReliableFpu::new();
        let svd = SvdFactorization::compute(&mut fpu, &a).expect("converges");
        let fro = a.frobenius_norm(&mut fpu);
        let ssq: f64 = svd.singular_values().iter().map(|s| s * s).sum();
        prop_assert!((fro * fro - ssq).abs() <= 1e-7 * (1.0 + ssq));
    }

    #[test]
    fn three_lstsq_solvers_agree(a in tall_full_rank(7, 3), b in vec_strategy(7)) {
        let mut fpu = ReliableFpu::new();
        let x_qr = lstsq_qr(&mut fpu, &a, &b).expect("full rank");
        let x_svd = lstsq_svd(&mut fpu, &a, &b).expect("full rank");
        let x_chol = lstsq_cholesky(&mut fpu, &a, &b).expect("full rank");
        for i in 0..3 {
            prop_assert!((x_qr[i] - x_svd[i]).abs() < 1e-6, "qr vs svd at {}", i);
            prop_assert!((x_qr[i] - x_chol[i]).abs() < 1e-6, "qr vs chol at {}", i);
        }
    }

    #[test]
    fn lstsq_residual_is_orthogonal_to_columns(a in tall_full_rank(7, 3), b in vec_strategy(7)) {
        let mut fpu = ReliableFpu::new();
        let x = lstsq_qr(&mut fpu, &a, &b).expect("full rank");
        let ax = a.matvec(&mut fpu, &x).expect("shapes match");
        let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
        let atr = a.matvec_t(&mut fpu, &r).expect("shapes match");
        for v in atr {
            prop_assert!(v.abs() < 1e-6, "normal equations violated: {}", v);
        }
    }

    #[test]
    fn cholesky_of_gram_reconstructs(a in tall_full_rank(6, 3)) {
        let mut fpu = ReliableFpu::new();
        let g = a.gram(&mut fpu);
        let chol = CholeskyFactorization::compute(&mut fpu, &g).expect("gram of full rank is SPD");
        let llt = chol.l().matmul(&mut fpu, &chol.l().transpose()).expect("shapes match");
        prop_assert!(llt.max_abs_diff(&g) < 1e-7 * (1.0 + g.frobenius_norm(&mut fpu)));
    }

    #[test]
    fn banded_matches_dense(taps in proptest::collection::vec(-2.0f64..2.0, 1..4), x in vec_strategy(8)) {
        let m = BandedMatrix::convolution(8, &taps).expect("taps fit");
        let mut fpu = ReliableFpu::new();
        let banded = m.matvec(&mut fpu, &x).expect("length matches");
        let dense = m.to_dense().matvec(&mut fpu, &x).expect("length matches");
        for (b, d) in banded.iter().zip(&dense) {
            prop_assert!((b - d).abs() < 1e-10);
        }
        let banded_t = m.matvec_t(&mut fpu, &x).expect("length matches");
        let dense_t = m.to_dense().matvec_t(&mut fpu, &x).expect("length matches");
        for (b, d) in banded_t.iter().zip(&dense_t) {
            prop_assert!((b - d).abs() < 1e-10);
        }
    }
}
