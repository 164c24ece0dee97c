//! Vector helpers over an [`Fpu`]: Euclidean norms and the nonzero-run
//! segmentation. The BLAS-1 kernels themselves (`dot_batch`, `axpy_batch`,
//! `scale_batch`, …) are the [`Fpu`] batch kernels, called directly.

use stochastic_fpu::Fpu;

/// Invokes `f(start, end)` for every maximal run of consecutive non-zero
/// entries of `v`.
///
/// This is the segmentation that lets sparse-aware inner loops (banded
/// diagonals, constraint rows) batch through the FPU fast path while
/// preserving their historical "skip zero entries one by one" FLOP
/// sequence exactly — zero entries never reach the FPU, exactly as before.
///
/// # Examples
///
/// ```
/// use robustify_linalg::for_nonzero_runs;
///
/// let mut runs = Vec::new();
/// for_nonzero_runs(&[0.0, 1.0, 2.0, 0.0, 3.0], |s, e| runs.push((s, e)));
/// assert_eq!(runs, vec![(1, 3), (4, 5)]);
/// ```
pub fn for_nonzero_runs(v: &[f64], mut f: impl FnMut(usize, usize)) {
    let mut j = 0;
    while j < v.len() {
        if v[j] == 0.0 {
            j += 1;
            continue;
        }
        let mut end = j + 1;
        while end < v.len() && v[end] != 0.0 {
            end += 1;
        }
        f(j, end);
        j = end;
    }
}

/// Squared Euclidean norm `‖x‖²` through the FPU.
///
/// # FLOP accounting
///
/// `2·n` FLOPs (a self inner product via [`Fpu::dot_batch`]).
///
/// # Examples
///
/// ```
/// use robustify_linalg::norm2_sq;
/// use stochastic_fpu::ReliableFpu;
///
/// assert_eq!(norm2_sq(&mut ReliableFpu::new(), &[3.0, 4.0]), 25.0);
/// ```
pub fn norm2_sq<F: Fpu>(fpu: &mut F, x: &[f64]) -> f64 {
    fpu.dot_batch(x, x)
}

/// Euclidean norm `‖x‖` through the FPU.
///
/// # FLOP accounting
///
/// `2·n + 1` FLOPs ([`norm2_sq`] plus one [`Fpu::sqrt`]).
///
/// # Examples
///
/// ```
/// use robustify_linalg::norm2;
/// use stochastic_fpu::ReliableFpu;
///
/// assert_eq!(norm2(&mut ReliableFpu::new(), &[3.0, 4.0]), 5.0);
/// ```
pub fn norm2<F: Fpu>(fpu: &mut F, x: &[f64]) -> f64 {
    let sq = norm2_sq(fpu, x);
    fpu.sqrt(sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stochastic_fpu::ReliableFpu;

    #[test]
    fn norms_agree() {
        let mut fpu = ReliableFpu::new();
        let x = [1.0, 2.0, 2.0];
        assert_eq!(norm2_sq(&mut fpu, &x), 9.0);
        assert_eq!(fpu.flops(), 6); // 3 muls + 3 adds
        assert_eq!(norm2(&mut fpu, &x), 3.0);
        assert_eq!(fpu.flops(), 13); // 6 more + sqrt
    }
}
