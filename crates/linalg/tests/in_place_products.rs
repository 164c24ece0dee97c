//! The in-place products against the allocating ones: for the dense and
//! the CSR backend, `matvec_into` / `matvec_t_into` into a NaN-filled
//! buffer must leave exactly what `matvec` / `matvec_t` return, and the
//! FPU in exactly the same state — counters, fault statistics, memory
//! shadow masks and the results of the ops that follow — under transient
//! and array-resident faults at rates 0, 1e-3 and 0.3.

use robustify_linalg::{CsrMatrix, LinearOperator};
use stochastic_fpu::{
    BitFaultModel, FaultModelSpec, FaultRate, FaultStats, Fpu, NoisyFpu, CANONICAL_NAN,
};

/// A result's bits, every NaN as one value (which NaN payload an exact op
/// keeps is codegen's choice; no fault can observe it).
fn canon_bits(value: f64) -> u64 {
    if value.is_nan() {
        CANONICAL_NAN
    } else {
        value.to_bits()
    }
}

/// Everything a run leaves behind: the two products' bits, then the FPU's
/// counters, statistics, memory masks and the next ops' results.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    ax: Vec<u64>,
    aty: Vec<u64>,
    flops: u64,
    faults: u64,
    stats: FaultStats,
    masks: Option<Vec<u64>>,
    next: Vec<u64>,
}

fn fingerprint(fpu: &mut NoisyFpu, ax: &[f64], aty: &[f64]) -> Fingerprint {
    let bits = |v: &[f64]| v.iter().map(|&f| canon_bits(f)).collect();
    let (ax, aty) = (bits(ax), bits(aty));
    let (flops, faults, stats) = (fpu.flops(), fpu.faults(), fpu.stats().clone());
    let masks = fpu.memory_state().map(|m| m.masks().to_vec());
    let next = (0..64u64)
        .flat_map(|i| [fpu.add(i as f64, 0.5), fpu.mul(1.0 + i as f64, 1.25)])
        .map(canon_bits)
        .collect();
    Fingerprint {
        ax,
        aty,
        flops,
        faults,
        stats,
        masks,
        next,
    }
}

fn allocating<M: LinearOperator>(a: &M, fpu: &mut NoisyFpu, x: &[f64], y: &[f64]) -> Fingerprint {
    let ax = a.matvec(fpu, x).expect("shapes match");
    let aty = a.matvec_t(fpu, y).expect("shapes match");
    fingerprint(fpu, &ax, &aty)
}

fn in_place<M: LinearOperator>(a: &M, fpu: &mut NoisyFpu, x: &[f64], y: &[f64]) -> Fingerprint {
    let mut ax = vec![f64::NAN; a.rows()];
    let mut aty = vec![f64::NAN; a.cols()];
    a.matvec_into(fpu, x, &mut ax).expect("shapes match");
    a.matvec_t_into(fpu, y, &mut aty).expect("shapes match");
    fingerprint(fpu, &ax, &aty)
}

/// A 24 × 40 matrix mixing empty, short and long rows (stride 1 rows
/// hold all 40 entries).
fn test_matrix() -> CsrMatrix {
    let (rows, cols) = (24, 40);
    let mut triplets = Vec::new();
    for i in (0..rows).filter(|&i| i != 11) {
        let stride = 1 + i % 5;
        for j in (0..cols).filter(|j| (i * 7 + j) % stride == 0) {
            triplets.push((i, j, 0.5 + ((i * 13 + j * 5) % 9) as f64 * 0.25));
        }
    }
    CsrMatrix::from_triplets(rows, cols, &triplets).expect("indices in bounds")
}

#[test]
fn in_place_products_match_the_allocating_ones_bit_for_bit() {
    let sparse = test_matrix();
    let dense = sparse.to_dense();
    let x: Vec<f64> = (0..40).map(|i| 0.25 + (i % 23) as f64 * 0.375).collect();
    let mut y: Vec<f64> = (0..24).map(|i| 1.5 - (i % 7) as f64 * 0.125).collect();
    // Zero coefficients pin the transposed products' row skip.
    y[5] = 0.0;
    y[17] = 0.0;
    let specs = [
        FaultModelSpec::default(),
        FaultModelSpec::array_resident(64, BitFaultModel::emulated(), 0),
    ];
    let mut faulted = 0;
    for spec in &specs {
        for rate in [0.0, 1e-3, 0.3] {
            for seed in 0..8 {
                let fpu = || NoisyFpu::new(FaultRate::per_flop(rate), spec.clone(), seed);
                let case = format!("{} at rate {rate}, seed {seed}", spec.name());
                let want = allocating(&sparse, &mut fpu(), &x, &y);
                assert_eq!(in_place(&sparse, &mut fpu(), &x, &y), want, "csr, {case}");
                faulted += usize::from(want.faults > 0);
                let want = allocating(&dense, &mut fpu(), &x, &y);
                assert_eq!(in_place(&dense, &mut fpu(), &x, &y), want, "dense, {case}");
            }
        }
    }
    assert!(
        faulted > 0,
        "some runs must fault for the pin to mean anything"
    );
}
