//! Determinism contract of the sparse layer: the CSR products (SpMV and
//! SpMTV) are **byte-identical** between batched and scalar dispatch for
//! every shipped `FaultModelSpec` variant, and agree with the dense
//! products at rate 0.
//!
//! "Scalar" is the same kernel code with the guaranteed-exact windows
//! disabled (`NoisyFpu::set_batching(false)`), which sends the CSR row
//! runs, the FPU's one windowed kernel family, through their documented
//! per-op `execute` expansion. Fingerprints pin committed result bits
//! (every NaN as one value), FLOP counters, fault counters and statistics
//! (including the bit-position histogram), memory shadow state, and the
//! continuation of the fault stream after the products.

use proptest::prelude::*;
use robustify_linalg::CsrMatrix;
use stochastic_fpu::{
    BitFaultModel, BitWidth, FaultModelSpec, FaultRate, FlopOp, Fpu, NoisyFpu, ReliableFpu,
    CANONICAL_NAN,
};

/// A result's bits for a fingerprint, every NaN as one value: which NaN
/// payload an exact operation keeps is codegen's choice (native fast lane
/// vs per-op `execute`), and no fault can observe it, because every fault
/// flips from the canonical NaN.
fn canon_bits(value: f64) -> u64 {
    if value.is_nan() {
        CANONICAL_NAN
    } else {
        value.to_bits()
    }
}

/// Every shipped fault-model scenario: the CLI presets plus combinator
/// nestings that exercise each `FaultModelSpec` variant (mirrors
/// `crates/fpu/tests/batch_identity.rs`).
fn shipped_fault_models() -> Vec<FaultModelSpec> {
    let mut family: Vec<FaultModelSpec> = [
        "emulated",
        "uniform",
        "msb",
        "lsb",
        "stuck0",
        "stuck1",
        "burst",
        "operand",
        "intermittent",
        "muldiv",
        "voltage",
        "dvfs",
        "regfile",
        "memory",
    ]
    .iter()
    .map(|name| FaultModelSpec::from_preset(name).expect("preset exists"))
    .collect();
    family.push(FaultModelSpec::intermittent(
        0.3,
        128,
        FaultModelSpec::operand(BitFaultModel::uniform(BitWidth::F64)),
    ));
    family.push(FaultModelSpec::op_selective(
        vec![FlopOp::Add, FlopOp::Mul],
        FaultModelSpec::burst(2, BitFaultModel::lsb_only(BitWidth::F64)),
    ));
    family
}

/// A deterministic sparse test matrix: entry at `(i, j)` when
/// `(i * 7 + j) % stride == 0`, with one row left structurally empty to
/// pin the empty-row path. `stride == 1` yields dense rows; larger
/// strides yield the scattered-gather shape. Values step by tenths, which
/// round, so a row summed in any order but its expansion's changes bits.
fn test_matrix(rows: usize, cols: usize, stride: usize) -> CsrMatrix {
    let mut triplets = Vec::new();
    for i in 0..rows {
        if rows > 2 && i == rows / 2 {
            continue;
        }
        for j in 0..cols {
            if (i * 7 + j) % stride == 0 {
                triplets.push((i, j, 0.5 + ((i * 13 + j * 5) % 9) as f64 * 0.1));
            }
        }
    }
    CsrMatrix::from_triplets(rows, cols, &triplets).expect("indices in bounds")
}

/// Runs both sparse products on `fpu` and fingerprints every observable
/// bit: committed results, counters, fault statistics, memory shadow
/// masks, and the post-product fault stream.
fn sparse_workload_fingerprint(fpu: &mut NoisyFpu, a: &CsrMatrix, prefix: u64) -> Vec<u64> {
    let x: Vec<f64> = (0..a.cols())
        .map(|i| 0.25 + (i % 23) as f64 * 0.375)
        .collect();
    let mut y: Vec<f64> = (0..a.rows())
        .map(|i| 1.5 - (i % 7) as f64 * 0.125)
        .collect();
    // Zero coefficients pin the matvec_t zero-skip: both dispatch modes
    // must skip the rows entirely (no FLOPs, no strike-schedule advance).
    if a.rows() > 1 {
        y[a.rows() / 3] = 0.0;
    }
    if a.rows() > 3 {
        y[3 * a.rows() / 4] = 0.0;
    }
    let mut out = scalar_prefix(fpu, prefix);
    let ax = a.matvec(fpu, &x).expect("shapes match");
    out.extend(ax.iter().map(|&f| canon_bits(f)));
    let aty = a.matvec_t(fpu, &y).expect("shapes match");
    out.extend(aty.iter().map(|&f| canon_bits(f)));
    push_fpu_state(fpu, &mut out);
    out
}

/// Starts a fingerprint with `prefix` scalar ops. They slide the strike
/// schedule relative to row boundaries, so across cases strikes land on
/// first, interior and last entries of rows.
fn scalar_prefix(fpu: &mut NoisyFpu, prefix: u64) -> Vec<u64> {
    (0..prefix)
        .map(|i| canon_bits(fpu.mul(1.0 + i as f64, 1.5)))
        .collect()
}

/// Appends the continuation of the fault stream, the counters, the fault
/// statistics and any memory shadow masks to a fingerprint.
fn push_fpu_state(fpu: &mut NoisyFpu, out: &mut Vec<u64>) {
    // The fault stream must continue identically after the products: any
    // desynchronized LFSR draw or miscounted FLOP shows up here.
    for i in 0..64u64 {
        out.push(canon_bits(fpu.add(i as f64, 0.5)));
        out.push(canon_bits(fpu.sqrt(1.0 + i as f64)));
    }

    out.push(fpu.flops());
    out.push(fpu.faults());
    let stats = fpu.stats();
    out.push(stats.high_bit_faults());
    out.push(stats.mantissa_faults());
    out.extend(stats.bit_histogram().iter().copied());
    if let Some(memory) = fpu.memory_state() {
        out.extend(memory.masks().iter().copied());
    }
}

/// Asserts that `run` fingerprints a batched and a scalar FPU alike for
/// every shipped fault model.
fn assert_batched_equals_scalar(
    rate: FaultRate,
    seed: u64,
    run: impl Fn(&mut NoisyFpu) -> Vec<u64>,
) {
    for spec in shipped_fault_models() {
        let mut batched = NoisyFpu::new(rate, spec.clone(), seed);
        let mut scalar = NoisyFpu::new(rate, spec.clone(), seed);
        scalar.set_batching(false);
        assert_eq!(
            run(&mut batched),
            run(&mut scalar),
            "{} diverged (rate {:?})",
            spec.name(),
            rate
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sparse batched == scalar for every shipped spec variant, across
    /// fault rates, matrix shapes, sparsity strides, seeds, and strike
    /// positions.
    #[test]
    fn sparse_products_are_byte_identical_to_scalar(
        seed in any::<u64>(),
        rate_millis in 0u64..1001,
        rows in 1usize..20,
        // Up to 63 columns, so stride-1 rows reach past 32 entries.
        cols in 1usize..64,
        stride in 1usize..6,
        prefix in 0u64..32,
    ) {
        let a = test_matrix(rows, cols, stride);
        let rate = FaultRate::per_flop(rate_millis as f64 / 1000.0);
        assert_batched_equals_scalar(rate, seed, |fpu| {
            sparse_workload_fingerprint(fpu, &a, prefix)
        });
    }

    /// Triplet → CSR → dense round-trip: assembly (any order, duplicate
    /// accumulation, zero dropping) reproduces the dense matrix exactly.
    #[test]
    fn triplet_csr_dense_round_trip(
        rows in 1usize..12,
        cols in 1usize..12,
        stride in 1usize..5,
        shuffle_salt in any::<u64>(),
    ) {
        let a = test_matrix(rows, cols, stride);
        let dense = a.to_dense();
        // Rebuild from the dense entries, in a salted order, with each
        // value split into two duplicate triplets plus an explicit zero.
        let mut triplets = vec![(0usize, 0usize, 0.0f64)];
        for i in 0..rows {
            for (j, &v) in dense.row(i).iter().enumerate() {
                if v != 0.0 {
                    triplets.push((i, j, 0.25 * v));
                    triplets.push((i, j, 0.75 * v));
                }
            }
        }
        let salt = shuffle_salt as usize % triplets.len();
        triplets.rotate_left(salt);
        let rebuilt = CsrMatrix::from_triplets(rows, cols, &triplets).expect("in bounds");
        prop_assert_eq!(rebuilt.to_dense(), dense);
        prop_assert_eq!(CsrMatrix::from_dense(&dense).to_dense(), dense);
    }

    /// At rate 0 the sparse products agree with the dense `Matrix`
    /// products: a rate-0 `NoisyFpu` is bit-identical to the reliable
    /// path, rows with no stored zeros reproduce the dense result bit for
    /// bit (same kernel call on the same data), and rows with dropped
    /// zeros agree to rounding (the dense kernel sums the zero terms).
    #[test]
    fn sparse_matches_dense_at_rate_zero(
        rows in 1usize..16,
        cols in 1usize..40,
        stride in 1usize..6,
        seed in any::<u64>(),
    ) {
        let a = test_matrix(rows, cols, stride);
        let dense = a.to_dense();
        let x: Vec<f64> = (0..cols).map(|i| 0.25 + (i % 23) as f64 * 0.375).collect();
        let mut y: Vec<f64> = (0..rows).map(|i| 1.5 - (i % 7) as f64 * 0.125).collect();
        if rows > 1 {
            y[rows / 3] = 0.0;
        }
        let mut noisy = NoisyFpu::new(
            FaultRate::per_flop(0.0),
            FaultModelSpec::default(),
            seed,
        );
        let mut reliable = ReliableFpu::new();
        let sparse_ax = a.matvec(&mut noisy, &x).expect("shapes match");
        let sparse_aty = a.matvec_t(&mut noisy, &y).expect("shapes match");
        let reliable_ax = a.matvec(&mut reliable, &x).expect("shapes match");
        let reliable_aty = a.matvec_t(&mut reliable, &y).expect("shapes match");
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        // Rate 0 through a NoisyFpu is the reliable path, bit for bit.
        prop_assert_eq!(bits(&sparse_ax), bits(&reliable_ax));
        prop_assert_eq!(bits(&sparse_aty), bits(&reliable_aty));

        let dense_ax = dense.matvec(&mut reliable, &x).expect("shapes match");
        let dense_aty = dense.matvec_t(&mut reliable, &y).expect("shapes match");
        if stride == 1 {
            // Every stored row is contiguous and full: the sparse product
            // issues exactly the dense kernel call, so agreement is exact.
            prop_assert_eq!(bits(&sparse_ax), bits(&dense_ax));
            prop_assert_eq!(bits(&sparse_aty), bits(&dense_aty));
        } else {
            for (s, d) in sparse_ax.iter().zip(&dense_ax) {
                prop_assert!((s - d).abs() <= 1e-12 * (1.0 + d.abs()), "{s} vs {d}");
            }
            for (s, d) in sparse_aty.iter().zip(&dense_aty) {
                prop_assert!((s - d).abs() <= 1e-12 * (1.0 + d.abs()), "{s} vs {d}");
            }
        }
    }
}

/// The zero-skip economy: dropped entries never reach the FPU, so a
/// sparse product charges strictly fewer FLOPs than the dense product
/// over the same matrix — and exactly the same FLOPs when nothing is
/// dropped.
#[test]
fn sparse_flop_counts_reflect_stored_entries_only() {
    let with_zeros = test_matrix(9, 24, 3);
    let x = vec![1.0; 24];
    let mut sparse_fpu = ReliableFpu::new();
    with_zeros
        .matvec(&mut sparse_fpu, &x)
        .expect("shapes match");
    assert_eq!(sparse_fpu.flops(), 2 * with_zeros.nnz() as u64);
    let mut dense_fpu = ReliableFpu::new();
    with_zeros
        .to_dense()
        .matvec(&mut dense_fpu, &x)
        .expect("shapes match");
    assert!(sparse_fpu.flops() < dense_fpu.flops());

    // Fully dense (stride 1, no empty row): identical kernel, identical
    // charge.
    let full = test_matrix(2, 24, 1);
    assert_eq!(full.nnz(), 48);
    let mut sparse_fpu = ReliableFpu::new();
    full.matvec(&mut sparse_fpu, &x).expect("shapes match");
    let mut dense_fpu = ReliableFpu::new();
    full.to_dense()
        .matvec(&mut dense_fpu, &x)
        .expect("shapes match");
    assert_eq!(sparse_fpu.flops(), dense_fpu.flops());
}

/// Row-run boundaries of the CSR kernels, pinned for every shipped fault
/// model: the schedule's first strike is placed on the first, a middle
/// and the last FLOP of every stored row of both products, so a window
/// ends exactly at a row boundary, inside a row (the row straddles the
/// window), or on a row's last entry. The matrix mixes short rows, empty
/// rows and long rows (≥ 32 entries, which run natively inside windows
/// like short ones) between short ones, and `Aᵀy` skips a short and a
/// long `y_i == 0` row.
#[test]
fn csr_row_run_boundaries_are_byte_identical_to_scalar() {
    let long = 32;
    // Rows 4 (long) and 9 (short) are the rows
    // `sparse_workload_fingerprint` zeroes in `y`.
    let lengths = [5, 0, 3, long + 8, long + 1, 1, 0, 5, 2, 4, 0, 5];
    let cols = 2 * long + 16;
    let mut triplets = Vec::new();
    for (i, &len) in lengths.iter().enumerate() {
        for k in 0..len {
            triplets.push((i, i + k, 0.5 + ((i * 13 + k * 5) % 9) as f64 * 0.1));
        }
    }
    let a = CsrMatrix::from_triplets(lengths.len(), cols, &triplets).expect("indices in bounds");
    let zeroed = [lengths.len() / 3, 3 * lengths.len() / 4];
    // The (first, last) FLOP of every stored row: `A x` first, then `Aᵀy`
    // over the nonzero `y` rows.
    let mut rows = Vec::new();
    let mut flop = 0;
    for &len in &lengths {
        if len > 0 {
            rows.push((flop, flop + 2 * len - 1));
        }
        flop += 2 * len;
    }
    for (i, &len) in lengths.iter().enumerate() {
        if len > 0 && !zeroed.contains(&i) {
            rows.push((flop, flop + 2 * len - 1));
            flop += 2 * len;
        }
    }
    let targets: Vec<usize> = rows
        .iter()
        .flat_map(|&(first, last)| [first, (first + last) / 2, last])
        .collect();
    let latest = *targets.iter().max().expect("stored rows");
    let rate = FaultRate::per_flop(0.001);
    for spec in shipped_fault_models() {
        // A seed whose first strike lands late enough to be slid onto
        // every target by a scalar prefix.
        let strike = (0..64u64).find_map(|seed| {
            let mut probe = NoisyFpu::new(rate, spec.clone(), seed);
            while probe.faults() == 0 && probe.flops() < 20_000 {
                probe.mul(1.5, 2.5);
            }
            let strike = probe.flops() as usize - 1;
            (probe.faults() > 0 && strike >= latest).then_some((seed, strike))
        });
        let Some((seed, strike)) = strike else {
            continue; // effectively fault-free at this rate
        };
        for &target in &targets {
            let prefix = (strike - target) as u64;
            let mut batched = NoisyFpu::new(rate, spec.clone(), seed);
            let mut scalar = NoisyFpu::new(rate, spec.clone(), seed);
            scalar.set_batching(false);
            let got = sparse_workload_fingerprint(&mut batched, &a, prefix);
            assert_eq!(
                got,
                sparse_workload_fingerprint(&mut scalar, &a, prefix),
                "{} diverged with the strike on product FLOP {target}",
                spec.name()
            );
        }
    }
}
