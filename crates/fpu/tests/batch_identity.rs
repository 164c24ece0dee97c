//! The ISSUE-5 invariant: batched kernels are **byte-identical** to the
//! scalar per-op path for every shipped `FaultModelSpec` variant.
//!
//! "Scalar" here is the same batch-kernel code with the guaranteed-exact
//! windows disabled (`NoisyFpu::set_batching(false)`), which
//! degrades every kernel to its documented per-op `execute` expansion —
//! the exact code path the per-op kernels ran before batching existed.
//! The tests pin committed result bits (every NaN as one value), FLOP
//! counters, fault counters and statistics (including the bit-position
//! histogram), memory shadow state, and the continuation of the fault
//! stream after the batch.

use proptest::prelude::*;
use stochastic_fpu::{
    BitFaultModel, BitWidth, FaultModelSpec, FaultRate, FlopOp, Fpu, NoisyFpu, CANONICAL_NAN,
    LANE_REDUCTION_MIN, LANE_WIDTH,
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
/// nestings that exercise each `FaultModelSpec` variant (transient,
/// stuck-at, burst, operand, intermittent, op-selective, voltage-linked,
/// DVFS, and both memory-persistent kinds).
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

/// Runs the full batched-kernel surface on `fpu` and fingerprints every
/// observable bit: committed results, counters, and fault statistics.
fn batched_workload_fingerprint(fpu: &mut NoisyFpu, len: usize, prefix: u64) -> Vec<u64> {
    let x: Vec<f64> = (0..len).map(|i| 0.25 + (i % 23) as f64 * 0.375).collect();
    let y: Vec<f64> = (0..len).map(|i| 1.5 - (i % 7) as f64 * 0.125).collect();
    let mut out = Vec::new();

    // A scalar prefix slides the strike schedule relative to the batch
    // boundaries, so across cases strikes land on the first, interior and
    // last ops of batches.
    for i in 0..prefix {
        out.push(canon_bits(fpu.mul(1.0 + i as f64, 1.5)));
    }

    // The kernels run in sequence on one operand, twice over, so every
    // kernel's fast lane takes values that earlier strikes corrupted, NaN
    // and Inf included.
    let mut v = y.clone();
    for kernel in slice_kernels().iter().cycle().take(18) {
        (kernel.2)(fpu, &x, &y, &mut v);
        out.extend(v.iter().map(|&f| canon_bits(f)));
    }

    // The fault stream must continue identically after the batches: any
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
    out
}

/// A slice kernel under test: its name, FLOPs per element, and a runner
/// applying it to inputs `x`, `y` and an operand `v` it updates in place
/// (a reduction writes its result to `v[0]`).
type SliceKernel = (
    &'static str,
    usize,
    fn(&mut NoisyFpu, &[f64], &[f64], &mut [f64]),
);

/// Every slice kernel of the `Fpu` trait, the element-wise ones first so
/// that in a chained run the reductions read the values they produced.
fn slice_kernels() -> [SliceKernel; 9] {
    [
        ("axpy_batch", 2, |f, x, _, v| f.axpy_batch(0.75, x, v)),
        ("gemv_t_row", 2, |f, x, _, v| f.gemv_t_row(0.5, x, v)),
        ("fma_batch", 2, |f, x, y, v| f.fma_batch(x, y, v)),
        ("scale_batch", 1, |f, _, _, v| f.scale_batch(1.25, v)),
        ("sub_batch", 1, |f, x, _, v| {
            let w = v.to_vec();
            f.sub_batch(x, &w, v)
        }),
        ("sub_assign_batch", 1, |f, x, _, v| f.sub_assign_batch(x, v)),
        ("dot_batch", 2, |f, x, _, v| v[0] = f.dot_batch(x, v)),
        ("gemv_row", 2, |f, x, _, v| v[0] = f.gemv_row(2.5, x, v)),
        ("dot_sub_batch", 2, |f, x, _, v| {
            v[0] = f.dot_sub_batch(7.5, x, v)
        }),
    ]
}

/// Runs `kernel` on `x`, `y` and a fresh copy of `y`; returns the copy's
/// bits.
fn run_bits(kernel: &SliceKernel, fpu: &mut NoisyFpu, x: &[f64], y: &[f64]) -> Vec<u64> {
    let mut v = y.to_vec();
    (kernel.2)(fpu, x, y, &mut v);
    v.iter().map(|&f| canon_bits(f)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batched == scalar for every shipped spec variant, across fault
    /// rates, batch lengths, seeds, and strike positions within batches.
    #[test]
    fn batched_kernels_are_byte_identical_to_scalar(
        seed in any::<u64>(),
        rate_millis in 0u64..1001,
        // Straddles LANE_REDUCTION_MIN: lengths on both sides of the
        // lane-accumulated reduction threshold, with and without a
        // partial last group of `LANE_WIDTH` lanes.
        len in 1usize..72,
        prefix in 0u64..32,
    ) {
        let rate = FaultRate::per_flop(rate_millis as f64 / 1000.0);
        for spec in shipped_fault_models() {
            let mut batched = NoisyFpu::new(rate, spec.clone(), seed);
            let mut scalar = NoisyFpu::new(rate, spec.clone(), seed);
            scalar.set_batching(false);
            let a = batched_workload_fingerprint(&mut batched, len, prefix);
            let b = batched_workload_fingerprint(&mut scalar, len, prefix);
            prop_assert_eq!(a, b, "{} diverged (rate {:?})", spec.name(), rate);
        }
    }

    /// The window contract itself: `run_exact(n)` ops executed natively
    /// plus `commit_exact` leave the FPU in exactly the state that n
    /// per-op executions of fault-free ops would — for every spec that
    /// grants windows at all.
    #[test]
    fn committed_windows_match_stepped_execution(
        seed in any::<u64>(),
        rate_millis in 1u64..501,
        want in 1u64..200,
    ) {
        let rate = FaultRate::per_flop(rate_millis as f64 / 1000.0);
        let mut skipped = NoisyFpu::new(rate, BitFaultModel::emulated(), seed);
        let mut stepped = skipped.clone();
        let window = skipped.run_exact(want);
        prop_assert!(window <= want);
        skipped.commit_exact(window);
        for _ in 0..window {
            stepped.add(1.0, 1.0);
        }
        prop_assert_eq!(stepped.faults(), 0, "window ops must be exact");
        prop_assert_eq!(skipped.flops(), stepped.flops());
        // Identical continuation: the strike schedule was advanced by the
        // same amount on both sides.
        let a: Vec<u64> = (0..128).map(|_| canon_bits(skipped.mul(3.0, 7.0))).collect();
        let b: Vec<u64> = (0..128).map(|_| canon_bits(stepped.mul(3.0, 7.0))).collect();
        prop_assert_eq!(a, b);
    }

    /// Strike boundaries, pinned: the first fault of a schedule is placed
    /// at the first, an interior, and the last FLOP of a batch, for every
    /// slice kernel — the reductions and each element-wise kernel at 1 and
    /// at 2 FLOPs per element, which share one strike lane — and every
    /// placement matches the scalar path bit for bit.
    #[test]
    fn strikes_at_batch_boundaries_match_scalar(
        seed in any::<u64>(),
        len in 2usize..32,
    ) {
        let rate = FaultRate::per_flop(0.02);
        // Locate the first strike of this seed's schedule.
        let mut probe = NoisyFpu::new(rate, BitFaultModel::emulated(), seed);
        while probe.faults() == 0 {
            probe.mul(1.5, 2.5);
        }
        let strike = (probe.flops() - 1) as usize;
        let x: Vec<f64> = (0..len).map(|i| 1.5 + i as f64 * 0.25).collect();
        let y: Vec<f64> = (0..len).map(|i| 2.5 - i as f64 * 0.125).collect();
        for kernel in &slice_kernels() {
            let (name, flops_per_batch) = (kernel.0, kernel.1 * len);
            // Prefixes that put the striking FLOP on the batch's first
            // FLOP, somewhere inside, and its last FLOP (clamped to stay
            // >= 0).
            let placements = [
                strike,
                strike.saturating_sub(flops_per_batch / 2),
                strike.saturating_sub(flops_per_batch - 1),
            ];
            for prefix in placements {
                let mut batched = NoisyFpu::new(rate, BitFaultModel::emulated(), seed);
                let mut scalar = NoisyFpu::new(rate, BitFaultModel::emulated(), seed);
                scalar.set_batching(false);
                for _ in 0..prefix {
                    prop_assert_eq!(
                        canon_bits(batched.mul(1.5, 2.5)),
                        canon_bits(scalar.mul(1.5, 2.5))
                    );
                }
                let a = run_bits(kernel, &mut batched, &x, &y);
                let b = run_bits(kernel, &mut scalar, &x, &y);
                prop_assert_eq!(a, b, "{} prefix {}", name, prefix);
                prop_assert_eq!(batched.flops(), scalar.flops());
                prop_assert_eq!(batched.stats(), scalar.stats());
                if prefix + flops_per_batch > strike {
                    prop_assert!(batched.faults() >= 1, "{} batch must contain the strike", name);
                }
            }
        }
    }

    /// Lane-chunk boundaries, pinned, for every shipped fault model: on
    /// a reduction long enough for the lane-accumulated fast path, the
    /// schedule's first strike is placed at the first element of the
    /// first `LANE_WIDTH` chunk, the first element of a middle and of the
    /// last full chunk, and inside the `chunks_exact` remainder tail.
    /// Every placement must match scalar dispatch bit for bit.
    #[test]
    fn strikes_at_lane_chunk_boundaries_match_scalar(
        seed in any::<u64>(),
        extra in 0usize..(2 * LANE_WIDTH),
    ) {
        // At least five full chunks, usually plus a remainder tail.
        let len = LANE_REDUCTION_MIN + LANE_WIDTH + extra + 1;
        let x: Vec<f64> = (0..len).map(|i| 1.5 + i as f64 * 0.25).collect();
        let y: Vec<f64> = (0..len).map(|i| 2.5 - i as f64 * 0.125).collect();
        let full_chunks = len / LANE_WIDTH;
        // Element targets: first / middle / last chunk start, tail end.
        let targets = [
            0,
            (full_chunks / 2) * LANE_WIDTH,
            (full_chunks - 1) * LANE_WIDTH,
            len - 1,
        ];
        let rate = FaultRate::per_flop(0.02);
        for spec in shipped_fault_models() {
            // Locate the first strike of this model's schedule, with a
            // budget: duty-cycled and voltage-linked wrappers can push it
            // arbitrarily far out for some seeds.
            let mut probe = NoisyFpu::new(rate, spec.clone(), seed);
            while probe.faults() == 0 && probe.flops() < 10_000 {
                probe.mul(1.5, 2.5);
            }
            if probe.faults() == 0 {
                continue; // effectively fault-free here; covered above
            }
            let strike = (probe.flops() - 1) as usize;
            for &elem in &targets {
                // Element k of the reduction issues FLOPs 2k and 2k+1
                // (mul, lane add), so this prefix drops the strike on the
                // target element's first op.
                let prefix = strike.saturating_sub(2 * elem);
                let mut batched = NoisyFpu::new(rate, spec.clone(), seed);
                let mut scalar = NoisyFpu::new(rate, spec.clone(), seed);
                scalar.set_batching(false);
                for _ in 0..prefix {
                    prop_assert_eq!(
                        canon_bits(batched.mul(1.5, 2.5)),
                        canon_bits(scalar.mul(1.5, 2.5))
                    );
                }
                let a = batched.dot_batch(&x, &y);
                let b = scalar.dot_batch(&x, &y);
                prop_assert_eq!(
                    canon_bits(a),
                    canon_bits(b),
                    "{} diverged at element {} (prefix {})",
                    spec.name(),
                    elem,
                    prefix
                );
                prop_assert_eq!(batched.flops(), scalar.flops());
                prop_assert_eq!(batched.faults(), scalar.faults());
                prop_assert_eq!(batched.stats(), scalar.stats());
            }
        }
    }
}

/// Every slice kernel that takes two or more slices rejects unequal
/// lengths with a panic naming itself — the only length guard its callers
/// have.
#[test]
fn slice_kernels_reject_unequal_lengths() {
    let x = [1.0, 2.0];
    let y = [1.0, 2.0, 3.0];
    for kernel in &slice_kernels() {
        let name = kernel.0;
        if name == "scale_batch" {
            continue; // one slice: nothing to mismatch
        }
        let mut fpu = NoisyFpu::new(FaultRate::ZERO, BitFaultModel::emulated(), 1);
        let payload =
            std::panic::catch_unwind(move || run_bits(kernel, &mut fpu, &x, &y)).expect_err(name);
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        assert_eq!(
            message,
            Some(format!("{name} operands differ in length").as_str())
        );
    }
}
