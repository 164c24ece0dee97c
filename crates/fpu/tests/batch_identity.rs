//! Every slice kernel is **byte-identical** to its documented per-op
//! expansion, for every shipped `FaultModelSpec` variant.
//!
//! The reference for each kernel is a hand-written per-op loop issuing
//! the expansion its doc comment states, one `Fpu` call at a time, in
//! the stated operand order. The tests pin committed result bits (every
//! NaN as one value), FLOP counters, fault counters and statistics
//! (including the bit-position histogram), memory shadow state, and the
//! continuation of the fault stream after the kernel. The CSR products,
//! the one kernel family that also runs on exact windows, are pinned
//! against their per-op path in `robustify_linalg`'s `sparse_identity`.

use proptest::prelude::*;
use stochastic_fpu::{
    BitFaultModel, BitWidth, FaultModelSpec, FaultRate, FlopOp, Fpu, NoisyFpu, CANONICAL_NAN,
};

/// A result's bits for a fingerprint, every NaN as one value: which NaN
/// payload an exact operation keeps is codegen's choice (it may differ
/// between a kernel and its hand-written expansion), and no fault can
/// observe it, because every fault flips from the canonical NaN.
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

/// Runs the full slice-kernel surface on `fpu` — through the kernels, or
/// through their hand-written expansions when `expanded` — and
/// fingerprints every observable bit: committed results, counters, and
/// fault statistics.
fn workload_fingerprint(fpu: &mut NoisyFpu, len: usize, prefix: u64, expanded: bool) -> Vec<u64> {
    let x: Vec<f64> = (0..len).map(|i| 0.25 + (i % 23) as f64 * 0.375).collect();
    let y: Vec<f64> = (0..len).map(|i| 1.5 - (i % 7) as f64 * 0.125).collect();
    let mut out = Vec::new();

    // A scalar prefix slides the strike schedule relative to the kernel
    // boundaries, so across cases strikes land on the first, interior and
    // last ops of kernels.
    for i in 0..prefix {
        out.push(canon_bits(fpu.mul(1.0 + i as f64, 1.5)));
    }

    // The kernels run in sequence on one operand, twice over, so every
    // kernel takes values that earlier strikes corrupted, NaN and Inf
    // included.
    let mut v = y.clone();
    for kernel in slice_kernels().iter().cycle().take(18) {
        kernel.apply(expanded)(fpu, &x, &y, &mut v);
        out.extend(v.iter().map(|&f| canon_bits(f)));
    }

    // The fault stream must continue identically after the kernels: any
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

/// A slice-kernel runner: applies a kernel to inputs `x`, `y` and an
/// operand `v` it updates in place (a reduction writes its result to
/// `v[0]`).
type Run = fn(&mut NoisyFpu, &[f64], &[f64], &mut [f64]);

/// A slice kernel under test.
struct SliceKernel {
    name: &'static str,
    /// FLOPs per element.
    flops_per_elem: usize,
    /// The kernel itself.
    run: Run,
    /// Its documented per-op expansion, written out by hand.
    expansion: Run,
}

impl SliceKernel {
    fn apply(&self, expanded: bool) -> Run {
        if expanded {
            self.expansion
        } else {
            self.run
        }
    }
}

/// The documented per-op expansion of `gemv_row`, `dot_batch` and
/// `dot_sub_batch`: `p = mul(x[k], y[k])` per element, folded into `init`
/// by `combine` one element at a time.
fn reduce_expansion(fpu: &mut NoisyFpu, init: f64, x: &[f64], y: &[f64], combine: FlopOp) -> f64 {
    let mut acc = init;
    for (&a, &b) in x.iter().zip(y) {
        let p = fpu.mul(a, b);
        acc = fpu.execute(combine, acc, p);
    }
    acc
}

/// Every slice kernel of the `Fpu` trait but the CSR products, the
/// element-wise ones first so that in a chained run the reductions read
/// the values they produced.
fn slice_kernels() -> [SliceKernel; 9] {
    [
        SliceKernel {
            name: "axpy_batch",
            flops_per_elem: 2,
            run: |f, x, _, v| f.axpy_batch(0.75, x, v),
            expansion: |f, x, _, v| {
                for (v, &x) in v.iter_mut().zip(x) {
                    let p = f.mul(0.75, x);
                    *v = f.add(*v, p);
                }
            },
        },
        SliceKernel {
            name: "gemv_t_row",
            flops_per_elem: 2,
            run: |f, x, _, v| f.gemv_t_row(0.5, x, v),
            expansion: |f, x, _, v| {
                for (v, &r) in v.iter_mut().zip(x) {
                    let p = f.mul(r, 0.5);
                    *v = f.add(*v, p);
                }
            },
        },
        SliceKernel {
            name: "fma_batch",
            flops_per_elem: 2,
            run: |f, x, y, v| f.fma_batch(x, y, v),
            expansion: |f, x, y, v| {
                for k in 0..v.len() {
                    let p = f.mul(x[k], y[k]);
                    v[k] = f.add(v[k], p);
                }
            },
        },
        SliceKernel {
            name: "scale_batch",
            flops_per_elem: 1,
            run: |f, _, _, v| f.scale_batch(1.25, v),
            expansion: |f, _, _, v| {
                for v in v.iter_mut() {
                    *v = f.mul(1.25, *v);
                }
            },
        },
        SliceKernel {
            name: "sub_batch",
            flops_per_elem: 1,
            run: |f, x, _, v| {
                let w = v.to_vec();
                f.sub_batch(x, &w, v)
            },
            expansion: |f, x, _, v| {
                for k in 0..v.len() {
                    v[k] = f.sub(x[k], v[k]);
                }
            },
        },
        SliceKernel {
            name: "sub_assign_batch",
            flops_per_elem: 1,
            run: |f, x, _, v| f.sub_assign_batch(x, v),
            expansion: |f, x, _, v| {
                for (v, &x) in v.iter_mut().zip(x) {
                    *v = f.sub(*v, x);
                }
            },
        },
        SliceKernel {
            name: "dot_batch",
            flops_per_elem: 2,
            run: |f, x, _, v| v[0] = f.dot_batch(x, v),
            expansion: |f, x, _, v| v[0] = reduce_expansion(f, 0.0, x, v, FlopOp::Add),
        },
        SliceKernel {
            name: "gemv_row",
            flops_per_elem: 2,
            run: |f, x, _, v| v[0] = f.gemv_row(2.5, x, v),
            expansion: |f, x, _, v| v[0] = reduce_expansion(f, 2.5, x, v, FlopOp::Add),
        },
        SliceKernel {
            name: "dot_sub_batch",
            flops_per_elem: 2,
            run: |f, x, _, v| v[0] = f.dot_sub_batch(7.5, x, v),
            expansion: |f, x, _, v| v[0] = reduce_expansion(f, 7.5, x, v, FlopOp::Sub),
        },
    ]
}

/// Runs `kernel` (or its expansion) on `x`, `y` and a fresh copy of `y`;
/// returns the copy's bits.
fn run_bits(
    kernel: &SliceKernel,
    expanded: bool,
    fpu: &mut NoisyFpu,
    x: &[f64],
    y: &[f64],
) -> Vec<u64> {
    let mut v = y.to_vec();
    kernel.apply(expanded)(fpu, x, y, &mut v);
    v.iter().map(|&f| canon_bits(f)).collect()
}

/// Two copies of one FPU, stepped through `prefix` scalar ops.
fn twins_after(
    rate: FaultRate,
    spec: &FaultModelSpec,
    seed: u64,
    prefix: usize,
) -> (NoisyFpu, NoisyFpu) {
    let mut fpu = NoisyFpu::new(rate, spec.clone(), seed);
    for _ in 0..prefix {
        fpu.mul(1.5, 2.5);
    }
    (fpu.clone(), fpu)
}

/// The FLOP index of the first strike of `spec`'s schedule at `rate`
/// from `seed` that falls at or after FLOP `from`.
fn strike_from(rate: FaultRate, spec: &FaultModelSpec, seed: u64, from: u64) -> usize {
    let mut probe = NoisyFpu::new(rate, spec.clone(), seed);
    loop {
        let before = probe.faults();
        probe.mul(1.5, 2.5);
        if probe.faults() > before && probe.flops() > from {
            return (probe.flops() - 1) as usize;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kernels == their per-op expansions for every shipped spec
    /// variant, across fault rates, lengths, seeds, and strike positions
    /// within kernels.
    #[test]
    fn kernels_are_byte_identical_to_their_expansions(
        seed in any::<u64>(),
        rate_millis in 0u64..1001,
        len in 1usize..72,
        prefix in 0u64..32,
    ) {
        let rate = FaultRate::per_flop(rate_millis as f64 / 1000.0);
        for spec in shipped_fault_models() {
            let mut kernels = NoisyFpu::new(rate, spec.clone(), seed);
            let mut expansions = kernels.clone();
            let a = workload_fingerprint(&mut kernels, len, prefix, false);
            let b = workload_fingerprint(&mut expansions, len, prefix, true);
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

    /// Strike boundaries, pinned: a strike of the schedule is placed at
    /// the first, an interior, and the last FLOP of a kernel, for every
    /// slice kernel — the reductions and each element-wise kernel at 1 and
    /// at 2 FLOPs per element — on a short and on a long (≥ 34-element)
    /// operand, and every placement matches the kernel's expansion bit for
    /// bit.
    #[test]
    fn strikes_at_kernel_boundaries_match_the_expansion(
        seed in any::<u64>(),
        short in 2usize..32,
    ) {
        let rate = FaultRate::per_flop(0.02);
        let spec = FaultModelSpec::from(BitFaultModel::emulated());
        let lens = [short, short + 32];
        // Far enough out that every placement has a scalar prefix.
        let strike = strike_from(rate, &spec, seed, 2 * lens[1] as u64);
        for len in lens {
            let x: Vec<f64> = (0..len).map(|i| 1.5 + i as f64 * 0.25).collect();
            let y: Vec<f64> = (0..len).map(|i| 2.5 - i as f64 * 0.125).collect();
            for kernel in &slice_kernels() {
                let flops = kernel.flops_per_elem * len;
                // Prefixes that put the striking FLOP on the kernel's
                // first FLOP, somewhere inside, and its last FLOP.
                for prefix in [strike, strike - flops / 2, strike - (flops - 1)] {
                    let (mut kernels, mut expansions) = twins_after(rate, &spec, seed, prefix);
                    let faults = kernels.faults();
                    let a = run_bits(kernel, false, &mut kernels, &x, &y);
                    let b = run_bits(kernel, true, &mut expansions, &x, &y);
                    prop_assert_eq!(a, b, "{} len {} prefix {}", kernel.name, len, prefix);
                    prop_assert_eq!(kernels.flops(), expansions.flops());
                    prop_assert_eq!(kernels.stats(), expansions.stats());
                    prop_assert!(
                        kernels.faults() > faults,
                        "{} must contain the strike",
                        kernel.name
                    );
                }
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
        let name = kernel.name;
        if name == "scale_batch" {
            continue; // one slice: nothing to mismatch
        }
        let mut fpu = NoisyFpu::new(FaultRate::ZERO, BitFaultModel::emulated(), 1);
        let payload = std::panic::catch_unwind(move || run_bits(kernel, false, &mut fpu, &x, &y))
            .expect_err(name);
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
