//! Property-based tests for the fault-injection substrate.

use proptest::prelude::*;
use stochastic_fpu::{
    BitFaultModel, BitWidth, FaultModelSpec, FaultRate, FlopOp, Fpu, Lfsr, MemoryFaultKind,
    MemoryFaultState, NoisyFpu, ReliableFpu, VoltageErrorModel,
};

/// Every shipped fault-model scenario: the CLI presets plus combinator
/// nestings that exercise each `FaultModelSpec` variant.
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
        vec![FlopOp::Add, FlopOp::Sub],
        FaultModelSpec::burst(2, BitFaultModel::lsb_only(BitWidth::F64)),
    ));
    family
}

/// Runs a fixed mixed-op workload on a NoisyFpu and fingerprints every
/// committed result.
fn workload_fingerprint(spec: &FaultModelSpec, rate: f64, seed: u64) -> Vec<u64> {
    let mut fpu = NoisyFpu::new(FaultRate::per_flop(rate), spec.clone(), seed);
    let mut out = Vec::with_capacity(4 * 256);
    for i in 0..256 {
        let x = 1.0 + (i % 17) as f64 * 0.375;
        let y = 0.5 + (i % 5) as f64;
        out.push(fpu.add(x, y).to_bits());
        out.push(fpu.mul(x, y).to_bits());
        out.push(fpu.div(x, y).to_bits());
        out.push(fpu.sqrt(x).to_bits());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reliable_fpu_matches_native_arithmetic(
        a in -1e6f64..1e6,
        b in -1e6f64..1e6,
    ) {
        let mut fpu = ReliableFpu::new();
        prop_assert_eq!(fpu.add(a, b), a + b);
        prop_assert_eq!(fpu.sub(a, b), a - b);
        prop_assert_eq!(fpu.mul(a, b), a * b);
        prop_assert_eq!(fpu.div(a, b), a / b);
        prop_assert_eq!(fpu.sqrt(a.abs()), a.abs().sqrt());
        prop_assert_eq!(fpu.flops(), 5);
    }

    #[test]
    fn zero_rate_noisy_fpu_is_transparent(
        seed in any::<u64>(),
        a in -1e6f64..1e6,
        b in -1e6f64..1e6,
    ) {
        let mut fpu = NoisyFpu::new(FaultRate::ZERO, BitFaultModel::emulated(), seed);
        prop_assert_eq!(fpu.mul(a, b), a * b);
        prop_assert_eq!(fpu.faults(), 0);
    }

    #[test]
    fn faults_flip_exactly_one_bit(
        seed in any::<u64>(),
        a in -1e3f64..1e3,
        b in 0.1f64..10.0,
    ) {
        let mut fpu = NoisyFpu::new(
            FaultRate::per_flop(1.0),
            BitFaultModel::uniform(BitWidth::F64),
            seed,
        );
        let exact = FlopOp::Mul.exact(a, b);
        let got = fpu.mul(a, b);
        prop_assert_eq!((exact.to_bits() ^ got.to_bits()).count_ones(), 1);
    }

    #[test]
    fn fault_counts_are_monotone_in_rate(seed in any::<u64>()) {
        let count = |rate: f64| {
            let mut fpu =
                NoisyFpu::new(FaultRate::per_flop(rate), BitFaultModel::emulated(), seed);
            for _ in 0..20_000 {
                fpu.add(1.0, 1.0);
            }
            fpu.faults()
        };
        let low = count(0.01);
        let high = count(0.2);
        prop_assert!(high > low, "low {low} vs high {high}");
    }

    #[test]
    fn lfsr_streams_are_reproducible(seed in any::<u64>()) {
        let mut a = Lfsr::new(seed);
        let mut b = Lfsr::new(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn lfsr_unit_draws_stay_in_range(seed in any::<u64>(), upper in 1u64..1000) {
        let mut lfsr = Lfsr::new(seed);
        for _ in 0..100 {
            let v = lfsr.uniform_1_to(upper);
            prop_assert!((1..=upper).contains(&v));
            let f = lfsr.next_f64();
            prop_assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn voltage_model_inverse_is_consistent(v in 0.6f64..1.0) {
        let model = VoltageErrorModel::paper_figure_5_2();
        let rate = model.error_rate(v);
        let back = model.voltage_for_rate(rate);
        prop_assert!((back - v).abs() < 1e-6);
        prop_assert!(model.power(v) <= 1.0 + 1e-12);
    }

    /// ISSUE 4 satellite: the voltage ↔ rate maps are monotone (more
    /// overscale, more errors — in both directions), and the round-trip
    /// through either map lands on the clamp of the input, never beyond
    /// the calibrated range, for *any* non-NaN input.
    #[test]
    fn voltage_rate_round_trip_is_monotone_and_clamped(
        v_lo in 0.0f64..2.0,
        dv in 0.0f64..1.0,
        r_exp in -14.0f64..1.0,
    ) {
        let model = VoltageErrorModel::paper_figure_5_2();
        // Monotonicity of error_rate: a lower voltage never errs less.
        let v_hi = v_lo + dv;
        prop_assert!(model.error_rate(v_lo) >= model.error_rate(v_hi));
        // Monotonicity of voltage_for_rate: tolerating a higher rate
        // never forces a higher voltage.
        let r = 10f64.powf(r_exp);
        prop_assert!(model.voltage_for_rate(r) >= model.voltage_for_rate(r * 10.0));
        // Round trips clamp to the calibrated range exactly.
        let v_back = model.voltage_for_rate(model.error_rate(v_lo));
        prop_assert!((model.min_voltage()..=model.max_voltage()).contains(&v_back));
        if (model.min_voltage()..=model.max_voltage()).contains(&v_lo) {
            prop_assert!((v_back - v_lo).abs() < 1e-6, "{v_lo} -> {v_back}");
        } else {
            prop_assert_eq!(v_back, v_lo.clamp(model.min_voltage(), model.max_voltage()));
        }
        let r_back = model.error_rate(model.voltage_for_rate(r));
        prop_assert!((model.min_rate()..=model.max_rate()).contains(&r_back));
        if !(model.min_rate()..=model.max_rate()).contains(&r) {
            prop_assert_eq!(r_back, r.clamp(model.min_rate(), model.max_rate()));
        }
    }

    /// ISSUE 4 satellite: memory-fault persistence. Across any run, a
    /// corrupted storage slot's bits stay resident — between snapshots a
    /// mask may only (a) gain bits (a new install), (b) clear because the
    /// scrubber swept the FLOP boundary, or (c) clear because the op
    /// overwrote that word (array-resident only). Corruption never decays
    /// on its own.
    #[test]
    fn memory_faults_persist_until_scrubbed_or_overwritten(
        seed in any::<u64>(),
        rate in 0.02f64..0.3,
        words in 2usize..16,
        scrub in 0u64..200,
    ) {
        // Values below 16 mean "never scrubbed" so the strategy covers
        // both scrubbed and unscrubbed runs.
        let scrub_interval = if scrub < 16 { 0 } else { scrub };
        let spec = FaultModelSpec::array_resident(
            words,
            BitFaultModel::emulated(),
            scrub_interval,
        );
        let mut fpu = NoisyFpu::new(FaultRate::per_flop(rate), spec, seed);
        let mut before: Vec<u64> =
            fpu.memory_state().expect("memory spec").masks().to_vec();
        for flop in 0..500u64 {
            let _ = fpu.add(1.0 + flop as f64, 0.5);
            let state = fpu.memory_state().expect("memory spec");
            let after = state.masks();
            let mut installs = 0usize;
            for (w, (&b, &a)) in before.iter().zip(after).enumerate() {
                let scrubbed =
                    scrub_interval > 0 && flop > 0 && flop % scrub_interval == 0;
                let overwritten = w as u64 == flop % words as u64;
                let base = if scrubbed || overwritten { 0 } else { b };
                prop_assert_eq!(
                    a & base, base,
                    "word {} lost resident bits outside scrub/overwrite", w
                );
                if a & !base != 0 {
                    installs += 1;
                    prop_assert_eq!(
                        (a & !base).count_ones(), 1,
                        "an install adds exactly one bit"
                    );
                }
            }
            prop_assert!(installs <= 1, "at most one install per op");
            before = after.to_vec();
        }
        // The run actually exercised persistence: faults were installed.
        prop_assert!(fpu.faults() > 0, "no faults installed at rate {rate}");
    }

    /// Register-file damage additionally survives overwrites: only the
    /// scrubber ever clears it.
    #[test]
    fn register_damage_survives_overwrites(seed in any::<u64>()) {
        let spec = FaultModelSpec::register_file(8, BitFaultModel::emulated(), 0);
        let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.1), spec, seed);
        let mut resident = 0u64;
        for i in 0..400u64 {
            let _ = fpu.mul(1.0 + i as f64, 2.0);
            let bits: u64 = fpu
                .memory_state()
                .expect("memory spec")
                .masks()
                .iter()
                .map(|m| u64::from(m.count_ones()))
                .sum();
            prop_assert!(bits >= resident, "unscrubbed damage decayed");
            resident = bits;
        }
        prop_assert!(resident > 0, "no damage installed");
    }

    /// The memory state's O(1) dirty count survives any mix of per-op
    /// execution, batch kernels on granted windows and bare
    /// `commit_exact` jumps, including scrub boundaries, overwrites and
    /// strikes inside windows. No granted window covers an op that reads
    /// a corrupted word or writes through a corrupted register. After every step the dirty
    /// count equals a recount of the masks, and the next op runs any
    /// scrub due at its boundary. The windows' ops are checked one by one
    /// against the settled state before each.
    #[test]
    fn memory_dirty_count_stays_in_sync_and_windows_skip_touches(
        seed in any::<u64>(),
        array in any::<bool>(),
        slots in 1usize..12,
        scrub in 0u64..48,
        rate_index in 0usize..3,
        steps in proptest::collection::vec(0u64..3000, 1..60),
    ) {
        let bits = BitFaultModel::emulated();
        // Below 8 means "never scrubbed".
        let scrub = if scrub < 8 { 0 } else { scrub };
        let spec = if array {
            FaultModelSpec::array_resident(slots, bits, scrub)
        } else {
            FaultModelSpec::register_file(slots, bits, scrub)
        };
        let rate = [0.0, 0.004, 0.05][rate_index];
        let mut fpu = NoisyFpu::new(FaultRate::per_flop(rate), spec, seed);
        let x: Vec<f64> = (0..64).map(|i| 0.5 + i as f64).collect();
        for step in steps {
            let arg = step / 3;
            match step % 3 {
                0 => {
                    for i in 0..arg % 6 {
                        fpu.mul(1.5, i as f64);
                    }
                }
                1 => {
                    let mut y = vec![1.0; (arg % 64) as usize];
                    fpu.axpy_batch(0.5, &x[..y.len()], &mut y);
                }
                _ => {
                    let window = fpu.run_exact(arg % 200);
                    let first = fpu.flops();
                    let mut probe = fpu.clone();
                    for flop in first..first + window {
                        let state = probe.memory_state().expect("memory spec");
                        prop_assert!(
                            !touches(&state, flop),
                            "the window from FLOP {} covers FLOP {}", first, flop
                        );
                        probe.commit_exact(1);
                    }
                    fpu.commit_exact(window);
                }
            }
            let recount = |fpu: &NoisyFpu| {
                let state = fpu.memory_state().expect("memory spec");
                (state.corrupted_slots(), state.masks().iter().filter(|&&m| m != 0).count())
            };
            let (dirty, corrupted) = recount(&fpu);
            prop_assert_eq!(dirty, corrupted, "dirty count after step {}", step);
            fpu.add(0.25, 0.5);
            let flop = fpu.flops() - 1;
            let (dirty, corrupted) = recount(&fpu);
            prop_assert_eq!(dirty, corrupted, "dirty count after the probe");
            if scrub > 0 && flop > 0 && flop.is_multiple_of(scrub) {
                prop_assert!(dirty <= 1, "the scrub at FLOP {} cleared the masks", flop);
            }
        }
    }

    #[test]
    fn energy_is_monotone_in_flops_and_voltage(
        flops_small in 1u64..10_000,
        extra in 1u64..10_000,
        v in 0.6f64..1.0,
    ) {
        let model = VoltageErrorModel::paper_figure_5_2();
        prop_assert!(model.energy(flops_small, v) < model.energy(flops_small + extra, v));
        prop_assert!(model.energy(flops_small, v) <= model.energy(flops_small, 1.0));
    }

    #[test]
    fn fault_rate_roundtrips(pct in 0.0f64..100.0) {
        let r = FaultRate::percent_of_flops(pct);
        prop_assert!((r.percent() - pct).abs() < 1e-12);
        prop_assert!((r.fraction() * 100.0 - pct).abs() < 1e-12);
    }

    /// ISSUE 3 satellite: every shipped fault model replays the exact same
    /// corruption stream for a fixed LFSR seed, and different seeds give
    /// different streams for models that actually corrupt.
    #[test]
    fn every_shipped_fault_model_is_seed_deterministic(
        seed in any::<u64>(),
        rate in 0.05f64..1.0,
    ) {
        for spec in shipped_fault_models() {
            let a = workload_fingerprint(&spec, rate, seed);
            let b = workload_fingerprint(&spec, rate, seed);
            prop_assert_eq!(a, b, "{} not seed-deterministic", spec.name());
        }
    }

    /// ISSUE 3 satellite: across every shipped model, the bit-position
    /// histogram always sums to the recorded fault count, and the
    /// field-level tallies agree with it.
    #[test]
    fn fault_histograms_sum_to_fault_count(seed in any::<u64>()) {
        for spec in shipped_fault_models() {
            let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.5), spec.clone(), seed);
            for i in 0..2000 {
                let x = 1.0 + (i % 13) as f64;
                fpu.mul(x, 3.0);
                fpu.add(x, 0.25);
            }
            let stats = fpu.stats();
            let histogram_total: u64 = stats.bit_histogram().iter().sum();
            prop_assert_eq!(
                histogram_total, stats.faults(),
                "{}: histogram {} vs faults {}",
                spec.name(), histogram_total, stats.faults()
            );
            prop_assert_eq!(
                stats.high_bit_faults() + stats.mantissa_faults(),
                stats.faults(),
                "{}: field tallies disagree", spec.name()
            );
            prop_assert_eq!(fpu.faults(), stats.faults());
        }
    }

    #[test]
    fn custom_weight_models_are_normalized(
        weights in proptest::collection::vec(0.0f64..10.0, 64)
            .prop_filter("some positive weight", |w| w.iter().sum::<f64>() > 0.0),
    ) {
        let model = BitFaultModel::from_weights(BitWidth::F64, &weights);
        let sum: f64 = model.weights().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }
}

/// Whether the result of FLOP `flop` depends on the damage `state` (the
/// settled state before it) holds: the ops a memory spec must run
/// through `execute`. Array-resident ops read words `2·flop` and
/// `2·flop + 1`; register-file ops write through register `flop` (all
/// modulo the slot count). A scrub boundary clears the damage first.
fn touches(state: &MemoryFaultState, flop: u64) -> bool {
    let masks = state.masks();
    let n = masks.len() as u64;
    let dirty = |slot: u64| masks[(slot % n) as usize] != 0;
    let scrub = state.model().scrub_interval();
    if scrub > 0 && flop > 0 && flop.is_multiple_of(scrub) {
        return false;
    }
    match state.model().kind() {
        MemoryFaultKind::ArrayResident => dirty(2 * flop) || dirty(2 * flop + 1),
        MemoryFaultKind::RegisterFile => dirty(flop),
    }
}
