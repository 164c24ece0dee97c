//! Bit-level fault models for FPU results.
//!
//! The paper's fault injector "perturbs one randomly chosen bit in the
//! output of the FPU before it is committed to a register", with a bit
//! position distribution "modeled from circuit level simulations of
//! functional units, where many of the errors predominantly occur in the
//! most significant bits. The rest of the faults primarily occur in the
//! low-order bits" (Figure 5.1). [`BitFaultModel`] captures such a
//! distribution over IEEE-754 bit positions; [`FaultRate`] expresses how
//! often faults strike.

use crate::lfsr::Lfsr;

/// Which IEEE-754 encoding faults are injected into.
///
/// The Leon3 FPU of the paper operates on single-precision values; this
/// reproduction defaults to injecting into the full `f64` representation
/// (the workspace's working precision) but supports the faithful `f32` mode
/// as well, where the result is narrowed to `f32`, one of its 32 bits is
/// flipped, and the value is widened back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BitWidth {
    /// Flip one of the 32 bits of the result rounded to `f32`.
    F32,
    /// Flip one of the 64 bits of the `f64` result.
    #[default]
    F64,
}

impl BitWidth {
    /// Number of bits in the encoding.
    pub fn bits(self) -> usize {
        match self {
            BitWidth::F32 => 32,
            BitWidth::F64 => 64,
        }
    }

    /// Number of mantissa (fraction) bits in the encoding.
    pub fn mantissa_bits(self) -> usize {
        match self {
            BitWidth::F32 => 23,
            BitWidth::F64 => 52,
        }
    }

    /// Stable lower-case name used in serializations.
    pub fn name(self) -> &'static str {
        match self {
            BitWidth::F32 => "f32",
            BitWidth::F64 => "f64",
        }
    }

    /// XORs `mask` into the encoding of `value`: the `f64` bits directly,
    /// or the bits of `value` rounded to `f32` and widened back. An empty
    /// mask returns `value` untouched, not even rounded through `f32`, so a
    /// healthy storage slot never perturbs the values passing through it.
    /// Every injected flip goes through here.
    pub(crate) fn xor(self, value: f64, mask: u64) -> f64 {
        if mask == 0 {
            return value;
        }
        match self {
            BitWidth::F32 => f32::from_bits((value as f32).to_bits() ^ mask as u32) as f64,
            BitWidth::F64 => f64::from_bits(value.to_bits() ^ mask),
        }
    }

    /// The inverse of [`name`](Self::name), for spec parsers.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "f32" => BitWidth::F32,
            "f64" => BitWidth::F64,
            _ => return None,
        })
    }
}

/// How often the fault injector strikes, expressed as the expected fraction
/// of floating point operations whose result is corrupted.
///
/// The paper defines fault rate as "the inverse of the average number of
/// floating point operations between two faults"; plots label it as a
/// percentage of FLOPs.
///
/// # Examples
///
/// ```
/// use stochastic_fpu::FaultRate;
///
/// let r = FaultRate::per_flop(0.01);
/// assert_eq!(r.percent(), 1.0);
/// assert_eq!(FaultRate::percent_of_flops(5.0).fraction(), 0.05);
/// assert!(FaultRate::ZERO.is_zero());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct FaultRate(f64);

impl FaultRate {
    /// A rate of zero: the injector never fires.
    pub const ZERO: FaultRate = FaultRate(0.0);

    /// Creates a rate from a fraction of FLOPs in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not finite or lies outside `[0, 1]`.
    pub fn per_flop(fraction: f64) -> Self {
        assert!(
            fraction.is_finite() && (0.0..=1.0).contains(&fraction),
            "fault rate fraction must be in [0, 1], got {fraction}"
        );
        FaultRate(fraction)
    }

    /// Creates a rate from a percentage of FLOPs in `[0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics if `percent` is not finite or lies outside `[0, 100]`.
    pub fn percent_of_flops(percent: f64) -> Self {
        assert!(
            percent.is_finite() && (0.0..=100.0).contains(&percent),
            "fault rate percentage must be in [0, 100], got {percent}"
        );
        FaultRate(percent / 100.0)
    }

    /// The rate as a fraction of FLOPs.
    pub fn fraction(self) -> f64 {
        self.0
    }

    /// The rate as a percentage of FLOPs.
    pub fn percent(self) -> f64 {
        self.0 * 100.0
    }

    /// Whether the injector never fires.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Average number of FLOPs between consecutive faults
    /// (`f64::INFINITY` for a zero rate).
    pub fn mean_interval(self) -> f64 {
        if self.is_zero() {
            f64::INFINITY
        } else {
            1.0 / self.0
        }
    }
}

/// A probability distribution over which bit of an FPU result gets flipped.
///
/// # Examples
///
/// ```
/// use stochastic_fpu::{BitFaultModel, BitWidth};
///
/// let model = BitFaultModel::emulated();
/// assert_eq!(model.width(), BitWidth::F64);
/// let uniform = BitFaultModel::uniform(BitWidth::F32);
/// assert_eq!(uniform.width().bits(), 32);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BitFaultModel {
    width: BitWidth,
    /// Per-bit probabilities, `weights[i]` = P(flip bit `i`), LSB first.
    weights: Vec<f64>,
    /// Cumulative distribution for sampling, same length as `weights`.
    cumulative: Vec<f64>,
    /// Stable distribution name for emitters (`"custom"` for
    /// [`from_weights`](Self::from_weights) models).
    kind: &'static str,
}

impl BitFaultModel {
    /// Builds a model from per-bit weights (least significant bit first).
    ///
    /// Weights need not be normalized; they are scaled to sum to one.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != width.bits()`, if any weight is negative
    /// or non-finite, or if all weights are zero.
    pub fn from_weights(width: BitWidth, weights: &[f64]) -> Self {
        assert_eq!(
            weights.len(),
            width.bits(),
            "expected {} weights for {:?}, got {}",
            width.bits(),
            width,
            weights.len()
        );
        let sum: f64 = weights
            .iter()
            .map(|&w| {
                assert!(
                    w.is_finite() && w >= 0.0,
                    "bit weight must be finite and non-negative, got {w}"
                );
                w
            })
            .sum();
        assert!(sum > 0.0, "at least one bit weight must be positive");
        let weights: Vec<f64> = weights.iter().map(|w| w / sum).collect();
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in &weights {
            acc += w;
            cumulative.push(acc);
        }
        // Guard against round-off leaving the last entry below 1.0.
        *cumulative.last_mut().expect("non-empty weights") = 1.0;
        BitFaultModel {
            width,
            weights,
            cumulative,
            kind: "custom",
        }
    }

    fn named(mut self, kind: &'static str) -> Self {
        self.kind = kind;
        self
    }

    /// The paper's emulated distribution (Figure 5.1) mapped onto `f64`.
    ///
    /// Circuit-level simulation showed a bimodal error-magnitude histogram:
    /// "many of the errors predominantly occur in the most significant
    /// bits. The rest of the faults primarily occur in the low-order bits,
    /// resulting in low-magnitude errors." Timing violations strike the
    /// *slow* carry chains of the mantissa datapath, so "most significant
    /// bits" here are the high mantissa bits — producing large but
    /// *bounded* relative errors (up to ~2× per fault) — while the short
    /// exponent/sign logic is rarely late. This preset places 55% of the
    /// mass on the top eight mantissa bits, 40% on the low half of the
    /// mantissa, and 5% on the sign/exponent field (the rare catastrophic
    /// tail). The bounded-relative-error character is what lets the paper's
    /// solvers survive fault rates as high as 50% of FLOPs; see
    /// [`exponent_heavy`](Self::exponent_heavy) for the pessimistic
    /// alternative used in the fault-model ablation.
    pub fn emulated() -> Self {
        Self::emulated_with_width(BitWidth::F64)
    }

    /// The [`emulated`](Self::emulated) distribution for a chosen bit width.
    pub fn emulated_with_width(width: BitWidth) -> Self {
        let bits = width.bits();
        let mant = width.mantissa_bits();
        let mut weights = vec![0.0; bits];
        // Sign + exponent field: indices [mant, bits) — the rare tail.
        let high_field = bits - mant; // 9 for f32, 12 for f64
        for w in weights.iter_mut().take(bits).skip(mant) {
            *w = 0.05 / high_field as f64;
        }
        // Top eight mantissa bits: indices [mant-8, mant).
        for w in weights.iter_mut().take(mant).skip(mant - 8) {
            *w = 0.55 / 8.0;
        }
        // Low half of the mantissa: indices [0, mant/2).
        let low = mant / 2;
        for w in weights.iter_mut().take(low) {
            *w += 0.40 / low as f64;
        }
        Self::from_weights(width, &weights).named("emulated")
    }

    /// A pessimistic variant of [`emulated`](Self::emulated) that puts most
    /// of the fault mass on the sign/exponent field (55%, with 5% on the
    /// top mantissa bits), producing mostly catastrophic-magnitude errors.
    /// Used by the fault-model ablation to show how solver quality depends
    /// on the error-magnitude distribution, not just the fault rate.
    pub fn exponent_heavy(width: BitWidth) -> Self {
        let bits = width.bits();
        let mant = width.mantissa_bits();
        let mut weights = vec![0.0; bits];
        let high_field = bits - mant;
        for w in weights.iter_mut().take(bits).skip(mant) {
            *w = 0.55 / high_field as f64;
        }
        for w in weights.iter_mut().take(mant).skip(mant - 8) {
            *w = 0.05 / 8.0;
        }
        let low = mant / 2;
        for w in weights.iter_mut().take(low) {
            *w += 0.40 / low as f64;
        }
        Self::from_weights(width, &weights).named("exponent_heavy")
    }

    /// A uniform distribution over all bits of the encoding.
    pub fn uniform(width: BitWidth) -> Self {
        Self::from_weights(width, &vec![1.0; width.bits()]).named("uniform")
    }

    /// A distribution concentrated entirely on the most significant
    /// (sign/exponent) field — the worst case for numerical algorithms.
    pub fn msb_only(width: BitWidth) -> Self {
        let bits = width.bits();
        let mant = width.mantissa_bits();
        let mut weights = vec![0.0; bits];
        for w in weights.iter_mut().take(bits).skip(mant) {
            *w = 1.0;
        }
        Self::from_weights(width, &weights).named("msb_only")
    }

    /// A distribution concentrated on the low half of the mantissa —
    /// small-magnitude errors only.
    pub fn lsb_only(width: BitWidth) -> Self {
        let bits = width.bits();
        let mant = width.mantissa_bits();
        let mut weights = vec![0.0; bits];
        for w in weights.iter_mut().take(mant / 2) {
            *w = 1.0;
        }
        Self::from_weights(width, &weights).named("lsb_only")
    }

    /// Reconstructs a preset model from its stable
    /// [`kind`](Self::kind) name and width — the inverse used by spec
    /// parsers. `"custom"` models carry their weights out of band and
    /// cannot be reconstructed by name, so this returns `None` for them
    /// (and for unknown names).
    pub fn from_kind(kind: &str, width: BitWidth) -> Option<Self> {
        Some(match kind {
            "emulated" => Self::emulated_with_width(width),
            "exponent_heavy" => Self::exponent_heavy(width),
            "uniform" => Self::uniform(width),
            "msb_only" => Self::msb_only(width),
            "lsb_only" => Self::lsb_only(width),
            _ => return None,
        })
    }

    /// The bit width this model injects into.
    pub fn width(&self) -> BitWidth {
        self.width
    }

    /// The stable distribution name (`"emulated"`, `"uniform"`,
    /// `"exponent_heavy"`, `"msb_only"`, `"lsb_only"`, or `"custom"` for
    /// [`from_weights`](Self::from_weights) models).
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// The normalized per-bit probabilities (LSB first).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Samples a bit index to flip using the given entropy source.
    pub fn sample_bit(&self, lfsr: &mut Lfsr) -> usize {
        let u = lfsr.next_f64();
        // Binary search the cumulative distribution.
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("cumulative weights are finite"))
        {
            Ok(i) => (i + 1).min(self.cumulative.len() - 1),
            Err(i) => i,
        }
    }
}

impl Default for BitFaultModel {
    fn default() -> Self {
        Self::emulated()
    }
}

/// Running statistics collected by a fault-injecting FPU.
///
/// All counters are mutated through exactly one entry point,
/// [`record_fault`](Self::record_fault), so the structural invariants —
/// the bit histogram sums to [`faults`](Self::faults), and the
/// mantissa/high-bit split partitions it — hold by construction no matter
/// which injection path (transient corruption, memory install) recorded
/// the event.
///
/// # Examples
///
/// ```
/// use stochastic_fpu::FaultStats;
///
/// let stats = FaultStats::default();
/// assert_eq!(stats.faults(), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total faults injected.
    faults: u64,
    /// Faults that landed in the sign or exponent field.
    high_bit_faults: u64,
    /// Faults that landed in the mantissa field.
    mantissa_faults: u64,
    /// Per-bit-position fault counts, LSB first (grown on demand; a fault
    /// event records exactly one position — its primary/sampled bit — so
    /// the histogram always sums to `faults`).
    bit_histogram: Vec<u64>,
}

impl FaultStats {
    /// Records one fault event at `bit` for the given width — the single
    /// owner of every counter update (both the transient corruption path
    /// and the memory-persistent install path call this and nothing else).
    pub fn record_fault(&mut self, width: BitWidth, bit: usize) {
        self.faults += 1;
        if bit >= width.mantissa_bits() {
            self.high_bit_faults += 1;
        } else {
            self.mantissa_faults += 1;
        }
        if self.bit_histogram.len() <= bit {
            self.bit_histogram.resize(bit + 1, 0);
        }
        self.bit_histogram[bit] += 1;
    }

    /// Total faults injected.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Faults that landed in the sign or exponent field.
    pub fn high_bit_faults(&self) -> u64 {
        self.high_bit_faults
    }

    /// Faults that landed in the mantissa field.
    pub fn mantissa_faults(&self) -> u64 {
        self.mantissa_faults
    }

    /// Per-bit-position fault counts, LSB first. Positions beyond the
    /// highest recorded bit are omitted; the entries always sum to
    /// [`faults`](Self::faults).
    pub fn bit_histogram(&self) -> &[u64] {
        &self.bit_histogram
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flips one bit of `value` drawn from `model`.
    fn corrupt(model: &BitFaultModel, value: f64, lfsr: &mut Lfsr) -> f64 {
        model.width().xor(value, 1 << model.sample_bit(lfsr))
    }

    fn sample_histogram(model: &BitFaultModel, n: usize) -> Vec<f64> {
        let mut lfsr = Lfsr::new(0xFEED);
        let mut counts = vec![0u64; model.width().bits()];
        for _ in 0..n {
            counts[model.sample_bit(&mut lfsr)] += 1;
        }
        counts.iter().map(|&c| c as f64 / n as f64).collect()
    }

    #[test]
    fn weights_are_normalized() {
        for model in [
            BitFaultModel::emulated(),
            BitFaultModel::uniform(BitWidth::F64),
            BitFaultModel::msb_only(BitWidth::F32),
            BitFaultModel::lsb_only(BitWidth::F64),
        ] {
            let sum: f64 = model.weights().iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "weights sum to {sum}");
        }
    }

    #[test]
    fn emulated_is_bimodal() {
        let model = BitFaultModel::emulated();
        let w = model.weights();
        let mant = BitWidth::F64.mantissa_bits();
        let top_mantissa: f64 = w[mant - 8..mant].iter().sum();
        let exponent: f64 = w[mant..].iter().sum();
        let low: f64 = w[..mant / 2].iter().sum();
        let mid: f64 = w[mant / 2..mant - 8].iter().sum();
        assert!(top_mantissa > 0.5, "top-mantissa mass {top_mantissa}");
        assert!(
            (0.01..0.1).contains(&exponent),
            "exponent tail mass {exponent}"
        );
        assert!(low > 0.35, "low-bit mass {low}");
        assert!(mid < 0.01, "mid-mantissa mass {mid} should be ~0");
    }

    #[test]
    fn exponent_heavy_is_mostly_catastrophic() {
        let model = BitFaultModel::exponent_heavy(BitWidth::F64);
        let w = model.weights();
        let mant = BitWidth::F64.mantissa_bits();
        let exponent: f64 = w[mant..].iter().sum();
        assert!(exponent > 0.5, "exponent mass {exponent}");
    }

    #[test]
    fn emulated_faults_have_bounded_relative_error_mostly() {
        // The defining property of the emulated model: most faults perturb
        // the value by a bounded relative amount (mantissa flips change a
        // finite value by at most a factor of ~2).
        let model = BitFaultModel::emulated();
        let mut lfsr = Lfsr::new(77);
        let n = 20_000;
        let mut bounded = 0;
        for _ in 0..n {
            let c = corrupt(&model, 3.7, &mut lfsr);
            let rel = ((c - 3.7) / 3.7).abs();
            if rel <= 1.0 {
                bounded += 1;
            }
        }
        let frac = bounded as f64 / n as f64;
        assert!(frac > 0.9, "only {frac} of faults were bounded");
    }

    #[test]
    fn sampling_matches_weights() {
        let model = BitFaultModel::emulated();
        let hist = sample_histogram(&model, 200_000);
        for (i, (&h, &w)) in hist.iter().zip(model.weights()).enumerate() {
            assert!((h - w).abs() < 0.01, "bit {i}: sampled {h}, expected {w}");
        }
    }

    #[test]
    fn uniform_sampling_covers_all_bits() {
        let model = BitFaultModel::uniform(BitWidth::F32);
        let hist = sample_histogram(&model, 100_000);
        for (i, &h) in hist.iter().enumerate() {
            assert!(h > 0.0, "bit {i} never sampled");
        }
    }

    #[test]
    fn msb_only_never_touches_mantissa() {
        let model = BitFaultModel::msb_only(BitWidth::F64);
        let mut lfsr = Lfsr::new(3);
        for _ in 0..10_000 {
            let bit = model.sample_bit(&mut lfsr);
            assert!(bit >= 52, "sampled mantissa bit {bit}");
        }
    }

    #[test]
    fn lsb_only_errors_are_small() {
        let model = BitFaultModel::lsb_only(BitWidth::F64);
        let mut lfsr = Lfsr::new(3);
        for _ in 0..1000 {
            let corrupted = corrupt(&model, 1.0, &mut lfsr);
            assert!(
                (corrupted - 1.0).abs() < 1e-7,
                "low-bit flip changed 1.0 to {corrupted}"
            );
        }
    }

    #[test]
    fn msb_faults_are_large_or_special() {
        let model = BitFaultModel::msb_only(BitWidth::F64);
        let mut lfsr = Lfsr::new(17);
        for _ in 0..1000 {
            let corrupted = corrupt(&model, 1.0, &mut lfsr);
            let changed = corrupted != 1.0;
            assert!(changed, "exponent/sign flip left value unchanged");
            // The smallest exponent-field perturbation of 1.0 flips the
            // exponent LSB, halving the value: |0.5 - 1.0| = 0.5 exactly.
            let big = !corrupted.is_finite() || (corrupted - 1.0).abs() >= 0.5;
            assert!(big, "MSB flip produced small perturbation {corrupted}");
        }
    }

    #[test]
    fn corrupt_flips_exactly_one_bit_f64() {
        let model = BitFaultModel::uniform(BitWidth::F64);
        let mut lfsr = Lfsr::new(9);
        for &v in &[0.0, 1.0, -3.25, 1e300, 1e-300] {
            let c = corrupt(&model, v, &mut lfsr);
            let diff = (v.to_bits() ^ c.to_bits()).count_ones();
            assert_eq!(diff, 1, "value {v} -> {c} flipped {diff} bits");
        }
    }

    #[test]
    fn corrupt_f32_stays_in_f32_grid() {
        let model = BitFaultModel::uniform(BitWidth::F32);
        let mut lfsr = Lfsr::new(9);
        let c = corrupt(&model, 1.5, &mut lfsr);
        // Round-tripping through f32 must be exact for an injected f32 value.
        assert_eq!(c, c as f32 as f64);
    }

    #[test]
    fn zero_mask_is_a_perfect_no_op_even_for_f32() {
        // A healthy f32-width slot must not round values through f32.
        let exact = 1.0 + 1e-12;
        assert_eq!(BitWidth::F32.xor(exact, 0), exact);
        assert_ne!(BitWidth::F32.xor(exact, 1), exact);
    }

    #[test]
    fn fault_rate_conversions() {
        assert_eq!(FaultRate::per_flop(0.25).percent(), 25.0);
        assert_eq!(FaultRate::percent_of_flops(50.0).fraction(), 0.5);
        assert_eq!(FaultRate::per_flop(0.01).mean_interval(), 100.0);
        assert_eq!(FaultRate::ZERO.mean_interval(), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "fault rate fraction")]
    fn fault_rate_rejects_negative() {
        FaultRate::per_flop(-0.1);
    }

    #[test]
    #[should_panic(expected = "fault rate fraction")]
    fn fault_rate_rejects_above_one() {
        FaultRate::per_flop(1.5);
    }

    #[test]
    #[should_panic(expected = "weights")]
    fn from_weights_rejects_wrong_length() {
        BitFaultModel::from_weights(BitWidth::F32, &[1.0; 64]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn from_weights_rejects_all_zero() {
        BitFaultModel::from_weights(BitWidth::F32, &[0.0; 32]);
    }

    #[test]
    fn fault_stats_classifies_fields() {
        let mut stats = FaultStats::default();
        stats.record_fault(BitWidth::F64, 0); // mantissa
        stats.record_fault(BitWidth::F64, 63); // sign
        stats.record_fault(BitWidth::F64, 52); // exponent LSB
        assert_eq!(stats.faults(), 3);
        assert_eq!(stats.mantissa_faults(), 1);
        assert_eq!(stats.high_bit_faults(), 2);
        assert_eq!(stats.bit_histogram().iter().sum::<u64>(), 3);
        assert_eq!(stats.bit_histogram()[0], 1);
        assert_eq!(stats.bit_histogram()[52], 1);
        assert_eq!(stats.bit_histogram()[63], 1);
    }

    #[test]
    fn preset_kinds_are_stable() {
        assert_eq!(BitFaultModel::emulated().kind(), "emulated");
        assert_eq!(BitFaultModel::uniform(BitWidth::F32).kind(), "uniform");
        assert_eq!(
            BitFaultModel::exponent_heavy(BitWidth::F64).kind(),
            "exponent_heavy"
        );
        assert_eq!(BitFaultModel::msb_only(BitWidth::F64).kind(), "msb_only");
        assert_eq!(BitFaultModel::lsb_only(BitWidth::F64).kind(), "lsb_only");
        assert_eq!(
            BitFaultModel::from_weights(BitWidth::F32, &[1.0; 32]).kind(),
            "custom"
        );
    }
}
