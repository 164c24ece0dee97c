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

/// The one NaN encoding every fault starts from: a NaN result or operand
/// is rewritten to these `f64` bits (the quiet NaN with the sign set and
/// an empty payload) before any bit of it flips. Rust leaves the payload
/// of an arithmetic NaN unspecified, so without this rule a flip could
/// turn a codegen choice into finite, different trial bits.
pub const CANONICAL_NAN: u64 = 0xfff8_0000_0000_0000;

/// [`CANONICAL_NAN`] narrowed to `f32`.
const CANONICAL_NAN_F32: u32 = 0xffc0_0000;

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

    /// The encoding of `value` in this width: the `f64` bits, or the bits
    /// of `value` rounded to `f32`. A NaN encodes as the canonical NaN
    /// ([`CANONICAL_NAN`], narrowed for `f32`) whatever its payload, so a
    /// fault's outcome never depends on which NaN payload codegen left in
    /// the value it strikes.
    pub(crate) fn encode(self, value: f64) -> u64 {
        match (self, value.is_nan()) {
            (BitWidth::F32, true) => u64::from(CANONICAL_NAN_F32),
            (BitWidth::F32, false) => u64::from((value as f32).to_bits()),
            (BitWidth::F64, true) => CANONICAL_NAN,
            (BitWidth::F64, false) => value.to_bits(),
        }
    }

    /// The value of an encoding in this width, widened back to `f64`.
    pub(crate) fn decode(self, bits: u64) -> f64 {
        match self {
            BitWidth::F32 => f32::from_bits(bits as u32) as f64,
            BitWidth::F64 => f64::from_bits(bits),
        }
    }

    /// XORs `mask` into the [`encode`](Self::encode)d `value`. An empty
    /// mask returns `value` untouched, not even rounded through `f32` or
    /// canonicalized, so a healthy storage slot never perturbs the values
    /// passing through it. Every injected flip goes through here.
    pub(crate) fn xor(self, value: f64, mask: u64) -> f64 {
        if mask == 0 {
            return value;
        }
        self.decode(self.encode(value) ^ mask)
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

/// Buckets in [`BitFaultModel`]'s guide table: a power of two, so a
/// draw's bucket `⌊u·M⌋` and every bucket edge `j/M` are exact.
const GUIDE_BUCKETS: usize = 256;

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
    /// Cumulative distribution for sampling, same length as `weights`:
    /// monotone, and exactly 1.0 from the last positive weight onward.
    cumulative: Vec<f64>,
    /// Guide table over `cumulative`: `guide[j]` is the smallest `i` with
    /// `cumulative[i] > j / GUIDE_BUCKETS`, where a draw's scan starts.
    guide: [u8; GUIDE_BUCKETS],
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
            cumulative.push(acc.min(1.0));
        }
        // Round-off can push the running sum above 1.0 (clamped above) or
        // leave it just below 1.0 after the last positive weight, where a
        // draw above it would land on a zero-weight bit past it. Pinning
        // the whole tail to 1.0 keeps the cumulative monotone and every
        // draw on a bit that has weight.
        let last_positive = weights
            .iter()
            .rposition(|&w| w > 0.0)
            .expect("a positive weight");
        cumulative[last_positive..].fill(1.0);
        let mut guide = [0u8; GUIDE_BUCKETS];
        let mut i = 0;
        for (j, g) in guide.iter_mut().enumerate() {
            let edge = j as f64 / GUIDE_BUCKETS as f64;
            while cumulative[i] <= edge {
                i += 1;
            }
            *g = i as u8;
        }
        BitFaultModel {
            width,
            weights,
            cumulative,
            guide,
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
    ///
    /// Takes exactly one [`Lfsr::next_f64`] draw `u` and returns the
    /// smallest bit `i` whose cumulative weight exceeds `u`, so each bit
    /// is drawn with its normalized weight (up to round-off) and a
    /// zero-weight bit never is. The lookup is an indexed (guide-table)
    /// search: entry `⌊u·M⌋` of an `M`-bucket table that
    /// [`from_weights`](Self::from_weights) precomputes names the first
    /// candidate, and a short forward scan finishes in O(1) expected
    /// steps.
    pub fn sample_bit(&self, lfsr: &mut Lfsr) -> usize {
        self.bit_at(lfsr.next_f64())
    }

    /// The bit a draw of `u ∈ [0, 1)` selects: the smallest `i` with
    /// `cumulative[i] > u`. The guide entry for `u`'s bucket is a lower
    /// bound on it (`⌊u·M⌋/M ≤ u`), and the scan ends by the last entry,
    /// which is 1.0.
    fn bit_at(&self, u: f64) -> usize {
        let mut i = self.guide[(u * GUIDE_BUCKETS as f64) as usize] as usize;
        while self.cumulative[i] <= u {
            i += 1;
        }
        i
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

    /// The sampler's former lookup, kept only as the reference for the
    /// guide table: a cumulative with just its last entry forced to 1.0,
    /// binary-searched.
    struct BinarySearchSampler {
        cumulative: Vec<f64>,
    }

    impl BinarySearchSampler {
        fn new(model: &BitFaultModel) -> Self {
            let mut cumulative = Vec::with_capacity(model.weights().len());
            let mut acc = 0.0;
            for &w in model.weights() {
                acc += w;
                cumulative.push(acc);
            }
            *cumulative.last_mut().expect("non-empty weights") = 1.0;
            BinarySearchSampler { cumulative }
        }

        fn bit_at(&self, u: f64) -> usize {
            match self
                .cumulative
                .binary_search_by(|c| c.partial_cmp(&u).expect("cumulative weights are finite"))
            {
                Ok(i) => (i + 1).min(self.cumulative.len() - 1),
                Err(i) => i,
            }
        }
    }

    /// Every preset at both widths, plus custom weights with leading,
    /// interior and trailing zero runs, and a vanishing last weight behind
    /// a running sum that rounds above 1.
    fn sampler_models() -> Vec<BitFaultModel> {
        let mut models = Vec::new();
        for kind in [
            "emulated",
            "exponent_heavy",
            "uniform",
            "msb_only",
            "lsb_only",
        ] {
            for width in [BitWidth::F64, BitWidth::F32] {
                models.push(BitFaultModel::from_kind(kind, width).expect("preset"));
            }
        }
        let mut runs = vec![0.0; 64];
        runs[3..11].fill(1.0);
        runs[40..51].fill(3.0);
        models.push(BitFaultModel::from_weights(BitWidth::F64, &runs));
        let mut single = vec![0.0; 64];
        single[30] = 1.0;
        models.push(BitFaultModel::from_weights(BitWidth::F64, &single));
        // Nine ninths sum to 1 + 1 ulp, ahead of a last positive weight
        // too small to bring the running sum back to 1.0.
        let mut vanishing = vec![0.0; 64];
        vanishing[..9].fill(1.0);
        vanishing[9] = 1e-18;
        models.push(BitFaultModel::from_weights(BitWidth::F64, &vanishing));
        let mut ends = vec![0.0; 32];
        ends[0] = 1.0;
        ends[20] = 2.0;
        models.push(BitFaultModel::from_weights(BitWidth::F32, &ends));
        let alternating: Vec<f64> = (0..32).map(|i| (i % 2) as f64).collect();
        models.push(BitFaultModel::from_weights(BitWidth::F32, &alternating));
        models
    }

    fn label(model: &BitFaultModel) -> String {
        format!("{} {}", model.kind(), model.width().name())
    }

    #[test]
    fn cumulative_is_monotone_ends_at_one_and_guides_exactly() {
        for model in sampler_models() {
            let c = &model.cumulative;
            assert!(
                c.windows(2).all(|w| w[0] <= w[1]),
                "{}: not monotone",
                label(&model)
            );
            assert_eq!(c.last(), Some(&1.0), "{}", label(&model));
            for (j, &g) in model.guide.iter().enumerate() {
                let edge = j as f64 / GUIDE_BUCKETS as f64;
                let first = c.iter().position(|&x| x > edge).expect("ends at 1.0");
                assert_eq!(g as usize, first, "{}: guide[{j}]", label(&model));
            }
        }
    }

    #[test]
    fn guide_table_draws_match_the_binary_search() {
        for model in sampler_models() {
            let reference = BinarySearchSampler::new(&model);
            let mut lfsr = Lfsr::new(0x5EED_B175);
            let mut shadow = lfsr.clone();
            for n in 0..1_000_000 {
                let bit = model.sample_bit(&mut lfsr);
                let expected = reference.bit_at(shadow.next_f64());
                assert_eq!(bit, expected, "{}: draw {n}", label(&model));
            }
            assert_eq!(lfsr, shadow, "{}: one draw per sample", label(&model));
        }
    }

    #[test]
    fn guide_table_matches_the_binary_search_at_every_edge() {
        for model in sampler_models() {
            let reference = BinarySearchSampler::new(&model);
            let mut probes = vec![0.0, 1.0 - f64::EPSILON / 2.0];
            for &c in model.cumulative.iter().chain(&reference.cumulative) {
                probes.extend([c.next_down(), c, c.next_up()]);
            }
            probes.extend((0..GUIDE_BUCKETS).map(|j| j as f64 / GUIDE_BUCKETS as f64));
            for u in probes.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                let bit = model.bit_at(u);
                assert!(
                    model.weights()[bit] > 0.0,
                    "{}: u = {u:e} drew zero-weight bit {bit}",
                    label(&model)
                );
                let expected = reference.bit_at(u);
                if model.weights()[expected] > 0.0 {
                    assert_eq!(bit, expected, "{}: u = {u:e}", label(&model));
                }
            }
        }
    }

    #[test]
    fn round_off_never_reaches_a_zero_weight_bit() {
        // The top draw lands on the last positive-weight bit, not on the
        // sign bit that round-off used to leave reachable for `lsb_only`.
        let top = 1.0 - f64::EPSILON / 2.0;
        for width in [BitWidth::F64, BitWidth::F32] {
            let model = BitFaultModel::lsb_only(width);
            assert_eq!(model.bit_at(top), width.mantissa_bits() / 2 - 1);
        }
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
    fn every_nan_flips_from_the_canonical_encoding() {
        let payloads = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ffe_2c00_0000_0001),
            f64::from_bits(0x7fff_2c00_0000_0001),
        ];
        for width in [BitWidth::F64, BitWidth::F32] {
            for mask in [1u64, 1 << 20, 1 << 30] {
                let flipped: Vec<u64> = payloads
                    .iter()
                    .map(|&nan| width.xor(nan, mask).to_bits())
                    .collect();
                assert!(
                    flipped.iter().all(|&bits| bits == flipped[0]),
                    "{width:?} mask {mask:#x}: {flipped:x?}"
                );
            }
        }
        assert_eq!(BitWidth::F64.xor(f64::NAN, 1).to_bits(), CANONICAL_NAN ^ 1);
        // A flip of the sign bit leaves a NaN with a clear sign.
        assert_eq!(
            BitWidth::F64.xor(-f64::NAN, 1 << 63).to_bits(),
            CANONICAL_NAN ^ (1 << 63)
        );
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
