//! Memory-persistent fault models: corruptions that live in *state*.
//!
//! Every scenario in [`model`](crate::model) is transient: a fault
//! corrupts the result (or operand) of exactly one operation and is gone.
//! Real storage misbehaves differently — a particle strike or a
//! low-voltage retention failure flips a bit *in a latch or SRAM cell*,
//! and the flip stays resident until the cell is rewritten or a scrubber
//! sweeps it. This module models that persistence:
//!
//! * [`MemoryFaultModel`] — the plain-data description of a persistent
//!   fault scenario: which storage structure is fault-prone
//!   ([`MemoryFaultKind`]), how many slots it has, the bit-position
//!   distribution of upsets, and an optional scrub interval.
//! * [`MemoryFaultState`] — the mutable shadow state a
//!   [`NoisyFpu`](crate::NoisyFpu) keeps while executing under a memory
//!   fault model: one XOR mask per storage slot, accumulated by strikes
//!   and cleared by scrubs/overwrites.
//!
//! # Semantics
//!
//! Values are routed through storage slots round-robin by FLOP index, the
//! deterministic stand-in for real register allocation / array layout:
//!
//! * **Register file** ([`MemoryFaultKind::RegisterFile`]): a strike
//!   damages the latch of one register — subsequently *every result*
//!   written through register `flop % registers` comes back with the
//!   damaged bits XORed in. Rewrites do not heal latch damage; only a
//!   scrub (a repair cycle every `scrub_interval` FLOPs) clears it.
//! * **Array-resident** ([`MemoryFaultKind::ArrayResident`]): a strike
//!   flips a bit of one *stored word* — subsequently every operand read
//!   from that word (operand `a` reads word `2·flop % words`, operand `b`
//!   reads `(2·flop + 1) % words`) is corrupted, until the word is
//!   overwritten (each op writes its result to word `flop % words`,
//!   replacing the stored bits) or scrubbed. The op that suffers the
//!   strike commits its own result exactly; the corruption surfaces only
//!   through later reads — the fault persists *between* operations.
//!
//! In both kinds a fault installed at FLOP `t` is visible from FLOP
//! `t + 1` on, and stays until a scrub or (array-resident) an overwrite —
//! the invariant the persistence proptests pin down.
//!
//! The FPU runs an op through the state only at its event horizon: the
//! state names the next op that touches a corrupted slot or falls on a
//! scrub boundary while a slot is corrupted
//! (`MemoryFaultState::next_touch`), and every op before it has no
//! memory effect, so it runs exactly.

use crate::fault::{BitFaultModel, FaultStats};
use crate::fpu::FlopOp;
use crate::json::{JsonCodec, JsonValue};
use crate::json_object;
use crate::lfsr::Lfsr;
use crate::model::read_bit_model;

/// Which storage structure a persistent fault lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryFaultKind {
    /// Latch damage in the register file: corrupts results on the write
    /// path, healed only by scrubbing.
    RegisterFile,
    /// A flipped bit in an array-resident word: corrupts operands on the
    /// read path, healed by overwrite or scrub.
    ArrayResident,
}

impl MemoryFaultKind {
    /// Stable lower-case name used in serializations.
    pub fn name(self) -> &'static str {
        match self {
            MemoryFaultKind::RegisterFile => "register_file",
            MemoryFaultKind::ArrayResident => "array_resident",
        }
    }
}

/// A serializable description of a memory-persistent fault scenario.
///
/// # Examples
///
/// ```
/// use stochastic_fpu::{BitFaultModel, MemoryFaultModel};
///
/// let regfile = MemoryFaultModel::register_file(32, BitFaultModel::emulated(), 1000);
/// assert_eq!(regfile.name(), "regfile32_scrub1000_emulated");
/// let array = MemoryFaultModel::array_resident(64, BitFaultModel::emulated(), 0);
/// assert_eq!(array.name(), "array64_scrub0_emulated");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryFaultModel {
    kind: MemoryFaultKind,
    slots: usize,
    bits: BitFaultModel,
    scrub_interval: u64,
}

impl MemoryFaultModel {
    /// Latch damage in a `registers`-entry register file, upset bit
    /// positions drawn from `bits`, scrubbed every `scrub_interval` FLOPs
    /// (`0` = never scrubbed).
    ///
    /// # Panics
    ///
    /// Panics if `registers == 0`.
    pub fn register_file(registers: usize, bits: BitFaultModel, scrub_interval: u64) -> Self {
        assert!(registers > 0, "register file needs at least one register");
        MemoryFaultModel {
            kind: MemoryFaultKind::RegisterFile,
            slots: registers,
            bits,
            scrub_interval,
        }
    }

    /// Stored-word upsets in a `words`-entry data array, upset bit
    /// positions drawn from `bits`, scrubbed every `scrub_interval` FLOPs
    /// (`0` = never scrubbed).
    ///
    /// # Panics
    ///
    /// Panics if `words == 0`.
    pub fn array_resident(words: usize, bits: BitFaultModel, scrub_interval: u64) -> Self {
        assert!(words > 0, "array needs at least one word");
        MemoryFaultModel {
            kind: MemoryFaultKind::ArrayResident,
            slots: words,
            bits,
            scrub_interval,
        }
    }

    /// The storage structure the faults live in.
    pub fn kind(&self) -> MemoryFaultKind {
        self.kind
    }

    /// Number of storage slots (registers or words).
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The bit-position distribution of upsets.
    pub fn bits(&self) -> &BitFaultModel {
        &self.bits
    }

    /// FLOPs between scrub cycles (`0` = never scrubbed).
    pub fn scrub_interval(&self) -> u64 {
        self.scrub_interval
    }

    /// A short stable name for emitters and diagnostics.
    pub fn name(&self) -> String {
        let prefix = match self.kind {
            MemoryFaultKind::RegisterFile => "regfile",
            MemoryFaultKind::ArrayResident => "array",
        };
        format!(
            "{prefix}{}_scrub{}_{}",
            self.slots,
            self.scrub_interval,
            self.bits.kind()
        )
    }
}

/// One object, `"kind"` `"register_file"` or `"array_resident"`; it is
/// also the wire form of [`FaultModelSpec::Memory`](crate::FaultModelSpec).
impl JsonCodec for MemoryFaultModel {
    fn to_value(&self) -> JsonValue {
        json_object!(
            "kind" => self.kind.name(), "slots" => self.slots, "scrub_interval" => self.scrub_interval,
            "distribution" => self.bits.kind(), "width" => self.bits.width().name(),
        )
    }

    fn from_value(value: &JsonValue) -> Result<Self, String> {
        let f = value.fields("memory fault model");
        let build = match f.get("kind")? {
            "register_file" => Self::register_file,
            "array_resident" => Self::array_resident,
            other => return Err(format!("unknown memory fault kind \"{other}\"")),
        };
        let slots = f.check("a positive", "slots", |s: &usize| *s > 0)?;
        let scrub_interval = f.get("scrub_interval")?;
        Ok(build(slots, read_bit_model(f)?, scrub_interval))
    }
}

/// The mutable shadow state of one FPU executing under a
/// [`MemoryFaultModel`]: an XOR mask per storage slot.
///
/// Owned and driven by [`NoisyFpu`](crate::NoisyFpu); exposed read-only so
/// tests and diagnostics can observe which slots are corrupted. A bitmap
/// of the corrupted slots, kept by installs, heals and scrubs, tells the
/// FPU the next op that touches one (`next_touch`): every op before it
/// reads no corruption, writes none and heals nothing, so the FPU runs
/// it exactly, and the state sees only that op and the strikes.
#[derive(Debug, Clone)]
pub struct MemoryFaultState {
    model: MemoryFaultModel,
    masks: Vec<u64>,
    /// Number of nonzero masks.
    dirty: usize,
    /// Bit `s` is set iff `masks[s] != 0`.
    dirty_bits: Vec<u64>,
}

impl MemoryFaultState {
    /// A fresh (uncorrupted) shadow state for `model`.
    pub fn new(model: MemoryFaultModel) -> Self {
        let masks = vec![0; model.slots];
        let dirty_bits = vec![0; model.slots.div_ceil(64)];
        MemoryFaultState {
            model,
            masks,
            dirty: 0,
            dirty_bits,
        }
    }

    /// The model this state implements.
    pub fn model(&self) -> &MemoryFaultModel {
        &self.model
    }

    /// The per-slot XOR masks (a zero mask means the slot is healthy).
    pub fn masks(&self) -> &[u64] {
        &self.masks
    }

    /// Number of currently corrupted slots, in O(1).
    pub fn corrupted_slots(&self) -> usize {
        self.dirty
    }

    /// The first op at or after FLOP `flop` that reads or writes a
    /// corrupted slot or falls on a scrub boundary; `u64::MAX` while
    /// every slot is clean, where a scrub clears nothing.
    ///
    /// Array-resident reads sweep words `2f` and `2f + 1` (two per FLOP),
    /// writes sweep word `f` (one per FLOP); the register file is touched
    /// by writes only. With `d` the cyclic distance from a sweep's start
    /// to the next corrupted slot, the first read touch lies
    /// `⌊d_read / 2⌋` ops on and the first write touch `d_write` ops on.
    pub(crate) fn next_touch(&self, flop: u64) -> u64 {
        if self.dirty == 0 {
            return u64::MAX;
        }
        let n = self.masks.len() as u64;
        let mut run = self.distance_to_dirty((flop % n) as usize);
        if self.model.kind == MemoryFaultKind::ArrayResident {
            let read = self.distance_to_dirty((flop % n * 2 % n) as usize) / 2;
            run = run.min(read);
        }
        let touch = flop.saturating_add(run as u64);
        match self.model.scrub_interval {
            0 => touch,
            interval => touch.min(flop.div_ceil(interval).max(1).saturating_mul(interval)),
        }
    }

    /// The cyclic distance from slot `start` to the first corrupted slot
    /// at or after it. Needs a corrupted slot.
    fn distance_to_dirty(&self, start: usize) -> usize {
        let mut word = start / 64;
        let mut bits = self.dirty_bits[word] & (!0 << (start % 64));
        while bits == 0 {
            word += 1;
            if word == self.dirty_bits.len() {
                word = 0;
            }
            bits = self.dirty_bits[word];
        }
        let found = word * 64 + bits.trailing_zeros() as usize;
        if found < start {
            found + self.masks.len() - start
        } else {
            found - start
        }
    }

    /// Executes FLOP `flop` through storage and returns its committed
    /// result. A scrub boundary (a positive multiple of the scrub
    /// interval) first clears every mask. Array-resident operands then
    /// read words `2·flop` and `2·flop + 1` (mod words), with their
    /// damage XORed in, and the result overwrites (and so heals) word
    /// `flop`; a register-file result comes back with the damage of
    /// register `flop` (mod registers) XORed in.
    pub(crate) fn execute(&mut self, flop: u64, op: FlopOp, a: f64, b: f64) -> f64 {
        let interval = self.model.scrub_interval;
        if self.dirty > 0 && interval > 0 && flop > 0 && flop.is_multiple_of(interval) {
            self.masks.fill(0);
            self.dirty_bits.fill(0);
            self.dirty = 0;
        }
        if self.dirty == 0 {
            return op.exact(a, b);
        }
        let n = self.masks.len() as u64;
        let slot = (flop % n) as usize;
        let width = self.model.bits.width();
        match self.model.kind {
            MemoryFaultKind::RegisterFile => width.xor(op.exact(a, b), self.masks[slot]),
            MemoryFaultKind::ArrayResident => {
                let word = |w: u64| self.masks[(w % n) as usize];
                let a = width.xor(a, word(2 * flop));
                let b = width.xor(b, word(2 * flop + 1));
                if self.masks[slot] != 0 {
                    self.masks[slot] = 0;
                    self.dirty -= 1;
                    self.dirty_bits[slot / 64] &= !(1 << (slot % 64));
                }
                op.exact(a, b)
            }
        }
    }

    /// Installs one new persistent fault: a slot drawn uniformly from the
    /// LFSR gains a flipped bit drawn from the model's distribution.
    /// Records the upset into `stats`. Called by the FPU when its fault
    /// schedule strikes; the damage is visible from the *next* access of
    /// the slot on.
    pub fn install(&mut self, lfsr: &mut Lfsr, stats: &mut FaultStats) {
        let slot = (lfsr.uniform_1_to(self.model.slots as u64) - 1) as usize;
        let bit = self.model.bits.sample_bit(lfsr);
        if self.masks[slot] == 0 {
            self.dirty += 1;
            self.dirty_bits[slot / 64] |= 1 << (slot % 64);
        }
        self.masks[slot] |= 1u64 << bit;
        stats.record_fault(self.model.bits.width(), bit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{BitFaultModel, BitWidth};

    fn lfsr() -> Lfsr {
        Lfsr::new(7)
    }

    #[test]
    fn names_and_json_are_stable() {
        let m = MemoryFaultModel::register_file(32, BitFaultModel::emulated(), 500);
        assert_eq!(m.name(), "regfile32_scrub500_emulated");
        assert_eq!(
            m.to_json(),
            "{\"kind\":\"register_file\",\"slots\":32,\"scrub_interval\":500,\
             \"distribution\":\"emulated\",\"width\":\"f64\"}"
        );
        let a = MemoryFaultModel::array_resident(8, BitFaultModel::uniform(BitWidth::F64), 0);
        assert_eq!(a.name(), "array8_scrub0_uniform");
        assert!(a.to_json().contains("\"kind\":\"array_resident\""));
    }

    #[test]
    fn register_file_damage_persists_across_writes() {
        let model = MemoryFaultModel::register_file(4, BitFaultModel::lsb_only(BitWidth::F64), 0);
        let mut state = MemoryFaultState::new(model);
        let mut stats = FaultStats::default();
        state.install(&mut lfsr(), &mut stats);
        assert_eq!(stats.faults(), 1);
        assert_eq!(state.corrupted_slots(), 1);
        let damaged = state
            .masks()
            .iter()
            .position(|&m| m != 0)
            .expect("one slot");
        // Every write routed through the damaged register is corrupted —
        // on every pass, since rewrites do not heal latch damage.
        for round in 0..8u64 {
            let flop = round * 4 + damaged as u64;
            let out = state.execute(flop, FlopOp::Add, 1.0, 1.0);
            assert_ne!(out, 2.0, "round {round}: damaged latch must corrupt");
            let healthy = state.execute(flop + 1, FlopOp::Add, 1.0, 1.0);
            assert_eq!(healthy, 2.0, "neighbouring register is healthy");
        }
    }

    #[test]
    fn array_word_corrupts_reads_until_overwritten() {
        let model = MemoryFaultModel::array_resident(8, BitFaultModel::lsb_only(BitWidth::F64), 0);
        let mut state = MemoryFaultState::new(model);
        let mut stats = FaultStats::default();
        state.install(&mut lfsr(), &mut stats);
        let word = state
            .masks()
            .iter()
            .position(|&m| m != 0)
            .expect("one word");
        // Operand `a` of flop f reads word 2f % 8 (even words), operand `b`
        // reads (2f + 1) % 8 (odd words); flops f and f + 4 read the same
        // words, and one of them writes another word than `word`.
        let reading = [word / 2, word / 2 + 4]
            .into_iter()
            .find(|&f| f % 8 != word)
            .expect("a reading flop that does not overwrite") as u64;
        // The healthy operand is 0.0, so the sum is the operand read.
        let (a, b) = if word % 2 == 0 {
            (1.5, 0.0)
        } else {
            (0.0, 2.5)
        };
        let read = |state: &mut MemoryFaultState| state.execute(reading, FlopOp::Add, a, b);
        let got = read(&mut state);
        assert_ne!(got, a + b, "the read sees the flip");
        // Still corrupted on a second read: persistence between ops.
        assert_eq!(read(&mut state).to_bits(), got.to_bits());
        // Overwriting the word (result write of flop ≡ word mod 8) heals.
        state.execute(word as u64, FlopOp::Add, 0.0, 0.0);
        assert_eq!(state.corrupted_slots(), 0);
        assert_eq!(read(&mut state), a + b, "overwrite repairs the word");
    }

    #[test]
    fn scrubbing_clears_all_damage() {
        let model = MemoryFaultModel::register_file(4, BitFaultModel::emulated(), 100);
        let mut state = MemoryFaultState::new(model);
        let mut stats = FaultStats::default();
        let mut rng = lfsr();
        for _ in 0..3 {
            state.install(&mut rng, &mut stats);
        }
        assert!(state.corrupted_slots() > 0);
        state.execute(99, FlopOp::Add, 1.0, 1.0);
        assert!(state.corrupted_slots() > 0, "no scrub before the boundary");
        state.execute(100, FlopOp::Add, 1.0, 1.0);
        assert_eq!(state.corrupted_slots(), 0, "scrub boundary clears all");
        assert_eq!(
            state.next_touch(101),
            u64::MAX,
            "clean storage is never touched"
        );
    }

    #[test]
    fn next_touch_finds_the_first_touching_op() {
        let bits = BitFaultModel::emulated();
        for model in [
            MemoryFaultModel::array_resident(7, bits.clone(), 13),
            MemoryFaultModel::array_resident(70, bits.clone(), 0),
            MemoryFaultModel::register_file(5, bits.clone(), 0),
            MemoryFaultModel::register_file(66, bits.clone(), 29),
        ] {
            let mut state = MemoryFaultState::new(model.clone());
            let mut rng = lfsr();
            let mut stats = FaultStats::default();
            let n = model.slots() as u64;
            let array = model.kind() == MemoryFaultKind::ArrayResident;
            let scrub = model.scrub_interval();
            for _ in 0..3 {
                state.install(&mut rng, &mut stats);
                let dirty = |slot: u64| state.masks()[(slot % n) as usize] != 0;
                for flop in 0..200 {
                    let expected = (flop..)
                        .find(|&f| {
                            dirty(f)
                                || (array && (dirty(2 * f) || dirty(2 * f + 1)))
                                || (scrub > 0 && f > 0 && f.is_multiple_of(scrub))
                        })
                        .expect("a dirty slot is touched within one pass");
                    assert_eq!(
                        state.next_touch(flop),
                        expected,
                        "{} at {flop}",
                        model.name()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one register")]
    fn zero_registers_rejected() {
        MemoryFaultModel::register_file(0, BitFaultModel::emulated(), 0);
    }
}
