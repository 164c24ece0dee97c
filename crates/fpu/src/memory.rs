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

use crate::fault::{BitFaultModel, FaultStats};
use crate::json::{JsonCodec, JsonValue};
use crate::json_object;
use crate::lfsr::Lfsr;
use crate::model::read_bit_model;
use std::cell::Cell;

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
/// tests and diagnostics can observe which slots are corrupted.
///
/// Per-FLOP routing costs no division: the state keeps the slot of the op
/// in progress and the next scrub boundary as cursors, advanced by
/// increment and conditional subtract. Only when an op's FLOP index lies
/// more than one pass of the slots ahead of the previous op's (after the
/// FPU skipped a long guaranteed-exact window or rewound its counters)
/// does [`begin_op`](Self::begin_op) re-sync them with a `%`.
///
/// A bitmap of the corrupted slots, kept by installs, heals and scrubs,
/// tells the FPU how many upcoming ops run exactly
/// ([`clean_run`](Self::clean_run)): every op before the first one that
/// reads or writes a corrupted slot, and before the next scrub boundary.
/// Such an op reads no corruption, writes none and heals nothing, so it
/// may run natively. The bounds are cached as absolute FLOP indexes and
/// refreshed only once the ops pass them; a new corrupted slot shortens
/// them in O(1).
#[derive(Debug, Clone)]
pub struct MemoryFaultState {
    model: MemoryFaultModel,
    masks: Vec<u64>,
    /// Number of nonzero masks.
    dirty: usize,
    /// Bit `s` is set iff `masks[s] != 0`.
    dirty_bits: Vec<u64>,
    /// The first FLOP, from the last [`clean_run`](Self::clean_run)
    /// query on, that touches a corrupted slot or falls on a scrub
    /// boundary: the smallest of `next_write`, `next_read` and the next
    /// scrub boundary. Each is [`UNKNOWN`] until computed, and after a
    /// scrub or a rewind.
    next_touch: Cell<u64>,
    /// The first such FLOP whose write slot is corrupted.
    next_write: Cell<u64>,
    /// The first such FLOP that reads a corrupted word (array-resident
    /// only); also [`UNKNOWN`] after a heal, which may have cleaned it.
    next_read: Cell<u64>,
    /// FLOP index of the op in progress (the last `begin_op`);
    /// `u64::MAX` before the first.
    cur: u64,
    /// `cur % slots`: the write slot of the op in progress.
    slot: usize,
    /// The first scrub boundary after `cur`: the smallest positive
    /// multiple of the scrub interval above it (`u64::MAX` when the model
    /// never scrubs).
    next_scrub: u64,
}

/// The `next_touch` of a state whose bound must be recomputed.
const UNKNOWN: u64 = u64::MAX;

impl MemoryFaultState {
    /// A fresh (uncorrupted) shadow state for `model`.
    pub fn new(model: MemoryFaultModel) -> Self {
        let masks = vec![0; model.slots];
        let dirty_bits = vec![0; model.slots.div_ceil(64)];
        let next_scrub = match model.scrub_interval {
            0 => u64::MAX,
            interval => interval,
        };
        MemoryFaultState {
            slot: model.slots - 1,
            model,
            masks,
            dirty: 0,
            dirty_bits,
            next_touch: Cell::new(UNKNOWN),
            next_write: Cell::new(UNKNOWN),
            next_read: Cell::new(UNKNOWN),
            // FLOP "−1": the first op, FLOP 0, takes the increment path.
            cur: u64::MAX,
            next_scrub,
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

    /// The FLOP index of the op in progress (the last
    /// [`begin_op`](Self::begin_op)) and its write slot, `flop % slots`;
    /// `None` before the first op.
    pub fn cursor(&self) -> Option<(u64, usize)> {
        (self.cur != u64::MAX).then_some((self.cur, self.slot))
    }

    /// Positions the cursors at FLOP `flop`, called by the FPU before
    /// executing it, and runs the scrubber: at every
    /// `scrub_interval`-th FLOP boundary all masks clear.
    #[inline]
    pub fn begin_op(&mut self, flop: u64) {
        if flop == self.cur.wrapping_add(1) {
            self.slot += 1;
            if self.slot == self.masks.len() {
                self.slot = 0;
            }
        } else {
            self.resync(flop);
        }
        self.cur = flop;
        if flop == self.next_scrub {
            self.next_scrub = self.next_scrub.saturating_add(self.model.scrub_interval);
            if self.dirty > 0 {
                self.masks.fill(0);
                self.dirty_bits.fill(0);
                self.dirty = 0;
                self.rewind();
            }
        }
    }

    /// Moves the cursors to FLOP `flop` when it does not follow the op in
    /// progress (after a window or a rewind); kept out of the per-op path.
    #[inline(never)]
    fn resync(&mut self, flop: u64) {
        self.slot = self.slot_at(flop);
        self.next_scrub = self.scrub_from(flop);
    }

    /// `flop % slots`, the write slot of FLOP `flop`, without a division
    /// when `flop` lies at most one pass of the slots past the op in
    /// progress. The initial cursor (FLOP "−1" on the last slot) obeys the
    /// same wrapping arithmetic.
    fn slot_at(&self, flop: u64) -> usize {
        let n = self.masks.len();
        let ahead = flop.wrapping_sub(self.cur);
        if ahead <= n as u64 {
            let slot = self.slot + ahead as usize;
            if slot >= n {
                slot - n
            } else {
                slot
            }
        } else {
            (flop % n as u64) as usize
        }
    }

    /// The first scrub boundary at or after FLOP `flop`: the cursor when
    /// `flop` lies after the op in progress and not past the cursor, else
    /// one division (`u64::MAX` when the model never scrubs).
    fn scrub_from(&self, flop: u64) -> u64 {
        let interval = self.model.scrub_interval;
        if interval == 0 {
            return u64::MAX;
        }
        let ahead = flop.wrapping_sub(self.cur);
        if (1..=self.next_scrub.wrapping_sub(self.cur)).contains(&ahead) {
            self.next_scrub
        } else {
            flop.div_ceil(interval).max(1).saturating_mul(interval)
        }
    }

    /// How many ops from FLOP `flop` on run exactly through this storage:
    /// none of them reads or writes a corrupted slot, and none falls on a
    /// scrub boundary. Unbounded (`u64::MAX`) while every slot is clean,
    /// where a scrub clears nothing. O(1) while the cached bound holds.
    ///
    /// Array-resident reads sweep words `2f` and `2f + 1` (two per FLOP),
    /// writes sweep word `f` (one per FLOP); the register file is touched
    /// by writes only. With `d` the cyclic distance from a sweep's start
    /// to the next corrupted slot, the bound is `⌊d_read / 2⌋` ops for the
    /// reads and `d_write` ops for the writes.
    #[inline]
    pub fn clean_run(&self, flop: u64) -> u64 {
        if self.dirty == 0 {
            return u64::MAX;
        }
        let until = self.next_touch.get();
        if until != UNKNOWN && flop <= until {
            return until - flop;
        }
        self.refresh_bounds(flop) - flop
    }

    /// Recomputes the bounds a query at FLOP `flop` has passed (each from
    /// one scan of the dirty-slot bitmap) and returns the first op at or
    /// after `flop` that touches a corrupted slot or falls on a scrub
    /// boundary: the uncached half of [`clean_run`](Self::clean_run), kept
    /// out of line.
    #[inline(never)]
    fn refresh_bounds(&self, flop: u64) -> u64 {
        let stale = |bound: u64| bound == UNKNOWN || flop > bound;
        let slot = self.slot_at(flop);
        let mut until = self.next_write.get();
        if stale(until) {
            until = flop + self.distance_to_dirty(slot) as u64;
            self.next_write.set(until);
        }
        if self.model.kind == MemoryFaultKind::ArrayResident {
            let mut read = self.next_read.get();
            if stale(read) {
                let n = self.masks.len();
                let word = if 2 * slot >= n {
                    2 * slot - n
                } else {
                    2 * slot
                };
                read = flop + (self.distance_to_dirty(word) / 2) as u64;
                self.next_read.set(read);
            }
            until = until.min(read);
        }
        until = until.min(self.scrub_from(flop));
        self.next_touch.set(until);
        until
    }

    /// Forgets the cached [`clean_run`](Self::clean_run) bounds; the FPU
    /// calls it when it rewinds its FLOP counter.
    pub(crate) fn rewind(&self) {
        self.next_touch.set(UNKNOWN);
        self.next_write.set(UNKNOWN);
        self.next_read.set(UNKNOWN);
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

    /// Folds a slot that just became corrupted, during the op in
    /// progress, into the cached [`clean_run`](Self::clean_run) bounds:
    /// the first op that can touch it is the next one, and a bound can
    /// only move closer. A bound that is unknown or already passed stays
    /// so.
    #[inline(never)]
    fn shorten_bound(&self, slot: usize) {
        let next = self.cur.wrapping_add(1);
        let n = self.masks.len();
        let distance = |from: usize| {
            if slot < from {
                slot + n - from
            } else {
                slot - from
            }
        };
        // Each cached bound that is known and not yet passed.
        let shorten = |bound: &Cell<u64>, run: usize| {
            let until = bound.get();
            if until != UNKNOWN && until >= next {
                bound.set(until.min(next + run as u64));
            }
        };
        let write = if self.slot + 1 == n { 0 } else { self.slot + 1 };
        let mut run = distance(write);
        shorten(&self.next_write, run);
        if self.model.kind == MemoryFaultKind::ArrayResident {
            let read = if 2 * write >= n {
                2 * write - n
            } else {
                2 * write
            };
            let read_run = distance(read) / 2;
            shorten(&self.next_read, read_run);
            run = run.min(read_run);
        }
        shorten(&self.next_touch, run);
    }

    /// The write slot of FLOP `flop`: the cursor when `flop` is the op in
    /// progress (the per-op path's case, kept to one compare), else
    /// [`slot_at`](Self::slot_at).
    fn write_slot(&self, flop: u64) -> usize {
        if flop == self.cur {
            self.slot
        } else {
            self.slot_at(flop)
        }
    }

    /// Applies read-path corruption to the operands of FLOP `flop`
    /// (array-resident faults only; register-file damage sits on the
    /// write path). Operand `a` reads word `2·flop % words`, operand `b`
    /// the word after it.
    pub fn load_operands(&self, flop: u64, a: f64, b: f64) -> (f64, f64) {
        if self.model.kind != MemoryFaultKind::ArrayResident {
            return (a, b);
        }
        let n = self.masks.len();
        // `2·flop ≡ 2·slot (mod n)` and `2·slot < 2n`, so one conditional
        // subtract reduces it.
        let mut wa = 2 * self.write_slot(flop);
        if wa >= n {
            wa -= n;
        }
        let wb = if wa + 1 == n { 0 } else { wa + 1 };
        let width = self.model.bits.width();
        (width.xor(a, self.masks[wa]), width.xor(b, self.masks[wb]))
    }

    /// Commits the result of FLOP `flop` through storage: register-file
    /// damage corrupts the written value; an array-resident write
    /// overwrites (and thereby heals) word `flop % words`.
    pub fn commit_result(&mut self, flop: u64, value: f64) -> f64 {
        let slot = self.write_slot(flop);
        match self.model.kind {
            MemoryFaultKind::RegisterFile => self.model.bits.width().xor(value, self.masks[slot]),
            MemoryFaultKind::ArrayResident => {
                if self.masks[slot] != 0 {
                    self.masks[slot] = 0;
                    self.dirty -= 1;
                    self.dirty_bits[slot / 64] &= !(1 << (slot % 64));
                    // A heal is a write touch, at or past the cached write
                    // bound, which the next query recomputes anyway; the
                    // read bound may have pointed at this word.
                    self.next_read.set(UNKNOWN);
                }
                value
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
            self.shorten_bound(slot);
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
            let out = state.commit_result(flop, 2.0);
            assert_ne!(out, 2.0, "round {round}: damaged latch must corrupt");
            let healthy = state.commit_result(flop + 1, 2.0);
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
        // A read routed through the corrupted word sees the flip: operand
        // `a` of flop f reads word 2f % 8 (even words), operand `b` reads
        // (2f + 1) % 8 (odd words).
        let flop_reading = (word as u64) / 2;
        let read = |state: &MemoryFaultState| {
            let (a, b) = state.load_operands(flop_reading, 1.5, 2.5);
            if word % 2 == 0 {
                (a, b.to_bits() == 2.5f64.to_bits())
            } else {
                (b, a.to_bits() == 1.5f64.to_bits())
            }
        };
        let (got, other_clean) = read(&state);
        assert_ne!(got.to_bits(), 0, "read produced a value");
        assert!(other_clean, "the healthy word's operand is untouched");
        assert_ne!(got, if word % 2 == 0 { 1.5 } else { 2.5 });
        // Still corrupted on a second read: persistence between ops.
        let (again, _) = read(&state);
        assert_eq!(again.to_bits(), got.to_bits());
        // Overwriting the word (result write of flop ≡ word mod 8) heals.
        let _ = state.commit_result(word as u64, 9.0);
        let (a3, b3) = state.load_operands(flop_reading, 1.5, 2.5);
        assert_eq!((a3, b3), (1.5, 2.5), "overwrite repairs the word");
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
        state.begin_op(99);
        assert!(state.corrupted_slots() > 0, "no scrub before the boundary");
        state.begin_op(100);
        assert_eq!(state.corrupted_slots(), 0, "scrub boundary clears all");
    }

    #[test]
    #[should_panic(expected = "at least one register")]
    fn zero_registers_rejected() {
        MemoryFaultModel::register_file(0, BitFaultModel::emulated(), 0);
    }
}
