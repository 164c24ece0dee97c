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
//! Storage changes without looking at data: strikes, overwrites and
//! scrubs follow from the LFSR and the FLOP index alone. Only two kinds
//! of op have a result that depends on stored damage — an array-resident
//! op that reads a corrupted word, and a register-file op that writes
//! through a corrupted register — so the FPU runs only those through the
//! state (its event horizon). Every op before one runs exactly, and the
//! storage effects of those ops (overwrites, scrubs, and the strikes the
//! FPU draws ahead) settle in bulk, in FLOP order, when the next such op
//! arrives or an observer asks.

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
/// Owned and driven by [`NoisyFpu`](crate::NoisyFpu), which hands out
/// settled copies (see [`NoisyFpu::memory_state`](crate::NoisyFpu::memory_state))
/// so tests and diagnostics can observe which slots are corrupted.
///
/// Storage changes without looking at data: strikes, overwrites and
/// scrubs are a function of the LFSR and the FLOP index alone. So the
/// state records the FLOP up to which its masks are settled, and the
/// strikes drawn ahead of it, and applies everything in between in bulk,
/// in FLOP order, when asked: at the next op whose result depends on
/// stored damage (the first of `next_touch` and every drawn strike's
/// `install` answer), or for an observer.
#[derive(Debug, Clone)]
pub struct MemoryFaultState {
    model: MemoryFaultModel,
    masks: Vec<u64>,
    /// Number of nonzero masks.
    dirty: usize,
    /// Bit `s` is set iff `masks[s] != 0`.
    dirty_bits: Vec<u64>,
    /// Every op before this FLOP has reached the masks.
    settled: u64,
    /// `settled` modulo the slot count: the slot op `settled` writes.
    cursor: usize,
    /// The first scrub boundary at or after `settled` (`u64::MAX` when
    /// never scrubbed).
    next_scrub: u64,
    /// Strikes drawn but not yet applied, in FLOP order, all at or after
    /// `settled`.
    pending: Vec<Strike>,
}

/// A strike drawn ahead of the settled FLOP: after op `flop`, slot
/// `slot` gains bit `bit`.
#[derive(Debug, Clone, Copy)]
struct Strike {
    flop: u64,
    slot: usize,
    bit: usize,
    /// `(flop + 1)` modulo the slot count.
    next: usize,
}

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
            model,
            masks,
            dirty: 0,
            dirty_bits,
            settled: 0,
            cursor: 0,
            next_scrub,
            pending: Vec::new(),
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

    /// Number of drawn strikes before FLOP `to` not yet applied.
    pub(crate) fn pending_before(&self, to: u64) -> u64 {
        self.pending.partition_point(|s| s.flop < to) as u64
    }

    /// Records the upsets of the drawn strikes before FLOP `to` not yet
    /// applied into `stats`.
    pub(crate) fn record_pending(&self, to: u64, stats: &mut FaultStats) {
        let width = self.model.bits.width();
        for strike in self.pending.iter().take_while(|s| s.flop < to) {
            stats.record_fault(width, strike.bit);
        }
    }

    /// `(slot + ops)` modulo the slot count, dividing only when `ops`
    /// spans a whole pass.
    fn slot_after(&self, slot: usize, ops: u64) -> usize {
        let n = self.masks.len();
        if ops < n as u64 {
            let s = slot + ops as usize;
            if s >= n {
                s - n
            } else {
                s
            }
        } else {
            ((slot as u64 + ops) % n as u64) as usize
        }
    }

    /// The slot an array-resident operand `a` reads at the op that writes
    /// `slot`: `2·slot` modulo the slot count.
    fn read_slot(&self, slot: usize) -> usize {
        let twice = 2 * slot;
        if twice >= self.masks.len() {
            twice - self.masks.len()
        } else {
            twice
        }
    }

    /// The cyclic distance from slot `from` to slot `to`.
    fn cyclic(&self, from: usize, to: usize) -> usize {
        if to >= from {
            to - from
        } else {
            to + self.masks.len() - from
        }
    }

    /// Applies every op before FLOP `to` not yet applied, in FLOP order:
    /// the last scrub boundary passed clears every mask, each
    /// array-resident op overwrites (heals) its word, and each drawn
    /// strike then flips its bit, recorded into `stats`.
    pub(crate) fn settle(&mut self, to: u64, stats: &mut FaultStats) {
        if to <= self.settled {
            return;
        }
        if self.next_scrub < to {
            // Only the ops from the last scrub boundary on reach the masks.
            let interval = self.model.scrub_interval;
            let last = (to - 1) / interval * interval;
            self.clear(0, self.masks.len());
            self.settled = last;
            self.cursor = (last % self.masks.len() as u64) as usize;
            self.next_scrub = last.saturating_add(interval);
        }
        let width = self.model.bits.width();
        let mut applied = 0;
        while let Some(&strike) = self.pending.get(applied).filter(|s| s.flop < to) {
            stats.record_fault(width, strike.bit);
            // A strike before the scrub boundary settled from is wiped.
            if strike.flop >= self.settled {
                self.advance(strike.flop + 1, strike.next);
                self.flip(strike.slot, strike.bit);
            }
            applied += 1;
        }
        if to > self.settled {
            let cursor = self.slot_after(self.cursor, to - self.settled);
            self.advance(to, cursor);
        }
        self.pending.drain(..applied);
    }

    /// Moves `settled` on to FLOP `to` (whose slot is `cursor`) past ops
    /// that neither strike nor scrub: array-resident ops overwrite their
    /// words, register-file ops change nothing.
    fn advance(&mut self, to: u64, cursor: usize) {
        if self.model.kind == MemoryFaultKind::ArrayResident {
            let ops = to - self.settled;
            let n = self.masks.len();
            if ops >= n as u64 {
                self.clear(0, n);
            } else if self.cursor + ops as usize <= n {
                self.clear(self.cursor, self.cursor + ops as usize);
            } else {
                self.clear(self.cursor, n);
                self.clear(0, cursor);
            }
        }
        self.settled = to;
        self.cursor = cursor;
    }

    /// Heals slots `lo..hi`, one dirty-bitmap word at a time.
    fn clear(&mut self, lo: usize, hi: usize) {
        let mut word = lo / 64;
        while self.dirty > 0 && word * 64 < hi {
            let mut range = u64::MAX;
            if word == lo / 64 {
                range &= u64::MAX << (lo % 64);
            }
            if hi < (word + 1) * 64 {
                range &= (1 << (hi % 64)) - 1;
            }
            let mut bits = self.dirty_bits[word] & range;
            self.dirty_bits[word] &= !bits;
            while bits != 0 {
                self.masks[word * 64 + bits.trailing_zeros() as usize] = 0;
                self.dirty -= 1;
                bits &= bits - 1;
            }
            word += 1;
        }
    }

    /// Flips bit `bit` of slot `slot`'s mask.
    fn flip(&mut self, slot: usize, bit: usize) {
        if self.masks[slot] == 0 {
            self.dirty += 1;
            self.dirty_bits[slot / 64] |= 1 << (slot % 64);
        }
        self.masks[slot] |= 1u64 << bit;
    }

    /// The first op at or after the settled FLOP whose result depends on
    /// the damage the masks hold now: an array-resident op that reads a
    /// corrupted word before an op overwrites it, or a register-file op
    /// that writes through a corrupted register; `u64::MAX` when there is
    /// none before the next scrub. Damage from drawn strikes is not
    /// counted here (see [`install`](Self::install)).
    ///
    /// Array-resident reads sweep words `2f` and `2f + 1` (two per FLOP),
    /// writes sweep word `f` (one per FLOP); the register file is touched
    /// by writes only. With `d` the cyclic distance from a sweep's start
    /// to the next corrupted slot, the first read lies `⌊d / 2⌋` ops on
    /// and the first write-through `d` ops on. From op `f`, with
    /// `c = f mod n`, the `min(c, n − 1 − c)` words from `c` on are
    /// overwritten before the read sweep reaches them, so the read search
    /// skips that run.
    pub(crate) fn next_touch(&self) -> u64 {
        if self.dirty == 0 {
            return u64::MAX;
        }
        let n = self.masks.len();
        let c = self.cursor;
        let ops = match self.model.kind {
            MemoryFaultKind::RegisterFile => self.distance_to_dirty(c),
            MemoryFaultKind::ArrayResident => {
                let start = self.read_slot(c);
                let shadow = c..c + c.min(n - 1 - c);
                let mut distance = self.distance_to_dirty(start);
                let word = self.slot_after(start, distance as u64);
                if shadow.contains(&word) {
                    // Resume past the run; a search that comes back
                    // round to `start` found only overwritten words.
                    distance += shadow.end - word + self.distance_to_dirty(shadow.end);
                    if distance >= n {
                        return u64::MAX;
                    }
                }
                distance / 2
            }
        };
        let touch = self.settled + ops as u64;
        if touch < self.next_scrub {
            touch
        } else {
            u64::MAX
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
        self.cyclic(start, word * 64 + bits.trailing_zeros() as usize)
    }

    /// Runs FLOP `flop` through storage once every earlier op has been
    /// applied, and returns its committed result. A scrub boundary (a
    /// positive multiple of the scrub interval) first clears every mask.
    /// Array-resident operands then read words `2·flop` and `2·flop + 1`
    /// (mod words), with their damage XORed in, and the result
    /// overwrites (and so heals) word `flop`; a register-file result
    /// comes back with the damage of register `flop` (mod registers)
    /// XORed in. The state is then settled to `flop + 1`; a strike on
    /// the op lands with [`strike`](Self::strike).
    pub(crate) fn execute(
        &mut self,
        flop: u64,
        op: FlopOp,
        a: f64,
        b: f64,
        stats: &mut FaultStats,
    ) -> f64 {
        self.settle(flop, stats);
        if flop == self.next_scrub {
            self.clear(0, self.masks.len());
            self.next_scrub = flop.saturating_add(self.model.scrub_interval);
        }
        let width = self.model.bits.width();
        let slot = self.cursor;
        let value = match self.model.kind {
            MemoryFaultKind::RegisterFile => width.xor(op.exact(a, b), self.masks[slot]),
            MemoryFaultKind::ArrayResident => {
                let word = self.read_slot(slot);
                let a = width.xor(a, self.masks[word]);
                let b = width.xor(b, self.masks[self.slot_after(word, 1)]);
                self.clear(slot, slot + 1);
                op.exact(a, b)
            }
        };
        self.settled = flop + 1;
        self.cursor = self.slot_after(slot, 1);
        value
    }

    /// Draws and applies the strike that lands on the op just run
    /// through [`execute`](Self::execute): a slot drawn uniformly from
    /// the LFSR gains a flipped bit drawn from the model's distribution,
    /// recorded into `stats`. The damage is visible from the next op on.
    pub(crate) fn strike(&mut self, lfsr: &mut Lfsr, stats: &mut FaultStats) {
        let (slot, bit) = self.draw(lfsr);
        self.flip(slot, bit);
        stats.record_fault(self.model.bits.width(), bit);
    }

    /// A strike's slot, drawn uniformly from the LFSR, then its flipped
    /// bit, drawn from the model's distribution.
    fn draw(&self, lfsr: &mut Lfsr) -> (usize, usize) {
        let slot = (lfsr.uniform_1_to(self.model.slots as u64) - 1) as usize;
        (slot, self.model.bits.sample_bit(lfsr))
    }

    /// Draws the strike the FPU's schedule lands on FLOP `flop` (at or
    /// after the settled FLOP and every strike drawn before) as
    /// [`strike`](Self::strike) does. The damage reaches the masks, and
    /// the upset the fault statistics, with the [`settle`](Self::settle)
    /// that passes `flop`; it is visible from op `flop + 1` on.
    ///
    /// Returns the first op that reads (array-resident) or writes through
    /// (register file) the damage, `u64::MAX` when an overwrite or a
    /// scrub heals it first.
    pub(crate) fn install(&mut self, flop: u64, lfsr: &mut Lfsr) -> u64 {
        let (slot, bit) = self.draw(lfsr);
        let (from, cursor) = self
            .pending
            .last()
            .map_or((self.settled, self.cursor), |s| (s.flop + 1, s.next));
        let next = self.slot_after(cursor, flop + 1 - from);
        self.pending.push(Strike {
            flop,
            slot,
            bit,
            next,
        });
        let write = self.cyclic(next, slot);
        let ops = match self.model.kind {
            MemoryFaultKind::RegisterFile => write,
            MemoryFaultKind::ArrayResident => {
                let read = self.cyclic(self.read_slot(next), slot) / 2;
                if read > write {
                    return u64::MAX;
                }
                read
            }
        };
        let touch = flop + 1 + ops as u64;
        let scrub = if self.next_scrub > flop {
            self.next_scrub
        } else {
            let interval = self.model.scrub_interval;
            (flop + 1).div_ceil(interval).saturating_mul(interval)
        };
        if touch < scrub {
            touch
        } else {
            u64::MAX
        }
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

    /// Runs FLOP `flop` through `state`, settling every op before it.
    fn step(state: &mut MemoryFaultState, flop: u64, a: f64, b: f64) -> f64 {
        state.execute(flop, FlopOp::Add, a, b, &mut FaultStats::default())
    }

    /// A state with one strike drawn from `lfsr()` after FLOP 0, settled
    /// to FLOP 1.
    fn struck(model: MemoryFaultModel) -> (MemoryFaultState, FaultStats) {
        let mut state = MemoryFaultState::new(model);
        let mut stats = FaultStats::default();
        state.install(0, &mut lfsr());
        state.settle(1, &mut stats);
        (state, stats)
    }

    #[test]
    fn register_file_damage_persists_across_writes() {
        let model = MemoryFaultModel::register_file(4, BitFaultModel::lsb_only(BitWidth::F64), 0);
        let (mut state, stats) = struck(model);
        assert_eq!(stats.faults(), 1);
        assert_eq!(state.corrupted_slots(), 1);
        let damaged = state
            .masks()
            .iter()
            .position(|&m| m != 0)
            .expect("one slot");
        // Every write routed through the damaged register is corrupted —
        // on every pass, since rewrites do not heal latch damage.
        for round in 1..9u64 {
            let flop = round * 4 + damaged as u64;
            let out = step(&mut state, flop, 1.0, 1.0);
            assert_ne!(out, 2.0, "round {round}: damaged latch must corrupt");
            let healthy = step(&mut state, flop + 1, 1.0, 1.0);
            assert_eq!(healthy, 2.0, "neighbouring register is healthy");
        }
    }

    #[test]
    fn array_word_corrupts_reads_until_overwritten() {
        let model = MemoryFaultModel::array_resident(8, BitFaultModel::lsb_only(BitWidth::F64), 0);
        let (mut state, _) = struck(model);
        let word = state
            .masks()
            .iter()
            .position(|&m| m != 0)
            .expect("one word") as u64;
        // Operand `a` of flop f reads word 2f % 8 (even words), operand `b`
        // reads (2f + 1) % 8 (odd words), and the op then writes word
        // f % 8. Flops f and f + 4 read the same words; find a pair with
        // no write of `word` from f up to f + 4.
        let reads = |f: u64| (2 * f) % 8 == word || (2 * f + 1) % 8 == word;
        let first = (1..)
            .find(|&f| reads(f) && !(f..f + 4).any(|g| g % 8 == word))
            .expect("two reads with no overwrite between");
        // The healthy operand is 0.0, so the sum is the operand read.
        let (a, b) = if word.is_multiple_of(2) {
            (1.5, 0.0)
        } else {
            (0.0, 2.5)
        };
        let got = step(&mut state, first, a, b);
        assert_ne!(got, a + b, "the read sees the flip");
        // Still corrupted four ops on: persistence between ops.
        assert_eq!(step(&mut state, first + 4, a, b).to_bits(), got.to_bits());
        // The next write of the word (flop ≡ word mod 8) heals it.
        let heal = (first + 5..).find(|f| f % 8 == word).expect("a write");
        let after = (heal + 1..).find(|&f| reads(f)).expect("a read");
        assert_eq!(
            step(&mut state, after, a, b),
            a + b,
            "overwrite repairs the word"
        );
        assert_eq!(state.corrupted_slots(), 0);
    }

    #[test]
    fn scrubbing_clears_all_damage() {
        let model = MemoryFaultModel::register_file(4, BitFaultModel::emulated(), 100);
        let mut state = MemoryFaultState::new(model);
        let mut stats = FaultStats::default();
        let mut rng = lfsr();
        for flop in 0..3 {
            state.install(flop, &mut rng);
        }
        state.settle(3, &mut stats);
        assert!(state.corrupted_slots() > 0);
        step(&mut state, 99, 1.0, 1.0);
        assert!(state.corrupted_slots() > 0, "no scrub before the boundary");
        step(&mut state, 100, 1.0, 1.0);
        assert_eq!(state.corrupted_slots(), 0, "scrub boundary clears all");
        assert_eq!(
            state.next_touch(),
            u64::MAX,
            "clean storage is never touched"
        );
    }

    /// The first op from FLOP `flop` on whose result depends on `masks`,
    /// found by running the documented routing op by op: array-resident
    /// op `f` reads words `2f` and `2f + 1`, then overwrites word `f`;
    /// register-file op `f` writes through register `f`; a scrub
    /// boundary clears everything first. `u64::MAX` when no op does.
    fn first_damaged_access(model: &MemoryFaultModel, masks: &[u64], flop: u64) -> u64 {
        let mut masks = masks.to_vec();
        let n = masks.len() as u64;
        let scrub = model.scrub_interval();
        let slot = |f: u64| (f % n) as usize;
        for f in flop..flop + 2 * n + 1 {
            if scrub > 0 && f > 0 && f.is_multiple_of(scrub) {
                return u64::MAX;
            }
            match model.kind() {
                MemoryFaultKind::RegisterFile if masks[slot(f)] != 0 => return f,
                MemoryFaultKind::ArrayResident => {
                    if masks[slot(2 * f)] != 0 || masks[slot(2 * f + 1)] != 0 {
                        return f;
                    }
                    masks[slot(f)] = 0;
                }
                MemoryFaultKind::RegisterFile => {}
            }
        }
        u64::MAX
    }

    #[test]
    fn next_touch_finds_the_first_touching_op() {
        let bits = BitFaultModel::emulated();
        for model in [
            MemoryFaultModel::array_resident(7, bits.clone(), 13),
            MemoryFaultModel::array_resident(8, bits.clone(), 0),
            MemoryFaultModel::array_resident(70, bits.clone(), 0),
            MemoryFaultModel::array_resident(131, bits.clone(), 0),
            MemoryFaultModel::register_file(5, bits.clone(), 0),
            MemoryFaultModel::register_file(66, bits.clone(), 29),
        ] {
            let mut state = MemoryFaultState::new(model.clone());
            let mut rng = lfsr();
            let mut stats = FaultStats::default();
            let (mut touched, mut skipped) = (0, 0);
            for flop in 0..400 {
                state.settle(flop, &mut stats);
                let expected = first_damaged_access(&model, state.masks(), flop);
                assert_eq!(state.next_touch(), expected, "{} at {flop}", model.name());
                touched += usize::from(expected != u64::MAX);
                // A lone strike's damage, drawn on a clean copy.
                let mut alone = MemoryFaultState::new(model.clone());
                alone.settle(flop, &mut stats);
                let touch = alone.install(flop, &mut rng.clone());
                alone.settle(flop + 1, &mut stats);
                let expected = first_damaged_access(&model, alone.masks(), flop + 1);
                assert_eq!(touch, expected, "{} strike at {flop}", model.name());
                skipped += usize::from(expected == u64::MAX);
                if flop % 11 == 0 {
                    state.install(flop, &mut rng);
                }
            }
            assert!(touched > 25, "{}: {touched} touching states", model.name());
            if model.kind() == MemoryFaultKind::ArrayResident {
                assert!(skipped > 0, "{}: no strike healed unread", model.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one register")]
    fn zero_registers_rejected() {
        MemoryFaultModel::register_file(0, BitFaultModel::emulated(), 0);
    }
}
