//! Fault-model scenarios: the scenario axis of the fault injector.
//!
//! The paper evaluates one hardware scenario — a transient single-bit flip
//! in the FPU result, with the bit position drawn from a circuit-modeled
//! distribution ([`BitFaultModel`]). Real silicon misbehaves in more ways
//! than that: bits get *stuck*, timing violations smear across *bursts* of
//! adjacent bits, marginal circuits fail *intermittently* with the duty
//! cycle of their aggressor, latches corrupt *operands* on the way into a
//! functional unit, and hot spots make faults *op-selective* (the
//! multiplier array fails long before the adder). This module makes the
//! scenario a first-class, sweepable axis with one plain-data enum,
//! [`FaultModelSpec`]. The same value is serialized into campaign jobs and
//! result documents, names the CSV `fault_model` column, and corrupts
//! every strike the injector schedules.
//!
//! Determinism contract: a strike's committed value depends only on the
//! operation, its operands, the FLOP index and draws from the injector's
//! LFSR, never on ambient state.

use crate::energy::VoltageErrorModel;
use crate::fault::{BitFaultModel, BitWidth, FaultRate, FaultStats};
use crate::fpu::FlopOp;
use crate::json::{Fields, JsonCodec, JsonValue};
use crate::json_object;
use crate::lfsr::Lfsr;
use crate::memory::MemoryFaultModel;
use std::sync::LazyLock;

/// Everything a scenario may condition on when corrupting one strike.
///
/// `flop` is the zero-based index of the operation within the trial, which
/// lets duty-cycle models gate on *time* while staying deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultCtx {
    /// The operation being executed.
    pub op: FlopOp,
    /// First operand.
    pub a: f64,
    /// Second operand (zero for unary ops).
    pub b: f64,
    /// The exact IEEE-754 result of `op(a, b)`.
    pub exact: f64,
    /// Zero-based FLOP index of this operation within the trial.
    pub flop: u64,
}

/// The bit distribution of the voltage-linked scenarios' flips.
static EMULATED: LazyLock<BitFaultModel> = LazyLock::new(BitFaultModel::emulated);

/// The paper's transient flip: XORs one bit drawn from `model` into
/// `value` and records it.
fn flip(model: &BitFaultModel, value: f64, lfsr: &mut Lfsr, stats: &mut FaultStats) -> f64 {
    let bit = model.sample_bit(lfsr);
    stats.record_fault(model.width(), bit);
    model.width().xor(value, 1 << bit)
}

/// Forces `bit` of `value`'s encoding (a NaN's is the canonical one) to
/// `one`. Returns the forced value and whether the bit actually changed.
fn force_bit(value: f64, bit: usize, one: bool, width: BitWidth) -> (f64, bool) {
    let old = width.encode(value);
    let new = if one {
        old | (1 << bit)
    } else {
        old & !(1 << bit)
    };
    (width.decode(new), new != old)
}

/// A serializable, plain-data description of a fault model — the analogue
/// of `robustify_core`'s `SolverSpec` for the injector side of a sweep.
///
/// Specs are built in code, carried by campaign grids (with per-job
/// overrides), serialized into result documents for provenance via
/// [`JsonCodec::to_json`], and handed to
/// [`NoisyFpu`](crate::NoisyFpu), which asks the spec to corrupt each
/// scheduled strike. The combinator variants
/// ([`Intermittent`](Self::Intermittent), [`OpSelective`](Self::OpSelective))
/// nest any spec that is not [injector-level](Self::is_injector_level).
///
/// # Examples
///
/// ```
/// use stochastic_fpu::json::JsonCodec;
/// use stochastic_fpu::{BitFaultModel, FaultModelSpec, FlopOp};
///
/// let paper = FaultModelSpec::default(); // transient emulated flip
/// assert_eq!(paper.name(), "transient_emulated");
///
/// let hot_multiplier = FaultModelSpec::op_selective(
///     vec![FlopOp::Mul, FlopOp::Div],
///     FaultModelSpec::transient(BitFaultModel::emulated()),
/// );
/// assert!(hot_multiplier.to_json().contains("\"kind\":\"op_selective\""));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum FaultModelSpec {
    /// The paper's transient single-bit result flip.
    Transient {
        /// Bit-position distribution (and width) of the flip.
        model: BitFaultModel,
    },
    /// A result bit tied to 0 or 1. A strike on a result whose bit
    /// already holds the stuck value is invisible and records nothing.
    StuckAt {
        /// The affected bit (LSB-first index into the encoding).
        bit: usize,
        /// `true` = stuck-at-1, `false` = stuck-at-0.
        stuck_to_one: bool,
        /// The encoding the fault applies to.
        width: BitWidth,
    },
    /// A burst of adjacent result-bit flips from a sampled start bit,
    /// clamped at the encoding's top and recorded as one fault at the
    /// start bit.
    Burst {
        /// Distribution of the burst's starting bit.
        model: BitFaultModel,
        /// Number of adjacent bits flipped (≥ 1).
        length: usize,
    },
    /// A single-bit flip in an input operand before the op executes, so
    /// the unit computes the exact result of a wrong operand.
    Operand {
        /// Bit-position distribution (and width) of the operand flip.
        model: BitFaultModel,
    },
    /// The inner model, active only while the FLOP index lies in the
    /// first `duty` fraction of each `period`-FLOP window: a marginal
    /// circuit tracking its aggressor's duty cycle.
    Intermittent {
        /// The gated model.
        inner: Box<FaultModelSpec>,
        /// Active fraction of each period, in `(0, 1]`.
        duty: f64,
        /// Window length in FLOPs.
        period: u64,
    },
    /// The inner model, restricted to a set of operations (e.g. mul/div,
    /// a multiplier-array hot spot).
    OpSelective {
        /// The restricted model.
        inner: Box<FaultModelSpec>,
        /// Operations whose results are fault-prone.
        ops: Vec<FlopOp>,
    },
    /// Voltage-linked operation: the paper's transient flip at the fault
    /// rate the Figure 5.2 model predicts for a fixed overscaled supply.
    /// [`NoisyFpu`](crate::NoisyFpu) derives the effective per-op rate
    /// from the voltage ([`rate_override`](Self::rate_override)),
    /// overriding whatever rate the sweep grid passed.
    VoltageLinked {
        /// The voltage ↦ error-rate calibration (Figure 5.2).
        model: VoltageErrorModel,
        /// The fixed supply voltage of the run.
        voltage: f64,
    },
    /// A DVFS trajectory: the supply voltage steps through a schedule
    /// over the trial, and the fault rate follows the Figure 5.2 model at
    /// each step: [`NoisyFpu`](crate::NoisyFpu) redraws the strike
    /// interval at the new step's rate on the step's first op. The last
    /// step's voltage persists once the schedule is exhausted.
    DvfsSchedule {
        /// The voltage ↦ error-rate calibration (Figure 5.2).
        model: VoltageErrorModel,
        /// The voltage steps, executed in order.
        steps: Vec<DvfsStep>,
    },
    /// A memory-persistent fault: corruptions install into register-file
    /// or array-resident storage and stay there between operations until
    /// scrubbed or overwritten (see
    /// [`MemoryFaultModel`]). Applied statefully by
    /// [`NoisyFpu`](crate::NoisyFpu).
    Memory {
        /// The storage structure, slot count, bit distribution, and scrub
        /// interval.
        model: MemoryFaultModel,
    },
}

/// One step of a [`FaultModelSpec::DvfsSchedule`]: run `flops` operations
/// at `voltage`, then advance to the next step (the last step's voltage
/// persists for the rest of the trial).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsStep {
    /// Operations executed at this step's voltage.
    pub flops: u64,
    /// Supply voltage during the step.
    pub voltage: f64,
}

impl FaultModelSpec {
    /// The paper's transient flip with the given bit distribution.
    pub fn transient(model: BitFaultModel) -> Self {
        FaultModelSpec::Transient { model }
    }

    /// A stuck-at fault on `bit` of the encoding.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is outside the encoding.
    pub fn stuck_at(bit: usize, stuck_to_one: bool, width: BitWidth) -> Self {
        assert!(
            bit < width.bits(),
            "stuck-at bit {bit} outside {:?} ({} bits)",
            width,
            width.bits()
        );
        FaultModelSpec::StuckAt {
            bit,
            stuck_to_one,
            width,
        }
    }

    /// A burst of `length` adjacent flips starting at a bit drawn from
    /// `model`.
    ///
    /// # Panics
    ///
    /// Panics if `length` is 0 or exceeds the encoding's bits.
    pub fn burst(length: usize, model: BitFaultModel) -> Self {
        let bits = model.width().bits();
        assert!(
            (1..=bits).contains(&length),
            "burst length must be in 1..={bits}, got {length}"
        );
        FaultModelSpec::Burst { model, length }
    }

    /// An operand-side flip with the given bit distribution.
    pub fn operand(model: BitFaultModel) -> Self {
        FaultModelSpec::Operand { model }
    }

    /// Gates `inner` to the first `duty` fraction of each `period`-FLOP
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if `duty` is not in `(0, 1]`, `period == 0`, or `inner` is
    /// an injector-level scenario (voltage-linked, DVFS, memory) that
    /// cannot nest.
    pub fn intermittent(duty: f64, period: u64, inner: FaultModelSpec) -> Self {
        assert!(
            duty.is_finite() && duty > 0.0 && duty <= 1.0,
            "duty cycle must be in (0, 1], got {duty}"
        );
        assert!(period > 0, "duty-cycle period must be positive");
        let spec = FaultModelSpec::Intermittent {
            inner: Box::new(inner),
            duty,
            period,
        };
        spec.assert_nesting();
        spec
    }

    /// Restricts `inner` to the listed operations.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty or `inner` is an injector-level scenario
    /// (voltage-linked, DVFS, memory) that cannot nest.
    pub fn op_selective(ops: Vec<FlopOp>, inner: FaultModelSpec) -> Self {
        assert!(!ops.is_empty(), "op-selective fault needs at least one op");
        let spec = FaultModelSpec::OpSelective {
            inner: Box::new(inner),
            ops,
        };
        spec.assert_nesting();
        spec
    }

    /// The paper's transient flip with its rate tied to a fixed
    /// overscaled supply voltage through `model` (Figure 5.2): an FPU
    /// built on this spec faults at `model.error_rate(voltage)` per op,
    /// regardless of the grid rate it was constructed with.
    ///
    /// # Panics
    ///
    /// Panics if `voltage` is not positive and finite.
    pub fn voltage_linked(model: VoltageErrorModel, voltage: f64) -> Self {
        assert!(
            voltage > 0.0 && voltage.is_finite(),
            "voltage must be positive and finite, got {voltage}"
        );
        FaultModelSpec::VoltageLinked { model, voltage }
    }

    /// A DVFS trajectory: the supply steps through `steps` over the
    /// trial, the per-op fault rate following `model` at each step; the
    /// last step's voltage persists once the schedule is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty, any step has `flops == 0`, or any
    /// voltage is not positive and finite.
    pub fn dvfs(model: VoltageErrorModel, steps: Vec<DvfsStep>) -> Self {
        assert!(!steps.is_empty(), "DVFS schedule needs at least one step");
        for step in &steps {
            assert!(step.flops > 0, "DVFS steps must cover at least one FLOP");
            assert!(
                step.voltage > 0.0 && step.voltage.is_finite(),
                "voltage must be positive and finite, got {}",
                step.voltage
            );
        }
        FaultModelSpec::DvfsSchedule { model, steps }
    }

    /// Register-file latch damage: persistent result corruption, scrubbed
    /// every `scrub_interval` FLOPs (`0` = never). See
    /// [`MemoryFaultModel::register_file`].
    pub fn register_file(registers: usize, bits: BitFaultModel, scrub_interval: u64) -> Self {
        Self::memory(MemoryFaultModel::register_file(
            registers,
            bits,
            scrub_interval,
        ))
    }

    /// Array-resident word upsets: persistent operand corruption healed
    /// by overwrite or scrub. See [`MemoryFaultModel::array_resident`].
    pub fn array_resident(words: usize, bits: BitFaultModel, scrub_interval: u64) -> Self {
        Self::memory(MemoryFaultModel::array_resident(
            words,
            bits,
            scrub_interval,
        ))
    }

    /// A memory-persistent fault scenario.
    pub fn memory(model: MemoryFaultModel) -> Self {
        FaultModelSpec::Memory { model }
    }

    /// Whether this spec configures the injector itself (its rate
    /// schedule or persistent state) rather than just a corruption
    /// strategy — such specs are applied by
    /// [`NoisyFpu`](crate::NoisyFpu) at the top level and cannot nest
    /// inside [`Intermittent`](Self::Intermittent) /
    /// [`OpSelective`](Self::OpSelective) combinators.
    pub fn is_injector_level(&self) -> bool {
        matches!(
            self,
            FaultModelSpec::VoltageLinked { .. }
                | FaultModelSpec::DvfsSchedule { .. }
                | FaultModelSpec::Memory { .. }
        )
    }

    /// Panics if a combinator anywhere in the spec nests an injector-level
    /// spec, whose rate or persistence semantics would be silently lost.
    /// The constructors check this; [`NoisyFpu::new`](crate::NoisyFpu::new)
    /// checks it again for specs assembled as enum literals.
    pub(crate) fn assert_nesting(&self) {
        if let FaultModelSpec::Intermittent { inner, .. }
        | FaultModelSpec::OpSelective { inner, .. } = self
        {
            assert!(
                !inner.is_injector_level(),
                "{} is injector-level and cannot nest inside a combinator",
                inner.name()
            );
            inner.assert_nesting();
        }
    }

    /// The fixed fault rate this spec mandates, if any: a
    /// [`VoltageLinked`](Self::VoltageLinked) spec pins the injector to
    /// the rate its voltage implies, overriding the grid rate.
    pub fn rate_override(&self) -> Option<FaultRate> {
        match self {
            FaultModelSpec::VoltageLinked { model, voltage } => Some(model.fault_rate_at(*voltage)),
            _ => None,
        }
    }

    /// The fixed operating voltage this spec pins the FPU to
    /// ([`VoltageLinked`](Self::VoltageLinked) only — a DVFS schedule has
    /// no single voltage).
    pub fn voltage(&self) -> Option<f64> {
        match self {
            FaultModelSpec::VoltageLinked { voltage, .. } => Some(*voltage),
            _ => None,
        }
    }

    /// Whether this spec pins the FPU's operating point itself (a fixed
    /// overscaled supply or a DVFS trajectory), so grid-level voltage
    /// provenance does not apply to it.
    pub fn pins_operating_point(&self) -> bool {
        matches!(
            self,
            FaultModelSpec::VoltageLinked { .. } | FaultModelSpec::DvfsSchedule { .. }
        )
    }

    /// Energy (normalized `power × FLOP` units) of executing `flops`
    /// operations under this spec's operating point(s): `P(V) × flops`
    /// for a fixed voltage, the piecewise sum over steps for a DVFS
    /// schedule, `None` for specs with no voltage semantics.
    pub fn energy_for_flops(&self, flops: u64) -> Option<f64> {
        match self {
            FaultModelSpec::VoltageLinked { model, voltage } => Some(model.energy(flops, *voltage)),
            FaultModelSpec::DvfsSchedule { model, steps } => {
                let mut remaining = flops;
                let mut energy = 0.0;
                for step in steps {
                    let run = remaining.min(step.flops);
                    energy += model.energy(run, step.voltage);
                    remaining -= run;
                    if remaining == 0 {
                        break;
                    }
                }
                if remaining > 0 {
                    let last = steps.last().expect("schedule is non-empty");
                    energy += model.energy(remaining, last.voltage);
                }
                Some(energy)
            }
            _ => None,
        }
    }

    /// The memory-persistence model of a [`Memory`](Self::Memory) spec
    /// (`None` for transient scenarios) — the hook
    /// [`NoisyFpu`](crate::NoisyFpu) uses to allocate shadow state.
    pub fn memory_model(&self) -> Option<&MemoryFaultModel> {
        match self {
            FaultModelSpec::Memory { model } => Some(model),
            _ => None,
        }
    }

    /// Resolves a named preset, for CLI flags: the historical bit-model
    /// names (`emulated`, `uniform`, `msb`, `lsb`, all transient flips),
    /// one representative of each transient scenario family (`stuck0`,
    /// `stuck1`, `burst`, `operand`, `intermittent`, `muldiv`), the
    /// voltage-linked scenarios (`voltage` at 0.7 V, `dvfs` stepping
    /// 0.8 → 0.7 → 0.65 V), and the memory-persistent scenarios
    /// (`regfile`, a 32-entry register file scrubbed every 10k FLOPs;
    /// `memory`, a 64-word unscrubbed data array).
    pub fn from_preset(name: &str) -> Option<Self> {
        let emulated = BitFaultModel::emulated;
        Some(match name {
            "emulated" => Self::transient(emulated()),
            "uniform" => Self::transient(BitFaultModel::uniform(BitWidth::F64)),
            "msb" => Self::transient(BitFaultModel::msb_only(BitWidth::F64)),
            "lsb" => Self::transient(BitFaultModel::lsb_only(BitWidth::F64)),
            // Exponent LSB stuck: bit 52 of f64.
            "stuck0" => Self::stuck_at(52, false, BitWidth::F64),
            "stuck1" => Self::stuck_at(52, true, BitWidth::F64),
            "burst" => Self::burst(3, emulated()),
            "operand" => Self::operand(emulated()),
            "intermittent" => Self::intermittent(0.5, 1000, Self::transient(emulated())),
            "muldiv" => {
                Self::op_selective(vec![FlopOp::Mul, FlopOp::Div], Self::transient(emulated()))
            }
            "voltage" => Self::voltage_linked(VoltageErrorModel::paper_figure_5_2(), 0.7),
            "dvfs" => Self::dvfs(
                VoltageErrorModel::paper_figure_5_2(),
                vec![
                    DvfsStep {
                        flops: 1000,
                        voltage: 0.8,
                    },
                    DvfsStep {
                        flops: 1000,
                        voltage: 0.7,
                    },
                    DvfsStep {
                        flops: 1000,
                        voltage: 0.65,
                    },
                ],
            ),
            "regfile" => Self::register_file(32, emulated(), 10_000),
            "memory" => Self::array_resident(64, emulated(), 0),
            _ => return None,
        })
    }

    /// A short stable name (used as the default case label suffix and the
    /// CSV `fault_model` column).
    pub fn name(&self) -> String {
        match self {
            FaultModelSpec::Transient { model } => format!("transient_{}", model.kind()),
            FaultModelSpec::StuckAt {
                bit, stuck_to_one, ..
            } => format!("stuck{}_bit{bit}", u8::from(*stuck_to_one)),
            FaultModelSpec::Burst { model, length } => format!("burst{length}_{}", model.kind()),
            FaultModelSpec::Operand { model } => format!("operand_{}", model.kind()),
            FaultModelSpec::Intermittent { inner, duty, .. } => format!(
                "intermittent{}_{}",
                (duty * 100.0).round() as u64,
                inner.name()
            ),
            FaultModelSpec::OpSelective { inner, ops } => {
                let ops: Vec<&str> = ops.iter().map(|op| op.name()).collect();
                format!("only_{}_{}", ops.join("+"), inner.name())
            }
            FaultModelSpec::VoltageLinked { voltage, .. } => {
                format!("vdd{voltage:.3}_transient_emulated")
            }
            FaultModelSpec::DvfsSchedule { steps, .. } => {
                format!("dvfs{}step_transient_emulated", steps.len())
            }
            FaultModelSpec::Memory { model } => model.name(),
        }
    }

    /// Produces the committed result for one strike the injector
    /// scheduled, recording any injected fault into `stats`.
    ///
    /// The value and the statistics depend only on `ctx` and on draws from
    /// `lfsr`. A scenario that declines a strike (an intermittent fault
    /// outside its duty window, an op-selective fault on another op, a
    /// stuck-at bit that already holds its value) records nothing. The
    /// voltage-linked scenarios flip with the paper's emulated
    /// distribution; their *rate* is the injector's business. A memory
    /// spec applies a stateless flip here: [`NoisyFpu`](crate::NoisyFpu)
    /// routes memory specs through
    /// [`MemoryFaultState`](crate::MemoryFaultState) instead.
    pub(crate) fn corrupt(&self, ctx: &FaultCtx, lfsr: &mut Lfsr, stats: &mut FaultStats) -> f64 {
        match self {
            FaultModelSpec::Transient { model } => flip(model, ctx.exact, lfsr, stats),
            FaultModelSpec::StuckAt {
                bit,
                stuck_to_one,
                width,
            } => {
                let (forced, changed) = force_bit(ctx.exact, *bit, *stuck_to_one, *width);
                if changed {
                    stats.record_fault(*width, *bit);
                }
                forced
            }
            FaultModelSpec::Burst { model, length } => {
                let width = model.width();
                let start = model.sample_bit(lfsr);
                // One fault event, recorded at its primary (sampled) position.
                stats.record_fault(width, start);
                // One combined mask: the burst flips from one encoding.
                let end = start.saturating_add(*length).min(width.bits());
                let mask = (start..end).fold(0u64, |mask, bit| mask | (1 << bit));
                width.xor(ctx.exact, mask)
            }
            FaultModelSpec::Operand { model } => {
                let width = model.width();
                let bit = model.sample_bit(lfsr);
                stats.record_fault(width, bit);
                // Unary ops only have operand `a`; binary ops pick one by an
                // LFSR coin flip (drawn after the bit so the bit distribution
                // matches the configured model exactly).
                if matches!(ctx.op, FlopOp::Sqrt) || lfsr.next_f64() < 0.5 {
                    ctx.op.exact(width.xor(ctx.a, 1 << bit), ctx.b)
                } else {
                    ctx.op.exact(ctx.a, width.xor(ctx.b, 1 << bit))
                }
            }
            FaultModelSpec::Intermittent {
                inner,
                duty,
                period,
            } => {
                let active = ((duty * *period as f64).round() as u64).clamp(1, *period);
                if ctx.flop % period < active {
                    inner.corrupt(ctx, lfsr, stats)
                } else {
                    ctx.exact
                }
            }
            FaultModelSpec::OpSelective { inner, ops } => {
                if ops.contains(&ctx.op) {
                    inner.corrupt(ctx, lfsr, stats)
                } else {
                    ctx.exact
                }
            }
            FaultModelSpec::VoltageLinked { .. } | FaultModelSpec::DvfsSchedule { .. } => {
                flip(&EMULATED, ctx.exact, lfsr, stats)
            }
            FaultModelSpec::Memory { model } => flip(model.bits(), ctx.exact, lfsr, stats),
        }
    }
}

/// Reads a bit model's `"distribution"` and `"width"` members.
pub(crate) fn read_bit_model(f: Fields) -> Result<BitFaultModel, String> {
    let width = f.map("an \"f32\" or \"f64\"", "width", BitWidth::from_name)?;
    let distribution = f.get("distribution")?;
    BitFaultModel::from_kind(distribution, width)
        .ok_or_else(|| format!("unknown bit distribution \"{distribution}\""))
}

/// The wire format carried by campaign jobs and result documents: one
/// object per spec, `"kind"` first, combinators nesting their `"inner"`
/// spec, voltage-linked specs carrying their derived `"rate"`.
impl JsonCodec for FaultModelSpec {
    fn to_value(&self) -> JsonValue {
        match self {
            FaultModelSpec::Transient { model } => json_object!(
                "kind" => "transient", "distribution" => model.kind(), "width" => model.width().name(),
            ),
            FaultModelSpec::StuckAt {
                bit,
                stuck_to_one,
                width,
            } => json_object!(
                "kind" => "stuck_at", "bit" => *bit, "stuck_to" => u64::from(*stuck_to_one),
                "width" => width.name(),
            ),
            FaultModelSpec::Burst { model, length } => json_object!(
                "kind" => "burst", "length" => *length,
                "distribution" => model.kind(), "width" => model.width().name(),
            ),
            FaultModelSpec::Operand { model } => json_object!(
                "kind" => "operand", "distribution" => model.kind(), "width" => model.width().name(),
            ),
            FaultModelSpec::Intermittent {
                inner,
                duty,
                period,
            } => json_object!(
                "kind" => "intermittent", "duty" => *duty, "period" => *period,
                "inner" => inner.as_ref(),
            ),
            FaultModelSpec::OpSelective { inner, ops } => json_object!(
                "kind" => "op_selective", "ops" => ops.iter().map(|op| op.name()).collect::<JsonValue>(),
                "inner" => inner.as_ref(),
            ),
            FaultModelSpec::VoltageLinked { model, voltage } => json_object!(
                "kind" => "voltage_linked", "voltage" => *voltage, "rate" => model.error_rate(*voltage),
                "nominal_voltage" => model.nominal_voltage(), "model" => model,
            ),
            FaultModelSpec::DvfsSchedule { model, steps } => {
                let step = |s: &DvfsStep| json_object!("flops" => s.flops, "voltage" => s.voltage);
                json_object!(
                    "kind" => "dvfs", "steps" => steps.iter().map(step).collect::<JsonValue>(),
                    "nominal_voltage" => model.nominal_voltage(), "model" => model,
                )
            }
            FaultModelSpec::Memory { model } => model.to_value(),
        }
    }

    fn from_value(value: &JsonValue) -> Result<Self, String> {
        let f = value.fields("fault model spec");
        let nested = || -> Result<Self, String> {
            let inner = f.decode::<Self>("inner")?;
            if inner.is_injector_level() {
                return Err(format!("{} cannot nest inside a combinator", inner.name()));
            }
            Ok(inner)
        };
        let positive = |v: &f64| *v > 0.0 && v.is_finite();
        Ok(match f.get("kind")? {
            "transient" => Self::transient(read_bit_model(f)?),
            "stuck_at" => {
                let width = f.map("an \"f32\" or \"f64\"", "width", BitWidth::from_name)?;
                let bit = f.check("an in-range", "bit", |b: &usize| *b < width.bits())?;
                let stuck_to = f.check("a 0 or 1", "stuck_to", |s: &u64| *s <= 1)?;
                Self::stuck_at(bit, stuck_to == 1, width)
            }
            "burst" => {
                let model = read_bit_model(f)?;
                let bits = model.width().bits();
                let length =
                    f.check("an in-range", "length", |l: &usize| (1..=bits).contains(l))?;
                Self::burst(length, model)
            }
            "operand" => Self::operand(read_bit_model(f)?),
            "intermittent" => {
                let duty = f.check("a (0, 1]", "duty", |d: &f64| *d > 0.0 && *d <= 1.0)?;
                let period = f.check("a positive", "period", |p: &u64| *p > 0)?;
                Self::intermittent(duty, period, nested()?)
            }
            "op_selective" => {
                let ops = f.map("a non-empty", "ops", |ops: &[JsonValue]| {
                    let ops = ops.iter().map(|op| op.as_str().and_then(FlopOp::from_name));
                    ops.collect::<Option<Vec<_>>>()
                        .filter(|ops| !ops.is_empty())
                })?;
                Self::op_selective(ops, nested()?)
            }
            "voltage_linked" => {
                let voltage = f.check("a positive", "voltage", positive)?;
                Self::voltage_linked(f.decode("model")?, voltage)
            }
            "dvfs" => {
                let step = |step: &JsonValue| {
                    let s = step.fields("dvfs step");
                    Ok(DvfsStep {
                        flops: s.check("a positive", "flops", |n: &u64| *n > 0)?,
                        voltage: s.check("a positive", "voltage", positive)?,
                    })
                };
                let steps = f.check("a non-empty", "steps", |s: &&[JsonValue]| !s.is_empty())?;
                let steps = steps.iter().map(step).collect::<Result<_, String>>()?;
                Self::dvfs(f.decode("model")?, steps)
            }
            "register_file" | "array_resident" => {
                Self::memory(MemoryFaultModel::from_value(value)?)
            }
            other => return Err(format!("unknown fault model kind \"{other}\"")),
        })
    }
}

impl Default for FaultModelSpec {
    /// The paper's scenario: a transient emulated-distribution bit flip.
    fn default() -> Self {
        Self::transient(BitFaultModel::emulated())
    }
}

impl From<BitFaultModel> for FaultModelSpec {
    /// A bare bit distribution means the paper's transient result flip —
    /// the conversion that keeps pre-fault-model-subsystem call sites
    /// (`NoisyFpu::new(rate, BitFaultModel::emulated(), seed)`) compiling
    /// with identical behaviour.
    fn from(model: BitFaultModel) -> Self {
        Self::transient(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::fnv1a_64;

    fn ctx(op: FlopOp, a: f64, b: f64, flop: u64) -> FaultCtx {
        FaultCtx {
            op,
            a,
            b,
            exact: op.exact(a, b),
            flop,
        }
    }

    /// Runs `n` strikes of `spec` with a fixed seed and returns the
    /// committed values.
    fn strike_stream(spec: &FaultModelSpec, seed: u64, n: usize) -> Vec<f64> {
        let mut lfsr = Lfsr::new(seed);
        let mut stats = FaultStats::default();
        (0..n)
            .map(|i| {
                spec.corrupt(
                    &ctx(FlopOp::Mul, 3.0 + i as f64, 5.0, i as u64),
                    &mut lfsr,
                    &mut stats,
                )
            })
            .collect()
    }

    fn family() -> Vec<FaultModelSpec> {
        vec![
            FaultModelSpec::default(),
            FaultModelSpec::stuck_at(52, true, BitWidth::F64),
            FaultModelSpec::stuck_at(0, false, BitWidth::F64),
            FaultModelSpec::burst(3, BitFaultModel::emulated()),
            FaultModelSpec::operand(BitFaultModel::uniform(BitWidth::F64)),
            FaultModelSpec::intermittent(0.25, 64, FaultModelSpec::default()),
            FaultModelSpec::op_selective(vec![FlopOp::Mul], FaultModelSpec::default()),
            FaultModelSpec::voltage_linked(VoltageErrorModel::paper_figure_5_2(), 0.7),
            FaultModelSpec::dvfs(
                VoltageErrorModel::paper_figure_5_2(),
                vec![DvfsStep {
                    flops: 100,
                    voltage: 0.8,
                }],
            ),
            FaultModelSpec::register_file(32, BitFaultModel::emulated(), 1000),
            FaultModelSpec::array_resident(64, BitFaultModel::emulated(), 0),
        ]
    }

    #[test]
    fn every_family_member_is_seed_deterministic() {
        for spec in family() {
            assert_eq!(
                strike_stream(&spec, 11, 256),
                strike_stream(&spec, 11, 256),
                "{} not deterministic",
                spec.name()
            );
        }
    }

    #[test]
    fn names_are_distinct_and_stable() {
        let names: Vec<String> = family().iter().map(|s| s.name()).collect();
        let distinct: std::collections::HashSet<&String> = names.iter().collect();
        assert_eq!(distinct.len(), names.len(), "names collide: {names:?}");
        assert_eq!(FaultModelSpec::default().name(), "transient_emulated");
        assert_eq!(
            FaultModelSpec::stuck_at(52, true, BitWidth::F64).name(),
            "stuck1_bit52"
        );
        assert_eq!(
            FaultModelSpec::intermittent(0.25, 64, FaultModelSpec::default()).name(),
            "intermittent25_transient_emulated"
        );
        assert_eq!(
            FaultModelSpec::op_selective(vec![FlopOp::Mul, FlopOp::Div], FaultModelSpec::default())
                .name(),
            "only_mul+div_transient_emulated"
        );
    }

    #[test]
    fn transient_matches_the_legacy_injector_path() {
        // The compatibility contract: a transient strike consumes exactly
        // one LFSR f64 draw and flips exactly the sampled bit.
        let bit_model = BitFaultModel::emulated();
        let spec = FaultModelSpec::transient(bit_model.clone());
        let mut lfsr_a = Lfsr::new(99);
        let mut lfsr_b = Lfsr::new(99);
        let mut stats = FaultStats::default();
        for i in 0..512u64 {
            let c = ctx(FlopOp::Add, i as f64, 0.5, i);
            let got = spec.corrupt(&c, &mut lfsr_a, &mut stats);
            let bit = bit_model.sample_bit(&mut lfsr_b);
            assert_eq!(
                got.to_bits(),
                BitWidth::F64.xor(c.exact, 1 << bit).to_bits()
            );
            assert_eq!(lfsr_a.state(), lfsr_b.state(), "extra LFSR draws");
        }
        assert_eq!(stats.faults(), 512);
    }

    #[test]
    fn stuck_at_forces_and_skips_invisible_strikes() {
        let spec = FaultModelSpec::stuck_at(63, true, BitWidth::F64);
        let mut lfsr = Lfsr::new(1);
        let mut stats = FaultStats::default();
        // 2.0 has sign bit 0: the strike forces it negative and records.
        let c = ctx(FlopOp::Add, 1.0, 1.0, 0);
        assert_eq!(spec.corrupt(&c, &mut lfsr, &mut stats), -2.0);
        assert_eq!(stats.faults(), 1);
        // -2.0 already has sign bit 1: invisible, nothing recorded.
        let c = ctx(FlopOp::Sub, -1.0, 1.0, 1);
        assert_eq!(spec.corrupt(&c, &mut lfsr, &mut stats), -2.0);
        assert_eq!(stats.faults(), 1);
    }

    #[test]
    fn burst_flips_adjacent_bits() {
        let spec = FaultModelSpec::burst(4, BitFaultModel::lsb_only(BitWidth::F64));
        let mut lfsr = Lfsr::new(5);
        let mut stats = FaultStats::default();
        for i in 0..64u64 {
            let c = ctx(FlopOp::Mul, 3.0, 5.0, i);
            let got = spec.corrupt(&c, &mut lfsr, &mut stats);
            let diff = c.exact.to_bits() ^ got.to_bits();
            assert_eq!(diff.count_ones(), 4, "burst should flip 4 bits");
            // Adjacency: the flipped bits form one contiguous run.
            let shifted = diff >> diff.trailing_zeros();
            assert_eq!(shifted, 0b1111, "bits not adjacent: {diff:b}");
        }
        assert_eq!(stats.faults(), 64, "one recorded fault per burst event");
    }

    #[test]
    fn operand_faults_produce_exact_results_of_wrong_inputs() {
        let spec = FaultModelSpec::operand(BitFaultModel::uniform(BitWidth::F64));
        let mut lfsr = Lfsr::new(3);
        let mut stats = FaultStats::default();
        let mut changed = 0;
        for i in 0..256u64 {
            let c = ctx(FlopOp::Mul, 3.0, 5.0, i);
            let got = spec.corrupt(&c, &mut lfsr, &mut stats);
            // The result is some a' * 5.0 or 3.0 * b' where the primed
            // operand differs from the original in exactly one bit.
            let as_a = got / 5.0;
            let as_b = got / 3.0;
            let one_bit = |v: f64, orig: f64| {
                v.is_finite() && (v.to_bits() ^ orig.to_bits()).count_ones() == 1
            };
            assert!(
                one_bit(as_a, 3.0) || one_bit(as_b, 5.0) || !got.is_finite(),
                "strike {i}: {got} is not an exact product of a one-bit-off operand"
            );
            if got != c.exact {
                changed += 1;
            }
        }
        assert_eq!(stats.faults(), 256);
        assert!(changed > 200, "most operand flips should change the result");
    }

    #[test]
    fn sqrt_operand_faults_land_on_the_only_operand() {
        let spec = FaultModelSpec::operand(BitFaultModel::uniform(BitWidth::F64));
        let mut lfsr = Lfsr::new(17);
        let mut stats = FaultStats::default();
        // Every possible outcome: sqrt of a one-bit-off 9.0.
        let outcomes: Vec<u64> = (0..64)
            .map(|bit| {
                f64::from_bits(9.0f64.to_bits() ^ (1u64 << bit))
                    .sqrt()
                    .to_bits()
            })
            .collect();
        for i in 0..64u64 {
            let c = ctx(FlopOp::Sqrt, 9.0, 0.0, i);
            let got = spec.corrupt(&c, &mut lfsr, &mut stats);
            assert!(
                outcomes.contains(&got.to_bits()),
                "sqrt fault must corrupt the single operand (got {got})"
            );
        }
    }

    #[test]
    fn intermittent_is_silent_outside_the_window() {
        let spec = FaultModelSpec::intermittent(0.25, 100, FaultModelSpec::default());
        let mut lfsr = Lfsr::new(7);
        let mut stats = FaultStats::default();
        for flop in 0..1000u64 {
            let c = ctx(FlopOp::Add, 1.0, 2.0, flop);
            let got = spec.corrupt(&c, &mut lfsr, &mut stats);
            if flop % 100 >= 25 {
                assert_eq!(got, c.exact, "fault outside duty window at {flop}");
            }
        }
        assert!(stats.faults() > 0, "in-window strikes must fault");
        assert!(stats.faults() <= 250, "only in-window strikes may fault");
    }

    #[test]
    fn op_selective_ignores_other_ops() {
        let spec = FaultModelSpec::op_selective(
            vec![FlopOp::Mul, FlopOp::Div],
            FaultModelSpec::transient(BitFaultModel::msb_only(BitWidth::F64)),
        );
        let mut lfsr = Lfsr::new(13);
        let mut stats = FaultStats::default();
        for i in 0..100u64 {
            let c = ctx(FlopOp::Add, 1.0, 2.0, i);
            assert_eq!(spec.corrupt(&c, &mut lfsr, &mut stats), 3.0);
        }
        assert_eq!(stats.faults(), 0);
        let c = ctx(FlopOp::Mul, 3.0, 5.0, 0);
        let got = spec.corrupt(&c, &mut lfsr, &mut stats);
        assert_ne!(got, 15.0, "MSB flips always change a finite value");
        assert_eq!(stats.faults(), 1);
    }

    #[test]
    fn presets_cover_every_family() {
        for name in [
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
        ] {
            assert!(
                FaultModelSpec::from_preset(name).is_some(),
                "preset {name} missing"
            );
        }
        assert!(FaultModelSpec::from_preset("nope").is_none());
    }

    #[test]
    fn json_is_stable_and_nested() {
        let spec = FaultModelSpec::intermittent(
            0.5,
            1000,
            FaultModelSpec::op_selective(vec![FlopOp::Mul], FaultModelSpec::default()),
        );
        let json = spec.to_json();
        assert!(json.contains("\"kind\":\"intermittent\""));
        assert!(json.contains("\"duty\":0.5"));
        assert!(json.contains("\"kind\":\"op_selective\""));
        assert!(json.contains("\"ops\":[\"mul\"]"));
        assert!(json.contains("\"distribution\":\"emulated\""));
        assert_eq!(
            FaultModelSpec::stuck_at(7, false, BitWidth::F32).to_json(),
            "{\"kind\":\"stuck_at\",\"bit\":7,\"stuck_to\":0,\"width\":\"f32\"}"
        );
    }

    #[test]
    fn json_round_trips_across_every_family_member() {
        for spec in family() {
            let json = spec.to_json();
            let parsed =
                FaultModelSpec::from_json(&json).unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
            assert_eq!(parsed, spec, "round trip changed {}", spec.name());
            assert_eq!(parsed.to_json(), json, "re-serialization drifted");
            assert_eq!(
                fnv1a_64(parsed.to_json().as_bytes()),
                fnv1a_64(spec.to_json().as_bytes())
            );
        }
    }

    #[test]
    fn json_hashes_separate_distinct_specs() {
        let hashes: Vec<u64> = family()
            .iter()
            .map(|s| fnv1a_64(s.to_json().as_bytes()))
            .collect();
        let distinct: std::collections::HashSet<&u64> = hashes.iter().collect();
        assert_eq!(distinct.len(), hashes.len(), "hash collision in family");
    }

    #[test]
    fn from_json_rejects_malformed_specs() {
        for bad in [
            "{}",
            r#"{"kind":"nope"}"#,
            r#"{"kind":"transient","distribution":"custom","width":"f64"}"#,
            r#"{"kind":"stuck_at","bit":64,"stuck_to":0,"width":"f64"}"#,
            r#"{"kind":"burst","length":0,"distribution":"emulated","width":"f64"}"#,
            r#"{"kind":"burst","length":65,"distribution":"emulated","width":"f64"}"#,
            r#"{"kind":"burst","length":33,"distribution":"emulated","width":"f32"}"#,
            r#"{"kind":"burst","length":18446744073709551615,"distribution":"emulated","width":"f64"}"#,
            r#"{"kind":"intermittent","duty":1.5,"period":10,
                "inner":{"kind":"transient","distribution":"emulated","width":"f64"}}"#,
            r#"{"kind":"op_selective","ops":["frobnicate"],
                "inner":{"kind":"transient","distribution":"emulated","width":"f64"}}"#,
            r#"{"kind":"intermittent","duty":0.5,"period":10,
                "inner":{"kind":"register_file","slots":4,"scrub_interval":0,
                         "distribution":"emulated","width":"f64"}}"#,
            r#"{"kind":"voltage_linked","voltage":0.7}"#,
        ] {
            assert!(
                FaultModelSpec::from_json(bad).is_err(),
                "accepted malformed spec {bad}"
            );
        }
    }

    #[test]
    fn voltage_linked_spec_overrides_the_rate() {
        let model = VoltageErrorModel::paper_figure_5_2();
        let spec = FaultModelSpec::voltage_linked(model.clone(), 0.7);
        assert_eq!(spec.name(), "vdd0.700_transient_emulated");
        assert_eq!(spec.voltage(), Some(0.7));
        assert_eq!(
            spec.rate_override().expect("voltage-linked").fraction(),
            model.error_rate(0.7).min(1.0)
        );
        assert_eq!(spec.energy_for_flops(1000), Some(model.energy(1000, 0.7)));
        let json = spec.to_json();
        assert!(json.contains("\"kind\":\"voltage_linked\""));
        assert!(json.contains("\"voltage\":0.7"));
        // Non-voltage specs have no rate or energy semantics.
        assert_eq!(FaultModelSpec::default().rate_override(), None);
        assert_eq!(FaultModelSpec::default().energy_for_flops(10), None);
        assert_eq!(FaultModelSpec::default().voltage(), None);
    }

    #[test]
    fn dvfs_schedule_energy_follows_the_steps() {
        let model = VoltageErrorModel::paper_figure_5_2();
        let spec = FaultModelSpec::dvfs(
            model.clone(),
            vec![
                DvfsStep {
                    flops: 100,
                    voltage: 0.9,
                },
                DvfsStep {
                    flops: 50,
                    voltage: 0.7,
                },
            ],
        );
        assert_eq!(spec.name(), "dvfs2step_transient_emulated");
        // Piecewise energy: 100 FLOPs at 0.9, 50 at 0.7, 850 at 0.7.
        let expected = model.energy(100, 0.9) + model.energy(50, 0.7) + model.energy(850, 0.7);
        let got = spec.energy_for_flops(1000).expect("dvfs has energy");
        assert!((got - expected).abs() < 1e-9);
        // Under-schedule runs stop early.
        let short = spec.energy_for_flops(60).expect("dvfs has energy");
        assert!((short - model.energy(60, 0.9)).abs() < 1e-9);
        assert!(spec.to_json().contains("\"kind\":\"dvfs\""));
    }

    #[test]
    fn memory_specs_expose_their_model() {
        let spec = FaultModelSpec::register_file(32, BitFaultModel::emulated(), 500);
        assert_eq!(spec.name(), "regfile32_scrub500_emulated");
        assert!(spec.memory_model().is_some());
        assert!(spec.is_injector_level());
        assert_eq!(FaultModelSpec::default().memory_model(), None);
        let array = FaultModelSpec::array_resident(8, BitFaultModel::emulated(), 0);
        assert_eq!(array.name(), "array8_scrub0_emulated");
        assert!(array.to_json().contains("\"kind\":\"array_resident\""));
    }

    #[test]
    #[should_panic(expected = "injector-level")]
    fn injector_level_specs_cannot_nest() {
        FaultModelSpec::intermittent(
            0.5,
            10,
            FaultModelSpec::register_file(4, BitFaultModel::emulated(), 0),
        );
    }

    #[test]
    #[should_panic(expected = "injector-level")]
    fn literal_nested_injector_specs_fail_at_fpu_construction() {
        // Assembling the enum directly bypasses the constructor guard;
        // the FPU still refuses to silently degrade the semantics.
        let spec = FaultModelSpec::OpSelective {
            inner: Box::new(FaultModelSpec::array_resident(
                8,
                BitFaultModel::emulated(),
                0,
            )),
            ops: vec![FlopOp::Mul],
        };
        crate::NoisyFpu::new(FaultRate::ZERO, spec, 0);
    }

    #[test]
    #[should_panic(expected = "duty cycle")]
    fn bad_duty_rejected() {
        FaultModelSpec::intermittent(1.5, 10, FaultModelSpec::default());
    }

    #[test]
    #[should_panic(expected = "stuck-at bit")]
    fn out_of_range_stuck_bit_rejected() {
        FaultModelSpec::stuck_at(64, true, BitWidth::F64);
    }

    #[test]
    #[should_panic(expected = "burst length")]
    fn zero_burst_rejected() {
        FaultModelSpec::burst(0, BitFaultModel::emulated());
    }

    #[test]
    #[should_panic(expected = "burst length must be in 1..=32, got 33")]
    fn burst_longer_than_the_word_rejected() {
        FaultModelSpec::burst(33, BitFaultModel::uniform(BitWidth::F32));
    }

    #[test]
    fn burst_length_is_checked_against_the_width() {
        let json = |length: u64, width: &str| {
            format!(
                r#"{{"kind":"burst","length":{length},"distribution":"uniform","width":"{width}"}}"#
            )
        };
        let err = FaultModelSpec::from_json(&json(u64::MAX, "f64")).expect_err("too long");
        assert_eq!(err, "fault model spec needs an in-range \"length\"");
        assert!(FaultModelSpec::from_json(&json(32, "f32")).is_ok());
        // A word-wide burst flips every bit from its start to the top.
        let spec = FaultModelSpec::from_json(&json(64, "f64")).expect("word-wide burst");
        let mut lfsr = Lfsr::new(1);
        let mut stats = FaultStats::default();
        for i in 0..64 {
            let got = spec.corrupt(&ctx(FlopOp::Mul, 3.0, 5.0, i), &mut lfsr, &mut stats);
            let diff = got.to_bits() ^ 15.0f64.to_bits();
            assert_eq!(diff.trailing_zeros() + diff.count_ones(), 64, "{diff:b}");
        }
        assert_eq!(stats.faults(), 64);
    }
}
