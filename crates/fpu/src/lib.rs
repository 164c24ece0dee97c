//! Software emulation of a *stochastic processor's* floating point unit.
//!
//! The DSN 2010 paper ["A Numerical Optimization-Based Methodology for
//! Application Robustification"] evaluates its approach on an FPGA hosting a
//! Leon3 soft core whose FPU results are perturbed by a software-controlled
//! fault injector: *"At random times, the fault injector perturbs one
//! randomly chosen bit in the output of the FPU before it is committed to a
//! register."* This crate reproduces that substrate in software:
//!
//! * [`Fpu`] — the arithmetic capability every numerical kernel in the
//!   workspace is written against. Implementations decide whether results
//!   are exact or perturbed.
//! * [`ReliableFpu`] — exact IEEE-754 arithmetic with FLOP accounting; the
//!   "control plane" and the error-free baseline.
//! * [`NoisyFpu`] — the fault injector: corrupts operation results at
//!   LFSR-scheduled random intervals according to a serializable
//!   [`FaultModelSpec`] scenario. The paper's scenario — flip one randomly chosen
//!   bit of the committed result, position drawn from a
//!   [`BitFaultModel`] (Figure 5.1 is the [`BitFaultModel::emulated`]
//!   preset) — is the default; stuck-at-0/1 bits, multi-bit bursts,
//!   operand-side corruption, intermittent duty-cycle faults and
//!   op-selective (e.g. mul/div-only) faults are sweepable alternatives.
//!   Voltage-linked specs ([`FaultModelSpec::VoltageLinked`], a fixed
//!   overscaled supply; [`FaultModelSpec::DvfsSchedule`], a stepped
//!   trajectory) derive the injection *rate* from the supply voltage
//!   through the Figure 5.2 model, and memory-persistent specs
//!   ([`MemoryFaultModel`]: register-file latch damage, array-resident
//!   word upsets) install corruptions that stay in state between
//!   operations until scrubbed or overwritten.
//! * **Batched execution** — because fault *intervals* are drawn up
//!   front, the injector always knows how many upcoming FLOPs are
//!   guaranteed exact. [`Fpu::run_exact`] / [`Fpu::commit_exact`] expose
//!   that window, and the trait's batch kernels ([`Fpu::dot_batch`],
//!   [`Fpu::axpy_batch`], [`Fpu::scale_batch`], [`Fpu::gemv_row`], …) run
//!   the fault-free stretch as a tight native loop — **bit-identical** to
//!   per-op dispatch (same results, counters, LFSR draws and statistics),
//!   just faster.
//! * [`Lfsr`] — the Galois linear feedback shift register used to draw
//!   inter-fault intervals, mirroring the paper's methodology chapter.
//! * [`VoltageErrorModel`] — the voltage ↦ FPU-error-rate curve of Figure
//!   5.2 together with a dynamic-power model, used for the energy results of
//!   Figure 6.7.
//!
//! # Quickstart
//!
//! ```
//! use stochastic_fpu::{Fpu, NoisyFpu, BitFaultModel, FaultRate};
//!
//! // An FPU where on average 1% of floating point operations are faulty.
//! let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.01), BitFaultModel::emulated(), 42);
//! let x = fpu.mul(3.0, 7.0); // usually 21.0, occasionally bit-corrupted
//! assert!(x == 21.0 || x != 21.0); // value depends on the fault schedule
//! assert_eq!(fpu.flops(), 1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod energy;
mod fault;
mod fpu;
pub mod json;
mod lfsr;
mod memory;
mod model;

pub use energy::VoltageErrorModel;
pub use fault::{BitFaultModel, BitWidth, FaultRate, FaultStats};
pub use fpu::{
    FlopOp, Fpu, FpuExt, FpuSnapshot, NoisyFpu, ReliableFpu, LANE_REDUCTION_MIN, LANE_WIDTH,
};
pub use lfsr::Lfsr;
pub use memory::{MemoryFaultKind, MemoryFaultModel, MemoryFaultState};
pub use model::{DvfsStep, FaultModelSpec};
