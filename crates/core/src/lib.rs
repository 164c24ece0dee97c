//! Application robustification by numerical optimization — the core
//! framework of the DSN 2010 paper *"A Numerical Optimization-Based
//! Methodology for Application Robustification"*.
//!
//! The methodology: recast an application as the minimization of a cost
//! function `f` whose minimum encodes the application's output, then solve
//! it with an optimizer that provably tolerates *unbiased* gradient noise —
//! here, noise injected by a fault-prone FPU rather than by data
//! subsampling. Constrained forms are mechanically converted to
//! unconstrained ones by an exact penalty transform (the paper's Theorem 2).
//!
//! The pieces:
//!
//! * [`RobustProblem`] / [`SolverSpec`] — the unified experiment interface:
//!   every application is a cost + decode + verify triple, every solver
//!   configuration is declarative data, so any pairing can be swept by the
//!   `robustify_engine` executor without bespoke harness code. The
//!   injector side of a trial is declarative too: a [`FaultModelSpec`]
//!   (re-exported from `stochastic_fpu`) describes *which hardware
//!   scenario* corrupts the [`Fpu`](stochastic_fpu::Fpu) a trial runs on —
//!   the paper's transient bit flip, stuck-at bits, bursts, operand
//!   corruption, intermittent and op-selective faults — so sweep grids
//!   pair every `(problem, solver)` with every scenario.
//! * [`CostFunction`] — the variational interface; gradients are evaluated
//!   through an [`Fpu`](stochastic_fpu::Fpu) (the noisy *data plane*), while
//!   solver bookkeeping stays native (the protected *control plane*).
//! * [`PenaltyCost`] / [`AffineConstraints`] — exact penalty transform with
//!   L1 (Theorem 2) and squared-hinge penalty forms and annealable `μ`.
//! * [`LinearProgram`] — the generic combinatorial engine: sorting,
//!   matching, max-flow and shortest paths all reduce to LPs (§4.3–4.7).
//! * [`run_sgd`] — stochastic (sub)gradient descent with the paper's
//!   step-size schedules (`1/t`, `1/√t`, fixed), aggressive stepping,
//!   momentum, and penalty annealing (§3.2, §6.2).
//! * [`run_cgls`] — conjugate gradient least squares with periodic
//!   direction resets for noisy gradients (§3.3, §6.3).
//! * [`precondition_lp`] — QR preconditioning of ill-conditioned LPs
//!   (§6.2.1).
//!
//! Both solvers read their configuration from a [`SolverSpec`], the one
//! description of a solver that campaigns, cache keys and figures share.
//!
//! # Quickstart: a robust least squares solve
//!
//! ```
//! use robustify_core::{run_sgd, QuadraticResidualCost, SolverSpec, StepSchedule};
//! use robustify_linalg::Matrix;
//! use stochastic_fpu::{BitFaultModel, FaultRate, NoisyFpu};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // f(x) = ||Ax - b||^2 for A = I, b = [3, 4]: minimum at x = b.
//! let a = Matrix::identity(2);
//! let mut cost = QuadraticResidualCost::new(a, vec![3.0, 4.0])?;
//! let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.001), BitFaultModel::emulated(), 1);
//! let spec = SolverSpec::sgd(500, StepSchedule::Fixed(0.2));
//! let report = run_sgd(&spec, &mut cost, &[0.0, 0.0], &mut fpu);
//! assert!((report.x[0] - 3.0).abs() < 0.1);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod cg;
mod cost;
mod error;
mod lp;
mod penalty;
mod precondition;
mod problem;
mod schedule;
mod sgd;
#[cfg(test)]
pub(crate) mod test_util;
mod workload;

pub use cg::run_cgls;
pub use cost::{CostFunction, LinearCost, QuadraticCost, QuadraticResidualCost};
pub use error::CoreError;
pub use lp::LinearProgram;
pub use penalty::{AffineConstraints, PenaltyCost, PenaltyKind};
pub use precondition::{precondition_lp, PreconditionedLp};
pub use problem::{
    default_solve, RobustOutcome, RobustProblem, SolveMethod, SolverSpec, Verdict, MAX_SOLVER_STEPS,
};
pub use schedule::StepSchedule;
pub use sgd::{run_sgd, AggressiveStepping, Annealing, GradientGuard, GuardState, SolveReport};
pub use workload::{DynProblem, ProblemFactory, SolverFactory, WorkloadRegistry};

// The injector-side vocabulary of a trial, re-exported so problem and
// sweep authors can describe the full (problem × fault model × solver)
// experiment from one crate — including the voltage-linked (DVFS) and
// memory-persistent scenario families.
pub use stochastic_fpu::{
    DvfsStep, FaultModelSpec, MemoryFaultKind, MemoryFaultModel, VoltageErrorModel,
};
