//! `robustify` — a reproduction of the DSN 2010 paper *"A Numerical
//! Optimization-Based Methodology for Application Robustification:
//! Transforming Applications for Error Tolerance"* (Sloan, Kesler, Rahimi,
//! Kumar).
//!
//! The idea: instead of guardbanding a processor against voltage-scaling
//! induced timing errors, let the errors happen and recast applications as
//! numerical optimization problems solved by stochastic gradient descent —
//! an algorithm that provably tolerates unbiased gradient noise.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`fpu`] — the stochastic-processor substrate: fault-injecting FPU,
//!   LFSR scheduling, the fault-scenario family
//!   ([`FaultModelSpec`](fpu::FaultModelSpec): transient flips, stuck-at
//!   bits, bursts, operand corruption, intermittent and op-selective
//!   faults), voltage/energy model.
//! * [`linalg`] — dense/banded linear algebra executed through the FPU
//!   (QR, SVD, Cholesky baselines).
//! * [`core`] — the robustification framework: cost functions, exact
//!   penalty transforms, SGD (with step schedules, momentum, aggressive
//!   stepping, annealing, preconditioning), conjugate gradient, and the
//!   unified [`RobustProblem`](core::RobustProblem) /
//!   [`SolverSpec`](core::SolverSpec) experiment interface.
//! * [`graph`] — graph substrate and exact combinatorial baselines
//!   (Hungarian, Ford–Fulkerson, Floyd–Warshall, Dijkstra).
//! * [`apps`] — the paper's transformed applications: least squares, IIR
//!   filtering, sorting, bipartite matching, max-flow, all-pairs shortest
//!   paths, eigenvalue extraction, SVM fitting, assignment — every one a
//!   [`RobustProblem`](core::RobustProblem).
//! * [`engine`] — the multi-threaded deterministic campaign executor over
//!   `(workload × fault model × fault rate × solver)` grids, with a
//!   content-addressed result cache, streaming aggregation and CSV/JSON
//!   emitters.
//!
//! # Quickstart
//!
//! ```
//! use robustify::apps::least_squares::LeastSquares;
//! use robustify::core::{RobustProblem, SolverSpec, StepSchedule};
//! use robustify::fpu::{BitFaultModel, FaultRate, NoisyFpu};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A least squares problem solved on an FPU where 1% of FLOPs fault.
//! let problem = LeastSquares::from_rows(&[
//!     &[1.0, 1.0],
//!     &[1.0, 2.0],
//!     &[1.0, 3.0],
//! ], vec![1.0, 2.0, 3.0])?;
//! let mut fpu = NoisyFpu::new(FaultRate::per_flop(0.01), BitFaultModel::emulated(), 42);
//! // 1000 SGD iterations with 1/t step scaling (the Figure 6.2 solver).
//! let spec = SolverSpec::sgd(1000, StepSchedule::Linear { gamma0: problem.default_gamma0() });
//! let x = problem.solve(&spec, &mut fpu)?.solution.expect("sgd decodes");
//! assert!(problem.relative_error(&x) < 0.5);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use robustify_apps as apps;
pub use robustify_core as core;
pub use robustify_engine as engine;
pub use robustify_graph as graph;
pub use robustify_linalg as linalg;
pub use stochastic_fpu as fpu;
