//! The paper's transformed applications (Chapter 4) and their deterministic
//! baselines.
//!
//! Each module pairs a *robustified* implementation — the application recast
//! as a numerical optimization problem and solved with the stochastic
//! engines of [`robustify_core`] — with the *state-of-the-art deterministic
//! baseline* the paper compares against, both executed through the same
//! fault-injected [`Fpu`](stochastic_fpu::Fpu):
//!
//! | Module | Robust form | Baseline |
//! |---|---|---|
//! | [`least_squares`] | SGD / CG on `‖Ax−b‖²` (§4.1) | SVD, QR, Cholesky |
//! | [`iir`] | banded least squares `‖Bx−Au‖²` (§4.2) | direct-form recursion |
//! | [`sorting`] | LP over doubly stochastic matrices (§4.3) | quicksort / mergesort |
//! | [`matching`] | LP over doubly stochastic matrices (§4.4) | Hungarian |
//! | [`maxflow`] | flow LP (§4.5) | Ford–Fulkerson |
//! | [`apsp`] | distance LP (§4.6) | Floyd–Warshall |
//! | [`eigen`] | penalized Rayleigh quotient + deflation (§4.7) | power iteration |
//! | [`svm`] | hinge-loss data fitting (§4.7) | reliable SGD reference |
//! | [`doubly_stochastic`] | assignment LP (4.3) as its own problem | Hungarian |
//! | [`poisson2d`] | sparse CG on the 5-point Laplacian (§3.3 at 10⁵ unknowns) | — |
//!
//! Every application implements
//! [`RobustProblem`](robustify_core::RobustProblem), so any of them can be
//! paired with any declarative [`SolverSpec`](robustify_core::SolverSpec)
//! and swept in parallel by `robustify_engine` — the experiment binaries in
//! `robustify_bench` are thin campaign descriptions over exactly this
//! interface. (The old serial `harness::TrialConfig` shim is gone; register
//! the problem in a [`WorkloadRegistry`](robustify_core::WorkloadRegistry)
//! and run a [`CampaignSpec`](robustify_engine::campaign::CampaignSpec)
//! instead — the engine keeps the shim's exact per-trial seeding via
//! [`derive_trial_seed`](robustify_engine::derive_trial_seed).)

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod apsp;
pub mod doubly_stochastic;
pub mod eigen;
pub mod iir;
pub mod least_squares;
pub mod matching;
pub mod maxflow;
pub mod poisson2d;
pub mod sorting;
pub mod svm;
