//! The experiment engine: a multi-threaded, bit-deterministic executor
//! over `(workload × solver × fault model × fault rate)` grids.
//!
//! Every figure of the paper is the same experiment shape: for each fault
//! rate, run `N` independently seeded trials of some `(problem, solver)`
//! pairing and aggregate success rates or error quantiles. This crate
//! executes that shape once, in parallel, through one path:
//!
//! * [`campaign`] — the grid as *data*:
//!   [`CampaignSpec`](campaign::CampaignSpec) sets the axes (fault rates
//!   or supply voltages, trials per cell, base seed, default
//!   [`FaultModelSpec`](stochastic_fpu::FaultModelSpec), worker threads)
//!   and [`JobSpec`](campaign::JobSpec) columns name workloads in a
//!   [`WorkloadRegistry`](robustify_core::WorkloadRegistry), with optional
//!   solver, fault-model and trial-count overrides. A voltage axis derives
//!   each column's rate through a
//!   [`VoltageErrorModel`](stochastic_fpu::VoltageErrorModel) (Figure 5.2)
//!   and adds `energy = P(V) × FLOPs` provenance (Figure 6.7).
//!   [`campaign::run`] executes a spec on a private pool and
//!   [`campaign::run_on`] on a shared one, replaying and checkpointing
//!   cells through an optional content-addressed result cache;
//!   [`campaign::protocol`] carries the same specs to the
//!   `campaign_server` daemon.
//! * [`SweepResult`] / [`CellStats`] / [`MetricSummary`] — the result
//!   document: streaming aggregates (success rate, error quantiles,
//!   FLOP/fault totals) with CSV and JSON emitters.
//! * [`scheduler`] — the work-stealing pool underneath: a flattened
//!   `(cell × trial-chunk)` item space on per-worker FIFO deques with
//!   front-stealing, so heterogeneous cells load-balance and the daemon
//!   multiplexes concurrent submissions fairly onto one process-wide pool.
//!
//! # Determinism
//!
//! Trial `i` of any cell always runs on an FPU seeded by
//! [`derive_trial_seed`]`(base_seed, i)` — the exact SplitMix derivation
//! of the original serial harness — on an instance drawn from
//! [`problem_seed`]`(base_seed, i)` (or the base seed, for a fixed
//! instance), and aggregation folds records in trial-index order. Worker
//! threads only decide *when* a trial runs, never *what* it computes or
//! how results combine, so a campaign's documents are byte-identical for
//! 1 thread and N threads.
//!
//! # Examples
//!
//! ```
//! use robustify_core::{DynProblem, SolverSpec, Verdict, WorkloadRegistry};
//! use robustify_engine::campaign::{self, CampaignSpec, JobSpec};
//! use stochastic_fpu::{Fpu, NoisyFpu};
//!
//! /// One FPU addition, judged exactly.
//! struct Add;
//!
//! impl DynProblem for Add {
//!     fn name(&self) -> &'static str {
//!         "add"
//!     }
//!
//!     fn run_trial_dyn(&self, _spec: &SolverSpec, fpu: &mut NoisyFpu) -> Verdict {
//!         Verdict::from_metric((fpu.add(1.0, 1.0) - 2.0).abs(), 1e-9)
//!     }
//! }
//!
//! let mut registry = WorkloadRegistry::new();
//! registry.register(
//!     "add",
//!     Box::new(|_seed| Box::new(Add)),
//!     Box::new(|_seed| SolverSpec::baseline()),
//! );
//! let spec = CampaignSpec::new("demo")
//!     .rates(vec![0.0, 50.0])
//!     .trials(8)
//!     .seed(42)
//!     .job(JobSpec::new("add", "add"));
//! let run = campaign::run(&spec, &registry, None, |_| {}).unwrap();
//! assert_eq!(run.result.cell(0, 0).success_rate(), 100.0);
//! assert_eq!(run.result.total_trials(), 16);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod scheduler;
mod stats;
mod sweep;

pub use scheduler::{JobHandle, Placement, Scheduler, WorkSet};
pub use stats::{CellStats, MetricSummary, TrialRecord};
pub use sweep::{
    derive_trial_seed, extended_fault_rates, paper_fault_rates, problem_seed, SweepResult,
};
