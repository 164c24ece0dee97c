//! The grid as *data*: declarative campaign specs, a content-addressed
//! result cache, the one executor every grid runs through, and the
//! line-delimited JSON protocol of the `campaign_server` daemon.
//!
//! A campaign names each job's workload in a
//! [`WorkloadRegistry`](robustify_core::WorkloadRegistry) and carries
//! declarative solver and fault-model specs instead of closures, so the
//! same experiment runs in-process, ships to a daemon, hashes into cache
//! keys, checkpoints, and resumes. Callers with bespoke workloads register
//! them in a registry of their own.
//!
//! The pieces:
//!
//! * [`CampaignSpec`] / [`JobSpec`] — the wire format: grid axes plus
//!   jobs, round-tripping through canonical JSON.
//! * [`ResultCache`] — per-cell trial records on disk, keyed by a content
//!   hash of everything that determines the cell's trials (workload,
//!   instantiation, seed, trials, rate, solver, fault model). Because the
//!   executor is bit-deterministic in exactly those inputs, replaying a
//!   cached cell is indistinguishable from re-running it — which is what
//!   makes resuming a killed campaign sound.
//! * [`run_on`] — the executor: cache-hit cells replay instantly, missing
//!   cells decompose into trial-granular items on a work-stealing
//!   [`Scheduler`](crate::Scheduler) (so a heavy sparse cell load-balances
//!   across workers instead of serializing), each cell checkpoints as its
//!   last trial lands, and the cells assemble into a
//!   [`SweepResult`](crate::SweepResult) document. [`run`] opens a scoped
//!   pool sized by the spec and calls `run_on`; the daemon calls `run_on`
//!   with its process-wide pool.
//! * [`protocol`] — newline-delimited JSON requests/events over
//!   stdin/stdout or TCP, shared by the daemon and its thin clients.

mod cache;
pub mod protocol;
mod runner;
mod spec;

pub use cache::ResultCache;
pub use runner::{resolve_cells, run, run_on, CampaignRun, CellUpdate, ResolvedCell};
pub use spec::{CampaignSpec, Instantiate, JobSpec};
