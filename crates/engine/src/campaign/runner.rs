//! The campaign executor: resolve jobs against a registry, replay
//! cache-hit cells, decompose the misses into trial-granular items on the
//! shared work-stealing [`Scheduler`], checkpoint each cell as its last
//! trial lands, and assemble a standard [`SweepResult`].

use super::cache::ResultCache;
use super::spec::{CampaignSpec, Instantiate};
use crate::scheduler::{self, Scheduler, WorkSet};
use crate::stats::{CellStats, TrialRecord};
use crate::sweep::{derive_trial_seed, problem_seed, CaseParts};
use crate::SweepResult;
use robustify_core::{DynProblem, SolverSpec, WorkloadRegistry};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use stochastic_fpu::json::escape;
use stochastic_fpu::{FaultModelSpec, FaultRate, Fpu, NoisyFpu};

/// One grid cell after resolution: which `(job, rate)` it is and the
/// canonical content key its records are cached under.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedCell {
    /// Index into [`CampaignSpec::jobs`].
    pub job_index: usize,
    /// Index into [`CampaignSpec::rates_pct`].
    pub rate_index: usize,
    /// The canonical key document (see [`ResultCache`]).
    pub key_json: String,
}

/// A progress event: one cell finished (by execution or cache replay).
#[derive(Debug, Clone, PartialEq)]
pub struct CellUpdate {
    /// Index into [`CampaignSpec::jobs`].
    pub job_index: usize,
    /// Index into [`CampaignSpec::rates_pct`].
    pub rate_index: usize,
    /// The job label.
    pub label: String,
    /// The cell's fault rate (percent of FLOPs).
    pub rate_pct: f64,
    /// Whether the cell was replayed from the cache.
    pub cached: bool,
    /// Trials in the cell.
    pub trials: usize,
    /// Successful trials in the cell.
    pub successes: usize,
}

/// A finished campaign: the deterministic result document plus how this
/// particular execution went (cache replays, workers, wall clock).
#[derive(Debug)]
pub struct CampaignRun {
    /// The assembled result document.
    pub result: SweepResult,
    /// Total cells in the grid.
    pub cells_total: usize,
    /// Cells replayed from the cache rather than executed.
    pub cells_cached: usize,
    /// Worker threads of the pool the campaign ran on.
    pub threads: usize,
    /// Wall-clock duration of the run (never part of the documents).
    pub elapsed: Duration,
}

impl CampaignRun {
    /// Trials per second of wall clock for this run.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return f64::INFINITY;
        }
        self.result.total_trials() as f64 / secs
    }
}

struct ResolvedJob {
    label: String,
    workload: String,
    instantiate: Instantiate,
    solver: SolverSpec,
    fault_model: FaultModelSpec,
    trials: usize,
}

fn resolve_jobs(
    spec: &CampaignSpec,
    registry: &WorkloadRegistry,
) -> Result<Vec<ResolvedJob>, String> {
    spec.validate()?;
    spec.jobs()
        .iter()
        .map(|job| {
            if !registry.contains(job.workload()) {
                return Err(format!(
                    "unknown workload \"{}\" (registry has: {})",
                    job.workload(),
                    registry.names().join(", "),
                ));
            }
            let solver = match job.solver() {
                Some(s) => s.clone(),
                // Default solvers are seed-tuned per instance; resolve
                // against the campaign's base seed, which is also the
                // fixed-instantiation seed.
                None => registry
                    .default_solver(job.workload(), spec.base_seed())
                    .expect("contains() checked"),
            };
            Ok(ResolvedJob {
                label: job.label().to_string(),
                workload: job.workload().to_string(),
                instantiate: job.instantiate(),
                solver,
                fault_model: job
                    .fault_model()
                    .cloned()
                    .unwrap_or_else(|| spec.fault_model().clone()),
                trials: job.trials().unwrap_or_else(|| spec.trials_per_cell()),
            })
        })
        .collect()
}

/// The canonical content key of one cell: exactly the inputs the
/// deterministic executor's records depend on, nothing else. Grid
/// provenance that does not alter trials (campaign name, voltage labels,
/// thread count) is deliberately absent, so equivalent cells share work
/// across campaigns.
fn cell_key_json(job: &ResolvedJob, base_seed: u64, rate_pct: f64) -> String {
    format!(
        "{{\"workload\":\"{}\",\"instantiate\":\"{}\",\"base_seed\":{},\"trials\":{},\
         \"rate_pct\":{},\"solver\":{},\"fault_model\":{}}}",
        escape(&job.workload),
        job.instantiate.name(),
        base_seed,
        job.trials,
        rate_pct,
        job.solver.to_json(),
        job.fault_model.to_json(),
    )
}

/// Resolves a campaign's grid into its cells and their cache keys (cell
/// order: jobs outer, rates inner), without running anything.
pub fn resolve_cells(
    spec: &CampaignSpec,
    registry: &WorkloadRegistry,
) -> Result<Vec<ResolvedCell>, String> {
    let jobs = resolve_jobs(spec, registry)?;
    let mut cells = Vec::with_capacity(jobs.len() * spec.rates_pct().len());
    for (job_index, job) in jobs.iter().enumerate() {
        for (rate_index, &rate_pct) in spec.rates_pct().iter().enumerate() {
            cells.push(ResolvedCell {
                job_index,
                rate_index,
                key_json: cell_key_json(job, spec.base_seed(), rate_pct),
            });
        }
    }
    Ok(cells)
}

/// One executing (cache-missed) cell inside the flattened trial space.
struct ExecCell {
    /// Index into the full resolved grid (`slots`).
    slot: usize,
    job_index: usize,
    rate_index: usize,
    /// First flat item index of this cell's trials.
    offset: usize,
    trials: usize,
    key_json: String,
    /// Fixed-instantiation problem, materialized once on first use and
    /// shared by every worker that runs one of the cell's trials.
    fixed: OnceLock<Box<dyn DynProblem>>,
    /// Trials still missing. The worker that takes this to zero assembles
    /// the cell in trial-index order, checkpoints it, and reports it.
    remaining: Mutex<usize>,
    /// The first trial panic, if any. A failed cell is reported as an
    /// error and never checkpointed.
    failure: Mutex<Option<String>>,
}

/// One finished cell, streamed back to the submitting thread: its grid
/// slot and either its records in trial order (plus any checkpoint error)
/// or the message of its first panicking trial.
type CellDone = (usize, Result<(Vec<TrialRecord>, Option<String>), String>);

/// The text of a caught panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// A campaign's cache-missed cells as a flattened scheduler item space:
/// item `i` is one trial, whose fault stream and instance seed depend only
/// on its trial index ([`derive_trial_seed`], [`problem_seed`]) — so a
/// cell's records are bit-identical no matter which worker runs which
/// trial.
///
/// The set *owns* everything per-job (resolved jobs, cells, record slots,
/// the report channel) and borrows only the registry and cache at `'env`:
/// daemon connection handlers are shorter-lived than the shared pool, so
/// their submissions must not borrow handler-local state.
struct CampaignWorkSet<'env> {
    jobs: Arc<Vec<ResolvedJob>>,
    rates: Vec<f64>,
    base_seed: u64,
    registry: &'env WorkloadRegistry,
    cache: Option<&'env ResultCache>,
    cells: Vec<ExecCell>,
    records: Vec<Mutex<Option<TrialRecord>>>,
    tx: Sender<CellDone>,
}

impl CampaignWorkSet<'_> {
    fn run_trial(&self, cell: &ExecCell, trial: u64) -> TrialRecord {
        let job = &self.jobs[cell.job_index];
        let rate = FaultRate::percent_of_flops(self.rates[cell.rate_index]);
        let mut fpu = NoisyFpu::new(
            rate,
            job.fault_model.clone(),
            derive_trial_seed(self.base_seed, trial),
        );
        let verdict = match job.instantiate {
            Instantiate::Fixed => cell
                .fixed
                .get_or_init(|| {
                    self.registry
                        .materialize(&job.workload, self.base_seed)
                        .expect("resolved")
                })
                .run_trial_dyn(&job.solver, &mut fpu),
            Instantiate::PerTrial => self
                .registry
                .materialize(&job.workload, problem_seed(self.base_seed, trial))
                .expect("resolved")
                .run_trial_dyn(&job.solver, &mut fpu),
        };
        TrialRecord {
            verdict,
            flops: fpu.flops(),
            faults: fpu.faults(),
        }
    }
}

impl WorkSet for CampaignWorkSet<'_> {
    fn run_item(&self, index: usize) {
        let position = self.cells.partition_point(|c| c.offset <= index) - 1;
        let cell = &self.cells[position];
        let trial = (index - cell.offset) as u64;
        // A panicking trial fails its cell, not the worker: a dead worker
        // would strand its queued chunks, and with them the report channel
        // the submitter drains.
        match catch_unwind(AssertUnwindSafe(|| self.run_trial(cell, trial))) {
            Ok(record) => *self.records[index].lock().expect("record slot") = Some(record),
            Err(payload) => {
                let job = &self.jobs[cell.job_index];
                cell.failure
                    .lock()
                    .expect("cell failure")
                    .get_or_insert_with(|| {
                        format!(
                            "trial {trial} of \"{}\" at {}% panicked: {}",
                            job.label,
                            self.rates[cell.rate_index],
                            panic_message(payload.as_ref()),
                        )
                    });
            }
        }
        let finished = {
            let mut left = cell.remaining.lock().expect("cell counter");
            *left -= 1;
            *left == 0
        };
        if finished {
            if let Some(message) = cell.failure.lock().expect("cell failure").take() {
                let _ = self.tx.send((cell.slot, Err(message)));
                return;
            }
            // Assemble in trial-index order: the steal schedule decided
            // *when* each record was produced, never how they combine.
            let records: Vec<TrialRecord> = (cell.offset..cell.offset + cell.trials)
                .map(|i| {
                    self.records[i]
                        .lock()
                        .expect("record slot")
                        .take()
                        .expect("every trial ran")
                })
                .collect();
            // Checkpoint before reporting, so every reported cell is
            // durable even if the process dies right after.
            let store_err = self.cache.and_then(|c| {
                c.store(&cell.key_json, &records)
                    .err()
                    .map(|e| e.to_string())
            });
            let _ = self.tx.send((cell.slot, Ok((records, store_err))));
        }
    }
}

fn stats_of(records: &[TrialRecord]) -> CellStats {
    let mut stats = CellStats::new();
    for record in records {
        stats.push(record);
    }
    stats
}

/// Runs a campaign to completion on a private worker pool sized by the
/// spec (`0` threads = available parallelism): a scoped [`Scheduler`]
/// that [`run_on`] executes on. Cache-hit cells replay instantly; missing
/// cells decompose into trial-granular scheduler items, checkpointing to
/// `cache` as each cell's last trial lands. `on_cell` observes every
/// finished cell (cached ones first, in grid order; executed ones in
/// completion order). A trial that panics fails its cell: the cell is not
/// checkpointed, the rest of the grid still runs, and the campaign
/// returns `Err` naming the trial.
pub fn run(
    spec: &CampaignSpec,
    registry: &WorkloadRegistry,
    cache: Option<&ResultCache>,
    on_cell: impl FnMut(&CellUpdate),
) -> Result<CampaignRun, String> {
    let threads = match spec.thread_count() {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    };
    let pool = Scheduler::new(threads);
    std::thread::scope(|scope| {
        pool.start(scope);
        let run = run_on(spec, registry, cache, &pool, on_cell);
        pool.shutdown();
        run
    })
}

/// [`run`], but executing on an already-running [`Scheduler`] — the one
/// body behind every campaign. The daemon passes its process-wide pool, so
/// every connection's trials interleave on one set of workers.
pub fn run_on<'env>(
    spec: &CampaignSpec,
    registry: &'env WorkloadRegistry,
    cache: Option<&'env ResultCache>,
    pool: &Scheduler<'env>,
    mut on_cell: impl FnMut(&CellUpdate),
) -> Result<CampaignRun, String> {
    // detlint::allow(nondeterministic-order, reason = "wall-clock campaign timing; excluded from result bytes")
    let start = Instant::now();
    let jobs = Arc::new(resolve_jobs(spec, registry)?);
    let cells = resolve_cells(spec, registry)?;
    let base_seed = spec.base_seed();
    let rates = spec.rates_pct();

    // Replay phase: resolve every cell against the cache first, so only
    // genuinely new work is scheduled.
    let mut slots: Vec<Option<Vec<TrialRecord>>> = vec![None; cells.len()];
    let mut misses: Vec<usize> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        match cache.and_then(|c| c.load(&cell.key_json)) {
            Some(records) => slots[i] = Some(records),
            None => misses.push(i),
        }
    }
    let cells_cached = cells.len() - misses.len();
    for (i, slot) in slots.iter().enumerate() {
        if let Some(records) = slot {
            let cell = &cells[i];
            let stats = stats_of(records);
            on_cell(&CellUpdate {
                job_index: cell.job_index,
                rate_index: cell.rate_index,
                label: jobs[cell.job_index].label.clone(),
                rate_pct: rates[cell.rate_index],
                cached: true,
                trials: stats.trials(),
                successes: stats.successes(),
            });
        }
    }

    let mut error: Option<String> = None;
    if !misses.is_empty() {
        // Flatten the missing cells into one trial-granular item space.
        let mut exec_cells = Vec::with_capacity(misses.len());
        let mut offsets = Vec::with_capacity(misses.len() + 1);
        let mut total = 0usize;
        for &slot in &misses {
            let cell = &cells[slot];
            let trials = jobs[cell.job_index].trials;
            offsets.push(total);
            exec_cells.push(ExecCell {
                slot,
                job_index: cell.job_index,
                rate_index: cell.rate_index,
                offset: total,
                trials,
                key_json: cell.key_json.clone(),
                fixed: OnceLock::new(),
                remaining: Mutex::new(trials),
                failure: Mutex::new(None),
            });
            total += trials;
        }
        offsets.push(total);

        let (tx, rx) = mpsc::channel::<CellDone>();
        let set: Arc<dyn WorkSet + 'env> = Arc::new(CampaignWorkSet {
            jobs: Arc::clone(&jobs),
            rates: rates.to_vec(),
            base_seed,
            registry,
            cache,
            cells: exec_cells,
            records: (0..total).map(|_| Mutex::new(None)).collect(),
            tx,
        });
        // Trials cannot kill workers (they are caught in `run_item`), so
        // every missed cell reports exactly once.
        let handle = pool.submit(set, scheduler::cell_chunks(&offsets, pool.workers()));
        for (slot, done) in rx.iter().take(misses.len()) {
            let (records, store_err) = match done {
                Ok(done) => done,
                Err(message) => {
                    error.get_or_insert(message);
                    continue;
                }
            };
            if let Some(err) = store_err {
                error.get_or_insert(format!("cache checkpoint failed: {err}"));
            }
            let cell = &cells[slot];
            let stats = stats_of(&records);
            on_cell(&CellUpdate {
                job_index: cell.job_index,
                rate_index: cell.rate_index,
                label: jobs[cell.job_index].label.clone(),
                rate_pct: rates[cell.rate_index],
                cached: false,
                trials: stats.trials(),
                successes: stats.successes(),
            });
            slots[slot] = Some(records);
        }
        handle.wait();
    }
    if let Some(err) = error {
        return Err(err);
    }

    // Assembly: fold records into per-cell aggregates in grid order.
    let n_rates = rates.len();
    let mut case_parts = Vec::with_capacity(jobs.len());
    for (job_index, job) in jobs.iter().enumerate() {
        let mut job_cells = Vec::with_capacity(n_rates);
        for slot in &slots[job_index * n_rates..(job_index + 1) * n_rates] {
            job_cells.push(stats_of(slot.as_ref().expect("every cell reported")));
        }
        case_parts.push(CaseParts {
            label: job.label.clone(),
            spec_json: job.solver.to_json(),
            fault_model: job.fault_model.clone(),
            cells: job_cells,
        });
    }
    let result = SweepResult::from_parts(
        spec.name().to_string(),
        case_parts,
        rates.to_vec(),
        spec.voltages_axis().map(<[f64]>::to_vec),
        spec.energy_model().cloned(),
        base_seed,
    );
    Ok(CampaignRun {
        result,
        cells_total: cells.len(),
        cells_cached,
        threads: pool.workers(),
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::JobSpec;
    use robustify_core::{DynProblem, Verdict};
    use std::path::PathBuf;
    use stochastic_fpu::{BitFaultModel, BitWidth, Fpu, VoltageErrorModel};

    /// A seed-deterministic FPU workload: accumulate through the noisy
    /// FPU and judge the drift. The seed biases the target so instances
    /// are distinguishable.
    struct Drift {
        target: f64,
    }

    impl DynProblem for Drift {
        fn name(&self) -> &'static str {
            "drift"
        }

        fn run_trial_dyn(&self, _spec: &SolverSpec, fpu: &mut NoisyFpu) -> Verdict {
            let mut acc = 0.0;
            for i in 0..48 {
                acc = fpu.add(acc, (i % 5) as f64 * 0.5);
            }
            Verdict::from_metric((acc - self.target).abs(), 0.75)
        }
    }

    fn registry() -> WorkloadRegistry {
        let mut reg = WorkloadRegistry::new();
        reg.register(
            "drift",
            Box::new(|seed| {
                Box::new(Drift {
                    target: 48.0 + (seed % 3) as f64,
                })
            }),
            Box::new(|_| SolverSpec::baseline()),
        );
        reg
    }

    fn campaign() -> CampaignSpec {
        CampaignSpec::new("toy")
            .rates(vec![0.0, 5.0, 20.0])
            .trials(12)
            .seed(9)
            .threads(2)
            .job(JobSpec::new("fixed", "drift"))
            .job(JobSpec::new("fresh", "drift").per_trial().with_trials(7))
    }

    /// A one-job campaign over `drift` at `rates`, for the emitter tests.
    fn single(name: &str, rates: Vec<f64>, trials: usize) -> CampaignSpec {
        CampaignSpec::new(name)
            .rates(rates)
            .trials(trials)
            .seed(1)
            .threads(1)
            .job(JobSpec::new("only", "drift"))
    }

    fn run_plain(spec: &CampaignSpec) -> SweepResult {
        run(spec, &registry(), None, |_| {})
            .expect("campaign runs")
            .result
    }

    fn temp_cache(tag: &str) -> (PathBuf, ResultCache) {
        let dir = std::env::temp_dir().join(format!(
            "robustify-runner-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).expect("open cache");
        (dir, cache)
    }

    #[test]
    fn warm_cache_replays_byte_identically() {
        let reg = registry();
        let spec = campaign();
        let (dir, cache) = temp_cache("warm");
        let cold = run(&spec, &reg, Some(&cache), |_| {}).expect("cold run");
        assert_eq!(cold.cells_cached, 0);
        assert_eq!(cold.cells_total, 6);
        assert_eq!(cold.threads, 2);
        let mut updates = Vec::new();
        let warm = run(&spec, &reg, Some(&cache), |u| updates.push(u.clone())).expect("warm run");
        assert_eq!(warm.cells_cached, 6, "every cell replays");
        assert!(updates.iter().all(|u| u.cached));
        assert_eq!(warm.result.to_csv(), cold.result.to_csv());
        assert_eq!(warm.result.to_json(), cold.result.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A killed campaign leaves some cells checkpointed and others never
    /// written; deleting checkpoints from a complete cache reproduces that
    /// state exactly.
    #[test]
    fn interrupted_campaign_resumes_to_identical_output() {
        let reg = registry();
        let spec = campaign();
        let fresh = run(&spec, &reg, None, |_| {}).expect("uncached run");
        let (dir, cache) = temp_cache("resume");
        run(&spec, &reg, Some(&cache), |_| {}).expect("checkpointing run");
        let cells = resolve_cells(&spec, &reg).expect("resolve");
        for cell in cells.iter().step_by(2) {
            std::fs::remove_file(dir.join(ResultCache::file_name(&cell.key_json)))
                .expect("checkpoint exists");
        }
        assert_eq!(cache.len(), 3, "half the cells survive the kill");
        let resumed = run(&spec, &reg, Some(&cache), |_| {}).expect("resumed run");
        assert_eq!(resumed.cells_cached, 3, "resume skips checkpointed cells");
        assert_eq!(
            resumed.result.to_csv(),
            fresh.result.to_csv(),
            "resumed CSV is byte-identical to an uninterrupted run"
        );
        assert_eq!(resumed.result.to_json(), fresh.result.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The shared-pool path (`run_on`) produces byte-identical documents
    /// to the private-pool path, even under a forced-steal placement.
    #[test]
    fn shared_pool_run_matches_private_pool_run() {
        let reg = registry();
        let spec = campaign();
        let local = run(&spec, &reg, None, |_| {}).expect("private-pool run");
        let pool = crate::Scheduler::new(3).with_placement(crate::Placement::Pinned(1));
        let pooled = std::thread::scope(|scope| {
            pool.start(scope);
            let run = run_on(&spec, &reg, None, &pool, |_| {});
            pool.shutdown();
            run
        })
        .expect("shared-pool run");
        assert_eq!(pooled.result.to_csv(), local.result.to_csv());
        assert_eq!(pooled.result.to_json(), local.result.to_json());
        assert_eq!(pooled.cells_total, 6);
        assert_eq!(pooled.threads, 3);
    }

    #[test]
    fn cache_keys_isolate_every_grid_axis() {
        let reg = registry();
        let spec = campaign();
        let cells = resolve_cells(&spec, &reg).expect("resolve");
        assert_eq!(cells.len(), 6);
        for (i, a) in cells.iter().enumerate() {
            for b in &cells[i + 1..] {
                assert_ne!(a.key_json, b.key_json, "cells must not share keys");
            }
        }
        // Re-resolution is stable, and a seed change moves every key.
        assert_eq!(resolve_cells(&spec, &reg).expect("resolve"), cells);
        let reseeded = resolve_cells(&campaign().seed(10), &reg).expect("resolve");
        for (a, b) in cells.iter().zip(&reseeded) {
            assert_ne!(a.key_json, b.key_json);
        }
    }

    #[test]
    fn unknown_workloads_fail_resolution() {
        let reg = registry();
        let spec = CampaignSpec::new("x")
            .rates(vec![1.0])
            .trials(2)
            .job(JobSpec::new("a", "nope"));
        let err = run(&spec, &reg, None, |_| {}).unwrap_err();
        assert!(err.contains("unknown workload"), "got: {err}");
    }

    #[test]
    fn emitters_have_expected_shape() {
        let result = run_plain(&single("shape", vec![2.0], 3));
        let csv = result.to_csv();
        assert!(csv.starts_with("case,fault_model,fault_rate_pct"));
        assert!(csv.contains("only,transient_emulated,2,"));
        assert_eq!(csv.lines().count(), 2);
        let json = result.to_json();
        assert!(json.contains("\"name\":\"shape\""));
        assert!(json.contains("\"rate_pct\":2"));
        assert!(json.contains("\"fault_model\":{\"kind\":\"transient\""));
        assert_eq!(result.case_cell("only", 0).trials(), 3);
        assert_eq!(result.total_trials(), 3);
    }

    /// Splits one RFC 4180 CSV row into its fields.
    fn csv_fields(row: &str) -> Vec<String> {
        let mut fields = vec![String::new()];
        let mut quoted = false;
        let mut chars = row.chars().peekable();
        while let Some(c) = chars.next() {
            match (c, quoted) {
                ('"', true) if chars.peek() == Some(&'"') => {
                    chars.next();
                    fields.last_mut().expect("field").push('"');
                }
                ('"', _) => quoted = !quoted,
                (',', false) => fields.push(String::new()),
                (c, _) => fields.last_mut().expect("field").push(c),
            }
        }
        fields
    }

    #[test]
    fn labels_with_quotes_backslashes_and_commas_round_trip() {
        let label = r#"SGD,"LS"\x"#;
        let spec = CampaignSpec::new(r#"odd "name", \ here"#)
            .rates(vec![1.0, 5.0])
            .trials(2)
            .job(JobSpec::new(label, "drift"))
            .job(JobSpec::new("plain", "drift"));
        let result = run_plain(&spec);
        let doc = stochastic_fpu::json::parse(&result.to_json()).expect("well-formed JSON");
        assert_eq!(
            doc.get("name").and_then(|v| v.as_str()),
            Some(r#"odd "name", \ here"#)
        );
        let cases = doc.get("cases").and_then(|v| v.as_array()).expect("cases");
        assert_eq!(cases[0].get("label").and_then(|v| v.as_str()), Some(label));
        let csv = result.to_csv();
        for row in csv.lines() {
            assert_eq!(csv_fields(row).len(), 14, "row: {row}");
        }
        let first = csv.lines().nth(1).expect("data row");
        assert_eq!(csv_fields(first)[0], label);
    }

    #[test]
    fn voltage_axis_campaigns_carry_energy_provenance() {
        let model = VoltageErrorModel::paper_figure_5_2();
        let spec = CampaignSpec::new("volt")
            .voltages(vec![1.0, 0.7], model.clone())
            .trials(4)
            .seed(2)
            .job(JobSpec::new("a", "drift"));
        let result = run_plain(&spec);
        assert_eq!(result.voltages(), Some(&[1.0, 0.7][..]));
        assert_eq!(result.voltage(0, 1), Some(0.7));
        let flops = result.cell(0, 1).flops_per_trial();
        assert_eq!(
            result.energy_per_trial(0, 1),
            Some(model.energy(flops, 0.7))
        );
        // The derived rate grid follows Figure 5.2: lower voltage, more
        // faults per FLOP.
        assert!(result.rates_pct()[1] > result.rates_pct()[0]);
        let csv = result.to_csv();
        assert!(csv.starts_with(
            "case,fault_model,fault_rate_pct,trials,successes,success_rate,\
             median,mean,max,failures,flops,faults,voltage,energy_per_trial"
        ));
        let last = csv.trim_end().lines().last().expect("data row");
        assert_eq!(last.split(',').count(), 14);
        assert!(result.to_json().contains("\"voltages\":[1,0.7]"));
        assert!(result.to_json().contains("\"voltage\":0.7"));
    }

    #[test]
    fn rate_campaigns_emit_empty_voltage_fields() {
        let result = run_plain(&single("t", vec![1.0], 2));
        assert_eq!(result.voltages(), None);
        assert_eq!(result.voltage(0, 0), None);
        assert_eq!(result.energy_per_trial(0, 0), None);
        assert!(result.to_json().contains("\"voltages\":null"));
        assert!(result.to_json().contains("\"energy_per_trial\":null"));
        let csv = result.to_csv();
        let row = csv.lines().nth(1).expect("data row");
        assert!(row.ends_with(",,"), "empty voltage/energy fields: {row}");
    }

    #[test]
    fn voltage_linked_job_overrides_supply_cell_voltage() {
        let model = VoltageErrorModel::paper_figure_5_2();
        let spec = CampaignSpec::new("t")
            .rates(vec![50.0])
            .trials(3)
            .seed(1)
            .job(
                JobSpec::new("pinned", "drift")
                    .with_fault_model(FaultModelSpec::voltage_linked(model.clone(), 0.8)),
            )
            .job(JobSpec::new("grid", "drift"));
        let result = run_plain(&spec);
        // The pinned job reports its own operating point and energy even
        // though the campaign itself has no voltage axis…
        assert_eq!(result.voltage(0, 0), Some(0.8));
        let flops = result.cell(0, 0).flops_per_trial();
        assert_eq!(
            result.energy_per_trial(0, 0),
            Some(model.energy(flops, 0.8))
        );
        // …while its grid-rated neighbour reports none.
        assert_eq!(result.voltage(1, 0), None);
        assert_eq!(result.energy_per_trial(1, 0), None);
    }

    #[test]
    fn per_job_fault_models_reach_the_emitters() {
        let spec = CampaignSpec::new("models")
            .rates(vec![20.0])
            .trials(4)
            .seed(2)
            .model(BitFaultModel::emulated())
            .job(JobSpec::new("default", "drift"))
            .job(
                JobSpec::new("stuck", "drift").with_fault_model(FaultModelSpec::stuck_at(
                    52,
                    true,
                    BitWidth::F64,
                )),
            )
            .job(
                JobSpec::new("lsb", "drift")
                    .with_fault_model(BitFaultModel::lsb_only(BitWidth::F64))
                    .with_trials(15),
            );
        let result = run_plain(&spec);
        assert_eq!(result.fault_model(0).name(), "transient_emulated");
        assert_eq!(result.fault_model(1).name(), "stuck1_bit52");
        assert_eq!(result.cell(2, 0).trials(), 15);
        let csv = result.to_csv();
        assert!(csv.contains("stuck,stuck1_bit52,20,"));
        assert!(result.to_json().contains("\"kind\":\"stuck_at\""));
    }

    /// A per-job fault model must reach the FPU, not just the emitters.
    #[test]
    fn per_job_fault_models_reach_the_fpu() {
        let spec = CampaignSpec::new("models")
            .rates(vec![20.0])
            .trials(15)
            .seed(3)
            .threads(2)
            .model(BitFaultModel::emulated())
            .job(JobSpec::new("default", "drift"))
            .job(
                JobSpec::new("lsb", "drift")
                    .with_fault_model(BitFaultModel::lsb_only(BitWidth::F64)),
            );
        let result = run_plain(&spec);
        // An LSB-only injector perturbs this workload far less than the
        // emulated distribution, so the two columns must differ.
        let default_summary = result.cell(0, 0).summary();
        let lsb_summary = result.cell(1, 0).summary();
        assert!(lsb_summary.median() <= default_summary.median());
        assert_ne!(lsb_summary, default_summary);
        assert_eq!(result.cell(1, 0).trials(), 15);
    }

    /// A workload whose every trial panics.
    struct Boom;

    impl DynProblem for Boom {
        fn name(&self) -> &'static str {
            "boom"
        }

        fn run_trial_dyn(&self, _spec: &SolverSpec, _fpu: &mut NoisyFpu) -> Verdict {
            panic!("boom")
        }
    }

    /// A panicking trial fails its campaign with `Err` instead of killing
    /// the worker, so a one-worker pool neither hangs nor dies: the next
    /// campaign on it still completes, byte-identically.
    #[test]
    fn panicking_trials_fail_the_campaign_and_spare_the_workers() {
        let mut reg = registry();
        reg.register(
            "boom",
            Box::new(|_| Box::new(Boom)),
            Box::new(|_| SolverSpec::baseline()),
        );
        let bad = CampaignSpec::new("bad")
            .rates(vec![0.0, 5.0])
            .trials(3)
            .threads(1)
            .job(JobSpec::new("ok", "drift"))
            .job(JobSpec::new("bad", "boom"));
        let (dir, cache) = temp_cache("panic");
        let err = run(&bad, &reg, Some(&cache), |_| {}).unwrap_err();
        assert!(
            err.contains("of \"bad\"") && err.contains("panicked: boom"),
            "got: {err}"
        );
        assert_eq!(cache.len(), 2, "only the healthy cells are checkpointed");
        let _ = std::fs::remove_dir_all(&dir);

        let good = campaign();
        let expected = run_plain(&good);
        let pool = crate::Scheduler::new(1);
        let (failed, pooled) = std::thread::scope(|scope| {
            pool.start(scope);
            let failed = run_on(&bad, &reg, None, &pool, |_| {});
            let pooled = run_on(&good, &reg, None, &pool, |_| {});
            pool.shutdown();
            (failed, pooled)
        });
        assert!(failed.is_err());
        let pooled = pooled.expect("the pool survives a failed campaign");
        assert_eq!(pooled.result.to_json(), expected.to_json());
    }
}
