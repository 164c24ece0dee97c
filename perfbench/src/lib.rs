//! The repository benchmark: campaign throughput and daemon latency on
//! three workloads, driven through `robustify_engine`'s public API, plus
//! a traced run that splits the time across the crates' layers.
//!
//! See `README.md` beside this crate for the workloads, the metrics, and
//! which end-to-end metric each layer metric should move.

#![forbid(unsafe_code)]

pub mod daemon;
pub mod grid;
pub mod mixed;
pub mod plan;
pub mod report;
pub mod trace;

use plan::{Scale, Workload};
use report::{median, Report, Watchdog, END_TO_END, PER_LAYER};
use robustify_core::WorkloadRegistry;
use robustify_engine::campaign::{self, CampaignRun, CampaignSpec, ResultCache};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use stochastic_fpu::json::{self, JsonValue};
use trace::{Lane, Traced};

/// How long one campaign run may take before it counts as failed.
pub const CAMPAIGN_DEADLINE: Duration = Duration::from_secs(120);

/// Set-up groups per run, at least; spread through the run.
pub const SETUP_GROUPS: usize = 8;

/// Back-to-back set-ups per group.
pub const SETUP_GROUP_REPS: usize = 8;

/// A run's timed set-ups, in groups spread through the run. Set-up takes
/// micro- to milliseconds, and a shared host can run it in two speed
/// states that last from one group to a whole run, on either CPU: on a
/// 2-vCPU Xeon VM, whole groups of the dense set-up took 1.0–1.1 ms or
/// 1.5–1.9 ms, about half in each, so the median flipped between the two
/// with the host's load. `setup_s` is therefore the fastest set-up of the
/// run: the set-up's own cost, which some group reaches whenever the fast
/// state occurs during the run.
#[derive(Debug, Default)]
pub struct Setups {
    /// The fastest set-up of each group, in seconds.
    samples: Vec<f64>,
    reps: usize,
}

impl Setups {
    /// Times one group of `SETUP_GROUP_REPS` set-ups with `once`.
    pub fn group(
        &mut self,
        mut once: impl FnMut() -> Result<Duration, String>,
    ) -> Result<(), String> {
        let mut fastest = f64::INFINITY;
        for _ in 0..SETUP_GROUP_REPS {
            fastest = fastest.min(once()?.as_secs_f64());
            self.reps += 1;
        }
        self.samples.push(fastest);
        Ok(())
    }

    /// Sets `setup_s` to the fastest set-up and notes each group's fastest.
    pub fn report(&self, report: &mut Report) {
        let fastest = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        report
            .metrics
            .set("setup_s", if fastest.is_finite() { fastest } else { 0.0 });
        let samples: Vec<String> = self.samples.iter().map(|s| format!("{s:?}")).collect();
        report.note(
            "setup_s",
            format!(
                "{{\"reps\":{},\"samples\":[{}]}}",
                self.reps,
                samples.join(",")
            ),
        );
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Which workload to run.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Full size, or the tests' reduced size.
    pub scale: Scale,
    /// Worker threads and daemon clients: the host's parallelism.
    pub threads: usize,
    /// The checkout root, for provenance.
    pub root: PathBuf,
    /// Where temporary caches, the count ledger and span dumps go.
    pub work_dir: PathBuf,
}

impl Ctx {
    /// The metric names and units this run prints.
    pub fn metric_names(&self) -> Vec<(&'static str, &'static str)> {
        if self.trace {
            PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
        } else {
            END_TO_END.to_vec()
        }
    }

    /// A fresh, empty scratch directory under the work dir.
    pub fn scratch(&self, tag: &str) -> PathBuf {
        let dir = self.work_dir.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// Runs the benchmark described by `ctx` and returns its report.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    report.note("workload", format!("\"{}\"", ctx.workload.name()));
    report.note("seed", ctx.seed);
    report.note("seconds", ctx.seconds);
    report.note("trace", ctx.trace);
    report.note("nproc", ctx.threads);
    report.note(
        "cpu_model",
        format!("\"{}\"", stochastic_fpu::json::escape(&report::cpu_model())),
    );
    report.note(
        "git_commit",
        report::git_commit(&ctx.root).map_or("null".to_string(), |c| format!("\"{c}\"")),
    );
    let fingerprint = report::source_fingerprint(&ctx.root);
    report.note("source_fingerprint", format!("\"{fingerprint}\""));
    let dog = Watchdog::start();
    let mut counts = Vec::new();
    match (ctx.workload, ctx.trace) {
        (Workload::DaemonMixed, false) => mixed::e2e(ctx, &dog, &mut report, &mut counts),
        (Workload::DaemonMixed, true) => mixed::traced(ctx, &dog, &mut report, &mut counts),
        (grid_workload, false) => grid::e2e(
            ctx,
            &grid::campaigns(ctx, grid_workload),
            &dog,
            &mut report,
            &mut counts,
        ),
        (grid_workload, true) => grid::traced(
            ctx,
            &grid::campaigns(ctx, grid_workload),
            &dog,
            &mut report,
            &mut counts,
        ),
    }
    // The daemon's client count and seed pools depend on the thread count.
    let key = format!(
        "{}-{}-{:?}-{}-{}t-{fingerprint}",
        ctx.workload.name(),
        ctx.seed,
        ctx.scale,
        ctx.seconds,
        ctx.threads
    );
    let whole = report.correct();
    for drift in report::check_counts(&ctx.work_dir, &key, &counts, whole) {
        report.fail(drift);
    }
    let counts: Vec<String> = counts.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    report.note("counts", format!("{{{}}}", counts.join(",")));
    if ctx.trace {
        // Which end-to-end metric, on which workload, each layer should move.
        let moves: Vec<String> = PER_LAYER
            .iter()
            .map(|(name, _, moves)| format!("\"{name}\":\"{moves}\""))
            .collect();
        report.note("moves", format!("{{{}}}", moves.join(",")));
    }
    report
}

/// Runs `spec` untraced and uncached under the campaign deadline,
/// counting it as one operation. A panic or `Err` fails the operation.
pub fn run_campaign(
    ctx: &Ctx,
    spec: &CampaignSpec,
    registry: &WorkloadRegistry,
    dog: &Watchdog,
    report: &mut Report,
) -> Option<(CampaignRun, Duration)> {
    dog.arm(
        "campaign run",
        CAMPAIGN_DEADLINE,
        report,
        &ctx.metric_names(),
    );
    let start = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        campaign::run(spec, registry, None, |_| {})
    }));
    let wall = start.elapsed();
    dog.disarm();
    match run {
        Ok(Ok(run)) => {
            report.operation(Ok(()));
            Some((run, wall))
        }
        Ok(Err(e)) => {
            report.operation(Err(format!("campaign run failed: {e}")));
            None
        }
        Err(_) => {
            report.operation(Err("campaign run panicked".to_string()));
            None
        }
    }
}

/// What the traced run's shared core leaves for its workload: the
/// untraced reference runs of each campaign and the cache the traced
/// execution checkpointed into (removed on drop).
pub struct TracedCampaigns {
    /// `campaign::run` of each campaign, in order.
    pub references: Vec<CampaignRun>,
    /// The traced execution's cache.
    pub cache: ResultCache,
    dir: PathBuf,
}

impl Drop for TracedCampaigns {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The traced run's shared core. Campaign by campaign, runs it untraced
/// (the reference) and then executes its trials with spans, checkpointed
/// into a fresh cache; then loads every cell back and checks every record
/// against the reference. Sets every layer metric but the protocol ones
/// and pushes the exact counts.
pub fn trace_campaigns(
    ctx: &Ctx,
    specs: &[CampaignSpec],
    registry: &WorkloadRegistry,
    dog: &Watchdog,
    report: &mut Report,
    counts: &mut Vec<(&'static str, String)>,
) -> Option<TracedCampaigns> {
    let dir = ctx.scratch("traced-cache");
    let cache = match ResultCache::open(&dir) {
        Ok(cache) => cache,
        Err(e) => {
            report.operation(Err(format!("open cache: {e}")));
            return None;
        }
    };
    let resolved = match trace::resolve(specs, registry) {
        Ok(resolved) => resolved,
        Err(e) => {
            report.operation(Err(format!("resolve: {e}")));
            return None;
        }
    };
    let (mut references, mut untraced) = (Vec::new(), Vec::new());
    let names = ctx.metric_names();
    let traced = trace::execute(resolved, ctx.threads, &cache, |c| {
        if let Some((run, wall)) = run_campaign(ctx, &specs[c], registry, dog, report) {
            references.push(run);
            untraced.push(wall);
        }
        dog.arm("traced execution", CAMPAIGN_DEADLINE, report, &names);
    });
    dog.disarm();
    if references.len() < specs.len() {
        let _ = std::fs::remove_dir_all(&dir);
        return None;
    }
    let runs: Vec<&CampaignRun> = references.iter().collect();
    let mut mismatches = check_cells(&traced, &runs);
    mismatches.extend(
        traced
            .store_errors
            .iter()
            .map(|e| format!("checkpoint failed: {e}")),
    );
    let (loads, sizes, load_mismatches) = load_back(&traced, &cache);
    mismatches.extend(load_mismatches);
    report.operation(if mismatches.is_empty() {
        Ok(())
    } else {
        Err(mismatches.join("; "))
    });
    layer_metrics(&traced, &untraced, &loads, &sizes, report);
    kernel_metrics(&traced, report);
    for name in ["fpu.flops", "fpu.faults", "core.iterations"] {
        let total = report.metrics.get(name).unwrap_or(0.0) as u64;
        counts.push((name, total.to_string()));
    }
    let totals = traced.trials.iter().fold(
        DocTotals {
            cells: traced.cells.len() as u64,
            ..DocTotals::default()
        },
        |mut totals, t| {
            totals.trials += 1;
            totals.successes += u64::from(t.parts.record.verdict.success);
            totals.flops += t.parts.record.flops;
            totals.faults += t.parts.record.faults;
            totals
        },
    );
    report.note("totals", totals.to_json());
    if let Err(e) = dump_spans(ctx, &traced) {
        report.fail(format!("cannot write spans: {e}"));
    }
    Some(TracedCampaigns {
        references,
        cache,
        dir,
    })
}

/// Totals of a sweep JSON document.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DocTotals {
    /// Cells.
    pub cells: u64,
    /// Trials.
    pub trials: u64,
    /// Successful trials.
    pub successes: u64,
    /// Data-plane FLOPs.
    pub flops: u64,
    /// Injected faults.
    pub faults: u64,
}

impl DocTotals {
    /// Adds `other` to these totals.
    pub fn add(&mut self, other: DocTotals) {
        self.cells += other.cells;
        self.trials += other.trials;
        self.successes += other.successes;
        self.flops += other.flops;
        self.faults += other.faults;
    }

    /// The totals as provenance JSON.
    pub fn to_json(self) -> String {
        format!(
            "{{\"cells\":{},\"trials\":{},\"successes\":{},\"flops\":{},\"faults\":{}}}",
            self.cells, self.trials, self.successes, self.flops, self.faults
        )
    }
}

/// Sums the per-cell counts of a campaign's JSON document.
pub fn doc_totals(doc: &str) -> Result<DocTotals, String> {
    let value = json::parse(doc).map_err(|e| format!("document does not parse: {e}"))?;
    let mut totals = DocTotals::default();
    let cases = value
        .get("cases")
        .and_then(JsonValue::as_array)
        .ok_or("document has no cases")?;
    for case in cases {
        for cell in case
            .get("cells")
            .and_then(JsonValue::as_array)
            .ok_or("case has no cells")?
        {
            let field = |k: &str| {
                cell.get(k)
                    .and_then(JsonValue::as_u64)
                    .ok_or(format!("cell lacks {k}"))
            };
            totals.add(DocTotals {
                cells: 1,
                trials: field("trials")?,
                successes: field("successes")?,
                flops: field("flops")?,
                faults: field("faults")?,
            });
        }
    }
    Ok(totals)
}

/// Checks every traced cell's trials, successes, FLOPs and faults against
/// the `CellStats` of the untraced run of its campaign.
pub fn check_cells(traced: &Traced, runs: &[&CampaignRun]) -> Vec<String> {
    let mut mismatches = Vec::new();
    for cell in &traced.cells {
        let stats = runs[cell.campaign].result.cell(cell.job, cell.rate_index);
        let records = &traced.trials[cell.offset..cell.offset + cell.trials];
        let traced_counts = (
            records.len(),
            records
                .iter()
                .filter(|t| t.parts.record.verdict.success)
                .count(),
            records.iter().map(|t| t.parts.record.flops).sum::<u64>(),
            records.iter().map(|t| t.parts.record.faults).sum::<u64>(),
        );
        let engine_counts = (
            stats.trials(),
            stats.successes(),
            stats.flops(),
            stats.faults(),
        );
        if traced_counts != engine_counts {
            mismatches.push(format!(
                "{} cell (campaign {}, job {}, rate {}): traced (trials, successes, flops, faults) \
                 {traced_counts:?} != engine {engine_counts:?}",
                cell.workload, cell.campaign, cell.job, cell.rate_index
            ));
        }
    }
    mismatches
}

/// Loads every traced cell back from `cache`, checking the records equal
/// the traced ones. Returns per-cell load times, per-cell file sizes, and
/// mismatches.
pub fn load_back(traced: &Traced, cache: &ResultCache) -> (Vec<Duration>, Vec<u64>, Vec<String>) {
    let (mut loads, mut sizes, mut mismatches) = (Vec::new(), Vec::new(), Vec::new());
    for cell in &traced.cells {
        let start = Instant::now();
        let loaded = cache.load(&cell.key_json);
        loads.push(start.elapsed());
        let expected: Vec<_> = traced.trials[cell.offset..cell.offset + cell.trials]
            .iter()
            .map(|t| t.parts.record)
            .collect();
        if loaded.as_deref() != Some(&expected[..]) {
            mismatches.push(format!(
                "{} cell (job {}, rate {}): cache load differs from the stored records",
                cell.workload, cell.job, cell.rate_index
            ));
        }
        sizes.push(
            std::fs::metadata(cache.dir().join(ResultCache::file_name(&cell.key_json)))
                .map_or(0, |m| m.len()),
        );
    }
    (loads, sizes, mismatches)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn mean_ms(spans: &[Duration]) -> f64 {
    if spans.is_empty() {
        0.0
    } else {
        spans.iter().map(|d| ms(*d)).sum::<f64>() / spans.len() as f64
    }
}

/// Sets the FPU, core, apps, scheduler, campaign and cache layer metrics
/// from a traced execution. `untraced` holds the wall time of each
/// campaign run by `campaign::run` just before its traced execution; the
/// overhead shares are medians over those pairs. `loads` and `sizes`
/// come from [`load_back`].
pub fn layer_metrics(
    traced: &Traced,
    untraced: &[Duration],
    loads: &[Duration],
    sizes: &[u64],
    report: &mut Report,
) {
    let m = &mut report.metrics;
    let mut lane_time = [Duration::ZERO; 3];
    let mut lane_flops = [0u64; 3];
    let (mut solve, mut verify, mut item_time) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut trial_time = vec![Duration::ZERO; untraced.len()];
    let (mut flops, mut faults, mut iterations) = (0u64, 0u64, 0u64);
    let (mut poisson_builds, mut dense_builds) = (Vec::new(), Vec::new());
    for cell in &traced.cells {
        let lane = match cell.lane {
            Lane::TransientRate0 => 0,
            Lane::TransientNoisy => 1,
            Lane::Memory => 2,
        };
        for t in &traced.trials[cell.offset..cell.offset + cell.trials] {
            let p = &t.parts;
            lane_time[lane] += p.solve + p.verify;
            lane_flops[lane] += p.record.flops;
            solve += p.solve;
            verify += p.verify;
            flops += p.record.flops;
            faults += p.record.faults;
            iterations += p.iterations.unwrap_or(0) as u64;
            item_time += t.item;
            trial_time[cell.campaign] += p.solve + p.verify + t.materialize.unwrap_or_default();
            if let Some(build) = t.materialize {
                if cell.workload == "poisson2d" {
                    poisson_builds.push(build);
                } else {
                    dense_builds.push(build);
                }
            }
        }
    }
    let per_flop = |time: Duration, flops: u64| {
        if flops == 0 {
            0.0
        } else {
            time.as_secs_f64() * 1e9 / flops as f64
        }
    };
    m.set("fpu.flops", flops as f64);
    m.set("fpu.faults", faults as f64);
    m.set(
        "fpu.ns_per_flop.transient_rate0",
        per_flop(lane_time[0], lane_flops[0]),
    );
    m.set(
        "fpu.ns_per_flop.transient_noisy",
        per_flop(lane_time[1], lane_flops[1]),
    );
    m.set(
        "fpu.ns_per_flop.memory",
        per_flop(lane_time[2], lane_flops[2]),
    );
    m.set("core.solve_s", solve.as_secs_f64());
    m.set("core.verify_s", verify.as_secs_f64());
    m.set("core.solve_ns_per_flop", per_flop(solve, flops));
    m.set("core.iterations", iterations as f64);
    m.set("apps.materialize_ms.poisson2d", mean_ms(&poisson_builds));
    m.set("apps.materialize_ms.dense", mean_ms(&dense_builds));
    m.set("apps.default_solver_ms", mean_ms(&traced.default_solvers));
    m.set("engine.campaign.resolve_ms", mean_ms(&traced.resolves));
    let wall: f64 = traced.walls.iter().map(Duration::as_secs_f64).sum();
    let workers = traced.workers as f64;
    let trials: f64 = trial_time.iter().map(Duration::as_secs_f64).sum();
    m.set(
        "engine.scheduler.busy_share",
        item_time.as_secs_f64() / (workers * wall),
    );
    m.set("engine.scheduler.speedup", trials / wall);
    let pairs = || traced.walls.iter().zip(untraced).zip(&trial_time);
    let runner: Vec<f64> = pairs()
        .map(|((_, u), t)| 1.0 - t.as_secs_f64() / (workers * u.as_secs_f64()))
        .collect();
    m.set("engine.campaign.overhead_share", median(&runner));
    let tracing: Vec<f64> = pairs()
        .map(|((t, u), _)| t.as_secs_f64() / u.as_secs_f64() - 1.0)
        .collect();
    m.set("trace.overhead_share", median(&tracing));
    m.set("engine.cache.store_ms", mean_ms(&traced.stores));
    m.set("engine.cache.load_ms", mean_ms(loads));
    m.set(
        "engine.cache.bytes_per_cell",
        sizes.iter().sum::<u64>() as f64 / sizes.len().max(1) as f64,
    );
}

/// Sets the FPU batching and SpMV metrics: sampled trials re-run with and
/// without batching, and `CsrMatrix::matvec` on the Poisson matrix when
/// the grid has one.
pub fn kernel_metrics(traced: &Traced, report: &mut Report) {
    let (scalar, batched, mismatches) = trace::batch_speedup(traced);
    for mismatch in mismatches {
        report.fail(format!("batching changed a record: {mismatch}"));
    }
    report.metrics.set(
        "fpu.batch_speedup",
        scalar.as_secs_f64() / batched.as_secs_f64().max(1e-12),
    );
    let poisson = traced.cells.iter().find_map(|c| match c.fixed_instance() {
        Some(trace::Instance::Poisson2d(p)) => Some(p),
        _ => None,
    });
    if let Some(p) = poisson {
        const REPS: usize = 200;
        let (rate0, noisy) = trace::spmv(p, REPS);
        let work = (p.a().nnz() * REPS) as f64;
        let m = &mut report.metrics;
        m.set(
            "linalg.spmv_mnnz_per_s.rate0",
            work / rate0.as_secs_f64() / 1e6,
        );
        m.set(
            "linalg.spmv_mnnz_per_s.noisy",
            work / noisy.as_secs_f64() / 1e6,
        );
        m.set(
            "linalg.spmv_gb_per_s",
            trace::spmv_bytes(p) * REPS as f64 / rate0.as_secs_f64() / 1e9,
        );
    }
}

/// Sets the protocol metrics from client-side event timestamps.
pub fn protocol_metrics<'a>(
    submissions: impl IntoIterator<Item = &'a daemon::Submitted>,
    report: &mut Report,
) {
    let (mut accepts, mut tails, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for s in submissions {
        accepts.extend(s.accept.map(ms));
        tails.extend(s.done_tail.map(ms));
        bytes.push(s.bytes as f64);
    }
    let m = &mut report.metrics;
    m.set("engine.protocol.accept_ms", median(&accepts));
    m.set("engine.protocol.done_tail_ms", median(&tails));
    m.set(
        "engine.protocol.bytes_per_submit",
        bytes.iter().sum::<f64>() / bytes.len().max(1) as f64,
    );
}

/// Writes the traced run's spans, one JSON line per trial, to the work
/// dir.
pub fn dump_spans(ctx: &Ctx, traced: &Traced) -> std::io::Result<()> {
    let mut out = String::new();
    for cell in &traced.cells {
        for (i, t) in traced.trials[cell.offset..cell.offset + cell.trials]
            .iter()
            .enumerate()
        {
            out.push_str(&format!(
                "{{\"campaign\":{},\"job\":{},\"rate\":{},\"trial\":{i},\"workload\":\"{}\",\
                 \"start_us\":{},\"item_us\":{},\"materialize_us\":{},\"solve_us\":{},\"verify_us\":{},\
                 \"flops\":{},\"faults\":{}}}\n",
                cell.campaign,
                cell.job,
                cell.rate_index,
                cell.workload,
                t.start.as_micros(),
                t.item.as_micros(),
                t.materialize.map_or(0, |d| d.as_micros()),
                t.parts.solve.as_micros(),
                t.parts.verify.as_micros(),
                t.parts.record.flops,
                t.parts.record.faults,
            ));
        }
    }
    std::fs::create_dir_all(&ctx.work_dir)?;
    let path = ctx
        .work_dir
        .join(format!("spans-{}-{}.jsonl", ctx.workload.name(), ctx.seed));
    std::fs::write(path, out)
}

/// The root of the checkout the benchmark runs in: the parent of this
/// crate's directory.
pub fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}
