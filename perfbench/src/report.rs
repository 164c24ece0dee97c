//! Metric names, summary statistics, the result line, provenance, and the
//! per-operation deadline watchdog.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use stochastic_fpu::json::escape;

/// End-to-end metrics `(name, unit)`, measured with tracing off. Every
/// untraced run prints all of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("trials_per_s", "trials/s"),
    ("submit_p50_s", "s"),
    ("submit_p90_s", "s"),
    ("submits_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit, what it should move)`, from the traced
/// run. Every traced run prints all of them; a layer path the workload
/// does not exercise reads 0.
pub const PER_LAYER: [(&str, &str, &str); 28] = [
    (
        "fpu.flops",
        "count",
        "nothing: a change means the work itself changed",
    ),
    (
        "fpu.faults",
        "count",
        "nothing: a change means the work itself changed",
    ),
    (
        "fpu.ns_per_flop.transient_rate0",
        "ns",
        "trials_per_s on dense_transient and sparse_frontier",
    ),
    (
        "fpu.ns_per_flop.transient_noisy",
        "ns",
        "trials_per_s on dense_transient",
    ),
    (
        "fpu.ns_per_flop.memory",
        "ns",
        "trials_per_s on sparse_frontier; no move on dense_transient",
    ),
    (
        "fpu.batch_speedup",
        "ratio",
        "trials_per_s on dense_transient",
    ),
    (
        "linalg.spmv_mnnz_per_s.rate0",
        "Mnnz/s",
        "trials_per_s on sparse_frontier; none on dense_transient",
    ),
    (
        "linalg.spmv_mnnz_per_s.noisy",
        "Mnnz/s",
        "trials_per_s on sparse_frontier; none on dense_transient",
    ),
    (
        "linalg.spmv_gb_per_s",
        "GB/s",
        "trials_per_s on sparse_frontier",
    ),
    (
        "core.solve_s",
        "s",
        "trials_per_s on dense_transient and sparse_frontier",
    ),
    (
        "core.verify_s",
        "s",
        "trials_per_s on dense_transient and sparse_frontier",
    ),
    (
        "core.solve_ns_per_flop",
        "ns",
        "trials_per_s on sparse_frontier (item 3a)",
    ),
    (
        "core.iterations",
        "count",
        "nothing: checks that the work is unchanged",
    ),
    (
        "apps.materialize_ms.poisson2d",
        "ms",
        "trials_per_s on sparse_frontier (item 3c)",
    ),
    (
        "apps.materialize_ms.dense",
        "ms",
        "trials_per_s on dense_transient; submit_p90_s on daemon_mixed",
    ),
    ("apps.default_solver_ms", "ms", "setup_s"),
    (
        "engine.scheduler.busy_share",
        "ratio",
        "trials_per_s on sparse_frontier; submit_p90_s on daemon_mixed",
    ),
    (
        "engine.scheduler.speedup",
        "ratio",
        "trials_per_s on sparse_frontier",
    ),
    ("engine.campaign.resolve_ms", "ms", "setup_s"),
    (
        "engine.campaign.overhead_share",
        "ratio",
        "trials_per_s on dense_transient; items 1 and 5 must not move it",
    ),
    (
        "engine.cache.store_ms",
        "ms",
        "submit_p50_s and submits_per_s on daemon_mixed; no move on the uncached workloads",
    ),
    (
        "engine.cache.load_ms",
        "ms",
        "submit_p50_s and submits_per_s on daemon_mixed; no move on the uncached workloads",
    ),
    (
        "engine.cache.bytes_per_cell",
        "bytes",
        "submit_p50_s and submits_per_s on daemon_mixed; no move on the uncached workloads",
    ),
    ("engine.cache.hit_share", "ratio", "nothing: checks the mix"),
    (
        "engine.protocol.accept_ms",
        "ms",
        "submit_p50_s on daemon_mixed",
    ),
    (
        "engine.protocol.done_tail_ms",
        "ms",
        "submit_p50_s on daemon_mixed",
    ),
    (
        "engine.protocol.bytes_per_submit",
        "bytes",
        "submit_p50_s on daemon_mixed",
    ),
    (
        "trace.overhead_share",
        "ratio",
        "nothing: the baseline for item 4's under-2% claim",
    ),
];

/// Named metric values collected during a run.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Sets `name` (which must be a declared metric) to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "undeclared metric {name}");
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|(n, u)| (*n, *u))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// The outcome of a run: operation counts, failure reasons, metrics, and
/// provenance fields (raw JSON fragments keyed by name).
#[derive(Debug, Default, Clone)]
pub struct Report {
    /// Operations attempted: each campaign run and each submission.
    pub attempted: u64,
    /// Operations that failed: an `Err`, an `error` event, a document
    /// mismatch, a panic, or a missed deadline.
    pub failed: u64,
    /// Correctness and determinism check failures (each also counts one
    /// failed operation when it belongs to one).
    pub failures: Vec<String>,
    /// Measured metrics.
    pub metrics: Metrics,
    /// Provenance `(key, JSON value)` pairs.
    pub provenance: Vec<(String, String)>,
}

impl Report {
    /// Records one attempted operation and whether it succeeded.
    pub fn operation(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// Marks the last recorded operation failed after all, e.g. when its
    /// document turns out to differ from the reference.
    pub fn fail_last(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Records a failed check that belongs to no single operation.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Adds a provenance field holding raw JSON.
    pub fn note(&mut self, key: &str, json: impl ToString) {
        self.provenance.push((key.to_string(), json.to_string()));
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The final result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter holding every metric of `names` (unset
    /// ones read 0, as a failed run may not have measured them).
    pub fn result_line(&self, names: &[(&'static str, &'static str)]) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.metrics.get(name).unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                metrics,
                "{}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}",
                if i > 0 { "," } else { "" }
            );
        }
        // A run that attempted nothing measured nothing: report it failed.
        let empty = self.attempted == 0;
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct() && !empty,
            self.attempted.max(1),
            self.failed.max(u64::from(empty)),
        )
    }

    /// The provenance line printed before the result line.
    pub fn provenance_line(&self) -> String {
        let mut out = String::from("{\"provenance\":{");
        for (i, (key, json)) in self.provenance.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\":{json}",
                if i > 0 { "," } else { "" },
                escape(key)
            );
        }
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", escape(f)))
            .collect();
        let share = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let _ = write!(
            out,
            "{}\"failed_share\":{share:?},\"failures\":[{}]}}}}",
            if self.provenance.is_empty() { "" } else { "," },
            failures.join(",")
        );
        out
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for no values).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 for no values).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kib| kib * 1024.0 / 1e6)
        .unwrap_or(0.0)
}

/// The host's CPU model name.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` when the tree is a git
/// repository (`None` in an exported tree).
pub fn git_commit(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(reference) => std::fs::read_to_string(root.join(".git").join(reference))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(root.join(".git/packed-refs")).ok()?;
                packed.lines().find_map(|l| {
                    l.strip_suffix(reference)
                        .map(|hash| hash.trim().to_string())
                })
            }),
    }
}

/// An FNV-1a fingerprint of the source the benchmark measures (every
/// `.rs`, `.toml` and `.lock` file under `crates`, `src`, `vendor` and
/// `perfbench`, plus the root manifests), so results from an exported
/// tree, which has no commit, can still be matched to their code.
pub fn source_fingerprint(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
            {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "src", "vendor", "perfbench"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut hash = Fnv::default();
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            hash.write(
                file.strip_prefix(root)
                    .unwrap_or(&file)
                    .to_string_lossy()
                    .as_bytes(),
            );
            hash.write(&bytes);
        }
    }
    format!("{:016x}", hash.0)
}

/// A 64-bit FNV-1a hasher, for the source fingerprint.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Compares this run's exact counts with the ones an earlier run of the
/// same workload, seed and source recorded under `dir`, then, if `record`
/// (the run was correct, so its counts are whole), records the union.
/// Returns a description of every count that drifted.
pub fn check_counts(dir: &Path, key: &str, counts: &[(&str, String)], record: bool) -> Vec<String> {
    let path = dir.join(format!("counts-{key}.txt"));
    let mut recorded: Vec<(String, String)> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let mut drift = Vec::new();
    for (name, value) in counts {
        match recorded.iter().find(|(k, _)| k == name) {
            Some((_, old)) if old != value => drift.push(format!(
                "determinism failure: {name} is {value}, an earlier run of this seed read {old}"
            )),
            Some(_) => {}
            None => recorded.push((name.to_string(), value.clone())),
        }
    }
    if !record {
        return drift;
    }
    let text: String = recorded.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        drift.push(format!("cannot record counts in {}: {e}", path.display()));
    }
    drift
}

struct Armed {
    what: String,
    deadline: Instant,
    fallback: String,
}

/// Enforces per-operation deadlines. While an operation is armed, a
/// monitor thread checks its deadline; if it passes, the monitor prints
/// the fallback result line (which counts the operation as failed) and
/// exits non-zero, so a hung campaign or daemon cannot hang the run.
pub struct Watchdog {
    armed: Arc<Mutex<Option<Armed>>>,
    stop: Arc<AtomicBool>,
    monitor: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Starts the monitor thread.
    pub fn start() -> Self {
        let armed: Arc<Mutex<Option<Armed>>> = Arc::new(Mutex::new(None));
        let stop = Arc::new(AtomicBool::new(false));
        let monitor = {
            let (armed, stop) = (Arc::clone(&armed), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(50));
                    let guard = armed.lock().unwrap_or_else(|p| p.into_inner());
                    if let Some(op) = guard.as_ref().filter(|op| Instant::now() > op.deadline) {
                        eprintln!("perfbench: {} missed its deadline", op.what);
                        println!("{}", op.fallback);
                        std::process::exit(1);
                    }
                }
            })
        };
        Watchdog {
            armed,
            stop,
            monitor: Some(monitor),
        }
    }

    /// Arms a deadline of `limit` for the operation `what`. `report` is
    /// the run so far; the fallback line counts `what` as one more
    /// attempted and failed operation.
    pub fn arm(
        &self,
        what: &str,
        limit: Duration,
        report: &Report,
        names: &[(&'static str, &'static str)],
    ) {
        let mut failed = report.clone();
        failed.operation(Err(format!(
            "{what} missed its {}s deadline",
            limit.as_secs()
        )));
        let fallback = format!(
            "{}\n{}",
            failed.provenance_line(),
            failed.result_line(names)
        );
        *self.armed.lock().unwrap_or_else(|p| p.into_inner()) = Some(Armed {
            what: what.to_string(),
            deadline: Instant::now() + limit,
            fallback,
        });
    }

    /// Disarms the current deadline.
    pub fn disarm(&self) {
        *self.armed.lock().unwrap_or_else(|p| p.into_inner()) = None;
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(monitor) = self.monitor.take() {
            let _ = monitor.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report::default();
        report.operation(Ok(()));
        report.metrics.set("setup_s", 0.5);
        let line = report.result_line(&END_TO_END);
        let doc = stochastic_fpu::json::parse(&line).expect("result line parses");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc
            .get("metrics")
            .and_then(|m| m.as_object())
            .expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(line.contains("\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}"));
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut report = Report::default();
        report.operation(Ok(()));
        report.operation(Err("boom".into()));
        assert!(!report.correct());
        assert!(report
            .result_line(&END_TO_END)
            .starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1,"));
    }

    #[test]
    fn count_drift_is_flagged() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-counts");
        let _ = std::fs::remove_dir_all(&dir);
        let first = [("fpu.flops", "10".to_string())];
        // An incorrect run's counts are compared but not recorded.
        assert!(check_counts(&dir, "k", &[("fpu.flops", "9".to_string())], false).is_empty());
        assert!(check_counts(&dir, "k", &first, true).is_empty());
        assert!(check_counts(&dir, "k", &first, true).is_empty());
        let drifted = check_counts(&dir, "k", &[("fpu.flops", "11".to_string())], false);
        assert_eq!(drifted.len(), 1, "{drifted:?}");
        assert!(check_counts(&dir, "k", &first, true).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
