//! The shared CLI of every experiment binary: one flag vocabulary, one
//! parser, one campaign-execution path.
//!
//! Before the campaign service existed, each binary hand-rolled its own
//! flag subset; this module is the single parser they all share. The
//! service flags make any campaign-shaped binary a *thin client*:
//!
//! * `--server ADDR` submits the binary's declarative
//!   [`CampaignSpec`] to a running `campaign_server` daemon instead of
//!   executing in-process; the daemon streams per-cell events back and
//!   returns CSV/JSON documents byte-identical to a local run.
//! * `--cache-dir PATH` makes a local run checkpoint every finished cell
//!   into the same content-addressed [`ResultCache`] the daemon uses, so
//!   a killed run resumes from where it died instead of recomputing.

use crate::Table;
use robustify_core::WorkloadRegistry;
use robustify_engine::campaign::{self, protocol, CampaignRun, CampaignSpec, ResultCache};
use stochastic_fpu::FaultModelSpec;

/// Options common to every experiment binary.
///
/// # Examples
///
/// ```
/// use robustify_bench::ExperimentOptions;
///
/// let opts = ExperimentOptions::parse_from(["--fast", "--seed", "7"].iter().map(|s| s.to_string()));
/// assert!(opts.fast);
/// assert_eq!(opts.seed, 7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOptions {
    /// Reduced trial counts for smoke runs / CI.
    pub fast: bool,
    /// Base seed for workload and fault-stream generation.
    pub seed: u64,
    /// Fault-model preset name: a bit distribution for the paper's
    /// transient flip (`emulated`, `uniform`, `msb`, `lsb`), a scenario
    /// from the extended family (`stuck0`, `stuck1`, `burst`, `operand`,
    /// `intermittent`, `muldiv`), a voltage-linked scenario (`voltage`,
    /// `dvfs`), or a memory-persistent scenario (`regfile`, `memory`).
    pub fault_model: String,
    /// Campaign worker threads (`0` = all available cores); results are
    /// bit-identical for every choice.
    pub threads: usize,
    /// Also print the campaign's JSON document after each table.
    pub json: bool,
    /// Restrict multi-application campaigns to this comma-separated app
    /// subset (`None` = all applications).
    pub apps: Option<Vec<String>>,
    /// Submit campaigns to the `campaign_server` daemon at this address
    /// instead of executing in-process (`None` = run locally).
    pub server: Option<String>,
    /// Checkpoint local campaign cells into the content-addressed result
    /// cache at this directory (`None` = no persistence).
    pub cache_dir: Option<String>,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            fast: false,
            seed: 42,
            fault_model: "emulated".to_string(),
            threads: 0,
            json: false,
            apps: None,
            server: None,
            cache_dir: None,
        }
    }
}

impl ExperimentOptions {
    /// Parses options from `std::env::args()` (skipping the binary name).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on unknown flags or malformed values.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses options from an explicit iterator (for tests).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on unknown flags or malformed values.
    pub fn parse_from(args: impl Iterator<Item = String>) -> Self {
        let mut opts = Self::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--fast" => opts.fast = true,
                "--seed" => {
                    let v = args.next().unwrap_or_else(|| usage("--seed needs a value"));
                    opts.seed = v
                        .parse()
                        .unwrap_or_else(|_| usage("--seed must be an integer"));
                }
                "--fault-model" => {
                    opts.fault_model = args
                        .next()
                        .unwrap_or_else(|| usage("--fault-model needs a value"));
                }
                "--threads" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage("--threads needs a value"));
                    opts.threads = v
                        .parse()
                        .unwrap_or_else(|_| usage("--threads must be an integer"));
                }
                "--json" => opts.json = true,
                "--apps" => {
                    let v = args.next().unwrap_or_else(|| usage("--apps needs a value"));
                    let apps: Vec<String> = v
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                    if apps.is_empty() {
                        usage("--apps needs at least one application name");
                    }
                    opts.apps = Some(apps);
                }
                "--server" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage("--server needs an address (host:port)"));
                    opts.server = Some(v);
                }
                "--cache-dir" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage("--cache-dir needs a directory path"));
                    opts.cache_dir = Some(v);
                }
                "--help" | "-h" => {
                    crate::outln!("{USAGE}");
                    std::process::exit(0)
                }
                other => usage(&format!("unknown flag {other}")),
            }
        }
        opts
    }

    /// Resolves the fault-model preset as a full [`FaultModelSpec`]
    /// scenario (every campaign accepts any family member).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on unknown preset names.
    pub fn fault_model_spec(&self) -> FaultModelSpec {
        FaultModelSpec::from_preset(&self.fault_model)
            .unwrap_or_else(|| usage(&format!("unknown fault model {}", self.fault_model)))
    }

    /// Chooses between full and reduced trial counts.
    pub fn trials(&self, full: usize, fast: usize) -> usize {
        if self.fast {
            fast
        } else {
            full
        }
    }

    /// Whether a campaign should include the named application (always
    /// true without `--apps`). Call
    /// [`validate_apps`](Self::validate_apps) first so typos fail loudly
    /// instead of silently dropping an application.
    pub fn app_enabled(&self, name: &str) -> bool {
        match &self.apps {
            Some(apps) => apps.iter().any(|a| a == name),
            None => true,
        }
    }

    /// Checks every `--apps` entry against the campaign's known
    /// application names.
    ///
    /// # Panics
    ///
    /// Exits with the usage message (code 2, like every other malformed
    /// flag value) on an unknown name — a typo would otherwise silently
    /// drop the intended application from the campaign.
    pub fn validate_apps(&self, known: &[&str]) {
        if let Some(requested) = &self.apps {
            for name in requested {
                if !known.contains(&name.as_str()) {
                    usage(&format!(
                        "--apps: unknown application `{name}` (known: {})",
                        known.join(", ")
                    ));
                }
            }
        }
    }

    /// Seeds a [`CampaignSpec`] with the shared options (seed, fault
    /// model, worker threads). The caller adds grid axes and jobs.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on unknown fault-model presets.
    pub fn campaign(&self, name: &str) -> CampaignSpec {
        CampaignSpec::new(name)
            .seed(self.seed)
            .model(self.fault_model_spec())
            .threads(self.threads)
    }

    /// Executes a campaign according to the service flags.
    ///
    /// With `--server` the campaign is submitted to the daemon, whose
    /// documents — byte-identical to a local run's — are printed as the
    /// artifact (`-- csv --`, plus `-- json --` with `--json`); there is no
    /// local result to render, so this returns `None`. Otherwise it runs
    /// in-process against the optional `--cache-dir` cache and returns the
    /// run for table rendering.
    ///
    /// # Panics
    ///
    /// Exits with code 1, printing `<campaign name>: <error>`, when the
    /// campaign fails (unknown workload, unreachable daemon, cache I/O).
    pub fn execute_campaign(
        &self,
        spec: &CampaignSpec,
        registry: &WorkloadRegistry,
    ) -> Option<CampaignRun> {
        match self.try_execute_campaign(spec, registry) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("{}: {e}", spec.name());
                std::process::exit(1)
            }
        }
    }

    fn try_execute_campaign(
        &self,
        spec: &CampaignSpec,
        registry: &WorkloadRegistry,
    ) -> Result<Option<CampaignRun>, String> {
        if let Some(addr) = &self.server {
            let outcome = protocol::submit_tcp(addr, spec, |_| {})?;
            eprintln!(
                "[{}: {} cells from {addr}, {} served from cache]",
                outcome.name, outcome.cells, outcome.cached
            );
            crate::outln!("\n-- csv --\n{}", outcome.csv);
            if self.json {
                crate::outln!("\n-- json --\n{}", outcome.json);
            }
            return Ok(None);
        }
        let cache = match &self.cache_dir {
            Some(dir) => {
                Some(ResultCache::open(dir).map_err(|e| format!("--cache-dir {dir}: {e}"))?)
            }
            None => None,
        };
        let run = campaign::run(spec, registry, cache.as_ref(), |_| {})?;
        if let Some(cache) = &cache {
            eprintln!(
                "[{}: {} cells, {} replayed from {}]",
                spec.name(),
                run.cells_total,
                run.cells_cached,
                cache.dir().display()
            );
        }
        Ok(Some(run))
    }

    /// Prints a rendered table, the run's parallel throughput, and (with
    /// `--json`) the result's JSON document.
    pub fn emit(&self, table: &Table, run: &CampaignRun) {
        table.print();
        eprintln!(
            "[{} trials in {:.2?} on {} threads — {:.1} trials/s]",
            run.result.total_trials(),
            run.elapsed,
            run.threads,
            run.throughput(),
        );
        if self.json {
            crate::outln!("\n-- json --\n{}", run.result.to_json());
        }
    }
}

const USAGE: &str = "usage: <experiment> [--fast] [--seed N] \
     [--fault-model emulated|uniform|msb|lsb|stuck0|stuck1|burst|operand|intermittent|muldiv\
     |voltage|dvfs|regfile|memory] \
     [--threads N] [--json] [--apps app1,app2,...] \
     [--server HOST:PORT] [--cache-dir PATH]";

fn usage(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustify_core::{DynProblem, SolverSpec, Verdict};
    use stochastic_fpu::{BitFaultModel, BitWidth, Fpu, NoisyFpu};

    #[test]
    fn defaults() {
        let opts = ExperimentOptions::parse_from(std::iter::empty());
        assert!(!opts.fast);
        assert_eq!(opts.seed, 42);
        assert_eq!(opts.fault_model_spec(), FaultModelSpec::default());
        assert_eq!(opts.trials(100, 10), 100);
        assert_eq!(opts.server, None);
        assert_eq!(opts.cache_dir, None);
    }

    #[test]
    fn parse_all_flags() {
        let opts = ExperimentOptions::parse_from(
            ["--fast", "--seed", "9", "--fault-model", "lsb"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert!(opts.fast);
        assert_eq!(opts.seed, 9);
        assert_eq!(
            opts.fault_model_spec(),
            FaultModelSpec::transient(BitFaultModel::lsb_only(BitWidth::F64))
        );
        assert_eq!(opts.trials(100, 10), 10);
    }

    #[test]
    fn parse_service_flags() {
        let opts = ExperimentOptions::parse_from(
            ["--server", "127.0.0.1:9000", "--cache-dir", "/tmp/cache"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(opts.server.as_deref(), Some("127.0.0.1:9000"));
        assert_eq!(opts.cache_dir.as_deref(), Some("/tmp/cache"));
    }

    #[test]
    fn apps_filter_parses_and_applies() {
        let opts = ExperimentOptions::parse_from(
            ["--apps", "least_squares,iir"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert!(opts.app_enabled("least_squares"));
        assert!(opts.app_enabled("iir"));
        assert!(!opts.app_enabled("sorting"));
        let all = ExperimentOptions::default();
        assert!(all.app_enabled("sorting"));
    }

    #[test]
    fn extended_fault_model_presets_resolve() {
        for (name, expect) in [
            ("emulated", "transient_emulated"),
            ("stuck1", "stuck1_bit52"),
            ("burst", "burst3_emulated"),
            ("operand", "operand_emulated"),
            ("intermittent", "intermittent50_transient_emulated"),
            ("muldiv", "only_mul+div_transient_emulated"),
            ("voltage", "vdd0.700_transient_emulated"),
            ("dvfs", "dvfs3step_transient_emulated"),
            ("regfile", "regfile32_scrub10000_emulated"),
            ("memory", "array64_scrub0_emulated"),
        ] {
            let opts = ExperimentOptions {
                fault_model: name.to_string(),
                ..ExperimentOptions::default()
            };
            assert_eq!(opts.fault_model_spec().name(), expect);
        }
    }

    /// A trivial registry workload so the execution-path test stays fast.
    struct Half;

    impl DynProblem for Half {
        fn name(&self) -> &'static str {
            "half"
        }

        fn run_trial_dyn(&self, _spec: &SolverSpec, fpu: &mut NoisyFpu) -> Verdict {
            let mut acc = 0.0;
            for _ in 0..16 {
                acc = fpu.add(acc, 0.5);
            }
            Verdict::from_metric((acc - 8.0).abs(), 0.25)
        }
    }

    #[test]
    fn execute_campaign_runs_locally_and_resumes_from_the_cache_dir() {
        let mut registry = WorkloadRegistry::new();
        registry.register(
            "half",
            Box::new(|_| Box::new(Half)),
            Box::new(|_| SolverSpec::baseline()),
        );
        let dir = std::env::temp_dir().join(format!("robustify-cli-exec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ExperimentOptions {
            cache_dir: Some(dir.display().to_string()),
            ..ExperimentOptions::default()
        };
        let spec = opts
            .campaign("cli_exec")
            .rates(vec![0.0, 10.0])
            .trials(3)
            .job(robustify_engine::campaign::JobSpec::new("half", "half"));
        let cold = opts
            .execute_campaign(&spec, &registry)
            .expect("a local run");
        assert_eq!(cold.cells_cached, 0);
        let warm = opts
            .execute_campaign(&spec, &registry)
            .expect("a local run");
        assert_eq!(warm.cells_cached, warm.cells_total);
        assert_eq!(warm.result.to_csv(), cold.result.to_csv());
        assert_eq!(warm.result.to_json(), cold.result.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
