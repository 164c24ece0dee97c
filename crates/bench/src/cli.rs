//! The shared CLI of every experiment binary: one flag vocabulary, one
//! parser, one campaign-execution and output path.
//!
//! A campaign binary hands [`ExperimentOptions::report`] its declarative
//! [`CampaignSpec`] and a renderer; the table is rendered from the
//! [`SweepDoc`] view of the campaign's JSON document in either mode:
//!
//! * `--server ADDR` submits the campaign to a running `campaign_server`
//!   daemon instead of executing in-process; its documents are
//!   byte-identical to a local run's, so stdout is the same bytes.
//! * `--cache-dir PATH` makes a local run checkpoint every finished cell
//!   into the same content-addressed [`ResultCache`] the daemon uses, so
//!   a killed run resumes from where it died instead of recomputing.
//!
//! `fig6_7_cg_energy` reads per-trial errors no document carries, so it
//! renders from [`ExperimentOptions::run_local`] and rejects `--server`.

use crate::Table;
use robustify_core::WorkloadRegistry;
use robustify_engine::campaign::protocol::{self, ClientOutcome};
use robustify_engine::campaign::{self, CampaignRun, CampaignSpec, JobSpec, ResultCache};
use robustify_engine::SweepDoc;
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
    pub fn parse_from(mut args: impl Iterator<Item = String>) -> Self {
        let mut opts = Self::default();
        while let Some(arg) = args.next() {
            let mut value = |what: &str| {
                args.next()
                    .unwrap_or_else(|| usage(&format!("{arg} needs {what}")))
            };
            match arg.as_str() {
                "--fast" => opts.fast = true,
                "--seed" => {
                    opts.seed = value("a value")
                        .parse()
                        .unwrap_or_else(|_| usage("--seed must be an integer"));
                }
                "--fault-model" => opts.fault_model = value("a value"),
                "--threads" => {
                    opts.threads = value("a value")
                        .parse()
                        .unwrap_or_else(|_| usage("--threads must be an integer"));
                }
                "--json" => opts.json = true,
                "--apps" => {
                    let apps: Vec<String> = value("a value")
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                    if apps.is_empty() {
                        usage("--apps needs at least one application name");
                    }
                    opts.apps = Some(apps);
                }
                "--server" => opts.server = Some(value("an address (host:port)")),
                "--cache-dir" => opts.cache_dir = Some(value("a directory path")),
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

    /// Executes a campaign according to the service flags and returns its
    /// documents.
    ///
    /// With `--server` the campaign is submitted to the daemon and the
    /// outcome is its `done` event. Otherwise it runs in-process through
    /// [`run_local`](Self::run_local) and the outcome is built from that
    /// run, so both modes return the same bytes.
    ///
    /// # Panics
    ///
    /// Exits with code 1, printing `<campaign name>: <error>`, when the
    /// campaign fails (unknown workload, unreachable daemon, cache I/O).
    pub fn execute_campaign(
        &self,
        spec: &CampaignSpec,
        registry: &WorkloadRegistry,
    ) -> ClientOutcome {
        let Some(addr) = &self.server else {
            let run = self.run_local(spec, registry);
            return ClientOutcome {
                name: run.result.name().to_string(),
                cells: run.cells_total,
                cached: run.cells_cached,
                csv: run.result.to_csv(),
                json: run.result.to_json(),
            };
        };
        let outcome = or_exit(spec, protocol::submit_tcp(addr, spec, |_| {}));
        eprintln!(
            "[{}: {} cells from {addr}, {} served from cache]",
            outcome.name, outcome.cells, outcome.cached
        );
        outcome
    }

    /// Runs a campaign in-process, checkpointing into the optional
    /// `--cache-dir` cache, and reports its parallel throughput on stderr.
    ///
    /// # Panics
    ///
    /// Exits with code 1, printing `<campaign name>: <error>`, when the
    /// campaign fails (unknown workload, cache I/O).
    pub fn run_local(&self, spec: &CampaignSpec, registry: &WorkloadRegistry) -> CampaignRun {
        let cache = self.cache_dir.as_ref().map(|dir| {
            or_exit(
                spec,
                ResultCache::open(dir).map_err(|e| format!("--cache-dir {dir}: {e}")),
            )
        });
        let run = or_exit(spec, campaign::run(spec, registry, cache.as_ref(), |_| {}));
        if let Some(cache) = &cache {
            eprintln!(
                "[{}: {} cells, {} replayed from {}, {} trials executed]",
                spec.name(),
                run.cells_total,
                run.cells_cached,
                cache.dir().display(),
                run.trials_executed
            );
        }
        eprintln!(
            "[{} trials executed in {:.2?} on {} threads — {:.1} trials/s]",
            run.trials_executed,
            run.elapsed,
            run.threads,
            run.throughput(),
        );
        run
    }

    /// Executes a campaign, renders its table from the JSON document and
    /// [`emit`](Self::emit)s both: the one output path of every campaign
    /// binary, local or `--server`.
    ///
    /// # Panics
    ///
    /// Exits with code 1, printing `<campaign name>: <error>`, when the
    /// campaign fails or the document is malformed or describes another
    /// grid than `spec`.
    pub fn report(
        &self,
        spec: &CampaignSpec,
        registry: &WorkloadRegistry,
        render: impl FnOnce(&SweepDoc) -> Table,
    ) {
        let outcome = self.execute_campaign(spec, registry);
        let doc = SweepDoc::parse(&outcome.json).and_then(|doc| {
            let labels = spec.jobs().iter().map(JobSpec::label);
            if doc.rates_pct == spec.rates_pct() && doc.labels.iter().eq(labels) {
                Ok(doc)
            } else {
                Err("the result document does not match the submitted grid".to_string())
            }
        });
        self.emit(&render(&or_exit(spec, doc)), &outcome.csv, &outcome.json);
    }

    /// Prints a rendered table, the campaign's `-- csv --` document and
    /// (with `--json`) its `-- json --` document.
    pub fn emit(&self, table: &Table, csv: &str, json: &str) {
        table.print();
        crate::outln!("\n-- csv --\n{csv}");
        if self.json {
            crate::outln!("\n-- json --\n{json}");
        }
    }
}

/// Unwraps a campaign step, or exits 1 with `<campaign name>: <error>`.
fn or_exit<T>(spec: &CampaignSpec, result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{}: {e}", spec.name());
        std::process::exit(1)
    })
}

const USAGE: &str = "usage: <experiment> [--fast] [--seed N] \
     [--fault-model emulated|uniform|msb|lsb|stuck0|stuck1|burst|operand|intermittent|muldiv\
     |voltage|dvfs|regfile|memory] \
     [--threads N] [--json] [--apps app1,app2,...] \
     [--server HOST:PORT] [--cache-dir PATH]";

/// Prints `msg` and the usage line on stderr and exits with code 2: the
/// answer to every malformed or unsupported flag.
pub fn usage(msg: &str) -> ! {
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
    fn execute_campaign_returns_the_same_documents_locally_and_over_the_server() {
        let mut registry = WorkloadRegistry::new();
        registry.register(
            "half",
            Box::new(|_| Box::new(Half)),
            Box::new(|_| SolverSpec::baseline()),
        );
        let dir = std::env::temp_dir().join(format!("robustify-cli-exec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let local = ExperimentOptions {
            cache_dir: Some(dir.display().to_string()),
            ..ExperimentOptions::default()
        };
        let spec = local
            .campaign("cli_exec")
            .rates(vec![0.0, 10.0])
            .trials(3)
            .job(JobSpec::new("half", "half"));
        let cold = local.execute_campaign(&spec, &registry);
        assert_eq!((cold.cached, cold.cells), (0, 2));
        let warm = local.execute_campaign(&spec, &registry);
        assert_eq!(warm.cached, warm.cells);
        assert_eq!((&warm.csv, &warm.json), (&cold.csv, &cold.json));
        let _ = std::fs::remove_dir_all(&dir);

        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        let remote = std::thread::scope(|scope| {
            let server = scope.spawn(|| protocol::serve_tcp(listener, &registry, None));
            let remote = ExperimentOptions {
                server: Some(addr.clone()),
                ..ExperimentOptions::default()
            }
            .execute_campaign(&spec, &registry);
            protocol::shutdown_tcp(&addr).expect("shutdown");
            server.join().expect("server thread").expect("serve");
            remote
        });
        assert_eq!(remote, cold);
    }
}
