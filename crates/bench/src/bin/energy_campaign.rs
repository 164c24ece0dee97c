//! Energy campaign: the Figure 6.7 energy-vs-accuracy frontier, extended
//! across every application and across hardware scenarios.
//!
//! Figure 6.7 asks the energy question for one app (least squares): how
//! much supply-voltage overscaling can a robustified solver absorb before
//! it stops producing acceptable answers, and how much energy does the
//! admissible overscale save? This campaign asks it for all 10 robustified
//! applications — including the large-sparse `poisson2d` column at 10⁵
//! unknowns — under two scenario families: the paper's *transient* FPU
//! flip and a *memory-persistent* fault whose corruptions stay resident
//! between operations (a register file for the dense apps, an
//! array-resident upset model for the sparse column) — over one
//! voltage-axis grid. Each
//! column of the grid is an operating voltage; the engine derives its
//! fault rate from the Figure 5.2 model and accounts
//! `energy = P(V) × FLOPs` per cell into the CSV/JSON provenance.
//!
//! The whole frontier is one declarative [`CampaignSpec`]: every `(app,
//! scenario)` pair is a job that *names* its workload in the paper
//! registry (solvers come from the registry's per-app defaults, the
//! paper-faithful configurations `paper_registry` registers), so
//! `--server` and `--cache-dir` work as for every campaign binary.
//!
//! For every `(app, scenario)` the table reports the *minimum-energy
//! admissible operating point*: the cheapest voltage whose cell still
//! succeeds in ≥ 80% of trials, against the same solver's
//! nominal-voltage energy. Expected shape: transient scenarios admit deep
//! overscaling (the Figure 6.7 story generalizes — the minimum-energy
//! point beats nominal for every app that tolerates faults at all), while
//! memory-persistent faults pull the frontier back toward nominal because
//! corrupted state keeps re-injecting errors between scrubs.

#![forbid(unsafe_code)]
use robustify_bench::workloads::paper_registry;
use robustify_bench::{ExperimentOptions, Table};
use robustify_engine::campaign::{CampaignSpec, JobSpec};
use robustify_engine::DocCell;
use stochastic_fpu::{BitFaultModel, FaultModelSpec, VoltageErrorModel};

/// The scenario families of the frontier: the paper's transient flip and
/// a state-persistent memory fault. For the small dense apps the
/// persistent scenario is a register-file fault (32 entries, scrubbed
/// every 10k FLOPs); for the large-sparse `poisson2d` column it is an
/// *array-resident* upset model (4096-word array, scrubbed every 100k
/// FLOPs) — corruptions parked in the megabytes of resident CSR data
/// re-inject on every touch until the next scrub, so the scrub interval
/// becomes an economic knob of the frontier.
fn scenarios(app: &str) -> Vec<(&'static str, FaultModelSpec)> {
    let memory = if app == "poisson2d" {
        FaultModelSpec::array_resident(4096, BitFaultModel::emulated(), 100_000)
    } else {
        FaultModelSpec::register_file(32, BitFaultModel::emulated(), 10_000)
    };
    vec![("transient", FaultModelSpec::default()), ("memory", memory)]
}

const APPS: [&str; 10] = [
    "least_squares",
    "iir",
    "sorting",
    "matching",
    "maxflow",
    "apsp",
    "svm",
    "eigen",
    "doubly_stochastic",
    "poisson2d",
];

/// Trials per cell for the 10⁵-unknown sparse column — each trial is a
/// ~100× heavier solve than the dense apps', so the column runs fewer
/// trials at the same statistical role in the table.
const SPARSE_TRIALS_CAP: usize = 4;

fn build_campaign(opts: &ExperimentOptions, voltages: Vec<f64>, trials: usize) -> CampaignSpec {
    let model = VoltageErrorModel::paper_figure_5_2();
    let mut campaign = opts
        .campaign("energy_campaign")
        .voltages(voltages, model)
        .trials(trials);
    for app in APPS {
        if !opts.app_enabled(app) {
            continue;
        }
        for (scenario_label, scenario) in scenarios(app) {
            // The solver is omitted: the registry's per-app default is the
            // paper-faithful configuration, recomputed from the seed.
            let mut job =
                JobSpec::new(&format!("{app}/{scenario_label}"), app).with_fault_model(scenario);
            if app == "poisson2d" {
                job = job.with_trials(trials.min(SPARSE_TRIALS_CAP));
            }
            campaign = campaign.job(job);
        }
    }
    campaign
}

fn main() {
    let opts = ExperimentOptions::parse();
    let trials = opts.trials(20, 3);
    // Nominal first (the baseline column), then progressively deeper
    // overscaling down to the calibrated minimum.
    let voltages = if opts.fast {
        vec![1.0, 0.7, 0.65]
    } else {
        vec![1.0, 0.8, 0.75, 0.7, 0.675, 0.65, 0.625, 0.6]
    };

    opts.validate_apps(&APPS);
    let campaign = build_campaign(&opts, voltages, trials);

    // The frontier table: one row per (app × scenario), the cheapest
    // admissible operating point against the nominal-voltage energy of
    // the same robust solver.
    opts.report(&campaign, &paper_registry(), |result| {
        let mut table = Table::new(
            &format!(
                "Energy campaign — minimum-energy admissible operating point per \
                 app × scenario ({trials} trials/cell; ≥80% success bar)"
            ),
            &[
                "application",
                "fault_model",
                "nominal_energy",
                "best_energy",
                "best_voltage",
                "saving_%",
                "success@best_%",
            ],
        );
        for (label, cells) in result.labels.iter().zip(&result.cells) {
            let (app, scenario) = label.split_once('/').expect("labels are app/scenario");
            let energy = |cell: &DocCell| {
                cell.energy_per_trial
                    .expect("voltage-axis documents always carry energy")
            };
            let nominal_energy = energy(&cells[0]);
            // The cheapest admissible cell; the nominal column is part of the
            // grid, so a solver that only works fault-free clamps there
            // rather than vanishing from the table.
            let mut best: Option<(f64, &DocCell)> = None;
            for cell in cells {
                if cell.successes * 10 >= cell.trials * 8 {
                    let energy = energy(cell);
                    if best.map(|(e, _)| energy < e).unwrap_or(true) {
                        best = Some((energy, cell));
                    }
                }
            }
            let mut row = vec![
                app.to_string(),
                scenario.to_string(),
                format!("{nominal_energy:.0}"),
            ];
            match best {
                Some((energy, cell)) => {
                    row.push(format!("{energy:.0}"));
                    // A DVFS-pinned case has no single voltage.
                    row.push(cell.voltage.map_or("-".into(), |v| format!("{v:.3}")));
                    row.push(format!("{:.0}", 100.0 * (1.0 - energy / nominal_energy)));
                    row.push(format!("{:.1}", cell.success_rate));
                }
                None => {
                    // No operating point — not even nominal — met the bar,
                    // so there is no "best" cell to report a success rate for.
                    row.push("unreachable".to_string());
                    row.push("-".to_string());
                    row.push("-".to_string());
                    row.push("-".to_string());
                }
            }
            table.row(&row);
        }
        table
    });
}
