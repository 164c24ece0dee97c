//! Fault-model campaign: every application × every fault-model scenario.
//!
//! The paper evaluates one hardware scenario — a transient single-bit
//! result flip with a circuit-modeled bit distribution. This campaign asks
//! the broader question its methodology invites: *which* hardware
//! misbehaviours can a stochastic solver ride out? One declarative
//! campaign pairs all 9 robustified applications with the whole
//! `FaultModelSpec` family — the paper's transient flip, a stuck-at-1
//! exponent bit, 3-bit bursts, operand-side corruption, a 50%-duty-cycle
//! intermittent fault, and a mul/div-only hot spot — at several fault
//! rates, and emits one comparison table plus the engine's CSV/JSON
//! documents (the CSV carries a `fault_model` column per row for
//! downstream plotting).
//!
//! The 54 (app × scenario) cells are expressed as per-job fault-model
//! overrides on a `CampaignSpec`, so this binary is also a *thin
//! client*: with `--server ADDR` it submits the campaign to a running
//! `campaign_server` and prints the daemon's byte-identical documents;
//! with `--cache-dir PATH` a local run checkpoints per cell and resumes
//! after a kill. Jobs carry no solver: each resolves to its workload's
//! registry default, whose step sizes derive from the instance the job
//! materializes at the campaign's base seed (`Instantiate::Fixed`).
//!
//! Expected shape: LSB-heavy / duty-cycled / op-selective scenarios are
//! strictly easier than the paper's transient flip (fewer effective
//! strikes, smaller magnitudes), while stuck-at exponent bits and bursts
//! are harsher; the solvers' graceful-degradation story should hold across
//! the family, failing hardest on the stuck-at scenario.

#![forbid(unsafe_code)]
use robustify_bench::workloads::paper_registry;
use robustify_bench::{ExperimentOptions, Table};
use robustify_engine::campaign::JobSpec;
use stochastic_fpu::{BitFaultModel, BitWidth, FaultModelSpec, FlopOp};

/// The scenario family swept by the campaign, labelled for the case axis.
fn model_family() -> Vec<(&'static str, FaultModelSpec)> {
    let transient = FaultModelSpec::default();
    vec![
        ("transient", transient.clone()),
        ("stuck1", FaultModelSpec::stuck_at(52, true, BitWidth::F64)),
        (
            "burst3",
            FaultModelSpec::burst(3, BitFaultModel::emulated()),
        ),
        (
            "operand",
            FaultModelSpec::operand(BitFaultModel::emulated()),
        ),
        (
            "duty50",
            FaultModelSpec::intermittent(0.5, 1000, transient.clone()),
        ),
        (
            "muldiv",
            FaultModelSpec::op_selective(vec![FlopOp::Mul, FlopOp::Div], transient),
        ),
    ]
}

/// The 9 paper applications, by registry workload name.
const APPS: [&str; 9] = [
    "least_squares",
    "iir",
    "sorting",
    "matching",
    "maxflow",
    "apsp",
    "svm",
    "eigen",
    "doubly_stochastic",
];

fn main() {
    let opts = ExperimentOptions::parse();
    let trials = opts.trials(20, 3);
    let rates = if opts.fast {
        vec![1.0, 10.0]
    } else {
        vec![0.5, 2.0, 10.0]
    };

    opts.validate_apps(&APPS);

    // Each application runs its registry default solver (the figures' /
    // ch7's choices), paired with every fault-model scenario as a
    // per-job override of the campaign's fault model.
    let mut campaign = opts
        .campaign("fault_model_campaign")
        .rates(rates)
        .trials(trials);
    for app in APPS {
        if !opts.app_enabled(app) {
            continue;
        }
        for (model_label, model) in model_family() {
            campaign = campaign
                .job(JobSpec::new(&format!("{app}/{model_label}"), app).with_fault_model(model));
        }
    }

    let Some(run) = opts.execute_campaign(&campaign, &paper_registry()) else {
        return;
    };
    let result = &run.result;

    // Comparison table: one row per (app × scenario), success rate per
    // fault rate plus the worst-rate median metric.
    let n_models = model_family().len();
    let mut headers: Vec<String> = vec!["application".into(), "fault_model".into()];
    headers.extend(result.rates_pct().iter().map(|r| format!("success@{r}%")));
    headers.push("median@max_rate".into());
    let header_refs: Vec<&str> = headers.iter().map(|h| h.as_str()).collect();
    let mut table = Table::new(
        &format!("Fault-model campaign — 9 apps × {n_models} scenarios ({trials} trials/cell)"),
        &header_refs,
    );
    let last_rate = result.rates_pct().len() - 1;
    for (case, label) in result.labels().iter().enumerate() {
        let (app, model_label) = label.split_once('/').expect("labels are app/model");
        let mut row = vec![app.to_string(), model_label.to_string()];
        for rate_idx in 0..result.rates_pct().len() {
            row.push(format!("{:.1}", result.cell(case, rate_idx).success_rate()));
        }
        row.push(robustify_bench::fmt_metric(
            result.cell(case, last_rate).summary().median(),
        ));
        table.row(&row);
    }
    opts.emit(&table, &run);

    // The engine's own per-cell CSV (with the fault_model column) is the
    // machine-readable comparison artifact.
    robustify_bench::outln!("\n-- engine csv --\n{}", result.to_csv());
}
