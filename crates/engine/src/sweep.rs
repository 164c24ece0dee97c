//! Trial seeding, the paper's fault-rate lists, and the result document
//! every campaign emits.

use crate::stats::CellStats;
use robustify_core::SolverSpec;
use std::fmt::Write;
use stochastic_fpu::json::{self, JsonValue};
use stochastic_fpu::json_object;
use stochastic_fpu::{FaultModelSpec, VoltageErrorModel};

/// Derives the FPU seed for trial `i` from a sweep's base seed.
///
/// This is the exact SplitMix-style derivation the original serial harness
/// used (`TrialConfig::fpu_for_trial`), kept verbatim so engine sweeps
/// replay the same fault streams and so the schedule of faults for trial
/// `i` depends only on `(base_seed, i)` — never on which thread runs it.
pub fn derive_trial_seed(base_seed: u64, trial: u64) -> u64 {
    base_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((trial + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

/// Derives the workload seed for trial `i`: the convention the figure
/// binaries use to draw a fresh random problem instance per trial
/// (`base_seed ^ ((i + 1) * 7919)`).
pub fn problem_seed(base_seed: u64, trial: u64) -> u64 {
    base_seed ^ (trial + 1).wrapping_mul(7919)
}

/// The fault-rate sweep used by the paper's accuracy figures, as
/// percentages of FLOPs: `0.1, 0.5, 1, 2, 5, 10`.
pub fn paper_fault_rates() -> Vec<f64> {
    vec![0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
}

/// The extended sweep of Figure 6.5 (`0–50%` of FLOPs).
pub fn extended_fault_rates() -> Vec<f64> {
    vec![0.0, 1.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0]
}

/// The aggregated outcome of a campaign: every cell's deterministic
/// aggregates plus the grid provenance, with CSV and JSON emitters.
///
/// Holds only bytes-relevant data; wall-clock timing and worker counts
/// live on [`CampaignRun`](crate::campaign::CampaignRun).
#[derive(Debug, Clone)]
pub struct SweepResult {
    name: String,
    labels: Vec<String>,
    solvers: Vec<SolverSpec>,
    /// Effective fault model per case (the job override or the campaign
    /// default).
    fault_models: Vec<FaultModelSpec>,
    rates_pct: Vec<f64>,
    /// Supply voltage per rate column (voltage-axis sweeps only).
    voltages: Option<Vec<f64>>,
    /// The voltage/energy calibration (voltage-axis sweeps only).
    energy_model: Option<VoltageErrorModel>,
    base_seed: u64,
    total_trials: usize,
    /// `cells[case][rate]`.
    cells: Vec<Vec<CellStats>>,
}

/// The per-case inputs the campaign runner assembles a [`SweepResult`]
/// from: label, resolved solver spec, effective fault model, and the
/// per-rate aggregates in rate order.
pub(crate) struct CaseParts {
    pub(crate) label: String,
    pub(crate) solver: SolverSpec,
    pub(crate) fault_model: FaultModelSpec,
    pub(crate) cells: Vec<CellStats>,
}

impl SweepResult {
    /// Assembles a result from campaign-executed (possibly cache-replayed)
    /// cells.
    pub(crate) fn from_parts(
        name: String,
        cases: Vec<CaseParts>,
        rates_pct: Vec<f64>,
        voltages: Option<Vec<f64>>,
        energy_model: Option<VoltageErrorModel>,
        base_seed: u64,
    ) -> Self {
        let total_trials = cases
            .iter()
            .flat_map(|c| c.cells.iter())
            .map(CellStats::trials)
            // detlint::allow(float-reassociation, reason = "integer trial count, not a float reduction")
            .sum();
        let mut labels = Vec::with_capacity(cases.len());
        let mut solvers = Vec::with_capacity(cases.len());
        let mut fault_models = Vec::with_capacity(cases.len());
        let mut cells = Vec::with_capacity(cases.len());
        for case in cases {
            labels.push(case.label);
            solvers.push(case.solver);
            fault_models.push(case.fault_model);
            cells.push(case.cells);
        }
        SweepResult {
            name,
            labels,
            solvers,
            fault_models,
            rates_pct,
            voltages,
            energy_model,
            base_seed,
            total_trials,
            cells,
        }
    }

    /// The sweep name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Case labels, in case order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The fault-rate grid, as percentages.
    pub fn rates_pct(&self) -> &[f64] {
        &self.rates_pct
    }

    /// The effective supply voltage of a cell: the case's own operating
    /// point (a voltage-linked fault-model override) when the case pins
    /// one, else the sweep's voltage for that rate column, else `None`
    /// (an abstract-rate sweep). A case pinned to a *DVFS trajectory*
    /// reports `None` — it has no single voltage, and falling back to
    /// the grid column would claim an operating point the case never ran
    /// at (its energy is still accounted, piecewise, by
    /// [`energy_per_trial`](Self::energy_per_trial)).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn voltage(&self, case: usize, rate: usize) -> Option<f64> {
        assert!(rate < self.rates_pct.len(), "rate index out of range");
        let model = &self.fault_models[case];
        if model.pins_operating_point() {
            return model.voltage();
        }
        self.voltages.as_ref().map(|v| v[rate])
    }

    /// The energy (normalized `power × FLOP` units, the paper's Figure
    /// 6.7 y-axis) of one trial of a cell: `P(V) × flops_per_trial`,
    /// where the operating point comes from the case's voltage-linked /
    /// DVFS fault model when it has one, else from the sweep's voltage
    /// axis. `None` when neither side carries voltage semantics.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn energy_per_trial(&self, case: usize, rate: usize) -> Option<f64> {
        let flops = self.cells[case][rate].flops_per_trial();
        if let Some(energy) = self.fault_models[case].energy_for_flops(flops) {
            return Some(energy);
        }
        match (&self.energy_model, &self.voltages) {
            (Some(model), Some(voltages)) => Some(model.energy(flops, voltages[rate])),
            _ => None,
        }
    }

    /// The aggregate for `(case, rate)` by index.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn cell(&self, case: usize, rate: usize) -> &CellStats {
        &self.cells[case][rate]
    }

    /// The aggregate for a labelled case at a rate index.
    ///
    /// # Panics
    ///
    /// Panics if the label is unknown or the rate index is out of range.
    pub fn case_cell(&self, label: &str, rate: usize) -> &CellStats {
        let case = self
            .labels
            .iter()
            .position(|l| l == label)
            .unwrap_or_else(|| panic!("unknown case label `{label}`"));
        self.cell(case, rate)
    }

    /// The effective fault model of a case (its override or the sweep
    /// default).
    ///
    /// # Panics
    ///
    /// Panics if the case index is out of range.
    pub fn fault_model(&self, case: usize) -> &FaultModelSpec {
        &self.fault_models[case]
    }

    /// Total trials executed across all cells.
    pub fn total_trials(&self) -> usize {
        self.total_trials
    }

    /// Machine-readable CSV: one row per `(case, rate)` cell.
    ///
    /// Deterministic for a fixed grid and seed — thread count does not
    /// appear and cannot influence any value.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "case,fault_model,fault_rate_pct,trials,successes,success_rate,median,mean,max,failures,flops,faults,voltage,energy_per_trial\n",
        );
        for (case, row) in self.cells.iter().enumerate() {
            for (rate_idx, cell) in row.iter().enumerate() {
                let summary = cell.summary();
                out.push_str(&format!(
                    "{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                    csv_field(&self.labels[case]),
                    self.fault_models[case].name(),
                    self.rates_pct[rate_idx],
                    cell.trials(),
                    cell.successes(),
                    csv_num(cell.success_rate()),
                    csv_num(summary.median()),
                    csv_num(summary.mean()),
                    csv_num(summary.max()),
                    summary.failures,
                    cell.flops(),
                    cell.faults(),
                    csv_opt(self.voltage(case, rate_idx)),
                    csv_opt(self.energy_per_trial(case, rate_idx)),
                ));
            }
        }
        out
    }

    /// Machine-readable JSON document of the whole sweep, including each
    /// case's serialized [`SolverSpec`](robustify_core::SolverSpec) for
    /// provenance. Non-finite metrics serialize as `null`.
    ///
    /// Deterministic for a fixed grid and seed — thread count does not
    /// appear and cannot influence any value. Written one case at a time,
    /// so beyond the text itself it holds one case's tree at most.
    pub fn to_json(&self) -> String {
        let mut out = json_object!(
            "name" => self.name.as_str(), "base_seed" => self.base_seed,
            "rates_pct" => self.rates_pct.as_slice(), "voltages" => self.voltages.as_deref(),
        )
        .to_string();
        out.pop(); // the closing brace: the cases follow
        out.push_str(",\"cases\":[");
        for (case, row) in self.cells.iter().enumerate() {
            if case > 0 {
                out.push(',');
            }
            let cells = row.iter().enumerate().map(|(rate, cell)| {
                let summary = cell.summary();
                json_object!(
                    "rate_pct" => self.rates_pct[rate], "trials" => cell.trials(),
                    "successes" => cell.successes(),
                    "success_rate" => JsonValue::finite(cell.success_rate()),
                    "median" => JsonValue::finite(summary.median()),
                    "mean" => JsonValue::finite(summary.mean()),
                    "max" => JsonValue::finite(summary.max()),
                    "failures" => summary.failures, "flops" => cell.flops(), "faults" => cell.faults(),
                    "voltage" => JsonValue::finite(self.voltage(case, rate)),
                    "energy_per_trial" => JsonValue::finite(self.energy_per_trial(case, rate)),
                )
            });
            let case = json_object!(
                "label" => self.labels[case].as_str(), "spec" => &self.solvers[case],
                "fault_model" => &self.fault_models[case], "cells" => cells.collect::<JsonValue>(),
            );
            write!(out, "{case}").expect("writing to a String cannot fail");
        }
        out.push_str("]}");
        out
    }
}

/// A view of a [`SweepResult::to_json`] document: the grid and
/// the per-cell fields figure tables read. A figure renders from this
/// view whether the document was built in-process or returned by a
/// `campaign_server` daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepDoc {
    /// Case labels, in case order.
    pub labels: Vec<String>,
    /// The fault-rate grid, as percentages.
    pub rates_pct: Vec<f64>,
    /// `cells[case][rate]`; every case has one cell per rate.
    pub cells: Vec<Vec<DocCell>>,
}

/// One cell of a [`SweepDoc`], bit-identical to the [`SweepResult`]
/// values it was serialized from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DocCell {
    /// Trials aggregated ([`CellStats::trials`]).
    pub trials: usize,
    /// Successful trials.
    pub successes: usize,
    /// Success percentage in `[0, 100]`.
    pub success_rate: f64,
    /// The median finite metric; `∞` when every trial failed.
    pub median: f64,
    /// Trials whose metric was non-finite.
    pub failures: usize,
    /// Total data-plane FLOPs.
    pub flops: u64,
    /// The cell's supply voltage ([`SweepResult::voltage`]).
    pub voltage: Option<f64>,
    /// The energy of one trial ([`SweepResult::energy_per_trial`]);
    /// always `Some` on a voltage axis.
    pub energy_per_trial: Option<f64>,
}

impl SweepDoc {
    /// Parses a [`SweepResult::to_json`] document. A daemon's document is
    /// outside input, so anything malformed — bad JSON, a missing or
    /// mistyped field, a case whose cell count differs from the rate
    /// grid — is an `Err`, never a panic.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| format!("result document: {e}"))?;
        let doc = doc.fields("result document");
        let rates_pct: Vec<f64> = doc.get("rates_pct")?;
        // Every cell of a voltage-axis sweep is energy-accounted.
        let voltage_axis = doc.get::<&JsonValue>("voltages")? != &JsonValue::Null;
        let cell = |c: &JsonValue| {
            let c = c.fields("result cell");
            Ok(DocCell {
                trials: c.get("trials")?,
                successes: c.get("successes")?,
                success_rate: c.get("success_rate")?,
                median: c.get::<Option<f64>>("median")?.unwrap_or(f64::INFINITY),
                failures: c.get("failures")?,
                flops: c.get("flops")?,
                voltage: c.get("voltage")?,
                energy_per_trial: c.map(
                    "a numeric (null off a voltage axis)",
                    "energy_per_trial",
                    |e: Option<f64>| (e.is_some() || !voltage_axis).then_some(e),
                )?,
            })
        };
        let mut labels = Vec::new();
        let mut cells = Vec::new();
        for case in doc.get::<&[JsonValue]>("cases")? {
            let case = case.fields("result case");
            labels.push(case.get("label")?);
            let row = case
                .get::<&[JsonValue]>("cells")?
                .iter()
                .map(cell)
                .collect::<Result<Vec<_>, String>>()?;
            if row.len() != rates_pct.len() {
                return Err("result document: a case's cells do not match the rate grid".into());
            }
            cells.push(row);
        }
        Ok(SweepDoc {
            labels,
            rates_pct,
            cells,
        })
    }
}

/// A CSV text field, quoted per RFC 4180 only when it holds a comma, a
/// quote or a line break (so plain labels keep their historical bytes).
/// The one CSV quoting rule of every emitted document and table.
pub fn csv_field(text: &str) -> String {
    if text.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", text.replace('"', "\"\""))
    } else {
        text.to_string()
    }
}

fn csv_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "inf".to_string()
    }
}

/// An optional CSV cell: absent values render as the empty field.
fn csv_opt(v: Option<f64>) -> String {
    v.map(csv_num).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_matches_the_serial_harness() {
        // The exact constants of TrialConfig::fpu_for_trial.
        let base = 42u64;
        let expected = base
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(3u64.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        assert_eq!(derive_trial_seed(base, 2), expected);
        assert_eq!(problem_seed(7, 0), 7 ^ 7919);
    }
}
