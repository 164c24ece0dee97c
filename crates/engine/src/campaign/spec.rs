//! The campaign wire format: a sweep grid plus declarative jobs, as
//! canonical JSON.

use robustify_core::SolverSpec;
use stochastic_fpu::json::{JsonCodec, JsonValue};
use stochastic_fpu::json_object;
use stochastic_fpu::{FaultModelSpec, VoltageErrorModel};

/// The most storage slots a memory fault model may declare. Every trial
/// allocates one shadow mask per slot, and a failed allocation aborts the
/// process rather than panicking, so [`CampaignSpec::validate`] refuses
/// larger models up front. The largest figure grid uses 4096.
pub const MAX_MEMORY_SLOTS: usize = 1 << 20;

/// The most trials one campaign may run, summed over every cell (each
/// job's trials × the rate grid). The runner holds one record slot per
/// trial, so [`CampaignSpec::validate`] refuses larger grids before a
/// failed allocation can abort the process. The largest full-size figure
/// grid, `fig6_1_sorting`, runs 4,800.
pub const MAX_CAMPAIGN_TRIALS: usize = 1_000_000;

/// The most iterations (and aggressive-stepping steps) one solver spec may
/// ask for, so one accepted cell cannot hold a worker for hours;
/// [`SolverSpec::validate`], which [`CampaignSpec::validate`] runs on
/// every job, refuses larger budgets.
pub use robustify_core::MAX_SOLVER_STEPS;

/// How a job turns its workload factory into problem instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instantiate {
    /// One instance, materialized from the campaign's base seed and shared
    /// by every trial (the figure binaries' "one problem, many fault
    /// streams" shape).
    Fixed,
    /// A fresh instance per trial, materialized from the trial's
    /// [`problem_seed`](crate::problem_seed) (the "random instance per
    /// trial" shape).
    PerTrial,
}

impl Instantiate {
    /// The wire name (`"fixed"` / `"per_trial"`).
    pub fn name(self) -> &'static str {
        match self {
            Instantiate::Fixed => "fixed",
            Instantiate::PerTrial => "per_trial",
        }
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "fixed" => Some(Instantiate::Fixed),
            "per_trial" => Some(Instantiate::PerTrial),
            _ => None,
        }
    }
}

/// One campaign column: a named workload with optional solver,
/// fault-model, and trial-count overrides.
///
/// A `JobSpec` holds only names and declarative specs — everything a
/// daemon needs to re-materialize the identical column from its registry.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    label: String,
    workload: String,
    instantiate: Instantiate,
    solver: Option<SolverSpec>,
    fault_model: Option<FaultModelSpec>,
    trials: Option<usize>,
}

impl JobSpec {
    /// A job labelled `label` over registry workload `workload`, with
    /// [`Instantiate::Fixed`] instantiation, the workload's default
    /// solver, and the campaign's fault model and trial count.
    pub fn new(label: &str, workload: &str) -> Self {
        JobSpec {
            label: label.to_string(),
            workload: workload.to_string(),
            instantiate: Instantiate::Fixed,
            solver: None,
            fault_model: None,
            trials: None,
        }
    }

    /// Switches to a fresh problem instance per trial.
    pub fn per_trial(mut self) -> Self {
        self.instantiate = Instantiate::PerTrial;
        self
    }

    /// Pins the solver spec (default: the workload's registry solver).
    pub fn with_solver(mut self, solver: SolverSpec) -> Self {
        self.solver = Some(solver);
        self
    }

    /// Overrides the campaign's fault model for this job.
    pub fn with_fault_model(mut self, model: impl Into<FaultModelSpec>) -> Self {
        self.fault_model = Some(model.into());
        self
    }

    /// Overrides the campaign's trials-per-cell for this job.
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = Some(trials);
        self
    }

    /// The job label (the result's case label).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The registry workload name.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// The instantiation mode.
    pub fn instantiate(&self) -> Instantiate {
        self.instantiate
    }

    /// The solver override, if any.
    pub fn solver(&self) -> Option<&SolverSpec> {
        self.solver.as_ref()
    }

    /// The fault-model override, if any.
    pub fn fault_model(&self) -> Option<&FaultModelSpec> {
        self.fault_model.as_ref()
    }

    /// The trial-count override, if any.
    pub fn trials(&self) -> Option<usize> {
        self.trials
    }
}

/// Canonical JSON for the wire and for content hashing; unset overrides
/// are `null`.
impl JsonCodec for JobSpec {
    fn to_value(&self) -> JsonValue {
        json_object!(
            "label" => self.label.as_str(), "workload" => self.workload.as_str(),
            "instantiate" => self.instantiate.name(), "solver" => self.solver.as_ref(),
            "fault_model" => self.fault_model.as_ref(), "trials" => self.trials,
        )
    }

    fn from_value(value: &JsonValue) -> Result<Self, String> {
        let f = value.fields("job");
        let trials = match f.opt("trials")? {
            Some(0) => return Err("job needs a positive \"trials\"".to_string()),
            trials => trials,
        };
        Ok(JobSpec {
            label: f.get("label")?,
            workload: f.get("workload")?,
            instantiate: f.map(
                "a \"fixed\" or \"per_trial\"",
                "instantiate",
                Instantiate::from_name,
            )?,
            solver: f.decode_opt("solver")?,
            fault_model: f.decode_opt("fault_model")?,
            trials,
        })
    }
}

/// A serializable grid: fault rates (or supply voltages) × trials per cell
/// × base seed × default fault model, plus the [`JobSpec`] columns, each
/// axis set by a named method.
///
/// # Examples
///
/// ```
/// use robustify_engine::campaign::{CampaignSpec, JobSpec};
/// use stochastic_fpu::json::JsonCodec;
///
/// let spec = CampaignSpec::new("demo")
///     .rates(vec![1.0, 5.0])
///     .trials(20)
///     .seed(42)
///     .job(JobSpec::new("lsq", "least_squares"));
/// let wire = spec.to_json();
/// assert_eq!(CampaignSpec::from_json(&wire).unwrap(), spec);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    name: String,
    rates_pct: Vec<f64>,
    voltages: Option<Vec<f64>>,
    energy_model: Option<VoltageErrorModel>,
    trials: usize,
    base_seed: u64,
    threads: usize,
    fault_model: FaultModelSpec,
    jobs: Vec<JobSpec>,
}

impl CampaignSpec {
    /// An empty campaign named `name`: no grid, no jobs, seed `0`,
    /// threads `0` (available parallelism), the paper's emulated
    /// transient-flip default fault model, and `trials` unset (`0`) until
    /// [`trials`](Self::trials) is called.
    pub fn new(name: &str) -> Self {
        CampaignSpec {
            name: name.to_string(),
            rates_pct: Vec::new(),
            voltages: None,
            energy_model: None,
            trials: 0,
            base_seed: 0,
            threads: 0,
            fault_model: FaultModelSpec::default(),
            jobs: Vec::new(),
        }
    }

    /// Sets the fault-rate grid, as percentages of FLOPs.
    pub fn rates(mut self, rates_pct: Vec<f64>) -> Self {
        self.rates_pct = rates_pct;
        self
    }

    /// Makes *supply voltage* the grid axis: each column's rate is the one
    /// `energy_model` predicts at that operating point, and cells gain
    /// energy provenance (`energy = P(V) × FLOPs`, the Figure 6.7 y-axis)
    /// in the emitted documents.
    pub fn voltages(mut self, voltages: Vec<f64>, energy_model: VoltageErrorModel) -> Self {
        self.rates_pct = voltages
            .iter()
            .map(|&v| energy_model.fault_rate_at(v).percent())
            .collect();
        self.voltages = Some(voltages);
        self.energy_model = Some(energy_model);
        self
    }

    /// Sets the default trials per cell (required, positive).
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the base seed (default `0`).
    pub fn seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Pins the worker-thread count (`0` = available parallelism). Output
    /// is bit-identical for every choice.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the campaign's default fault model.
    pub fn model(mut self, model: impl Into<FaultModelSpec>) -> Self {
        self.fault_model = model.into();
        self
    }

    /// Appends a job column.
    pub fn job(mut self, job: JobSpec) -> Self {
        self.jobs.push(job);
        self
    }

    /// The campaign name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fault-rate grid, as percentages of FLOPs.
    pub fn rates_pct(&self) -> &[f64] {
        &self.rates_pct
    }

    /// The voltage grid of a voltage-axis campaign (parallel to
    /// [`rates_pct`](Self::rates_pct)).
    pub fn voltages_axis(&self) -> Option<&[f64]> {
        self.voltages.as_deref()
    }

    /// The voltage/energy calibration of a voltage-axis campaign.
    pub fn energy_model(&self) -> Option<&VoltageErrorModel> {
        self.energy_model.as_ref()
    }

    /// Default trials per cell.
    pub fn trials_per_cell(&self) -> usize {
        self.trials
    }

    /// The base seed.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The requested worker-thread count (`0` = available parallelism).
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// The campaign's default fault model.
    pub fn fault_model(&self) -> &FaultModelSpec {
        &self.fault_model
    }

    /// The job columns.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Structural validation: a runnable campaign has a non-empty grid of
    /// fault-rate percentages in `[0, 100]` (on a voltage axis, each the
    /// energy model's rate at its column's voltage), positive trials
    /// (campaign-wide and per job), at least one job, distinct job
    /// labels, explicit solver specs that pass [`SolverSpec::validate`],
    /// memory fault models of at most [`MAX_MEMORY_SLOTS`] slots, and at
    /// most [`MAX_CAMPAIGN_TRIALS`] trials summed over every cell.
    /// (Workload names are checked against the registry at resolution
    /// time, since only the daemon knows its registry.)
    pub fn validate(&self) -> Result<(), String> {
        if self.rates_pct.is_empty() {
            return Err("campaign needs a non-empty rate or voltage grid".to_string());
        }
        if let Some(voltages) = &self.voltages {
            if voltages.len() != self.rates_pct.len() {
                return Err("voltage grid must parallel the rate grid".to_string());
            }
            for &v in voltages {
                if !(v > 0.0 && v.is_finite()) {
                    return Err(format!("voltage must be positive and finite, got {v}"));
                }
            }
        }
        // A voltage column runs at its own rate, so the energy model must
        // predict exactly that rate at the column's voltage.
        if let (Some(voltages), Some(model)) = (&self.voltages, &self.energy_model) {
            for (i, (&v, &r)) in voltages.iter().zip(&self.rates_pct).enumerate() {
                let expected = model.fault_rate_at(v).percent();
                if r.to_bits() != expected.to_bits() {
                    return Err(format!(
                        "voltage column {i} ({v} V) has rate {r}%, but the energy model \
                         predicts {expected}% there"
                    ));
                }
            }
        }
        for &r in &self.rates_pct {
            if !(r.is_finite() && (0.0..=100.0).contains(&r)) {
                return Err(format!(
                    "fault rate must be a percentage in [0, 100], got {r}"
                ));
            }
        }
        if self.trials == 0 && self.jobs.iter().any(|j| j.trials.is_none()) {
            return Err("campaign needs .trials(..) > 0 (or per-job overrides)".to_string());
        }
        if self.jobs.is_empty() {
            return Err("campaign needs at least one job".to_string());
        }
        validate_fault_model(&self.fault_model).map_err(|e| format!("campaign: {e}"))?;
        for (i, job) in self.jobs.iter().enumerate() {
            if self.jobs[..i].iter().any(|j| j.label == job.label) {
                return Err(format!("duplicate job label \"{}\"", job.label));
            }
            if job.trials == Some(0) {
                return Err(format!("job \"{}\": trials must be positive", job.label));
            }
            if let Some(solver) = &job.solver {
                solver
                    .validate()
                    .map_err(|e| format!("job \"{}\": {e}", job.label))?;
            }
            if let Some(model) = &job.fault_model {
                validate_fault_model(model).map_err(|e| format!("job \"{}\": {e}", job.label))?;
            }
        }
        let total_trials = self.jobs.iter().try_fold(0usize, |total, job| {
            job.trials
                .unwrap_or(self.trials)
                .checked_mul(self.rates_pct.len())
                .and_then(|trials| total.checked_add(trials))
                .filter(|&total| total <= MAX_CAMPAIGN_TRIALS)
        });
        if total_trials.is_none() {
            return Err(format!(
                "campaign runs more than {MAX_CAMPAIGN_TRIALS} trials in total"
            ));
        }
        Ok(())
    }

    /// Canonical JSON for the wire ([`JsonCodec::to_json`]).
    pub fn to_json(&self) -> String {
        JsonCodec::to_json(self)
    }
}

/// Canonical JSON for the wire; a rate-axis campaign has `null`
/// `"voltages"` and `"energy_model"`.
impl JsonCodec for CampaignSpec {
    fn to_value(&self) -> JsonValue {
        json_object!(
            "name" => self.name.as_str(), "rates_pct" => self.rates_pct.as_slice(),
            "voltages" => self.voltages.as_deref(), "energy_model" => self.energy_model.as_ref(),
            "trials" => self.trials, "base_seed" => self.base_seed, "threads" => self.threads,
            "fault_model" => &self.fault_model, "jobs" => self.jobs.iter().collect::<JsonValue>(),
        )
    }

    fn from_value(value: &JsonValue) -> Result<Self, String> {
        let f = value.fields("campaign");
        let voltages = f.opt("voltages")?;
        let energy_model = f.decode_opt("energy_model")?;
        if voltages.is_some() != energy_model.is_some() {
            return Err("\"voltages\" and \"energy_model\" travel together".to_string());
        }
        Ok(CampaignSpec {
            name: f.get("name")?,
            rates_pct: f.get("rates_pct")?,
            voltages,
            energy_model,
            trials: f.get("trials")?,
            base_seed: f.get("base_seed")?,
            threads: f.get("threads")?,
            fault_model: f.decode("fault_model")?,
            jobs: f
                .get::<&[JsonValue]>("jobs")?
                .iter()
                .map(JobSpec::from_value)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Refuses fault models whose shadow state could not be allocated.
fn validate_fault_model(model: &FaultModelSpec) -> Result<(), String> {
    match model.memory_model() {
        Some(memory) if memory.slots() > MAX_MEMORY_SLOTS => Err(format!(
            "memory fault model has {} slots; the limit is {MAX_MEMORY_SLOTS}",
            memory.slots()
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustify_core::StepSchedule;
    use stochastic_fpu::{BitFaultModel, BitWidth};

    fn rich_spec() -> CampaignSpec {
        CampaignSpec::new("fig6_2")
            .rates(vec![0.1, 1.0, 10.0])
            .trials(50)
            .seed(424242)
            .threads(2)
            .model(BitFaultModel::emulated())
            .job(JobSpec::new("baseline", "least_squares"))
            .job(
                JobSpec::new("sgd", "least_squares")
                    .per_trial()
                    .with_solver(SolverSpec::sgd(300, StepSchedule::Linear { gamma0: 0.1 }))
                    .with_fault_model(FaultModelSpec::stuck_at(52, true, BitWidth::F64))
                    .with_trials(25),
            )
    }

    #[test]
    fn campaign_json_round_trips() {
        let spec = rich_spec();
        let wire = spec.to_json();
        let back = CampaignSpec::from_json(&wire).expect("round trip");
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), wire, "re-serialization is byte-stable");
        spec.validate().expect("rich spec is valid");
    }

    #[test]
    fn voltage_axis_campaign_round_trips() {
        let energy = VoltageErrorModel::paper_figure_5_2();
        let spec = CampaignSpec::new("energy")
            .voltages(vec![1.0, 0.8, 0.7], energy.clone())
            .trials(10)
            .job(JobSpec::new("lsq", "least_squares"));
        assert_eq!(spec.rates_pct().len(), 3);
        assert!(spec.rates_pct()[2] > spec.rates_pct()[0]);
        let back = CampaignSpec::from_json(&spec.to_json()).expect("round trip");
        assert_eq!(back, spec);
        assert_eq!(back.energy_model(), Some(&energy));
        spec.validate().expect("voltage spec is valid");
    }

    #[test]
    fn voltage_columns_must_run_at_their_models_rate() {
        let honest = CampaignSpec::new("energy")
            .voltages(vec![1.0, 0.7], VoltageErrorModel::paper_figure_5_2())
            .trials(5)
            .job(JobSpec::new("a", "w"));
        honest.validate().expect("builder-derived rates match");
        // The 1.0 V column claims a 50% fault rate.
        let [nominal, overscaled] = honest.rates_pct() else {
            unreachable!("two columns")
        };
        let wire = honest.to_json();
        let forged = wire.replace(
            &format!("\"rates_pct\":[{nominal},{overscaled}]"),
            &format!("\"rates_pct\":[50,{overscaled}]"),
        );
        assert_ne!(forged, wire);
        let err = CampaignSpec::from_json(&forged)
            .expect("parses")
            .validate()
            .unwrap_err();
        assert!(err.contains("voltage column 0 (1 V)"), "{err}");
    }

    #[test]
    fn validation_rejects_degenerate_campaigns() {
        let no_grid = CampaignSpec::new("x").trials(5).job(JobSpec::new("a", "w"));
        assert!(no_grid.validate().is_err());
        let no_jobs = CampaignSpec::new("x").rates(vec![1.0]).trials(5);
        assert!(no_jobs.validate().is_err());
        let no_trials = CampaignSpec::new("x")
            .rates(vec![1.0])
            .job(JobSpec::new("a", "w"));
        assert!(no_trials.validate().is_err());
        let dup = CampaignSpec::new("x")
            .rates(vec![1.0])
            .trials(5)
            .job(JobSpec::new("a", "w"))
            .job(JobSpec::new("a", "w2"));
        assert!(dup.validate().unwrap_err().contains("duplicate"));
        let bad_solver = CampaignSpec::new("x").rates(vec![1.0]).trials(5).job(
            JobSpec::new("a", "w")
                .with_solver(SolverSpec::sgd(10, StepSchedule::Fixed(0.1)).with_momentum(5.0)),
        );
        assert!(bad_solver.validate().unwrap_err().contains("momentum"));
        // Rates are percentages: every trial would panic outside [0, 100].
        for rate in [150.0, 100.5, -1.0, f64::NAN, f64::INFINITY] {
            let bad_rate = CampaignSpec::new("x")
                .rates(vec![1.0, rate])
                .trials(5)
                .job(JobSpec::new("a", "w"));
            assert!(
                bad_rate.validate().unwrap_err().contains("fault rate"),
                "accepted rate {rate}"
            );
        }
        let full = CampaignSpec::new("x")
            .rates(vec![0.0, 100.0])
            .trials(5)
            .job(JobSpec::new("a", "w"));
        full.validate().expect("the closed interval is valid");
        // A zero per-job trial count would leave its cells unreported.
        let zero_job_trials = CampaignSpec::new("x")
            .rates(vec![1.0])
            .trials(5)
            .job(JobSpec::new("a", "w").with_trials(0));
        assert!(zero_job_trials
            .validate()
            .unwrap_err()
            .contains("trials must be positive"));
        // A zero campaign trial count is fine when every job overrides it.
        let per_job = CampaignSpec::new("x")
            .rates(vec![1.0])
            .job(JobSpec::new("a", "w").with_trials(3));
        per_job.validate().expect("per-job trials suffice");
        // Total trials (job trials × rates, summed over jobs) are capped,
        // and a product that overflows `usize` is refused the same way.
        let at_cap = CampaignSpec::new("x")
            .rates(vec![0.0, 1.0])
            .trials(MAX_CAMPAIGN_TRIALS / 4)
            .job(JobSpec::new("a", "w"))
            .job(JobSpec::new("b", "w"));
        at_cap.validate().expect("a grid at the cap is valid");
        let over_cap = at_cap.job(JobSpec::new("c", "w").with_trials(1));
        assert!(over_cap.validate().unwrap_err().contains("trials in total"));
        let overflow = CampaignSpec::new("x")
            .rates(vec![0.0, 1.0])
            .trials(usize::MAX / 2 + 1)
            .job(JobSpec::new("a", "w"));
        assert!(overflow.validate().unwrap_err().contains("trials in total"));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for doc in [
            "{",
            "{}",
            "{\"name\":\"x\"}",
            "{\"name\":\"x\",\"rates_pct\":[\"one\"],\"trials\":1,\"base_seed\":0,\"threads\":0,\"fault_model\":{\"kind\":\"transient\",\"distribution\":\"emulated\",\"width\":\"f64\"},\"jobs\":[]}",
            "{\"name\":\"x\",\"rates_pct\":[1],\"voltages\":[1.0],\"energy_model\":null,\"trials\":1,\"base_seed\":0,\"threads\":0,\"fault_model\":{\"kind\":\"transient\",\"distribution\":\"emulated\",\"width\":\"f64\"},\"jobs\":[]}",
            "{\"name\":\"x\",\"rates_pct\":[1],\"trials\":1,\"base_seed\":0,\"threads\":0,\"fault_model\":{\"kind\":\"transient\",\"distribution\":\"emulated\",\"width\":\"f64\"},\"jobs\":[{\"label\":\"a\"}]}",
            "{\"name\":\"x\",\"rates_pct\":[1],\"trials\":1,\"base_seed\":0,\"threads\":0,\"fault_model\":{\"kind\":\"transient\",\"distribution\":\"emulated\",\"width\":\"f64\"},\"jobs\":[{\"label\":\"a\",\"workload\":\"w\",\"instantiate\":\"sometimes\"}]}",
        ] {
            assert!(CampaignSpec::from_json(doc).is_err(), "accepted: {doc}");
        }
    }
}
