//! The traced execution: the benchmark runs a grid's trials itself, as a
//! benchmark-owned [`WorkSet`] on the engine's public [`Scheduler`], with
//! a span around each call into a layer's public API. Spans live in
//! memory until the run ends; the engine, apps and FPU are untouched.
//!
//! Trials are executed exactly as the campaign runner executes them —
//! the same trial and problem seeds, the same fixed-instance sharing per
//! cell — so their records must equal the untraced run's, which the
//! caller checks. Every cell is checkpointed to the cache after the timed
//! execution, not inside it: the untraced reference runs without a cache,
//! so the traced walls then hold the same work as the reference walls.

use robustify_apps::apsp::ApspProblem;
use robustify_apps::doubly_stochastic::AssignmentProblem;
use robustify_apps::eigen::EigenProblem;
use robustify_apps::iir::IirProblem;
use robustify_apps::least_squares::LeastSquares;
use robustify_apps::matching::MatchingProblem;
use robustify_apps::maxflow::MaxFlowProblem;
use robustify_apps::poisson2d::Poisson2d;
use robustify_apps::sorting::SortProblem;
use robustify_apps::svm::SvmProblem;
use robustify_bench::workloads as paper;
use robustify_core::{RobustOutcome, RobustProblem, SolverSpec, Verdict, WorkloadRegistry};
use robustify_engine::campaign::{resolve_cells, CampaignSpec, Instantiate, ResultCache};
use robustify_engine::{
    derive_trial_seed, problem_seed, scheduler, Scheduler, TrialRecord, WorkSet,
};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use stochastic_fpu::{FaultModelSpec, FaultRate, Fpu, NoisyFpu};

/// A workload instance with its concrete type, so solve and verify can be
/// timed apart. Built by the same constructors `paper_registry` registers.
pub enum Instance {
    /// `least_squares`
    LeastSquares(LeastSquares),
    /// `iir`
    Iir(IirProblem),
    /// `sorting`
    Sorting(SortProblem),
    /// `matching`
    Matching(MatchingProblem),
    /// `maxflow`
    MaxFlow(MaxFlowProblem),
    /// `apsp`
    Apsp(ApspProblem),
    /// `svm`
    Svm(SvmProblem),
    /// `eigen`
    Eigen(EigenProblem),
    /// `doubly_stochastic`
    DoublyStochastic(AssignmentProblem),
    /// `poisson2d`
    Poisson2d(Poisson2d),
}

/// What one trial produced, with its solve and verify spans.
#[derive(Debug, Clone, Copy)]
pub struct TrialParts {
    /// The record the engine would store.
    pub record: TrialRecord,
    /// `SolveReport::iterations`, when the solver reports them.
    pub iterations: Option<usize>,
    /// `RobustProblem::solve`.
    pub solve: Duration,
    /// `RobustProblem::verify` (zero after a breakdown).
    pub verify: Duration,
}

fn traced_trial<P: RobustProblem>(p: &P, spec: &SolverSpec, fpu: &mut NoisyFpu) -> TrialParts {
    let start = Instant::now();
    let outcome = p.solve(spec, fpu);
    let solve = start.elapsed();
    // The same scoring as `RobustProblem::run_trial`.
    let (verdict, verify, iterations) = match outcome {
        Ok(RobustOutcome {
            solution: Some(solution),
            report,
        }) => {
            let start = Instant::now();
            let verdict = p.verify(&solution);
            (verdict, start.elapsed(), report.map(|r| r.iterations))
        }
        Ok(RobustOutcome { report, .. }) => (
            Verdict::breakdown(),
            Duration::ZERO,
            report.map(|r| r.iterations),
        ),
        Err(_) => (Verdict::breakdown(), Duration::ZERO, None),
    };
    TrialParts {
        record: TrialRecord {
            verdict,
            flops: fpu.flops(),
            faults: fpu.faults(),
        },
        iterations,
        solve,
        verify,
    }
}

impl Instance {
    /// Builds `workload`'s instance for `seed` (`None` for a name the
    /// benchmark does not use).
    pub fn materialize(workload: &str, seed: u64) -> Option<Instance> {
        Some(match workload {
            "least_squares" => Instance::LeastSquares(paper::paper_least_squares(seed)),
            "iir" => Instance::Iir(paper::paper_iir_problem(seed)),
            "sorting" => Instance::Sorting(paper::paper_sort(seed)),
            "matching" => Instance::Matching(paper::paper_matching(seed)),
            "maxflow" => Instance::MaxFlow(paper::paper_maxflow(seed)),
            "apsp" => Instance::Apsp(paper::paper_apsp(seed)),
            "svm" => Instance::Svm(paper::paper_svm(seed)),
            "eigen" => Instance::Eigen(paper::paper_eigen(seed)),
            "doubly_stochastic" => Instance::DoublyStochastic(paper::paper_doubly_stochastic(seed)),
            "poisson2d" => Instance::Poisson2d(paper::paper_poisson2d(seed)),
            _ => return None,
        })
    }

    /// Runs one trial on `fpu`, timing solve and verify.
    pub fn trial(&self, spec: &SolverSpec, fpu: &mut NoisyFpu) -> TrialParts {
        match self {
            Instance::LeastSquares(p) => traced_trial(p, spec, fpu),
            Instance::Iir(p) => traced_trial(p, spec, fpu),
            Instance::Sorting(p) => traced_trial(p, spec, fpu),
            Instance::Matching(p) => traced_trial(p, spec, fpu),
            Instance::MaxFlow(p) => traced_trial(p, spec, fpu),
            Instance::Apsp(p) => traced_trial(p, spec, fpu),
            Instance::Svm(p) => traced_trial(p, spec, fpu),
            Instance::Eigen(p) => traced_trial(p, spec, fpu),
            Instance::DoublyStochastic(p) => traced_trial(p, spec, fpu),
            Instance::Poisson2d(p) => traced_trial(p, spec, fpu),
        }
    }
}

/// Which FPU dispatch path a cell's trials mostly take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Transient faults at rate 0 or the nominal voltage's ≤ 1e-8 per
    /// FLOP: the fast lane.
    TransientRate0,
    /// Transient faults at a paper rate: the strike lane.
    TransientNoisy,
    /// A memory-persistent scenario: the per-op path.
    Memory,
}

/// One grid cell of the traced item space.
pub struct Cell {
    /// Index of the campaign the cell belongs to.
    pub campaign: usize,
    /// Index into the campaign's jobs.
    pub job: usize,
    /// Index into the campaign's rates.
    pub rate_index: usize,
    /// The job's registry workload name.
    pub workload: String,
    /// The campaign's base seed.
    pub base_seed: u64,
    instantiate: Instantiate,
    /// The resolved solver.
    pub solver: SolverSpec,
    model: FaultModelSpec,
    rate_pct: f64,
    /// The FPU path the cell exercises.
    pub lane: Lane,
    /// The cell's cache key (from `resolve_cells`).
    pub key_json: String,
    /// First flat item index of the cell's trials.
    pub offset: usize,
    /// Trials in the cell.
    pub trials: usize,
    fixed: OnceLock<Instance>,
}

impl Cell {
    /// A fresh FPU for trial `trial`, seeded as the campaign runner seeds it.
    pub fn fpu(&self, trial: usize) -> NoisyFpu {
        NoisyFpu::new(
            FaultRate::percent_of_flops(self.rate_pct),
            self.model.clone(),
            derive_trial_seed(self.base_seed, trial as u64),
        )
    }

    /// The fixed instance, once a trial has built it.
    pub fn fixed_instance(&self) -> Option<&Instance> {
        self.fixed.get()
    }
}

/// One traced trial: its parts plus the item span and the materialize
/// span, if this trial built an instance.
#[derive(Debug, Clone, Copy)]
pub struct TrialSpan {
    /// Solve/verify spans and the record.
    pub parts: TrialParts,
    /// `materialize`, when this item built an instance.
    pub materialize: Option<Duration>,
    /// The whole `run_item` call: materialize and trial.
    pub item: Duration,
    /// Item start, from the traced run's epoch.
    pub start: Duration,
}

/// Spans of one traced execution, kept in memory.
pub struct Traced {
    /// The grid's cells, in flat item order.
    pub cells: Vec<Cell>,
    /// One span per trial, in flat item order.
    pub trials: Vec<TrialSpan>,
    /// `ResultCache::store` per cell, in cell order.
    pub stores: Vec<Duration>,
    /// Any checkpoint error.
    pub store_errors: Vec<String>,
    /// `resolve_cells`, once per campaign.
    pub resolves: Vec<Duration>,
    /// `WorkloadRegistry::default_solver`, once per job.
    pub default_solvers: Vec<Duration>,
    /// Wall time of each campaign's scheduled execution.
    pub walls: Vec<Duration>,
    /// Scheduler workers.
    pub workers: usize,
}

struct TracedSet<'a> {
    cells: &'a [Cell],
    epoch: Instant,
    spans: Vec<Mutex<Option<TrialSpan>>>,
}

impl WorkSet for TracedSet<'_> {
    fn run_item(&self, index: usize) {
        let started = Instant::now();
        let position = self.cells.partition_point(|c| c.offset <= index) - 1;
        let cell = &self.cells[position];
        let trial = index - cell.offset;
        let mut fpu = cell.fpu(trial);
        let mut materialize = None;
        let mut build = |seed: u64| {
            let start = Instant::now();
            let instance = Instance::materialize(&cell.workload, seed).expect("resolved workload");
            materialize = Some(start.elapsed());
            instance
        };
        let parts = match cell.instantiate {
            Instantiate::Fixed => cell
                .fixed
                .get_or_init(|| build(cell.base_seed))
                .trial(&cell.solver, &mut fpu),
            Instantiate::PerTrial => {
                build(problem_seed(cell.base_seed, trial as u64)).trial(&cell.solver, &mut fpu)
            }
        };
        *self.spans[index].lock().expect("span slot") = Some(TrialSpan {
            parts,
            materialize,
            item: started.elapsed(),
            start: started - self.epoch,
        });
    }
}

/// Campaigns resolved into one flat item space, with the resolution spans.
pub struct Resolved {
    /// The cells of every campaign, in flat item order.
    pub cells: Vec<Cell>,
    /// `resolve_cells`, once per campaign.
    pub resolves: Vec<Duration>,
    /// `WorkloadRegistry::default_solver`, once per job.
    pub default_solvers: Vec<Duration>,
}

/// Resolves `campaigns` the way the campaign runner does (timing
/// `resolve_cells` and each `default_solver` call) and flattens their
/// cells into one item space.
pub fn resolve(
    campaigns: &[CampaignSpec],
    registry: &WorkloadRegistry,
) -> Result<Resolved, String> {
    let mut cells = Vec::new();
    let mut resolves = Vec::new();
    let mut default_solvers = Vec::new();
    let mut offset = 0;
    for (campaign, spec) in campaigns.iter().enumerate() {
        let start = Instant::now();
        let keys = resolve_cells(spec, registry)?;
        resolves.push(start.elapsed());
        let mut solvers = Vec::new();
        for job in spec.jobs() {
            solvers.push(match job.solver() {
                Some(solver) => solver.clone(),
                None => {
                    let start = Instant::now();
                    let solver = registry
                        .default_solver(job.workload(), spec.base_seed())
                        .ok_or_else(|| format!("unknown workload {}", job.workload()))?;
                    default_solvers.push(start.elapsed());
                    solver
                }
            });
        }
        for key in keys {
            let job = &spec.jobs()[key.job_index];
            let model = job.fault_model().unwrap_or(spec.fault_model()).clone();
            let rate_pct = spec.rates_pct()[key.rate_index];
            let lane = if model.memory_model().is_some() {
                Lane::Memory
            } else if FaultRate::percent_of_flops(rate_pct).fraction() <= 1e-8 {
                Lane::TransientRate0
            } else {
                Lane::TransientNoisy
            };
            let trials = job.trials().unwrap_or(spec.trials_per_cell());
            cells.push(Cell {
                campaign,
                job: key.job_index,
                rate_index: key.rate_index,
                workload: job.workload().to_string(),
                base_seed: spec.base_seed(),
                instantiate: job.instantiate(),
                solver: solvers[key.job_index].clone(),
                model,
                rate_pct,
                lane,
                key_json: key.key_json,
                offset,
                trials,
                fixed: OnceLock::new(),
            });
            offset += trials;
        }
    }
    Ok(Resolved {
        cells,
        resolves,
        default_solvers,
    })
}

/// Executes every trial of `cells` on a public [`Scheduler`] with
/// `workers` workers, one campaign at a time, chunked by
/// `scheduler::cell_chunks` exactly as the campaign runner chunks them;
/// then checkpoints every cell to `cache`, timing each `store` outside
/// the campaigns' walls. `before(c)` runs just
/// before campaign `c` starts, with the workers idle: the caller runs the
/// untraced reference there, so each traced/untraced pair sees the same
/// machine.
pub fn execute(
    resolved: Resolved,
    workers: usize,
    cache: &ResultCache,
    mut before: impl FnMut(usize),
) -> Traced {
    let Resolved {
        cells,
        resolves,
        default_solvers,
    } = resolved;
    let mut offsets: Vec<usize> = cells.iter().map(|c| c.offset).collect();
    let total = cells.last().map_or(0, |c| c.offset + c.trials);
    offsets.push(total);
    let epoch = Instant::now();
    let mut walls = Vec::new();
    let set = Arc::new(TracedSet {
        cells: &cells,
        epoch,
        spans: (0..total).map(|_| Mutex::new(None)).collect(),
    });
    {
        let pool = Scheduler::new(workers);
        std::thread::scope(|scope| {
            pool.start(scope);
            // One job per campaign, one after another, as separate
            // `campaign::run` calls would execute them.
            let mut first = 0;
            while first < cells.len() {
                let campaign = cells[first].campaign;
                let last = first + cells[first..].partition_point(|c| c.campaign == campaign);
                before(campaign);
                let start = Instant::now();
                pool.submit(
                    Arc::clone(&set) as Arc<dyn WorkSet + '_>,
                    scheduler::cell_chunks(&offsets[first..=last], workers),
                )
                .wait();
                walls.push(start.elapsed());
                first = last;
            }
            pool.shutdown();
        });
    }
    let set = Arc::into_inner(set).expect("the pool released the work set");
    let trials: Vec<TrialSpan> = set
        .spans
        .into_iter()
        .map(|s| s.into_inner().expect("span slot").expect("every trial ran"))
        .collect();
    let (mut stores, mut store_errors) = (Vec::new(), Vec::new());
    for cell in &cells {
        let records: Vec<TrialRecord> = trials[cell.offset..cell.offset + cell.trials]
            .iter()
            .map(|t| t.parts.record)
            .collect();
        let start = Instant::now();
        match cache.store(&cell.key_json, &records) {
            Ok(()) => stores.push(start.elapsed()),
            Err(e) => store_errors.push(e.to_string()),
        }
    }
    Traced {
        cells,
        trials,
        stores,
        store_errors,
        resolves,
        default_solvers,
        walls,
        workers,
    }
}

/// Re-runs trial 0 of a deterministic sample of cells serially, batched
/// and then with `set_batching(false)`, asserting both records equal the
/// traced one. Returns `(scalar time, batched time, mismatches)`.
///
/// The sample is about 12 cells, picked by a Fibonacci hash of the cell
/// index so it spans apps and rates alike.
pub fn batch_speedup(traced: &Traced) -> (Duration, Duration, Vec<String>) {
    let stride = traced.cells.len().div_ceil(12).max(1) as u64;
    let (mut scalar, mut batched, mut mismatches) = (Duration::ZERO, Duration::ZERO, Vec::new());
    for (index, cell) in traced.cells.iter().enumerate() {
        if !((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32).is_multiple_of(stride) {
            continue;
        }
        let fresh;
        let instance = match cell.fixed_instance() {
            Some(instance) => instance,
            None => {
                let seed = match cell.instantiate {
                    Instantiate::Fixed => cell.base_seed,
                    Instantiate::PerTrial => problem_seed(cell.base_seed, 0),
                };
                fresh = Instance::materialize(&cell.workload, seed).expect("resolved workload");
                &fresh
            }
        };
        let expected = traced.trials[cell.offset].parts.record;
        for (batching, total) in [(true, &mut batched), (false, &mut scalar)] {
            let mut fpu = cell.fpu(0);
            fpu.set_batching(batching);
            let start = Instant::now();
            let parts = instance.trial(&cell.solver, &mut fpu);
            *total += start.elapsed();
            if parts.record != expected {
                mismatches.push(format!(
                    "{} cell (job {}, rate {}) trial 0 with batching {batching}: {:?} != traced {:?}",
                    cell.workload, cell.job, cell.rate_index, parts.record, expected
                ));
            }
        }
    }
    (scalar, batched, mismatches)
}

/// Times `CsrMatrix::matvec` on `poisson`'s matrix: `reps` products at
/// rate 0 and `reps` at 1% of FLOPs. Returns `(rate-0 time, noisy time)`.
pub fn spmv(poisson: &Poisson2d, reps: usize) -> (Duration, Duration) {
    let x = poisson.b().to_vec();
    let time = |rate_pct: f64| {
        let mut fpu = NoisyFpu::new(
            FaultRate::percent_of_flops(rate_pct),
            FaultModelSpec::default(),
            0x5EED,
        );
        let start = Instant::now();
        for _ in 0..reps {
            let y = poisson.a().matvec(&mut fpu, &x).expect("square system");
            std::hint::black_box(y);
        }
        start.elapsed()
    };
    (time(0.0), time(1.0))
}

/// Bytes one CSR product moves, computed from the matrix shape: values
/// and column indices once per nonzero, the row pointers, one read of
/// `x` and one write of `y`. Cache misses are not counted.
pub fn spmv_bytes(poisson: &Poisson2d) -> f64 {
    let a = poisson.a();
    let word = std::mem::size_of::<f64>() as f64;
    let index = std::mem::size_of::<usize>() as f64;
    a.nnz() as f64 * (word + index)
        + (a.rows() + 1) as f64 * index
        + (a.cols() + a.rows()) as f64 * word
}
