//! Campaign properties: a killed-and-resumed campaign is byte-identical
//! to an uninterrupted one, and content-addressed cache keys collide iff
//! the specs they hash are semantically equal.

use proptest::prelude::*;
use robustify_core::{
    AggressiveStepping, Annealing, DynProblem, GradientGuard, SolverSpec, StepSchedule, Verdict,
    WorkloadRegistry,
};
use robustify_engine::campaign::{self, CampaignSpec, JobSpec, ResultCache};
use robustify_engine::{Scheduler, SweepDoc, SweepResult, TrialRecord};
use std::path::{Path, PathBuf};
use stochastic_fpu::json::{self, fnv1a_64, JsonCodec};
use stochastic_fpu::{
    BitFaultModel, BitWidth, DvfsStep, FaultModelSpec, FlopOp, Fpu, MemoryFaultModel, NoisyFpu,
    VoltageErrorModel,
};

/// A seed-deterministic FPU workload whose verdict depends on the fault
/// stream: accumulate through the noisy FPU and judge the drift against a
/// seed-derived target.
struct Drift {
    target: f64,
}

impl DynProblem for Drift {
    fn name(&self) -> &'static str {
        "drift"
    }

    fn run_trial_dyn(&self, _spec: &SolverSpec, fpu: &mut NoisyFpu) -> Verdict {
        let mut acc = 0.0;
        for i in 0..56 {
            acc = fpu.add(acc, (i % 7) as f64 * 0.25);
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
                target: 36.0 + (seed % 5) as f64,
            })
        }),
        Box::new(|_| SolverSpec::baseline()),
    );
    reg
}

fn campaign_named(name: &str, seed: u64, trials: usize) -> CampaignSpec {
    CampaignSpec::new(name)
        .rates(vec![0.0, 2.0, 20.0])
        .trials(trials)
        .seed(seed)
        .threads(2)
        .job(JobSpec::new("fixed", "drift"))
        .job(JobSpec::new("fresh", "drift").per_trial())
}

fn campaign(seed: u64, trials: usize) -> CampaignSpec {
    campaign_named("resume_property", seed, trials)
}

/// A grid whose cells differ wildly in weight and injector: per-job trial
/// counts from 1 to `3 × trials + 1` and three fault-model families in one
/// campaign — the adversarial input for the schedule property.
fn heterogeneous_campaign(seed: u64, trials: usize) -> CampaignSpec {
    CampaignSpec::new("schedule_property")
        .rates(vec![0.0, 2.0, 20.0])
        .trials(trials)
        .seed(seed)
        .job(JobSpec::new("fixed", "drift"))
        .job(
            JobSpec::new("fresh", "drift")
                .per_trial()
                .with_trials(trials * 3 + 1),
        )
        .job(
            JobSpec::new("stuck", "drift")
                .with_fault_model(FaultModelSpec::stuck_at(52, true, BitWidth::F64))
                .with_trials(1),
        )
        .job(
            JobSpec::new("burst", "drift")
                .per_trial()
                .with_fault_model(FaultModelSpec::burst(2, BitFaultModel::emulated())),
        )
}

/// Sorted `(file name, bytes)` listing of a cache directory, for
/// byte-comparing the checkpoint contents two runs produced.
fn dir_contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut entries: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("cache dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(entry.path()).expect("cache file");
            (name, bytes)
        })
        .collect();
    entries.sort();
    entries
}

fn temp_cache(tag: &str) -> (PathBuf, ResultCache) {
    let dir = std::env::temp_dir().join(format!(
        "robustify-campaign-prop-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).expect("open cache");
    (dir, cache)
}

/// Every fault-model family member, with distinguishable parameters —
/// the spec space the cache-key property quantifies over.
fn model_family() -> Vec<FaultModelSpec> {
    let energy = VoltageErrorModel::paper_figure_5_2();
    vec![
        FaultModelSpec::default(),
        BitFaultModel::lsb_only(BitWidth::F64).into(),
        FaultModelSpec::stuck_at(52, true, BitWidth::F64),
        FaultModelSpec::stuck_at(52, false, BitWidth::F64),
        FaultModelSpec::stuck_at(0, true, BitWidth::F64),
        FaultModelSpec::burst(3, BitFaultModel::emulated()),
        FaultModelSpec::operand(BitFaultModel::uniform(BitWidth::F64)),
        FaultModelSpec::intermittent(0.25, 64, FaultModelSpec::default()),
        FaultModelSpec::op_selective(vec![FlopOp::Mul], FaultModelSpec::default()),
        FaultModelSpec::voltage_linked(energy.clone(), 0.7),
        FaultModelSpec::voltage_linked(energy.clone(), 0.8),
        FaultModelSpec::dvfs(
            energy,
            vec![DvfsStep {
                flops: 100,
                voltage: 0.9,
            }],
        ),
        FaultModelSpec::memory(MemoryFaultModel::register_file(
            32,
            BitFaultModel::emulated(),
            1000,
        )),
        FaultModelSpec::memory(MemoryFaultModel::array_resident(
            64,
            BitFaultModel::emulated(),
            0,
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The resumption guarantee: a killed campaign leaves some cells
    /// checkpointed and the rest never written (cells checkpoint before
    /// they are reported). Reproduce that by deleting K checkpoints from
    /// a complete cache, re-run against it, and the emitted CSV/JSON is
    /// byte-identical to a run that was never interrupted.
    #[test]
    fn killed_and_resumed_campaigns_emit_identical_documents(
        seed in 0u64..1_000_000,
        trials in 1usize..8,
        killed in 0usize..7,
    ) {
        let reg = registry();
        let spec = campaign(seed, trials);
        let fresh = campaign::run(&spec, &reg, None, |_| {}).expect("uninterrupted run");

        let (dir, cache) = temp_cache("kill");
        campaign::run(&spec, &reg, Some(&cache), |_| {}).expect("checkpointing run");
        let cells = campaign::resolve_cells(&spec, &reg).expect("resolve");
        for cell in cells.iter().rev().take(killed) {
            std::fs::remove_file(dir.join(ResultCache::file_name(&cell.key_json)))
                .expect("checkpoint exists");
        }
        let resumed = campaign::run(&spec, &reg, Some(&cache), |_| {}).expect("resumed run");
        prop_assert_eq!(resumed.cells_cached, cells.len() - killed);
        prop_assert_eq!(resumed.result.to_csv(), fresh.result.to_csv());
        prop_assert_eq!(resumed.result.to_json(), fresh.result.to_json());
        prop_assert_eq!(cache.len(), cells.len(), "the resume re-checkpoints every cell");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The schedule guarantee: a heterogeneous campaign (per-cell trial
    /// counts 1…3N+1, three fault-model families) run serially, in
    /// parallel on a private pool, and on a shared pool (`run_on`) emits
    /// byte-identical CSV/JSON — and checkpoints byte-identical
    /// `ResultCache` key contents.
    #[test]
    fn schedules_never_change_bytes_or_cache_contents(
        seed in 0u64..1_000_000,
        trials in 1usize..6,
        threads in 2usize..6,
    ) {
        let reg = registry();
        let base = heterogeneous_campaign(seed, trials);

        let (dir_serial, cache_serial) = temp_cache("schedule-serial");
        let serial = campaign::run(&base.clone().threads(1), &reg, Some(&cache_serial), |_| {})
            .expect("serial run");

        let (dir_parallel, cache_parallel) = temp_cache("schedule-parallel");
        let parallel =
            campaign::run(&base.clone().threads(threads), &reg, Some(&cache_parallel), |_| {})
                .expect("parallel run");

        let (dir_pool, cache_pool) = temp_cache("schedule-pool");
        let pooled = Scheduler::new(threads)
            .scoped(|pool| campaign::run_on(&base, &reg, Some(&cache_pool), pool, |_| {}))
            .expect("shared-pool run");

        prop_assert_eq!(parallel.result.to_csv(), serial.result.to_csv());
        prop_assert_eq!(parallel.result.to_json(), serial.result.to_json());
        prop_assert_eq!(pooled.result.to_csv(), serial.result.to_csv());
        prop_assert_eq!(pooled.result.to_json(), serial.result.to_json());

        let expected = dir_contents(&dir_serial);
        prop_assert_eq!(expected.len(), 12, "4 jobs × 3 rates checkpointed");
        prop_assert_eq!(&dir_contents(&dir_parallel), &expected);
        prop_assert_eq!(&dir_contents(&dir_pool), &expected);

        for dir in [dir_serial, dir_parallel, dir_pool] {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Cache keys are pure content: resolving the same campaign twice
    /// yields identical keys, and any semantic change (seed, trials,
    /// solver, label-irrelevant axes excluded) moves every affected key.
    #[test]
    fn cache_keys_are_stable_and_semantic(
        seed in 0u64..1_000_000,
        trials in 1usize..8,
    ) {
        let reg = registry();
        let spec = campaign(seed, trials);
        let once = campaign::resolve_cells(&spec, &reg).expect("resolve");
        let twice = campaign::resolve_cells(&spec, &reg).expect("resolve");
        prop_assert_eq!(&once, &twice, "resolution is deterministic");
        // Distinct cells never share a key document.
        for (i, a) in once.iter().enumerate() {
            for b in &once[i + 1..] {
                assert_ne!(&a.key_json, &b.key_json);
            }
        }
        // A semantically irrelevant change (campaign name) moves nothing…
        let renamed =
            campaign::resolve_cells(&campaign_named("other_name", seed, trials), &reg)
                .expect("resolve");
        prop_assert_eq!(&once, &renamed);
        // …while a semantic change (trials) moves every key.
        let more_trials = campaign::resolve_cells(&campaign(seed, trials + 1), &reg)
            .expect("resolve");
        for (a, b) in once.iter().zip(&more_trials) {
            assert_ne!(&a.key_json, &b.key_json);
        }
        // A solver change moves the keys of the job it touches.
        let retuned = campaign(seed, trials).job(
            JobSpec::new("tuned", "drift")
                .with_solver(SolverSpec::sgd(100, StepSchedule::Sqrt { gamma0: 0.5 })),
        );
        let with_solver = campaign::resolve_cells(&retuned, &reg).expect("resolve");
        for cell in &with_solver[6..] {
            for base in &once {
                assert_ne!(&cell.key_json, &base.key_json);
            }
        }
    }
}

/// The hash leg of the cache-key property, across every fault-model
/// family member: `fnv1a_64(to_json)` collides exactly when the specs are
/// semantically equal, and survives a serialize → parse → re-serialize
/// round trip unchanged.
#[test]
fn fault_model_hashes_collide_iff_specs_are_equal() {
    let family = model_family();
    let hash = |spec: &FaultModelSpec| fnv1a_64(spec.to_json().as_bytes());
    for (i, a) in family.iter().enumerate() {
        let round_tripped =
            FaultModelSpec::from_json(&a.to_json()).expect("every family member parses");
        assert_eq!(&round_tripped, a, "round trip preserves the spec");
        assert_eq!(
            hash(&round_tripped),
            hash(a),
            "round trip preserves the hash"
        );
        for (j, b) in family.iter().enumerate() {
            if i == j {
                assert_eq!(hash(a), hash(b));
            } else {
                assert_ne!(
                    hash(a),
                    hash(b),
                    "distinct specs {} and {} must not collide",
                    a.name(),
                    b.name()
                );
            }
        }
    }
}

/// A workload whose every trial breaks down, so each of its cells has no
/// finite metric and documents a `null` median.
struct Broken;

impl DynProblem for Broken {
    fn name(&self) -> &'static str {
        "broken"
    }

    fn run_trial_dyn(&self, _spec: &SolverSpec, _fpu: &mut NoisyFpu) -> Verdict {
        Verdict::from_metric(f64::NAN, 1.0)
    }
}

/// Every field of the parsed view equals the [`SweepResult`] accessor it
/// was serialized from, bit for bit.
fn assert_doc_matches(result: &SweepResult) {
    let doc = SweepDoc::parse(&result.to_json()).expect("a campaign document parses");
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    assert_eq!(doc.labels, result.labels());
    assert_eq!(doc.rates_pct, result.rates_pct());
    for case in 0..result.labels().len() {
        for rate in 0..result.rates_pct().len() {
            let (view, cell) = (doc.cells[case][rate], result.cell(case, rate));
            let summary = cell.summary();
            assert_eq!(view.trials, cell.trials());
            assert_eq!(view.successes, cell.successes());
            assert_eq!(view.success_rate.to_bits(), cell.success_rate().to_bits());
            assert_eq!(view.median.to_bits(), summary.median().to_bits());
            assert_eq!(view.failures, summary.failures);
            assert_eq!(view.flops, cell.flops());
            assert_eq!(bits(view.voltage), bits(result.voltage(case, rate)));
            assert_eq!(
                bits(view.energy_per_trial),
                bits(result.energy_per_trial(case, rate))
            );
        }
    }
}

#[test]
fn sweep_doc_reads_back_every_cell_bit_for_bit() {
    let mut registry = registry();
    registry.register(
        "broken",
        Box::new(|_| Box::new(Broken)),
        Box::new(|_| SolverSpec::baseline()),
    );
    let energy = VoltageErrorModel::paper_figure_5_2();
    let rates = CampaignSpec::new("doc_rates")
        .rates(vec![0.0, 2.0, 20.0])
        .trials(5)
        .seed(3)
        .job(JobSpec::new("fixed, with a comma", "drift"))
        .job(JobSpec::new("fresh", "drift").per_trial())
        .job(JobSpec::new("broken", "broken"));
    let voltages = CampaignSpec::new("doc_voltages")
        .voltages(vec![1.0, 0.7, 0.65], energy.clone())
        .trials(4)
        .seed(5)
        .job(JobSpec::new("axis", "drift").per_trial())
        .job(
            JobSpec::new("pinned", "drift")
                .with_fault_model(FaultModelSpec::voltage_linked(energy.clone(), 0.8)),
        )
        .job(
            JobSpec::new("dvfs", "drift").with_fault_model(FaultModelSpec::dvfs(
                energy,
                vec![DvfsStep {
                    flops: 10,
                    voltage: 0.9,
                }],
            )),
        );
    for spec in [rates, voltages] {
        let run = campaign::run(&spec, &registry, None, |_| {}).expect("campaign runs");
        assert_doc_matches(&run.result);
    }
}

#[test]
fn sweep_doc_rejects_malformed_documents() {
    let spec = campaign(1, 2);
    let json = campaign::run(&spec, &registry(), None, |_| {})
        .expect("campaign runs")
        .result
        .to_json();
    let mut one_cell_short = json.clone();
    let last_cell = one_cell_short
        .rfind(",{\"rate_pct\"")
        .expect("a second cell");
    one_cell_short.replace_range(last_cell..one_cell_short.len() - 4, "");
    for bad in [
        &json[..json.len() / 2],
        "",
        "[]",
        &json.replace("\"trials\":2", "\"trials\":\"2\""),
        &one_cell_short,
    ] {
        assert!(SweepDoc::parse(bad).is_err(), "accepted {bad:?}");
    }
}

/// The cell keys of two cells whose solver sets every field, one under a
/// nested combinator spec and one under a voltage-linked spec (with its
/// derived `"rate"`), pinned as an earlier release of the codec wrote
/// them: a key whose bytes change orphans every cache entry written
/// before. The solver and fault-model members are canonical documents of
/// their own and re-serialize to the same bytes.
#[test]
fn cell_keys_keep_their_bytes() {
    let workload = "tricky \"w\"\\";
    let mut registry = WorkloadRegistry::new();
    registry.register(
        workload,
        Box::new(|_| Box::new(Broken)),
        Box::new(|_| SolverSpec::baseline()),
    );
    let solver = SolverSpec {
        variant: Some("svd \"q\"".to_string()),
        ..SolverSpec::sgd(500, StepSchedule::Sqrt { gamma0: 0.1 + 0.2 })
            .with_momentum(0.5)
            .with_aggressive_stepping(AggressiveStepping::default())
            .with_annealing(Annealing {
                period: 750,
                factor: 1.5,
            })
            .with_guard(GradientGuard::Adaptive {
                factor: 10.0,
                reject: 100.0,
            })
            .with_restart(8)
    };
    let nested = FaultModelSpec::intermittent(
        0.25,
        64,
        FaultModelSpec::op_selective(
            vec![FlopOp::Mul, FlopOp::Div, FlopOp::Sqrt],
            FaultModelSpec::burst(3, BitFaultModel::msb_only(BitWidth::F32)),
        ),
    );
    let linked = FaultModelSpec::voltage_linked(
        VoltageErrorModel::from_points(1.2, vec![(1.2, 1e-8), (0.8, 1e-2)]),
        0.9,
    );
    let spec = CampaignSpec::new("keys")
        .rates(vec![0.1 + 0.2])
        .trials(7)
        .seed(u64::MAX)
        .job(
            JobSpec::new("a", workload)
                .per_trial()
                .with_solver(solver.clone())
                .with_fault_model(nested)
                .with_trials(3),
        )
        .job(
            JobSpec::new("b", workload)
                .with_solver(solver.with_guard(GradientGuard::ClampComponents { max_abs: 2.5 }))
                .with_fault_model(linked),
        );
    let keys: Vec<String> = campaign::resolve_cells(&spec, &registry)
        .expect("resolves")
        .into_iter()
        .map(|cell| cell.key_json)
        .collect();
    assert_eq!(
        keys,
        [
            r#"{"trial_bits":4,"workload":"tricky \"w\"\\","instantiate":"per_trial","base_seed":18446744073709551615,"trials":3,"rate_pct":0.30000000000000004,"solver":{"method":"sgd","iterations":500,"schedule":{"kind":"sqrt","gamma0":0.30000000000000004},"momentum":0.5,"aggressive":{"success_factor":1.2,"fail_factor":0.5,"rel_tolerance":0.000001,"max_steps":200},"annealing":{"period":750,"factor":1.5},"guard":{"adaptive":10,"reject":100},"restart":8,"variant":"svd \"q\""},"fault_model":{"kind":"intermittent","duty":0.25,"period":64,"inner":{"kind":"op_selective","ops":["mul","div","sqrt"],"inner":{"kind":"burst","length":3,"distribution":"msb_only","width":"f32"}}}}"#,
            r#"{"trial_bits":4,"workload":"tricky \"w\"\\","instantiate":"fixed","base_seed":18446744073709551615,"trials":7,"rate_pct":0.30000000000000004,"solver":{"method":"sgd","iterations":500,"schedule":{"kind":"sqrt","gamma0":0.30000000000000004},"momentum":0.5,"aggressive":{"success_factor":1.2,"fail_factor":0.5,"rel_tolerance":0.000001,"max_steps":200},"annealing":{"period":750,"factor":1.5},"guard":{"clamp":2.5},"restart":8,"variant":"svd \"q\""},"fault_model":{"kind":"voltage_linked","voltage":0.9,"rate":0.00031622776601683794,"nominal_voltage":1.2,"model":{"nominal_voltage":1.2,"points":[[1.2,0.00000001],[0.8,0.01]]}}}"#,
        ]
    );
    // A workload whose name spells the rate member still gets its rate.
    let decoy = "w\"rate_pct\":null";
    registry.register(
        decoy,
        Box::new(|_| Box::new(Broken)),
        Box::new(|_| SolverSpec::baseline()),
    );
    let spec = spec.job(JobSpec::new("c", decoy));
    let decoy_key = campaign::resolve_cells(&spec, &registry).expect("resolves")[2]
        .key_json
        .clone();
    let decoy_key = json::parse(&decoy_key).expect("a key parses");
    assert_eq!(
        decoy_key.get("workload").and_then(|w| w.as_str()),
        Some(decoy)
    );
    assert_eq!(
        decoy_key.get("rate_pct").and_then(|r| r.as_f64()),
        Some(0.1 + 0.2)
    );
    for key in &keys {
        let key = json::parse(key).expect("a key parses");
        let solver = key.get("solver").expect("solver").to_string();
        assert_eq!(
            SolverSpec::from_json(&solver).expect("parses").to_json(),
            solver
        );
        let model = key.get("fault_model").expect("fault model").to_string();
        assert_eq!(
            FaultModelSpec::from_json(&model).expect("parses").to_json(),
            model
        );
    }
}

/// The bytes `ResultCache::store` writes for finite, `inf`, `-inf` and
/// `nan` metrics, pinned as an earlier release of the codec wrote them.
#[test]
fn cache_entries_keep_their_bytes() {
    let (dir, cache) = temp_cache("entry-bytes");
    let key = "{\"cell\":\"pinned\"}";
    let record = |success, metric, flops, faults| TrialRecord {
        verdict: Verdict { success, metric },
        flops,
        faults,
    };
    let records = [
        record(true, 0.1 + 0.2, 640, 3),
        record(false, f64::INFINITY, u64::MAX, 0),
        record(false, f64::NEG_INFINITY, 1, 1),
        record(false, f64::NAN, 2, 2),
    ];
    cache.store(key, &records).expect("store");
    let entry = std::fs::read_to_string(dir.join(ResultCache::file_name(key))).expect("entry");
    assert_eq!(
        entry,
        r#"{"key":{"cell":"pinned"},"records":[{"success":true,"metric":0.30000000000000004,"flops":640,"faults":3},{"success":false,"metric":"inf","flops":18446744073709551615,"faults":0},{"success":false,"metric":"-inf","flops":1,"faults":1},{"success":false,"metric":"nan","flops":2,"faults":2}]}"#
    );
    let loaded = cache.load(key).expect("the entry replays");
    let bits = |records: &[TrialRecord]| -> Vec<_> {
        records
            .iter()
            .map(|r| {
                (
                    r.verdict.success,
                    r.verdict.metric.to_bits(),
                    r.flops,
                    r.faults,
                )
            })
            .collect()
    };
    assert_eq!(bits(&loaded), bits(&records));
    let _ = std::fs::remove_dir_all(&dir);
}
