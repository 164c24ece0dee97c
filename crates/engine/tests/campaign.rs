//! Campaign properties: a killed-and-resumed campaign is byte-identical
//! to an uninterrupted one, and content-addressed cache keys collide iff
//! the specs they hash are semantically equal.

use proptest::prelude::*;
use robustify_core::{DynProblem, SolverSpec, StepSchedule, Verdict, WorkloadRegistry};
use robustify_engine::campaign::{self, CampaignSpec, JobSpec, ResultCache};
use robustify_engine::{Placement, Scheduler};
use std::path::{Path, PathBuf};
use stochastic_fpu::json::fnv1a_64;
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
/// campaign — the adversarial input for the steal-schedule property.
fn heterogeneous_campaign(seed: u64, trials: usize) -> CampaignSpec {
    CampaignSpec::new("steal_property")
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

    /// The steal-schedule guarantee: a heterogeneous campaign (per-cell
    /// trial counts 1…3N+1, three fault-model families) run serially, in
    /// parallel with round-robin placement, and on a shared pool under a
    /// forced-steal `Pinned` placement emits byte-identical CSV/JSON —
    /// and checkpoints byte-identical `ResultCache` key contents.
    #[test]
    fn steal_schedules_never_change_bytes_or_cache_contents(
        seed in 0u64..1_000_000,
        trials in 1usize..6,
        threads in 2usize..6,
        pin in 0usize..6,
    ) {
        let reg = registry();
        let base = heterogeneous_campaign(seed, trials);

        let (dir_serial, cache_serial) = temp_cache("steal-serial");
        let serial = campaign::run(&base.clone().threads(1), &reg, Some(&cache_serial), |_| {})
            .expect("serial run");

        let (dir_rr, cache_rr) = temp_cache("steal-rr");
        let parallel =
            campaign::run(&base.clone().threads(threads), &reg, Some(&cache_rr), |_| {})
                .expect("parallel run");

        // Forced steals: every chunk lands on one worker's deque, so the
        // other `threads − 1` workers execute only by stealing.
        let (dir_pin, cache_pin) = temp_cache("steal-pin");
        let pool = Scheduler::new(threads).with_placement(Placement::Pinned(pin));
        let stolen = std::thread::scope(|scope| {
            pool.start(scope);
            let run = campaign::run_on(&base, &reg, Some(&cache_pin), &pool, |_| {});
            pool.shutdown();
            run
        })
        .expect("pinned run");

        prop_assert_eq!(parallel.result.to_csv(), serial.result.to_csv());
        prop_assert_eq!(parallel.result.to_json(), serial.result.to_json());
        prop_assert_eq!(stolen.result.to_csv(), serial.result.to_csv());
        prop_assert_eq!(stolen.result.to_json(), serial.result.to_json());

        let expected = dir_contents(&dir_serial);
        prop_assert_eq!(expected.len(), 12, "4 jobs × 3 rates checkpointed");
        prop_assert_eq!(&dir_contents(&dir_rr), &expected);
        prop_assert_eq!(&dir_contents(&dir_pin), &expected);

        for dir in [dir_serial, dir_rr, dir_pin] {
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
    for (i, a) in family.iter().enumerate() {
        let round_tripped =
            FaultModelSpec::from_json(&a.to_json()).expect("every family member parses");
        assert_eq!(&round_tripped, a, "round trip preserves the spec");
        assert_eq!(
            round_tripped.content_hash(),
            a.content_hash(),
            "round trip preserves the hash"
        );
        assert_eq!(a.content_hash(), fnv1a_64(a.to_json().as_bytes()));
        for (j, b) in family.iter().enumerate() {
            if i == j {
                assert_eq!(a.content_hash(), b.content_hash());
            } else {
                assert_ne!(
                    a.content_hash(),
                    b.content_hash(),
                    "distinct specs {} and {} must not collide",
                    a.name(),
                    b.name()
                );
            }
        }
    }
}
