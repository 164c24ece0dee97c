//! Workload generation: every input the benchmark feeds the engine is a
//! pure function of the workload seed (and, for the daemon, of the client
//! count and run length), so one seed always yields the same campaigns.

use robustify_engine::campaign::{CampaignSpec, JobSpec};
use robustify_engine::paper_fault_rates;
use stochastic_fpu::{BitFaultModel, FaultModelSpec, VoltageErrorModel};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The nine dense paper apps under transient faults at 0, 1 and 5%.
    DenseTransient,
    /// The `poisson2d` energy frontier: 8 voltages × {transient, memory}.
    SparseFrontier,
    /// Closed-loop thin clients against an in-process daemon with a cache.
    DaemonMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::DenseTransient,
        Workload::SparseFrontier,
        Workload::DaemonMixed,
    ];

    /// The workload's command-line and `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseTransient => "dense_transient",
            Workload::SparseFrontier => "sparse_frontier",
            Workload::DaemonMixed => "daemon_mixed",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work a run does: the full benchmark, or a few trials per
/// cell so the tests can drive every code path quickly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// One trial per cell, fewer cells and submissions.
    Reduced,
}

/// The dense apps in the order of the paper's figures, each with its
/// trials per cell. Per-trial cost summed over the three rates ranges
/// from ~8 ms (eigen, doubly_stochastic) to ~550 ms (apsp) on a 2-core
/// Xeon, so equal trial counts would make apsp over half the campaign;
/// these counts give every app a similar share (~0.5 s) of serial time.
/// The cheap apps come last so the campaign's tail load-balances.
pub const DENSE_APPS: [(&str, usize); 9] = [
    ("least_squares", 12),
    ("iir", 3),
    ("sorting", 17),
    ("matching", 21),
    ("maxflow", 6),
    ("apsp", 1),
    ("svm", 29),
    ("eigen", 63),
    ("doubly_stochastic", 67),
];

/// `dense_transient` cycles through this many campaigns, each with its
/// own base seed: a run's median then spans four sets of instances and
/// fault streams instead of one, and a short campaign (~2 s on 2 cores)
/// gives enough samples per run for the median to shrug off a slow one.
pub const DENSE_CAMPAIGNS: u64 = 4;

/// Fault rates of `dense_transient`, in percent of FLOPs: the fast lane
/// at 0, the strike lane at 1 and 5.
pub const DENSE_RATES: [f64; 3] = [0.0, 1.0, 5.0];

/// The Figure 5.2 voltage axis of `energy_campaign`, nominal first.
pub const SPARSE_VOLTAGES: [f64; 8] = [1.0, 0.8, 0.75, 0.7, 0.675, 0.65, 0.625, 0.6];

/// Trials per cell of the transient and memory `poisson2d` jobs. A
/// memory trial costs ~4× a transient one, so this split gives each
/// scenario about half the serial time.
pub const SPARSE_TRIALS: (usize, usize) = (4, 1);

/// Apps of a daemon submission: cheap dense apps, so kernel work is
/// light and the protocol and cache paths carry weight.
pub const DAEMON_APPS: [&str; 4] = ["sorting", "eigen", "doubly_stochastic", "svm"];

/// Trials per cell of a daemon submission.
pub const DAEMON_TRIALS: usize = 3;

/// Submissions each daemon client makes per second of `--seconds`. The
/// count is fixed before the run starts (not cut by a timer) so the
/// cache-hit pattern, and hence every count metric, repeats exactly.
pub const DAEMON_SUBMITS_PER_CLIENT_SECOND: f64 = 5.0;

/// About how long one campaign run of each grid workload takes on a
/// 2-core Xeon, in seconds: `dense_transient` 2.7–3.6, `sparse_frontier`
/// 5.5–9. Only used to turn `--seconds` into a run count.
const CAMPAIGN_RUN_SECONDS: [(Workload, f64); 2] = [
    (Workload::DenseTransient, 3.0),
    (Workload::SparseFrontier, 7.0),
];

/// How many campaign runs an untraced grid run makes: about `seconds`
/// worth; at least one more than there are campaigns, so every campaign
/// runs and the first runs twice; and at least three, so the median rate
/// discards a slow run. The count depends only on the arguments, not on a
/// timer, so a faster program measures the same campaigns as a slower one.
pub fn campaign_runs(workload: Workload, seconds: u64, campaigns: usize) -> usize {
    let per_run = CAMPAIGN_RUN_SECONDS
        .iter()
        .find(|(w, _)| *w == workload)
        .map_or(1.0, |(_, s)| *s);
    ((seconds as f64 / per_run).round() as usize)
        .max(campaigns + 1)
        .max(3)
}

/// `dense_transient`: campaigns over the nine dense apps, a fresh
/// instance per trial, registry default solvers.
pub fn dense_transient(seed: u64, threads: usize, scale: Scale) -> Vec<CampaignSpec> {
    let mut seeds = SplitMix64(seed);
    (0..DENSE_CAMPAIGNS)
        .map(|_| {
            let mut spec = CampaignSpec::new("dense_transient")
                .rates(DENSE_RATES.to_vec())
                .trials(1)
                .seed(seeds.next())
                .threads(threads)
                .model(FaultModelSpec::default());
            for (app, trials) in DENSE_APPS {
                let trials = match scale {
                    Scale::Full => trials,
                    Scale::Reduced => 1,
                };
                spec = spec.job(JobSpec::new(app, app).per_trial().with_trials(trials));
            }
            spec
        })
        .collect()
}

/// `sparse_frontier`: the `energy_campaign --apps poisson2d` grid — the
/// fixed 320² instance over the voltage axis under transient and
/// array-resident memory faults.
pub fn sparse_frontier(seed: u64, threads: usize, scale: Scale) -> Vec<CampaignSpec> {
    let (voltages, (transient, memory)) = match scale {
        Scale::Full => (SPARSE_VOLTAGES.to_vec(), SPARSE_TRIALS),
        Scale::Reduced => (vec![SPARSE_VOLTAGES[0], SPARSE_VOLTAGES[3]], (1, 1)),
    };
    let spec = CampaignSpec::new("sparse_frontier")
        .voltages(voltages, VoltageErrorModel::paper_figure_5_2())
        .trials(transient)
        .seed(seed)
        .threads(threads)
        .model(FaultModelSpec::default())
        .job(JobSpec::new("poisson2d/transient", "poisson2d").with_trials(transient))
        .job(
            JobSpec::new("poisson2d/memory", "poisson2d")
                .with_fault_model(FaultModelSpec::array_resident(
                    4096,
                    BitFaultModel::emulated(),
                    100_000,
                ))
                .with_trials(memory),
        );
    vec![spec]
}

/// One daemon submission: the cheap dense apps at the paper rates, a
/// fresh instance per trial.
pub fn daemon_campaign(base_seed: u64, scale: Scale) -> CampaignSpec {
    let trials = match scale {
        Scale::Full => DAEMON_TRIALS,
        Scale::Reduced => 1,
    };
    let mut spec = CampaignSpec::new("daemon_mixed")
        .rates(paper_fault_rates())
        .trials(trials)
        .seed(base_seed)
        .model(FaultModelSpec::default());
    for app in DAEMON_APPS {
        spec = spec.job(JobSpec::new(app, app).per_trial());
    }
    spec
}

/// The daemon clients' submission sequences: client `c` submits the base
/// seeds `plan[c]` in order, one at a time.
///
/// Each client draws with replacement from a pool of its own. Pools are
/// disjoint across clients, so whether a submission replays from the
/// cache depends only on its own client's earlier draws. A pool of 30% of
/// the draws makes about 70% of submissions repeats: the median
/// submission then takes the replay path and the 90th percentile the
/// execute path.
pub fn daemon_plan(seed: u64, clients: usize, seconds: u64, scale: Scale) -> Vec<Vec<u64>> {
    let per_client = match scale {
        // At least 100 submissions in all, so the 90th percentile has ten
        // samples beyond it.
        Scale::Full => ((DAEMON_SUBMITS_PER_CLIENT_SECOND * seconds as f64).ceil() as usize)
            .max(100usize.div_ceil(clients.max(1))),
        Scale::Reduced => 4,
    };
    let pool = (per_client * 3).div_ceil(10) as u64;
    (0..clients as u64)
        .map(|client| {
            let mut rng = SplitMix64(seed ^ (client + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
            (0..per_client)
                .map(|_| pool_seed(seed, client, rng.next() % pool))
                .collect()
        })
        .collect()
}

/// Entry `k` of client `client`'s seed pool. Distinct `(client, k)` pairs
/// give distinct seeds: the map is a bijection for a fixed `seed`.
fn pool_seed(seed: u64, client: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (client << 32 | k)
}

/// Whether each submission of a client's sequence repeats an earlier one
/// (and so replays from the cache).
pub fn expected_replays(sequence: &[u64]) -> Vec<bool> {
    let mut seen = std::collections::BTreeSet::new();
    sequence.iter().map(|s| !seen.insert(*s)).collect()
}

/// The SplitMix64 generator: a tiny seeded stream for sub-seeds and the
/// daemon draws.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaigns_are_deterministic_in_the_seed_and_differ_across_seeds() {
        let json = |specs: Vec<CampaignSpec>| specs.iter().map(|s| s.to_json()).collect::<Vec<_>>();
        for build in [dense_transient, sparse_frontier] {
            assert_eq!(
                json(build(7, 2, Scale::Full)),
                json(build(7, 2, Scale::Full))
            );
            assert_ne!(
                json(build(7, 2, Scale::Full)),
                json(build(8, 2, Scale::Full))
            );
        }
        assert_eq!(
            daemon_plan(7, 2, 20, Scale::Full),
            daemon_plan(7, 2, 20, Scale::Full)
        );
        assert_ne!(
            daemon_plan(7, 2, 20, Scale::Full),
            daemon_plan(8, 2, 20, Scale::Full)
        );
    }

    #[test]
    fn daemon_pools_are_disjoint_and_mostly_replay() {
        let plan = daemon_plan(3, 4, 20, Scale::Full);
        for (a, left) in plan.iter().enumerate() {
            for right in &plan[a + 1..] {
                assert!(left.iter().all(|s| !right.contains(s)), "pools overlap");
            }
        }
        let replays: usize = plan
            .iter()
            .map(|seq| expected_replays(seq).iter().filter(|r| **r).count())
            .sum();
        let share = replays as f64 / plan.iter().map(Vec::len).sum::<usize>() as f64;
        assert!((0.6..0.8).contains(&share), "replay share {share}");
    }

    #[test]
    fn grid_run_counts_follow_the_seconds_argument() {
        assert_eq!(campaign_runs(Workload::DenseTransient, 12, 4), 5);
        assert_eq!(campaign_runs(Workload::DenseTransient, 30, 4), 10);
        assert_eq!(campaign_runs(Workload::SparseFrontier, 12, 1), 3);
        assert_eq!(campaign_runs(Workload::SparseFrontier, 1, 1), 3);
        assert_eq!(campaign_runs(Workload::SparseFrontier, 28, 1), 4);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
