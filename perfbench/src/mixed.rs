//! The `daemon_mixed` workload: `nproc` closed-loop clients submitting
//! small campaigns to an in-process daemon with a fresh cache, about 70%
//! of them repeats that replay from the cache.

use crate::daemon::{self, Submitted, SUBMIT_DEADLINE};
use crate::plan::{daemon_campaign, daemon_plan, expected_replays};
use crate::report::{median, peak_rss_mb, quantile, Report, Watchdog};
use crate::{
    doc_totals, protocol_metrics, run_campaign, trace_campaigns, Ctx, DocTotals, Setups,
    CAMPAIGN_DEADLINE, SETUP_GROUPS,
};
use robustify_bench::workloads::paper_registry;
use robustify_core::WorkloadRegistry;
use robustify_engine::campaign::{resolve_cells, ResultCache};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// How long the whole closed loop may take: every submission could take
/// its full deadline only if the daemon were broken.
fn plan_deadline(ctx: &Ctx) -> Duration {
    Duration::from_secs(ctx.seconds * 4) + CAMPAIGN_DEADLINE
}

/// One set-up of the daemon: build the registry, resolve the first
/// campaign, open the cache in `dir`, bind, and get `pong`.
fn setup_once(ctx: &Ctx, dir: &Path, first_seed: u64) -> Result<Duration, String> {
    let start = Instant::now();
    let registry = paper_registry();
    resolve_cells(&daemon_campaign(first_seed, ctx.scale), &registry)?;
    let cache = ResultCache::open(dir).map_err(|e| format!("open cache: {e}"))?;
    daemon::with_daemon(&registry, &cache, |_| start.elapsed())
}

/// Times `groups` groups of daemon set-ups into `setups`, each set-up
/// under the submission deadline.
fn setup_groups(
    ctx: &Ctx,
    dir: &Path,
    first_seed: u64,
    groups: usize,
    setups: &mut Setups,
    dog: &Watchdog,
    report: &Report,
) -> Result<(), String> {
    for _ in 0..groups {
        setups.group(|| {
            dog.arm(
                "daemon set-up",
                SUBMIT_DEADLINE,
                report,
                &ctx.metric_names(),
            );
            let took = setup_once(ctx, dir, first_seed);
            dog.disarm();
            took
        })?;
    }
    Ok(())
}

/// Runs the plan against a daemon with a fresh cache and checks every
/// submission: no error, the expected replay-or-execute path, and
/// documents equal to `reference` (when given) or else to the first
/// submission of the same seed. Returns the submissions and the wall
/// time of the plan.
fn drive_plan(
    ctx: &Ctx,
    registry: &WorkloadRegistry,
    plan: &[Vec<u64>],
    reference: Option<&BTreeMap<u64, (String, String)>>,
    dog: &Watchdog,
    report: &mut Report,
    counts: &mut Vec<(&'static str, String)>,
) -> Option<(Vec<Vec<Submitted>>, Duration)> {
    let dir = ctx.scratch("daemon-cache");
    let cache = match ResultCache::open(&dir) {
        Ok(cache) => cache,
        Err(e) => {
            report.operation(Err(format!("open cache: {e}")));
            return None;
        }
    };
    dog.arm(
        "daemon closed loop",
        plan_deadline(ctx),
        report,
        &ctx.metric_names(),
    );
    let driven = daemon::with_daemon(registry, &cache, |addr| {
        daemon::drive(addr, plan, ctx.scale)
    });
    dog.disarm();
    let _ = std::fs::remove_dir_all(&dir);
    let (submissions, wall) = match driven {
        Ok(driven) => driven,
        Err(e) => {
            report.operation(Err(format!("daemon: {e}")));
            return None;
        }
    };
    let mut first_docs: BTreeMap<u64, (String, String)> = BTreeMap::new();
    let (mut cached, mut cells) = (0usize, 0usize);
    for (seeds, subs) in plan.iter().zip(&submissions) {
        for ((seed, replay), sub) in seeds.iter().zip(expected_replays(seeds)).zip(subs) {
            let expected = reference
                .and_then(|r| r.get(seed))
                .or_else(|| first_docs.get(seed))
                .cloned();
            let outcome = sub
                .outcome
                .as_ref()
                .map_err(|e| format!("submission {seed} failed: {e}"));
            let outcome = outcome.and_then(|done| {
                cached += done.cached;
                cells += done.cells;
                daemon::check_submission(*seed, replay, done, expected.as_ref())?;
                first_docs
                    .entry(*seed)
                    .or_insert_with(|| (done.csv.clone(), done.json.clone()));
                Ok(())
            });
            report.operation(outcome);
        }
    }
    report.metrics.set(
        "engine.cache.hit_share",
        cached as f64 / cells.max(1) as f64,
    );
    // Exact as a fraction, for the count ledger.
    counts.push(("engine.cache.hit_share", format!("\"{cached}/{cells}\"")));
    Some((submissions, wall))
}

/// The untraced run: half the `SETUP_GROUPS` set-up groups, the whole
/// plan, the local-run check, then the other half of the set-up groups.
///
/// Set-ups reopen one cache directory, as a restarted daemon reopens its
/// cache; a first, untimed set-up creates it and wakes the CPU from
/// process start.
pub fn e2e(
    ctx: &Ctx,
    dog: &Watchdog,
    report: &mut Report,
    counts: &mut Vec<(&'static str, String)>,
) {
    let plan = daemon_plan(ctx.seed, ctx.threads, ctx.seconds, ctx.scale);
    let registry = paper_registry();
    let setup_dir = ctx.scratch("setup-cache");
    let first_seed = plan[0][0];
    let mut setups = Setups::default();
    let before = SETUP_GROUPS / 2;
    let warmed = setup_once(ctx, &setup_dir, first_seed).and_then(|_| {
        setup_groups(
            ctx,
            &setup_dir,
            first_seed,
            before,
            &mut setups,
            dog,
            report,
        )
    });
    if let Err(e) = warmed {
        let _ = std::fs::remove_dir_all(&setup_dir);
        return report.operation(Err(format!("daemon set-up failed: {e}")));
    }
    let Some((submissions, wall)) = drive_plan(ctx, &registry, &plan, None, dog, report, counts)
    else {
        let _ = std::fs::remove_dir_all(&setup_dir);
        return;
    };
    let ok: Vec<&Submitted> = submissions
        .iter()
        .flatten()
        .filter(|s| s.outcome.is_ok())
        .collect();
    let latencies: Vec<f64> = ok.iter().map(|s| s.latency.as_secs_f64()).collect();
    let mut totals = DocTotals::default();
    let mut executed_trials = 0u64;
    for (seeds, subs) in plan.iter().zip(&submissions) {
        for (replay, sub) in expected_replays(seeds).into_iter().zip(subs) {
            if let (false, Ok(done)) = (replay, &sub.outcome) {
                match doc_totals(&done.json) {
                    Ok(t) => {
                        executed_trials += t.trials;
                        totals.add(t);
                    }
                    Err(e) => report.fail(e),
                }
            }
        }
    }
    let m = &mut report.metrics;
    m.set("trials_per_s", executed_trials as f64 / wall.as_secs_f64());
    m.set("submit_p50_s", median(&latencies));
    m.set("submit_p90_s", quantile(&latencies, 0.9));
    m.set("submits_per_s", ok.len() as f64 / wall.as_secs_f64());
    m.set("peak_rss_mb", peak_rss_mb());

    // One submission must also match a local run of the same campaign.
    if let Some((local, _)) = run_campaign(
        ctx,
        &daemon_campaign(first_seed, ctx.scale),
        &registry,
        dog,
        report,
    ) {
        let matches = submissions[0][0].outcome.as_ref().is_ok_and(|done| {
            done.csv == local.result.to_csv() && done.json == local.result.to_json()
        });
        if !matches {
            report.fail_last(format!(
                "submission {first_seed} differs from a local campaign::run"
            ));
        }
    }
    counts.push(("fpu.flops", totals.flops.to_string()));
    counts.push(("fpu.faults", totals.faults.to_string()));
    report.note("totals", totals.to_json());

    let after = SETUP_GROUPS - before;
    let timed = setup_groups(ctx, &setup_dir, first_seed, after, &mut setups, dog, report);
    let _ = std::fs::remove_dir_all(&setup_dir);
    if let Err(e) = timed {
        return report.operation(Err(format!("daemon set-up failed: {e}")));
    }
    setups.report(report);
    report.note(
        "samples",
        format!("{{\"submissions\":{}}}", latencies.len()),
    );
}

/// The traced run: the shared traced core over every distinct campaign
/// of the plan, then the plan itself, with client-side timestamps on the
/// protocol events and every document checked against the untraced
/// reference.
pub fn traced(
    ctx: &Ctx,
    dog: &Watchdog,
    report: &mut Report,
    counts: &mut Vec<(&'static str, String)>,
) {
    let plan = daemon_plan(ctx.seed, ctx.threads, ctx.seconds, ctx.scale);
    let mut distinct: Vec<u64> = Vec::new();
    for seed in plan.iter().flatten() {
        if !distinct.contains(seed) {
            distinct.push(*seed);
        }
    }
    let specs: Vec<_> = distinct
        .iter()
        .map(|&s| daemon_campaign(s, ctx.scale))
        .collect();
    let registry = paper_registry();
    let Some(traced) = trace_campaigns(ctx, &specs, &registry, dog, report, counts) else {
        return;
    };
    let docs: BTreeMap<u64, (String, String)> = distinct
        .iter()
        .zip(&traced.references)
        .map(|(&seed, run)| (seed, (run.result.to_csv(), run.result.to_json())))
        .collect();
    drop(traced);
    if let Some((submissions, _)) =
        drive_plan(ctx, &registry, &plan, Some(&docs), dog, report, counts)
    {
        protocol_metrics(submissions.iter().flatten(), report);
    }
}
