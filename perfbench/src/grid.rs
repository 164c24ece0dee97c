//! The grid workloads, `dense_transient` and `sparse_frontier`: campaign
//! runs with no cache at `nproc` threads, one after another.

use crate::daemon::{self, SUBMIT_DEADLINE};
use crate::plan::{self, Workload};
use crate::report::{median, peak_rss_mb, quantile, Report, Watchdog};
use crate::{
    doc_totals, protocol_metrics, run_campaign, trace_campaigns, Ctx, DocTotals, Setups,
    SETUP_GROUPS,
};
use robustify_bench::workloads::paper_registry;
use robustify_engine::campaign::{resolve_cells, CampaignSpec};
use std::time::{Duration, Instant};

/// The workload's campaigns for this run's seed and scale.
pub fn campaigns(ctx: &Ctx, workload: Workload) -> Vec<CampaignSpec> {
    match workload {
        Workload::DenseTransient => plan::dense_transient(ctx.seed, ctx.threads, ctx.scale),
        Workload::SparseFrontier => plan::sparse_frontier(ctx.seed, ctx.threads, ctx.scale),
        Workload::DaemonMixed => unreachable!("daemon_mixed is not a grid workload"),
    }
}

/// One set-up: build the registry and resolve every campaign.
fn setup_once(specs: &[CampaignSpec]) -> Result<Duration, String> {
    let start = Instant::now();
    let registry = paper_registry();
    for spec in specs {
        resolve_cells(spec, &registry)?;
    }
    Ok(start.elapsed())
}

/// The untraced run: a fixed number of campaign runs
/// ([`plan::campaign_runs`]), cycling through the campaigns so each runs
/// at least once and the first twice, whose repeated documents are
/// compared byte for byte. Set-up groups are timed before the first
/// campaign run and after each one, so they span the whole run.
///
/// A submission here is one whole campaign: `submit_*` report its
/// latency from `campaign::run` called to document returned.
pub fn e2e(
    ctx: &Ctx,
    specs: &[CampaignSpec],
    dog: &Watchdog,
    report: &mut Report,
    counts: &mut Vec<(&'static str, String)>,
) {
    let registry = paper_registry();
    let (mut walls, mut rates, mut setups) = (Vec::new(), Vec::new(), Setups::default());
    let mut first_docs: Vec<Option<(String, String)>> = vec![None; specs.len()];
    let mut totals = DocTotals::default();
    let runs = plan::campaign_runs(ctx.workload, ctx.seconds, specs.len());
    let groups = SETUP_GROUPS.div_ceil(runs + 1);
    let time_setups = |setups: &mut Setups| -> Result<(), String> {
        for _ in 0..groups {
            setups.group(|| setup_once(specs))?;
        }
        Ok(())
    };
    if let Err(e) = time_setups(&mut setups) {
        return report.fail(format!("resolve_cells failed: {e}"));
    }
    for sample in 0..runs {
        let index = sample % specs.len();
        let ran = run_campaign(ctx, &specs[index], &registry, dog, report);
        if let Err(e) = time_setups(&mut setups) {
            return report.fail(format!("resolve_cells failed: {e}"));
        }
        let Some((run, wall)) = ran else {
            continue;
        };
        let doc = (run.result.to_csv(), run.result.to_json());
        match &first_docs[index] {
            None => {
                if report.metrics.get("peak_rss_mb").is_none() {
                    // The peak of one campaign run: later runs can only add
                    // allocator retention from the ones before them.
                    report.metrics.set("peak_rss_mb", peak_rss_mb());
                }
                match doc_totals(&doc.1) {
                    Ok(t) => totals.add(t),
                    Err(e) => report.fail(e),
                }
                first_docs[index] = Some(doc);
            }
            Some(first) if *first != doc => {
                report.fail_last(format!(
                    "campaign {index}'s document differs from its first run's"
                ));
            }
            Some(_) => {}
        }
        walls.push(wall.as_secs_f64());
        rates.push(run.result.total_trials() as f64 / wall.as_secs_f64());
    }
    let m = &mut report.metrics;
    m.set("trials_per_s", median(&rates));
    m.set("submit_p50_s", median(&walls));
    m.set("submit_p90_s", quantile(&walls, 0.9));
    m.set(
        "submits_per_s",
        walls.len() as f64 / walls.iter().sum::<f64>(),
    );
    counts.push(("fpu.flops", totals.flops.to_string()));
    counts.push(("fpu.faults", totals.faults.to_string()));
    report.note("totals", totals.to_json());
    setups.report(report);
    let walls: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    report.note(
        "samples",
        format!(
            "{{\"submissions\":{},\"walls_s\":[{}]}}",
            walls.len(),
            walls.join(",")
        ),
    );
}

/// The traced run: the shared traced core, then each campaign replayed
/// through a daemon serving the cache the traced execution filled, whose
/// documents must equal the untraced reference's.
pub fn traced(
    ctx: &Ctx,
    specs: &[CampaignSpec],
    dog: &Watchdog,
    report: &mut Report,
    counts: &mut Vec<(&'static str, String)>,
) {
    let registry = paper_registry();
    let Some(traced) = trace_campaigns(ctx, specs, &registry, dog, report, counts) else {
        return;
    };
    dog.arm(
        "replay submissions",
        SUBMIT_DEADLINE * (specs.len() as u32 + 1),
        report,
        &ctx.metric_names(),
    );
    let replays = daemon::with_daemon(&registry, &traced.cache, |addr| {
        specs
            .iter()
            .map(|spec| daemon::submit(addr, spec, SUBMIT_DEADLINE))
            .collect::<Vec<_>>()
    });
    dog.disarm();
    let replays = match replays {
        Ok(replays) => replays,
        Err(e) => return report.operation(Err(format!("daemon: {e}"))),
    };
    protocol_metrics(&replays, report);
    let (mut cached, mut cells) = (0, 0);
    for (index, (submitted, reference)) in replays.iter().zip(&traced.references).enumerate() {
        let expected = (reference.result.to_csv(), reference.result.to_json());
        report.operation(match &submitted.outcome {
            Err(e) => Err(format!("replay submission failed: {e}")),
            Ok(done) => {
                cached += done.cached;
                cells += done.cells;
                daemon::check_submission(index as u64, true, done, Some(&expected))
            }
        });
    }
    report.metrics.set(
        "engine.cache.hit_share",
        cached as f64 / cells.max(1) as f64,
    );
}
