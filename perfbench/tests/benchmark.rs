//! The benchmark's own tests: metric names agree with `BENCHMARK.json`,
//! every workload's correctness check trips on a corrupted document, and
//! a reduced-size run of each workload completes, untraced and traced.

use robustify_bench::workloads::paper_registry;
use robustify_engine::campaign::protocol::ClientOutcome;
use robustify_engine::campaign::{self, ResultCache};
use robustify_perfbench::plan::{Scale, Workload};
use robustify_perfbench::report::{END_TO_END, PER_LAYER};
use robustify_perfbench::{check_cells, daemon, doc_totals, grid, run, trace, Ctx};
use std::path::{Path, PathBuf};
use stochastic_fpu::json::{self, JsonValue};

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `(section, name, unit)` for every metric `BENCHMARK.json` declares.
fn declared() -> Vec<(String, String, String)> {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the checkout root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        for metric in doc
            .get(section)
            .and_then(JsonValue::as_array)
            .expect(section)
        {
            let field = |k: &str| {
                metric
                    .get(k)
                    .and_then(JsonValue::as_str)
                    .unwrap_or_else(|| panic!("{section} metric lacks {k}"))
                    .to_string()
            };
            out.push((section.to_string(), field("name"), field("unit")));
        }
    }
    out
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let ours: Vec<(String, String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| ("end_to_end".to_string(), n.to_string(), u.to_string()))
        .chain(
            PER_LAYER
                .iter()
                .map(|(n, u, _)| ("per_layer".to_string(), n.to_string(), u.to_string())),
        )
        .collect();
    for (_, name, _) in &ours {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
            "bad metric name {name:?}"
        );
    }
    assert_eq!(ours, declared());
}

#[test]
fn benchmark_json_names_every_workload() {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).expect("read");
    let doc = json::parse(&text).expect("parse");
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

fn corrupt(text: &str) -> String {
    // Flip one digit: the smallest change a document can suffer.
    let at = text
        .find(|c: char| c.is_ascii_digit())
        .expect("documents hold numbers");
    let digit = text.as_bytes()[at];
    let flipped = if digit == b'9' {
        '0'
    } else {
        (digit + 1) as char
    };
    format!("{}{flipped}{}", &text[..at], &text[at + 1..])
}

#[test]
fn corrupted_documents_trip_the_daemon_submission_check() {
    let done = ClientOutcome {
        name: "daemon_mixed".into(),
        cells: 24,
        cached: 24,
        csv: "case,trials\nsorting,3\n".into(),
        json: "{\"cases\":[{\"cells\":[{\"trials\":3}]}]}".into(),
    };
    let good = (done.csv.clone(), done.json.clone());
    assert!(daemon::check_submission(1, true, &done, Some(&good)).is_ok());
    assert!(
        daemon::check_submission(1, true, &done, Some(&(corrupt(&good.0), good.1.clone())))
            .is_err()
    );
    assert!(
        daemon::check_submission(1, true, &done, Some(&(good.0.clone(), corrupt(&good.1))))
            .is_err()
    );
    // A replay that executed, or an execution that replayed, is a failure.
    assert!(daemon::check_submission(1, false, &done, None).is_err());
    let partial = ClientOutcome { cached: 3, ..done };
    assert!(daemon::check_submission(1, true, &partial, None).is_err());
}

fn ctx(workload: Workload, trace: bool, tag: &str) -> Ctx {
    let work_dir: PathBuf = manifest_dir().join("target/test-work").join(tag);
    let _ = std::fs::remove_dir_all(&work_dir);
    Ctx {
        workload,
        seed: 5,
        seconds: 1,
        trace,
        scale: Scale::Reduced,
        threads: 2,
        root: manifest_dir()
            .parent()
            .expect("checkout root")
            .to_path_buf(),
        work_dir,
    }
}

/// A reduced run of `workload`, untraced then traced in one work dir (so
/// the count ledger also checks the two modes agree), must complete with
/// no failed operation and print every metric.
fn reduced_run_completes(workload: Workload) {
    let tag = workload.name();
    let base = ctx(workload, false, tag);
    for trace in [false, true] {
        let ctx = Ctx {
            trace,
            ..base.clone()
        };
        let report = run(&ctx);
        assert!(
            report.correct(),
            "{tag} trace={trace}: {:?}",
            report.failures
        );
        assert!(report.attempted >= 1);
        let line = report.result_line(&ctx.metric_names());
        let doc = json::parse(&line).expect("result line parses");
        let metrics = doc
            .get("metrics")
            .and_then(JsonValue::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), ctx.metric_names().len());
        json::parse(&report.provenance_line()).expect("provenance parses");
    }
}

#[test]
fn reduced_dense_transient_completes() {
    reduced_run_completes(Workload::DenseTransient);
}

#[test]
fn reduced_sparse_frontier_completes() {
    reduced_run_completes(Workload::SparseFrontier);
}

#[test]
fn reduced_daemon_mixed_completes() {
    reduced_run_completes(Workload::DaemonMixed);
}

/// The grid workloads' traced check: a traced record that differs from
/// the engine's `CellStats` is reported, and so is a replayed document
/// that differs from the reference.
fn corrupted_grid_trips_the_checks(workload: Workload) {
    let ctx = ctx(workload, true, &format!("{}-corrupt", workload.name()));
    let specs = grid::campaigns(&ctx, workload);
    let registry = paper_registry();
    let references: Vec<_> = specs
        .iter()
        .map(|spec| campaign::run(spec, &registry, None, |_| {}).expect("reference run"))
        .collect();
    std::fs::create_dir_all(&ctx.work_dir).expect("work dir");
    let cache = ResultCache::open(ctx.work_dir.join("cache")).expect("cache");
    let resolved = trace::resolve(&specs, &registry).expect("resolve");
    let mut traced = trace::execute(resolved, 2, &cache, |_| {});
    let runs: Vec<_> = references.iter().collect();
    assert!(
        check_cells(&traced, &runs).is_empty(),
        "traced records match the engine"
    );
    traced.trials[0].parts.record.flops += 1;
    assert_eq!(
        check_cells(&traced, &runs).len(),
        1,
        "a corrupted record is caught"
    );

    let reference = &references[0].result;
    let done = ClientOutcome {
        name: reference.name().to_string(),
        cells: 1,
        cached: 1,
        csv: reference.to_csv(),
        json: reference.to_json(),
    };
    let expected = (done.csv.clone(), done.json.clone());
    assert!(daemon::check_submission(0, true, &done, Some(&expected)).is_ok());
    let corrupted = ClientOutcome {
        json: corrupt(&done.json),
        ..done
    };
    assert!(daemon::check_submission(0, true, &corrupted, Some(&expected)).is_err());
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
}

#[test]
fn corrupted_dense_transient_trips_the_checks() {
    corrupted_grid_trips_the_checks(Workload::DenseTransient);
}

#[test]
fn corrupted_sparse_frontier_trips_the_checks() {
    corrupted_grid_trips_the_checks(Workload::SparseFrontier);
}

#[test]
fn document_totals_follow_the_document() {
    let doc =
        "{\"cases\":[{\"cells\":[{\"trials\":2,\"successes\":1,\"flops\":40,\"faults\":3}]}]}";
    let good = doc_totals(doc).expect("parses");
    assert_eq!(
        (good.cells, good.trials, good.flops, good.faults),
        (1, 2, 40, 3)
    );
    let bad = doc_totals(&doc.replace("\"flops\":40", "\"flops\":41")).expect("parses");
    assert_ne!(good, bad);
    assert!(doc_totals("{\"cases\":[{}]}").is_err());
}
