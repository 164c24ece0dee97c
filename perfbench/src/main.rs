//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, then the result line: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`). Exits 0
//! only when every operation and check passed.

use robustify_perfbench::plan::{Scale, Workload};
use robustify_perfbench::report::Report;
use robustify_perfbench::{checkout_root, run, Ctx};

const USAGE: &str = "usage: perfbench --workload <dense_transient|sparse_frontier|daemon_mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Ctx, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let root = checkout_root();
    Ok(Ctx {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        work_dir: root.join(".perfbench"),
        root,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // A panic in the benchmark itself still ends with a result line.
    let report = std::panic::catch_unwind(|| run(&ctx)).unwrap_or_else(|_| {
        let mut report = Report::default();
        report.operation(Err("the benchmark panicked".to_string()));
        report
    });
    for failure in &report.failures {
        eprintln!("perfbench: {failure}");
    }
    println!("{}", report.provenance_line());
    println!("{}", report.result_line(&ctx.metric_names()));
    if !report.correct() {
        std::process::exit(1);
    }
}
