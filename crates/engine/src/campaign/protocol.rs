//! The campaign daemon's wire protocol: newline-delimited JSON requests
//! and events, shared by the stdio loop, the TCP listener, and thin
//! clients.
//!
//! Requests (one JSON document per line):
//!
//! ```text
//! {"op":"ping"}
//! {"op":"workloads"}
//! {"op":"submit","campaign":{…}}
//! {"op":"shutdown"}
//! ```
//!
//! Events (one per line; a submit streams `accepted`, then one `cell` per
//! finished cell, then `done` carrying the full CSV and JSON documents as
//! escaped strings):
//!
//! ```text
//! {"event":"pong"}
//! {"event":"workloads","names":["least_squares",…]}
//! {"event":"accepted","name":"fig6_2","cells":24}
//! {"event":"cell","job":0,"rate":2,"label":"sgd","rate_pct":1,"cached":false,"trials":100,"successes":97}
//! {"event":"done","name":"fig6_2","cells":24,"cached":6,"csv":"…","json":"…"}
//! {"event":"error","message":"…"}
//! ```

use super::cache::ResultCache;
use super::runner::{self, CellUpdate};
use super::spec::CampaignSpec;
use crate::scheduler::Scheduler;
use robustify_core::WorkloadRegistry;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use stochastic_fpu::json::{self, escape, JsonValue};

/// The longest request line the daemon reads, in bytes before its `\n`.
/// A longer line is answered with one `error` event and skipped without
/// being held, so no single line can exhaust the daemon's memory. The
/// largest full-size figure campaign, `fault_model_campaign`, submits a
/// 21,148-byte line.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// One request line read through the [`MAX_REQUEST_BYTES`] bound.
enum RequestLine {
    /// The line without its `\n` or `\r\n` terminator.
    Complete(String),
    /// A line over the bound; the reader has consumed it through its
    /// newline.
    TooLong,
}

/// Reads the next request line, holding at most [`MAX_REQUEST_BYTES`] of
/// it (plus its newline) in memory. Returns `None` at EOF.
fn read_request_line(reader: &mut impl BufRead) -> io::Result<Option<RequestLine>> {
    let mut line = Vec::new();
    let read =
        Read::take(&mut *reader, MAX_REQUEST_BYTES as u64 + 1).read_until(b'\n', &mut line)?;
    if read == 0 {
        return Ok(None);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    } else if line.len() > MAX_REQUEST_BYTES {
        reader.skip_until(b'\n')?;
        return Ok(Some(RequestLine::TooLong));
    }
    String::from_utf8(line)
        .map(|line| Some(RequestLine::Complete(line)))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn error_event(message: &str) -> String {
    format!(
        "{{\"event\":\"error\",\"message\":\"{}\"}}",
        escape(message)
    )
}

fn cell_event(update: &CellUpdate) -> String {
    format!(
        "{{\"event\":\"cell\",\"job\":{},\"rate\":{},\"label\":\"{}\",\"rate_pct\":{},\
         \"cached\":{},\"trials\":{},\"successes\":{}}}",
        update.job_index,
        update.rate_index,
        escape(&update.label),
        update.rate_pct,
        update.cached,
        update.trials,
        update.successes,
    )
}

fn handle_submit<'env>(
    request: &JsonValue,
    writer: &mut impl Write,
    registry: &'env WorkloadRegistry,
    cache: Option<&'env ResultCache>,
    pool: &Scheduler<'env>,
) -> io::Result<()> {
    let campaign = match request.get("campaign") {
        Some(v) => v,
        None => return writeln!(writer, "{}", error_event("submit needs a \"campaign\"")),
    };
    let spec = match CampaignSpec::from_json_value(campaign) {
        Ok(spec) => spec,
        Err(e) => return writeln!(writer, "{}", error_event(&e)),
    };
    if let Err(e) = spec.validate() {
        return writeln!(writer, "{}", error_event(&e));
    }
    writeln!(
        writer,
        "{{\"event\":\"accepted\",\"name\":\"{}\",\"cells\":{}}}",
        escape(spec.name()),
        spec.jobs().len() * spec.rates_pct().len(),
    )?;
    writer.flush()?;

    // Stream cell events as the runner finishes them; write failures are
    // remembered and surfaced after the run (the run itself keeps its
    // checkpoints either way).
    let mut stream_error: Option<io::Error> = None;
    let outcome = runner::run_on(&spec, registry, cache, pool, |update| {
        if stream_error.is_some() {
            return;
        }
        if let Err(e) = writeln!(writer, "{}", cell_event(update)).and_then(|()| writer.flush()) {
            stream_error = Some(e);
        }
    });
    if let Some(e) = stream_error {
        return Err(e);
    }
    match outcome {
        Ok(run) => {
            writeln!(
                writer,
                "{{\"event\":\"done\",\"name\":\"{}\",\"cells\":{},\"cached\":{},\
                 \"csv\":\"{}\",\"json\":\"{}\"}}",
                escape(run.result.name()),
                run.cells_total,
                run.cells_cached,
                escape(&run.result.to_csv()),
                escape(&run.result.to_json()),
            )?;
        }
        Err(e) => writeln!(writer, "{}", error_event(&e))?,
    }
    writer.flush()
}

/// Serves one line-delimited JSON connection (stdio or a TCP stream)
/// until EOF or a `shutdown` request, executing submissions on the
/// running `pool`. Returns whether shutdown was requested.
pub fn serve_connection<'env>(
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    registry: &'env WorkloadRegistry,
    cache: Option<&'env ResultCache>,
    pool: &Scheduler<'env>,
) -> io::Result<bool> {
    while let Some(line) = read_request_line(reader)? {
        let line = match line {
            RequestLine::Complete(line) => line,
            RequestLine::TooLong => {
                let message = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
                writeln!(writer, "{}", error_event(&message))?;
                writer.flush()?;
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match json::parse(&line) {
            Ok(v) => v,
            Err(e) => {
                writeln!(writer, "{}", error_event(&e.to_string()))?;
                writer.flush()?;
                continue;
            }
        };
        match request.get("op").and_then(JsonValue::as_str) {
            Some("ping") => {
                writeln!(writer, "{{\"event\":\"pong\"}}")?;
                writer.flush()?;
            }
            Some("workloads") => {
                let names = registry
                    .names()
                    .iter()
                    .map(|n| format!("\"{}\"", escape(n)))
                    .collect::<Vec<_>>()
                    .join(",");
                writeln!(writer, "{{\"event\":\"workloads\",\"names\":[{names}]}}")?;
                writer.flush()?;
            }
            Some("submit") => handle_submit(&request, writer, registry, cache, pool)?,
            Some("shutdown") => {
                writeln!(writer, "{{\"event\":\"bye\"}}")?;
                writer.flush()?;
                return Ok(true);
            }
            _ => {
                writeln!(
                    writer,
                    "{}",
                    error_event("\"op\" must be ping, workloads, submit, or shutdown")
                )?;
                writer.flush()?;
            }
        }
    }
    Ok(false)
}

/// Runs the TCP daemon on an already-bound listener until some connection
/// sends `shutdown`. Each connection gets a lightweight handler thread
/// for protocol I/O, but every submission's trials execute on one
/// process-wide work-stealing [`Scheduler`] (sized to the host's
/// available parallelism) — concurrent submissions multiplex onto the
/// same workers and drain in submission order instead of each connection
/// spawning its own pool.
pub fn serve_tcp(
    listener: TcpListener,
    registry: &WorkloadRegistry,
    cache: Option<&ResultCache>,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let shutdown = AtomicBool::new(false);
    // The pool outlives the handler scope: a handler mid-submit finishes
    // enqueueing (and awaiting) its job before the workers are told to
    // drain and exit.
    Scheduler::new(0).scoped(|pool| {
        std::thread::scope(|scope| {
            let mut handlers = Vec::new();
            let outcome = loop {
                if shutdown.load(Ordering::SeqCst) {
                    break Ok(());
                }
                match listener.accept() {
                    Ok((stream, _addr)) => {
                        let shutdown = &shutdown;
                        handlers.push(scope.spawn(move || {
                            let _ = stream.set_nonblocking(false);
                            let mut reader = BufReader::new(match stream.try_clone() {
                                Ok(s) => s,
                                Err(_) => return,
                            });
                            let mut writer = stream;
                            if let Ok(true) =
                                serve_connection(&mut reader, &mut writer, registry, cache, pool)
                            {
                                shutdown.store(true, Ordering::SeqCst);
                            }
                        }));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(e) => break Err(e),
                }
            };
            // A panicking handler loses its own connection, not the daemon.
            for handler in handlers {
                let _ = handler.join();
            }
            outcome
        })
    })
}

/// What a thin client gets back from a completed submit.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientOutcome {
    /// The campaign name echoed by the daemon.
    pub name: String,
    /// Total cells in the grid.
    pub cells: usize,
    /// Cells the daemon replayed from its cache.
    pub cached: usize,
    /// The full CSV document, byte-identical to a local run.
    pub csv: String,
    /// The full JSON document, byte-identical to a local run.
    pub json: String,
}

/// Submits a campaign over an open line-delimited JSON transport and
/// reads events until `done` or `error`. Every raw event line (including
/// `done`) is passed to `on_event` for progress display.
pub fn submit_over(
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    campaign: &CampaignSpec,
    mut on_event: impl FnMut(&str),
) -> Result<ClientOutcome, String> {
    writeln!(
        writer,
        "{{\"op\":\"submit\",\"campaign\":{}}}",
        campaign.to_json()
    )
    .and_then(|()| writer.flush())
    .map_err(|e| format!("send failed: {e}"))?;
    for line in reader.lines() {
        let line = line.map_err(|e| format!("read failed: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        on_event(&line);
        let event = json::parse(&line).map_err(|e| format!("bad event line: {e}"))?;
        match event.get("event").and_then(JsonValue::as_str) {
            Some("error") => {
                let message = event
                    .get("message")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("unspecified daemon error");
                return Err(message.to_string());
            }
            Some("done") => {
                let field = |key: &str| {
                    event
                        .get(key)
                        .and_then(JsonValue::as_str)
                        .map(str::to_string)
                        .ok_or(format!("done event lacks \"{key}\""))
                };
                return Ok(ClientOutcome {
                    name: event
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    cells: event
                        .get("cells")
                        .and_then(JsonValue::as_usize)
                        .unwrap_or(0),
                    cached: event
                        .get("cached")
                        .and_then(JsonValue::as_usize)
                        .unwrap_or(0),
                    csv: field("csv")?,
                    json: field("json")?,
                });
            }
            _ => {}
        }
    }
    Err("daemon closed the connection before done".to_string())
}

/// Submits a campaign to a TCP daemon at `addr`.
pub fn submit_tcp(
    addr: &str,
    campaign: &CampaignSpec,
    on_event: impl FnMut(&str),
) -> Result<ClientOutcome, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?,
    );
    let mut writer = stream;
    submit_over(&mut reader, &mut writer, campaign, on_event)
}

/// Asks the TCP daemon at `addr` to shut down.
pub fn shutdown_tcp(addr: &str) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    writeln!(writer, "{{\"op\":\"shutdown\"}}")
        .and_then(|()| writer.flush())
        .map_err(|e| format!("send failed: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read failed: {e}"))?;
    if line.contains("\"bye\"") {
        Ok(())
    } else {
        Err(format!("unexpected shutdown response: {line}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::JobSpec;
    use robustify_core::{DynProblem, SolverSpec, StepSchedule, Verdict};
    use std::io::Cursor;
    use stochastic_fpu::{BitFaultModel, FaultModelSpec, Fpu, NoisyFpu, VoltageErrorModel};

    struct Wobble;

    impl DynProblem for Wobble {
        fn name(&self) -> &'static str {
            "wobble"
        }

        fn run_trial_dyn(&self, _spec: &SolverSpec, fpu: &mut NoisyFpu) -> Verdict {
            let mut acc = 0.0;
            for i in 0..32 {
                let halved = fpu.mul(acc, 0.5);
                acc = fpu.add(halved, (i % 3) as f64);
            }
            Verdict::from_metric((acc - 2.0).abs(), 1.5)
        }
    }

    fn registry() -> WorkloadRegistry {
        let mut reg = WorkloadRegistry::new();
        reg.register(
            "wobble",
            Box::new(|_| Box::new(Wobble)),
            Box::new(|_| SolverSpec::baseline()),
        );
        reg
    }

    fn campaign() -> CampaignSpec {
        CampaignSpec::new("proto")
            .rates(vec![0.0, 10.0])
            .trials(6)
            .seed(3)
            .threads(1)
            .job(JobSpec::new("w", "wobble"))
    }

    fn serve_lines(
        input: &str,
        registry: &WorkloadRegistry,
        workers: usize,
    ) -> (Vec<String>, bool) {
        let mut reader = Cursor::new(input.as_bytes().to_vec());
        let mut out = Vec::new();
        let shutdown = Scheduler::new(workers)
            .scoped(|pool| serve_connection(&mut reader, &mut out, registry, None, pool))
            .expect("serve");
        let text = String::from_utf8(out).expect("utf8 events");
        (text.lines().map(str::to_string).collect(), shutdown)
    }

    #[test]
    fn ping_workloads_and_garbage_are_answered() {
        let reg = registry();
        // Unbounded recursion on the first line would overflow the
        // connection thread's stack and abort the daemon.
        let input = format!(
            "{}\n{{\"op\":\"ping\"}}\nnot json\n{{\"op\":\"workloads\"}}\n{{\"op\":\"nope\"}}\n",
            "[".repeat(100_000)
        );
        let (events, shutdown) = serve_lines(&input, &reg, 2);
        assert!(!shutdown);
        assert_eq!(events.len(), 5, "got {events:?}");
        assert!(events[0].starts_with("{\"event\":\"error\"") && events[0].contains("nesting"));
        assert_eq!(events[1], "{\"event\":\"pong\"}");
        assert!(events[2].starts_with("{\"event\":\"error\""));
        assert_eq!(
            events[3],
            "{\"event\":\"workloads\",\"names\":[\"wobble\"]}"
        );
        assert!(events[4].contains("\"op\\\" must be"));
    }

    #[test]
    fn submit_streams_cells_and_done_with_exact_documents() {
        let reg = registry();
        let spec = campaign();
        let local = super::super::runner::run(&spec, &reg, None, |_| {}).expect("local");
        let request = format!("{{\"op\":\"submit\",\"campaign\":{}}}\n", spec.to_json());
        let (events, _) = serve_lines(&request, &reg, 2);
        assert!(events[0].contains("\"event\":\"accepted\""));
        assert!(events[0].contains("\"cells\":2"));
        let cell_lines: Vec<_> = events
            .iter()
            .filter(|l| l.contains("\"event\":\"cell\""))
            .collect();
        assert_eq!(cell_lines.len(), 2);
        let done = events.last().expect("done event");
        let doc = json::parse(done).expect("done parses");
        assert_eq!(doc.get("event").and_then(JsonValue::as_str), Some("done"));
        assert_eq!(
            doc.get("csv").and_then(JsonValue::as_str),
            Some(local.result.to_csv().as_str()),
            "daemon CSV must be byte-identical to a local run"
        );
        assert_eq!(
            doc.get("json").and_then(JsonValue::as_str),
            Some(local.result.to_json().as_str()),
        );
    }

    #[test]
    fn malformed_submissions_answer_with_error_events() {
        let reg = registry();
        let (events, _) = serve_lines("{\"op\":\"submit\"}\n", &reg, 2);
        assert!(events[0].starts_with("{\"event\":\"error\""));
        let empty_grid = "{\"op\":\"submit\",\"campaign\":{\"name\":\"x\",\"rates_pct\":[],\
             \"voltages\":null,\"energy_model\":null,\"trials\":1,\"base_seed\":0,\
             \"threads\":0,\"fault_model\":{\"kind\":\"transient\",\
             \"distribution\":\"emulated\",\"width\":\"f64\"},\"jobs\":[]}}\n";
        let (events, _) = serve_lines(empty_grid, &reg, 2);
        assert!(
            events[0].starts_with("{\"event\":\"error\""),
            "got {events:?}"
        );
    }

    #[test]
    fn invalid_solver_is_refused_before_accept_and_the_connection_serves_on() {
        let reg = registry();
        let solver = SolverSpec::sgd(5, StepSchedule::Fixed(0.1)).with_momentum(0.5);
        let good = campaign().job(JobSpec::new("s", "wobble").with_solver(solver));
        let local = super::super::runner::run(&good, &reg, None, |_| {}).expect("local");
        let bad = good.to_json().replace("\"momentum\":0.5", "\"momentum\":5");
        assert_ne!(bad, good.to_json());
        // A rate outside [0, 100] would panic in every trial.
        let bad_rate = good
            .to_json()
            .replace("\"rates_pct\":[0,10]", "\"rates_pct\":[150]");
        assert_ne!(bad_rate, good.to_json());
        let input = format!(
            "{{\"op\":\"submit\",\"campaign\":{bad}}}\n\
             {{\"op\":\"submit\",\"campaign\":{bad_rate}}}\n\
             {{\"op\":\"submit\",\"campaign\":{}}}\n",
            good.to_json()
        );
        let (events, _) = serve_lines(&input, &reg, 1);
        assert!(
            events[0].starts_with("{\"event\":\"error\"") && events[0].contains("momentum"),
            "got {events:?}"
        );
        assert!(
            events[1].starts_with("{\"event\":\"error\"") && events[1].contains("fault rate"),
            "got {events:?}"
        );
        // Each refused campaign's only event is its error; the valid one
        // is accepted next.
        assert!(
            events[2].contains("\"event\":\"accepted\""),
            "got {events:?}"
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| e.contains("\"event\":\"accepted\""))
                .count(),
            1,
            "got {events:?}"
        );
        let done = json::parse(events.last().expect("done event")).expect("done parses");
        assert_eq!(done.get("event").and_then(JsonValue::as_str), Some("done"));
        assert_eq!(
            done.get("csv").and_then(JsonValue::as_str),
            Some(local.result.to_csv().as_str())
        );
        assert_eq!(
            done.get("json").and_then(JsonValue::as_str),
            Some(local.result.to_json().as_str())
        );
    }

    /// A voltage-axis campaign whose rate grid disagrees with its energy
    /// model would label a column with an operating point its trials never
    /// ran at; it is refused before `accepted`, and the connection serves
    /// the honest campaign next.
    #[test]
    fn forged_voltage_rates_are_refused_and_the_connection_serves_on() {
        let reg = registry();
        let good = CampaignSpec::new("volts")
            .voltages(vec![1.0, 0.7], VoltageErrorModel::paper_figure_5_2())
            .trials(4)
            .seed(3)
            .threads(1)
            .job(JobSpec::new("w", "wobble"));
        let local = super::super::runner::run(&good, &reg, None, |_| {}).expect("local");
        let overscaled = good.rates_pct()[1];
        let bad = good.to_json().replace(
            &format!("\"rates_pct\":[{},{overscaled}]", good.rates_pct()[0]),
            &format!("\"rates_pct\":[50,{overscaled}]"),
        );
        assert_ne!(bad, good.to_json());
        let input = format!(
            "{{\"op\":\"submit\",\"campaign\":{bad}}}\n\
             {{\"op\":\"submit\",\"campaign\":{}}}\n",
            good.to_json()
        );
        let (events, _) = serve_lines(&input, &reg, 1);
        assert!(
            events[0].starts_with("{\"event\":\"error\"") && events[0].contains("voltage column 0"),
            "got {events:?}"
        );
        assert!(
            events[1].contains("\"event\":\"accepted\""),
            "got {events:?}"
        );
        let done = json::parse(events.last().expect("done event")).expect("done parses");
        assert_eq!(done.get("event").and_then(JsonValue::as_str), Some("done"));
        assert_eq!(
            done.get("json").and_then(JsonValue::as_str),
            Some(local.result.to_json().as_str())
        );
    }

    /// A memory fault model too large to allocate is refused before
    /// `accepted`, instead of aborting the daemon from inside a trial, and
    /// the connection serves the next submission.
    #[test]
    fn oversized_memory_models_are_refused_and_the_connection_serves_on() {
        let reg = registry();
        let good = campaign().job(JobSpec::new("m", "wobble").with_fault_model(
            FaultModelSpec::array_resident(64, BitFaultModel::emulated(), 0),
        ));
        let local = super::super::runner::run(&good, &reg, None, |_| {}).expect("local");
        let bad = good
            .to_json()
            .replace("\"slots\":64", "\"slots\":1000000000000000");
        assert_ne!(bad, good.to_json());
        let input = format!(
            "{{\"op\":\"submit\",\"campaign\":{bad}}}\n\
             {{\"op\":\"submit\",\"campaign\":{}}}\n",
            good.to_json()
        );
        let (events, _) = serve_lines(&input, &reg, 1);
        assert!(
            events[0].starts_with("{\"event\":\"error\"") && events[0].contains("slots"),
            "got {events:?}"
        );
        assert!(
            events[1].contains("\"event\":\"accepted\""),
            "got {events:?}"
        );
        let done = json::parse(events.last().expect("done event")).expect("done parses");
        assert_eq!(
            done.get("json").and_then(JsonValue::as_str),
            Some(local.result.to_json().as_str())
        );
    }

    /// A grid whose trial total exceeds the cap would size the runner's
    /// record slots past any allocation; it is refused before `accepted`,
    /// and the connection serves the next submission.
    #[test]
    fn oversized_trial_totals_are_refused_and_the_connection_serves_on() {
        let reg = registry();
        let good = campaign();
        let local = super::super::runner::run(&good, &reg, None, |_| {}).expect("local");
        let bad = good
            .to_json()
            .replace("\"trials\":6", "\"trials\":100000000000000");
        assert_ne!(bad, good.to_json());
        let input = format!(
            "{{\"op\":\"submit\",\"campaign\":{bad}}}\n\
             {{\"op\":\"submit\",\"campaign\":{}}}\n",
            good.to_json()
        );
        let (events, _) = serve_lines(&input, &reg, 1);
        assert!(
            events[0].starts_with("{\"event\":\"error\"") && events[0].contains("trials"),
            "got {events:?}"
        );
        assert!(
            events[1].contains("\"event\":\"accepted\""),
            "got {events:?}"
        );
        let done = json::parse(events.last().expect("done event")).expect("done parses");
        assert_eq!(
            done.get("json").and_then(JsonValue::as_str),
            Some(local.result.to_json().as_str())
        );
    }

    /// A request line over the bound gets one `error`, its rest is
    /// skipped, and the next line on the connection is served.
    #[test]
    fn over_long_lines_are_refused_and_the_connection_serves_on() {
        let reg = registry();
        let at_bound = format!("{{\"op\":\"ping\"}}{}", " ".repeat(MAX_REQUEST_BYTES - 13));
        assert_eq!(at_bound.len(), MAX_REQUEST_BYTES);
        let input = format!(
            "{}\n{at_bound}\n{{\"op\":\"ping\"}}\r\n{}",
            "x".repeat(3 * MAX_REQUEST_BYTES),
            "y".repeat(MAX_REQUEST_BYTES + 1)
        );
        let (events, shutdown) = serve_lines(&input, &reg, 1);
        assert!(!shutdown);
        assert_eq!(events.len(), 4, "got {events:?}");
        assert!(
            events[0].starts_with("{\"event\":\"error\"") && events[0].contains("exceeds"),
            "got {events:?}"
        );
        // A line exactly at the bound is still read whole.
        assert_eq!(events[1], "{\"event\":\"pong\"}");
        assert_eq!(events[2], "{\"event\":\"pong\"}");
        // So is an over-long last line with no newline before EOF.
        assert!(events[3].contains("exceeds"), "got {events:?}");
    }

    /// Two clients submitting different campaigns *simultaneously* to one
    /// daemon: their trials interleave on the single shared pool, and each
    /// client still gets documents byte-identical to a local serial run.
    #[test]
    fn concurrent_clients_share_one_pool_deterministically() {
        let reg = registry();
        let spec_a = campaign();
        let spec_b = CampaignSpec::new("proto_b")
            .rates(vec![0.0, 5.0, 25.0])
            .trials(9)
            .seed(11)
            .threads(2)
            .job(JobSpec::new("w", "wobble").per_trial());
        let local_a = super::super::runner::run(&spec_a, &reg, None, |_| {}).expect("local a");
        let local_b = super::super::runner::run(&spec_b, &reg, None, |_| {}).expect("local b");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::scope(|scope| {
            let reg = &reg;
            let server = scope.spawn(move || serve_tcp(listener, reg, None));
            let (addr_a, addr_b) = (addr.clone(), addr.clone());
            let client_a = scope.spawn(move || submit_tcp(&addr_a, &spec_a, |_| {}));
            let client_b = scope.spawn(move || submit_tcp(&addr_b, &spec_b, |_| {}));
            let outcome_a = client_a.join().expect("client a").expect("submit a");
            let outcome_b = client_b.join().expect("client b").expect("submit b");
            assert_eq!(outcome_a.csv, local_a.result.to_csv());
            assert_eq!(outcome_a.json, local_a.result.to_json());
            assert_eq!(outcome_b.csv, local_b.result.to_csv());
            assert_eq!(outcome_b.json, local_b.result.to_json());
            shutdown_tcp(&addr).expect("shutdown");
            server.join().expect("server thread").expect("serve_tcp");
        });
    }

    #[test]
    fn tcp_round_trip_submits_and_shuts_down() {
        let reg = registry();
        let spec = campaign();
        let local = super::super::runner::run(&spec, &reg, None, |_| {}).expect("local");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::scope(|scope| {
            let reg = &reg;
            let server = scope.spawn(move || serve_tcp(listener, reg, None));
            let mut events = 0usize;
            let outcome = submit_tcp(&addr, &spec, |_| events += 1).expect("submit over tcp");
            assert_eq!(outcome.csv, local.result.to_csv());
            assert_eq!(outcome.json, local.result.to_json());
            assert_eq!(outcome.cells, 2);
            assert!(events >= 3, "accepted + cells + done");
            shutdown_tcp(&addr).expect("shutdown");
            server.join().expect("server thread").expect("serve_tcp");
        });
    }
}
