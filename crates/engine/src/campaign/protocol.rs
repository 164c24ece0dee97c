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
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::ScopedJoinHandle;
use stochastic_fpu::json::{self, JsonValue};
use stochastic_fpu::json_object;

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

/// Writes one event or request line and its `\n` in one `write_all`,
/// then flushes, so no line waits in a buffered writer.
fn send(writer: &mut impl Write, mut line: String) -> io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

fn error_event(message: &str) -> String {
    json_object!("event" => "error", "message" => message).to_string()
}

fn cell_event(update: &CellUpdate) -> String {
    json_object!(
        "event" => "cell", "job" => update.job_index, "rate" => update.rate_index,
        "label" => update.label.as_str(), "rate_pct" => update.rate_pct, "cached" => update.cached,
        "trials" => update.trials, "successes" => update.successes,
    )
    .to_string()
}

fn handle_submit<'env>(
    request: &JsonValue,
    writer: &mut impl Write,
    registry: &'env WorkloadRegistry,
    cache: Option<&'env ResultCache>,
    pool: &Scheduler<'env>,
) -> io::Result<()> {
    let spec = request.fields("submit").decode::<CampaignSpec>("campaign");
    let spec = match spec.and_then(|spec| spec.validate().map(|()| spec)) {
        Ok(spec) => spec,
        Err(e) => return send(writer, error_event(&e)),
    };
    let cells = spec.jobs().len() * spec.rates_pct().len();
    let accepted = json_object!("event" => "accepted", "name" => spec.name(), "cells" => cells);
    send(writer, accepted.to_string())?;

    // Stream cell events as the runner finishes them; write failures are
    // remembered and surfaced after the run (the run itself keeps its
    // checkpoints either way).
    let mut stream_error: Option<io::Error> = None;
    let outcome = runner::run_on(&spec, registry, cache, pool, |update| {
        if stream_error.is_some() {
            return;
        }
        if let Err(e) = send(writer, cell_event(update)) {
            stream_error = Some(e);
        }
    });
    if let Some(e) = stream_error {
        return Err(e);
    }
    let line = match outcome {
        Ok(run) => json_object!(
            "event" => "done", "name" => run.result.name(), "cells" => run.cells_total,
            "cached" => run.cells_cached, "csv" => run.result.to_csv(), "json" => run.result.to_json(),
        )
        .to_string(),
        Err(e) => error_event(&e),
    };
    send(writer, line)
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
                send(writer, error_event(&message))?;
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match json::parse(&line) {
            Ok(v) => v,
            Err(e) => {
                send(writer, error_event(&e.to_string()))?;
                continue;
            }
        };
        match request.get("op").and_then(JsonValue::as_str) {
            Some("ping") => send(writer, "{\"event\":\"pong\"}".to_string())?,
            Some("workloads") => {
                let names = registry.names().into_iter().collect::<JsonValue>();
                let workloads = json_object!("event" => "workloads", "names" => names);
                send(writer, workloads.to_string())?;
            }
            Some("submit") => handle_submit(&request, writer, registry, cache, pool)?,
            Some("shutdown") => {
                send(writer, "{\"event\":\"bye\"}".to_string())?;
                return Ok(true);
            }
            _ => send(
                writer,
                error_event("\"op\" must be ping, workloads, submit, or shutdown"),
            )?,
        }
    }
    Ok(false)
}

/// Runs the TCP daemon on an already-bound listener until some connection
/// sends `shutdown`. Each connection gets a lightweight handler thread
/// for protocol I/O, but every submission's trials execute on one
/// process-wide FIFO [`Scheduler`] (sized to the host's available
/// parallelism) — concurrent submissions share the same workers and
/// their chunks start in submission order instead of each connection
/// spawning its own pool.
///
/// The loop blocks in `accept`; the handler that reads `shutdown` wakes it
/// with one connection to the listener's own address. Handlers are joined
/// as they finish, so only live connections hold a thread. On shutdown
/// every live connection's read side is shut, so a handler parked waiting
/// for a request reads EOF and ends, while one mid-submit finishes its job
/// and sends its events first.
pub fn serve_tcp(
    listener: TcpListener,
    registry: &WorkloadRegistry,
    cache: Option<&ResultCache>,
) -> io::Result<()> {
    // An unspecified IP is not connectable everywhere; use the loopback.
    let mut wake = listener.local_addr()?;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let shutdown = AtomicBool::new(false);
    // The pool outlives the handler scope: a handler mid-submit finishes
    // enqueueing (and awaiting) its job before the workers are told to
    // drain and exit.
    Scheduler::new(0).scoped(|pool| {
        std::thread::scope(|scope| {
            // Each live connection beside its handler, so shutdown can end
            // the handler's wait for a request.
            let mut handlers: Vec<(TcpStream, ScopedJoinHandle<()>)> = Vec::new();
            let outcome = loop {
                let stream = match listener.accept() {
                    Ok((stream, _addr)) => stream,
                    Err(e) => break Err(e),
                };
                if shutdown.load(Ordering::SeqCst) {
                    break Ok(());
                }
                // A panicking handler loses its own connection, not the daemon.
                for (_, handler) in handlers.extract_if(.., |(_, h)| h.is_finished()) {
                    let _ = handler.join();
                }
                let shutdown = &shutdown;
                let spawned = stream.try_clone().and_then(|conn| {
                    std::thread::Builder::new().spawn_scoped(scope, move || {
                        let mut reader = BufReader::new(&conn);
                        if let Ok(true) =
                            serve_connection(&mut reader, &mut &conn, registry, cache, pool)
                        {
                            shutdown.store(true, Ordering::SeqCst);
                            let _ = TcpStream::connect(wake);
                        }
                    })
                });
                match spawned {
                    Ok(handler) => handlers.push((stream, handler)),
                    // A connection the daemon cannot give a thread is
                    // refused; the daemon serves on.
                    Err(e) => {
                        let _ = send(&mut &stream, error_event(&format!("cannot serve: {e}")));
                    }
                }
            };
            for (stream, _) in &handlers {
                let _ = stream.shutdown(Shutdown::Read);
            }
            for (_, handler) in handlers {
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
    let request = json_object!("op" => "submit", "campaign" => campaign).to_string();
    send(writer, request).map_err(|e| format!("send failed: {e}"))?;
    for line in reader.lines() {
        let line = line.map_err(|e| format!("read failed: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        on_event(&line);
        let event = json::parse(&line).map_err(|e| format!("bad event line: {e}"))?;
        match event.get("event").and_then(JsonValue::as_str) {
            Some("error") => return Err(event.fields("error event").get("message")?),
            Some("done") => {
                let done = event.fields("done event");
                return Ok(ClientOutcome {
                    name: done.get("name")?,
                    cells: done.get("cells")?,
                    cached: done.get("cached")?,
                    csv: done.get("csv")?,
                    json: done.get("json")?,
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
    let mut reader = BufReader::new(&stream);
    submit_over(&mut reader, &mut &stream, campaign, on_event)
}

/// Asks the TCP daemon at `addr` to shut down.
pub fn shutdown_tcp(addr: &str) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    send(&mut &stream, "{\"op\":\"shutdown\"}".to_string())
        .map_err(|e| format!("send failed: {e}"))?;
    let mut line = String::new();
    BufReader::new(&stream)
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
    use robustify_core::{DynProblem, GradientGuard, SolverSpec, StepSchedule, Verdict};
    use std::io::Cursor;
    use std::sync::mpsc;
    use std::time::Duration;
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

    /// A burst longer than the word it flips is refused before
    /// `accepted` (its mask end would overflow inside a trial), and the
    /// next good submission on the connection runs to `done`.
    #[test]
    fn overlong_bursts_are_refused_and_the_connection_serves_on() {
        let reg = registry();
        let good = campaign().job(
            JobSpec::new("b", "wobble")
                .with_fault_model(FaultModelSpec::burst(3, BitFaultModel::emulated())),
        );
        let bad = good
            .to_json()
            .replace("\"length\":3", "\"length\":18446744073709551615");
        assert_ne!(bad, good.to_json());
        let input = format!(
            "{{\"op\":\"submit\",\"campaign\":{bad}}}\n\
             {{\"op\":\"submit\",\"campaign\":{}}}\n",
            good.to_json()
        );
        let (events, _) = serve_lines(&input, &reg, 1);
        assert!(
            events[0].starts_with("{\"event\":\"error\"") && events[0].contains("length"),
            "got {events:?}"
        );
        assert!(
            events[1].contains("\"event\":\"accepted\""),
            "got {events:?}"
        );
        let done = json::parse(events.last().expect("done event")).expect("done parses");
        assert_eq!(done.get("event").and_then(JsonValue::as_str), Some("done"));
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

    /// `shutdown` alone must end an idle daemon, also one bound to an
    /// unspecified address; the timeout turns a missed wake-up into a
    /// failure instead of a hang.
    #[test]
    fn shutdown_wakes_an_idle_accept() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let listener = TcpListener::bind(bind).expect("bind");
            let port = listener.local_addr().expect("addr").port();
            let (done, served) = mpsc::channel();
            let server = std::thread::spawn(move || {
                let _ = done.send(serve_tcp(listener, &registry(), None));
            });
            shutdown_tcp(&format!("127.0.0.1:{port}")).expect("shutdown");
            served
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("serve_tcp on {bind} outlived shutdown: {e}"))
                .expect("serve_tcp");
            server.join().expect("server thread");
        }
    }

    /// A client that connects and then sends nothing must not keep the
    /// daemon alive after another connection's `shutdown` is answered.
    #[test]
    fn shutdown_does_not_wait_for_idle_clients() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let (done, served) = mpsc::channel();
        let server = std::thread::spawn(move || {
            let _ = done.send(serve_tcp(listener, &registry(), None));
        });
        // One answered request proves the idle connection has a handler.
        let idle = TcpStream::connect(&addr).expect("connect");
        send(&mut &idle, "{\"op\":\"ping\"}".to_string()).expect("ping");
        let mut pong = String::new();
        BufReader::new(&idle).read_line(&mut pong).expect("pong");
        assert_eq!(pong, "{\"event\":\"pong\"}\n");
        shutdown_tcp(&addr).expect("shutdown");
        served
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("serve_tcp waited for an idle client: {e}"))
            .expect("serve_tcp");
        server.join().expect("server thread");
        drop(idle);
    }

    /// A guard bound that would panic in every SGD trial is refused before
    /// `accepted`, and the connection serves the next submission.
    #[test]
    fn invalid_guard_is_refused_before_accept() {
        let reg = registry();
        let solver = SolverSpec::sgd(5, StepSchedule::Fixed(0.1))
            .with_guard(GradientGuard::ClampComponents { max_abs: 1.0 });
        let good = campaign().job(JobSpec::new("s", "wobble").with_solver(solver));
        let bad = good
            .to_json()
            .replace("\"guard\":{\"clamp\":1}", "\"guard\":{\"clamp\":-1}");
        assert_ne!(bad, good.to_json());
        let input = format!("{{\"op\":\"submit\",\"campaign\":{bad}}}\n{{\"op\":\"ping\"}}\n");
        let (events, _) = serve_lines(&input, &reg, 1);
        assert_eq!(events.len(), 2, "got {events:?}");
        assert!(
            events[0].starts_with("{\"event\":\"error\"") && events[0].contains("max_abs"),
            "got {events:?}"
        );
        assert_eq!(events[1], "{\"event\":\"pong\"}");
    }

    /// A solver budget past `MAX_SOLVER_STEPS` is refused before
    /// `accepted` (it would hold a worker for hours), and a good submission
    /// on the same connection runs to `done`.
    #[test]
    fn unbounded_solver_work_is_refused_before_accept() {
        let reg = registry();
        let solver = SolverSpec::sgd(5, StepSchedule::Fixed(0.1));
        let good = campaign().job(JobSpec::new("s", "wobble").with_solver(solver));
        let bad = good
            .to_json()
            .replace("\"iterations\":5,", "\"iterations\":1000000000000,");
        assert_ne!(bad, good.to_json());
        let input = format!(
            "{{\"op\":\"submit\",\"campaign\":{bad}}}\n\
             {{\"op\":\"submit\",\"campaign\":{}}}\n",
            good.to_json()
        );
        let (events, _) = serve_lines(&input, &reg, 1);
        assert!(
            events[0].starts_with("{\"event\":\"error\"") && events[0].contains("iterations"),
            "got {events:?}"
        );
        assert!(
            events[1].contains("\"event\":\"accepted\""),
            "got {events:?}"
        );
        let done = json::parse(events.last().expect("done event")).expect("done parses");
        assert_eq!(done.get("event").and_then(JsonValue::as_str), Some("done"));
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
