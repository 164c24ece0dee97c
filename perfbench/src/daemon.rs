//! The daemon side: an in-process `serve_tcp` on loopback, thin clients
//! with per-submission deadlines and client-side event timestamps, and
//! the loop that drives `daemon_mixed`.

use crate::plan::{daemon_campaign, Scale};
use robustify_core::WorkloadRegistry;
use robustify_engine::campaign::protocol::{serve_tcp, shutdown_tcp, submit_over, ClientOutcome};
use robustify_engine::campaign::{CampaignSpec, ResultCache};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// How long one submission may take before it counts as failed.
pub const SUBMIT_DEADLINE: Duration = Duration::from_secs(60);

/// One submission as a client saw it.
#[derive(Debug, Clone)]
pub struct Submitted {
    /// The daemon's documents, or why there are none.
    pub outcome: Result<ClientOutcome, String>,
    /// From `submit` sent to `done` parsed.
    pub latency: Duration,
    /// From `submit` sent to `accepted` received.
    pub accept: Option<Duration>,
    /// From the last `cell` event to `done` parsed.
    pub done_tail: Option<Duration>,
    /// Event bytes received, newlines included.
    pub bytes: usize,
}

/// A socket reader that fails once `deadline` passes, so a daemon that
/// stops answering cannot hang its client.
struct DeadlineReader {
    stream: TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "submission deadline passed",
            ));
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

fn connect(addr: &str, deadline: Instant) -> io::Result<(BufReader<DeadlineReader>, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_write_timeout(Some(
        deadline
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(1)),
    ))?;
    let reader = BufReader::new(DeadlineReader {
        stream: stream.try_clone()?,
        deadline,
    });
    Ok((reader, stream))
}

/// Submits `spec` to the daemon at `addr` the way `submit_tcp` does (one
/// connection per submission, `submit_over` on it), but under `limit`
/// and with a timestamp on every event.
pub fn submit(addr: &str, spec: &CampaignSpec, limit: Duration) -> Submitted {
    let start = Instant::now();
    let (mut accept, mut last_cell, mut bytes) = (None, None, 0usize);
    let outcome = connect(addr, start + limit)
        .map_err(|e| format!("connect {addr}: {e}"))
        .and_then(|(mut reader, mut writer)| {
            submit_over(&mut reader, &mut writer, spec, |line| {
                let now = Instant::now();
                bytes += line.len() + 1;
                if line.starts_with("{\"event\":\"accepted\"") {
                    accept = Some(now - start);
                } else if line.starts_with("{\"event\":\"cell\"") {
                    last_cell = Some(now);
                }
            })
        });
    let end = Instant::now();
    Submitted {
        outcome,
        latency: end - start,
        accept,
        done_tail: last_cell.map(|t| end - t),
        bytes,
    }
}

/// Checks one finished submission: it took the replay path exactly when
/// its seed repeats, and its documents equal `expected` (the untraced
/// reference or the seed's first submission), if there is one yet.
pub fn check_submission(
    seed: u64,
    replay: bool,
    done: &ClientOutcome,
    expected: Option<&(String, String)>,
) -> Result<(), String> {
    let want = if replay { done.cells } else { 0 };
    if done.cached != want {
        return Err(format!(
            "submission {seed} replayed {} of {} cells, expected {want}",
            done.cached, done.cells
        ));
    }
    match expected {
        Some((csv, json)) if *csv != done.csv || *json != done.json => Err(format!(
            "submission {seed} documents differ from its first run's"
        )),
        _ => Ok(()),
    }
}

/// Sends `ping` on `stream` and waits for `pong`.
fn ping(stream: TcpStream) -> Result<(), String> {
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    writeln!(writer, "{{\"op\":\"ping\"}}")
        .and_then(|()| writer.flush())
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    BufReader::new(DeadlineReader {
        stream,
        deadline: Instant::now() + SUBMIT_DEADLINE,
    })
    .read_line(&mut line)
    .map_err(|e| e.to_string())?;
    if line.trim() == "{\"event\":\"pong\"}" {
        Ok(())
    } else {
        Err(format!("expected pong, got {line:?}"))
    }
}

/// Runs `body` against a `serve_tcp` daemon on a loopback port, serving
/// `registry` with `cache`, and shuts the daemon down afterwards. `body`
/// gets the daemon's address once it has answered a `ping`.
pub fn with_daemon<R>(
    registry: &WorkloadRegistry,
    cache: &ResultCache,
    body: impl FnOnce(&str) -> R,
) -> Result<R, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    // Connect before the accept loop starts: the connection waits in the
    // backlog and is accepted on the loop's first pass, instead of after
    // one of its 25 ms idle sleeps.
    let probe = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"));
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_tcp(listener, registry, Some(cache)));
        let result = probe.and_then(ping).map(|()| body(&addr));
        let stopped = shutdown_tcp(&addr);
        let served = server.join();
        let result = result?;
        stopped?;
        match served {
            Ok(Ok(())) => Ok(result),
            Ok(Err(e)) => Err(format!("serve_tcp: {e}")),
            Err(_) => Err("serve_tcp panicked".to_string()),
        }
    })
}

/// Drives the daemon at `addr` with one closed-loop client per entry of
/// `plan`: client `c` submits `daemon_campaign(seed)` for each seed of
/// `plan[c]`, one after another. Returns each client's submissions and
/// the wall time of the whole plan.
pub fn drive(addr: &str, plan: &[Vec<u64>], scale: Scale) -> (Vec<Vec<Submitted>>, Duration) {
    let start = Instant::now();
    let submissions = std::thread::scope(|scope| {
        let clients: Vec<_> = plan
            .iter()
            .map(|seeds| {
                scope.spawn(move || {
                    seeds
                        .iter()
                        .map(|&seed| submit(addr, &daemon_campaign(seed, scale), SUBMIT_DEADLINE))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client threads do not panic"))
            .collect()
    });
    (submissions, start.elapsed())
}
