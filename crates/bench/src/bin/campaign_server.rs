//! The campaign daemon: a resumable, cache-keyed sweep service over the
//! paper's applications.
//!
//! Accepts line-delimited JSON requests (`ping`, `workloads`, `submit`,
//! `shutdown`) over stdin/stdout (the default, for piping and tests) or
//! TCP (`--listen HOST:PORT`). Campaigns execute on one process-wide
//! FIFO [`Scheduler`] sized to the host. In TCP mode concurrent clients
//! share one pool instead of oversubscribing the machine with
//! per-connection pools, and its run queue starts chunks in submission
//! order, so no connection starves. Submitted
//! campaigns name their workloads declaratively; the daemon resolves them
//! against [`paper_registry`], executes the grid across worker threads,
//! and streams one `cell` event per finished cell followed by a `done`
//! event carrying the full CSV/JSON documents — byte-identical to what an
//! in-process run of the same spec would emit, whatever the pool width or
//! schedule.
//!
//! With `--cache-dir PATH` every finished cell is checkpointed to a
//! content-addressed on-disk store *before* it is reported, keyed by a
//! hash of everything that determines its trials. Kill the daemon
//! mid-grid (SIGKILL included) and resubmit after restart: hash-hit cells
//! replay from disk and only the missing remainder runs, with output
//! byte-identical to an uninterrupted run.

#![forbid(unsafe_code)]
use robustify_bench::workloads::paper_registry;
use robustify_engine::campaign::{protocol, ResultCache};
use robustify_engine::Scheduler;
use std::net::TcpListener;

fn usage(msg: &str) -> ! {
    eprintln!("{msg}\nusage: campaign_server [--listen HOST:PORT | --stdio] [--cache-dir PATH]");
    std::process::exit(2)
}

fn fail(msg: String) -> ! {
    eprintln!("campaign_server: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut listen: Option<String> = None;
    let mut stdio = false;
    let mut cache_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => {
                listen = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--listen needs an address (host:port)")),
                )
            }
            "--stdio" => stdio = true,
            "--cache-dir" => {
                cache_dir = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--cache-dir needs a directory path")),
                )
            }
            "--help" | "-h" => usage("the resumable campaign daemon"),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if listen.is_some() && stdio {
        usage("--listen and --stdio are mutually exclusive");
    }

    let registry = paper_registry();
    let cache = cache_dir.map(|dir| {
        ResultCache::open(&dir).unwrap_or_else(|e| fail(format!("--cache-dir {dir}: {e}")))
    });
    let cache_note = cache
        .as_ref()
        .map(|c| format!("cache {} ({} cells)", c.dir().display(), c.len()))
        .unwrap_or_else(|| "no cache (results are not persisted)".to_string());

    match listen {
        Some(addr) => {
            let listener =
                TcpListener::bind(&addr).unwrap_or_else(|e| fail(format!("bind {addr}: {e}")));
            let local = listener.local_addr().map(|a| a.to_string()).unwrap_or(addr);
            eprintln!(
                "[campaign_server listening on {local}; workloads: {}; {cache_note}]",
                registry.names().join(", ")
            );
            protocol::serve_tcp(listener, &registry, cache.as_ref())
                .unwrap_or_else(|e| fail(format!("serve: {e}")));
            eprintln!("[campaign_server: shutdown requested, bye]");
        }
        None => {
            eprintln!(
                "[campaign_server on stdio; workloads: {}; {cache_note}]",
                registry.names().join(", ")
            );
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut reader = stdin.lock();
            let mut writer = stdout.lock();
            Scheduler::new(0)
                .scoped(|pool| {
                    protocol::serve_connection(
                        &mut reader,
                        &mut writer,
                        &registry,
                        cache.as_ref(),
                        pool,
                    )
                })
                .unwrap_or_else(|e| fail(format!("serve: {e}")));
        }
    }
}
