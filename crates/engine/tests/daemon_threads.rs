//! A finished connection must give back its handler thread. An unjoined
//! thread keeps its stack mapped, so a daemon that holds every handler
//! until shutdown grows by two memory mappings per connection ever
//! served. This test sits alone in its file so that no test running in
//! parallel adds mappings of its own.
#![cfg(target_os = "linux")]

use robustify_core::WorkloadRegistry;
use robustify_engine::campaign::protocol::{serve_tcp, shutdown_tcp};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

fn ping(addr: &str) {
    let stream = TcpStream::connect(addr).expect("connect");
    (&stream)
        .write_all(b"{\"op\":\"ping\"}\n")
        .expect("send ping");
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .expect("read pong");
    assert_eq!(line, "{\"event\":\"pong\"}\n");
}

fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

#[test]
fn finished_connections_release_their_threads() {
    let registry = WorkloadRegistry::new();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_tcp(listener, &registry, None));
        // Warm-up: the pool, the allocator's arenas and the thread-stack
        // cache reach their steady state.
        for _ in 0..16 {
            ping(&addr);
        }
        let before = mappings();
        for _ in 0..64 {
            ping(&addr);
        }
        let grown = mappings().saturating_sub(before);
        shutdown_tcp(&addr).expect("shutdown");
        server.join().expect("server thread").expect("serve_tcp");
        assert!(
            grown < 32,
            "64 finished connections grew /proc/self/maps by {grown} lines"
        );
    });
}
