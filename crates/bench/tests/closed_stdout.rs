//! An experiment binary whose reader goes away early (`| head`) must exit
//! quietly with code 0 instead of panicking on the broken pipe.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_exits_quietly() {
    // `ch7_flop_overhead --fast` runs a whole campaign (well over 100 ms)
    // before its first write, so the pipe is closed by then.
    let mut child = Command::new(env!("CARGO_BIN_EXE_ch7_flop_overhead"))
        .args(["--fast", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ch7_flop_overhead");
    drop(child.stdout.take());
    let out = child
        .wait_with_output()
        .expect("wait for ch7_flop_overhead");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
}
