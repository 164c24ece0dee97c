//! `--help` / `-h` is a request, not a malformed flag: an experiment
//! binary prints its usage line on stdout and exits 0, while an unknown
//! flag, or a flag the binary does not support, exits 2 with the usage
//! line on stderr.

use std::process::{Command, Output};

fn run(bin: &str, flag: &str) -> Output {
    Command::new(bin)
        .arg(flag)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = run(env!("CARGO_BIN_EXE_fig6_6_cg_accuracy"), flag);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert!(
            stdout.starts_with("usage: <experiment>"),
            "{flag}: {stdout}"
        );
        assert!(out.stderr.is_empty(), "{flag} wrote to stderr");
    }
}

#[test]
fn unknown_flag_exits_two() {
    let out = run(env!("CARGO_BIN_EXE_fig6_6_cg_accuracy"), "--nope");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr.contains("unknown flag --nope") && stderr.contains("usage: "));
}

#[test]
fn fig6_7_rejects_server_before_connecting() {
    // Port 1 has no daemon: a connect attempt would exit 1, not 2.
    let out = Command::new(env!("CARGO_BIN_EXE_fig6_7_cg_energy"))
        .args(["--fast", "--server", "127.0.0.1:1"])
        .output()
        .expect("spawn fig6_7_cg_energy");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("runs locally only") && stderr.contains("usage: "));
    assert!(out.stdout.is_empty());
}
