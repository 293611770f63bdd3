//! How the `sts` binary exits: a malformed command line prints the usage
//! and exits 2; a well-formed command that fails while running prints
//! `error: …` alone and exits 1.

use std::process::{Command, Output};

fn sts(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sts")).args(args).output().expect("sts starts")
}

#[test]
fn a_refused_snapshot_is_a_run_failure_not_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("sts-exit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let garbage = dir.join("garbage.bin");
    std::fs::write(&garbage, b"not a snapshot at all").unwrap();
    let path = garbage.to_str().expect("utf-8 temp path");
    let out = sts(&["resume", "--seed", "7", "--walk", "14", "--p", "8", "--snapshot", path]);
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: "), "{stderr}");
    assert!(!stderr.contains("USAGE:"), "{stderr}");
    assert!(out.stdout.is_empty(), "no report for a refused snapshot");
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    let out = sts(&["run", "--bogus", "1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("error: unknown flag --bogus"), "{stderr}");
    assert!(stderr.contains("USAGE:"), "{stderr}");
}
