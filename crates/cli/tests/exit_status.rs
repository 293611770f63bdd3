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

#[test]
fn an_unwritable_checkpoint_dir_is_a_run_failure_on_every_command() {
    let dir = std::env::temp_dir().join(format!("sts-exit-ckpt-{}", std::process::id()));
    let workload = ["--seed", "7", "--walk", "14", "--p", "8"];
    let ckpt = dir.to_str().expect("utf-8 temp path");
    let checkpointing = ["--checkpoint-dir", ckpt, "--checkpoint-every", "1", "--kill-at", "2"];
    let first = sts(&[&["run"], &workload[..], &checkpointing[..]].concat());
    assert_eq!(first.status.code(), Some(0), "{}", String::from_utf8_lossy(&first.stderr));
    let snapshot = dir.join("ckpt-00000002.bin");
    let snapshot = snapshot.to_str().expect("utf-8 temp path");
    let unwritable = ["--checkpoint-dir", "/dev/null/x", "--checkpoint-every", "1"];
    for (cmd, own) in
        [("run", &[][..]), ("resume", &["--snapshot", snapshot][..]), ("shard", &[][..])]
    {
        let out = sts(&[&[cmd], &workload[..], &unwritable[..], own].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(stderr.starts_with("error: --checkpoint-dir /dev/null/x"), "{cmd}: {stderr}");
        assert!(!stderr.contains("USAGE:"), "{cmd}: {stderr}");
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
        assert!(out.stdout.is_empty(), "{cmd}: nothing ran");
    }
    std::fs::remove_dir_all(&dir).ok();
}
