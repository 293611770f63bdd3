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
    let out = sts(&["run", "--seed", "7", "--walk", "14", "--p", "8", "--snapshot", path]);
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: "), "{stderr}");
    assert!(!stderr.contains("USAGE:"), "{stderr}");
    assert!(out.stdout.is_empty(), "no report for a refused snapshot");
}

/// A misspelt flag, and a machine of no processors on every command that
/// runs one, straight or resumed: refused before anything runs.
#[test]
fn a_malformed_command_line_is_a_usage_error() {
    let p0 = ["--seed", "7", "--walk", "14", "--p", "0"];
    let cases: [(&[&str], &str); 5] = [
        (&["run", "--bogus", "1"], "error: unknown flag --bogus"),
        (&[&["run"], &p0[..]].concat(), "error: --p 0"),
        (&[&["run", "--snapshot", "ckpt.bin"], &p0[..]].concat(), "error: --p 0"),
        (&[&["shard"], &p0[..]].concat(), "error: --p 0"),
        (&[&["shard", "--snapshot", "ckpt.bin"], &p0[..]].concat(), "error: --p 0"),
    ];
    for (args, error) in cases {
        let out = sts(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(error), "{args:?}: {stderr}");
        assert!(stderr.contains("USAGE:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// A checkpoint directory that cannot be created stops every command before
/// it runs; one whose boundary-2 file is blocked by a directory of that name
/// stops it at the failed write, on every engine, straight or resumed.
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
    for own in [&["run"][..], &["run", "--snapshot", snapshot][..], &["shard"][..]] {
        let out = sts(&[own, &workload[..], &unwritable[..]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{own:?}: {stderr}");
        assert!(stderr.starts_with("error: --checkpoint-dir /dev/null/x"), "{own:?}: {stderr}");
        assert!(!stderr.contains("USAGE:"), "{own:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{own:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{own:?}: nothing ran");
    }

    // The directory exists, but boundary 2's file name is taken by a
    // directory: the run starts and fails at that write. The resumed leg
    // starts from boundary 1, so boundary 2 is its first write.
    let blocked = dir.join("blocked");
    std::fs::create_dir_all(blocked.join("ckpt-00000002.bin")).unwrap();
    let blocked = blocked.to_str().expect("utf-8 temp path");
    let first = dir.join("ckpt-00000001.bin");
    let first = first.to_str().expect("utf-8 temp path");
    let writing = ["--checkpoint-dir", blocked, "--checkpoint-every", "1"];
    for own in [
        &["run", "--engine", "macro"][..],
        &["run", "--engine", "par"][..],
        &["run", "--engine", "reference"][..],
        &["run", "--snapshot", first][..],
        &["shard", "--shards", "2"][..],
    ] {
        let out = sts(&[own, &workload[..], &writing[..]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{own:?}: {stderr}");
        assert!(stderr.starts_with("error: checkpoint: "), "{own:?}: {stderr}");
        assert!(stderr.contains("ckpt-00000002.bin"), "{own:?}: {stderr}");
        assert!(!stderr.contains("USAGE:"), "{own:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{own:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{own:?}: no report for a failed run");
    }
    std::fs::remove_dir_all(&dir).ok();
}
