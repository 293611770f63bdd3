//! Smoke tests of the CLI command implementations (called directly — the
//! binary shim adds nothing but dispatch).

use uts_cli::{commands, CliError, Flags};

fn flags(pairs: &[&str]) -> Flags {
    Flags::parse(pairs).expect("test flags parse")
}

#[test]
fn solve_small_scramble() {
    commands::solve(&flags(&["--seed", "7", "--walk", "14"])).expect("solve");
}

#[test]
fn run_small_simd() {
    commands::run_simd(&flags(&[
        "--seed", "7", "--walk", "20", "--p", "32", "--scheme", "gp-s:0.7",
    ]))
    .expect("run");
}

#[test]
fn run_rejects_bad_scheme() {
    let err = commands::run_simd(&flags(&["--scheme", "wat"])).unwrap_err();
    assert!(matches!(&err, CliError::Usage(e) if e.contains("unknown scheme")), "{err:?}");
}

#[test]
fn run_kill_then_resume_round_trips() {
    let dir = std::env::temp_dir().join(format!("sts-ckpt-cli-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dir_s = dir.to_str().expect("utf-8 temp path").to_string();
    let base =
        ["--seed", "7", "--walk", "20", "--p", "32", "--scheme", "gp-dk", "--ledger", "true"];

    // A checkpointing run killed at boundary 3 (snapshot lands first).
    let mut killed: Vec<&str> = base.to_vec();
    killed.extend_from_slice(&[
        "--checkpoint-dir",
        &dir_s,
        "--checkpoint-every",
        "1",
        "--kill-at",
        "3",
    ]);
    commands::run_simd(&flags(&killed)).expect("killed run");
    let snap = dir.join("ckpt-00000003.bin");
    assert!(snap.exists(), "snapshot written at the kill boundary");
    let snap_s = snap.to_str().expect("utf-8 snapshot path").to_string();

    // Resume under the same flags completes the search.
    let mut resumed: Vec<&str> = base.to_vec();
    resumed.extend_from_slice(&["--snapshot", &snap_s]);
    commands::run_simd(&flags(&resumed)).expect("resume");

    // Resume under a different config is rejected by the fingerprint.
    let wrong_p =
        ["--seed", "7", "--walk", "20", "--p", "64", "--scheme", "gp-dk", "--snapshot", &snap_s];
    let err = commands::run_simd(&flags(&wrong_p)).unwrap_err();
    assert!(
        matches!(&err, CliError::Failed(e) if e.contains("different configuration")),
        "{err:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_checkpoint_every_requires_a_dir() {
    let err = commands::run_simd(&flags(&[
        "--seed",
        "7",
        "--walk",
        "14",
        "--p",
        "8",
        "--checkpoint-every",
        "2",
    ]))
    .unwrap_err();
    assert!(matches!(&err, CliError::Usage(e) if e.contains("--checkpoint-dir")), "{err:?}");
}

#[test]
fn mimd_small() {
    commands::run_mimd_cmd(&flags(&["--seed", "7", "--walk", "18", "--p", "16"])).expect("mimd");
}

#[test]
fn mimd_rejects_bad_policy() {
    let err = commands::run_mimd_cmd(&flags(&["--policy", "psychic"])).unwrap_err();
    assert!(matches!(&err, CliError::Usage(e) if e.contains("unknown policy")), "{err:?}");
}

#[test]
fn xo_requires_w() {
    assert!(commands::xo(&flags(&[])).is_err());
    commands::xo(&flags(&["--w", "941852", "--p", "8192"])).expect("xo");
}

/// A misspelt flag is an error naming it, returned before the command
/// searches, spawns a shard fleet or binds a server: without the check,
/// `serve` would never return and `shard` would start worker processes.
#[test]
fn every_command_rejects_a_misspelt_flag() {
    type Command = fn(&Flags) -> Result<(), CliError>;
    let cases: [(Command, &[&str], &str); 7] = [
        (commands::solve, &["--seed", "7", "--wlak", "14"], "--wlak"),
        (commands::run_simd, &["--sheme", "fegs", "--threads", "2", "--p", "64"], "--sheme"),
        (commands::run_simd, &["--snapshto", "ckpt.bin"], "--snapshto"),
        (commands::shard, &["--p", "32", "--shard", "2"], "--shard"),
        (commands::run_mimd_cmd, &["--p", "16", "--polcy", "rp"], "--polcy"),
        (commands::xo, &["--w", "941852", "--rato", "0.5"], "--rato"),
        (commands::serve, &["--addr", "127.0.0.1:0", "--slot", "1"], "--slot"),
    ];
    for (command, args, misspelt) in cases {
        let err = command(&flags(args)).expect_err(misspelt);
        assert_eq!(err, CliError::Usage(format!("unknown flag {misspelt}")), "{args:?}");
    }
}
