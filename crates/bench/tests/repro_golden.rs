//! Goldens: each `repro` section under `--quick` prints exactly the
//! committed fixture. The numbers are simulated quantities, deterministic
//! per build, so any moved digit is a change to the schedule of some scheme
//! and must be explained, not regenerated.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run `repro` with `args` in a fresh working directory of its own:
/// `figures` writes its SVG and CSV files under `results/` there.
fn repro(name: &str, args: &[&str]) -> Output {
    let dir: PathBuf = std::env::temp_dir().join(format!("repro-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the working directory");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run the repro binary");
    std::fs::remove_dir_all(&dir).ok();
    out
}

fn assert_golden(name: &str, args: &[&str], want: &str) {
    let out = repro(name, args);
    assert!(out.status.success(), "{args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
    let got = String::from_utf8(out.stdout).expect("utf-8 output");
    if got != want {
        let first = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        panic!(
            "{args:?} moved (first differing line {first:?}):\n--- got\n{got}\n--- want\n{want}"
        );
    }
}

#[test]
fn ablation_quick_matches_the_golden_byte_for_byte() {
    assert_golden(
        "ablation",
        &["ablation", "all", "--quick"],
        include_str!("fixtures/ablation_quick.txt"),
    );
}

#[test]
fn bounds_quick_matches_the_golden_byte_for_byte() {
    assert_golden("bounds", &["bounds", "--quick"], include_str!("fixtures/bounds_quick.txt"));
}

#[test]
fn anomalies_quick_matches_the_golden_byte_for_byte() {
    assert_golden(
        "anomalies",
        &["anomalies", "--quick"],
        include_str!("fixtures/anomalies_quick.txt"),
    );
}

#[test]
fn routing_quick_matches_the_golden_byte_for_byte() {
    assert_golden("routing", &["routing", "--quick"], include_str!("fixtures/routing_quick.txt"));
}

#[test]
fn mimd_compare_quick_matches_the_golden_byte_for_byte() {
    assert_golden(
        "mimd",
        &["mimd", "compare", "--quick"],
        include_str!("fixtures/mimd_compare_quick.txt"),
    );
}

#[test]
fn tables_ledger_quick_matches_the_golden_byte_for_byte() {
    assert_golden(
        "ledger",
        &["tables", "ledger", "--quick"],
        include_str!("fixtures/tables_ledger_quick.txt"),
    );
}

#[test]
#[ignore = "tables and figures take ~10 min unoptimised; run with --release --include-ignored"]
fn repro_all_quick_matches_the_golden_byte_for_byte() {
    assert_golden("all", &["all", "--quick"], include_str!("fixtures/repro_all_quick.txt"));
}

#[test]
fn an_unknown_section_or_part_exits_2_with_the_section_list() {
    for args in [&["tabels"][..], &["tables", "table7"], &["all", "table1"], &["mimd", "iso", "x"]]
    {
        let out = repro("unknown", args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let err = String::from_utf8_lossy(&out.stderr);
        for section in
            ["all", "tables", "figures", "ablation", "bounds", "routing", "anomalies", "mimd"]
        {
            assert!(err.contains(&format!("\n  {section} ")), "{args:?}: no `{section}` in\n{err}");
        }
    }
}
