//! Golden: `ablation all --quick` prints exactly the committed table. The
//! ablation numbers are simulated quantities, deterministic per build, so
//! any moved digit is a change to the schedule of some scheme and must be
//! explained, not regenerated.

use std::process::Command;

#[test]
fn ablation_quick_matches_the_golden_byte_for_byte() {
    let out = Command::new(env!("CARGO_BIN_EXE_ablation"))
        .args(["all", "--quick"])
        .output()
        .expect("run the ablation binary");
    assert!(out.status.success(), "ablation failed: {}", String::from_utf8_lossy(&out.stderr));
    let got = String::from_utf8(out.stdout).expect("utf-8 output");
    let want = include_str!("fixtures/ablation_quick.txt");
    if got != want {
        let first = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        panic!(
            "ablation --quick moved (first differing line {first:?}):\n--- got\n{got}\n--- want\n{want}"
        );
    }
}
