//! Golden run-report test (quick tier): the JSON run-report of a fixed
//! `(problem, config)` must match `tests/fixtures/run_report.json`
//! byte-for-byte. This pins three things at once: the report schema
//! (field names and layout), the lockstep schedule (any engine change that
//! moves a balancing phase shows up as a diff in the provenance rows), and
//! the ⌊x·P⌋ / cost-breakdown arithmetic embedded in the values.
//!
//! To regenerate after an *intentional* schema or schedule change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test run_report
//! ```
//!
//! and review the diff like any other code change.
//!
//! The same case's [`outcome_digest`] is pinned as a literal: it moves
//! only with the schedule or with a deliberate `DIGEST_VERSION` change.

use simd_tree_search::prelude::*;
use simd_tree_search::synth::GeometricTree;

fn golden_case() -> (GeometricTree, EngineConfig) {
    let tree = GeometricTree { seed: 11, b_max: 8, depth_limit: 6 };
    // GP-D^K exercises the init phase, dynamic provenance and multi-round
    // transfers; P = 64 keeps the ledger phases reviewable in a diff.
    let cfg = EngineConfig::new(64, Scheme::gp_dk(), CostModel::cm2()).with_ledger();
    (tree, cfg)
}

#[test]
fn run_report_matches_the_golden_fixture() {
    let (tree, cfg) = golden_case();
    let got = run_report_json(&cfg, &run(&tree, &cfg));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/run_report.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write golden fixture");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden fixture exists");
    assert_eq!(
        got, golden,
        "run-report drifted from tests/fixtures/run_report.json; if the \
         change is intentional, regenerate with UPDATE_GOLDEN=1 and review"
    );
}

#[test]
fn golden_fixture_is_engine_invariant() {
    // The fixture is not a macro-engine artifact: every engine renders it.
    let (tree, cfg) = golden_case();
    let baseline = run_report_json(&cfg, &run_reference(&tree, &cfg));
    for kind in [EngineKind::Macro, EngineKind::Par] {
        let c = cfg.clone().with_engine(kind);
        assert_eq!(run_report_json(&c, &run_with(&tree, &c)), baseline, "{}", kind.name());
    }
}

#[test]
fn golden_case_digest_is_pinned() {
    let (tree, cfg) = golden_case();
    let digest = format!("{:#018x}", outcome_digest(&run(&tree, &cfg)));
    assert_eq!(digest, "0xd6b2f4c2e8fa1763", "the golden case's digest moved");
}
