//! The parallel-scaling floor: on a host with at least four cores, the
//! par engine at one worker per core must run the deep d10 geometric tree
//! at P = 8192 at least 2.0× as fast as the one-thread macro engine. The
//! d10 tree's long event horizons are what let the fanned-out burst phase
//! amortise its fan-out.
//!
//! `#[ignore]`d because it needs four cores and an optimised build:
//!
//! ```text
//! cargo test --release -p uts-bench --test par_scaling -- --ignored
//! ```
//!
//! On a host with fewer than four cores the test fails rather than pass
//! vacuously.

use std::time::Instant;

use uts_core::{run_with, EngineConfig, EngineKind, Outcome, Scheme};
use uts_machine::CostModel;
use uts_synth::GeometricTree;

/// Run `f` repeatedly until `budget_s` seconds elapse and return the
/// minimum seconds per run. Interference on a shared host only ever slows
/// a run down, so the minimum estimates the uncontended cost. A quarter of
/// the budget is spent on untimed warm-up first, so the leg measured
/// first does not pay the frequency ramp and cold caches.
fn min_seconds(mut f: impl FnMut() -> Outcome, budget_s: f64) -> f64 {
    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < budget_s * 0.25 {
        f();
    }
    let start = Instant::now();
    let mut best = f64::INFINITY;
    while start.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

#[test]
#[ignore = "needs >= 4 cores and a release build; run with --ignored"]
fn par_runs_the_deep_tree_at_least_twice_as_fast_as_macro() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(cores >= 4, "the scaling floor needs >= 4 cores; this host has {cores}");

    let tree = GeometricTree { seed: 2, b_max: 8, depth_limit: 10 };
    let cfg = EngineConfig::new(8192, Scheme::gp_dk(), CostModel::cm2());
    let par = cfg.clone().with_engine(EngineKind::Par).with_threads(cores);
    let macro_s = min_seconds(|| run_with(&tree, &cfg), 1.0);
    let par_s = min_seconds(|| run_with(&tree, &par), 1.0);
    let speedup = macro_s / par_s;
    eprintln!(
        "d10 P=8192: macro {macro_s:.4} s, par ({cores} workers) {par_s:.4} s: {speedup:.2}x"
    );
    assert!(speedup >= 2.0, "par {speedup:.2}x macro with {cores} workers; the floor is 2.0x");
}
