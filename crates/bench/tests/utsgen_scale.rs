//! Release-tier proofs of the O(stack) memory claim on generated
//! (`uts-synthgen`) trees, at sizes where it binds: a node set of 10⁸ or
//! 10⁹ 16-byte nodes would need gigabytes if it were materialised, while
//! every leg here must stay under [`MEM_CEILING_BYTES_PER_PE`] of live
//! node frames per PE. Each test walks hundreds of millions of nodes, so
//! both are `#[ignore]`d:
//!
//! ```text
//! cargo test --release -p uts-bench --test utsgen_scale -- --ignored
//! ```
//!
//! Every leg must also expand exactly the serial node count `W` and
//! finish with the same whole [`Outcome`](uts_core::Outcome) as the
//! first leg. Each leg's wall time, peak stack and resident bytes per PE
//! go to stderr as provenance; nothing is written to disk.

use std::time::Instant;

use uts_ckpt::{CheckpointPolicy, FaultPlan};
use uts_core::{run, run_from, run_with, EngineConfig, EngineKind, Outcome, Scheme};
use uts_machine::CostModel;
use uts_synthgen::{find_gen_tree, GenNode, GenTree};
use uts_tree::serial_dfs;

/// Per-PE resident ceiling (bytes of live node frames): far above any
/// measured peak, and ~10⁵× below the materialised node set of the
/// 10⁸-node tree.
const MEM_CEILING_BYTES_PER_PE: usize = 64 * 1024;

/// Run one leg and hold it to the anomaly-free contract, the resident
/// ceiling and, from the second leg on, the first leg's outcome; print
/// its row to stderr.
fn leg(label: &str, name: &str, w: u64, first: &mut Option<Outcome>, f: impl FnOnce() -> Outcome) {
    let t0 = Instant::now();
    let out = f();
    let seconds = t0.elapsed().as_secs_f64();
    assert!(!out.killed, "{label} {name}: must run to completion");
    assert_eq!(out.report.nodes_expanded, w, "{label} {name}: anomaly-free contract");
    let resident = out.peak_stack_nodes * std::mem::size_of::<GenNode>();
    eprintln!(
        "{label:<9} {name:<9} {seconds:>8.3} s  {:>12.0} nodes/s  peak {:>5} nodes ({resident} B/PE)",
        w as f64 / seconds,
        out.peak_stack_nodes
    );
    assert!(
        resident <= MEM_CEILING_BYTES_PER_PE,
        "{label} {name}: {resident} B/PE breaks the {MEM_CEILING_BYTES_PER_PE} B/PE ceiling"
    );
    match first {
        None => *first = Some(out),
        Some(want) => assert!(out == *want, "{label} {name}: outcome diverged from the first leg"),
    }
}

/// A ≥ 10⁸-node geometric tree and a binomial tree whose 2,000-child
/// root lands on one stack before balancing, each at P = 1024 under the
/// reference oracle, the macro engine and par at 1, 2 and 8 threads,
/// plus one macro run killed at a boundary and resumed from its last
/// periodic snapshot.
#[test]
#[ignore = "walks ~10^9 nodes (sizing probes + six legs); release tier"]
fn every_engine_and_a_resume_agree_on_a_1e8_node_tree() {
    eprintln!("sizing a >= 1e8-node geometric tree (serial probes)...");
    let geo = find_gen_tree(120_000_000, 0.15, 24);
    assert!(geo.w >= 100_000_000, "sized tree has only {} nodes", geo.w);
    // b0 bounds the root burst, so it must itself fit the ceiling; the
    // size comes from pushing q·m toward 1 instead.
    let bin = GenTree::binomial(9, 2_000, 4, 0.2475);
    let bin_w = serial_dfs(&bin).expanded;

    for (label, tree, w, kill_at, every) in
        [("geo-1e8", geo.tree, geo.w, 64, 32), ("bin", bin, bin_w, 16, 8)]
    {
        eprintln!("{label}: {w} nodes (seed {}), P = 1024", tree.seed);
        let cfg = EngineConfig::new(1024, Scheme::gp_dk(), CostModel::cm2());
        let par = |threads| cfg.clone().with_engine(EngineKind::Par).with_threads(threads);
        let legs = [
            ("reference", cfg.clone().with_engine(EngineKind::Reference)),
            ("macro", cfg.clone()),
            ("par1", par(1)),
            ("par2", par(2)),
            ("par8", par(8)),
        ];
        let mut first = None;
        for (name, leg_cfg) in legs {
            leg(label, name, w, &mut first, || run_with(&tree, &leg_cfg));
        }

        let armed = cfg
            .clone()
            .with_checkpoint(CheckpointPolicy::every(every))
            .with_fault(FaultPlan::kill_at(kill_at));
        assert!(run(&tree, &armed).killed, "{label}: the kill at boundary {kill_at} lands mid-run");
        let snaps = armed.checkpoint.as_ref().expect("armed").sink.taken();
        let last = snaps.last().expect("the periodic policy snapshots before the kill");
        leg(label, "resume", w, &mut first, || {
            run_from(&tree, &cfg, Some(&last.bytes)).expect("own snapshot resumes")
        });
    }
}

/// Target above 10⁹ so the realised tree clears a billion nodes even on
/// the low side of the tolerance band.
const TARGET_NODES: u64 = 1_400_000_000;

/// A ≥ 10⁹-node geometric tree (one serial-DFS probe per candidate seed
/// alone walks a billion nodes) through the macro engine and par at 4
/// threads.
#[test]
#[ignore = "walks several billion nodes (sizing probe + two engine legs); release tier"]
fn billion_node_sweep_stays_in_stack_memory() {
    eprintln!("sizing a >= 1e9-node geometric tree (serial probes)...");
    let sized = find_gen_tree(TARGET_NODES, 0.3, 4);
    assert!(
        sized.w >= 1_000_000_000,
        "sized tree has {} nodes; the sweep needs a full billion",
        sized.w
    );
    eprintln!("sweep-1e9: {} nodes (seed {}), P = 4096", sized.w, sized.tree.seed);

    let cfg = EngineConfig::new(4096, Scheme::gp_dk(), CostModel::cm2());
    let legs = [
        ("macro", cfg.clone()),
        ("par4", cfg.clone().with_engine(EngineKind::Par).with_threads(4)),
    ];
    let mut first = None;
    for (name, leg_cfg) in legs {
        leg("sweep-1e9", name, sized.w, &mut first, || run_with(&sized.tree, &leg_cfg));
    }
}
