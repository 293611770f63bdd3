//! ROADMAP item 3's closing scope: a billion-node utsgen sweep proving
//! the O(stack) memory claim at a tree size where it actually binds.
//!
//! `find_gen_tree` sizes a geometric generator to ≥ 10⁹ realized nodes
//! (one serial-DFS probe per candidate seed — this alone walks a billion
//! nodes, which is why the test is `#[ignore]`d into the release CI
//! tier). The sweep then runs the macro engine and the multi-threaded
//! par engine over the same tree, asserts bit-identical outcomes and the
//! 64 KiB/PE resident ceiling, and records peak stack nodes and resident
//! bytes per PE into `BENCH_workloads.json` under a `"sweep_1e9"` key
//! (replacing any previous sweep section, so reruns stay idempotent).

use std::fmt::Write as _;
use std::time::Instant;

use uts_core::{run_with, EngineConfig, EngineKind, Scheme};
use uts_machine::CostModel;
use uts_serve::outcome_digest;
use uts_synthgen::{find_gen_tree, GenFamily, GenNode};

/// Same per-PE resident ceiling `bench_workloads --check` enforces.
const MEM_CEILING_BYTES_PER_PE: usize = 64 * 1024;

/// Target above 10⁹ so the realized tree clears a billion nodes even on
/// the low side of the tolerance band.
const TARGET_NODES: u64 = 1_400_000_000;

#[test]
#[ignore = "walks several billion nodes (sizing probe + two engine legs); release CI tier"]
fn billion_node_sweep_stays_in_stack_memory() {
    eprintln!("sizing a >= 1e9-node geometric tree (serial probes)...");
    let sized = find_gen_tree(TARGET_NODES, 0.3, 4);
    assert!(
        sized.w >= 1_000_000_000,
        "sized tree has {} nodes; the sweep needs a full billion",
        sized.w
    );
    eprintln!("tree: {} nodes (seed {})", sized.w, sized.tree.seed);

    let p = 4096;
    let node_bytes = std::mem::size_of::<GenNode>();
    let cfg = EngineConfig::new(p, Scheme::gp_dk(), CostModel::cm2());
    let legs: [(&str, EngineConfig, usize); 2] = [
        ("macro", cfg.clone(), 1),
        ("par4", cfg.clone().with_engine(EngineKind::Par).with_threads(4), 4),
    ];

    let mut rows = String::new();
    let mut digests = Vec::new();
    for (i, (engine, leg_cfg, threads)) in legs.into_iter().enumerate() {
        let t0 = Instant::now();
        let out = run_with(&sized.tree, &leg_cfg);
        let seconds = t0.elapsed().as_secs_f64();
        assert!(!out.truncated, "{engine}: sweep must run to completion");
        assert_eq!(out.report.nodes_expanded, sized.w, "{engine}: anomaly-free contract");
        let resident = out.peak_stack_nodes * node_bytes;
        eprintln!(
            "{engine:<6} P={p} t={threads} {seconds:>8.3} s  peak {} nodes ({resident} B/PE)",
            out.peak_stack_nodes
        );
        assert!(
            resident <= MEM_CEILING_BYTES_PER_PE,
            "{engine}: {resident} B/PE breaks the O(stack) ceiling on a 1e9-node tree"
        );
        let digest = outcome_digest(&out);
        digests.push(digest);
        let comma = if i == 0 { "," } else { "" };
        let _ = writeln!(
            rows,
            "    {{\"engine\": \"{engine}\", \"host_threads\": {threads}, \
             \"seconds\": {seconds:.6}, \"nodes_per_sec\": {:.1}, \
             \"peak_stack_nodes\": {}, \"resident_bytes_per_pe\": {resident}, \
             \"outcome_fnv\": \"{digest:#018x}\"}}{comma}",
            sized.w as f64 / seconds,
            out.peak_stack_nodes,
        );
    }
    assert!(digests.windows(2).all(|w| w[0] == w[1]), "engines disagree at 1e9 nodes");

    let GenFamily::Geometric { b_max, depth_limit } = sized.tree.family else {
        panic!("find_gen_tree returns geometric trees");
    };
    let mut section = String::new();
    let _ = writeln!(
        section,
        ",\n  \"sweep_1e9\": {{\n    \"target_nodes\": {TARGET_NODES},\n    \
         \"tree\": {{\"family\": \"geometric\", \"seed\": {}, \"b_max\": {b_max}, \
         \"depth_limit\": {depth_limit}}},\n    \
         \"nodes\": {},\n    \"p\": {p},\n    \"node_bytes\": {node_bytes},\n    \
         \"mem_ceiling_bytes_per_pe\": {MEM_CEILING_BYTES_PER_PE},\n    \"legs\": [",
        sized.tree.seed, sized.w
    );
    section.push_str(&rows);
    section.push_str("  ]}\n}\n");

    // Merge into BENCH_workloads.json next to the other workload legs:
    // truncate at a previous sweep section (always written last) or at
    // the closing brace, then append ours.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_workloads.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|_| "{\n  \"bench\": \"workloads\"\n}\n".to_string());
    let mut merged = match text.find(",\n  \"sweep_1e9\"") {
        Some(i) => text[..i].to_string(),
        None => {
            let t = text.trim_end().strip_suffix('}').expect("a JSON object").trim_end();
            t.to_string()
        }
    };
    merged.push_str(&section);
    std::fs::write(path, merged).expect("write BENCH_workloads.json");
    eprintln!("recorded sweep_1e9 into {path}");
}
