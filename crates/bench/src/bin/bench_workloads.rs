//! Workload-family harness for the on-the-fly generators (`uts-synthgen`):
//! proves the O(stack)-memory claim with numbers and pins bit-identity of
//! the generated families across every execution mode. Writes
//! `BENCH_workloads.json` (current directory).
//!
//! ```text
//! cargo run --release -p uts-bench --bin bench_workloads -- [--quick] [--check] [--out PATH]
//! ```
//!
//! Two workloads run per mode: a geometric tree sized by closed-form
//! target search (`find_gen_tree`) — in full mode at least 10^8 nodes —
//! and a subcritical binomial tree. Each workload runs once per leg:
//! reference, macro, and the par engine pinned to 1, 2 and 8
//! workers, plus one kill→resume cycle on the macro engine. Every row
//! records wall seconds, the measured `peak_stack_nodes`, the resident
//! bytes per PE that peak implies (`peak * size_of::<GenNode>()`), and
//! the FNV-1a outcome digest.
//!
//! The rows are claims, `--check` makes them floors:
//!
//! - **bit-identity**: all legs of a workload — every engine, every
//!   worker count, and the killed-then-resumed run — digest equal;
//! - **O(stack) memory**: every leg's resident bytes per PE stay under a
//!   fixed 64 KiB ceiling — for the 10^8-node tree that is a ~10^5x gap
//!   to the ~1.6 GB the materialized node set would need, so the bound
//!   can only hold if nodes really are generated and dropped in place;
//! - **scale** (full mode only): the geometric workload measured at
//!   least 10^8 expanded nodes.
//!
//! `--quick` shrinks both workloads for CI smoke runs; the schema and
//! the checks are identical. Timings are provenance, not gates — this
//! harness never compares throughput between legs (that is
//! `bench_engine`'s job).
//!
//! ```json
//! {
//!   "bench": "workloads",
//!   "node_bytes": 16,
//!   "mem_ceiling_bytes_per_pe": 65536,
//!   "workloads": [
//!     {"label": "geo", "family": "geometric", "seed": 3, "b_max": 8,
//!      "depth_limit": 13, "expected_nodes": 8.9e7, "stack_bound_nodes": 92,
//!      "nodes": 104857600},
//!     ...
//!   ],
//!   "results": [
//!     {"workload": "geo", "engine": "macro", "p": 1024, "host_threads": 1,
//!      "seconds": 71.2, "nodes_per_sec": 1.4e6, "n_expand": 120000,
//!      "peak_stack_nodes": 131, "resident_bytes_per_pe": 2096,
//!      "outcome_fnv": "0x..."},
//!     ...
//!   ],
//!   "resume": [
//!     {"workload": "geo", "engine": "macro", "kill_at": 64,
//!      "snapshot_bytes": 123456, "outcome_fnv": "0x...", "matches_straight": true}
//!   ]
//! }
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use uts_ckpt::{CheckpointPolicy, FaultPlan};
use uts_core::{run, run_with, EngineConfig, EngineKind, Scheme};
use uts_machine::CostModel;
use uts_serve::outcome_digest;
use uts_synthgen::{find_gen_tree, GenNode, GenTree};
use uts_tree::serial_dfs;

/// Per-PE resident ceiling `--check` enforces (bytes of live node
/// frames). Generously above any measured peak, crushingly below the
/// materialized node set of even the quick workloads.
const MEM_CEILING_BYTES_PER_PE: usize = 64 * 1024;

struct WlCase {
    label: &'static str,
    tree: GenTree,
    /// Serial node count (the oracle `W`).
    w: u64,
    /// JSON fragment describing the generator (family-specific fields).
    workload_json: String,
    p: usize,
    /// Macro-step boundary the kill→resume leg dies at.
    kill_at: u64,
    ckpt_every: u64,
}

struct Row {
    workload: &'static str,
    engine: &'static str,
    p: usize,
    host_threads: usize,
    seconds: f64,
    nodes_per_sec: f64,
    n_expand: u64,
    peak_stack_nodes: usize,
    resident_bytes_per_pe: usize,
    digest: u64,
}

fn workload_json(label: &str, tree: &GenTree, w: u64) -> String {
    use uts_synthgen::GenFamily;
    match tree.family {
        GenFamily::Geometric { b_max, depth_limit } => format!(
            "{{\"label\": \"{label}\", \"family\": \"geometric\", \"seed\": {}, \"b_max\": {b_max}, \
             \"depth_limit\": {depth_limit}, \"expected_nodes\": {:.1}, \
             \"stack_bound_nodes\": {}, \"nodes\": {w}}}",
            tree.seed,
            tree.expected_size(),
            tree.stack_bound().expect("geometric trees are depth-bounded"),
        ),
        GenFamily::Binomial { b0, m, q_threshold } => format!(
            "{{\"label\": \"{label}\", \"family\": \"binomial\", \"seed\": {}, \"b0\": {b0}, \
             \"m\": {m}, \"q\": {:.4}, \"expected_nodes\": {:.1}, \
             \"stack_bound_nodes\": null, \"nodes\": {w}}}",
            tree.seed,
            q_threshold as f64 / u64::MAX as f64,
            tree.expected_size(),
        ),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let out_idx = args.iter().position(|a| a == "--out");
    let out_path = out_idx
        .map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("error: --out requires a path");
                std::process::exit(2);
            })
        })
        .unwrap_or_else(|| "BENCH_workloads.json".to_string());
    for (i, a) in args.iter().enumerate() {
        if a != "--quick" && a != "--check" && a != "--out" && out_idx != Some(i.wrapping_sub(1)) {
            eprintln!(
                "error: unknown argument `{a}` (usage: bench_workloads [--quick] [--check] [--out PATH])"
            );
            std::process::exit(2);
        }
    }

    // The geometric workload is sized by target search; in full mode the
    // target sits far enough above 10^8 that any tree within tolerance
    // clears the scale floor. The binomial workload needs no search — its
    // size is recorded, not targeted.
    let cases: Vec<WlCase> = if quick {
        let geo = find_gen_tree(20_000, 0.2, 16);
        let bin = GenTree::binomial(9, 500, 4, 0.22);
        let bin_w = serial_dfs(&bin).expanded;
        vec![
            WlCase {
                label: "geo-20k",
                workload_json: workload_json("geo-20k", &geo.tree, geo.w),
                tree: geo.tree,
                w: geo.w,
                p: 256,
                kill_at: 8,
                ckpt_every: 4,
            },
            WlCase {
                label: "bin-2k",
                workload_json: workload_json("bin-2k", &bin, bin_w),
                tree: bin,
                w: bin_w,
                p: 256,
                kill_at: 8,
                ckpt_every: 4,
            },
        ]
    } else {
        eprintln!("searching for a >= 10^8-node geometric tree (serial probes)...");
        let geo = find_gen_tree(120_000_000, 0.15, 24);
        assert!(
            geo.w >= 100_000_000,
            "seed search found only {} nodes; widen the target or seed range",
            geo.w
        );
        // b0 bounds the root burst (all b0 children land on one stack
        // before balancing), so it must itself fit the per-PE ceiling;
        // the size comes from pushing q*m toward 1 instead.
        let bin = GenTree::binomial(9, 2_000, 4, 0.2475);
        let bin_w = serial_dfs(&bin).expanded;
        vec![
            WlCase {
                label: "geo-1e8",
                workload_json: workload_json("geo-1e8", &geo.tree, geo.w),
                tree: geo.tree,
                w: geo.w,
                p: 1024,
                kill_at: 64,
                ckpt_every: 32,
            },
            WlCase {
                label: "bin-500k",
                workload_json: workload_json("bin-500k", &bin, bin_w),
                tree: bin,
                w: bin_w,
                p: 1024,
                kill_at: 16,
                ckpt_every: 8,
            },
        ]
    };

    let node_bytes = std::mem::size_of::<GenNode>();
    let mut rows: Vec<Row> = Vec::new();
    let mut resume_rows: Vec<String> = Vec::new();
    let mut all_identical = true;
    let mut mem_ok = true;

    for case in &cases {
        eprintln!("workload {}: {} nodes, P={}", case.label, case.w, case.p);
        let cfg = EngineConfig::new(case.p, Scheme::gp_dk(), CostModel::cm2());
        let par = |threads| cfg.clone().with_engine(EngineKind::Par).with_threads(threads);
        let legs: [(&'static str, EngineConfig, usize); 5] = [
            ("reference", cfg.clone().with_engine(EngineKind::Reference), 1),
            ("macro", cfg.clone(), 1),
            ("par1", par(1), 1),
            ("par2", par(2), 2),
            ("par8", par(8), 8),
        ];
        let mut digests: Vec<u64> = Vec::new();
        for (engine, leg_cfg, leg_threads) in legs {
            let t0 = Instant::now();
            let out = run_with(&case.tree, &leg_cfg);
            let seconds = t0.elapsed().as_secs_f64();
            assert_eq!(out.report.nodes_expanded, case.w, "anomaly-free contract");
            let digest = outcome_digest(&out);
            let resident = out.peak_stack_nodes * node_bytes;
            eprintln!(
                "{:<8} P={:>5} {engine:<9} t={leg_threads} {seconds:>9.3} s  \
                 peak {:>5} nodes ({resident} B/PE)  fnv {digest:#018x}",
                case.label, case.p, out.peak_stack_nodes
            );
            if resident > MEM_CEILING_BYTES_PER_PE {
                eprintln!(
                    "MEM FAIL {} {engine}: {resident} B/PE > ceiling {MEM_CEILING_BYTES_PER_PE}",
                    case.label
                );
                mem_ok = false;
            }
            digests.push(digest);
            rows.push(Row {
                workload: case.label,
                engine,
                p: case.p,
                host_threads: leg_threads,
                seconds,
                nodes_per_sec: case.w as f64 / seconds,
                n_expand: out.report.n_expand,
                peak_stack_nodes: out.peak_stack_nodes,
                resident_bytes_per_pe: resident,
                digest,
            });
        }
        if digests.iter().any(|&d| d != digests[0]) {
            eprintln!("IDENTITY FAIL {}: engine digests diverge: {digests:x?}", case.label);
            all_identical = false;
        }

        // Kill→resume: arm the macro engine with a periodic snapshot
        // policy and a fault, then continue from the last snapshot. The
        // resumed outcome must digest equal to the uninterrupted legs.
        let armed = cfg
            .clone()
            .with_checkpoint(CheckpointPolicy::every(case.ckpt_every))
            .with_fault(FaultPlan::kill_at(case.kill_at));
        let dead = run(&case.tree, &armed);
        let resumed_digest;
        let snapshot_bytes;
        if dead.killed {
            let snaps = armed.checkpoint.as_ref().expect("armed").sink.taken();
            let last = snaps.last().expect("periodic policy snapshots before the kill");
            snapshot_bytes = last.bytes.len();
            let resumed = uts_core::resume_from_bytes(&case.tree, &cfg, &last.bytes)
                .expect("own snapshot resumes under its config");
            assert_eq!(resumed.report.nodes_expanded, case.w);
            resumed_digest = outcome_digest(&resumed);
        } else {
            // The run finished before the kill boundary (possible for the
            // small quick workloads): the armed run is the straight run.
            snapshot_bytes = 0;
            resumed_digest = outcome_digest(&dead);
        }
        let matches = resumed_digest == digests[0];
        eprintln!(
            "{:<8} kill@{} -> resume  fnv {resumed_digest:#018x}  {}",
            case.label,
            case.kill_at,
            if matches { "matches straight run" } else { "DIVERGED" }
        );
        if !matches {
            all_identical = false;
        }
        resume_rows.push(format!(
            "{{\"workload\": \"{}\", \"engine\": \"macro\", \"kill_at\": {}, \
             \"snapshot_bytes\": {snapshot_bytes}, \"outcome_fnv\": \"{resumed_digest:#018x}\", \
             \"matches_straight\": {matches}}}",
            case.label, case.kill_at
        ));
    }

    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"workloads\",\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    let _ = writeln!(json, "  \"node_bytes\": {node_bytes},");
    let _ = writeln!(json, "  \"mem_ceiling_bytes_per_pe\": {MEM_CEILING_BYTES_PER_PE},");
    json.push_str("  \"workloads\": [\n");
    for (i, case) in cases.iter().enumerate() {
        let comma = if i + 1 < cases.len() { "," } else { "" };
        let _ = writeln!(json, "    {}{comma}", case.workload_json);
    }
    json.push_str("  ],\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"engine\": \"{}\", \"p\": {}, \"host_threads\": {}, \
             \"seconds\": {:.6}, \"nodes_per_sec\": {:.1}, \"n_expand\": {}, \
             \"peak_stack_nodes\": {}, \"resident_bytes_per_pe\": {}, \"outcome_fnv\": \"{:#018x}\"}}{comma}",
            r.workload,
            r.engine,
            r.p,
            r.host_threads,
            r.seconds,
            r.nodes_per_sec,
            r.n_expand,
            r.peak_stack_nodes,
            r.resident_bytes_per_pe,
            r.digest
        );
    }
    json.push_str("  ],\n  \"resume\": [\n");
    for (i, row) in resume_rows.iter().enumerate() {
        let comma = if i + 1 < resume_rows.len() { "," } else { "" };
        let _ = writeln!(json, "    {row}{comma}");
    }
    json.push_str("  ]\n}\n");

    match std::fs::write(&out_path, &json) {
        Ok(()) => eprintln!("wrote {out_path}"),
        Err(e) => {
            eprintln!("could not write {out_path}: {e}");
            std::process::exit(1);
        }
    }

    if check {
        let mut ok = true;
        if !all_identical {
            eprintln!("CHECK FAIL: outcomes are not bit-identical across legs");
            ok = false;
        }
        if !mem_ok {
            eprintln!("CHECK FAIL: a leg exceeded the per-PE resident ceiling");
            ok = false;
        }
        if !quick {
            let big = cases.iter().map(|c| c.w).max().unwrap_or(0);
            if big < 100_000_000 {
                eprintln!("CHECK FAIL: largest workload is {big} nodes, want >= 10^8");
                ok = false;
            }
        }
        if !ok {
            std::process::exit(1);
        }
        eprintln!(
            "check passed: digests identical across {} legs + resume, \
             resident <= {MEM_CEILING_BYTES_PER_PE} B/PE{}",
            rows.len(),
            if quick { "" } else { ", >= 10^8-node workload measured" }
        );
    }
}
