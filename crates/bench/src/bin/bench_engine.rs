//! Engine-throughput harness: measures simulated nodes expanded per host
//! second for the host-parallel macro engine, the event-horizon macro
//! engine, the fused hot loop, and the reference two-sweep executor, and
//! writes the results to `BENCH_engine.json` (current directory).
//!
//! ```text
//! cargo run --release -p uts-bench --bin bench_engine -- [--quick] [--check] [--out PATH]
//! ```
//!
//! Two workloads are measured (one in `--quick` mode): the 35k-node
//! geometric tree at the paper's machine sizes, and a 2.2M-node deep tree
//! at P = 8192. The small tree undersubscribes an 8K machine so badly
//! that the trigger fires after nearly every cycle — there the macro
//! engine can only show parity with the fused loop (its single-cycle fast
//! path) — while the deep tree reaches a steady state whose multi-cycle
//! horizons let macro-stepping actually pay.
//!
//! The par engine is measured twice per workload: `par1` pins one worker
//! (`with_threads(1)`, the inline parity leg) and `par` pins the host's
//! available parallelism into the config, so the worker count each leg
//! records is by construction the one it ran with. The numbers mean
//! different things on different hosts: on a single-core machine `par`
//! takes the inline path and can only show parity with the macro engine,
//! while on a multicore host the fanned-out burst phase should beat it
//! outright. `host_threads` — top-level for the machine, and per result
//! row for the worker count that leg actually used — records which regime
//! was measured.
//!
//! `--quick` shrinks the tree and machine sizes for CI smoke runs.
//! `--report PATH` additionally writes a ledger-enabled run-report
//! (`uts_core::run_report_json`) for the first workload — donation spread
//! plus per-phase trigger provenance. The timed floor runs always keep the
//! ledger off, so `--report` never perturbs the regression gate.
//! `--check` exits non-zero if an engine regresses past its floor —
//! fused >= 0.9x reference, macro >= 0.9x fused, and parallelism-aware
//! par floors: par and par1 >= 0.85x macro always (parity within noise,
//! any host), plus par >= 2.0x macro on the deep d10 tree when the host
//! has >= 4 cores, which the par leg then runs with (the scaling
//! target the fanned-out burst phase buys; never asserted on hosts that
//! cannot physically reach it). The CI guard against a hot-path refactor
//! quietly giving the speedups back. So the multicore CI leg can enforce
//! the scaling floor cheaply, `--quick` keeps the d10 workload on a
//! reduced budget alongside the small smoke tree.
//!
//! A dedicated checkpoint-overhead pair (`ckpt-d7` in the JSON) runs the
//! macro engine on a mid-size tree with and without a dense every-16th-
//! boundary snapshot policy; `--check` holds checkpoint-on throughput
//! to >= 0.8x checkpoint-off (`ckpt_on_vs_off` in the speedups map). The JSON
//! is hand-rolled (flat schema, no serializer dependency):
//!
//! ```json
//! {
//!   "bench": "engine_cycle",
//!   "trees": [
//!     {"label": "d7", "seed": 2, "b_max": 8, "depth_limit": 7, "nodes": 34542},
//!     ...
//!   ],
//!   "results": [
//!     {"tree": "d7", "engine": "macro", "p": 8192, "seconds": 1.23,
//!      "nodes_per_sec": 1.0e5, "n_expand": 42, "t_par_us": 99},
//!     ...
//!   ],
//!   "speedups": {
//!     "fused_vs_reference": {"d7/8192": 2.7, ...},
//!     "macro_vs_fused": {"d7/8192": 1.0, "d10/8192": 1.3, ...},
//!     "macro_vs_reference": {"d7/8192": 2.8, ...}
//!   }
//! }
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use uts_ckpt::CheckpointPolicy;
use uts_core::{
    run, run_fused, run_par, run_reference, run_report_json, CheckpointCfg, EngineConfig, Outcome,
    Scheme,
};
use uts_machine::CostModel;
use uts_synth::GeometricTree;
use uts_tree::{serial_dfs, TreeProblem};

struct TreeCase {
    label: &'static str,
    depth_limit: u32,
    ps: &'static [usize],
    budget_s: f64,
}

struct Measurement {
    tree: &'static str,
    engine: &'static str,
    p: usize,
    /// Host worker threads this leg ran with (1 for the serial engines and
    /// the pinned `par1` leg; the resolved auto count for `par`).
    host_threads: usize,
    seconds: f64,
    nodes_per_sec: f64,
    n_expand: u64,
    t_par_us: u64,
}

/// Run `f` repeatedly until ~`budget_s` seconds elapse, returning the
/// *best* (minimum) seconds per run and the (schedule-invariant) outcome.
///
/// The minimum, not the mean: these ratios gate CI on shared, noisy hosts
/// where a scheduler hiccup during one engine's window would skew a mean
/// by tens of percent. Interference only ever slows a run down, so the
/// per-engine minimum estimates uncontended cost and ratios of minima stay
/// stable run-to-run.
///
/// A quarter of the budget is spent on untimed warm-up first: engines are
/// measured back-to-back, and without it the first engine measured pays
/// the CPU's frequency ramp and cold caches, skewing the speedup ratios.
fn measure<F: FnMut() -> Outcome>(mut f: F, budget_s: f64) -> (f64, Outcome) {
    let first = f();
    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < budget_s * 0.25 {
        f();
    }
    let mut best = f64::INFINITY;
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= budget_s {
            debug_assert_eq!(out.report.n_expand, first.report.n_expand, "runs are deterministic");
            return (best, out);
        }
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
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    let report_idx = args.iter().position(|a| a == "--report");
    let report_path = report_idx.map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("error: --report requires a path");
            std::process::exit(2);
        })
    });
    for (i, a) in args.iter().enumerate() {
        let is_out_value = out_idx == Some(i.wrapping_sub(1));
        let is_report_value = report_idx == Some(i.wrapping_sub(1));
        if a != "--quick"
            && a != "--check"
            && a != "--out"
            && a != "--report"
            && !is_out_value
            && !is_report_value
        {
            eprintln!(
                "error: unknown argument `{a}` (usage: bench_engine [--quick] [--check] [--out PATH] [--report PATH])"
            );
            std::process::exit(2);
        }
    }

    // Quick mode keeps the deep d10 workload (on a reduced budget): it is
    // the only tree whose horizons are long enough to exercise the par
    // scaling floor, and CI's multicore leg runs `--quick --check` — a
    // quick mode without d10 would make that leg's >= 2x gate vacuous.
    let cases: &[TreeCase] = if quick {
        &[
            TreeCase { label: "d5", depth_limit: 5, ps: &[256], budget_s: 0.2 },
            TreeCase { label: "d10", depth_limit: 10, ps: &[8192], budget_s: 0.5 },
        ]
    } else {
        &[
            TreeCase { label: "d7", depth_limit: 7, ps: &[1024, 8192], budget_s: 2.0 },
            TreeCase { label: "d10", depth_limit: 10, ps: &[8192], budget_s: 1.0 },
        ]
    };

    // The worker count `run_par` resolves when the config leaves `threads`
    // unset: one per available core.
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut results: Vec<Measurement> = Vec::new();
    let mut tree_sizes: Vec<(&'static str, u32, u64)> = Vec::new();
    for case in cases {
        let tree = GeometricTree { seed: 2, b_max: 8, depth_limit: case.depth_limit };
        let w = serial_dfs(&tree).expanded;
        tree_sizes.push((case.label, case.depth_limit, w));
        // Exercise the root so a broken workload fails loudly before timing.
        let mut probe = Vec::new();
        tree.expand(&tree.root(), &mut probe);
        assert!(!probe.is_empty(), "bench tree must branch at the root");

        eprintln!(
            "tree {}: geometric seed=2 b_max=8 depth_limit={} ({w} nodes)",
            case.label, case.depth_limit
        );
        for &p in case.ps {
            let cfg = EngineConfig::new(p, Scheme::gp_dk(), CostModel::cm2());
            // Pin the host's count into the config so the worker count the
            // leg *records* is by construction the one it *ran* with.
            type Runner = fn(&GeometricTree, &EngineConfig) -> Outcome;
            let legs: [(&'static str, EngineConfig, usize, Runner); 5] = [
                ("par", cfg.clone().with_threads(host_threads), host_threads, run_par),
                ("par1", cfg.clone().with_threads(1), 1, run_par),
                ("macro", cfg.clone(), 1, run),
                ("fused", cfg.clone(), 1, run_fused),
                ("reference", cfg.clone(), 1, run_reference),
            ];
            for (engine, leg_cfg, leg_threads, runner) in legs {
                let (seconds, out) = measure(|| runner(&tree, &leg_cfg), case.budget_s);
                assert_eq!(out.report.nodes_expanded, w, "anomaly-free contract");
                let nodes_per_sec = w as f64 / seconds;
                eprintln!(
                    "{:<4} P={p:>5} {engine:<9} t={leg_threads:<3} {seconds:>8.4} s/run  {nodes_per_sec:>12.0} nodes/s",
                    case.label
                );
                results.push(Measurement {
                    tree: case.label,
                    engine,
                    p,
                    host_threads: leg_threads,
                    seconds,
                    nodes_per_sec,
                    n_expand: out.report.n_expand,
                    t_par_us: out.report.t_par,
                });
            }
        }
    }

    // Checkpoint overhead: the macro engine with and without a periodic
    // snapshot policy (every 16th macro-step boundary — a *dense* schedule;
    // real deployments checkpoint far less often) on a dedicated mid-size
    // workload. The tiny `--quick` tree cannot host this comparison — its
    // whole run is ~100 us, so a single snapshot (which serializes the
    // entire live frontier) eats a double-digit share no matter the
    // policy — hence the fixed d7 tree in both modes. A fresh in-memory
    // sink per run keeps one timed run's snapshots out of the next one's
    // allocator.
    let (ckpt_label, ckpt_p) = ("ckpt-d7", 256usize);
    {
        let ckpt_budget = if quick { 0.2 } else { 1.0 };
        let tree = GeometricTree { seed: 2, b_max: 8, depth_limit: 7 };
        let w = serial_dfs(&tree).expanded;
        tree_sizes.push((ckpt_label, 7, w));
        let base_cfg = EngineConfig::new(ckpt_p, Scheme::gp_dk(), CostModel::cm2());
        for (engine, armed) in [("macro", false), ("macro_ckpt", true)] {
            let (seconds, out) = measure(
                || {
                    if armed {
                        let cfg = base_cfg
                            .clone()
                            .with_checkpoint_cfg(CheckpointCfg::new(CheckpointPolicy::every(16)));
                        run(&tree, &cfg)
                    } else {
                        run(&tree, &base_cfg)
                    }
                },
                ckpt_budget,
            );
            assert_eq!(out.report.nodes_expanded, w, "checkpointing must not perturb the schedule");
            let nodes_per_sec = w as f64 / seconds;
            eprintln!(
                "{ckpt_label:<4} P={ckpt_p:>5} {engine:<10} {seconds:>8.4} s/run  {nodes_per_sec:>12.0} nodes/s"
            );
            results.push(Measurement {
                tree: ckpt_label,
                engine,
                p: ckpt_p,
                host_threads: 1,
                seconds,
                nodes_per_sec,
                n_expand: out.report.n_expand,
                t_par_us: out.report.t_par,
            });
        }
    }

    let configs: Vec<(&'static str, usize)> =
        cases.iter().flat_map(|c| c.ps.iter().map(|&p| (c.label, p))).collect();
    let rate = |tree: &str, p: usize, engine: &str| {
        results
            .iter()
            .find(|m| m.tree == tree && m.p == p && m.engine == engine)
            .map(|m| m.nodes_per_sec)
    };
    let ratio_map = |num: &str, den: &str| {
        let mut s = String::new();
        let mut first = true;
        for &(tree, p) in &configs {
            if let (Some(n), Some(d)) = (rate(tree, p, num), rate(tree, p, den)) {
                if !first {
                    s.push_str(", ");
                }
                first = false;
                let _ = write!(s, "\"{tree}/{p}\": {:.2}", n / d);
                eprintln!("{tree:<4} P={p:>5} {num}/{den} speedup: {:.2}x", n / d);
            }
        }
        s
    };

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"engine_cycle\",\n");
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    json.push_str("  \"trees\": [\n");
    for (i, (label, depth, w)) in tree_sizes.iter().enumerate() {
        let comma = if i + 1 < tree_sizes.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"label\": \"{label}\", \"seed\": 2, \"b_max\": 8, \"depth_limit\": {depth}, \"nodes\": {w}}}{comma}"
        );
    }
    json.push_str("  ],\n  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"tree\": \"{}\", \"engine\": \"{}\", \"p\": {}, \"host_threads\": {}, \"seconds\": {:.6}, \"nodes_per_sec\": {:.1}, \"n_expand\": {}, \"t_par_us\": {}}}{comma}",
            m.tree, m.engine, m.p, m.host_threads, m.seconds, m.nodes_per_sec, m.n_expand, m.t_par_us
        );
    }
    json.push_str("  ],\n  \"speedups\": {\n");
    let _ = writeln!(json, "    \"fused_vs_reference\": {{{}}},", ratio_map("fused", "reference"));
    let _ = writeln!(json, "    \"macro_vs_fused\": {{{}}},", ratio_map("macro", "fused"));
    let _ = writeln!(json, "    \"macro_vs_reference\": {{{}}},", ratio_map("macro", "reference"));
    let _ = writeln!(json, "    \"par_vs_macro\": {{{}}},", ratio_map("par", "macro"));
    let _ = writeln!(json, "    \"par1_vs_macro\": {{{}}},", ratio_map("par1", "macro"));
    let _ = writeln!(json, "    \"par_vs_reference\": {{{}}},", ratio_map("par", "reference"));
    let ck_ratio = rate(ckpt_label, ckpt_p, "macro_ckpt").unwrap()
        / rate(ckpt_label, ckpt_p, "macro").unwrap();
    eprintln!("{ckpt_label} P={ckpt_p:>5} ckpt-on/ckpt-off throughput: {ck_ratio:.2}x");
    let _ = writeln!(json, "    \"ckpt_on_vs_off\": {{\"{ckpt_label}/{ckpt_p}\": {ck_ratio:.2}}}");
    json.push_str("  }\n}\n");

    match std::fs::write(&out_path, &json) {
        Ok(()) => eprintln!("wrote {out_path}"),
        Err(e) => {
            eprintln!("could not write {out_path}: {e}");
            std::process::exit(1);
        }
    }

    if let Some(path) = report_path {
        // One untimed, ledger-enabled run on the first workload at its
        // smallest machine size; the timed measurements above never see
        // the ledger.
        let case = &cases[0];
        let tree = GeometricTree { seed: 2, b_max: 8, depth_limit: case.depth_limit };
        let p = case.ps[0];
        let cfg = EngineConfig::new(p, Scheme::gp_dk(), CostModel::cm2()).with_ledger();
        let report = run_report_json(&cfg, &run(&tree, &cfg));
        match std::fs::write(&path, &report) {
            Ok(()) => eprintln!("wrote {path} (ledger run-report, {} P={p})", case.label),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if check {
        // Regression floors, deliberately loose (0.9x) so machine noise
        // doesn't flake CI while a real hot-path regression still trips.
        // The par floors are parallelism-aware: parity-within-noise holds
        // on any host (one worker = the macro engine plus a branch), while
        // the 1.5x scaling floor only applies where the hardware can
        // physically deliver it (>= 4 cores, and only on the deep tree
        // whose horizons are long enough to amortize the fan-out).
        let mut ok = true;
        for &(tree, p) in &configs {
            let (pa, pa1, ma, fu, re) = (
                rate(tree, p, "par").unwrap(),
                rate(tree, p, "par1").unwrap(),
                rate(tree, p, "macro").unwrap(),
                rate(tree, p, "fused").unwrap(),
                rate(tree, p, "reference").unwrap(),
            );
            if fu < 0.9 * re {
                eprintln!("CHECK FAIL {tree} P={p}: fused {fu:.0} < 0.9x reference {re:.0}");
                ok = false;
            }
            if ma < 0.9 * fu {
                eprintln!("CHECK FAIL {tree} P={p}: macro {ma:.0} < 0.9x fused {fu:.0}");
                ok = false;
            }
            // 0.85, not 0.9: these are parity checks, not scaling checks,
            // and a single-worker `run_par` that runs the macro engine's
            // exact step code still measures a few percent slower from
            // codegen/layout differences alone. `par1` pins one worker, so
            // the floor holds on any host; `par` only equals it where the
            // auto-detected count is 1.
            if pa1 < 0.85 * ma {
                eprintln!("CHECK FAIL {tree} P={p}: par1 {pa1:.0} < 0.85x macro {ma:.0}");
                ok = false;
            }
            if pa < 0.85 * ma {
                eprintln!("CHECK FAIL {tree} P={p}: par {pa:.0} < 0.85x macro {ma:.0}");
                ok = false;
            }
            // The par leg ran with `host_threads` workers (a `taskset` or
            // cgroup quota narrows both alike).
            if host_threads >= 4 && tree == "d10" && pa < 2.0 * ma {
                eprintln!(
                    "CHECK FAIL {tree} P={p}: par {pa:.0} < 2.0x macro {ma:.0} \
                     with {host_threads} workers"
                );
                ok = false;
            }
        }
        // A dense (every-16th-boundary) checkpoint schedule must cost at
        // most 20% of macro throughput on the dedicated overhead workload;
        // any real (sparser) policy costs strictly less.
        let ck = rate(ckpt_label, ckpt_p, "macro_ckpt").unwrap();
        let ma = rate(ckpt_label, ckpt_p, "macro").unwrap();
        if ck < 0.8 * ma {
            eprintln!(
                "CHECK FAIL {ckpt_label} P={ckpt_p}: macro+ckpt {ck:.0} < 0.8x macro {ma:.0}"
            );
            ok = false;
        }
        if !ok {
            std::process::exit(1);
        }
        eprintln!(
            "check passed: fused >= 0.9x reference, macro >= 0.9x fused, par/par1 >= 0.85x macro, \
             ckpt-on >= 0.8x ckpt-off{} ({host_threads} host threads)",
            if host_threads >= 4 { ", par >= 2.0x macro on d10" } else { "" }
        );
    }
}
