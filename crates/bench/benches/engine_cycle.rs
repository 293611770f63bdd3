//! Engine-throughput benchmark: simulated nodes expanded per host second,
//! event-horizon macro engine vs. the reference two-sweep executor, at the
//! paper's machine scale (P = 8192, the CM-2 of Sec. 7 had 8K processors).
//!
//! The macro engine's advantage grows with P because the reference loop
//! spends O(P) per cycle on idle slots and a second census sweep, while
//! the macro engine touches only active PEs, skips trigger checkpoints it
//! can prove are no-ops, and runs each PE's DFS in cache-hot bursts
//! between them. The par engine shards those bursts across host worker
//! threads (auto-detected here, so single-core machines measure its
//! inline-path parity with the macro engine and multicore machines its
//! scaling).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use uts_core::{run, run_reference, run_with, EngineConfig, EngineKind, Scheme};
use uts_machine::CostModel;
use uts_synth::GeometricTree;
use uts_tree::serial_dfs;

fn cfg(p: usize) -> EngineConfig {
    EngineConfig::new(p, Scheme::gp_dk(), CostModel::cm2())
}

fn bench_engine_cycle(c: &mut Criterion) {
    let tree = GeometricTree { seed: 2, b_max: 8, depth_limit: 7 };
    let w = serial_dfs(&tree).expanded;
    let mut g = c.benchmark_group("engine_cycle");
    g.throughput(Throughput::Elements(w));
    for p in [1024usize, 8192] {
        g.bench_with_input(BenchmarkId::new("macro", p), &p, |b, &p| {
            b.iter(|| black_box(run(&tree, &cfg(p))).report.nodes_expanded)
        });
        g.bench_with_input(BenchmarkId::new("par", p), &p, |b, &p| {
            let par = cfg(p).with_engine(EngineKind::Par);
            b.iter(|| black_box(run_with(&tree, &par)).report.nodes_expanded)
        });
        g.bench_with_input(BenchmarkId::new("reference", p), &p, |b, &p| {
            b.iter(|| black_box(run_reference(&tree, &cfg(p))).report.nodes_expanded)
        });
    }
    g.finish();
}

criterion_group!(benches, bench_engine_cycle);
criterion_main!(benches);
