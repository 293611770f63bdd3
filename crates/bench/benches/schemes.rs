//! Criterion end-to-end benches: simulate one full parallel search per
//! scheme on a fixed synthetic tree. Throughput = simulated node
//! expansions per second of *host* time — the figure of merit for how
//! cheaply this crate reproduces a CM-2 run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use uts_core::{run, EngineConfig, Scheme};
use uts_machine::CostModel;
use uts_mimd::{run_mimd, MimdConfig, StealPolicy};
use uts_synth::{find_tree, SizedTree};

fn tree() -> SizedTree {
    find_tree(60_000, 0.15, 64)
}

fn bench_simd_schemes(c: &mut Criterion) {
    let st = tree();
    let mut g = c.benchmark_group("simd_engine");
    g.throughput(Throughput::Elements(st.w));
    g.sample_size(10);
    for (name, scheme) in [
        ("GP-S0.8", Scheme::gp_static(0.8)),
        ("nGP-S0.8", Scheme::ngp_static(0.8)),
        ("GP-DK", Scheme::gp_dk()),
        ("GP-DP", Scheme::gp_dp()),
        ("FESS", Scheme::fess()),
        ("FEGS", Scheme::fegs()),
        ("ring-NN", Scheme::ring_nn()),
    ] {
        g.bench_with_input(BenchmarkId::new(name, 256), &st, |b, st| {
            let cfg = EngineConfig::new(256, scheme, CostModel::cm2());
            b.iter(|| run(black_box(&st.tree), &cfg).report.nodes_expanded)
        });
    }
    g.finish();
}

fn bench_mimd(c: &mut Criterion) {
    let st = tree();
    let mut g = c.benchmark_group("mimd_engine");
    g.throughput(Throughput::Elements(st.w));
    g.sample_size(10);
    for policy in [StealPolicy::GlobalRoundRobin, StealPolicy::RandomPolling] {
        g.bench_function(format!("{}/256", policy.name()), |b| {
            let cfg = MimdConfig::new(256, policy, CostModel::cm2());
            b.iter(|| run_mimd(black_box(&st.tree), &cfg).nodes_expanded)
        });
    }
    g.finish();
}

criterion_group!(benches, bench_simd_schemes, bench_mimd);
criterion_main!(benches);
