//! Criterion micro-benchmarks of the substrate operations whose costs the
//! paper's model abstracts into `U_calc` and `t_lb`: node expansion, stack
//! splitting and rendezvous matching. These quantify the *host*
//! cost of simulating one machine operation (the simulated costs are fixed
//! by the cost model, not by these timings).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use uts_ckpt::wire::{decode_frame, encode_frame};
use uts_net::hypercube::Hypercube;
use uts_net::{route, route_with, Links, Message};
use uts_puzzle15::{korf_instances, Puzzle15, PuzzleState};
use uts_scan::{rendezvous_match_from, rendezvous_match_packed};
use uts_synth::{splitmix64, GeometricTree};
use uts_tree::{serial_dfs, SearchStack, SplitPolicy, TreeProblem};

fn bench_matching(c: &mut Criterion) {
    // What a balancing round calls: the packed matching over the busy list
    // and the idle prefix, pair buffer reused across rounds.
    let mut g = c.benchmark_group("rendezvous");
    for p in [1024usize, 8192] {
        let (packed_idle, packed_busy): (Vec<usize>, Vec<usize>) = (0..p).partition(|i| i % 3 == 0);
        g.throughput(Throughput::Elements(p as u64));
        g.bench_with_input(BenchmarkId::new("match_packed", p), &p, |b, _| {
            let mut pairs = Vec::new();
            b.iter(|| {
                rendezvous_match_packed(
                    black_box(&packed_busy),
                    black_box(&packed_idle),
                    black_box(17),
                    &mut pairs,
                );
                black_box(pairs.len())
            })
        });
    }
    g.finish();
}

fn bench_puzzle_expansion(c: &mut Criterion) {
    let inst = korf_instances()[0];
    let puzzle = Puzzle15::new(inst.board());
    let root = PuzzleState::new(inst.board());
    c.bench_function("puzzle15/expand_one_state", |b| {
        let mut out = Vec::with_capacity(4);
        b.iter(|| {
            out.clear();
            use uts_tree::HeuristicProblem;
            puzzle.successors(black_box(&root), &mut out);
            black_box(out.len())
        })
    });
}

fn bench_serial_dfs(c: &mut Criterion) {
    // A ~20k-node synthetic tree: measures end-to-end nodes/second of the
    // expansion machinery (stack + generator).
    let tree = GeometricTree { seed: 2, b_max: 8, depth_limit: 6 };
    let w = serial_dfs(&tree).expanded;
    let mut g = c.benchmark_group("serial_dfs");
    g.throughput(Throughput::Elements(w));
    g.bench_function("geometric_tree", |b| b.iter(|| serial_dfs(black_box(&tree)).expanded));
    g.finish();
}

fn bench_split(c: &mut Criterion) {
    // Splitting cost on a realistic deep stack.
    let mut g = c.benchmark_group("stack_split");
    for policy in [SplitPolicy::Bottom, SplitPolicy::Half, SplitPolicy::Top] {
        g.bench_function(format!("{policy:?}"), |b| {
            b.iter_batched(
                || {
                    let tree = GeometricTree { seed: 3, b_max: 8, depth_limit: 6 };
                    let mut s = SearchStack::from_root(tree.root());
                    let mut children = Vec::new();
                    for _ in 0..200 {
                        if let Some(n) = s.pop_next() {
                            children.clear();
                            tree.expand(&n, &mut children);
                            s.push_frame(std::mem::take(&mut children));
                        }
                    }
                    s
                },
                |mut s| black_box(s.split(policy)),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_wire_frame(c: &mut Criterion) {
    // What a shard message costs at each end of the pipe, the pipe apart:
    // the sender copies the payload into a frame and sums it, the receiver
    // sums it again. Sizes: a small request, a P = 8192 burst reply, a
    // P = 2^20 transfer batch.
    let mut g = c.benchmark_group("wire_frame");
    for len in [256usize, 32 << 10, 4 << 20] {
        let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        let mut frame = Vec::new();
        encode_frame(&mut frame, 2, 9, &payload);
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_with_input(BenchmarkId::new("encode", len), &len, |b, _| {
            let mut out = Vec::with_capacity(frame.len());
            b.iter(|| {
                out.clear();
                encode_frame(&mut out, 2, 9, black_box(&payload));
                black_box(out.len())
            })
        });
        g.bench_with_input(BenchmarkId::new("decode", len), &len, |b, _| {
            b.iter(|| decode_frame(black_box(&frame)).expect("intact frame").1)
        });
    }
    g.finish();
}

fn bench_route(c: &mut Criterion) {
    // One `shard-wide` transfer round: P = 2^20, the work in the first 2^17
    // PEs with a fifth of them busy, GP rendezvous pairs (~26k messages,
    // all inside the prefix) routed on the hypercube. `fresh` builds a link
    // table per call, `reused` keeps one as the sharded coordinator does.
    let (p, prefix) = (1usize << 20, 1usize << 17);
    let busy: Vec<bool> =
        (0..p).map(|i| i < prefix && splitmix64(i as u64).is_multiple_of(5)).collect();
    let idle: Vec<bool> = busy.iter().map(|&b| !b).collect();
    let messages: Vec<Message> = rendezvous_match_from(&busy, &idle, 0)
        .iter()
        .map(|pr| Message { src: pr.donor, dst: pr.receiver })
        .collect();
    let cube = Hypercube::new(p);
    let mut g = c.benchmark_group("route");
    g.throughput(Throughput::Elements(messages.len() as u64));
    g.bench_function("fresh", |b| b.iter(|| route(&cube, black_box(&messages)).steps));
    g.bench_function("reused", |b| {
        let mut links = Links::default();
        b.iter(|| route_with(&mut links, &cube, black_box(&messages)).steps)
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_matching,
    bench_puzzle_expansion,
    bench_serial_dfs,
    bench_split,
    bench_wire_frame,
    bench_route
);
criterion_main!(benches);
