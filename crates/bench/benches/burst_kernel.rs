//! AoS-vs-SoA microbenchmark for the burst kernel and the census sweeps,
//! and the counted split of a million-PE balancing round.
//!
//! The engines moved their per-PE state from one heap-allocated
//! [`uts_tree::SearchStack`] per PE (array-of-structures) to the
//! [`uts_tree::StackArena`]: pooled fixed-size node chunks per block of
//! PEs plus a dense `u32` length array shared by the whole ensemble
//! (structure-of-arrays, DESIGN.md §6.3). This bench isolates the kernels
//! that motivated the layout, at the machine scales the engine bench uses:
//!
//! * `burst_aos` / `burst_soa` — the macro-step burst (every PE runs a
//!   fixed-budget DFS burst) over cloned ensembles, frame-vector stacks
//!   vs. chunk chains;
//! * `census_aos` / `census_soa` — the stack-size histogram + `count_ge`
//!   suffix sum the event horizon reads, per-stack pointer chase over the
//!   active list vs. the chunked sweeps in `uts_core::census` over the
//!   dense length array;
//! * `split_counted` — one equalisation round of counted moves
//!   ([`uts_tree::StackArena::split_count_into`]) at the benchmark's
//!   `balance-wide` shape: P = 2^16 stacks of 1–7 generated-tree nodes in
//!   one to three frames, every PE above the mean giving its excess to the
//!   next PE below it.
//!
//! Burst populations are mid-run-shaped: every PE holds the root's subtree
//! after a PE-dependent warm-up burst, so lengths vary across the
//! ensemble like a real steady state. Each measured pass works on a fresh
//! clone, which is dropped during the next (untimed) setup: freeing a
//! million heap vectors is the old layout's cost too, but not the kernel's.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use std::cell::RefCell;
use std::hint::black_box;
use uts_core::census;
use uts_synth::GeometricTree;
use uts_synthgen::GenNode;
use uts_tree::{SearchStack, StackArena, TreeProblem};

/// Burst budget per PE per measured pass — long enough that the kernel,
/// not the loop scaffolding, dominates.
const BURST: u64 = 32;

type Node = <GeometricTree as TreeProblem>::Node;

/// A P-wide ensemble with diversified stack lengths: each PE starts at the
/// root and runs a warm-up burst of `1..=8` expansions keyed on its index.
fn populate(tree: &GeometricTree, p: usize) -> Vec<SearchStack<Node>> {
    (0..p)
        .map(|i| {
            let mut s = SearchStack::from_frames(vec![vec![tree.root()]]);
            s.expand_burst(tree, (i % 8 + 1) as u64);
            s
        })
        .collect()
}

/// Time `routine` over fresh clones of `input`, keeping each used clone
/// alive until the next setup so its drop is not timed.
fn bench_on_clones<T: Clone>(
    b: &mut criterion::Bencher,
    input: &T,
    mut routine: impl FnMut(&mut T) -> usize,
) {
    let used = RefCell::new(None);
    b.iter_batched(
        || {
            used.borrow_mut().take();
            input.clone()
        },
        |mut fresh| {
            let out = routine(&mut fresh);
            *used.borrow_mut() = Some(fresh);
            black_box(out)
        },
        BatchSize::LargeInput,
    )
}

fn bench_burst_kernel(c: &mut Criterion) {
    let tree = GeometricTree { seed: 2, b_max: 8, depth_limit: 7 };
    let mut g = c.benchmark_group("burst_kernel");
    for p in [1024usize, 8192] {
        let stacks = populate(&tree, p);
        let arena = StackArena::from_stacks(stacks.clone());
        let lens: Vec<u32> = arena.lens().to_vec();
        let active: Vec<usize> = (0..p).filter(|&i| !stacks[i].is_empty()).collect();

        g.throughput(Throughput::Elements(p as u64));
        g.bench_with_input(BenchmarkId::new("burst_aos", p), &p, |b, _| {
            bench_on_clones(b, &stacks, |stacks| {
                stacks.iter_mut().map(|s| s.expand_burst(&tree, BURST).expanded as usize).sum()
            })
        });
        g.bench_with_input(BenchmarkId::new("burst_soa", p), &p, |b, _| {
            bench_on_clones(b, &arena, |arena| {
                (0..arena.p()).map(|i| arena.expand_burst(i, &tree, BURST).expanded as usize).sum()
            })
        });

        g.bench_with_input(BenchmarkId::new("census_aos", p), &p, |b, _| {
            let mut hist: Vec<u32> = Vec::new();
            let mut cg: Vec<u32> = Vec::new();
            b.iter(|| {
                // The pre-SoA census: chase every active PE's stack.
                hist.clear();
                for &i in &active {
                    let s = stacks[i].len();
                    if s >= hist.len() {
                        hist.resize(s + 1, 0);
                    }
                    hist[s] += 1;
                }
                census::build_count_ge(&hist, &mut cg);
                black_box(cg[0])
            })
        });
        g.bench_with_input(BenchmarkId::new("census_soa", p), &p, |b, _| {
            let mut hist: Vec<u32> = Vec::new();
            let mut cg: Vec<u32> = Vec::new();
            b.iter(|| {
                census::build_hist(&lens, &mut hist);
                census::build_count_ge(&hist, &mut cg);
                black_box(cg[0])
            })
        });
    }
    g.finish();
}

/// One FEGS round at `balance-wide`'s shape: P = 2^16 stacks of 1–7 nodes
/// in one to three frames, and the counted moves an equalisation round
/// makes over them (donors above the target give `min(excess, want)` to
/// receivers below it, paired in index order).
fn bench_split_counted(c: &mut Criterion) {
    const P: usize = 1 << 16;
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let stacks: Vec<SearchStack<GenNode>> = (0..P)
        .map(|_| {
            let (len, cut) = (1 + next() % 7, next());
            let nodes = (0..len).map(|depth| GenNode { state: next(), depth: depth as u32 });
            let mut frames: Vec<Vec<GenNode>> = Vec::new();
            for (k, node) in nodes.enumerate() {
                // Up to two more frame starts, at the cut points `cut` picks.
                if k == 0 || (k as u64 == cut % len || k as u64 == cut / 8 % len) {
                    frames.push(Vec::new());
                }
                frames.last_mut().expect("the first node starts a frame").push(node);
            }
            SearchStack::from_frames(frames)
        })
        .collect();
    let target = stacks.iter().map(SearchStack::len).sum::<usize>().div_ceil(P);
    let donors = (0..P).filter(|&i| stacks[i].len() > target);
    let receivers = (0..P).filter(|&i| stacks[i].len() < target);
    let moves: Vec<(usize, usize, usize)> = donors
        .zip(receivers)
        .map(|(d, r)| (d, r, (stacks[d].len() - target).min(target - stacks[r].len())))
        .collect();
    let arena = StackArena::from_stacks(stacks);

    let mut g = c.benchmark_group("burst_kernel");
    g.throughput(Throughput::Elements(moves.len() as u64));
    g.bench_with_input(BenchmarkId::new("split_counted", P), &P, |b, _| {
        bench_on_clones(b, &arena, |arena| {
            moves.iter().map(|&(d, r, k)| arena.split_count_into(d, r, k)).sum()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_burst_kernel, bench_split_counted);
criterion_main!(benches);
