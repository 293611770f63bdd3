//! Pins `uts-machine`'s closed-form balancing-phase costs against this
//! crate's *actual* routers: for random permutation traffic — the shape
//! of a balancing round's transfer step, every donor sending one stack to
//! its matched receiver — the closed-form per-round transfer charge must
//! bracket the measured routing from above, and the no-contention lower
//! bound (`max_hops`) from below, at P ∈ {64, 1024, 4096, 65 536} — and at
//! P = 1 048 576, the size the sharded machine runs, in the `#[ignore]`d
//! release tier.
//!
//! The paper's Sec. 3.3 *asserts* transfer = `O(log^2 P)` (hypercube
//! general permutation) and `O(sqrt P)` (mesh) and `uts-machine` charges
//! exactly those shapes; this suite is the measurement that keeps the
//! charge honest: dimension-ordered e-cube and XY routing under link
//! contention must deliver a random permutation within the closed form,
//! and the closed form must not be vacuously loose (it stays within a
//! small constant of the measurement).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use uts_machine::CostModel;
use uts_net::hypercube::Hypercube;
use uts_net::mesh::Mesh;
use uts_net::{route_with, Links, Message, RouteStats, Router};

/// A seeded random permutation of `0..p` as one message per source
/// (fixed points allowed — a PE that keeps its work sends nothing).
fn permutation_traffic(seed: u64, p: usize) -> Vec<Message> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut dst: Vec<usize> = (0..p).collect();
    // Fisher–Yates.
    for i in (1..p).rev() {
        dst.swap(i, rng.random_range(0..=i));
    }
    (0..p).map(|src| Message { src, dst: dst[src] }).collect()
}

/// Route one permutation per seed through one link table.
fn route_permutations<R: Router>(router: &R, p: usize, seeds: &[u64]) -> Vec<RouteStats> {
    let mut links = Links::default();
    seeds.iter().map(|&s| route_with(&mut links, router, &permutation_traffic(s, p))).collect()
}

const SEEDS: [u64; 5] = [1, 2, 3, 5, 8];
const SIZES: [usize; 4] = [64, 1024, 4096, 65_536];

#[test]
fn hypercube_closed_form_brackets_measured_permutation_routing() {
    hypercube_bracket(&SIZES, &SEEDS);
}

fn hypercube_bracket(sizes: &[usize], seeds: &[u64]) {
    let cost = CostModel::hypercube();
    for &p in sizes {
        let d = (p as f64).log2().ceil() as u32; // 6, 10, 12, 16
        let cube = Hypercube::new(p);
        // Per-round closed-form transfer charge, in units of lb_transfer:
        // the d^2 general-permutation bound.
        let closed = cost.lb_phase_cost_breakdown(p, 1);
        assert_eq!(closed.transfer, cost.lb_transfer * (d as u64 * d as u64));
        for (i, stats) in route_permutations(&cube, p, seeds).iter().enumerate() {
            // Upper bracket: e-cube under contention delivers a random
            // permutation within the closed form's d^2 steps.
            assert!(
                stats.steps as u64 * cost.lb_transfer <= closed.transfer,
                "P={p} seed#{i}: measured {} steps > closed-form {} (d^2 = {})",
                stats.steps,
                closed.transfer / cost.lb_transfer,
                d * d
            );
            // Lower bracket: the charge covers the no-contention bound
            // (longest single path), and the traffic is not degenerate.
            assert!(stats.max_hops <= d, "P={p}: a path exceeded the cube dimension");
            assert!(
                stats.steps >= stats.max_hops,
                "P={p}: contention cannot beat the longest path"
            );
            assert!(
                2 * stats.max_hops >= d,
                "P={p} seed#{i}: permutation too local (max_hops {} < d/2 = {})",
                stats.max_hops,
                d / 2
            );
            // Honesty: random permutations route in ~d steps under e-cube
            // (measured), so the d^2 worst-case charge is at most a factor
            // d above the measurement — the headroom reserved for
            // adversarial permutations, not an unbounded overcharge.
            assert!(
                stats.steps + 1 >= d,
                "P={p} seed#{i}: measured {} steps fell below ~d = {d}, making the d^2 \
                 charge more than d times the measurement",
                stats.steps
            );
        }
    }
}

#[test]
fn mesh_closed_form_brackets_measured_permutation_routing() {
    mesh_bracket(&SIZES, &SEEDS);
}

fn mesh_bracket(sizes: &[usize], seeds: &[u64]) {
    let cost = CostModel::mesh();
    for &p in sizes {
        let side = (p as f64).sqrt().ceil() as u32; // 8, 32, 64, 256
        let mesh = Mesh::new(p);
        let closed = cost.lb_phase_cost_breakdown(p, 1);
        assert_eq!(closed.transfer, cost.lb_transfer * side as u64);
        for (i, stats) in route_permutations(&mesh, p, seeds).iter().enumerate() {
            // The diameter is 2(side-1); XY paths never exceed it.
            assert!(stats.max_hops <= 2 * (side - 1), "P={p}: path exceeded the mesh diameter");
            assert!(stats.steps >= stats.max_hops, "P={p}: steps below the longest path");
            // Bracket: the sqrt(P) charge and the measured makespan agree
            // within a factor of 4 in both directions — random permutations
            // on a mesh genuinely cost Theta(sqrt P) under XY contention.
            assert!(
                stats.steps <= 4 * side,
                "P={p} seed#{i}: measured {} steps > 4*sqrt(P) = {}",
                stats.steps,
                4 * side
            );
            assert!(
                4 * stats.steps >= side,
                "P={p} seed#{i}: measured {} steps make the sqrt(P) = {side} charge vacuous",
                stats.steps
            );
        }
    }
}

#[test]
fn measured_breakdown_of_permutation_traffic_stays_within_closed_form() {
    measured_breakdown_bracket(&SIZES, &SEEDS);
}

fn measured_breakdown_bracket(sizes: &[usize], seeds: &[u64]) {
    // End-to-end: feed real measured route steps into
    // `measured_lb_cost_breakdown` and compare against the closed form the
    // ledger charges — on the hypercube the measured phase can never cost
    // more than the charged phase (same setup term, bracketed transfer).
    let cost = CostModel::hypercube();
    for &p in sizes {
        let cube = Hypercube::new(p);
        for (i, stats) in route_permutations(&cube, p, seeds).iter().enumerate() {
            let closed = cost.lb_phase_cost_breakdown(p, 1);
            let measured = cost.measured_lb_cost_breakdown(p, 1, stats.steps as u64);
            assert_eq!(measured.setup, closed.setup, "setup is traffic-independent");
            assert!(
                measured.total <= closed.total,
                "P={p} seed#{i}: measured total {} > closed-form total {}",
                measured.total,
                closed.total
            );
        }
    }
}

/// The same brackets at the machine size `sts shard` and the benchmark's
/// wide workloads run (d = 20, side = 1024). One permutation per topology:
/// a million messages over ~2,000 mesh steps is half a minute optimized
/// and many minutes in a debug build, hence the release tier.
#[test]
#[ignore = "release tier: cargo test --release -p uts-net -- --ignored"]
fn brackets_hold_at_a_million_processors() {
    let p = 1 << 20;
    hypercube_bracket(&[p], &SEEDS[..1]);
    mesh_bracket(&[p], &SEEDS[..1]);
    measured_breakdown_bracket(&[p], &SEEDS[..1]);
}

#[test]
fn growth_rates_match_the_papers_asserted_shapes() {
    // Across the size ladder the *measured* medians must grow like the
    // asserted shapes: hypercube permutation makespans grow ~ d (staying
    // under d^2), mesh makespans grow ~ sqrt(P). Pin the cross-size ratio.
    let median = |mut v: Vec<u32>| -> u32 {
        v.sort_unstable();
        v[v.len() / 2]
    };
    let cube_median = |p: usize| {
        median(route_permutations(&Hypercube::new(p), p, &SEEDS).iter().map(|s| s.steps).collect())
    };
    let mesh_median = |p: usize| {
        median(route_permutations(&Mesh::new(p), p, &SEEDS).iter().map(|s| s.steps).collect())
    };
    // 64 -> 4096: d doubles (6 -> 12), sqrt(P) grows 8x (8 -> 64).
    let (c64, c4096) = (cube_median(64), cube_median(4096));
    assert!(c4096 >= c64, "hypercube makespan must not shrink with P");
    assert!(c4096 <= 4 * c64, "hypercube growth {c64} -> {c4096} is super-logarithmic");
    let (m64, m4096) = (mesh_median(64), mesh_median(4096));
    assert!(
        m4096 >= 4 * m64,
        "mesh growth {m64} -> {m4096} is slower than sqrt(P) predicts (want >= 4x)"
    );
    assert!(m4096 <= 32 * m64, "mesh growth {m64} -> {m4096} overshoots sqrt(P) (want <= 32x)");
}
