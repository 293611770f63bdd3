//! Cross-crate integration tests: the paper's structural claims checked
//! end-to-end through the public facade API.

use simd_tree_search::analysis;
use simd_tree_search::mimd::{run_mimd, MimdConfig, StealPolicy};
use simd_tree_search::prelude::*;
use simd_tree_search::puzzle15::{scrambled, Puzzle15};
use simd_tree_search::synth::GeometricTree;
use simd_tree_search::tree::ida::ida_star;
use simd_tree_search::tree::problem::BoundedProblem;

/// A mid-sized 15-puzzle workload (~100k nodes) shared by the heavy
/// (`#[ignore]`d) tests. The IDA* pre-pass dominates each test's debug
/// wall time, so it runs once and is cached — `Puzzle15` is `Copy`.
fn puzzle_workload() -> (Puzzle15, u32, u64) {
    static WORKLOAD: std::sync::OnceLock<(Puzzle15, u32, u64)> = std::sync::OnceLock::new();
    *WORKLOAD.get_or_init(|| {
        let inst = scrambled(23, 60);
        let puzzle = Puzzle15::new(inst.board());
        let ida = ida_star(&puzzle, 70);
        let bound = ida.solution_cost.expect("solvable");
        let w = ida.final_iteration().expanded;
        (puzzle, bound, w)
    })
}

fn all_schemes() -> Vec<Scheme> {
    let mut v: Vec<Scheme> = Scheme::table1(0.8).map(|(_, s)| s).to_vec();
    v.extend([Scheme::gp_static(0.5), Scheme::ngp_static(0.95), Scheme::fess(), Scheme::fegs()]);
    v
}

#[test]
#[ignore = "heavy 15-puzzle workload; run with --ignored (CI does)"]
fn puzzle_search_is_anomaly_free_under_every_scheme() {
    let (puzzle, bound, w) = puzzle_workload();
    let bp = BoundedProblem::new(&puzzle, bound);
    let serial_goals = serial_dfs(&bp).goals;
    for scheme in all_schemes() {
        let out = run(&bp, &EngineConfig::new(256, scheme, CostModel::cm2()));
        assert_eq!(out.report.nodes_expanded, w, "{}", scheme.name());
        assert_eq!(out.goals, serial_goals, "{}", scheme.name());
        assert!(out.report.accounting_identity_holds(), "{}", scheme.name());
    }
}

#[test]
#[ignore = "heavy 15-puzzle workload; run with --ignored (CI does)"]
fn balancing_phases_never_exceed_expansion_cycles() {
    // Structural guarantee from Sec. 2.1: at least one expansion cycle runs
    // between consecutive balancing phases.
    let (puzzle, bound, _) = puzzle_workload();
    let bp = BoundedProblem::new(&puzzle, bound);
    for scheme in all_schemes() {
        let out = run(&bp, &EngineConfig::new(512, scheme, CostModel::cm2()));
        assert!(
            out.report.n_lb <= out.report.n_expand,
            "{}: {} phases vs {} cycles",
            scheme.name(),
            out.report.n_lb,
            out.report.n_expand
        );
    }
}

#[test]
#[ignore = "heavy 15-puzzle workload; run with --ignored (CI does)"]
fn gp_beats_ngp_at_high_threshold() {
    // The headline Table 2 effect at a paper-like configuration.
    let (puzzle, bound, _) = puzzle_workload();
    let bp = BoundedProblem::new(&puzzle, bound);
    let gp = run(&bp, &EngineConfig::new(1024, Scheme::gp_static(0.9), CostModel::cm2()));
    let ngp = run(&bp, &EngineConfig::new(1024, Scheme::ngp_static(0.9), CostModel::cm2()));
    assert!(gp.report.n_lb < ngp.report.n_lb, "GP {} vs nGP {}", gp.report.n_lb, ngp.report.n_lb);
    assert!(
        gp.report.efficiency >= ngp.report.efficiency,
        "GP {} vs nGP {}",
        gp.report.efficiency,
        ngp.report.efficiency
    );
}

#[test]
#[ignore = "heavy 15-puzzle workload; run with --ignored (CI does)"]
fn dk_overheads_within_twice_the_best_static() {
    // Sec. 6.2: (T_idle + T_lb) under D^K is bounded by twice the optimal
    // static trigger's. We compare against the best of a static grid (an
    // upper bound on the optimum's overhead... i.e. the grid's best is >=
    // the true optimum, making this check conservative in the right
    // direction) with a small tolerance for the init-phase difference.
    let (puzzle, bound, _) = puzzle_workload();
    let bp = BoundedProblem::new(&puzzle, bound);
    let p = 512;
    let dk = run(&bp, &EngineConfig::new(p, Scheme::gp_dk(), CostModel::cm2()));
    let best_static_overhead = [0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95]
        .iter()
        .map(|&x| {
            let o = run(&bp, &EngineConfig::new(p, Scheme::gp_static(x), CostModel::cm2()));
            o.report.t_idle + o.report.t_lb
        })
        .min()
        .unwrap();
    let ratio = analysis::models::dk_overhead_ratio(
        dk.report.t_idle,
        dk.report.t_lb,
        best_static_overhead,
        0,
    );
    assert!(ratio <= 2.2, "DK overhead ratio {ratio:.2} exceeds the paper's 2x bound (+10%)");
}

#[test]
#[ignore = "heavy 15-puzzle workload; run with --ignored (CI does)"]
fn analytic_optimal_trigger_is_near_empirical_argmax() {
    let (puzzle, bound, w) = puzzle_workload();
    let bp = BoundedProblem::new(&puzzle, bound);
    let p = 512;
    let xo = analysis::optimal_static_trigger(&analysis::TriggerParams::new(
        w,
        p,
        CostModel::cm2().lb_ratio(p),
    ));
    // The practical claim of Table 3: running at the analytic x_o achieves
    // nearly the best efficiency any static trigger can (the argmax itself
    // can sit on a flat plateau, and eq. 18's delta = 0 approximation
    // overshoots when W/P is small — the paper notes the true optimum is
    // then smaller).
    let e_at_xo =
        run(&bp, &EngineConfig::new(p, Scheme::gp_static(xo), CostModel::cm2())).report.efficiency;
    let grid = [0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95];
    let best_e = grid
        .iter()
        .map(|&x| {
            run(&bp, &EngineConfig::new(p, Scheme::gp_static(x), CostModel::cm2()))
                .report
                .efficiency
        })
        .fold(0.0f64, f64::max);
    // At this integration-test scale (W/P ≈ 200, far below the paper's
    // operating point) the approximation is loose; the tight check runs at
    // paper scale in `uts-bench --bin repro -- tables table3`.
    assert!(
        e_at_xo >= best_e - 0.10,
        "E at analytic x_o = {xo:.2} is {e_at_xo:.2}, grid best {best_e:.2}"
    );
}

/// Fast default-tier stand-in for the heavy puzzle tests above: the
/// anomaly-free contract and the `N_lb <= N_expand` structural bound on a
/// small scramble, one scheme per trigger family. The full ~100k-node
/// versions are `#[ignore]`d and run in the CI `--ignored` job.
#[test]
fn puzzle_smoke_is_anomaly_free() {
    let inst = scrambled(23, 30);
    let puzzle = Puzzle15::new(inst.board());
    let ida = ida_star(&puzzle, 60);
    let bound = ida.solution_cost.expect("solvable");
    let w = ida.final_iteration().expanded;
    let bp = BoundedProblem::new(&puzzle, bound);
    let serial_goals = serial_dfs(&bp).goals;
    for scheme in [Scheme::gp_static(0.8), Scheme::gp_dk(), Scheme::fegs()] {
        let out = run(&bp, &EngineConfig::new(128, scheme, CostModel::cm2()));
        assert_eq!(out.report.nodes_expanded, w, "{}", scheme.name());
        assert_eq!(out.goals, serial_goals, "{}", scheme.name());
        assert!(out.report.accounting_identity_holds(), "{}", scheme.name());
        assert!(out.report.n_lb <= out.report.n_expand, "{}", scheme.name());
    }
}

#[test]
fn dp_without_init_phase_can_starve() {
    // Sec. 6.1 pathology: with the root on one PE and no initial
    // distribution, w = t so w >= A (t + L) never fires while L > 0.
    let tree = GeometricTree { seed: 2, b_max: 8, depth_limit: 6 };
    let mut cfg = EngineConfig::new(64, Scheme::gp_dp(), CostModel::cm2());
    cfg.init_fraction = None;
    let out = run(&tree, &cfg);
    assert_eq!(out.report.n_lb, 0, "D^P must never trigger from a single active PE");
    // The search still terminates (serially on one processor).
    assert_eq!(out.report.nodes_expanded, serial_dfs(&tree).expanded);
}

#[test]
fn dk_recovers_without_init_phase() {
    // D^K accumulates idle time regardless of A, so it balances even from
    // the degenerate start.
    let tree = GeometricTree { seed: 2, b_max: 8, depth_limit: 6 };
    let mut cfg = EngineConfig::new(64, Scheme::gp_dk(), CostModel::cm2());
    cfg.init_fraction = None;
    let out = run(&tree, &cfg);
    assert!(out.report.n_lb > 0, "D^K must eventually balance");
    assert!(out.report.efficiency > 0.3);
}

#[test]
fn mimd_and_simd_search_the_same_space() {
    let tree = GeometricTree { seed: 3, b_max: 8, depth_limit: 6 };
    let w = serial_dfs(&tree).expanded;
    let simd = run(&tree, &EngineConfig::new(128, Scheme::gp_dk(), CostModel::cm2()));
    let mimd =
        run_mimd(&tree, &MimdConfig::new(128, StealPolicy::GlobalRoundRobin, CostModel::cm2()));
    let nn = run_with(&tree, &EngineConfig::new(128, Scheme::ring_nn(), CostModel::cm2()));
    assert_eq!(simd.report.nodes_expanded, w);
    assert_eq!(mimd.nodes_expanded, w);
    assert_eq!(nn.report.nodes_expanded, w);
}

#[test]
fn mimd_is_at_least_as_efficient_as_lockstep_at_same_point() {
    // MIMD has no lockstep idling, so at the same (W, P) it should not be
    // (much) worse — the paper's Sec. 9 explains SIMD pays extra idling.
    let tree = GeometricTree { seed: 11, b_max: 8, depth_limit: 7 };
    let simd = run(&tree, &EngineConfig::new(256, Scheme::gp_static(0.9), CostModel::cm2()));
    let mimd = run_mimd(&tree, &MimdConfig::new(256, StealPolicy::RandomPolling, CostModel::cm2()));
    assert!(
        mimd.efficiency >= simd.report.efficiency - 0.05,
        "MIMD {:.2} vs SIMD {:.2}",
        mimd.efficiency,
        simd.report.efficiency
    );
}

#[test]
#[ignore = "heavy 15-puzzle workload; run with --ignored (CI does)"]
fn higher_balancing_cost_helps_dk_over_dp() {
    // The Table 5 effect, at integration-test scale.
    let (puzzle, bound, _) = puzzle_workload();
    let bp = BoundedProblem::new(&puzzle, bound);
    let cost = CostModel::cm2().with_lb_multiplier(16);
    let dp = run(&bp, &EngineConfig::new(512, Scheme::gp_dp(), cost));
    let dk = run(&bp, &EngineConfig::new(512, Scheme::gp_dk(), cost));
    assert!(
        dk.report.efficiency >= dp.report.efficiency - 0.02,
        "DK {:.2} must not lose to DP {:.2} at 16x cost",
        dk.report.efficiency,
        dp.report.efficiency
    );
}

#[test]
#[ignore = "heavy 15-puzzle workload; run with --ignored (CI does)"]
fn gp_spreads_the_donation_burden_at_paper_like_scale() {
    // The Sec. 2.2 claim measured end-to-end through the ledger at
    // P >= 1024 on a Table-2-style workload: GP's rotating global pointer
    // leaves every donor with n or n+1 donations, so its max/mean donor
    // load stays within 2x of perfectly even; nGP's fixed enumeration
    // piles the burden onto low-index PEs and sends the ratio far above.
    let (puzzle, bound, _) = puzzle_workload();
    let bp = BoundedProblem::new(&puzzle, bound);
    let gp =
        run(&bp, &EngineConfig::new(1024, Scheme::gp_static(0.9), CostModel::cm2()).with_ledger());
    let ngp =
        run(&bp, &EngineConfig::new(1024, Scheme::ngp_static(0.9), CostModel::cm2()).with_ledger());
    let sg = gp.ledger.as_ref().expect("ledger requested").donation_spread();
    let sn = ngp.ledger.as_ref().expect("ledger requested").donation_spread();
    assert!(sg.total > 0, "the workload must trigger balancing at P=1024");
    assert!(
        sg.max_over_mean <= 2.0,
        "GP donor max/mean {:.2} must stay within 2x of even (max {} over {} donors)",
        sg.max_over_mean,
        sg.max,
        sg.donors
    );
    assert!(
        sn.max_over_mean > 2.0,
        "nGP donor max/mean {:.2} should be well above GP's {:.2}",
        sn.max_over_mean,
        sg.max_over_mean
    );
    assert!(sg.gini < sn.gini, "GP gini {:.3} vs nGP gini {:.3}", sg.gini, sn.gini);
}

/// No thread count is pinned here, so the par engine runs with one thread
/// per core the host makes available (`available_parallelism`, which
/// `taskset` and cgroup quotas narrow), and the ledger (like the whole
/// `Outcome`) must not depend on it.
#[test]
#[ignore = "heavy 15-puzzle workload; run with --ignored (CI does)"]
fn ledger_is_identical_across_engines_under_ambient_threads() {
    let (puzzle, bound, _) = puzzle_workload();
    let bp = BoundedProblem::new(&puzzle, bound);
    for scheme in [Scheme::gp_dk(), Scheme::ngp_static(0.9)] {
        let cfg = EngineConfig::new(512, scheme, CostModel::cm2()).with_ledger();
        let reference = run_reference(&bp, &cfg);
        assert!(reference.ledger.is_some());
        for kind in [EngineKind::Macro, EngineKind::Par] {
            let got = run_with(&bp, &cfg.clone().with_engine(kind));
            assert_eq!(got, reference, "{} diverged from reference", kind.name());
        }
    }
}

#[test]
#[ignore = "heavy 15-puzzle workload; run with --ignored (CI does)"]
fn speedup_grows_with_machine_size_until_saturation() {
    let (puzzle, bound, _) = puzzle_workload();
    let bp = BoundedProblem::new(&puzzle, bound);
    let mut last = 0.0;
    for p in [16usize, 64, 256, 1024] {
        let out = run(&bp, &EngineConfig::new(p, Scheme::gp_dk(), CostModel::cm2()));
        let s = out.report.speedup();
        assert!(s > last, "speedup must keep growing on this workload: {s} after {last}");
        last = s;
    }
}
