//! Facade-level domain tests: the 15-puzzle and the four test domains of
//! `support/` agree across every machine (serial, lockstep SIMD,
//! asynchronous MIMD), and the domain-specific invariants hold end to end.

mod support;

use simd_tree_search::mimd::{run_mimd, MimdConfig, StealPolicy};
use simd_tree_search::prelude::*;
use simd_tree_search::puzzle15::{scrambled, Puzzle15};
use simd_tree_search::tree::ida::ida_star;
use simd_tree_search::tree::problem::BoundedProblem;
use support::{knapsack::random_instance, nqueens::NQueens, sat::random_3sat, sliding::Sliding};

/// Run a problem on all three machines and demand identical node and goal
/// counts.
fn agree_everywhere<P: TreeProblem>(problem: &P, label: &str) {
    let serial = serial_dfs(problem);
    let simd = run(problem, &EngineConfig::new(128, Scheme::gp_dk(), CostModel::cm2()));
    assert_eq!(simd.report.nodes_expanded, serial.expanded, "{label}: SIMD nodes");
    assert_eq!(simd.goals, serial.goals, "{label}: SIMD goals");

    let mimd =
        run_mimd(problem, &MimdConfig::new(64, StealPolicy::GlobalRoundRobin, CostModel::cm2()));
    assert_eq!(mimd.nodes_expanded, serial.expanded, "{label}: MIMD nodes");
    assert_eq!(mimd.goals, serial.goals, "{label}: MIMD goals");
}

#[test]
fn nqueens_agrees_everywhere() {
    agree_everywhere(&NQueens::new(8), "8-queens");
}

#[test]
fn sat_agrees_everywhere() {
    agree_everywhere(&random_3sat(2, 14, 50), "3-SAT 14x50");
}

#[test]
fn knapsack_agrees_everywhere() {
    agree_everywhere(&random_instance(4, 18, 25), "knapsack 18 items");
}

#[test]
fn puzzle_iteration_agrees_everywhere() {
    // A short scramble keeps this in the fast default tier; the deep
    // 50-step scramble runs in the CI `--ignored` job below.
    let inst = scrambled(17, 28);
    let puzzle = Puzzle15::new(inst.board());
    let bound = ida_star(&puzzle, 60).solution_cost.expect("solvable");
    let bp = BoundedProblem::new(&puzzle, bound);
    agree_everywhere(&bp, "15-puzzle iteration");
}

#[test]
#[ignore = "heavy 15-puzzle workload; run with --ignored (CI does)"]
fn deep_puzzle_iteration_agrees_everywhere() {
    let inst = scrambled(17, 50);
    let puzzle = Puzzle15::new(inst.board());
    let bound = ida_star(&puzzle, 70).solution_cost.expect("solvable");
    let bp = BoundedProblem::new(&puzzle, bound);
    agree_everywhere(&bp, "deep 15-puzzle iteration");
}

#[test]
fn generalized_sliding_agrees_everywhere() {
    // An 8-puzzle four moves from goal: a small complete IDA* iteration.
    let p = Sliding::new(3, vec![3, 4, 1, 6, 0, 2, 7, 8, 5]);
    let bound = ida_star(&p, 40).solution_cost.expect("solvable");
    let bp = BoundedProblem::new(&p, bound);
    agree_everywhere(&bp, "8-puzzle iteration");
}

#[test]
fn knapsack_search_equals_dp_through_the_facade() {
    for seed in [11u64, 13] {
        let k = random_instance(seed, 17, 28);
        assert_eq!(k.optimum_via_search(), k.dp_optimum(), "seed {seed}");
    }
}

#[test]
fn fegs_needs_no_more_memory_than_fess() {
    // FEGS equalizes node counts, so its peak per-PE stack should not
    // exceed FESS's lopsided peaks (Sec. 8's memory discussion).
    let k = random_instance(6, 20, 30);
    let fess = run(&k, &EngineConfig::new(64, Scheme::fess(), CostModel::cm2()));
    let fegs = run(&k, &EngineConfig::new(64, Scheme::fegs(), CostModel::cm2()));
    assert!(
        fegs.peak_stack_nodes <= fess.peak_stack_nodes * 2,
        "FEGS peak {} vs FESS peak {}",
        fegs.peak_stack_nodes,
        fess.peak_stack_nodes
    );
}
