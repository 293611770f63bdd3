//! Speedup-anomaly study (extension).
//!
//! The paper deliberately excludes anomalies by searching exhaustively
//! ("the number of nodes expanded by the serial and the parallel search is
//! the same", Sec. 5), citing Rao & Kumar (ref. 33) for the first-solution
//! regime where parallel DFS can expand *fewer* nodes than serial DFS
//! (superlinear speedup) or *more* (deceleration). This section measures
//! that regime on the same engine by flipping `stop_on_goal`
//! (`repro anomalies`). For each instance it reports the anomaly ratio
//! `η = W_par(first solution) / W_serial(first solution)`; η < 1 is an
//! acceleration anomaly, η > 1 a deceleration anomaly. Exhaustive search
//! (the paper's setting) always has η = 1 — verified in the last column.

use uts_analysis::table::TextTable;
use uts_core::{EngineConfig, Scheme};
use uts_machine::CostModel;
use uts_puzzle15::{scrambled, Puzzle15};
use uts_tree::ida::ida_star;
use uts_tree::problem::BoundedProblem;
use uts_tree::{serial_dfs, serial_dfs_first_goal};

pub fn run(quick: bool) {
    let p = if quick { 64 } else { 1024 };
    let seeds: &[u64] = if quick { &[23, 31] } else { &[23, 31, 37, 41, 47, 53] };
    println!(
        "== Speedup anomalies in first-solution parallel DFS (P = {p}) ==\n\
         (eta < 1: acceleration anomaly / superlinear speedup potential;\n\
          eta > 1: deceleration anomaly; exhaustive search pins eta = 1)\n"
    );
    let mut t =
        TextTable::new(vec!["instance", "W serial->goal", "W par->goal", "eta", "exhaustive eta"]);
    let mut accel = 0;
    let mut decel = 0;
    for &seed in seeds {
        let inst = scrambled(seed, 55);
        let puzzle = Puzzle15::new(inst.board());
        let ida = ida_star(&puzzle, 70);
        let Some(bound) = ida.solution_cost else { continue };
        let bp = BoundedProblem::new(&puzzle, bound);

        let serial_first = serial_dfs_first_goal(&bp);
        let mut cfg = EngineConfig::new(p, Scheme::gp_dk(), CostModel::cm2());
        cfg.stop_on_goal = true;
        let par_first = uts_core::run(&bp, &cfg);

        // Exhaustive control: both sides expand all of W.
        let serial_full = serial_dfs(&bp);
        let par_full = uts_core::run(&bp, &EngineConfig::new(p, Scheme::gp_dk(), CostModel::cm2()));

        let eta = par_first.report.nodes_expanded as f64 / serial_first.expanded as f64;
        let eta_full = par_full.report.nodes_expanded as f64 / serial_full.expanded as f64;
        if eta < 0.99 {
            accel += 1;
        } else if eta > 1.01 {
            decel += 1;
        }
        t.row(vec![
            format!("scramble({seed},55)"),
            serial_first.expanded.to_string(),
            par_first.report.nodes_expanded.to_string(),
            format!("{eta:.3}"),
            format!("{eta_full:.3}"),
        ]);
    }
    println!("{t}");
    println!("{accel} acceleration / {decel} deceleration anomalies observed.");
    println!(
        "(Parallel first-solution search explores many branches at once; goals\n\
              sitting off the serial DFS path are found early — classic Rao-Kumar.)"
    );
}
