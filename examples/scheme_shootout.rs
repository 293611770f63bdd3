//! Scheme shootout: every load-balancing scheme of the paper (plus the
//! Sec. 8 related-work baselines) on one 15-puzzle workload.
//!
//! ```text
//! cargo run --release --example scheme_shootout [P] [scramble_len]
//! ```

use simd_tree_search::analysis::table::{fmt_e, TextTable};
use simd_tree_search::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let p: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1024);
    let walk: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(70);

    let instance = puzzle15::scrambled(23, walk);
    let puzzle = puzzle15::Puzzle15::new(instance.board());
    let ida = tree::ida::ida_star(&puzzle, 80);
    let bound = ida.solution_cost.expect("solvable");
    let w = ida.final_iteration().expanded;
    println!("workload: scramble(23, {walk}), final IDA* bound {bound}, W = {w}, P = {p}\n");

    let bounded = tree::problem::BoundedProblem::new(&puzzle, bound);
    let xo = analysis::optimal_static_trigger(&analysis::TriggerParams::new(
        w,
        p,
        CostModel::cm2().lb_ratio(p),
    ));

    let mut t = TextTable::new(vec!["scheme", "Nexpand", "Nlb", "transfers", "E", "speedup"]);
    let schemes: Vec<(String, Scheme)> = vec![
        (format!("GP-S^{xo:.2} (x_o)"), Scheme::gp_static(xo)),
        ("GP-S^0.50".into(), Scheme::gp_static(0.5)),
        ("nGP-S^0.90".into(), Scheme::ngp_static(0.9)),
        ("GP-S^0.90".into(), Scheme::gp_static(0.9)),
        ("GP-D^K".into(), Scheme::gp_dk()),
        ("nGP-D^K".into(), Scheme::ngp_dk()),
        ("GP-D^P".into(), Scheme::gp_dp()),
        ("nGP-D^P".into(), Scheme::ngp_dp()),
        ("FESS".into(), Scheme::fess()),
        ("FEGS".into(), Scheme::fegs()),
        ("ring-NN".into(), Scheme::ring_nn()),
    ];
    for (name, scheme) in schemes {
        let out = run(&bounded, &EngineConfig::new(p, scheme, CostModel::cm2()));
        assert_eq!(out.report.nodes_expanded, w);
        t.row(vec![
            name,
            out.report.n_expand.to_string(),
            out.report.n_lb.to_string(),
            out.report.n_transfers.to_string(),
            fmt_e(out.report.efficiency),
            format!("{:.1}", out.report.speedup()),
        ]);
    }
    println!("{t}");
}
