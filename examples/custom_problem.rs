//! Bring your own search tree: implement [`TreeProblem`] for N-queens and
//! run it under every machine model — the "unstructured tree computations"
//! the paper's introduction motivates are exactly this shape (backtracking
//! over an irregular space).
//!
//! ```text
//! cargo run --release --example custom_problem [N]
//! ```

use simd_tree_search::mimd::{run_mimd, MimdConfig, StealPolicy};
use simd_tree_search::prelude::*;

/// Partial placement: one queen per filled row, column positions packed.
#[derive(Clone, Debug)]
struct Placement {
    cols: Vec<u8>,
}

impl CkptNode for Placement {
    fn encode_node(&self, out: &mut Vec<u8>) {
        self.cols.encode_node(out);
    }
    fn decode_node(r: &mut tree::Reader<'_>) -> Result<Self, tree::CodecError> {
        Ok(Self { cols: Vec::decode_node(r)? })
    }
}

/// The N-queens backtracking tree: children = safe placements in the next
/// row. Goals are complete placements.
struct NQueens {
    n: u8,
}

impl NQueens {
    fn safe(&self, cols: &[u8], col: u8) -> bool {
        let row = cols.len() as i32;
        cols.iter().enumerate().all(|(r, &c)| {
            let (r, c) = (r as i32, c as i32);
            c != col as i32 && (row - r) != (col as i32 - c).abs()
        })
    }
}

impl TreeProblem for NQueens {
    type Node = Placement;

    fn root(&self) -> Placement {
        Placement { cols: Vec::new() }
    }

    fn expand(&self, node: &Placement, out: &mut impl Children<Placement>) {
        if node.cols.len() == self.n as usize {
            return;
        }
        for col in 0..self.n {
            if self.safe(&node.cols, col) {
                let mut cols = node.cols.clone();
                cols.push(col);
                out.push(Placement { cols });
            }
        }
    }

    fn is_goal(&self, node: &Placement) -> bool {
        node.cols.len() == self.n as usize
    }
}

fn main() {
    let n: u8 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(11);
    let problem = NQueens { n };

    // Serial baseline: W and the solution count.
    let serial = serial_dfs(&problem);
    println!("{n}-queens: W = {} nodes, {} solutions (serial DFS)", serial.expanded, serial.goals);

    // SIMD lockstep machine, GP-D^K.
    for p in [64usize, 512] {
        let out = run(&problem, &EngineConfig::new(p, Scheme::gp_dk(), CostModel::cm2()));
        assert_eq!(out.report.nodes_expanded, serial.expanded);
        assert_eq!(out.goals, serial.goals, "every solution found exactly once");
        println!(
            "SIMD  P={p:4} GP-D^K : E = {:.2}, speedup {:6.1}, {} balancing phases",
            out.report.efficiency,
            out.report.speedup(),
            out.report.n_lb
        );
    }

    // MIMD work stealing on the same tree.
    for p in [64usize, 512] {
        let m =
            run_mimd(&problem, &MimdConfig::new(p, StealPolicy::RandomPolling, CostModel::cm2()));
        assert_eq!(m.nodes_expanded, serial.expanded);
        println!(
            "MIMD  P={p:4} RP     : E = {:.2}, {} steals over {} requests",
            m.efficiency, m.transfers, m.requests
        );
    }
}
