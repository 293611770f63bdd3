//! N-queens backtracking with bitmask pruning.
//!
//! The classic irregular backtracking tree: place one queen per row; a
//! node's children are the safe columns of the next row, tracked as three
//! bitmasks (columns, both diagonal directions) so `expand` is branch-free
//! per candidate. Goals are complete placements; the tree is searched
//! exhaustively, so the goal count is the classical Q(n) sequence.

use uts_tree::{Children, TreeProblem};

/// A partial placement: `row` queens placed, attack masks accumulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueensNode {
    /// Rows filled so far.
    pub row: u8,
    /// Columns under attack.
    pub cols: u32,
    /// "/" diagonals under attack (shifted left each row).
    pub diag1: u32,
    /// "\" diagonals under attack (shifted right each row).
    pub diag2: u32,
}

impl uts_tree::CkptNode for QueensNode {
    fn encode_node(&self, out: &mut Vec<u8>) {
        out.push(self.row);
        uts_tree::codec::put_u32(out, self.cols);
        uts_tree::codec::put_u32(out, self.diag1);
        uts_tree::codec::put_u32(out, self.diag2);
    }
    fn decode_node(r: &mut uts_tree::Reader<'_>) -> Result<Self, uts_tree::CodecError> {
        Ok(Self { row: r.u8()?, cols: r.u32()?, diag1: r.u32()?, diag2: r.u32()? })
    }
}

/// The N-queens problem for an `n × n` board, `n <= 31`.
#[derive(Debug, Clone, Copy)]
pub struct NQueens {
    n: u8,
}

impl NQueens {
    /// Create an `n`-queens problem.
    ///
    /// # Panics
    /// Panics unless `1 <= n <= 31` (mask width).
    pub fn new(n: u8) -> Self {
        assert!((1..=31).contains(&n), "n must be in 1..=31");
        Self { n }
    }

    /// Board size.
    pub fn n(&self) -> u8 {
        self.n
    }

    /// The classical solution counts Q(1)..Q(12) (OEIS A000170), used by
    /// tests and handy for callers validating a run.
    pub const KNOWN_COUNTS: [u64; 12] = [1, 0, 0, 2, 10, 4, 40, 92, 352, 724, 2680, 14200];
}

impl TreeProblem for NQueens {
    type Node = QueensNode;

    fn root(&self) -> QueensNode {
        QueensNode { row: 0, cols: 0, diag1: 0, diag2: 0 }
    }

    fn expand(&self, node: &QueensNode, out: &mut impl Children<QueensNode>) {
        if node.row == self.n {
            return;
        }
        let full = (1u32 << self.n) - 1;
        let mut free = full & !(node.cols | node.diag1 | node.diag2);
        while free != 0 {
            let bit = free & free.wrapping_neg();
            free ^= bit;
            out.push(QueensNode {
                row: node.row + 1,
                cols: node.cols | bit,
                diag1: (node.diag1 | bit) << 1,
                diag2: (node.diag2 | bit) >> 1,
            });
        }
    }

    fn is_goal(&self, node: &QueensNode) -> bool {
        node.row == self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uts_tree::serial_dfs;

    #[test]
    fn counts_match_the_known_sequence() {
        for (i, &expect) in NQueens::KNOWN_COUNTS.iter().enumerate().take(9) {
            let n = (i + 1) as u8;
            let stats = serial_dfs(&NQueens::new(n));
            assert_eq!(stats.goals, expect, "Q({n})");
        }
    }

    #[test]
    fn q10_through_q11() {
        assert_eq!(serial_dfs(&NQueens::new(10)).goals, 724);
        assert_eq!(serial_dfs(&NQueens::new(11)).goals, 2680);
    }

    #[test]
    fn root_expansion_offers_n_columns() {
        let q = NQueens::new(8);
        let mut out = Vec::new();
        q.expand(&q.root(), &mut out);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn attacked_columns_are_pruned() {
        let q = NQueens::new(4);
        // Queen at row 0 column 0: row 1 must exclude columns 0 and 1.
        let mut out = Vec::new();
        q.expand(&q.root(), &mut out);
        let first = *out.iter().find(|n| n.cols == 1).unwrap();
        out = Vec::new();
        q.expand(&first, &mut out);
        let cols: Vec<u32> = out.iter().map(|n| n.cols & !1).collect();
        assert!(cols.iter().all(|&c| c != 1 << 1), "column 1 is on the diagonal");
        assert_eq!(out.len(), 2, "columns 2 and 3 remain");
    }

    #[test]
    fn goals_are_leaves() {
        // Greedy first-free-column placement solves 5-queens (0,2,4,1,3);
        // the resulting goal node must expand to nothing.
        let q = NQueens::new(5);
        let mut node = q.root();
        let mut out = Vec::new();
        while node.row < 5 {
            out.clear();
            q.expand(&node, &mut out);
            node = *out.first().expect("greedy 5-queens never dead-ends");
        }
        assert!(q.is_goal(&node));
        out.clear();
        q.expand(&node, &mut out);
        assert!(out.is_empty(), "complete placements are leaves");
    }

    #[test]
    #[should_panic(expected = "1..=31")]
    fn oversized_board_rejected() {
        let _ = NQueens::new(32);
    }

    #[test]
    fn parallel_lockstep_matches_serial() {
        use uts_core::{run, EngineConfig, Scheme};
        use uts_machine::CostModel;
        let q = NQueens::new(9);
        let serial = serial_dfs(&q);
        let out = run(&q, &EngineConfig::new(64, Scheme::gp_dk(), CostModel::cm2()));
        assert_eq!(out.report.nodes_expanded, serial.expanded);
        assert_eq!(out.goals, serial.goals);
    }
}
