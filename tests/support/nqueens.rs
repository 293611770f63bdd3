//! N-queens backtracking with bitmask pruning: a node holds the columns and
//! both diagonal directions that the queens of the rows placed so far
//! attack, and its children are the safe columns of the next row. Goals
//! are complete placements, so the goal count is the classical Q(n).

use simd_tree_search::prelude::*;

/// The N-queens problem on an `n × n` board, `n <= 31`.
pub struct NQueens {
    n: u32,
}

impl NQueens {
    /// # Panics
    /// Panics unless `1 <= n <= 31` (one mask bit per column).
    pub fn new(n: u32) -> Self {
        assert!((1..=31).contains(&n), "n must be in 1..=31");
        Self { n }
    }
}

impl TreeProblem for NQueens {
    /// Attacked columns, "/" diagonals and "\" diagonals. Each placed queen
    /// sets one column bit, so the next row is `columns.count_ones()`.
    type Node = (u32, u32, u32);

    fn root(&self) -> Self::Node {
        (0, 0, 0)
    }

    fn expand(&self, &(cols, diag1, diag2): &Self::Node, out: &mut impl Children<Self::Node>) {
        // A complete placement attacks every column, so it has no children.
        let mut free = ((1 << self.n) - 1) & !(cols | diag1 | diag2);
        while free != 0 {
            let bit = free & free.wrapping_neg();
            free ^= bit;
            out.push((cols | bit, (diag1 | bit) << 1, (diag2 | bit) >> 1));
        }
    }

    fn is_goal(&self, &(cols, ..): &Self::Node) -> bool {
        cols.count_ones() == self.n
    }
}

#[test]
fn eight_queens_has_92_solutions() {
    assert_eq!(serial_dfs(&NQueens::new(8)).goals, 92);
}
