//! Serial depth-first search — the baseline that defines the problem size
//! `W` ("the number of tree nodes searched by the serial algorithm",
//! Sec. 3.1) and the reference the parallel engine's node counts are
//! checked against.

use crate::problem::TreeProblem;
use crate::stack::SearchStack;

/// Outcome of a serial depth-first traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerialStats {
    /// Nodes expanded (popped off the stack) — the paper's `W`.
    pub expanded: u64,
    /// Goal nodes encountered.
    pub goals: u64,
    /// Maximum number of simultaneously stored untried alternatives
    /// (memory high-water mark of the stack).
    pub peak_stack: usize,
}

/// Exhaustively search `problem` depth-first and count.
///
/// The search never stops at a goal — like the paper's implementation it
/// "finds all the solutions up to a given tree depth", which is what makes
/// serial and parallel node counts equal.
pub fn serial_dfs<P: TreeProblem>(problem: &P) -> SerialStats {
    serial_dfs_collect(problem, |_| {})
}

/// As [`serial_dfs`], invoking `on_goal` for every goal node found.
pub fn serial_dfs_collect<P: TreeProblem>(
    problem: &P,
    mut on_goal: impl FnMut(&P::Node),
) -> SerialStats {
    let mut stack = SearchStack::from_root(problem.root());
    let mut stats = SerialStats { expanded: 0, goals: 0, peak_stack: 1 };
    let mut children = Vec::new();
    while let Some(node) = stack.pop_next() {
        stats.expanded += 1;
        if problem.is_goal(&node) {
            stats.goals += 1;
            on_goal(&node);
        }
        children.clear();
        problem.expand(&node, &mut children);
        stack.push_frame(std::mem::take(&mut children));
        stats.peak_stack = stats.peak_stack.max(stack.len());
    }
    stats
}

/// Depth-first search that stops at the first goal, returning the nodes
/// expanded up to and including it (`None` in `goals` ⇒ exhausted with no
/// goal). This is the *first-solution* regime where speedup anomalies
/// (Rao & Kumar; paper Sec. 3) live: a parallel search may find a goal
/// after expanding far fewer — or far more — nodes than this.
pub fn serial_dfs_first_goal<P: TreeProblem>(problem: &P) -> SerialStats {
    let mut stack = SearchStack::from_root(problem.root());
    let mut stats = SerialStats { expanded: 0, goals: 0, peak_stack: 1 };
    let mut children = Vec::new();
    while let Some(node) = stack.pop_next() {
        stats.expanded += 1;
        if problem.is_goal(&node) {
            stats.goals = 1;
            return stats;
        }
        children.clear();
        problem.expand(&node, &mut children);
        stack.push_frame(std::mem::take(&mut children));
        stats.peak_stack = stats.peak_stack.max(stack.len());
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::testutil::UniformTree;
    use crate::problem::{BoundedProblem, Children, HeuristicProblem};

    #[test]
    fn counts_every_node_of_a_uniform_tree() {
        for (b, d) in [(2usize, 6usize), (3, 4), (4, 3), (1, 5)] {
            let t = UniformTree { branching: b, depth: d };
            let stats = serial_dfs(&t);
            assert_eq!(stats.expanded, t.node_count(), "b={b} d={d}");
        }
    }

    #[test]
    fn finds_the_single_goal_leaf() {
        let t = UniformTree { branching: 2, depth: 5 };
        let stats = serial_dfs(&t);
        assert_eq!(stats.goals, 1);
    }

    #[test]
    fn collect_sees_goal_nodes() {
        let t = UniformTree { branching: 2, depth: 3 };
        let mut goals = Vec::new();
        serial_dfs_collect(&t, |g| goals.push(*g));
        assert_eq!(goals, vec![(3, 0)]);
    }

    #[test]
    fn trivial_root_only_tree() {
        let t = UniformTree { branching: 2, depth: 0 };
        let stats = serial_dfs(&t);
        assert_eq!(stats.expanded, 1);
        assert_eq!(stats.goals, 1);
        assert_eq!(stats.peak_stack, 1);
    }

    #[test]
    fn first_goal_stops_early() {
        // UniformTree's goal (leftmost leaf) is the LAST node in DFS order
        // (the stack pops the last-generated child first), so first-goal
        // equals the full traversal there...
        let t = UniformTree { branching: 2, depth: 4 };
        let full = serial_dfs(&t);
        let first = serial_dfs_first_goal(&t);
        assert_eq!(first.goals, 1);
        assert_eq!(first.expanded, full.expanded);

        // ...whereas a rightmost-leaf goal is hit after depth+1 expansions.
        struct RightGoal(UniformTree);
        impl TreeProblem for RightGoal {
            type Node = (usize, u64);
            fn root(&self) -> Self::Node {
                self.0.root()
            }
            fn expand(&self, n: &Self::Node, out: &mut impl Children<Self::Node>) {
                self.0.expand(n, out)
            }
            fn is_goal(&self, &(d, i): &Self::Node) -> bool {
                d == self.0.depth && i == (1 << self.0.depth) - 1
            }
        }
        let t = RightGoal(UniformTree { branching: 2, depth: 4 });
        let first = serial_dfs_first_goal(&t);
        assert_eq!(first.goals, 1);
        assert_eq!(first.expanded, 5, "root plus one rightmost child per level");
    }

    #[test]
    fn first_goal_on_goalless_tree_exhausts() {
        // depth-0 tree has the root as its only (goal) node; build a
        // goal-free tree by searching depth 1 of branching 1 where the
        // goal is the leaf with index 0... instead use a tree whose goal
        // cannot be reached: branching 2, depth 3, then strip goals.
        struct NoGoals(UniformTree);
        impl TreeProblem for NoGoals {
            type Node = (usize, u64);
            fn root(&self) -> Self::Node {
                self.0.root()
            }
            fn expand(&self, n: &Self::Node, out: &mut impl Children<Self::Node>) {
                self.0.expand(n, out)
            }
        }
        let t = NoGoals(UniformTree { branching: 2, depth: 3 });
        let stats = serial_dfs_first_goal(&t);
        assert_eq!(stats.goals, 0);
        assert_eq!(stats.expanded, 15);
    }

    /// Serial DFS over a bounded problem expands exactly the f<=bound tree.
    #[test]
    fn bounded_dfs_over_line_problem() {
        struct Line;
        impl HeuristicProblem for Line {
            type State = u32;
            fn initial(&self) -> u32 {
                0
            }
            fn h(&self, &s: &u32) -> u32 {
                5 - s
            }
            fn successors(&self, &s: &u32, out: &mut impl Children<(u32, u32)>) {
                if s < 5 {
                    out.push((s + 1, 1));
                }
            }
            fn is_goal(&self, &s: &u32) -> bool {
                s == 5
            }
        }
        let bp = BoundedProblem::new(&Line, 5);
        let stats = serial_dfs(&bp);
        assert_eq!(stats.expanded, 6, "states 0..=5");
        assert_eq!(stats.goals, 1);
    }
}
