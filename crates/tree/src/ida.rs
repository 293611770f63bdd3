//! Iterative-deepening A\* (Korf 1985) — "the best known sequential
//! depth-first-search algorithm to find optimal solution paths for the
//! 15-puzzle" (Sec. 5), and the serial algorithm the paper parallelizes.
//!
//! Each iteration is a cost-bounded DFS over [`BoundedProblem`]; the next
//! bound is the minimum `f` among children pruned in the current iteration.
//! Like the paper's implementation, the final iteration is searched
//! *exhaustively* (all optimal solutions up to the bound), so its node count
//! is well-defined and identical for serial and parallel execution.

use crate::problem::{BoundedNode, BoundedProblem, HeuristicProblem, TreeProblem};
use crate::stack::SearchStack;

/// Summary of one IDA\* iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Iteration {
    /// The cost bound of this iteration.
    pub bound: u32,
    /// Nodes expanded within the bound (this iteration's `W`).
    pub expanded: u64,
    /// Goal nodes found (0 until the final iteration).
    pub goals: u64,
}

/// Result of a full IDA\* run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdaResult {
    /// Per-iteration summaries in bound order.
    pub iterations: Vec<Iteration>,
    /// The optimal solution cost, if a goal was reachable.
    pub solution_cost: Option<u32>,
}

impl IdaResult {
    /// The final (goal-containing) iteration — the workload the paper's
    /// parallel experiments run.
    pub fn final_iteration(&self) -> &Iteration {
        self.iterations.last().expect("IDA* always runs at least one iteration")
    }

    /// Total nodes expanded across all iterations.
    pub fn total_expanded(&self) -> u64 {
        self.iterations.iter().map(|i| i.expanded).sum()
    }
}

/// One cost-bounded DFS iteration, tracking the minimum pruned `f`.
///
/// Returns `(expanded, goals, next_bound)`; `next_bound` is `None` when the
/// bounded tree is the whole (finite) space.
pub fn bounded_dfs<H: HeuristicProblem>(
    problem: &BoundedProblem<'_, H>,
    mut on_goal: impl FnMut(&BoundedNode<H::State>),
) -> (u64, u64, Option<u32>) {
    let mut stack = SearchStack::from_root(problem.root());
    let mut expanded = 0u64;
    let mut goals = 0u64;
    let mut next_bound: Option<u32> = None;
    let mut children = Vec::new();
    while let Some(node) = stack.pop_next() {
        expanded += 1;
        if problem.is_goal(&node) {
            goals += 1;
            on_goal(&node);
        }
        children.clear();
        if let Some(pruned) = problem.expand_tracking_pruned(&node, &mut children) {
            next_bound = Some(next_bound.map_or(pruned, |b| b.min(pruned)));
        }
        stack.push_frame(std::mem::take(&mut children));
    }
    (expanded, goals, next_bound)
}

/// Run IDA\* to the first goal-containing iteration (searched in full).
///
/// `max_bound` guards against unsolvable instances (e.g. 15-puzzle states of
/// the wrong parity): iteration stops once the bound would exceed it.
pub fn ida_star<H: HeuristicProblem>(problem: &H, max_bound: u32) -> IdaResult {
    let mut bound = problem.h(&problem.initial());
    let mut iterations = Vec::new();
    loop {
        let bp = BoundedProblem::new(problem, bound);
        let (expanded, goals, next) = bounded_dfs(&bp, |_| {});
        iterations.push(Iteration { bound, expanded, goals });
        if goals > 0 {
            return IdaResult { iterations, solution_cost: Some(bound) };
        }
        match next {
            Some(b) if b <= max_bound => bound = b,
            _ => return IdaResult { iterations, solution_cost: None },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::testutil::LineProblem;
    use crate::problem::Children;

    #[test]
    fn line_problem_solves_in_one_iteration() {
        // Perfect heuristic: first bound = h(0) = n already admits the goal.
        let p = LineProblem { n: 6 };
        let r = ida_star(&p, 100);
        assert_eq!(r.solution_cost, Some(6));
        assert_eq!(r.iterations.len(), 1);
        assert_eq!(r.final_iteration().goals, 1);
        // Expands exactly the forward path 0..=6.
        assert_eq!(r.final_iteration().expanded, 7);
    }

    /// A problem whose heuristic underestimates by design, forcing multiple
    /// iterations with strictly increasing bounds.
    struct WeakLine {
        n: u32,
    }

    impl HeuristicProblem for WeakLine {
        type State = u32;
        fn initial(&self) -> u32 {
            0
        }
        fn h(&self, &s: &u32) -> u32 {
            // Half-strength heuristic.
            (self.n - s) / 2
        }
        fn successors(&self, &s: &u32, out: &mut impl Children<(u32, u32)>) {
            if s < self.n {
                out.push((s + 1, 1));
            }
        }
        fn is_goal(&self, &s: &u32) -> bool {
            s == self.n
        }
    }

    #[test]
    fn weak_heuristic_forces_deepening() {
        let p = WeakLine { n: 8 };
        let r = ida_star(&p, 100);
        assert_eq!(r.solution_cost, Some(8));
        assert!(r.iterations.len() > 1, "must deepen from bound 4 to 8");
        let bounds: Vec<u32> = r.iterations.iter().map(|i| i.bound).collect();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds strictly increase");
        assert_eq!(*bounds.first().unwrap(), 4);
        assert_eq!(*bounds.last().unwrap(), 8);
        // Iterations grow: each deeper bound expands at least as many nodes.
        let ws: Vec<u64> = r.iterations.iter().map(|i| i.expanded).collect();
        assert!(ws.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn unsolvable_respects_max_bound() {
        struct DeadEnd;
        impl HeuristicProblem for DeadEnd {
            type State = u32;
            fn initial(&self) -> u32 {
                0
            }
            fn h(&self, _: &u32) -> u32 {
                0
            }
            fn successors(&self, &s: &u32, out: &mut impl Children<(u32, u32)>) {
                // Infinite chain, never a goal.
                out.push((s + 1, 1));
            }
            fn is_goal(&self, _: &u32) -> bool {
                false
            }
        }
        let r = ida_star(&DeadEnd, 10);
        assert_eq!(r.solution_cost, None);
        assert!(r.iterations.last().unwrap().bound <= 10);
    }

    #[test]
    fn total_expanded_sums_iterations() {
        let p = WeakLine { n: 6 };
        let r = ida_star(&p, 100);
        assert_eq!(r.total_expanded(), r.iterations.iter().map(|i| i.expanded).sum::<u64>());
    }
}
