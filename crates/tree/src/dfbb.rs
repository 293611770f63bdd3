//! Depth-first branch-and-bound — one of the depth-first methods the paper
//! lists as driving applications (Sec. 2: "Depth-First Branch and Bound,
//! IDA\*, Backtracking"). Provided so downstream users can run cost-optimal
//! searches over the same substrate; the parallel experiments use IDA\*.

use crate::problem::HeuristicProblem;
use crate::stack::SearchStack;

/// Result of a depth-first branch-and-bound run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DfbbResult {
    /// Cost of the best goal found, if any.
    pub best_cost: Option<u32>,
    /// Nodes expanded.
    pub expanded: u64,
}

/// Find the minimum-cost goal by depth-first branch-and-bound: children
/// with `g + h >= incumbent` are pruned; the incumbent tightens whenever a
/// cheaper goal is found.
///
/// `initial_bound` seeds the incumbent (use `u32::MAX` for none); a good
/// seed prunes more of the tree.
pub fn dfbb<H: HeuristicProblem>(problem: &H, initial_bound: u32) -> DfbbResult {
    let mut incumbent = initial_bound;
    let mut best: Option<u32> = None;
    let root = (problem.initial(), 0u32);
    let mut stack = SearchStack::from_root(root);
    let mut expanded = 0u64;
    let mut succ = Vec::new();
    while let Some((state, g)) = stack.pop_next() {
        expanded += 1;
        if problem.is_goal(&state) && g < incumbent {
            incumbent = g;
            best = Some(g);
            continue; // descendants of a goal cannot be cheaper on a tree
        }
        succ.clear();
        problem.successors(&state, &mut succ);
        let mut frame = Vec::with_capacity(succ.len());
        for (child, cost) in succ.drain(..) {
            let cg = g + cost;
            if cg + problem.h(&child) < incumbent {
                frame.push((child, cg));
            }
        }
        stack.push_frame(frame);
    }
    DfbbResult { best_cost: best, expanded }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Children;

    /// A two-route graph: a short route of cost 5 and a decoy of cost 9.
    struct TwoRoutes;

    impl HeuristicProblem for TwoRoutes {
        type State = (u8, u32); // (route id: 0=start, 1=short, 2=long; step)
        fn initial(&self) -> Self::State {
            (0, 0)
        }
        fn h(&self, _: &Self::State) -> u32 {
            0 // uninformed: pure branch-and-bound
        }
        fn successors(
            &self,
            &(route, step): &Self::State,
            out: &mut impl Children<(Self::State, u32)>,
        ) {
            match route {
                0 => {
                    // Long route generated first so DFS explores the short
                    // route first (stack pops from the back) and the long
                    // route is then pruned by the incumbent.
                    out.push(((2, 0), 0));
                    out.push(((1, 0), 0));
                }
                1 if step < 5 => out.push(((1, step + 1), 1)),
                2 if step < 9 => out.push(((2, step + 1), 1)),
                _ => {}
            }
        }
        fn is_goal(&self, &(route, step): &Self::State) -> bool {
            (route == 1 && step == 5) || (route == 2 && step == 9)
        }
    }

    #[test]
    fn finds_cheapest_goal() {
        let r = dfbb(&TwoRoutes, u32::MAX);
        assert_eq!(r.best_cost, Some(5));
    }

    #[test]
    fn incumbent_prunes_the_decoy_route() {
        let r = dfbb(&TwoRoutes, u32::MAX);
        // Short route: start + 6 nodes on route 1 + 6 nodes on route 2
        // before pruning (route-2 nodes with g + 0 >= 5 are cut at g=5:
        // nodes (2,0)..(2,4) expand, (2,5) is pruned at generation).
        assert!(r.expanded < 20, "decoy must be pruned, expanded={}", r.expanded);
    }

    #[test]
    fn tight_initial_bound_prunes_everything() {
        let r = dfbb(&TwoRoutes, 5);
        // With incumbent 5 the cost-5 goal is NOT an improvement (strict <).
        assert_eq!(r.best_cost, None);
    }

    #[test]
    fn loose_initial_bound_keeps_optimum() {
        let r = dfbb(&TwoRoutes, 6);
        assert_eq!(r.best_cost, Some(5));
    }
}
