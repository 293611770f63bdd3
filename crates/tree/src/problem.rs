//! Problem abstractions.
//!
//! [`TreeProblem`] is the minimal interface the parallel engine needs: a
//! root and a successor generator. Pruning (depth bounds, `f > bound` in
//! IDA\*, cost bounds in branch-and-bound) happens inside `expand`, so the
//! serial and parallel searches — which share the same `expand` — expand
//! *identical* node sets. That is how the paper excludes speedup anomalies
//! ("the number of nodes expanded by the serial and the parallel search is
//! the same", Sec. 5).

/// Where [`TreeProblem::expand`] and [`HeuristicProblem::successors`] put
/// what they generate: the new top frame, one `push` per child.
pub trait Children<T> {
    /// Append `child` to the frame being built.
    fn push(&mut self, child: T);
}

impl<T> Children<T> for Vec<T> {
    #[inline]
    fn push(&mut self, child: T) {
        Vec::push(self, child);
    }
}

/// A dynamically generated search tree.
///
/// `Node` values must be self-contained (carry their own depth / path cost),
/// because the parallel engine moves them between processors' stacks — and
/// byte-serializable ([`crate::codec::CkptNode`]), because the checkpoint
/// subsystem snapshots in-flight stacks to disk and resumes them.
pub trait TreeProblem: Sync {
    /// A node of the tree. Cloned when stacks are split and shipped;
    /// encoded/decoded when a run is checkpointed.
    type Node: Clone + Send + Sync + crate::codec::CkptNode;

    /// The root node.
    fn root(&self) -> Self::Node;

    /// Push the children of `node` onto `out` in the order a DFS should
    /// *generate* them. (`SearchStack` pops from the back, so the child
    /// pushed last is explored first.) Prune here: a child that should not
    /// be searched is simply not emitted. `out` is a `Vec` for the serial
    /// searches and the arena's frame writer for the engines, which lands
    /// each child straight in its final slot.
    fn expand(&self, node: &Self::Node, out: &mut impl Children<Self::Node>);

    /// Whether `node` is a goal. Checked when the node is *expanded*.
    fn is_goal(&self, node: &Self::Node) -> bool {
        let _ = node;
        false
    }
}

/// A problem with an admissible heuristic, searchable by IDA\*
/// (Korf 1985 — the serial algorithm of the paper's experiments).
pub trait HeuristicProblem: Sync {
    /// A state of the problem. The [`crate::codec::CkptNode`] bound keeps
    /// [`BoundedNode<State>`] checkpointable, so IDA\* iterations running
    /// under the parallel engine can snapshot and resume.
    type State: Clone + Send + Sync + crate::codec::CkptNode;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// Lower bound on the remaining cost to any goal (`h`).
    fn h(&self, s: &Self::State) -> u32;

    /// Emit `(successor, edge_cost)` pairs.
    fn successors(&self, s: &Self::State, out: &mut impl Children<(Self::State, u32)>);

    /// Goal test.
    fn is_goal(&self, s: &Self::State) -> bool;
}

/// A node of a cost-bounded DFS iteration: a state plus its path cost `g`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundedNode<S> {
    /// The underlying problem state.
    pub state: S,
    /// Path cost from the root.
    pub g: u32,
}

/// One IDA\* iteration: the tree of all nodes with `f = g + h <= bound`,
/// viewed as a [`TreeProblem`].
///
/// The *next* bound of iterative deepening is the minimum `f` among the
/// children pruned during this iteration; expansion records it in a
/// caller-provided cell via interior mutability-free design: the pruning
/// minimum is instead recomputed by [`crate::ida::ida_star`] with a second
/// pass trick — see there. To keep `expand` pure, this adapter simply drops
/// over-bound children.
#[derive(Debug, Clone)]
pub struct BoundedProblem<'a, H> {
    heuristic: &'a H,
    bound: u32,
}

impl<'a, H: HeuristicProblem> BoundedProblem<'a, H> {
    /// View `heuristic`'s search space cut at `f <= bound`.
    pub fn new(heuristic: &'a H, bound: u32) -> Self {
        Self { heuristic, bound }
    }

    /// The cost bound of this iteration.
    pub fn bound(&self) -> u32 {
        self.bound
    }

    /// The underlying heuristic problem.
    pub fn inner(&self) -> &H {
        self.heuristic
    }

    /// Like [`TreeProblem::expand`], but also returns the minimum `f` value
    /// among pruned children (`None` if nothing was pruned) — the quantity
    /// iterative deepening needs for its next bound.
    pub fn expand_tracking_pruned(
        &self,
        node: &BoundedNode<H::State>,
        out: &mut impl Children<BoundedNode<H::State>>,
    ) -> Option<u32> {
        let mut within = WithinBound { problem: self, g: node.g, out, min_pruned: None };
        self.heuristic.successors(&node.state, &mut within);
        within.min_pruned
    }
}

/// The successor sink of one bounded expansion: passes each in-bound child
/// on to `out` as it is generated and keeps the smallest pruned `f`.
struct WithinBound<'a, 'h, H, C> {
    problem: &'a BoundedProblem<'h, H>,
    /// Path cost of the node being expanded.
    g: u32,
    out: &'a mut C,
    min_pruned: Option<u32>,
}

impl<H: HeuristicProblem, C: Children<BoundedNode<H::State>>> Children<(H::State, u32)>
    for WithinBound<'_, '_, H, C>
{
    #[inline]
    fn push(&mut self, (state, cost): (H::State, u32)) {
        let g = self.g + cost;
        let f = g + self.problem.heuristic.h(&state);
        if f <= self.problem.bound {
            self.out.push(BoundedNode { state, g });
        } else {
            self.min_pruned = Some(self.min_pruned.map_or(f, |m| m.min(f)));
        }
    }
}

impl<H: HeuristicProblem> TreeProblem for BoundedProblem<'_, H> {
    type Node = BoundedNode<H::State>;

    fn root(&self) -> Self::Node {
        BoundedNode { state: self.heuristic.initial(), g: 0 }
    }

    fn expand(&self, node: &Self::Node, out: &mut impl Children<Self::Node>) {
        self.expand_tracking_pruned(node, out);
    }

    fn is_goal(&self, node: &Self::Node) -> bool {
        self.heuristic.is_goal(&node.state)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A complete `b`-ary tree of the given depth; node = (depth, index).
    /// Goals are the leaves whose index is 0.
    pub struct UniformTree {
        pub branching: usize,
        pub depth: usize,
    }

    impl TreeProblem for UniformTree {
        type Node = (usize, u64);

        fn root(&self) -> Self::Node {
            (0, 0)
        }

        fn expand(&self, &(d, i): &Self::Node, out: &mut impl Children<Self::Node>) {
            if d < self.depth {
                for c in 0..self.branching {
                    out.push((d + 1, i * self.branching as u64 + c as u64));
                }
            }
        }

        fn is_goal(&self, &(d, i): &Self::Node) -> bool {
            d == self.depth && i == 0
        }
    }

    impl UniformTree {
        /// Closed-form node count: (b^(depth+1) - 1) / (b - 1).
        pub fn node_count(&self) -> u64 {
            let b = self.branching as u64;
            if b == 1 {
                return self.depth as u64 + 1;
            }
            (b.pow(self.depth as u32 + 1) - 1) / (b - 1)
        }
    }

    /// A line-graph heuristic problem: states 0..=n on a path, goal n,
    /// h = n - s (perfectly informed), unit edges, branching to s+1 and
    /// (dead end) s-1 clipped.
    pub struct LineProblem {
        pub n: u32,
    }

    impl HeuristicProblem for LineProblem {
        type State = u32;

        fn initial(&self) -> u32 {
            0
        }

        fn h(&self, &s: &u32) -> u32 {
            self.n - s
        }

        fn successors(&self, &s: &u32, out: &mut impl Children<(u32, u32)>) {
            if s < self.n {
                out.push((s + 1, 1));
            }
            if s > 0 {
                out.push((s - 1, 1));
            }
        }

        fn is_goal(&self, &s: &u32) -> bool {
            s == self.n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn uniform_tree_expands_branching_children() {
        let t = UniformTree { branching: 3, depth: 2 };
        let mut out = Vec::new();
        t.expand(&t.root(), &mut out);
        assert_eq!(out, vec![(1, 0), (1, 1), (1, 2)]);
        out.clear();
        t.expand(&(2, 5), &mut out);
        assert!(out.is_empty(), "leaves have no children");
    }

    #[test]
    fn bounded_problem_prunes_over_bound_children() {
        let line = LineProblem { n: 4 };
        // Root f = h(0) = 4; with bound 4 only forward moves stay (backward
        // moves raise f by 2 each step).
        let bp = BoundedProblem::new(&line, 4);
        let root = bp.root();
        assert_eq!(root.g, 0);
        let mut out = Vec::new();
        let pruned = bp.expand_tracking_pruned(&root, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].state, 1);
        assert_eq!(out[0].g, 1);
        assert_eq!(pruned, None, "state 0 has no backward child to prune");

        // From state 1 (g=1), the backward child 0 has f = 2 + 4 = 6 > 4.
        let n1 = BoundedNode { state: 1, g: 1 };
        out.clear();
        let pruned = bp.expand_tracking_pruned(&n1, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(pruned, Some(6));
    }

    #[test]
    fn bounded_problem_goal_passthrough() {
        let line = LineProblem { n: 2 };
        let bp = BoundedProblem::new(&line, 2);
        assert!(!bp.is_goal(&BoundedNode { state: 1, g: 1 }));
        assert!(bp.is_goal(&BoundedNode { state: 2, g: 2 }));
    }
}
