//! The per-processor DFS stack of untried alternatives, and work splitting.
//!
//! "Since each processor searches the space in a depth-first manner, the
//! (part of) state space to be searched is efficiently represented by a
//! stack. ... each level of the stack keeps track of untried alternatives.
//! The current unsearched tree space ... can be partitioned into two parts
//! by simply partitioning untried alternatives (on the current stack) into
//! two parts." (Sec. 2)
//!
//! A [`SearchStack`] is a stack of *frames*; frame `k` holds the untried
//! alternatives at stack level `k` (siblings of already-explored nodes).
//! DFS pops the most recently generated alternative (back of the top
//! frame); expanding it pushes its children as a new top frame.
//!
//! **Splitting.** A processor is *busy* (can donate) iff it holds at least
//! two nodes ([`SearchStack::can_split`]); splitting removes some
//! alternatives and forms a new stack for the receiving processor. The
//! default [`SplitPolicy::Bottom`] donates the single alternative nearest
//! the stack bottom — the paper's choice for the 15-puzzle ("every time work
//! is split we transfer the node at the bottom of the stack", Sec. 5), since
//! the shallowest untried alternative subtends the largest expected subtree.
//! [`SplitPolicy::Half`] and [`SplitPolicy::Top`] exist for the ablation
//! benches.

use crate::problem::TreeProblem;

/// What a bounded DFS burst ([`SearchStack::expand_burst`]) did: how many
/// cycles it ran, what it found, and how big the stack got.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Burst {
    /// Expansion cycles executed (`<= budget`; strictly less only if the
    /// stack emptied first).
    pub expanded: u64,
    /// Goal nodes found among the expanded nodes.
    pub goals: u64,
    /// Maximum post-push stack length observed over the burst — the same
    /// per-cycle census quantity a lockstep engine samples, so a
    /// macro-stepping engine reconstructs `peak_stack_nodes` exactly.
    pub peak: usize,
}

impl Burst {
    /// Fold another burst's totals into this one: expansions and goals
    /// add, peaks max. Every component is commutative and associative, so
    /// host-parallel shards can accumulate per-PE bursts locally and merge
    /// shard totals in any order while landing on exactly the numbers a
    /// sequential accumulation over the same bursts would produce.
    pub fn absorb(&mut self, other: Burst) {
        self.expanded += other.expanded;
        self.goals += other.goals;
        self.peak = self.peak.max(other.peak);
    }
}

/// How a donor partitions its untried alternatives (the alpha-splitting
/// mechanism of Sec. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitPolicy {
    /// Donate the alternative nearest the stack bottom (paper default).
    #[default]
    Bottom,
    /// Donate the front half of every frame (Kumar–Rao style half-split;
    /// donates `floor(len/2)` nodes overall, frame structure preserved).
    Half,
    /// Donate the alternative nearest the stack top (deliberately poor —
    /// the donated subtree is tiny; used to show splitting quality matters).
    Top,
}

/// A DFS stack of untried-alternative frames.
#[derive(Debug, Clone)]
pub struct SearchStack<N> {
    /// `frames[k]` = untried alternatives at level `k`; never contains an
    /// empty frame except frame 0 transiently inside method bodies.
    frames: Vec<Vec<N>>,
    /// Total alternatives across frames (the paper's "nodes on its stack").
    len: usize,
}

impl<N> Default for SearchStack<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N> SearchStack<N> {
    /// An empty stack (an idle processor).
    pub fn new() -> Self {
        Self { frames: Vec::new(), len: 0 }
    }

    /// A stack holding a single root alternative.
    pub fn from_root(root: N) -> Self {
        Self { frames: vec![vec![root]], len: 1 }
    }

    /// Total untried alternatives on the stack.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stack holds no work.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The paper's *busy* predicate: the stack can be split into two
    /// non-empty parts iff it holds at least two nodes.
    pub fn can_split(&self) -> bool {
        self.len >= 2
    }

    /// Pop the next alternative in DFS order (back of the top frame).
    pub fn pop_next(&mut self) -> Option<N> {
        let node = loop {
            let top = self.frames.last_mut()?;
            match top.pop() {
                Some(n) => break n,
                None => {
                    self.frames.pop();
                }
            }
        };
        self.len -= 1;
        // Drop any frames emptied by this pop: the frame list never holds an
        // empty frame.
        while self.frames.last().is_some_and(Vec::is_empty) {
            self.frames.pop();
        }
        Some(node)
    }

    /// Push the children of the node just popped as a new top frame.
    /// An empty `children` is a no-op (the popped node was a leaf).
    pub fn push_frame(&mut self, children: Vec<N>) {
        if !children.is_empty() {
            self.len += children.len();
            self.frames.push(children);
        }
    }

    /// Merge a donated stack on top of `self`, preserving the donation's
    /// frame structure (its shallowest frame sits immediately above our
    /// current top). DFS will exhaust the merged work before resuming the
    /// work below it — the same place a flattened merge would put it, but
    /// split policies and `frames()` keep seeing the true level boundaries.
    pub fn merge_from(&mut self, donated: SearchStack<N>) {
        self.len += donated.len;
        for frame in donated.frames {
            debug_assert!(!frame.is_empty(), "stacks never store empty frames");
            self.frames.push(frame);
        }
    }

    /// Split off work for an idle processor according to `policy`.
    ///
    /// Returns `None` (and leaves `self` untouched) when the stack is not
    /// splittable. Otherwise both `self` and the returned stack are
    /// non-empty and their lengths sum to the original length.
    pub fn split(&mut self, policy: SplitPolicy) -> Option<SearchStack<N>> {
        if !self.can_split() {
            return None;
        }
        let donated = match policy {
            SplitPolicy::Bottom => {
                // First alternative of the shallowest non-empty frame: the
                // node at the very bottom of the stack.
                let frame = self
                    .frames
                    .iter_mut()
                    .find(|f| !f.is_empty())
                    .expect("len >= 2 implies a non-empty frame");
                let node = frame.remove(0);
                self.len -= 1;
                SearchStack::from_root(node)
            }
            SplitPolicy::Top => {
                // First (i.e. last-to-be-tried) alternative of the deepest
                // frame holding more than one node if possible, else the
                // deepest frame outright — we must not empty the donor.
                let node = {
                    let frame = self
                        .frames
                        .iter_mut()
                        .rev()
                        .find(|f| !f.is_empty())
                        .expect("len >= 2 implies a non-empty frame");
                    if frame.len() > 1 {
                        frame.remove(0)
                    } else {
                        // Single-node top frame: taking it would be fine
                        // (donor still has >= 1 elsewhere), take it.
                        frame.remove(0)
                    }
                };
                self.len -= 1;
                SearchStack::from_root(node)
            }
            SplitPolicy::Half => {
                // Donate the front half of every frame; guarantee at least
                // one node moves (and at least one stays).
                let mut out_frames = Vec::with_capacity(self.frames.len());
                let mut moved = 0usize;
                for frame in &mut self.frames {
                    let take = frame.len() / 2;
                    let donated: Vec<N> = frame.drain(..take).collect();
                    moved += donated.len();
                    if !donated.is_empty() {
                        out_frames.push(donated);
                    }
                }
                if moved == 0 {
                    // Every frame had exactly one node; fall back to the
                    // bottom alternative so the receiver gets something.
                    let frame = self
                        .frames
                        .iter_mut()
                        .find(|f| !f.is_empty())
                        .expect("len >= 2 implies a non-empty frame");
                    out_frames.push(vec![frame.remove(0)]);
                    moved = 1;
                }
                self.len -= moved;
                SearchStack { frames: out_frames, len: moved }
            }
        };
        // Purge frames emptied by the donation.
        self.frames.retain(|f| !f.is_empty());
        debug_assert!(!self.is_empty(), "split must leave the donor non-empty");
        debug_assert!(!donated.is_empty(), "split must feed the receiver");
        Some(donated)
    }

    /// Donate up to `k` alternatives from the bottom of the stack,
    /// preserving frame structure, always leaving the donor at least one
    /// node. Used by node-count-equalizing redistribution (the FEGS scheme
    /// of Sec. 8). Returns `None` if nothing can be donated.
    pub fn split_count(&mut self, k: usize) -> Option<SearchStack<N>> {
        if !self.can_split() || k == 0 {
            return None;
        }
        let take_total = k.min(self.len - 1);
        let mut out_frames = Vec::new();
        let mut moved = 0usize;
        for frame in &mut self.frames {
            if moved == take_total {
                break;
            }
            let take = (take_total - moved).min(frame.len());
            // Never empty the *last* remaining nodes: cap enforced by
            // take_total <= len - 1 overall.
            let donated: Vec<N> = frame.drain(..take).collect();
            moved += donated.len();
            if !donated.is_empty() {
                out_frames.push(donated);
            }
        }
        self.len -= moved;
        self.frames.retain(|f| !f.is_empty());
        debug_assert!(!self.is_empty());
        Some(SearchStack { frames: out_frames, len: moved })
    }

    /// Run this processor's DFS for up to `budget` consecutive expansion
    /// cycles (or until the stack empties): pop, goal-test, expand, push —
    /// the per-PE inner loop of a macro-stepping engine. One hot stack
    /// streams through cache instead of being revisited once per lockstep
    /// round-robin sweep.
    ///
    /// Each iteration performs exactly the work one lockstep cycle would:
    /// the returned [`Burst`] lets the caller reconstruct the ensemble
    /// census afterwards (`expanded` is this PE's empty-time if it died
    /// before the budget ran out).
    pub fn expand_burst<P: TreeProblem<Node = N>>(&mut self, problem: &P, budget: u64) -> Burst {
        let mut burst = Burst::default();
        while burst.expanded < budget {
            let Some(node) = self.pop_next() else { break };
            if problem.is_goal(&node) {
                burst.goals += 1;
            }
            let mut children = Vec::new();
            problem.expand(&node, &mut children);
            self.push_frame(children);
            burst.expanded += 1;
            burst.peak = burst.peak.max(self.len);
        }
        burst
    }

    /// Iterate the alternatives bottom-to-top (test helper / diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &N> {
        self.frames.iter().flatten()
    }

    /// The frame list, bottom to top — the stack's complete state. This is
    /// what the checkpoint codec serializes.
    pub fn frames(&self) -> &[Vec<N>] {
        &self.frames
    }

    /// Rebuild a stack from an explicit frame list (checkpoint resume).
    /// `len` is recomputed.
    ///
    /// # Panics
    /// Panics if any frame is empty — stacks never store empty frames, and
    /// the codec rejects such input before it gets here.
    pub fn from_frames(frames: Vec<Vec<N>>) -> Self {
        assert!(frames.iter().all(|f| !f.is_empty()), "stacks never store empty frames");
        let len = frames.iter().map(Vec::len).sum();
        Self { frames, len }
    }

    /// Consume the stack, yielding its frame list bottom-to-top — the
    /// inverse of [`SearchStack::from_frames`] without requiring `N: Clone`.
    pub fn into_frames(self) -> Vec<Vec<N>> {
        self.frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Children;

    fn stack_of(frames: Vec<Vec<u32>>) -> SearchStack<u32> {
        let len = frames.iter().map(Vec::len).sum();
        SearchStack { frames, len }
    }

    #[test]
    fn empty_stack_is_idle() {
        let mut s: SearchStack<u32> = SearchStack::new();
        assert!(s.is_empty());
        assert!(!s.can_split());
        assert_eq!(s.pop_next(), None);
        assert!(s.split(SplitPolicy::Bottom).is_none());
    }

    #[test]
    fn single_node_is_work_but_not_busy() {
        let mut s = SearchStack::from_root(7);
        assert!(!s.is_empty());
        assert!(!s.can_split(), "paper: busy requires >= 2 nodes");
        assert!(s.split(SplitPolicy::Bottom).is_none());
        assert_eq!(s.pop_next(), Some(7));
        assert!(s.is_empty());
    }

    #[test]
    fn dfs_order_pops_most_recent_child_first() {
        let mut s = SearchStack::from_root(0);
        assert_eq!(s.pop_next(), Some(0));
        s.push_frame(vec![1, 2, 3]); // generated order 1,2,3
        assert_eq!(s.pop_next(), Some(3), "explore the last-generated child first");
        s.push_frame(vec![31, 32]);
        assert_eq!(s.pop_next(), Some(32));
        assert_eq!(s.pop_next(), Some(31));
        assert_eq!(s.pop_next(), Some(2), "backtrack to level 1");
        assert_eq!(s.pop_next(), Some(1));
        assert_eq!(s.pop_next(), None);
    }

    #[test]
    fn empty_frame_push_is_noop() {
        let mut s = SearchStack::from_root(1);
        s.push_frame(vec![]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.frames().len(), 1);
    }

    #[test]
    fn bottom_split_takes_shallowest_first_alternative() {
        let mut s = stack_of(vec![vec![10, 11], vec![20], vec![30, 31]]);
        let d = s.split(SplitPolicy::Bottom).unwrap();
        assert_eq!(d.iter().copied().collect::<Vec<_>>(), vec![10]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![11, 20, 30, 31]);
    }

    #[test]
    fn bottom_split_skips_emptied_bottom_frames() {
        let mut s = stack_of(vec![vec![10], vec![20, 21]]);
        let d = s.split(SplitPolicy::Bottom).unwrap();
        assert_eq!(d.iter().copied().collect::<Vec<_>>(), vec![10]);
        assert_eq!(s.frames().len(), 1, "emptied bottom frame is purged");
        let d2 = s.split(SplitPolicy::Bottom).unwrap();
        assert_eq!(d2.iter().copied().collect::<Vec<_>>(), vec![20]);
        assert!(!s.can_split());
    }

    #[test]
    fn top_split_takes_deepest_alternative() {
        let mut s = stack_of(vec![vec![10, 11], vec![30, 31]]);
        let d = s.split(SplitPolicy::Top).unwrap();
        assert_eq!(d.iter().copied().collect::<Vec<_>>(), vec![30]);
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![10, 11, 31]);
    }

    #[test]
    fn half_split_moves_front_half_of_each_frame() {
        let mut s = stack_of(vec![vec![1, 2, 3, 4], vec![5, 6, 7]]);
        let d = s.split(SplitPolicy::Half).unwrap();
        assert_eq!(d.iter().copied().collect::<Vec<_>>(), vec![1, 2, 5]);
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![3, 4, 6, 7]);
        assert_eq!(d.len() + s.len(), 7);
    }

    #[test]
    fn half_split_of_singleton_frames_falls_back_to_bottom() {
        let mut s = stack_of(vec![vec![1], vec![2], vec![3]]);
        let d = s.split(SplitPolicy::Half).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.iter().copied().collect::<Vec<_>>(), vec![1]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn split_conserves_and_keeps_both_nonempty() {
        for policy in [SplitPolicy::Bottom, SplitPolicy::Half, SplitPolicy::Top] {
            let mut s = stack_of(vec![vec![1, 2], vec![3], vec![4, 5, 6]]);
            let before = s.len();
            let d = s.split(policy).unwrap();
            assert!(!s.is_empty(), "{policy:?}");
            assert!(!d.is_empty(), "{policy:?}");
            assert_eq!(s.len() + d.len(), before, "{policy:?}");
        }
    }

    #[test]
    fn split_count_takes_exactly_k_from_bottom() {
        let mut s = stack_of(vec![vec![1, 2], vec![3, 4, 5]]);
        let d = s.split_count(3).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![4, 5]);
    }

    #[test]
    fn split_count_never_empties_donor() {
        let mut s = stack_of(vec![vec![1, 2, 3]]);
        let d = s.split_count(99).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn split_count_zero_or_unsplittable_is_none() {
        let mut s = stack_of(vec![vec![1, 2]]);
        assert!(s.split_count(0).is_none());
        let mut single = SearchStack::from_root(9);
        assert!(single.split_count(1).is_none());
    }

    #[test]
    fn merge_from_preserves_frame_structure() {
        let mut receiver = stack_of(vec![vec![1, 2]]);
        let donated = stack_of(vec![vec![10], vec![20, 21]]);
        receiver.merge_from(donated);
        assert_eq!(receiver.len(), 5);
        assert_eq!(receiver.frames().len(), 3, "donated frames stay distinct");
        assert_eq!(receiver.iter().copied().collect::<Vec<_>>(), vec![1, 2, 10, 20, 21]);
        // DFS exhausts the merged work first, deepest donated frame first.
        assert_eq!(receiver.pop_next(), Some(21));
        assert_eq!(receiver.pop_next(), Some(20));
        assert_eq!(receiver.pop_next(), Some(10));
        assert_eq!(receiver.pop_next(), Some(2));
    }

    #[test]
    fn merge_from_into_empty_equals_donation() {
        let mut receiver: SearchStack<u32> = SearchStack::new();
        receiver.merge_from(stack_of(vec![vec![7, 8], vec![9]]));
        assert_eq!(receiver.len(), 3);
        assert_eq!(receiver.frames().len(), 2);
    }

    /// Tiny deterministic problem for burst tests: node `n > 0` has two
    /// children `n - 1`; `n == 0` is a goal leaf.
    struct Halving;
    impl TreeProblem for Halving {
        type Node = u32;
        fn root(&self) -> u32 {
            3
        }
        fn expand(&self, n: &u32, out: &mut impl Children<u32>) {
            if *n > 0 {
                out.push(n - 1);
                out.push(n - 1);
            }
        }
        fn is_goal(&self, n: &u32) -> bool {
            *n == 0
        }
    }

    #[test]
    fn expand_burst_matches_manual_lockstep_cycles() {
        for budget in [1u64, 2, 3, 5, 100] {
            let mut fast = SearchStack::from_root(Halving.root());
            let mut slow = SearchStack::from_root(Halving.root());
            let burst = fast.expand_burst(&Halving, budget);
            let (mut expanded, mut goals, mut peak) = (0u64, 0u64, 0usize);
            while expanded < budget {
                let Some(node) = slow.pop_next() else { break };
                if Halving.is_goal(&node) {
                    goals += 1;
                }
                let mut children = Vec::new();
                Halving.expand(&node, &mut children);
                slow.push_frame(children);
                expanded += 1;
                peak = peak.max(slow.len());
            }
            assert_eq!(burst, Burst { expanded, goals, peak }, "budget {budget}");
            assert_eq!(
                fast.iter().copied().collect::<Vec<_>>(),
                slow.iter().copied().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn expand_burst_stops_early_only_when_empty() {
        let mut s = SearchStack::from_root(Halving.root());
        let burst = s.expand_burst(&Halving, u64::MAX);
        // 2^4 - 1 = 15 nodes in the full tree rooted at 3.
        assert_eq!(burst.expanded, 15);
        assert_eq!(burst.goals, 8, "the eight 0-leaves");
        assert!(s.is_empty());
        let burst2 = s.expand_burst(&Halving, 5);
        assert_eq!(burst2, Burst::default(), "empty stack bursts zero cycles");
    }

    #[test]
    fn absorb_is_order_independent() {
        let bursts = [
            Burst { expanded: 5, goals: 1, peak: 9 },
            Burst { expanded: 0, goals: 0, peak: 0 },
            Burst { expanded: 12, goals: 3, peak: 4 },
            Burst { expanded: 7, goals: 0, peak: 11 },
        ];
        let mut fwd = Burst::default();
        for b in bursts {
            fwd.absorb(b);
        }
        let mut rev = Burst::default();
        for b in bursts.into_iter().rev() {
            rev.absorb(b);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd, Burst { expanded: 24, goals: 4, peak: 11 });
    }

    #[test]
    fn donated_stack_is_searchable() {
        let mut s = stack_of(vec![vec![1, 2], vec![3, 4]]);
        let mut d = s.split(SplitPolicy::Half).unwrap();
        let mut seen = Vec::new();
        while let Some(n) = d.pop_next() {
            seen.push(n);
        }
        assert_eq!(seen, vec![3, 1]);
    }
}
