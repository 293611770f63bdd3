//! Structure-of-arrays backing store for an ensemble of DFS stacks.
//!
//! The lockstep engines keep one [`SearchStack`] per PE — a `Vec<Vec<N>>`
//! of frames whose census (stack sizes, activity bits) the engine re-derives
//! by chasing one heap object per PE per cycle. The paper's point is that
//! this per-PE state is *dense and uniform*: a [`StackArena`] therefore
//! stores each PE's alternatives as one flat node slab plus a frame-offset
//! array, and mirrors every stack length into one contiguous `lens: Vec<u32>`
//! the census sweeps read directly (`uts-core`'s `census` module turns that
//! array into activity counts and the `count_ge` distribution with chunked,
//! autovectorizable reductions).
//!
//! **Equivalence contract.** Every operation here reproduces the observable
//! semantics of the matching [`SearchStack`] operation exactly — same DFS
//! order, same frame boundaries after splits and merges, same [`Burst`]
//! totals — and [`StackArena::encode_pe`] emits bytes identical to
//! [`SearchStack`]'s `CkptNode::encode_node`, so snapshots taken from either
//! representation are interchangeable. The differential tests at the bottom
//! of this file drive both representations through the same operation
//! sequences and compare complete frame structures.
//!
//! Layout note: the design brief sketches "one contiguous node slab" for the
//! whole ensemble; this implementation gives each PE its *own* slab
//! ([`PeSlab`]) under a shared dense `lens` array instead. A single global
//! slab would force inter-PE capacity rebalancing on every uneven burst
//! (PEs grow at wildly different rates mid-macro-step); per-PE slabs keep
//! each burst append-only and cache-linear while the census state — the part
//! the hot sweeps actually read — stays fully dense.

use crate::codec::{put_usize, CkptNode};
use crate::problem::TreeProblem;
use crate::stack::{Burst, SearchStack, SplitPolicy};

/// One PE's DFS stack in flattened form: `nodes` holds the untried
/// alternatives bottom-to-top, `bounds[k]` is the offset where frame `k`
/// starts. Invariants mirror [`SearchStack`]: no empty frames, so `bounds`
/// is strictly increasing with `bounds[0] == 0` whenever the slab is
/// non-empty, and `bounds.len()` is the DFS depth spread.
#[derive(Debug, Clone, Default)]
pub struct PeSlab<N> {
    nodes: Vec<N>,
    bounds: Vec<u32>,
}

impl<N> PeSlab<N> {
    /// An empty slab (an idle processor).
    pub fn new() -> Self {
        Self { nodes: Vec::new(), bounds: Vec::new() }
    }

    /// Total untried alternatives.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the slab holds no work.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The paper's *busy* predicate: splittable iff at least two nodes.
    pub fn can_split(&self) -> bool {
        self.nodes.len() >= 2
    }

    /// Half-open node range of frame `k`.
    fn frame_range(&self, k: usize) -> std::ops::Range<usize> {
        let start = self.bounds[k] as usize;
        let end = self.bounds.get(k + 1).map_or(self.nodes.len(), |&b| b as usize);
        start..end
    }

    /// Pop the next alternative in DFS order (back of the top frame),
    /// recycling the frame boundary if the pop emptied it. Matches
    /// [`SearchStack::pop_next`].
    pub fn pop_next(&mut self) -> Option<N> {
        let node = self.nodes.pop()?;
        if self.bounds.last().is_some_and(|&b| b as usize == self.nodes.len()) {
            self.bounds.pop();
        }
        debug_assert!(self.bounds.last().is_none_or(|&b| (b as usize) < self.nodes.len()));
        Some(node)
    }

    /// Build the new top frame *in place on the slab tail*: `fill` appends
    /// the children directly to the node slab (the [`TreeProblem::expand`]
    /// contract is append-only), and a frame boundary is recorded iff
    /// anything was appended. The zero-copy twin of
    /// [`SearchStack::push_frame_with`] — children are written exactly once,
    /// straight into their final resting place. Returns the child count.
    pub fn push_frame_with(&mut self, fill: impl FnOnce(&mut Vec<N>)) -> usize {
        let start = self.nodes.len();
        fill(&mut self.nodes);
        debug_assert!(self.nodes.len() >= start, "expand is append-only");
        let n = self.nodes.len() - start;
        if n > 0 {
            debug_assert!(self.nodes.len() <= u32::MAX as usize, "slab offset overflow");
            self.bounds.push(start as u32);
        }
        n
    }

    /// Run this PE's DFS for up to `budget` expansion cycles (or until the
    /// slab empties): pop, goal-test, expand onto the slab tail. Burst
    /// accounting is identical to [`SearchStack::expand_burst`].
    ///
    /// `#[inline]` so that every codegen unit calling it holds its own copy:
    /// the one hot call site (`uts_core`'s burst kernel) then inlines it
    /// wherever the two instantiations land, instead of only when the
    /// partitioner happens to put them in one unit (a tenth of `burst-deep`).
    #[inline]
    pub fn expand_burst<P: TreeProblem<Node = N>>(&mut self, problem: &P, budget: u64) -> Burst {
        let mut burst = Burst::default();
        while burst.expanded < budget {
            let Some(node) = self.pop_next() else { break };
            if problem.is_goal(&node) {
                burst.goals += 1;
            }
            self.push_frame_with(|out| problem.expand(&node, out));
            burst.expanded += 1;
            burst.peak = burst.peak.max(self.nodes.len());
        }
        burst
    }

    /// Donate the single bottom-most alternative to `receiver` (the
    /// [`SplitPolicy::Bottom`] arm of [`SearchStack::split`]): remove
    /// node 0, rebase the remaining offsets, drop frame 0's boundary if the
    /// removal emptied it, and land the node as a new single-node top frame
    /// on the receiver.
    fn bottom_split_into(&mut self, receiver: &mut PeSlab<N>) {
        let node = self.nodes.remove(0);
        for b in &mut self.bounds[1..] {
            *b -= 1;
        }
        if self.bounds.len() > 1 && self.bounds[1] == 0 {
            self.bounds.remove(0);
        }
        receiver.bounds.push(receiver.nodes.len() as u32);
        receiver.nodes.push(node);
    }

    /// Split off work for `receiver` according to `policy`, reproducing
    /// [`SearchStack::split`] followed by [`SearchStack::merge_from`]
    /// frame-for-frame. Returns `false` (both slabs untouched) when `self`
    /// is not splittable.
    pub fn split_into(&mut self, policy: SplitPolicy, receiver: &mut PeSlab<N>) -> bool {
        if !self.can_split() {
            return false;
        }
        match policy {
            SplitPolicy::Bottom => self.bottom_split_into(receiver),
            SplitPolicy::Top => {
                let start = *self.bounds.last().expect("non-empty slab has frames") as usize;
                let node = self.nodes.remove(start);
                if self.nodes.len() == start {
                    self.bounds.pop();
                }
                receiver.bounds.push(receiver.nodes.len() as u32);
                receiver.nodes.push(node);
            }
            SplitPolicy::Half => {
                if self.nodes.len() == self.bounds.len() {
                    // Every frame is a singleton: nothing would move; fall
                    // back to the bottom alternative, as SearchStack does.
                    self.bottom_split_into(receiver);
                } else {
                    let total = self.nodes.len();
                    let old_bounds = std::mem::take(&mut self.bounds);
                    let mut it = std::mem::take(&mut self.nodes).into_iter();
                    self.nodes = Vec::with_capacity(total);
                    for j in 0..old_bounds.len() {
                        let s = old_bounds[j] as usize;
                        let e = old_bounds.get(j + 1).map_or(total, |&b| b as usize);
                        let take = (e - s) / 2;
                        if take > 0 {
                            receiver.bounds.push(receiver.nodes.len() as u32);
                            receiver.nodes.extend(it.by_ref().take(take));
                        }
                        // keep = ceil(flen / 2) >= 1: every donor frame survives.
                        self.bounds.push(self.nodes.len() as u32);
                        self.nodes.extend(it.by_ref().take(e - s - take));
                    }
                }
            }
        }
        debug_assert!(!self.is_empty(), "split must leave the donor non-empty");
        debug_assert!(!receiver.is_empty(), "split must feed the receiver");
        true
    }

    /// Donate up to `k` alternatives from the bottom of the stack to
    /// `receiver`, preserving frame structure and always leaving the donor
    /// at least one node — [`SearchStack::split_count`] followed by
    /// [`SearchStack::merge_from`], fused. Returns the number of nodes
    /// moved (0 when nothing can be donated).
    pub fn split_count_into(&mut self, k: usize, receiver: &mut PeSlab<N>) -> usize {
        if !self.can_split() || k == 0 {
            return 0;
        }
        let take_total = k.min(self.nodes.len() - 1);
        let total = self.nodes.len();
        // Frames intersecting the donated prefix are exactly those whose
        // start offset lies below the cut.
        let cut = self.bounds.partition_point(|&b| (b as usize) < take_total);
        let mut donated = self.nodes.drain(..take_total);
        for j in 0..cut {
            let s = self.bounds[j] as usize;
            let e = if j + 1 < cut { self.bounds[j + 1] as usize } else { take_total };
            receiver.bounds.push(receiver.nodes.len() as u32);
            receiver.nodes.extend(donated.by_ref().take(e - s));
        }
        drop(donated);
        // Rebase the donor: frames whose end sat past the cut survive, their
        // starts clamped to the cut and shifted down.
        let nb = self.bounds.len();
        let mut wrote = 0;
        for j in 0..nb {
            let e = if j + 1 < nb { self.bounds[j + 1] as usize } else { total };
            if e > take_total {
                self.bounds[wrote] =
                    (self.bounds[j] as usize).max(take_total) as u32 - take_total as u32;
                wrote += 1;
            }
        }
        self.bounds.truncate(wrote);
        debug_assert!(!self.is_empty());
        take_total
    }

    /// Flatten a [`SearchStack`] into slab form.
    pub fn from_stack(stack: SearchStack<N>) -> Self {
        let mut slab = Self::new();
        for frame in stack.into_frames() {
            slab.bounds.push(slab.nodes.len() as u32);
            slab.nodes.extend(frame);
        }
        slab
    }

    /// Rebuild the equivalent [`SearchStack`] (checkpoint-resume and
    /// oracle-comparison path).
    pub fn into_stack(self) -> SearchStack<N> {
        let total = self.nodes.len();
        let mut frames = Vec::with_capacity(self.bounds.len());
        let mut it = self.nodes.into_iter();
        for j in 0..self.bounds.len() {
            let s = self.bounds[j] as usize;
            let e = self.bounds.get(j + 1).map_or(total, |&b| b as usize);
            frames.push(it.by_ref().take(e - s).collect());
        }
        SearchStack::from_frames(frames)
    }
}

impl<N: CkptNode> PeSlab<N> {
    /// Serialize exactly as [`SearchStack`]'s `CkptNode::encode_node` would:
    /// frame count, then each frame as a length-prefixed node list. The
    /// checkpoint codec cannot tell which representation wrote the bytes.
    pub fn encode_stack(&self, out: &mut Vec<u8>) {
        put_usize(out, self.bounds.len());
        for k in 0..self.bounds.len() {
            let range = self.frame_range(k);
            put_usize(out, range.len());
            for node in &self.nodes[range] {
                node.encode_node(out);
            }
        }
    }
}

/// The ensemble: one [`PeSlab`] per PE plus the dense census state — every
/// PE's stack length mirrored into one contiguous `u32` array. All mutation
/// goes through methods that keep `lens[i] == slabs[i].len()`; the parallel
/// engine's shards, which need disjoint `&mut` windows, use
/// [`StackArena::parts_mut`] and restore the mirror themselves (debug
/// assertions re-check it at every census read).
#[derive(Debug, Clone)]
pub struct StackArena<N> {
    slabs: Vec<PeSlab<N>>,
    lens: Vec<u32>,
}

impl<N> StackArena<N> {
    /// An ensemble of `p` idle PEs.
    pub fn new(p: usize) -> Self {
        Self { slabs: (0..p).map(|_| PeSlab::new()).collect(), lens: vec![0; p] }
    }

    /// Flatten an ensemble of [`SearchStack`]s (the canonical checkpoint /
    /// oracle representation) into arena form.
    pub fn from_stacks(stacks: Vec<SearchStack<N>>) -> Self {
        let slabs: Vec<PeSlab<N>> = stacks.into_iter().map(PeSlab::from_stack).collect();
        let lens = slabs.iter().map(|s| s.len() as u32).collect();
        Self { slabs, lens }
    }

    /// Rebuild the canonical [`SearchStack`] ensemble.
    pub fn into_stacks(self) -> Vec<SearchStack<N>> {
        self.slabs.into_iter().map(PeSlab::into_stack).collect()
    }

    /// Ensemble size `P`.
    pub fn p(&self) -> usize {
        self.slabs.len()
    }

    /// The dense stack-length array the census sweeps read. Index = PE id;
    /// `lens()[i] > 0` is the activity bit, `lens()[i] >= 2` the busy bit.
    pub fn lens(&self) -> &[u32] {
        debug_assert!(self.mirror_ok(), "lens mirror out of sync");
        &self.lens
    }

    /// Stack length of PE `i`.
    pub fn len_of(&self, i: usize) -> usize {
        self.lens[i] as usize
    }

    /// Build PE `i`'s new top frame in place on its slab tail (see
    /// [`PeSlab::push_frame_with`]). Returns the child count.
    pub fn push_frame_with(&mut self, i: usize, fill: impl FnOnce(&mut Vec<N>)) -> usize {
        let n = self.slabs[i].push_frame_with(fill);
        self.lens[i] += n as u32;
        n
    }

    /// Burst PE `i` for up to `budget` cycles (see [`PeSlab::expand_burst`]).
    pub fn expand_burst<P: TreeProblem<Node = N>>(
        &mut self,
        i: usize,
        problem: &P,
        budget: u64,
    ) -> Burst {
        let burst = self.slabs[i].expand_burst(problem, budget);
        self.lens[i] = self.slabs[i].len() as u32;
        burst
    }

    /// Split work from PE `donor` to PE `receiver` under `policy` (see
    /// [`PeSlab::split_into`]). Returns `false` when the donor cannot split.
    ///
    /// # Panics
    /// Panics if `donor == receiver`.
    pub fn split_into(&mut self, donor: usize, receiver: usize, policy: SplitPolicy) -> bool {
        let (d, r) = pair_mut(&mut self.slabs, donor, receiver);
        let before = d.len();
        if !d.split_into(policy, r) {
            return false;
        }
        let moved = (before - d.len()) as u32;
        self.lens[donor] -= moved;
        self.lens[receiver] += moved;
        true
    }

    /// Donate up to `k` bottom alternatives from `donor` to `receiver`
    /// (see [`PeSlab::split_count_into`]). Returns the nodes moved.
    ///
    /// # Panics
    /// Panics if `donor == receiver`.
    pub fn split_count_into(&mut self, donor: usize, receiver: usize, k: usize) -> usize {
        let (d, r) = pair_mut(&mut self.slabs, donor, receiver);
        let moved = d.split_count_into(k, r);
        self.lens[donor] -= moved as u32;
        self.lens[receiver] += moved as u32;
        moved
    }

    /// Disjoint mutable views of the slab array and the length mirror, for
    /// host-parallel shards that carve both at the same PE boundaries. The
    /// caller must restore `lens[i] == slabs[i].len()` before the next
    /// census read; [`StackArena::lens`] re-checks it under debug.
    pub fn parts_mut(&mut self) -> (&mut [PeSlab<N>], &mut [u32]) {
        (&mut self.slabs, &mut self.lens)
    }

    fn mirror_ok(&self) -> bool {
        self.slabs.iter().zip(&self.lens).all(|(s, &l)| s.len() == l as usize)
    }
}

impl<N: CkptNode> StackArena<N> {
    /// Serialize PE `i`'s stack byte-identically to the [`SearchStack`]
    /// codec (see [`PeSlab::encode_stack`]).
    pub fn encode_pe(&self, i: usize, out: &mut Vec<u8>) {
        self.slabs[i].encode_stack(out);
    }
}

/// Disjoint `&mut` to two distinct slots of a slice.
fn pair_mut<T>(slice: &mut [T], a: usize, b: usize) -> (&mut T, &mut T) {
    assert_ne!(a, b, "pair_mut requires distinct indices");
    if a < b {
        let (lo, hi) = slice.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = slice.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CkptNode;

    fn stack_of(frames: Vec<Vec<u32>>) -> SearchStack<u32> {
        SearchStack::from_frames(frames)
    }

    /// The reference for [`PeSlab::split_into`]: split, then merge the
    /// donation on top of the receiver.
    fn split_then_merge(
        donor: &mut SearchStack<u32>,
        policy: SplitPolicy,
        receiver: &mut SearchStack<u32>,
    ) -> bool {
        donor.split(policy).map(|donated| receiver.merge_from(donated)).is_some()
    }

    fn assert_matches_stack(slab: &PeSlab<u32>, stack: &SearchStack<u32>) {
        assert_eq!(slab.len(), stack.len(), "lengths diverge");
        let slab_frames = slab.clone().into_stack().into_frames();
        assert_eq!(slab_frames, stack.frames(), "frame structures diverge");
    }

    /// Tiny deterministic problem: node `n > 0` has two children `n - 1`;
    /// `n == 0` is a goal leaf (mirrors the stack.rs burst tests).
    struct Halving;
    impl TreeProblem for Halving {
        type Node = u32;
        fn root(&self) -> u32 {
            3
        }
        fn expand(&self, n: &u32, out: &mut Vec<u32>) {
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
    fn pop_next_matches_search_stack() {
        let shape = vec![vec![1u32, 2], vec![3], vec![4, 5, 6]];
        let mut stack = stack_of(shape.clone());
        let mut slab = PeSlab::from_stack(stack_of(shape));
        loop {
            let a = slab.pop_next();
            let b = stack.pop_next();
            assert_eq!(a, b);
            assert_matches_stack(&slab, &stack);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn push_frame_with_matches_search_stack() {
        let mut stack = SearchStack::from_root(9u32);
        let mut slab = PeSlab::from_stack(SearchStack::from_root(9u32));
        assert_eq!(
            slab.push_frame_with(|out| out.extend([1, 2, 3])),
            stack.push_frame_with(|out| out.extend([1, 2, 3])),
        );
        assert_eq!(slab.push_frame_with(|_| {}), stack.push_frame_with(|_| {}));
        assert_matches_stack(&slab, &stack);
    }

    #[test]
    fn expand_burst_matches_search_stack() {
        for budget in [0u64, 1, 2, 3, 5, 7, 100] {
            let mut stack = SearchStack::from_root(Halving.root());
            let mut slab = PeSlab::from_stack(SearchStack::from_root(Halving.root()));
            let a = slab.expand_burst(&Halving, budget);
            let b = stack.expand_burst(&Halving, budget);
            assert_eq!(a, b, "budget {budget}");
            assert_matches_stack(&slab, &stack);
        }
    }

    #[test]
    fn split_into_matches_search_stack_for_all_policies() {
        let shapes: [Vec<Vec<u32>>; 5] = [
            vec![vec![10, 11], vec![20], vec![30, 31]],
            vec![vec![1], vec![2], vec![3]],
            vec![vec![1, 2, 3, 4], vec![5, 6, 7]],
            vec![vec![10], vec![20, 21]],
            vec![vec![1, 2]],
        ];
        for policy in [SplitPolicy::Bottom, SplitPolicy::Half, SplitPolicy::Top] {
            for shape in &shapes {
                for receiver_shape in [vec![], vec![vec![90u32, 91]]] {
                    let mut donor_s = stack_of(shape.clone());
                    let mut recv_s = if receiver_shape.is_empty() {
                        SearchStack::new()
                    } else {
                        stack_of(receiver_shape.clone())
                    };
                    let mut donor_a = PeSlab::from_stack(stack_of(shape.clone()));
                    let mut recv_a = PeSlab::from_stack(if receiver_shape.is_empty() {
                        SearchStack::new()
                    } else {
                        stack_of(receiver_shape.clone())
                    });
                    let ok_s = split_then_merge(&mut donor_s, policy, &mut recv_s);
                    let ok_a = donor_a.split_into(policy, &mut recv_a);
                    assert_eq!(ok_a, ok_s, "{policy:?}");
                    assert_matches_stack(&donor_a, &donor_s);
                    assert_matches_stack(&recv_a, &recv_s);
                }
            }
        }
    }

    #[test]
    fn split_into_unsplittable_is_noop() {
        let mut donor = PeSlab::from_stack(SearchStack::from_root(5u32));
        let mut recv: PeSlab<u32> = PeSlab::new();
        assert!(!donor.split_into(SplitPolicy::Bottom, &mut recv));
        assert_eq!(donor.len(), 1);
        assert!(recv.is_empty());
    }

    #[test]
    fn split_count_into_matches_split_count_plus_merge() {
        let shapes: [Vec<Vec<u32>>; 4] = [
            vec![vec![1, 2], vec![3, 4, 5]],
            vec![vec![1, 2, 3]],
            vec![vec![1], vec![2], vec![3, 4]],
            vec![vec![1, 2]],
        ];
        for k in 0usize..6 {
            for shape in &shapes {
                let mut donor_s = stack_of(shape.clone());
                let mut recv_s = stack_of(vec![vec![90u32]]);
                let mut donor_a = PeSlab::from_stack(stack_of(shape.clone()));
                let mut recv_a = PeSlab::from_stack(stack_of(vec![vec![90u32]]));
                let moved_s = match donor_s.split_count(k) {
                    Some(d) => {
                        let m = d.len();
                        recv_s.merge_from(d);
                        m
                    }
                    None => 0,
                };
                let moved_a = donor_a.split_count_into(k, &mut recv_a);
                assert_eq!(moved_a, moved_s, "k={k} shape={shape:?}");
                assert_matches_stack(&donor_a, &donor_s);
                assert_matches_stack(&recv_a, &recv_s);
            }
        }
    }

    #[test]
    fn stack_round_trip_is_lossless() {
        let shapes: [Vec<Vec<u32>>; 3] =
            [vec![], vec![vec![7]], vec![vec![1, 2], vec![3], vec![4, 5, 6]]];
        for shape in shapes {
            let stack = if shape.is_empty() { SearchStack::new() } else { stack_of(shape) };
            let original: Vec<Vec<u32>> = stack.frames().to_vec();
            let back = PeSlab::from_stack(stack).into_stack();
            assert_eq!(back.frames(), original.as_slice());
        }
    }

    #[test]
    fn encode_stack_is_byte_identical_to_search_stack() {
        let shapes: [Vec<Vec<u32>>; 4] =
            [vec![], vec![vec![7]], vec![vec![1, 2], vec![3], vec![4, 5, 6]], vec![vec![42; 9]]];
        for shape in shapes {
            let stack = if shape.is_empty() { SearchStack::new() } else { stack_of(shape) };
            let slab = PeSlab::from_stack(stack.clone());
            let mut via_stack = Vec::new();
            stack.encode_node(&mut via_stack);
            let mut via_slab = Vec::new();
            slab.encode_stack(&mut via_slab);
            assert_eq!(via_slab, via_stack);
        }
    }

    #[test]
    fn arena_keeps_the_lens_mirror_in_sync() {
        let mut arena = StackArena::from_stacks(vec![
            SearchStack::from_root(Halving.root()),
            SearchStack::new(),
            stack_of(vec![vec![1, 2], vec![3]]),
        ]);
        assert_eq!(arena.lens(), &[1, 0, 3]);
        assert_eq!(arena.p(), 3);
        arena.expand_burst(0, &Halving, 2);
        assert_eq!(arena.len_of(0), arena.slabs[0].len());
        assert!(arena.split_into(2, 1, SplitPolicy::Bottom));
        assert_eq!(arena.lens(), &[arena.slabs[0].len() as u32, 1, 2]);
        let moved = arena.split_count_into(2, 1, 1);
        assert_eq!(moved, 1);
        assert_eq!(arena.lens()[1], 2);
        let stacks = arena.into_stacks();
        assert_eq!(stacks.len(), 3);
    }

    #[test]
    fn arena_round_trips_through_stacks() {
        let stacks = vec![
            stack_of(vec![vec![1u32, 2], vec![3]]),
            SearchStack::new(),
            SearchStack::from_root(9),
        ];
        let originals: Vec<Vec<Vec<u32>>> = stacks.iter().map(|s| s.frames().to_vec()).collect();
        let back = StackArena::from_stacks(stacks).into_stacks();
        let after: Vec<Vec<Vec<u32>>> = back.iter().map(|s| s.frames().to_vec()).collect();
        assert_eq!(after, originals);
    }

    #[test]
    fn long_differential_run_stays_in_lockstep() {
        // Drive both representations through an interleaved pop / expand /
        // split / donate sequence chosen by a tiny deterministic LCG and
        // compare complete frame structures after every operation.
        let mut stacks =
            vec![SearchStack::from_root(Halving.root()), SearchStack::new(), SearchStack::new()];
        let mut arena = StackArena::from_stacks(stacks.clone());
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let policies = [SplitPolicy::Bottom, SplitPolicy::Half, SplitPolicy::Top];
        for step in 0..400 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let i = (rng >> 33) as usize % 3;
            let j = (i + 1 + (rng >> 21) as usize % 2) % 3;
            match (rng >> 60) % 4 {
                0 => {
                    // As the single-cycle engine path pops: through the
                    // disjoint views, restoring the mirror itself.
                    let (slabs, lens) = arena.parts_mut();
                    let a = slabs[i].pop_next();
                    lens[i] = slabs[i].len() as u32;
                    let b = stacks[i].pop_next();
                    assert_eq!(a, b, "step {step}");
                }
                1 => {
                    let budget = 1 + (rng >> 10) % 3;
                    let a = arena.expand_burst(i, &Halving, budget);
                    let b = stacks[i].expand_burst(&Halving, budget);
                    assert_eq!(a, b, "step {step}");
                }
                2 => {
                    let policy = policies[(rng >> 15) as usize % 3];
                    let (di, ri) = (i, j);
                    let a = arena.split_into(di, ri, policy);
                    let (d, r) = pair_mut(&mut stacks, di, ri);
                    let b = split_then_merge(d, policy, r);
                    assert_eq!(a, b, "step {step}");
                }
                _ => {
                    let k = 1 + (rng >> 40) as usize % 4;
                    let a = arena.split_count_into(i, j, k);
                    let (d, r) = pair_mut(&mut stacks, i, j);
                    let b = match d.split_count(k) {
                        Some(don) => {
                            let m = don.len();
                            r.merge_from(don);
                            m
                        }
                        None => 0,
                    };
                    assert_eq!(a, b, "step {step}");
                }
            }
            for (pe, stack) in stacks.iter().enumerate() {
                assert_eq!(arena.len_of(pe), stack.len(), "step {step} pe {pe}");
                assert_matches_stack(&arena.slabs[pe], stack);
            }
            // If the whole ensemble drained, reseed it so later steps keep
            // exercising the mutating arms.
            if arena.lens().iter().all(|&l| l == 0) {
                stacks[0] = SearchStack::from_root(Halving.root());
                arena = StackArena::from_stacks(stacks.clone());
            }
        }
    }
}
