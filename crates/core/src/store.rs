//! The balancing phase's view of the per-PE stacks.
//!
//! [`crate::engine::balancing_phase`] needs exactly four things from the
//! ensemble: the machine size, the dense stack-length census, and two
//! *batched* transfer primitives (matched splits and counted splits). For
//! the in-process engines that view is [`uts_tree::StackArena`] itself;
//! the sharded multi-process machine (`uts-shard`) implements the same
//! trait over a coordinator-side length mirror plus wire messages to the
//! worker processes that own the stacks. The trait's primitives are
//! *batches*: a rendezvous round is one batch, and an equalization round is
//! one batch or several windows of at most [`StackStore::max_batch`]
//! requests. Within one round every donor and every receiver is a distinct
//! PE touched exactly once, so batching the splits and reading the census
//! afterwards is observationally identical to the split-by-split
//! interleaving, which is the determinism argument for the sharded machine
//! (DESIGN.md §13). The in-process arena takes an equalization round in
//! windows so its buffers stay bounded; the remote store takes each round
//! whole, so a round stays one message exchange.

use uts_scan::Pair;
use uts_tree::{SplitPolicy, StackArena};

/// One counted-split request of an equalization round: move up to
/// `max_nodes` bottom-of-stack nodes from `donor` to `receiver`
/// (the [`StackArena::split_count_into`] contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountedMove {
    /// PE donating work.
    pub donor: usize,
    /// PE receiving it.
    pub receiver: usize,
    /// Upper bound on nodes moved (the donor always keeps at least one).
    pub max_nodes: usize,
}

/// The per-PE stack ensemble as the balancing phase sees it: a dense
/// length census plus batched split/transfer primitives. Implemented by
/// [`StackArena`] (in-process) and by `uts-shard`'s coordinator-side
/// remote store (stacks live in worker processes).
///
/// # Contract
///
/// Within one batch, all donors are distinct, all receivers are distinct,
/// and the two sets are disjoint (the rendezvous matching and the
/// equalizer both guarantee this), so implementations may apply the
/// batch's splits in any order — or concurrently across shards — and the
/// post-batch census is well-defined. `lens()` must reflect every
/// completed batch before the next call reads it. A
/// [`StackStore::split_counts`] batch holds at most
/// [`StackStore::max_batch`] requests.
pub trait StackStore {
    /// Ensemble size `P`.
    fn p(&self) -> usize;

    /// Dense per-PE stack lengths (`lens()[i]` = nodes on PE `i`'s stack;
    /// `0` = idle). Length is exactly [`StackStore::p`].
    fn lens(&self) -> &[u32];

    /// PE `i`'s stack size.
    fn len_of(&self, i: usize) -> usize {
        self.lens()[i] as usize
    }

    /// Whether PE `i` can donate (holds at least two nodes).
    fn can_split(&self, i: usize) -> bool {
        self.lens()[i] >= 2
    }

    /// Apply one matched round of splits: for each pair, split the donor's
    /// stack under `policy` and hand the donated part to the (empty)
    /// receiver. `ok[k]` reports whether pair `k` actually transferred
    /// (false iff the donor could not split). `ok` is cleared first.
    fn split_pairs(&mut self, pairs: &[Pair], policy: SplitPolicy, ok: &mut Vec<bool>);

    /// Apply one batch of counted splits of an equalization round: for
    /// each request, move up to `max_nodes` bottom nodes donor → receiver,
    /// preserving frame structure. `moved[k]` reports the node count
    /// request `k` actually moved (0 = nothing). `moved` is cleared first.
    fn split_counts(&mut self, reqs: &[CountedMove], moved: &mut Vec<usize>);

    /// The most requests one [`StackStore::split_counts`] batch carries:
    /// the equalizer applies a round in windows of at most this many, so
    /// its request and verdict buffers stay this small at any `P`. The
    /// default suits a store in memory, where a batch is only a loop. A
    /// store whose batch is a message exchange returns `usize::MAX` to
    /// receive each round whole.
    fn max_batch(&self) -> usize {
        MAX_BATCH
    }
}

/// The default [`StackStore::max_batch`], measured on the benchmark's
/// `balance-wide` (P = 2^20, FEGS, `GenTree::geometric(1, 8, 11)`, 12-byte
/// nodes, two runs each): windows of 2^12, 2^14 and 2^16 requests peaked at
/// 89.9, 90.1 and 90.9 MB resident with equal wall time (0.18–0.20 s),
/// against 98.3 MB for whole rounds, whose request list passes 262 k
/// entries. 2^16 keeps a million-PE round to a handful of windows.
const MAX_BATCH: usize = 1 << 16;

impl<N: Clone> StackStore for StackArena<N> {
    fn p(&self) -> usize {
        StackArena::p(self)
    }

    fn lens(&self) -> &[u32] {
        StackArena::lens(self)
    }

    fn split_pairs(&mut self, pairs: &[Pair], policy: SplitPolicy, ok: &mut Vec<bool>) {
        ok.clear();
        ok.extend(pairs.iter().map(|pair| self.split_into(pair.donor, pair.receiver, policy)));
    }

    fn split_counts(&mut self, reqs: &[CountedMove], moved: &mut Vec<usize>) {
        moved.clear();
        moved.extend(reqs.iter().map(|r| self.split_count_into(r.donor, r.receiver, r.max_nodes)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uts_tree::SearchStack;

    fn arena_with(lens: &[usize]) -> StackArena<u64> {
        let stacks: Vec<SearchStack<u64>> = lens
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let mut frames: Vec<Vec<u64>> = Vec::new();
                if n > 0 {
                    frames.push((0..n as u64).map(|k| (i as u64) << 32 | k).collect());
                }
                SearchStack::from_frames(frames)
            })
            .collect();
        StackArena::from_stacks(stacks)
    }

    #[test]
    fn arena_split_pairs_matches_split_into() {
        let mut a = arena_with(&[5, 0, 3, 0]);
        let mut b = arena_with(&[5, 0, 3, 0]);
        let pairs = [Pair { donor: 0, receiver: 1 }, Pair { donor: 2, receiver: 3 }];
        let mut ok = Vec::new();
        StackStore::split_pairs(&mut a, &pairs, SplitPolicy::Bottom, &mut ok);
        let expect: Vec<bool> =
            pairs.iter().map(|p| b.split_into(p.donor, p.receiver, SplitPolicy::Bottom)).collect();
        assert_eq!(ok, expect);
        assert_eq!(StackStore::lens(&a), StackArena::lens(&b));
    }

    #[test]
    fn arena_split_counts_matches_split_count_into() {
        let mut a = arena_with(&[9, 1, 0, 2]);
        let mut b = arena_with(&[9, 1, 0, 2]);
        let reqs = [
            CountedMove { donor: 0, receiver: 2, max_nodes: 4 },
            CountedMove { donor: 3, receiver: 1, max_nodes: 1 },
        ];
        let mut moved = Vec::new();
        StackStore::split_counts(&mut a, &reqs, &mut moved);
        let expect: Vec<usize> =
            reqs.iter().map(|r| b.split_count_into(r.donor, r.receiver, r.max_nodes)).collect();
        assert_eq!(moved, expect);
        assert_eq!(StackStore::lens(&a), StackArena::lens(&b));
    }

    #[test]
    fn census_defaults_read_the_lens_mirror() {
        let a = arena_with(&[4, 0, 1, 2]);
        assert_eq!(StackStore::p(&a), 4);
        assert_eq!(a.len_of(2), 1);
        assert!(StackStore::can_split(&a, 0));
        assert!(!StackStore::can_split(&a, 2));
    }
}
