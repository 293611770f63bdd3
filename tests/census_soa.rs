//! SoA census property suite: the chunked sweeps in `uts_core::census`
//! over the [`StackArena`]'s dense length array are *specified* against
//! the per-stack recomputation the engines used before the
//! structure-of-arrays layout (DESIGN.md §6.3). For random stack
//! populations — idle PEs included — active/busy counts, the stack-size
//! histogram and the `count_ge` suffix sum the event horizon reads must
//! all agree exactly, and the arena's length mirror must match the
//! frame-vector stacks it was built from. The stacks are long enough for
//! frames and whole stacks to straddle the arena's chunk edges, and the
//! arena's donations and encodings are checked against the frame-vector
//! ones across those edges.

use proptest::prelude::*;
use simd_tree_search::core::census;
use simd_tree_search::tree::arena::CHUNK_NODES;
use simd_tree_search::tree::{CkptNode, Donation, SearchStack, SplitPolicy, StackArena};

/// A random ensemble: per PE, a frame list (bottom-to-top, frames
/// non-empty as [`SearchStack::from_frames`] requires; an empty list is
/// an idle PE). Frames of up to six nodes and stacks of up to 36 cross
/// chunk edges anywhere.
fn arb_population() -> impl Strategy<Value = Vec<Vec<Vec<u32>>>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::collection::vec(0u32..1000, 1..7), 0..7),
        1..48,
    )
}

fn encoded_pe(arena: &StackArena<u32>, i: usize) -> Vec<u8> {
    let mut out = Vec::new();
    arena.encode_pe(i, &mut out);
    out
}

fn encoded(stack: &SearchStack<u32>) -> Vec<u8> {
    let mut out = Vec::new();
    stack.encode_node(&mut out);
    out
}

/// The pre-SoA census: walk the active list and chase each PE's stack.
fn per_stack_count_ge(stacks: &[SearchStack<u32>]) -> Vec<u32> {
    let mut hist: Vec<u32> = Vec::new();
    for stack in stacks {
        let s = stack.len();
        if s == 0 {
            continue; // idle PEs were never on the active list
        }
        if s >= hist.len() {
            hist.resize(s + 1, 0);
        }
        hist[s] += 1;
    }
    let mut out = vec![0u32; hist.len() + 1];
    let mut acc = 0u32;
    for t in (0..hist.len()).rev() {
        acc += hist[t];
        out[t] = acc;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn soa_census_matches_per_stack_recomputation(pop in arb_population()) {
        let stacks: Vec<SearchStack<u32>> =
            pop.iter().cloned().map(SearchStack::from_frames).collect();
        let arena = StackArena::from_stacks(
            pop.iter().cloned().map(SearchStack::from_frames).collect(),
        );
        let lens = arena.lens();

        // The dense mirror is the stacks' lengths, index = PE id.
        prop_assert_eq!(lens.len(), stacks.len());
        for (i, stack) in stacks.iter().enumerate() {
            prop_assert_eq!(lens[i] as usize, stack.len(), "PE {}", i);
        }

        // Flat reductions == per-stack scans.
        let active = stacks.iter().filter(|s| !s.is_empty()).count();
        let busy = stacks.iter().filter(|s| s.can_split()).count();
        let max = stacks.iter().map(|s| s.len()).max().unwrap_or(0);
        prop_assert_eq!(census::active_count(lens), active);
        prop_assert_eq!(census::busy_count(lens), busy);
        prop_assert_eq!(census::max_len(lens) as usize, max);

        // The horizon-facing distribution: hist + count_ge over the dense
        // array == the old active-list sweep. `safe_horizon` is a pure
        // function of `count_ge` (and scalars), so equality here carries
        // over to the horizon itself.
        let mut hist = Vec::new();
        let mut cg = Vec::new();
        census::build_hist(lens, &mut hist);
        census::build_count_ge(&hist, &mut cg);
        prop_assert_eq!(&cg, &per_stack_count_ge(&stacks));
        prop_assert_eq!(cg[0] as usize, active, "count_ge[0] is the active count");
        prop_assert_eq!(hist.first().copied().unwrap_or(0), 0, "idle PEs are skipped");

        // Every PE encodes byte-identically to its frame-vector stack.
        for (i, stack) in stacks.iter().enumerate() {
            prop_assert_eq!(encoded_pe(&arena, i), encoded(stack), "PE {}", i);
        }

        // Round trip: the arena gives back the exact frame lists.
        let back: Vec<Vec<Vec<u32>>> =
            arena.into_stacks().into_iter().map(SearchStack::into_frames).collect();
        prop_assert_eq!(back, pop);
    }

    /// Every split policy, and counted donations cut one before, at and one
    /// after each chunk edge of the donor's stack, leave donor and receiver
    /// encoding exactly as the frame-vector split + merge does.
    #[test]
    fn donations_match_search_stacks_across_chunk_edges(
        pop in arb_population(),
        picks in (any::<usize>(), any::<usize>()),
    ) {
        let p = pop.len();
        prop_assume!(p >= 2);
        let d = picks.0 % p;
        let r = (d + 1 + picks.1 % (p - 1)) % p;
        let stacks: Vec<SearchStack<u32>> =
            pop.iter().cloned().map(SearchStack::from_frames).collect();
        let arena = StackArena::from_stacks(stacks.clone());
        let mut donations: Vec<Donation> =
            [SplitPolicy::Bottom, SplitPolicy::Half, SplitPolicy::Top].map(Donation::Split).to_vec();
        for edge in (0..=stacks[d].len()).step_by(CHUNK_NODES).skip(1) {
            donations.extend([edge - 1, edge, edge + 1].map(Donation::Bottom));
        }
        for what in donations {
            let (mut arena, mut stacks) = (arena.clone(), stacks.clone());
            let moved = arena.donate(d, r, what);
            let [donor, receiver] = stacks.get_disjoint_mut([d, r]).expect("distinct PEs");
            let given = match what {
                Donation::Split(policy) => donor.split(policy),
                Donation::Bottom(k) => donor.split_count(k),
            };
            prop_assert_eq!(moved, given.as_ref().map_or(0, SearchStack::len), "{:?}", what);
            if let Some(given) = given {
                receiver.merge_from(given);
            }
            prop_assert_eq!(encoded_pe(&arena, d), encoded(&stacks[d]), "donor, {:?}", what);
            prop_assert_eq!(encoded_pe(&arena, r), encoded(&stacks[r]), "receiver, {:?}", what);
            prop_assert_eq!(arena.lens()[d] as usize, stacks[d].len());
            prop_assert_eq!(arena.lens()[r] as usize, stacks[r].len());
            prop_assert!(arena.store_ok(), "node store out of step, {:?}", what);
        }
    }
}
