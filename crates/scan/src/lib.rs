//! The matching primitives of a load-balancing phase (Karypis & Kumar,
//! Sec. 2.2 and 3.3): enumerate the busy and the idle processors and pair
//! the k-th busy with the k-th idle — Hillis's rendezvous allocation —
//! optionally rotating the busy enumeration by the paper's global pointer.
//!
//! On the CM-2 the two enumerations are sum-scans done by dedicated
//! hardware; the simulator in `uts-machine` charges them through its cost
//! model (`O(1)` on the CM-2, `O(log P)` on a hypercube, `O(sqrt P)` on a
//! mesh), and this crate computes what they compute. It holds two forms of
//! the same matching:
//!
//! * [`rendezvous_match_packed`] pairs two *already enumerated* index
//!   lists. The engines call this one: the lockstep driver filters its
//!   sorted list of active PEs for the busy ones and enumerates only as
//!   many idle PEs as can be fed, so no pass over all `P` processors runs
//!   per round.
//! * [`rendezvous_match`] / [`rendezvous_match_from`] take the busy and
//!   idle *flag vectors*, as the paper states the step, and enumerate each
//!   with one sweep. They stay because they are the oracle: the reference
//!   engine matches through them, the Fig. 2 tests below are written
//!   against them, and the packed form is property-tested to agree with
//!   them for every rotation.

/// One busy→idle pairing produced by the rendezvous allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    /// Index of the donating (busy) processor.
    pub donor: usize,
    /// Index of the receiving (idle) processor.
    pub receiver: usize,
}

/// Rendezvous allocation (Hillis, *The Connection Machine*): match the k-th
/// busy processor with the k-th idle processor, for `k < min(A, I)`.
///
/// This is the *nGP* matching of the paper: the enumeration always starts at
/// processor 0, so processors early in the index order donate repeatedly.
pub fn rendezvous_match(busy: &[bool], idle: &[bool]) -> Vec<Pair> {
    rendezvous_match_from(busy, idle, 0)
}

/// Rendezvous allocation with the busy enumeration rotated to start at
/// `start` (the processor *after* the paper's global pointer).
///
/// The k-th busy processor *in the circular order `start, start+1, ..,
/// start-1`* is matched with the k-th idle processor *in plain index order*
/// (the paper rotates only the busy enumeration; idle processors are
/// enumerated normally — see Fig. 2). With `start = 0` this degenerates to
/// [`rendezvous_match`] (nGP).
///
/// Returns `min(A, I)` pairs; if `I > A` the surplus idle processors receive
/// no work, exactly as in the paper.
pub fn rendezvous_match_from(busy: &[bool], idle: &[bool], start: usize) -> Vec<Pair> {
    assert_eq!(busy.len(), idle.len(), "busy/idle flag vectors must cover the same PEs");
    // Busy processors in circular order from `start`. On the machine this is
    // two segmented enumerations (indices >= start, then indices < start)
    // glued together; functionally it is a rotation of the packed index list.
    let start = start % busy.len().max(1);
    let mut pairs = Vec::new();
    rendezvous_match_packed(&pack_indices(busy), &pack_indices(idle), start, &mut pairs);
    pairs
}

/// Indices of the marked elements, ascending: the enumeration a sum-scan
/// of the flag vector gives each marked processor, as one sweep.
fn pack_indices(flags: &[bool]) -> Vec<usize> {
    flags.iter().enumerate().filter(|(_, &f)| f).map(|(i, _)| i).collect()
}

/// The packed busy and idle enumerations of one matching round, kept by
/// the caller so that a long run's many balancing rounds share one set of
/// allocations (the input of [`rendezvous_match_packed`]).
#[derive(Debug, Default, Clone)]
pub struct MatchScratch {
    /// Packed indices of busy processors (ascending).
    pub packed_busy: Vec<usize>,
    /// Packed indices of idle processors (ascending).
    pub packed_idle: Vec<usize>,
}

/// [`rendezvous_match_from`] over *already packed* busy/idle enumerations
/// (both ascending), the form the engine hot loop maintains incrementally:
/// it derives `packed_busy` from its dense active-PE list and `packed_idle`
/// from that list's complement, so no O(P) flag sweep ever runs.
///
/// Because idle processors are matched in plain index order (Fig. 2),
/// `packed_idle` may be just the *prefix* of the idle enumeration with
/// `min(A, I)` entries — the surplus is never inspected. Output is
/// identical to the flag-based entry points given consistent inputs.
pub fn rendezvous_match_packed(
    packed_busy: &[usize],
    packed_idle: &[usize],
    start: usize,
    pairs: &mut Vec<Pair>,
) {
    pairs.clear();
    let a = packed_busy.len();
    let n = a.min(packed_idle.len());
    if n == 0 {
        return;
    }
    // Busy processors in circular order from `start` (a rotation of the
    // ascending enumeration); idle processors in plain ascending order.
    let rotation = packed_busy.partition_point(|&i| i < start);
    pairs.reserve(n);
    for k in 0..n {
        let donor = packed_busy[(rotation + k) % a];
        pairs.push(Pair { donor, receiver: packed_idle[k] });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The worked example of the paper's Fig. 2 (8 PEs, PEs 6 and 7 idle,
    /// global pointer at PE 5 → matching starts at PE 6's successor among
    /// busy PEs, i.e. PE 8). Paper indices are 1-based; ours are 0-based.
    #[test]
    fn figure2_example1_ngp() {
        // PEs 1..8 (0-based 0..8): B B B B B I I B
        let busy = [true, true, true, true, true, false, false, true];
        let idle = busy.map(|b| !b);
        let pairs = rendezvous_match(&busy, &idle);
        // nGP matches idle 6,7 (0-based 5,6) to busy 1,2 (0-based 0,1).
        assert_eq!(pairs, vec![Pair { donor: 0, receiver: 5 }, Pair { donor: 1, receiver: 6 }]);
    }

    #[test]
    fn figure2_example1_gp() {
        let busy = [true, true, true, true, true, false, false, true];
        let idle = busy.map(|b| !b);
        // Global pointer at PE 5 (0-based 4) → start enumerating busy PEs at
        // 0-based index 5; first busy PE from there is 7 (paper's PE 8).
        let pairs = rendezvous_match_from(&busy, &idle, 5);
        // GP matches idle 6,7 (0-based 5,6) to busy 8,1 (0-based 7,0).
        assert_eq!(pairs, vec![Pair { donor: 7, receiver: 5 }, Pair { donor: 0, receiver: 6 }]);
    }

    #[test]
    fn figure2_example2_gp_second_round() {
        // After the first GP round the pointer advanced to PE 1 (0-based 0);
        // same busy/idle pattern again.
        let busy = [true, true, true, true, true, false, false, true];
        let idle = busy.map(|b| !b);
        let pairs = rendezvous_match_from(&busy, &idle, 1);
        // GP now matches them to busy 2,3 (0-based 1,2).
        assert_eq!(pairs, vec![Pair { donor: 1, receiver: 5 }, Pair { donor: 2, receiver: 6 }]);
    }

    #[test]
    fn surplus_idle_receive_nothing() {
        let busy = [false, true, false, false];
        let idle = [true, false, true, true];
        let pairs = rendezvous_match(&busy, &idle);
        assert_eq!(pairs, vec![Pair { donor: 1, receiver: 0 }]);
    }

    #[test]
    fn surplus_busy_keep_working() {
        let busy = [true, true, true, false];
        let idle = [false, false, false, true];
        let pairs = rendezvous_match(&busy, &idle);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0], Pair { donor: 0, receiver: 3 });
    }

    #[test]
    fn rotation_wraps_past_end() {
        let busy = [true, false, true, false];
        let idle = [false, true, false, true];
        // start beyond the last busy index wraps to the first busy PE.
        let pairs = rendezvous_match_from(&busy, &idle, 3);
        assert_eq!(pairs, vec![Pair { donor: 0, receiver: 1 }, Pair { donor: 2, receiver: 3 }]);
    }

    #[test]
    fn empty_machine_matches_nothing() {
        assert_eq!(rendezvous_match(&[], &[]), Vec::new());
    }

    #[test]
    #[should_panic(expected = "same PEs")]
    fn mismatched_lengths_panic() {
        let _ = rendezvous_match(&[true], &[true, false]);
    }

    #[test]
    fn match_packed_agrees_with_flag_path_for_all_rotations() {
        let busy = [true, false, true, true, false, true, false, true];
        let idle = busy.map(|b| !b);
        let packed_busy = pack_indices(&busy);
        let packed_idle = pack_indices(&idle);
        let mut pairs = Vec::new();
        for start in 0..=busy.len() {
            rendezvous_match_packed(&packed_busy, &packed_idle, start, &mut pairs);
            assert_eq!(pairs, rendezvous_match_from(&busy, &idle, start), "start={start}");
        }
    }

    #[test]
    fn match_packed_accepts_idle_prefix() {
        // Surplus idle PEs are never matched, so passing only the first
        // min(A, I) idle indices must give the same pairs.
        let busy = [false, true, false, false, true, false];
        let idle = busy.map(|b| !b);
        let packed_busy = pack_indices(&busy); // [1, 4]
        let full_idle = pack_indices(&idle); // [0, 2, 3, 5]
        let mut full = Vec::new();
        let mut prefix = Vec::new();
        rendezvous_match_packed(&packed_busy, &full_idle, 2, &mut full);
        rendezvous_match_packed(&packed_busy, &full_idle[..2], 2, &mut prefix);
        assert_eq!(full, prefix);
        assert_eq!(full.len(), 2);
    }

    proptest! {
        /// The packed form over independently built index lists equals the
        /// flag-vector oracle at every rotation, and reads no more of
        /// `packed_idle` than its first `min(A, I)` entries — the prefix
        /// `uts-core`'s `pack_idle_prefix` hands it.
        #[test]
        fn packed_match_equals_the_flag_oracle_even_on_an_idle_prefix(
            pes in proptest::collection::vec((0u32..100, any::<bool>()), 0..=300),
            busy_pct in 0u32..=100,
        ) {
            // Disjoint by construction; a PE that is neither holds one node.
            let busy: Vec<bool> = pes.iter().map(|&(x, _)| x < busy_pct).collect();
            let idle: Vec<bool> = pes.iter().map(|&(x, empty)| x >= busy_pct && empty).collect();
            let mut packed_busy = Vec::new();
            let mut packed_idle = Vec::new();
            for i in 0..pes.len() {
                if busy[i] {
                    packed_busy.push(i);
                } else if idle[i] {
                    packed_idle.push(i);
                }
            }
            let fed = packed_busy.len().min(packed_idle.len());
            let mut pairs = Vec::new();
            for start in 0..=pes.len() {
                let oracle = rendezvous_match_from(&busy, &idle, start);
                prop_assert_eq!(oracle.len(), fed);
                rendezvous_match_packed(&packed_busy, &packed_idle, start, &mut pairs);
                prop_assert_eq!(&pairs, &oracle, "start={}", start);
                rendezvous_match_packed(&packed_busy, &packed_idle[..fed], start, &mut pairs);
                prop_assert_eq!(&pairs, &oracle, "idle prefix, start={}", start);
            }
        }
    }
}
