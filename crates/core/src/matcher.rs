//! The matching step of a balancing phase: rendezvous allocation with or
//! without the paper's global pointer (Sec. 2.2 and Fig. 2).

use uts_scan::{rendezvous_match, rendezvous_match_from, rendezvous_match_packed, Pair};

use crate::scheme::Matching;

/// Matching state carried across balancing phases. Only GP has state: the
/// *global pointer* remembering the last donor of the previous phase.
#[derive(Debug, Clone)]
pub struct MatchState {
    matching: Matching,
    /// Index of the last processor that donated work, if any (GP only).
    global_pointer: Option<usize>,
}

impl MatchState {
    /// Fresh state for the given matching scheme.
    pub fn new(matching: Matching) -> Self {
        Self { matching, global_pointer: None }
    }

    /// Rebuild matching state from a checkpoint: the scheme plus the saved
    /// global pointer (always `None` for NGP, which carries no state).
    pub fn restore(matching: Matching, global_pointer: Option<usize>) -> Self {
        debug_assert!(
            matching == Matching::Gp || global_pointer.is_none(),
            "NGP matching has no pointer to restore"
        );
        Self { matching, global_pointer }
    }

    /// Current global pointer (None before the first GP donation).
    pub fn global_pointer(&self) -> Option<usize> {
        self.global_pointer
    }

    /// GP start index for the next round on a `p`-processor machine: one
    /// past the last donor, wrapping at `p`. Both entry points wrap with
    /// the machine size — the flag entry point used to wrap with
    /// `busy.len()`, which silently diverged from the packed entry point
    /// whenever a caller passed a short flag slice.
    fn start_for(&self, p: usize) -> usize {
        match self.matching {
            Matching::Ngp => 0,
            Matching::Gp => self.global_pointer.map_or(0, |gp| {
                debug_assert!(gp < p, "global pointer {gp} outside machine of size {p}");
                (gp + 1) % p.max(1)
            }),
        }
    }

    /// Pair busy donors with idle receivers for one transfer round, and —
    /// for GP — advance the global pointer to the round's last donor.
    ///
    /// `busy[i]` must mean "processor i can split its work" and `idle[i]`
    /// "processor i has none"; a processor holding a single node is
    /// neither. Returns `min(A, I)` pairs.
    pub fn match_round(&mut self, busy: &[bool], idle: &[bool]) -> Vec<Pair> {
        debug_assert_eq!(busy.len(), idle.len(), "flag slices must both have length P");
        let pairs = match self.matching {
            Matching::Ngp => rendezvous_match(busy, idle),
            Matching::Gp => rendezvous_match_from(busy, idle, self.start_for(busy.len())),
        };
        if self.matching == Matching::Gp {
            if let Some(last) = pairs.last() {
                self.global_pointer = Some(last.donor);
            }
        }
        pairs
    }

    /// [`MatchState::match_round`] over *already packed* busy/idle
    /// enumerations (ascending; `packed_idle` may be truncated to the first
    /// `min(A, I)` idle PEs). `p` is the machine size, needed to wrap the
    /// global pointer. The engine hot loop uses this entry point because it
    /// maintains the enumerations incrementally — deriving them from flag
    /// vectors every round would cost O(P) per round. Pointer updates and
    /// output are identical to the flag-based entry point.
    pub fn match_round_packed(
        &mut self,
        p: usize,
        packed_busy: &[usize],
        packed_idle: &[usize],
        pairs: &mut Vec<Pair>,
    ) {
        debug_assert!(packed_busy.iter().all(|&i| i < p), "packed busy index outside machine");
        debug_assert!(packed_idle.iter().all(|&i| i < p), "packed idle index outside machine");
        let start = self.start_for(p);
        rendezvous_match_packed(packed_busy, packed_idle, start, pairs);
        if self.matching == Matching::Gp {
            if let Some(last) = pairs.last() {
                self.global_pointer = Some(last.donor);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: bool = true;
    const I: bool = false;

    fn idle_of(busy: &[bool]) -> Vec<bool> {
        busy.iter().map(|&b| !b).collect()
    }

    /// The full Fig. 2 walk-through: same busy pattern in two consecutive
    /// phases; nGP repeats its matching, GP rotates it.
    #[test]
    fn figure2_two_rounds() {
        // PEs (0-based): 0..7; busy everywhere except 5 and 6.
        let busy = [B, B, B, B, B, I, I, B];
        let idle = idle_of(&busy);

        // nGP: always matches idle 5,6 to busy 0,1.
        let mut ngp = MatchState::new(Matching::Ngp);
        for _ in 0..2 {
            let pairs = ngp.match_round(&busy, &idle);
            let donors: Vec<usize> = pairs.iter().map(|p| p.donor).collect();
            assert_eq!(donors, vec![0, 1]);
        }

        // GP with pointer initially at PE 4 (paper's PE 5): donors 7, 0.
        let mut gp = MatchState::new(Matching::Gp);
        gp.global_pointer = Some(4);
        let pairs = gp.match_round(&busy, &idle);
        let donors: Vec<usize> = pairs.iter().map(|p| p.donor).collect();
        assert_eq!(donors, vec![7, 0]);
        assert_eq!(gp.global_pointer(), Some(0), "pointer advanced to last donor");

        // Second phase with the same pattern: donors 1, 2 (paper's 2, 3).
        let pairs = gp.match_round(&busy, &idle);
        let donors: Vec<usize> = pairs.iter().map(|p| p.donor).collect();
        assert_eq!(donors, vec![1, 2]);
        assert_eq!(gp.global_pointer(), Some(2));
    }

    #[test]
    fn gp_first_round_matches_ngp() {
        let busy = [B, I, B, I];
        let idle = idle_of(&busy);
        let mut gp = MatchState::new(Matching::Gp);
        let mut ngp = MatchState::new(Matching::Ngp);
        assert_eq!(gp.match_round(&busy, &idle), ngp.match_round(&busy, &idle));
    }

    #[test]
    fn gp_pointer_unchanged_when_no_pairs() {
        let busy = [B, B, B, B];
        let idle = idle_of(&busy); // nobody idle
        let mut gp = MatchState::new(Matching::Gp);
        gp.global_pointer = Some(2);
        assert!(gp.match_round(&busy, &idle).is_empty());
        assert_eq!(gp.global_pointer(), Some(2));
    }

    #[test]
    fn gp_spreads_donations_evenly_over_many_rounds() {
        // 8 PEs, PEs 6,7 always idle: over 12 rounds each of the 6 busy
        // PEs should donate 4 times under GP (24 donations / 6 donors).
        let busy = [B, B, B, B, B, B, I, I];
        let idle = idle_of(&busy);
        let mut gp = MatchState::new(Matching::Gp);
        let mut counts = [0u32; 8];
        for _ in 0..12 {
            for p in gp.match_round(&busy, &idle) {
                counts[p.donor] += 1;
            }
        }
        assert_eq!(&counts[..6], &[4, 4, 4, 4, 4, 4]);

        // nGP concentrates the burden on PEs 0 and 1.
        let mut ngp = MatchState::new(Matching::Ngp);
        let mut counts = [0u32; 8];
        for _ in 0..12 {
            for p in ngp.match_round(&busy, &idle) {
                counts[p.donor] += 1;
            }
        }
        assert_eq!(&counts[..6], &[12, 12, 0, 0, 0, 0]);
    }

    #[test]
    fn match_round_packed_tracks_match_round_exactly() {
        let patterns: [&[bool]; 4] =
            [&[B, B, B, I, I, B], &[I, B, B, B, I, I], &[B, I, B, I, B, I], &[B, B, I, I, I, B]];
        for matching in [Matching::Gp, Matching::Ngp] {
            let mut alloc = MatchState::new(matching);
            let mut packed = MatchState::new(matching);
            let mut pairs = Vec::new();
            for busy in patterns {
                let idle = idle_of(busy);
                let packed_busy: Vec<usize> =
                    busy.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
                let packed_idle: Vec<usize> =
                    idle.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
                let expect = alloc.match_round(busy, &idle);
                packed.match_round_packed(busy.len(), &packed_busy, &packed_idle, &mut pairs);
                assert_eq!(pairs, expect, "{matching:?}");
                assert_eq!(packed.global_pointer(), alloc.global_pointer(), "{matching:?}");
            }
        }
    }

    #[test]
    fn all_entry_points_wrap_the_pointer_identically() {
        // A donor at the last PE forces the wrap: the start index must be
        // (p-1 + 1) % p = 0 in both entry points. The flag entry point
        // used to wrap with busy.len() — identical here, but the shared
        // start_for makes the agreement structural, and this test pins the
        // rotated matching both must produce after the wrap.
        let busy = [B, B, I, I, B, B, I, B];
        let idle = idle_of(&busy);
        let p = busy.len();
        let packed_busy: Vec<usize> =
            busy.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        let packed_idle: Vec<usize> =
            idle.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();

        let mut flag = MatchState::new(Matching::Gp);
        flag.global_pointer = Some(p - 1);
        let expect = flag.match_round(&busy, &idle);
        assert_eq!(expect.first().map(|pr| pr.donor), Some(0), "wrapped to PE 0");

        let mut packed = MatchState::new(Matching::Gp);
        packed.global_pointer = Some(p - 1);
        let mut pairs = Vec::new();
        packed.match_round_packed(p, &packed_busy, &packed_idle, &mut pairs);
        assert_eq!(pairs, expect);
        assert_eq!(packed.global_pointer(), flag.global_pointer());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside machine of size")]
    fn short_flag_slice_with_wrapped_pointer_is_rejected() {
        // The silent-divergence case the bug allowed: the pointer sits at
        // PE 6 of an 8-PE machine, but a caller passes 4-long flag slices.
        // Wrapping with busy.len() would quietly start at (6+1) % 4 = 3;
        // wrapping with p would start at 7. Now it is a debug assertion.
        let busy = [B, B, I, I];
        let idle = idle_of(&busy);
        let mut gp = MatchState::new(Matching::Gp);
        gp.global_pointer = Some(6);
        let _ = gp.match_round(&busy, &idle);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "flag slices must both have length P")]
    fn mismatched_flag_slices_are_rejected() {
        let busy = [B, B, I];
        let idle = [I, I, B, B];
        let _ = MatchState::new(Matching::Ngp).match_round(&busy, &idle);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "packed busy index outside machine")]
    fn packed_indices_outside_the_machine_are_rejected() {
        let mut gp = MatchState::new(Matching::Gp);
        let mut pairs = Vec::new();
        gp.match_round_packed(4, &[1, 9], &[0], &mut pairs);
    }

    #[test]
    fn more_idle_than_busy_leaves_surplus_unmatched() {
        let busy = [B, I, I, I];
        let idle = idle_of(&busy);
        let mut gp = MatchState::new(Matching::Gp);
        let pairs = gp.match_round(&busy, &idle);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].donor, 0);
    }
}
