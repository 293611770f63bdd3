//! Interconnect routing simulation.
//!
//! The paper's Sec. 3.3 asserts per-architecture costs for a balancing
//! phase — sum-scan setup `O(log P)` (hypercube) or `O(sqrt P)` (mesh),
//! and work-transfer `O(log^2 P)` (hypercube general permutation) or
//! `O(sqrt P)` (mesh) — and then *assumes* them in `uts-machine`'s cost
//! models. This crate closes the loop: it simulates the routes the
//! transfer step actually takes (dimension-ordered e-cube routing on the
//! hypercube, XY routing on the mesh) under synchronous store-and-forward
//! link contention, so the asserted growth rates can be *measured* on the
//! rendezvous traffic the matching schemes emit.
//!
//! The contention model: one message per directed link per step; blocked
//! messages wait (deterministic lowest-index priority). [`route`] returns
//! the delivery time and congestion statistics of a message set.

pub mod hypercube;
pub mod mesh;

/// A point-to-point message (one per rendezvous pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Source processor.
    pub src: usize,
    /// Destination processor.
    pub dst: usize,
}

/// Outcome of routing a message set to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouteStats {
    /// Synchronous steps until every message arrived.
    pub steps: u32,
    /// Longest individual path (hops) — the no-contention lower bound.
    pub max_hops: u32,
    /// Total number of blocked-message wait events (congestion measure).
    pub waits: u64,
}

impl RouteStats {
    /// Fold another routed batch into this accumulator: batches routed one
    /// after the other take the *sum* of their step counts (the network is
    /// reused serially, e.g. one batch per balancing round), the worst
    /// single path is the max, and wait events add. Used by the sharded
    /// machine to aggregate per-round transfer routes into per-phase (and
    /// per-run) measured provenance.
    pub fn absorb(&mut self, other: RouteStats) {
        self.steps += other.steps;
        self.max_hops = self.max_hops.max(other.max_hops);
        self.waits += other.waits;
    }
}

/// A routing function: given the network size and a message's current
/// position/destination, the next node on its path (must be a neighbor).
pub trait Router {
    /// Number of processors.
    fn size(&self) -> usize;
    /// Next hop for a message at `pos` heading to `dst`; `None` iff
    /// `pos == dst`.
    fn next_hop(&self, pos: usize, dst: usize) -> Option<usize>;
    /// Diameter-style bound used by tests (hops of the longest route).
    fn hops(&self, src: usize, dst: usize) -> u32;
}

/// The directed links claimed in the current synchronous step: an
/// open-addressing table whose slots carry the step that wrote them, so a
/// new step starts with every slot stale and nothing is ever cleared.
///
/// Keys are simulator-internal PE indices that [`route`] has already
/// range-checked, never bytes an outside party chose, so a plain
/// multiplicative hash stands in for the keyed SipHash of `HashSet`.
struct LinkClaims {
    /// `(packed link, step that claimed it)`; step 0 is never a live step.
    slots: Vec<(u64, u32)>,
    /// `64 - log2(slots.len())`: the hash keeps its top bits.
    shift: u32,
}

impl LinkClaims {
    /// A table for steps claiming at most `in_flight` links each (load
    /// factor at most one half).
    fn new(in_flight: usize) -> Self {
        let capacity = (2 * in_flight).next_power_of_two().max(2);
        Self { slots: vec![(0, 0); capacity], shift: 64 - capacity.trailing_zeros() }
    }

    /// Claim the link `pos -> next` for `step`; false if this step already
    /// claimed it. Linear probing: within a step slots only ever fill, so a
    /// second claim of a link walks the same run of live slots to the first.
    fn claim(&mut self, step: u32, pos: usize, next: usize) -> bool {
        let link = (pos as u64) << 32 | next as u64;
        let mask = self.slots.len() - 1;
        let mut at = (link.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            let slot = &mut self.slots[at];
            if slot.1 != step {
                *slot = (link, step);
                return true;
            }
            if slot.0 == link {
                return false;
            }
            at = (at + 1) & mask;
        }
    }
}

/// Synchronously route `messages` to completion under link contention.
///
/// # Panics
/// Panics if any endpoint is out of range, or if the network has more than
/// 2^32 nodes (a directed link is packed into one `u64`).
pub fn route<R: Router>(router: &R, messages: &[Message]) -> RouteStats {
    let n = router.size();
    assert!(n as u64 <= 1 << 32, "node indices must fit 32 bits");
    for m in messages {
        assert!(m.src < n && m.dst < n, "message endpoint out of range");
    }
    let mut max_hops = 0;
    for m in messages {
        max_hops = max_hops.max(router.hops(m.src, m.dst));
    }
    let mut steps = 0u32;
    let mut waits = 0u64;
    // `(position, destination)` of every message still travelling, in
    // message order; arrived messages drop out as the buffers swap.
    let mut in_flight: Vec<(usize, usize)> =
        messages.iter().filter(|m| m.src != m.dst).map(|m| (m.src, m.dst)).collect();
    let mut still: Vec<(usize, usize)> = Vec::with_capacity(in_flight.len());
    // One message per directed link per step, lowest message index first.
    let mut claimed = LinkClaims::new(in_flight.len());
    while !in_flight.is_empty() {
        steps += 1;
        still.clear();
        for &(pos, dst) in &in_flight {
            let next = router.next_hop(pos, dst).expect("in-flight message must have a next hop");
            let pos = if claimed.claim(steps, pos, next) {
                next
            } else {
                waits += 1;
                pos
            };
            if pos != dst {
                still.push((pos, dst));
            }
        }
        std::mem::swap(&mut in_flight, &mut still);
        debug_assert!(
            (steps as u64) <= (n as u64 + 2) * (messages.len() as u64 + 2),
            "routing livelock"
        );
    }
    RouteStats { steps, max_hops, waits }
}

/// Depth of the binary reduction/scan tree on `p` processors — the
/// `O(log P)` setup cost the paper charges for the sum-scans.
pub fn scan_depth(p: usize) -> u32 {
    assert!(p > 0);
    (usize::BITS - (p - 1).leading_zeros()).max(1)
}

/// The router oracle: [`route`] as first written, a `HashSet` of claimed
/// links cleared every step and a fresh in-flight vector per step. Same
/// lowest-index-first claim order, so the same [`RouteStats`].
#[cfg(test)]
fn route_naive<R: Router>(router: &R, messages: &[Message]) -> RouteStats {
    let mut pos: Vec<usize> = messages.iter().map(|m| m.src).collect();
    let max_hops = messages.iter().map(|m| router.hops(m.src, m.dst)).max().unwrap_or(0);
    let mut steps = 0u32;
    let mut waits = 0u64;
    let mut in_flight: Vec<usize> =
        (0..messages.len()).filter(|&i| pos[i] != messages[i].dst).collect();
    let mut claimed: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
    while !in_flight.is_empty() {
        steps += 1;
        claimed.clear();
        let mut still = Vec::with_capacity(in_flight.len());
        for &i in &in_flight {
            let dst = messages[i].dst;
            let next =
                router.next_hop(pos[i], dst).expect("in-flight message must have a next hop");
            if claimed.insert((pos[i], next)) {
                pos[i] = next;
            } else {
                waits += 1;
            }
            if pos[i] != dst {
                still.push(i);
            }
        }
        in_flight = still;
    }
    RouteStats { steps, max_hops, waits }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    use super::*;
    use crate::hypercube::Hypercube;
    use crate::mesh::Mesh;

    /// Seeded traffic among `p` nodes: `count` uniformly random pairs
    /// (kind 0), the same with every third a self-message and the first
    /// third sent twice (1), all-to-one hot spot (2), or a full random
    /// permutation (3).
    fn traffic(seed: u64, p: usize, kind: u8, count: usize) -> Vec<Message> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut pair = |_| Message { src: rng.random_range(0..p), dst: rng.random_range(0..p) };
        match kind {
            0 => (0..count).map(pair).collect(),
            1 => {
                let mut msgs: Vec<Message> = (0..count).map(pair).collect();
                for m in msgs.iter_mut().step_by(3) {
                    m.dst = m.src;
                }
                msgs.extend_from_within(..count / 3);
                msgs
            }
            2 => {
                let hot = pair(0).dst;
                (0..count).map(pair).map(|m| Message { dst: hot, ..m }).collect()
            }
            _ => {
                let mut dst: Vec<usize> = (0..p).collect();
                for i in (1..p).rev() {
                    dst.swap(i, rng.random_range(0..=i));
                }
                (0..p).map(|src| Message { src, dst: dst[src] }).collect()
            }
        }
    }

    fn arb_size() -> impl Strategy<Value = usize> {
        prop_oneof![Just(1usize), Just(2), Just(7), Just(64), Just(1000), Just(4096)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn hypercube_route_matches_the_naive_router(
            seed in any::<u64>(),
            p in arb_size(),
            kind in 0u8..4,
            count in 0usize..700,
        ) {
            let cube = Hypercube::new(p);
            let msgs = traffic(seed, p, kind, count);
            prop_assert_eq!(route(&cube, &msgs), route_naive(&cube, &msgs));
        }

        #[test]
        fn mesh_route_matches_the_naive_router(
            seed in any::<u64>(),
            p in arb_size(),
            kind in 0u8..4,
            count in 0usize..700,
        ) {
            let mesh = Mesh::new(p);
            let msgs = traffic(seed, p, kind, count);
            prop_assert_eq!(route(&mesh, &msgs), route_naive(&mesh, &msgs));
        }
    }

    #[test]
    fn livelock_bound_does_not_overflow_on_a_full_permutation_at_2_16() {
        // (P + 2) * (messages + 2) exceeds u32::MAX from P = 2^16 on; the
        // bound is checked in debug builds only.
        let p = 1 << 16;
        let stats = route(&Hypercube::new(p), &traffic(3, p, 3, 0));
        assert!(stats.steps >= stats.max_hops && stats.max_hops <= 16);
    }

    #[test]
    fn empty_message_set_routes_instantly() {
        let h = Hypercube::new(16);
        let stats = route(&h, &[]);
        assert_eq!(stats.steps, 0);
        assert_eq!(stats.waits, 0);
    }

    #[test]
    fn self_messages_cost_nothing() {
        let h = Hypercube::new(8);
        let stats = route(&h, &[Message { src: 3, dst: 3 }]);
        assert_eq!(stats.steps, 0);
    }

    #[test]
    fn scan_depth_matches_log2() {
        assert_eq!(scan_depth(1), 1);
        assert_eq!(scan_depth(2), 1);
        assert_eq!(scan_depth(3), 2);
        assert_eq!(scan_depth(1024), 10);
        assert_eq!(scan_depth(1025), 11);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_endpoint_rejected() {
        let h = Hypercube::new(8);
        let _ = route(&h, &[Message { src: 0, dst: 9 }]);
    }
}
