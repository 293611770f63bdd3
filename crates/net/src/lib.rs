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
//!
//! A directed link is a (node, outgoing port) pair — on the hypercube the
//! port is the dimension being corrected, on the mesh one of four
//! directions — so a step's claims fit one slot per node: a port mask
//! under the step's stamp ([`Links`]). The stamp runs on across calls, so
//! a run that keeps one [`Links`] and routes every round with
//! [`route_with`] never clears the table and only touches the slots of
//! nodes its traffic visits.

use std::borrow::Borrow;

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
    /// Outgoing ports per node (at most 32): every link out of a node
    /// leaves by one of them.
    fn ports(&self) -> u32;
    /// The port by which the link from `pos` to its neighbor `next`
    /// leaves: below [`Router::ports`], and distinct for distinct
    /// neighbors of one node.
    fn port(&self, pos: usize, next: usize) -> u32;
}

/// Routers with at most this many ports keep a `u32` slot per node, which
/// leaves at least 8 bits of stamp above the port mask.
const NARROW_PORTS: u32 = 24;

/// The directed links claimed in the current synchronous step, one slot
/// per node. A directed link is (node, outgoing port), so a slot is a mask
/// of claimed ports with the stamp of the step that wrote it in the bits
/// above. The stamp keeps running across [`route_with`] calls: a new step
/// starts with every slot stale, the table is zeroed only when the stamp
/// wraps, and only the pages of nodes the traffic visits become resident.
/// Keep one for a run.
#[derive(Default)]
pub struct Links {
    table: Table,
    /// The port count the table is laid out for.
    ports: u32,
    /// The last step's stamp; 0 is never a live stamp.
    stamp: u64,
}

enum Table {
    Narrow(Vec<u32>),
    Wide(Vec<u64>),
}

impl Default for Table {
    fn default() -> Self {
        Table::Narrow(Vec::new())
    }
}

impl Links {
    /// Lay the table out for `nodes` nodes of `ports` ports each, keeping
    /// it (and its running stamp) when it already fits.
    fn fit(&mut self, nodes: usize, ports: u32) {
        let len = match &self.table {
            Table::Narrow(t) => t.len(),
            Table::Wide(t) => t.len(),
        };
        if self.ports != ports || len < nodes {
            self.table = if ports > NARROW_PORTS {
                Table::Wide(vec![0; nodes])
            } else {
                Table::Narrow(vec![0; nodes])
            };
            self.ports = ports;
            self.stamp = 0;
        }
    }

    /// Move the stamp to `steps_left` steps before it wraps.
    #[cfg(test)]
    fn near_wrap(&mut self, steps_left: u64) {
        self.stamp = match self.table {
            Table::Narrow(_) => <u32 as Slot>::max_stamp(self.ports),
            Table::Wide(_) => <u64 as Slot>::max_stamp(self.ports),
        } - steps_left;
    }
}

/// One node's slot: claimed-port mask under the claiming step's stamp.
trait Slot: Copy + Default {
    /// The largest stamp the bits above `ports` port bits hold.
    fn max_stamp(ports: u32) -> u64;
    /// Claim `port` for the step stamped `stamp`; false if that step
    /// already claimed it.
    fn claim(&mut self, stamp: u64, ports: u32, port: u32) -> bool;
}

macro_rules! slot {
    ($t:ty) => {
        impl Slot for $t {
            fn max_stamp(ports: u32) -> u64 {
                (<$t>::MAX >> ports) as u64
            }

            #[inline]
            fn claim(&mut self, stamp: u64, ports: u32, port: u32) -> bool {
                let (stamp, bit) = (stamp as $t, 1 << port);
                if *self >> ports != stamp {
                    *self = stamp << ports | bit;
                    true
                } else if *self & bit == 0 {
                    *self |= bit;
                    true
                } else {
                    false
                }
            }
        }
    };
}
slot!(u32);
slot!(u64);

/// Synchronously route `messages` to completion under link contention,
/// over a fresh [`Links`] (see [`route_with`] to keep one for a run).
///
/// # Panics
/// As [`route_with`].
pub fn route<R: Router>(router: &R, messages: &[Message]) -> RouteStats {
    route_with(&mut Links::default(), router, messages)
}

/// Synchronously route `messages` to completion under link contention,
/// claiming links in `links`. The result does not depend on what `links`
/// routed before. `messages` is read once, in order, so a caller can route
/// a set it never stores (a slice of [`Message`]s, or an iterator that
/// makes them).
///
/// # Panics
/// Panics if any endpoint is out of range, if the network has more than
/// 2^32 nodes (positions are kept as `u32`), or if the router has more
/// than 32 ports.
pub fn route_with<R: Router>(
    links: &mut Links,
    router: &R,
    messages: impl IntoIterator<Item: Borrow<Message>>,
) -> RouteStats {
    let n = router.size();
    assert!(n as u64 <= 1 << 32, "node indices must fit 32 bits");
    assert!(router.ports() <= 32, "a slot holds at most 32 ports");
    let mut max_hops = 0;
    // `(position, destination)` of every message still travelling, in
    // message order.
    let mut in_flight: Vec<(u32, u32)> = Vec::new();
    for m in messages {
        let &Message { src, dst } = m.borrow();
        assert!(src < n && dst < n, "message endpoint out of range");
        max_hops = max_hops.max(router.hops(src, dst));
        if src != dst {
            in_flight.push((src as u32, dst as u32));
        }
    }
    links.fit(n, router.ports());
    let Links { table, ports, stamp } = links;
    let (steps, waits) = match table {
        Table::Narrow(t) => claim_steps(t, *ports, stamp, router, in_flight),
        Table::Wide(t) => claim_steps(t, *ports, stamp, router, in_flight),
    };
    RouteStats { steps, max_hops, waits }
}

/// Step `in_flight` to completion, one message per directed link per step,
/// lowest message index first; arrived messages drop out as the buffers
/// swap. Returns the steps taken and the wait events.
fn claim_steps<S: Slot, R: Router>(
    table: &mut [S],
    ports: u32,
    stamp: &mut u64,
    router: &R,
    mut in_flight: Vec<(u32, u32)>,
) -> (u32, u64) {
    let mut still = Vec::with_capacity(in_flight.len());
    let livelock = (table.len() as u64 + 2) * (in_flight.len() as u64 + 2);
    let mut steps = 0u32;
    let mut waits = 0u64;
    while !in_flight.is_empty() {
        steps += 1;
        *stamp += 1;
        if *stamp > S::max_stamp(ports) {
            table.fill(S::default());
            *stamp = 1;
        }
        still.clear();
        for &(pos, dst) in in_flight.iter() {
            let from = pos as usize;
            let next = router
                .next_hop(from, dst as usize)
                .expect("in-flight message must have a next hop");
            let port = router.port(from, next);
            debug_assert!(port < ports, "port out of range");
            let pos = if table[from].claim(*stamp, ports, port) {
                next as u32
            } else {
                waits += 1;
                pos
            };
            if pos != dst {
                still.push((pos, dst));
            }
        }
        std::mem::swap(&mut in_flight, &mut still);
        debug_assert!((steps as u64) <= livelock, "routing livelock");
    }
    (steps, waits)
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

    /// A hypercube that reports its dimensions as ports 20 and up, so its
    /// table takes the wide (`u64`) slots.
    struct Spread(Hypercube);

    impl Router for Spread {
        fn size(&self) -> usize {
            self.0.size()
        }
        fn next_hop(&self, pos: usize, dst: usize) -> Option<usize> {
            self.0.next_hop(pos, dst)
        }
        fn hops(&self, src: usize, dst: usize) -> u32 {
            self.0.hops(src, dst)
        }
        fn ports(&self) -> u32 {
            self.0.ports() + 20
        }
        fn port(&self, pos: usize, next: usize) -> u32 {
            self.0.port(pos, next) + 20
        }
    }

    /// Route `sets` one after another through one [`Links`], each against
    /// the oracle.
    fn assert_reused_links_match<R: Router>(links: &mut Links, router: &R, sets: &[Vec<Message>]) {
        for (i, msgs) in sets.iter().enumerate() {
            assert_eq!(route_with(links, router, msgs), route_naive(router, msgs), "set #{i}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn reused_links_match_the_naive_router(
            seed in any::<u64>(),
            sets in collection::vec((arb_size(), 0u8..4, 0usize..400), 1..6),
        ) {
            let mut cube_links = Links::default();
            let mut mesh_links = Links::default();
            for (i, &(p, kind, count)) in sets.iter().enumerate() {
                let msgs = traffic(seed ^ i as u64, p, kind, count);
                let (cube, mesh) = (Hypercube::new(p), Mesh::new(p));
                prop_assert_eq!(route_with(&mut cube_links, &cube, &msgs), route_naive(&cube, &msgs));
                prop_assert_eq!(route_with(&mut mesh_links, &mesh, &msgs), route_naive(&mesh, &msgs));
            }
        }
    }

    /// A full permutation stamps every node's slot in the first steps; a
    /// sparse set routed across the stamp's wrap right after would read
    /// those slots as claimed if the wrap left them in place.
    fn assert_wrap_is_exact<R: Router>(router: &R) {
        let p = router.size();
        for steps_left in 0..4 {
            let mut links = Links::default();
            let first = traffic(7, p, 3, 0);
            assert_eq!(route_with(&mut links, router, &first), route_naive(router, &first));
            links.near_wrap(steps_left);
            let sets: Vec<Vec<Message>> =
                (0..3).map(|s| traffic(s, p, s as u8 % 3, p / 4)).collect();
            assert_reused_links_match(&mut links, router, &sets);
        }
    }

    #[test]
    fn links_stay_exact_across_the_stamp_wrap() {
        assert_wrap_is_exact(&Hypercube::new(1024));
        assert_wrap_is_exact(&Mesh::new(1024));
        assert_wrap_is_exact(&Spread(Hypercube::new(1024)));
    }

    #[test]
    fn wide_slots_match_the_naive_router() {
        let spread = Spread(Hypercube::new(4096));
        let sets: Vec<Vec<Message>> = (0..4).map(|k| traffic(k, 4096, k as u8, 700)).collect();
        assert_reused_links_match(&mut Links::default(), &spread, &sets);
    }

    /// Every hop out of every node leaves by a port below the count, and
    /// distinct neighbors of one node by distinct ports.
    fn assert_ports_are_links<R: Router>(router: &R) {
        let n = router.size();
        for pos in 0..n {
            let mut by_port = vec![None; router.ports() as usize];
            for dst in 0..n {
                let Some(next) = router.next_hop(pos, dst) else { continue };
                let port = router.port(pos, next);
                assert!(port < router.ports(), "node {pos} -> {next}: port {port}");
                let seen = by_port[port as usize].get_or_insert(next);
                assert_eq!(*seen, next, "node {pos}: two neighbors on port {port}");
            }
        }
    }

    #[test]
    fn ports_name_distinct_links_below_the_port_count() {
        for p in [1, 2, 3, 7, 32, 1024] {
            assert_ports_are_links(&Hypercube::new(p));
        }
        for side in [1, 2, 3, 7, 1 << 5] {
            assert_ports_are_links(&Mesh::new(side * side));
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
