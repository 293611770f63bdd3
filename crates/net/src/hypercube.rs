//! Hypercube with dimension-ordered (e-cube) routing.

use crate::Router;

/// A `d`-dimensional hypercube of `2^d` nodes; node ids are bit strings,
/// neighbors differ in exactly one bit. E-cube routing corrects differing
/// bits from least to most significant, which is deadlock-free.
#[derive(Debug, Clone, Copy)]
pub struct Hypercube {
    dims: u32,
}

impl Hypercube {
    /// A hypercube with at least `p` nodes (`p` rounded up to a power of
    /// two, as on the CM-2).
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize) -> Self {
        assert!(p > 0, "need at least one node");
        Self { dims: crate::scan_depth(p) }
    }

    /// Dimensionality `d = log2(size)`.
    pub fn dims(&self) -> u32 {
        self.dims
    }
}

impl Router for Hypercube {
    fn size(&self) -> usize {
        1usize << self.dims
    }

    fn next_hop(&self, pos: usize, dst: usize) -> Option<usize> {
        let diff = pos ^ dst;
        if diff == 0 {
            return None;
        }
        // Correct the lowest differing bit.
        let bit = diff & diff.wrapping_neg();
        Some(pos ^ bit)
    }

    fn hops(&self, src: usize, dst: usize) -> u32 {
        (src ^ dst).count_ones()
    }

    /// One port per dimension.
    fn ports(&self) -> u32 {
        self.dims
    }

    /// The dimension the hop corrects.
    fn port(&self, pos: usize, next: usize) -> u32 {
        (pos ^ next).trailing_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{route, Message};
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;
    use uts_scan::rendezvous_match_from;

    #[test]
    fn sizes_round_up_to_powers_of_two() {
        assert_eq!(Hypercube::new(1000).size(), 1024);
        assert_eq!(Hypercube::new(1024).size(), 1024);
        assert_eq!(Hypercube::new(1025).size(), 2048);
    }

    #[test]
    fn ecube_corrects_low_bits_first() {
        let h = Hypercube::new(16);
        assert_eq!(h.next_hop(0b0000, 0b1010), Some(0b0010));
        assert_eq!(h.next_hop(0b0010, 0b1010), Some(0b1010));
        assert_eq!(h.next_hop(5, 5), None);
    }

    #[test]
    fn hop_count_is_hamming_distance() {
        let h = Hypercube::new(64);
        assert_eq!(h.hops(0, 63), 6);
        assert_eq!(h.hops(9, 9), 0);
        assert_eq!(h.hops(0b101, 0b011), 2);
    }

    #[test]
    fn single_message_takes_exactly_hamming_steps() {
        let h = Hypercube::new(256);
        let stats = route(&h, &[Message { src: 3, dst: 252 }]);
        assert_eq!(stats.steps, h.hops(3, 252));
        assert_eq!(stats.waits, 0);
    }

    /// The Sec. 3.3 claim: routed transfer time for rendezvous traffic
    /// grows no faster than `log^2 P` (and the paper notes it is often
    /// `O(log P)` depending on the permutation).
    #[test]
    fn rendezvous_traffic_routes_within_log_squared() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for d in [6u32, 8, 10] {
            let p = 1usize << d;
            // Random 60%-busy pattern, its rendezvous matching as traffic.
            let busy: Vec<bool> = (0..p).map(|_| rng.random_bool(0.6)).collect();
            let idle: Vec<bool> = busy.iter().map(|&b| !b).collect();
            let pairs = rendezvous_match_from(&busy, &idle, rng.random_range(0..p));
            let messages: Vec<Message> =
                pairs.iter().map(|pr| Message { src: pr.donor, dst: pr.receiver }).collect();
            let h = Hypercube::new(p);
            let stats = route(&h, &messages);
            assert!(stats.max_hops <= d);
            assert!(
                stats.steps <= d * d,
                "P=2^{d}: {} steps exceeds log^2 = {}",
                stats.steps,
                d * d
            );
        }
    }

    /// Measured growth is sub-quadratic in log P for rendezvous traffic:
    /// doubling the dimension should far less than quadruple the steps.
    #[test]
    fn growth_rate_is_gentle() {
        let mut worst = Vec::new();
        for d in [5u32, 10] {
            let p = 1usize << d;
            let mut max_steps = 0;
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            for _ in 0..5 {
                let busy: Vec<bool> = (0..p).map(|_| rng.random_bool(0.5)).collect();
                let idle: Vec<bool> = busy.iter().map(|&b| !b).collect();
                let pairs = rendezvous_match_from(&busy, &idle, 0);
                let messages: Vec<Message> =
                    pairs.iter().map(|pr| Message { src: pr.donor, dst: pr.receiver }).collect();
                max_steps = max_steps.max(route(&Hypercube::new(p), &messages).steps);
            }
            worst.push(max_steps);
        }
        assert!(worst[1] <= worst[0] * 4, "dimension 5→10 steps {} → {}", worst[0], worst[1]);
    }
}
