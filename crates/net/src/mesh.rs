//! 2-D mesh with XY (dimension-ordered) routing.

use crate::Router;

/// A `side × side` mesh; node `i` sits at row `i / side`, column
/// `i % side`. XY routing corrects the column first, then the row —
/// deadlock-free on a mesh.
#[derive(Debug, Clone, Copy)]
pub struct Mesh {
    side: usize,
}

impl Mesh {
    /// The smallest square mesh holding at least `p` nodes.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize) -> Self {
        assert!(p > 0, "need at least one node");
        let side = (p as f64).sqrt().ceil() as usize;
        Self { side }
    }

    /// Side length.
    pub fn side(&self) -> usize {
        self.side
    }

    fn coords(&self, node: usize) -> (usize, usize) {
        (node / self.side, node % self.side)
    }
}

impl Router for Mesh {
    fn size(&self) -> usize {
        self.side * self.side
    }

    fn next_hop(&self, pos: usize, dst: usize) -> Option<usize> {
        if pos == dst {
            return None;
        }
        let (r, c) = self.coords(pos);
        let (dr, dc) = self.coords(dst);
        // X (column) first, then Y (row).
        if c != dc {
            Some(if dc > c { pos + 1 } else { pos - 1 })
        } else if dr > r {
            Some(pos + self.side)
        } else {
            Some(pos - self.side)
        }
    }

    fn hops(&self, src: usize, dst: usize) -> u32 {
        let (r, c) = self.coords(src);
        let (dr, dc) = self.coords(dst);
        (r.abs_diff(dr) + c.abs_diff(dc)) as u32
    }

    /// East, west, south, north.
    fn ports(&self) -> u32 {
        4
    }

    fn port(&self, pos: usize, next: usize) -> u32 {
        if next == pos + 1 {
            0
        } else if next + 1 == pos {
            1
        } else if next > pos {
            2
        } else {
            3
        }
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
    fn smallest_square_covers_p() {
        assert_eq!(Mesh::new(16).side(), 4);
        assert_eq!(Mesh::new(17).side(), 5);
        assert_eq!(Mesh::new(1).side(), 1);
    }

    #[test]
    fn xy_routing_goes_column_first() {
        let m = Mesh::new(16); // 4x4
                               // From (0,0) to (2,3): move right first.
        assert_eq!(m.next_hop(0, 11), Some(1));
        // Column aligned: move down.
        assert_eq!(m.next_hop(3, 11), Some(7));
        assert_eq!(m.next_hop(11, 11), None);
    }

    #[test]
    fn hops_are_manhattan_distance() {
        let m = Mesh::new(25);
        assert_eq!(m.hops(0, 24), 8);
        assert_eq!(m.hops(7, 7), 0);
    }

    #[test]
    fn single_message_takes_manhattan_steps() {
        let m = Mesh::new(64);
        let stats = route(&m, &[Message { src: 0, dst: 63 }]);
        assert_eq!(stats.steps, m.hops(0, 63));
        assert_eq!(stats.waits, 0);
    }

    /// The Sec. 3.3 claim: mesh transfers route in O(sqrt P)-ish steps for
    /// rendezvous traffic (diameter 2(side-1), plus modest congestion).
    #[test]
    fn rendezvous_traffic_routes_within_constant_times_sqrt_p() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for side in [8usize, 16, 32] {
            let p = side * side;
            let busy: Vec<bool> = (0..p).map(|_| rng.random_bool(0.6)).collect();
            let idle: Vec<bool> = busy.iter().map(|&b| !b).collect();
            let pairs = rendezvous_match_from(&busy, &idle, rng.random_range(0..p));
            let messages: Vec<Message> =
                pairs.iter().map(|pr| Message { src: pr.donor, dst: pr.receiver }).collect();
            let stats = route(&Mesh::new(p), &messages);
            assert!(
                stats.steps as usize <= 8 * side,
                "side {side}: {} steps exceeds 8*sqrt(P)",
                stats.steps
            );
        }
    }

    /// Mesh routing time grows with sqrt(P) — ~2x steps for 4x nodes —
    /// which is why Table 6's mesh isoefficiencies carry the P^1.5 factor.
    #[test]
    fn growth_tracks_sqrt_p() {
        let measure = |side: usize| {
            let p = side * side;
            let mut rng = ChaCha8Rng::seed_from_u64(13);
            let mut total = 0u32;
            for _ in 0..5 {
                let busy: Vec<bool> = (0..p).map(|_| rng.random_bool(0.5)).collect();
                let idle: Vec<bool> = busy.iter().map(|&b| !b).collect();
                let pairs = rendezvous_match_from(&busy, &idle, 0);
                let messages: Vec<Message> =
                    pairs.iter().map(|pr| Message { src: pr.donor, dst: pr.receiver }).collect();
                total += route(&Mesh::new(p), &messages).steps;
            }
            total as f64 / 5.0
        };
        let small = measure(8);
        let big = measure(32); // 16x the nodes, 4x the side
        let ratio = big / small;
        assert!(
            ratio > 1.8 && ratio < 9.0,
            "expected ~4x growth for 16x nodes, got {ratio:.1}x ({small} -> {big})"
        );
    }
}
