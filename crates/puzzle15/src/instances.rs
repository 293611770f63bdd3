//! Benchmark instances.
//!
//! The paper solves "various instances of the 15-puzzle problem taken from
//! [Korf 1985]". We embed the first ten instances of Korf's classic
//! 100-instance benchmark (with their published optimal costs) and provide
//! a deterministic scramble generator for arbitrarily many further
//! instances. The reproduction's tables depend only on the *measured*
//! serial node count `W` of each workload (see [`crate::calibrate`]), so
//! any solvable instance set with the right `W` spectrum exercises the same
//! behaviour.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use crate::board::{Board, Move};

/// A named 15-puzzle instance.
#[derive(Debug, Clone, Copy)]
pub struct Instance {
    /// Identifier (Korf number, or a synthetic id for scrambles).
    pub id: u32,
    /// Start position (`tiles[cell] = tile`, 0 = blank).
    pub tiles: [u8; 16],
    /// Published optimal solution cost, when known.
    pub optimal: Option<u32>,
}

impl Instance {
    /// The start board.
    pub fn board(&self) -> Board {
        Board::from_tiles(&self.tiles)
    }
}

/// The first nine instances of Korf's (1985) 100-instance benchmark with
/// their published optimal costs. (Each embedded instance is validated by
/// tests to be a solvable permutation; entries that failed validation
/// against our transcription were omitted rather than silently "repaired".)
pub fn korf_instances() -> &'static [Instance] {
    const K: &[Instance] = &[
        Instance {
            id: 1,
            tiles: [14, 13, 15, 7, 11, 12, 9, 5, 6, 0, 2, 1, 4, 8, 10, 3],
            optimal: Some(57),
        },
        Instance {
            id: 2,
            tiles: [13, 5, 4, 10, 9, 12, 8, 14, 2, 3, 7, 1, 0, 15, 11, 6],
            optimal: Some(55),
        },
        Instance {
            id: 3,
            tiles: [14, 7, 8, 2, 13, 11, 10, 4, 9, 12, 5, 0, 3, 6, 1, 15],
            optimal: Some(59),
        },
        Instance {
            id: 4,
            tiles: [5, 12, 10, 7, 15, 11, 14, 0, 8, 2, 1, 13, 3, 4, 9, 6],
            optimal: Some(56),
        },
        Instance {
            id: 5,
            tiles: [4, 7, 14, 13, 10, 3, 9, 12, 11, 5, 6, 15, 1, 2, 8, 0],
            optimal: Some(56),
        },
        Instance {
            id: 6,
            tiles: [14, 7, 1, 9, 12, 3, 6, 15, 8, 11, 2, 5, 10, 0, 4, 13],
            optimal: Some(52),
        },
        Instance {
            id: 7,
            tiles: [2, 11, 15, 5, 13, 4, 6, 7, 12, 8, 10, 1, 9, 3, 14, 0],
            optimal: Some(52),
        },
        Instance {
            id: 8,
            tiles: [12, 11, 15, 3, 8, 0, 4, 2, 6, 13, 9, 5, 14, 1, 10, 7],
            optimal: Some(50),
        },
        Instance {
            id: 9,
            tiles: [3, 14, 9, 11, 5, 4, 8, 2, 13, 12, 6, 7, 10, 1, 15, 0],
            optimal: Some(46),
        },
    ];
    K
}

/// Generate a solvable instance by a seeded random walk of `walk_len` moves
/// from the goal (never immediately undoing a move). Solvability holds by
/// construction; longer walks give (stochastically) harder instances.
pub fn scrambled(seed: u64, walk_len: usize) -> Instance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut board = crate::board::GOAL;
    let mut blank = 0u8;
    let mut last: Option<Move> = None;
    let mut made = 0usize;
    while made < walk_len {
        let m = Move::ALL[rng.random_range(0..4)];
        if last == Some(m.inverse()) {
            continue;
        }
        if let Some((nb, nblank)) = board.slide(blank, m) {
            board = nb;
            blank = nblank;
            last = Some(m);
            made += 1;
        }
    }
    Instance { id: u32::MAX, tiles: board.to_tiles(), optimal: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::GOAL;
    use crate::state::Puzzle15;
    use uts_tree::ida::ida_star;
    use uts_tree::HeuristicProblem;

    #[test]
    fn korf_instances_are_valid_permutations() {
        for inst in korf_instances() {
            let board = inst.board(); // from_tiles panics on non-permutations
            assert!(board.is_solvable(), "Korf #{} must be solvable", inst.id);
        }
    }

    #[test]
    fn korf_optimal_costs_are_plausible_lower_bounded_by_h() {
        // The Manhattan distance of the start must not exceed the published
        // optimal cost, and must have the same parity (each move changes
        // h by exactly ±1).
        for inst in korf_instances() {
            let h = inst.board().manhattan();
            let opt = inst.optimal.unwrap();
            assert!(h <= opt, "Korf #{}: h={} > optimal={}", inst.id, h, opt);
            assert_eq!(h % 2, opt % 2, "Korf #{}: parity mismatch", inst.id);
        }
    }

    #[test]
    fn korf_ids_are_unique_and_ordered() {
        let ids: Vec<u32> = korf_instances().iter().map(|i| i.id).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn scrambled_is_deterministic_per_seed() {
        let a = scrambled(42, 30);
        let b = scrambled(42, 30);
        assert_eq!(a.tiles, b.tiles);
        let c = scrambled(43, 30);
        assert_ne!(a.tiles, c.tiles, "different seeds should differ (whp)");
    }

    #[test]
    fn scrambled_is_solvable_and_scrambled() {
        let inst = scrambled(7, 40);
        let b = inst.board();
        assert!(b.is_solvable());
        assert_ne!(b, GOAL);
    }

    #[test]
    fn zero_length_walk_is_goal() {
        let inst = scrambled(1, 0);
        assert_eq!(inst.board(), GOAL);
    }

    #[test]
    fn short_scramble_solves_within_walk_length() {
        let inst = scrambled(11, 12);
        let p = Puzzle15::new(inst.board());
        let r = ida_star(&p, 80);
        let cost = r.solution_cost.unwrap();
        assert!(cost <= 12, "optimal {cost} cannot exceed the walk length");
        assert!(cost >= p.h(&p.initial()));
    }
}
