//! Generalized N×N sliding-tile puzzle (8-puzzle, 15-puzzle, 24-puzzle, …)
//! with the Manhattan heuristic and inverse-move pruning.
//!
//! `uts-puzzle15` is the paper-faithful, bit-packed 4×4 implementation the
//! benchmarks use; this module is the general-N library version. For
//! `n = 4` the two produce *identical* search trees — a cross-validation
//! test checks node-for-node agreement of whole IDA\* runs.

use uts_tree::{Children, HeuristicProblem};

/// A board side length (2..=15; tiles must fit a u8 and h a u16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Side(u8);

impl Side {
    /// Validate a side length.
    ///
    /// # Panics
    /// Panics outside `2..=15`.
    pub fn new(n: u8) -> Side {
        assert!((2..=15).contains(&n), "side must be in 2..=15");
        Side(n)
    }

    /// The raw value.
    pub fn get(self) -> u8 {
        self.0
    }

    /// Number of cells.
    pub fn cells(self) -> usize {
        self.0 as usize * self.0 as usize
    }
}

/// A state: tile vector (`tiles[cell] = tile`, 0 = blank), cached blank
/// position, cached Manhattan distance, and the last blank move (as the
/// target-cell delta) for inverse pruning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlidingState {
    /// Tiles in row-major order.
    pub tiles: Vec<u8>,
    /// Blank cell index.
    pub blank: u16,
    /// Cached Manhattan distance.
    pub h: u16,
    /// The previous blank cell (pruned as a move target), `u16::MAX` at
    /// the root.
    pub came_from: u16,
}

impl uts_tree::CkptNode for SlidingState {
    fn encode_node(&self, out: &mut Vec<u8>) {
        self.tiles.encode_node(out);
        uts_tree::codec::put_u16(out, self.blank);
        uts_tree::codec::put_u16(out, self.h);
        uts_tree::codec::put_u16(out, self.came_from);
    }
    fn decode_node(r: &mut uts_tree::Reader<'_>) -> Result<Self, uts_tree::CodecError> {
        Ok(Self { tiles: Vec::decode_node(r)?, blank: r.u16()?, h: r.u16()?, came_from: r.u16()? })
    }
}

/// The generalized sliding puzzle.
#[derive(Debug, Clone)]
pub struct Sliding {
    side: Side,
    start: Vec<u8>,
}

impl Sliding {
    /// Build from a start position (goal convention: blank at cell 0,
    /// tiles 1.. in row-major order — the Korf convention).
    ///
    /// # Panics
    /// Panics if `tiles` is not a permutation of `0..n²`.
    pub fn new(side: Side, tiles: Vec<u8>) -> Sliding {
        assert_eq!(tiles.len(), side.cells(), "board size mismatch");
        let mut seen = vec![false; side.cells()];
        for &t in &tiles {
            assert!(
                (t as usize) < side.cells() && !seen[t as usize],
                "tiles must be a permutation of 0..n^2"
            );
            seen[t as usize] = true;
        }
        Sliding { side, start: tiles }
    }

    /// Side length.
    pub fn side(&self) -> Side {
        self.side
    }

    /// Manhattan distance of `tile` at `cell` from its goal cell.
    fn manhattan_tile(&self, tile: u8, cell: u16) -> u16 {
        let n = self.side.0 as u16;
        let (gr, gc) = (tile as u16 / n, tile as u16 % n);
        let (r, c) = (cell / n, cell % n);
        gr.abs_diff(r) + gc.abs_diff(c)
    }

    fn full_manhattan(&self, tiles: &[u8]) -> u16 {
        tiles
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != 0)
            .map(|(c, &t)| self.manhattan_tile(t, c as u16))
            .sum()
    }

    /// Orthogonal neighbors of `cell`, in Up, Down, Left, Right order of
    /// the *blank's* movement (matching `uts-puzzle15`'s generation order).
    fn neighbors(&self, cell: u16, out: &mut Vec<u16>) {
        let n = self.side.0 as u16;
        let (r, c) = (cell / n, cell % n);
        if r > 0 {
            out.push(cell - n);
        }
        if r + 1 < n {
            out.push(cell + n);
        }
        if c > 0 {
            out.push(cell - 1);
        }
        if c + 1 < n {
            out.push(cell + 1);
        }
    }
}

impl HeuristicProblem for Sliding {
    type State = SlidingState;

    fn initial(&self) -> SlidingState {
        let blank =
            self.start.iter().position(|&t| t == 0).expect("permutation contains the blank") as u16;
        SlidingState {
            tiles: self.start.clone(),
            blank,
            h: self.full_manhattan(&self.start),
            came_from: u16::MAX,
        }
    }

    fn h(&self, s: &SlidingState) -> u32 {
        s.h as u32
    }

    fn successors(&self, s: &SlidingState, out: &mut impl Children<(SlidingState, u32)>) {
        let mut targets = Vec::with_capacity(4);
        self.neighbors(s.blank, &mut targets);
        for target in targets {
            if target == s.came_from {
                continue; // never undo the generating move
            }
            let tile = s.tiles[target as usize];
            let mut tiles = s.tiles.clone();
            tiles[s.blank as usize] = tile;
            tiles[target as usize] = 0;
            let h = s.h - self.manhattan_tile(tile, target) + self.manhattan_tile(tile, s.blank);
            out.push((SlidingState { tiles, blank: target, h, came_from: s.blank }, 1));
        }
    }

    fn is_goal(&self, s: &SlidingState) -> bool {
        s.h == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uts_puzzle15::{scrambled, Puzzle15};
    use uts_tree::ida::ida_star;

    fn goal_tiles(n: u8) -> Vec<u8> {
        (0..n as usize * n as usize).map(|i| i as u8).collect()
    }

    #[test]
    fn goal_has_zero_h() {
        for n in [3u8, 4, 5] {
            let p = Sliding::new(Side::new(n), goal_tiles(n));
            let s = p.initial();
            assert_eq!(s.h, 0);
            assert!(p.is_goal(&s));
        }
    }

    #[test]
    fn incremental_h_matches_full_recompute() {
        let p = Sliding::new(Side::new(5), goal_tiles(5));
        let mut frontier = vec![p.initial()];
        let mut succ = Vec::new();
        for _ in 0..6 {
            let mut next = Vec::new();
            for s in &frontier {
                succ.clear();
                p.successors(s, &mut succ);
                for (child, _) in succ.drain(..) {
                    assert_eq!(child.h, p.full_manhattan(&child.tiles));
                    next.push(child);
                }
            }
            frontier = next;
        }
    }

    #[test]
    fn corner_blank_has_two_moves_center_three_after_pruning() {
        let p = Sliding::new(Side::new(3), goal_tiles(3));
        let root = p.initial(); // blank at corner 0
        let mut succ = Vec::new();
        p.successors(&root, &mut succ);
        assert_eq!(succ.len(), 2);
        // A child's inverse move is pruned.
        let child = succ[0].0.clone();
        succ.clear();
        p.successors(&child, &mut succ);
        assert!(succ.iter().all(|(s, _)| s.tiles != root.tiles));
    }

    /// The 4×4 generalization agrees with the packed `uts-puzzle15`
    /// implementation on entire IDA\* runs: same bounds, same per-iteration
    /// node counts, same optimum.
    #[test]
    fn matches_packed_15_puzzle_node_for_node() {
        for seed in [5u64, 23, 42] {
            let inst = scrambled(seed, 30);
            let packed = Puzzle15::new(inst.board());
            let general = Sliding::new(Side::new(4), inst.tiles.to_vec());
            let a = ida_star(&packed, 80);
            let b = ida_star(&general, 80);
            assert_eq!(a.solution_cost, b.solution_cost, "seed {seed}");
            assert_eq!(a.iterations.len(), b.iterations.len(), "seed {seed}");
            for (x, y) in a.iterations.iter().zip(&b.iterations) {
                assert_eq!(x.bound, y.bound, "seed {seed}");
                assert_eq!(x.expanded, y.expanded, "seed {seed}");
                assert_eq!(x.goals, y.goals, "seed {seed}");
            }
        }
    }

    #[test]
    fn eight_puzzle_solves() {
        // Two moves from the goal (blank slid Down then Right).
        let p = Sliding::new(Side::new(3), vec![3, 1, 2, 4, 0, 5, 6, 7, 8]);
        let r = ida_star(&p, 40);
        assert_eq!(r.solution_cost, Some(2));
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_board_rejected() {
        let _ = Sliding::new(Side::new(3), vec![0, 1, 1, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    #[should_panic(expected = "side must be")]
    fn tiny_board_rejected() {
        let _ = Side::new(1);
    }
}
