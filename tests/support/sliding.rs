//! The N×N sliding-tile puzzle with the Manhattan heuristic and
//! inverse-move pruning. On a 4×4 board it generates the same IDA\* trees
//! as the packed `Puzzle15`, node for node.

use simd_tree_search::prelude::*;
use simd_tree_search::tree::{CodecError, Reader};

/// A board: tiles in row-major order (0 is the blank), the blank's cell,
/// the Manhattan distance, and the blank's previous cell (never moved back
/// to; `u16::MAX` at the start).
#[derive(Clone)]
pub struct SlidingState {
    tiles: Vec<u8>,
    blank: u16,
    h: u16,
    came_from: u16,
}

impl CkptNode for SlidingState {
    fn encode_node(&self, out: &mut Vec<u8>) {
        self.tiles.encode_node(out);
        for v in [self.blank, self.h, self.came_from] {
            v.encode_node(out);
        }
    }
    fn decode_node(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self { tiles: Vec::decode_node(r)?, blank: r.u16()?, h: r.u16()?, came_from: r.u16()? })
    }
}

/// The puzzle on an `n × n` board. The goal has the blank in cell 0 and
/// tile `t` in cell `t` (Korf's convention, as in `Puzzle15`).
pub struct Sliding {
    n: u16,
    start: Vec<u8>,
}

impl Sliding {
    pub fn new(n: u16, start: Vec<u8>) -> Self {
        assert_eq!(start.len(), usize::from(n * n), "board size");
        Self { n, start }
    }

    /// Manhattan distance of `tile` at `cell` from its goal cell.
    fn manhattan(&self, tile: u8, cell: u16) -> u16 {
        let (tile, n) = (u16::from(tile), self.n);
        (tile / n).abs_diff(cell / n) + (tile % n).abs_diff(cell % n)
    }
}

impl HeuristicProblem for Sliding {
    type State = SlidingState;

    fn initial(&self) -> SlidingState {
        let cells = (0..).zip(&self.start);
        let blank = cells.clone().find(|&(_, &t)| t == 0).expect("a blank").0;
        let h = cells.filter(|&(_, &t)| t != 0).map(|(c, &t)| self.manhattan(t, c)).sum();
        SlidingState { tiles: self.start.clone(), blank, h, came_from: u16::MAX }
    }

    fn h(&self, s: &SlidingState) -> u32 {
        s.h.into()
    }

    fn successors(&self, s: &SlidingState, out: &mut impl Children<(SlidingState, u32)>) {
        let (n, blank) = (self.n, s.blank);
        // The blank moves up, down, left, right: `Puzzle15`'s order.
        let moves = [
            (blank >= n).then(|| blank - n),
            (blank / n + 1 < n).then(|| blank + n),
            (blank % n > 0).then(|| blank - 1),
            (blank % n + 1 < n).then(|| blank + 1),
        ];
        for target in moves.into_iter().flatten().filter(|&t| t != s.came_from) {
            let tile = s.tiles[usize::from(target)];
            let mut tiles = s.tiles.clone();
            tiles.swap(usize::from(blank), usize::from(target));
            let h = s.h - self.manhattan(tile, target) + self.manhattan(tile, blank);
            out.push((SlidingState { tiles, blank: target, h, came_from: blank }, 1));
        }
    }

    fn is_goal(&self, s: &SlidingState) -> bool {
        s.h == 0
    }
}

#[test]
fn matches_packed_15_puzzle_node_for_node() {
    use simd_tree_search::puzzle15::{scrambled, Puzzle15};
    use simd_tree_search::tree::ida::ida_star;

    for seed in [5u64, 23, 42] {
        let inst = scrambled(seed, 30);
        let packed = ida_star(&Puzzle15::new(inst.board()), 80);
        let general = ida_star(&Sliding::new(4, inst.tiles.to_vec()), 80);
        assert_eq!(packed.solution_cost, general.solution_cost, "seed {seed}");
        let per_iteration = |r: &simd_tree_search::tree::ida::IdaResult| {
            r.iterations.iter().map(|it| (it.bound, it.expanded, it.goals)).collect::<Vec<_>>()
        };
        assert_eq!(per_iteration(&packed), per_iteration(&general), "seed {seed}");
    }
}
