//! The 15-puzzle as a [`HeuristicProblem`], with the standard IDA\*
//! refinements: incrementally maintained Manhattan distance and
//! inverse-move pruning (never undo the move that created a node — this
//! keeps the search tree free of trivial 2-cycles, as in Korf 1985 and in
//! the paper's parallel IDA\*).

use uts_tree::{Children, HeuristicProblem};

#[cfg(test)]
use crate::board::GOAL;
use crate::board::{manhattan_tile, Board, Move};

/// A search state: board, cached blank cell, cached heuristic, and the move
/// that produced it (for inverse pruning).
///
/// Stored at its payload size: the fields are ordered widest first and the
/// struct is packed to alignment 4, so a state is 12 bytes and its
/// `BoundedNode` 16 (instead of 16 and 24). Packing only moves the bytes in
/// memory; the codec writes field by field, so snapshot bytes do not
/// depend on it. Read fields by value — the compiler refuses a reference to
/// a packed field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, packed(4))]
pub struct PuzzleState {
    /// Current board.
    pub board: Board,
    /// Manhattan distance to the goal (cached, maintained incrementally).
    pub h: u16,
    /// Cell of the blank (cached).
    pub blank: u8,
    /// Move that created this state, `None` at the root.
    pub last: Option<Move>,
}

impl uts_tree::CkptNode for PuzzleState {
    fn encode_node(&self, out: &mut Vec<u8>) {
        uts_tree::codec::put_u64(out, self.board.0);
        out.push(self.blank);
        uts_tree::codec::put_u16(out, self.h);
        // Move as one byte: 0..=3 per its repr, 4 for None.
        out.push(self.last.map_or(4, |m| m as u8));
    }
    fn decode_node(r: &mut uts_tree::Reader<'_>) -> Result<Self, uts_tree::CodecError> {
        let board = Board(r.u64()?);
        let blank = r.u8()?;
        let h = r.u16()?;
        let last = match r.u8()? {
            0 => Some(Move::Up),
            1 => Some(Move::Down),
            2 => Some(Move::Left),
            3 => Some(Move::Right),
            4 => None,
            _ => return Err(uts_tree::CodecError::Malformed("Move byte not 0..=4")),
        };
        Ok(Self { board, blank, h, last })
    }
}

impl PuzzleState {
    /// Build a root state from a board.
    pub fn new(board: Board) -> Self {
        Self { board, blank: board.blank(), h: board.manhattan() as u16, last: None }
    }

    /// Apply `m`, returning the successor state, or `None` if `m` leaves
    /// the board or undoes the move that created `self`.
    pub fn step(&self, m: Move) -> Option<PuzzleState> {
        if self.last == Some(m.inverse()) {
            return None;
        }
        let target = m.apply(self.blank)?;
        let tile = self.board.get(target);
        let board = self.board.set(self.blank, tile).set(target, 0);
        // The tile moved target -> old blank cell; adjust h by the delta.
        let h = self.h as i32 - manhattan_tile(tile, target) as i32
            + manhattan_tile(tile, self.blank) as i32;
        debug_assert!(h >= 0);
        Some(PuzzleState { board, blank: target, h: h as u16, last: Some(m) })
    }

    /// Whether this state is the goal (Manhattan distance 0 iff solved).
    pub fn is_goal(&self) -> bool {
        self.h == 0
    }
}

/// The 15-puzzle problem instance (a start board).
#[derive(Debug, Clone, Copy)]
pub struct Puzzle15 {
    start: Board,
}

impl Puzzle15 {
    /// Problem starting from `board`.
    ///
    /// # Panics
    /// Panics if `board` cannot reach the goal (wrong parity) — searching
    /// an unsolvable instance would deepen forever.
    pub fn new(board: Board) -> Self {
        assert!(board.is_solvable(), "unsolvable 15-puzzle instance");
        Self { start: board }
    }

    /// The start board.
    pub fn start(&self) -> Board {
        self.start
    }
}

impl HeuristicProblem for Puzzle15 {
    type State = PuzzleState;

    fn initial(&self) -> PuzzleState {
        PuzzleState::new(self.start)
    }

    fn h(&self, s: &PuzzleState) -> u32 {
        s.h as u32
    }

    fn successors(&self, s: &PuzzleState, out: &mut impl Children<(PuzzleState, u32)>) {
        for m in Move::ALL {
            if let Some(next) = s.step(m) {
                out.push((next, 1));
            }
        }
    }

    fn is_goal(&self, s: &PuzzleState) -> bool {
        s.is_goal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use uts_tree::ida::ida_star;

    /// A state is its 12 payload bytes, and an IDA* node (state + `g`) 16.
    #[test]
    fn a_node_is_its_payload() {
        assert_eq!(std::mem::size_of::<PuzzleState>(), 12);
        assert_eq!(std::mem::size_of::<uts_tree::BoundedNode<PuzzleState>>(), 16);
    }

    fn scramble(moves: &[Move]) -> PuzzleState {
        let mut s = PuzzleState::new(GOAL);
        for &m in moves {
            if let Some(n) = s.step(m) {
                s = n;
            }
        }
        PuzzleState::new(s.board) // strip `last` so all moves are legal
    }

    #[test]
    fn root_state_caches_consistently() {
        let s = PuzzleState::new(GOAL);
        assert_eq!(s.blank, 0);
        assert_eq!(s.h, 0);
        assert!(s.is_goal());
    }

    #[test]
    fn incremental_h_matches_recompute() {
        let mut s = PuzzleState::new(GOAL);
        for m in [Move::Down, Move::Right, Move::Down, Move::Left, Move::Up, Move::Right] {
            if let Some(n) = s.step(m) {
                assert_eq!(n.h as u32, n.board.manhattan(), "after {m:?}");
                assert_eq!(n.blank, n.board.blank());
                s = n;
            }
        }
    }

    #[test]
    fn inverse_move_is_pruned() {
        let s = PuzzleState::new(GOAL).step(Move::Down).unwrap();
        assert_eq!(s.step(Move::Up), None, "must not undo the generating move");
        assert!(s.step(Move::Down).is_some());
    }

    #[test]
    fn successors_exclude_inverse_and_off_board() {
        let p = Puzzle15::new(GOAL);
        let root = p.initial();
        let mut succ = Vec::new();
        p.successors(&root, &mut succ);
        // Blank at corner 0: only Down and Right.
        assert_eq!(succ.len(), 2);
        // From a child, the inverse is pruned: blank at 4 has Up/Down/Right
        // minus the inverse (Up) = 2 moves.
        let child = root.step(Move::Down).unwrap();
        succ.clear();
        p.successors(&child, &mut succ);
        assert_eq!(succ.len(), 2);
    }

    #[test]
    fn ida_star_solves_short_scrambles_optimally() {
        // A 3-move scramble (no backtracking) has optimal cost 3 with
        // Manhattan: each move displaces a distinct tile by one.
        let s = scramble(&[Move::Down, Move::Right, Move::Down]);
        let p = Puzzle15::new(s.board);
        let r = ida_star(&p, 80);
        assert_eq!(r.solution_cost, Some(3));
    }

    #[test]
    fn ida_star_on_goal_is_trivial() {
        let p = Puzzle15::new(GOAL);
        let r = ida_star(&p, 80);
        assert_eq!(r.solution_cost, Some(0));
        assert_eq!(r.final_iteration().expanded, 1);
    }

    #[test]
    #[should_panic(expected = "unsolvable")]
    fn unsolvable_instance_rejected() {
        let mut tiles = GOAL.to_tiles();
        tiles.swap(1, 2);
        let _ = Puzzle15::new(Board::from_tiles(&tiles));
    }

    proptest! {
        /// Manhattan never exceeds the scramble length (admissibility
        /// against a known upper bound on the true distance).
        #[test]
        fn h_is_bounded_by_scramble_length(moves in proptest::collection::vec(0u8..4, 0..40)) {
            let mut s = PuzzleState::new(GOAL);
            let mut applied = 0u32;
            for &mi in &moves {
                let m = Move::ALL[mi as usize];
                if let Some(n) = s.step(m) {
                    s = n;
                    applied += 1;
                }
            }
            prop_assert!(s.h as u32 <= applied, "h={} > moves={}", s.h, applied);
        }

        /// The heuristic is consistent: |h(s) - h(s')| <= 1 across a move.
        #[test]
        fn h_is_consistent(moves in proptest::collection::vec(0u8..4, 1..60)) {
            let mut s = PuzzleState::new(GOAL);
            for &mi in &moves {
                let m = Move::ALL[mi as usize];
                if let Some(n) = s.step(m) {
                    prop_assert!((n.h as i32 - s.h as i32).abs() <= 1);
                    s = n;
                }
            }
        }

        /// Legal move sequences keep the board a solvable permutation.
        #[test]
        fn moves_preserve_solvability(moves in proptest::collection::vec(0u8..4, 0..60)) {
            let mut s = PuzzleState::new(GOAL);
            for &mi in &moves {
                if let Some(n) = s.step(Move::ALL[mi as usize]) {
                    s = n;
                }
            }
            let tiles = s.board.to_tiles();
            let mut seen = [false; 16];
            for &t in &tiles {
                prop_assert!(!seen[t as usize]);
                seen[t as usize] = true;
            }
            prop_assert!(s.board.is_solvable());
        }
    }
}
