//! Packed 4×4 board representation and move mechanics.

/// A sliding move, named for the direction the *blank* travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Move {
    /// Blank moves up (the tile above slides down).
    Up = 0,
    /// Blank moves down.
    Down = 1,
    /// Blank moves left.
    Left = 2,
    /// Blank moves right.
    Right = 3,
}

impl Move {
    /// All four moves, in the generation order used by the search.
    pub const ALL: [Move; 4] = [Move::Up, Move::Down, Move::Left, Move::Right];

    /// The move that undoes this one.
    pub fn inverse(self) -> Move {
        match self {
            Move::Up => Move::Down,
            Move::Down => Move::Up,
            Move::Left => Move::Right,
            Move::Right => Move::Left,
        }
    }

    /// Target cell when the blank at `cell` makes this move, if on-board.
    pub fn apply(self, cell: u8) -> Option<u8> {
        let (r, c) = (cell / 4, cell % 4);
        let (nr, nc) = match self {
            Move::Up => (r.checked_sub(1)?, c),
            Move::Down => (r + 1, c),
            Move::Left => (r, c.checked_sub(1)?),
            Move::Right => (r, c + 1),
        };
        (nr < 4 && nc < 4).then_some(nr * 4 + nc)
    }
}

/// A 4×4 board packed 4 bits per cell: nibble `i` holds the tile at cell
/// `i` (row-major), 0 denoting the blank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Board(pub u64);

/// The solved board: blank at cell 0, tiles 1..15 in order.
///
/// (This is the Korf (1985) goal convention, which his benchmark instances'
/// published optimal costs assume.)
pub const GOAL: Board = Board(0xFEDC_BA98_7654_3210);

impl Board {
    /// Build from a tile array (`tiles[cell] = tile`, 0 = blank).
    ///
    /// # Panics
    /// Panics if `tiles` is not a permutation of `0..16`.
    pub fn from_tiles(tiles: &[u8; 16]) -> Self {
        let mut seen = [false; 16];
        let mut packed = 0u64;
        for (cell, &t) in tiles.iter().enumerate() {
            assert!(t < 16 && !seen[t as usize], "tiles must be a permutation of 0..16");
            seen[t as usize] = true;
            packed |= (t as u64) << (4 * cell);
        }
        Board(packed)
    }

    /// The tile at `cell`.
    pub fn get(self, cell: u8) -> u8 {
        ((self.0 >> (4 * cell)) & 0xF) as u8
    }

    /// Copy with `tile` written at `cell`.
    pub fn set(self, cell: u8, tile: u8) -> Self {
        let shift = 4 * cell as u64;
        Board((self.0 & !(0xFu64 << shift)) | ((tile as u64) << shift))
    }

    /// The blank's cell.
    pub fn blank(self) -> u8 {
        (0..16).find(|&c| self.get(c) == 0).expect("every board has a blank")
    }

    /// Unpack to a tile array.
    pub fn to_tiles(self) -> [u8; 16] {
        std::array::from_fn(|i| self.get(i as u8))
    }

    /// Slide: move the blank at `blank` in direction `m`, returning the new
    /// board and blank cell, or `None` if the move leaves the board.
    pub fn slide(self, blank: u8, m: Move) -> Option<(Board, u8)> {
        let target = m.apply(blank)?;
        let tile = self.get(target);
        Some((self.set(blank, tile).set(target, 0), target))
    }

    /// Sum of Manhattan distances of all tiles from their goal cells — the
    /// admissible, consistent heuristic of the paper's IDA\*.
    pub fn manhattan(self) -> u32 {
        let mut h = 0u32;
        for cell in 0..16u8 {
            let t = self.get(cell);
            if t != 0 {
                h += manhattan_tile(t, cell);
            }
        }
        h
    }

    /// Whether this position can reach [`GOAL`]: inversion parity of the
    /// tile sequence must match the blank's row parity (standard 4×4
    /// solvability criterion).
    pub fn is_solvable(self) -> bool {
        let tiles = self.to_tiles();
        let mut inversions = 0u32;
        for i in 0..16 {
            for j in i + 1..16 {
                if tiles[i] != 0 && tiles[j] != 0 && tiles[i] > tiles[j] {
                    inversions += 1;
                }
            }
        }
        // With the blank's goal cell at index 0 (row 0), a position is
        // solvable iff inversions + blank_row is even.
        let blank_row = (self.blank() / 4) as u32;
        (inversions + blank_row).is_multiple_of(2)
    }
}

impl std::fmt::Display for Board {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for r in 0..4 {
            for c in 0..4 {
                let t = self.get(r * 4 + c);
                if t == 0 {
                    write!(f, "  .")?;
                } else {
                    write!(f, " {t:2}")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Manhattan distance of `tile` (1..=15) placed at `cell` from its goal
/// cell (tile `t` belongs at cell `t` under the Korf goal convention).
pub fn manhattan_tile(tile: u8, cell: u8) -> u32 {
    debug_assert!((1..16).contains(&tile));
    let (gr, gc) = (tile / 4, tile % 4);
    let (r, c) = (cell / 4, cell % 4);
    (gr.abs_diff(r) + gc.abs_diff(c)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goal_round_trips() {
        let tiles: [u8; 16] = std::array::from_fn(|i| i as u8);
        assert_eq!(Board::from_tiles(&tiles), GOAL);
        assert_eq!(GOAL.to_tiles(), tiles);
        assert_eq!(GOAL.blank(), 0);
        assert_eq!(GOAL.manhattan(), 0);
        assert!(GOAL.is_solvable());
    }

    #[test]
    fn get_set_are_inverse() {
        let b = GOAL.set(5, 0xA).set(10, 5);
        assert_eq!(b.get(5), 0xA);
        assert_eq!(b.get(10), 5);
        assert_eq!(b.get(0), 0);
    }

    #[test]
    fn move_apply_respects_edges() {
        assert_eq!(Move::Up.apply(0), None);
        assert_eq!(Move::Left.apply(0), None);
        assert_eq!(Move::Down.apply(0), Some(4));
        assert_eq!(Move::Right.apply(0), Some(1));
        assert_eq!(Move::Down.apply(15), None);
        assert_eq!(Move::Right.apply(15), None);
        assert_eq!(Move::Up.apply(15), Some(11));
        assert_eq!(Move::Left.apply(7), Some(6));
        assert_eq!(Move::Right.apply(3), None, "no wrap across row ends");
    }

    #[test]
    fn inverse_is_involutive() {
        for m in Move::ALL {
            assert_eq!(m.inverse().inverse(), m);
            assert_ne!(m.inverse(), m);
        }
    }

    #[test]
    fn slide_swaps_blank_and_tile() {
        let (b, blank) = GOAL.slide(0, Move::Down).unwrap();
        assert_eq!(blank, 4);
        assert_eq!(b.get(0), 4, "tile 4 slid into the old blank cell");
        assert_eq!(b.get(4), 0);
        // Sliding back restores the goal.
        let (b2, blank2) = b.slide(blank, Move::Up).unwrap();
        assert_eq!(b2, GOAL);
        assert_eq!(blank2, 0);
    }

    #[test]
    fn manhattan_counts_displacement() {
        // Move tile 4 from cell 4 to cell 0: distance 1.
        let (b, _) = GOAL.slide(0, Move::Down).unwrap();
        assert_eq!(b.manhattan(), 1);
        // Tile 15 at cell 0 is 3+3 away from cell 15.
        assert_eq!(manhattan_tile(15, 0), 6);
        assert_eq!(manhattan_tile(1, 1), 0);
    }

    #[test]
    fn single_move_flips_solvability_never() {
        // Legal moves preserve solvability.
        let mut b = GOAL;
        let mut blank = 0u8;
        for m in [Move::Down, Move::Right, Move::Down, Move::Left, Move::Up] {
            let (nb, nblank) = b.slide(blank, m).unwrap();
            b = nb;
            blank = nblank;
            assert!(b.is_solvable());
        }
    }

    #[test]
    fn tile_swap_makes_unsolvable() {
        // Swapping two non-blank tiles flips parity.
        let mut tiles = GOAL.to_tiles();
        tiles.swap(1, 2);
        assert!(!Board::from_tiles(&tiles).is_solvable());
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn duplicate_tiles_rejected() {
        let mut tiles: [u8; 16] = std::array::from_fn(|i| i as u8);
        tiles[3] = 5;
        let _ = Board::from_tiles(&tiles);
    }

    #[test]
    fn display_draws_grid() {
        let s = GOAL.to_string();
        assert!(s.contains('.'), "blank shown as a dot");
        assert!(s.contains("15"));
        assert_eq!(s.lines().count(), 4);
    }
}
