//! What a run searches: the one workload type of the CLI, the job server
//! and the sharded fleet — a bounded IDA\* iteration of a 15-puzzle board
//! (the paper's Sec. 5), an on-the-fly [`GenTree`] or a seeded
//! [`GeometricTree`]. Its constructors hold every default and check; the
//! `sts` flags and the `/submit` JSON only map their own key names onto
//! them. The shard `HELLO` codec's decode runs the same checks, so no pipe
//! bytes start a search that panics or never ends. [`Workload::search`] is
//! the one place a run's [`TreeProblem`] is built.

use std::fmt;

use uts_puzzle15::{korf_instances, scrambled, Board, Puzzle15};
use uts_synth::GeometricTree;
use uts_synthgen::{GenFamily, GenTree};
use uts_tree::codec::{put_u32, put_u64};
use uts_tree::ida::ida_star;
use uts_tree::problem::BoundedProblem;
use uts_tree::{CodecError, Reader, TreeProblem};

use crate::{run_from, EngineConfig, Outcome, RunError};

/// Largest IDA\* bound, and the deepest serial IDA\* resolves one to.
const MAX_BOUND: u32 = 80;
/// Longest scramble walk, replayed move by move before a search starts.
const MAX_WALK: u64 = 1000;
/// Deepest depth limit of a geometric tree.
const MAX_DEPTH: u32 = 64;

/// The search problem of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One bounded IDA\* iteration of a 15-puzzle.
    Puzzle {
        /// The packed start board ([`Board`] representation).
        board: u64,
        /// Cost bound of the iteration.
        bound: u32,
    },
    /// An on-the-fly generated Galton–Watson tree (`uts-synthgen`).
    UtsGen(GenTree),
    /// A seeded synthetic geometric tree (`uts-synth`).
    Synth(GeometricTree),
}

/// A computation generic over the problem a [`Workload`] names: what
/// [`Workload::search`] hands the problem it builds.
pub trait Search {
    /// What the computation returns.
    type Out;
    /// Run over `problem`.
    fn search<P: TreeProblem>(self, problem: &P) -> Self::Out;
}

/// `value` as a `u32`, or an error naming it as `what`.
fn narrow(value: u64, what: &str) -> Result<u32, String> {
    u32::try_from(value).map_err(|_| format!("{what} {value}: out of range"))
}

/// Whether `board`'s sixteen nibbles are a permutation of `0..16` that can
/// reach the goal.
fn solvable(board: u64) -> bool {
    let seen = (0..16).fold(0u16, |seen, cell| seen | 1 << ((board >> (4 * cell)) & 0xF));
    seen == u16::MAX && Board(board).is_solvable()
}

impl Workload {
    /// The start board of embedded Korf instance `id`.
    pub fn korf_board(id: u64) -> Result<u64, String> {
        let have = korf_instances();
        let found = have.iter().find(|i| u64::from(i.id) == id).map(|i| i.board().0);
        found.ok_or(format!("korf {id}: not an embedded instance (have 1..={})", have.len()))
    }

    /// The start board of a seeded scramble: `walk` random moves from the
    /// goal (defaults: seed 42, walk 40).
    pub fn scramble_board(seed: Option<u64>, walk: Option<u64>) -> Result<u64, String> {
        let walk = walk.unwrap_or(40);
        if walk > MAX_WALK {
            return Err(format!("walk {walk}: at most {MAX_WALK}"));
        }
        Ok(scrambled(seed.unwrap_or(42), walk as usize).board().0)
    }

    /// One bounded IDA\* iteration from `board`: at `bound` (at most 80),
    /// else at the optimal cost serial IDA\* finds within 80.
    pub fn puzzle(board: u64, bound: Option<u64>) -> Result<Self, String> {
        let bound = match bound {
            Some(b) => narrow(b, "bound")?,
            None if solvable(board) => ida_star(&Puzzle15::new(Board(board)), MAX_BOUND)
                .solution_cost
                .ok_or(format!("instance not solvable within bound {MAX_BOUND}"))?,
            // An unsolvable board fails the check below.
            None => MAX_BOUND,
        };
        Workload::Puzzle { board, bound }.checked()
    }

    /// A geometric generated tree (defaults: seed 1, `b_max` 8, depth 6).
    pub fn geometric(
        seed: Option<u64>,
        b_max: Option<u64>,
        depth: Option<u64>,
    ) -> Result<Self, String> {
        let b_max = narrow(b_max.unwrap_or(8), "b_max")?;
        let depth = narrow(depth.unwrap_or(6), "depth")?;
        Workload::UtsGen(GenTree::geometric(seed.unwrap_or(1), b_max, depth)).checked()
    }

    /// A binomial generated tree (defaults: seed 1, `b0` 16, `m` 4,
    /// `q` 0.2); it must be subcritical, `q·m < 1`.
    pub fn binomial(
        seed: Option<u64>,
        b0: Option<u64>,
        m: Option<u64>,
        q: Option<f64>,
    ) -> Result<Self, String> {
        let b0 = narrow(b0.unwrap_or(16), "b0")?;
        let m = narrow(m.unwrap_or(4), "m")?;
        let q = q.unwrap_or(0.2);
        if !(0.0..1.0).contains(&q) || q * f64::from(m) >= 1.0 {
            return Err(format!("q {q}, m {m}: the binomial family must be subcritical (q*m < 1)"));
        }
        Workload::UtsGen(GenTree::binomial(seed.unwrap_or(1), b0, m, q)).checked()
    }

    /// A synthetic geometric tree (defaults: seed 1, `b_max` 8, depth
    /// limit 6).
    pub fn synth(
        seed: Option<u64>,
        b_max: Option<u64>,
        depth_limit: Option<u64>,
    ) -> Result<Self, String> {
        let b_max = narrow(b_max.unwrap_or(8), "b_max")?;
        let depth_limit = narrow(depth_limit.unwrap_or(6), "depth_limit")?;
        Workload::Synth(GeometricTree { seed: seed.unwrap_or(1), b_max, depth_limit }).checked()
    }

    /// The checks every workload passes, however it was made.
    fn check(&self) -> Result<(), &'static str> {
        match *self {
            Workload::Puzzle { board, .. } if !solvable(board) => {
                Err("board is not a solvable permutation of 0..16")
            }
            Workload::Puzzle { bound, .. } if bound > MAX_BOUND => Err("bound above 80"),
            Workload::UtsGen(GenTree {
                family: GenFamily::Geometric { depth_limit, .. }, ..
            })
            | Workload::Synth(GeometricTree { depth_limit, .. })
                if depth_limit > MAX_DEPTH =>
            {
                Err("depth limit above 64")
            }
            Workload::UtsGen(GenTree {
                family: GenFamily::Binomial { m, q_threshold, .. },
                ..
            }) if q_threshold as f64 / u64::MAX as f64 * f64::from(m) >= 1.0 => {
                Err("binomial family is not subcritical (q*m >= 1)")
            }
            _ => Ok(()),
        }
    }

    fn checked(self) -> Result<Self, String> {
        self.check().map(|()| self).map_err(|why| format!("{self}: {why}"))
    }

    /// Build the problem and hand it to `s`. The only place a run's
    /// [`TreeProblem`] is made from a workload.
    pub fn search<S: Search>(&self, s: S) -> S::Out {
        match *self {
            Workload::Puzzle { board, bound } => {
                let puzzle = Puzzle15::new(Board(board));
                s.search(&BoundedProblem::new(&puzzle, bound))
            }
            Workload::UtsGen(tree) => s.search(&tree),
            Workload::Synth(tree) => s.search(&tree),
        }
    }

    /// [`run_from`] this workload's problem: under `cfg` from the root, or
    /// resumed from `snapshot` bytes.
    pub fn run(&self, cfg: &EngineConfig, snapshot: Option<&[u8]>) -> Result<Outcome, RunError> {
        struct RunFrom<'a>(&'a EngineConfig, Option<&'a [u8]>);
        impl Search for RunFrom<'_> {
            type Out = Result<Outcome, RunError>;
            fn search<P: TreeProblem>(self, problem: &P) -> Self::Out {
                run_from(problem, self.0, self.1)
            }
        }
        self.search(RunFrom(cfg, snapshot))
    }

    /// Append the wire encoding: a tag byte (0 puzzle, 1 generated tree,
    /// 2 synthetic tree), then the fields in declaration order.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Workload::Puzzle { board, bound } => {
                out.push(0);
                put_u64(out, board);
                put_u32(out, bound);
            }
            Workload::UtsGen(tree) => {
                out.push(1);
                put_u64(out, tree.seed);
                match tree.family {
                    GenFamily::Geometric { b_max, depth_limit } => {
                        out.push(0);
                        put_u32(out, b_max);
                        put_u32(out, depth_limit);
                    }
                    GenFamily::Binomial { b0, m, q_threshold } => {
                        out.push(1);
                        put_u32(out, b0);
                        put_u32(out, m);
                        put_u64(out, q_threshold);
                    }
                }
            }
            Workload::Synth(tree) => {
                out.push(2);
                put_u64(out, tree.seed);
                put_u32(out, tree.b_max);
                put_u32(out, tree.depth_limit);
            }
        }
    }

    /// Decode one workload from the front of `r`. A value the constructors
    /// would refuse is [`CodecError::Malformed`].
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let workload = match r.u8()? {
            0 => Workload::Puzzle { board: r.u64()?, bound: r.u32()? },
            1 => {
                let seed = r.u64()?;
                let family = match r.u8()? {
                    0 => GenFamily::Geometric { b_max: r.u32()?, depth_limit: r.u32()? },
                    1 => GenFamily::Binomial { b0: r.u32()?, m: r.u32()?, q_threshold: r.u64()? },
                    _ => return Err(CodecError::Malformed("unknown generated-tree family")),
                };
                Workload::UtsGen(GenTree { seed, family })
            }
            2 => Workload::Synth(GeometricTree {
                seed: r.u64()?,
                b_max: r.u32()?,
                depth_limit: r.u32()?,
            }),
            _ => return Err(CodecError::Malformed("unknown workload")),
        };
        workload.check().map_err(CodecError::Malformed)?;
        Ok(workload)
    }
}

impl From<GenTree> for Workload {
    fn from(tree: GenTree) -> Self {
        Workload::UtsGen(tree)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Workload::Puzzle { bound, .. } => write!(f, "15-puzzle, bound {bound}"),
            Workload::UtsGen(GenTree { seed, family }) => match family {
                GenFamily::Geometric { b_max, depth_limit } => {
                    write!(f, "utsgen geometric (seed {seed}, b_max {b_max}, depth {depth_limit})")
                }
                GenFamily::Binomial { b0, m, .. } => {
                    write!(f, "utsgen binomial (seed {seed}, b0 {b0}, m {m})")
                }
            },
            Workload::Synth(GeometricTree { seed, b_max, depth_limit }) => {
                write!(f, "synth (seed {seed}, b_max {b_max}, depth_limit {depth_limit})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(w: Workload) -> Result<Workload, CodecError> {
        let mut bytes = Vec::new();
        w.encode(&mut bytes);
        let mut r = Reader::new(&bytes);
        let back = Workload::decode(&mut r)?;
        assert!(r.is_done());
        Ok(back)
    }

    #[test]
    fn constructors_hold_the_defaults() {
        let scramble = Workload::scramble_board(None, None).unwrap();
        assert_eq!(scramble, scrambled(42, 40).board().0);
        assert_eq!(Workload::korf_board(3).unwrap(), korf_instances()[2].board().0);
        assert_eq!(
            Workload::geometric(None, None, None).unwrap(),
            Workload::UtsGen(GenTree::geometric(1, 8, 6))
        );
        assert_eq!(
            Workload::binomial(None, None, None, None).unwrap(),
            Workload::UtsGen(GenTree::binomial(1, 16, 4, 0.2))
        );
        assert_eq!(
            Workload::synth(None, None, None).unwrap(),
            Workload::Synth(GeometricTree { seed: 1, b_max: 8, depth_limit: 6 })
        );
    }

    #[test]
    fn a_missing_bound_resolves_to_the_optimal_cost() {
        let board = Workload::scramble_board(Some(7), Some(14)).unwrap();
        let cost = ida_star(&Puzzle15::new(Board(board)), MAX_BOUND).solution_cost.unwrap();
        assert_eq!(Workload::puzzle(board, None).unwrap(), Workload::Puzzle { board, bound: cost });
        assert_eq!(Workload::puzzle(board, Some(5)).unwrap(), Workload::Puzzle { board, bound: 5 });
    }

    #[test]
    fn constructors_refuse_what_would_not_end_or_would_panic() {
        let board = Workload::scramble_board(Some(7), Some(14)).unwrap();
        for bad in [
            Workload::korf_board(99).map(|_| ()),
            Workload::scramble_board(Some(1), Some(MAX_WALK + 1)).map(|_| ()),
            Workload::scramble_board(Some(1), Some(u64::MAX)).map(|_| ()),
            Workload::puzzle(board, Some(81)).map(|_| ()),
            Workload::puzzle(board, Some(4_000_000_000)).map(|_| ()),
            Workload::puzzle(u64::MAX, None).map(|_| ()),
            Workload::puzzle(0x1234_5678_9abc_def0, Some(40)).map(|_| ()),
            Workload::geometric(None, None, Some(65)).map(|_| ()),
            Workload::geometric(None, Some(1 << 32), None).map(|_| ()),
            Workload::binomial(None, None, Some(4), Some(0.3)).map(|_| ()),
            Workload::binomial(None, None, None, Some(1.5)).map(|_| ()),
            Workload::synth(None, None, Some(65)).map(|_| ()),
        ] {
            assert!(bad.is_err());
        }
        let err = Workload::puzzle(board, Some(81)).unwrap_err();
        assert_eq!(err, "15-puzzle, bound 81: bound above 80");
    }

    #[test]
    fn every_kind_round_trips_and_decode_runs_the_checks() {
        for w in [
            Workload::puzzle(Workload::korf_board(1).unwrap(), Some(57)).unwrap(),
            Workload::geometric(Some(7), Some(8), Some(11)).unwrap(),
            Workload::binomial(Some(3), Some(32), Some(4), Some(0.2)).unwrap(),
            Workload::synth(Some(9), Some(6), Some(5)).unwrap(),
        ] {
            assert_eq!(round_trip(w), Ok(w));
        }
        for hostile in [
            Workload::Puzzle { board: u64::MAX, bound: 40 },
            Workload::Puzzle { board: Workload::korf_board(1).unwrap(), bound: 81 },
            Workload::UtsGen(GenTree::geometric(1, 8, 65)),
            Workload::UtsGen(GenTree {
                seed: 1,
                family: GenFamily::Binomial { b0: 4, m: 4, q_threshold: u64::MAX / 2 },
            }),
            Workload::Synth(GeometricTree { seed: 1, b_max: 8, depth_limit: 65 }),
        ] {
            assert!(matches!(round_trip(hostile), Err(CodecError::Malformed(_))), "{hostile:?}");
        }
        let mut r = Reader::new(&[3]);
        assert_eq!(Workload::decode(&mut r), Err(CodecError::Malformed("unknown workload")));
    }

    #[test]
    fn display_names_the_workload() {
        let w = Workload::geometric(Some(3), Some(8), Some(8)).unwrap();
        assert_eq!(w.to_string(), "utsgen geometric (seed 3, b_max 8, depth 8)");
        let w = Workload::binomial(Some(5), Some(32), Some(4), Some(0.2)).unwrap();
        assert_eq!(w.to_string(), "utsgen binomial (seed 5, b0 32, m 4)");
        let board = Workload::scramble_board(Some(7), Some(14)).unwrap();
        assert_eq!(Workload::puzzle(board, Some(12)).unwrap().to_string(), "15-puzzle, bound 12");
    }
}
