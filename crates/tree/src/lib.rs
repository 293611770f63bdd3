//! Tree-search substrate: the problem abstraction, the splittable DFS stack,
//! and the serial algorithms (DFS, IDA\*).
//!
//! The paper's setting (Sec. 2): a tree-search problem is "a description of
//! the root node of the tree and a successor-generator-function"; each
//! processor searches its part depth-first, keeping a stack whose levels
//! hold the *untried alternatives*, and work is split by "partitioning
//! untried alternatives (on the current stack) into two parts". This crate
//! provides exactly those pieces:
//!
//! * [`TreeProblem`] — root + successor generation (+ goal test);
//! * [`SearchStack`] — the per-processor stack of untried-alternative
//!   frames, with [`SearchStack::split`] implementing the paper's
//!   alpha-splitting (default policy: donate the bottom-most alternative,
//!   the choice the paper uses for the 15-puzzle);
//! * [`serial`] — the serial baselines that define the problem size `W`
//!   and against which parallel node counts are checked;
//! * [`ida`] — iterative-deepening A\* built from bounded DFS iterations.

pub mod arena;
pub mod codec;
pub mod ida;
pub mod problem;
pub mod serial;
pub mod stack;

pub use arena::{BlockRun, Donation, FrameWriter, StackArena};
pub use codec::{CkptNode, CodecError, Reader};
pub use problem::{BoundedNode, BoundedProblem, Children, HeuristicProblem, TreeProblem};
pub use serial::{serial_dfs, serial_dfs_collect, serial_dfs_first_goal, SerialStats};
pub use stack::{Burst, SearchStack, SplitPolicy};
