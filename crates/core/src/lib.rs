//! Parallel depth-first search on lockstep SIMD machines — the algorithms
//! of Karypis & Kumar, *Unstructured Tree Search on SIMD Parallel
//! Computers* (SC'92 / TR 92-21).
//!
//! An efficient SIMD tree-search formulation has two components (Sec. 1):
//!
//! 1. a **triggering mechanism** deciding when the whole machine leaves the
//!    search phase to redistribute work — [`Trigger::Static`] (`A <= x·P`),
//!    [`Trigger::Dp`] (Powley/Ferguson/Korf, eq. 2) and the paper's new
//!    [`Trigger::Dk`] (`w_idle >= L·P`, eq. 4);
//! 2. a **redistribution mechanism** pairing busy with idle processors —
//!    [`Matching::Ngp`] (plain rendezvous enumeration) and the paper's new
//!    [`Matching::Gp`] (rendezvous rotated by a *global pointer* so the
//!    donation burden is spread round-robin).
//!
//! Any combination can run ([`Scheme`]); the paper's Table 1 lists the six
//! it studies. The related-work schemes of Sec. 8 are expressible too:
//! FESS/FEGS via [`Trigger::AnyIdle`] with [`TransferMode::Single`] /
//! [`TransferMode::Equalize`], and the Frye–Myczkowski nearest-neighbor
//! scheme via [`nn::run_nearest_neighbor`].
//!
//! The executable model is a *cycle-quantized lockstep simulation*: every
//! search-phase step, each processor with work expands exactly one node;
//! virtual time advances by `U_calc` per cycle and by the cost model's
//! `t_lb` per balancing phase (see `uts-machine`). The macro-step loop is
//! written once ([`driver`]); the engines are backends of it that differ
//! only in how the host executes the search phase — inline, fanned out
//! over scoped threads per burst ([`parstep`]), cycle-major, or in worker
//! processes (`uts-shard`) — without changing its semantics, so runs are
//! deterministic given `(problem, config)`.
//!
//! ```
//! use uts_core::{EngineConfig, Scheme, run};
//! use uts_machine::CostModel;
//! use uts_synth::GeometricTree;
//!
//! let tree = GeometricTree { seed: 1, b_max: 8, depth_limit: 6 };
//! let cfg = EngineConfig::new(64, Scheme::gp_static(0.8), CostModel::cm2());
//! let outcome = run(&tree, &cfg);
//! assert!(outcome.report.efficiency > 0.0);
//! // Anomaly-free: the parallel search expands the serial node count.
//! assert_eq!(outcome.report.nodes_expanded, uts_tree::serial_dfs(&tree).expanded);
//! ```

pub mod census;
pub mod ckpt;
pub mod driver;
pub mod engine;
pub mod macrostep;
pub mod matcher;
pub mod nn;
pub mod parstep;
pub mod reference;
pub mod report_json;
pub mod scheme;
pub mod store;
pub mod trigger;

pub use ckpt::{
    config_fingerprint, resume_from_bytes, resume_with, CheckpointCfg, CheckpointSink, Snapshot,
};
pub use driver::{recount_active, BurstBackend, LockstepDriver, MergedBurst, StepStatus};
pub use engine::{
    expansion_burst, merge_active, run_fused, run_with, CycleMajorBackend, CycleStats,
    EngineConfig, EngineKind, MacroStep, Outcome,
};
pub use macrostep::{run, InlineBackend};
pub use matcher::MatchState;
pub use parstep::{run_par, PooledBackend};
pub use reference::run_reference;
pub use report_json::run_report_json;
pub use scheme::{Matching, Scheme, TransferMode, Trigger};
pub use store::{CountedMove, StackStore};
