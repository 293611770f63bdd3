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
//! it studies. The related-work schemes of Sec. 8 are combinations too:
//! FESS/FEGS are [`Trigger::AnyIdle`] with [`TransferMode::Single`] /
//! [`TransferMode::Equalize`], and the Frye–Myczkowski nearest-neighbour
//! scheme ([`Scheme::ring_nn`]) is [`Matching::Ring`] under the same
//! trigger, charged `U_comm` per step ([`Scheme::phase_cost_model`]).
//!
//! The executable model is a *cycle-quantized lockstep simulation*: every
//! search-phase step, each processor with work expands exactly one node;
//! virtual time advances by `U_calc` per cycle and by the cost model's
//! `t_lb` per balancing phase (see `uts-machine`). The macro-step loop is
//! written once ([`driver`]); the engines are backends of it that differ
//! only in how the host executes the search phase — in process, on one
//! thread or fanned out over scoped threads per burst ([`local`]), or in
//! worker processes (`uts-shard`) — without changing its semantics, so
//! runs are deterministic given `(problem, config)`. The per-cycle oracle
//! ([`mod@reference`]) is the one loop written independently of it.
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
pub mod json;
pub mod local;
pub mod matcher;
pub mod reference;
pub mod report_json;
pub mod scheme;
pub mod store;
pub mod trigger;
pub mod workload;

pub use ckpt::{config_fingerprint, CheckpointCfg, CheckpointSink, Snapshot};
pub use driver::{BurstBackend, LockstepDriver, MergedBurst, StepStatus};
pub use engine::{
    expansion_burst, expansion_burst_reporting, merge_active, run_from, run_with, CycleStats,
    EngineConfig, EngineKind, Outcome, RunError,
};
pub use local::{run, LocalBackend};
pub use matcher::MatchState;
pub use reference::run_reference;
pub use report_json::{outcome_digest, run_report, run_report_json, DIGEST_VERSION};
pub use scheme::{Matching, Scheme, TransferMode, Trigger};
pub use store::{CountedMove, StackStore};
pub use workload::{Search, Workload};
