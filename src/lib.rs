//! # simd-tree-search
//!
//! A reproduction of **Karypis & Kumar, "Unstructured Tree Search on SIMD
//! Parallel Computers: A Summary of Results" (SC 1992 / TR 92-21)** as a
//! Rust workspace: the load-balancing schemes (GP/nGP matching ×
//! static/D^P/D^K triggering), a lockstep CM-2-style machine simulator, the
//! 15-puzzle IDA\* workload, a MIMD work-stealing baseline, and the
//! isoefficiency analysis apparatus — plus a benchmark harness that
//! regenerates every table and figure of the paper's evaluation.
//!
//! This crate is the facade: it re-exports the workspace crates under
//! stable module names and provides a [`prelude`].
//!
//! ## Quick start
//!
//! Simulate a parallel depth-first search of a 15-puzzle IDA\* iteration on
//! 1024 lockstep processors with the paper's best scheme (GP matching,
//! D^K triggering):
//!
//! ```
//! use simd_tree_search::prelude::*;
//!
//! // A small instance: scramble the solved board by a 20-move random walk.
//! let instance = puzzle15::scrambled(7, 20);
//! let puzzle = puzzle15::Puzzle15::new(instance.board());
//!
//! // Serial IDA* defines the workload (the final, goal-containing
//! // iteration) and the problem size W.
//! let ida = tree::ida::ida_star(&puzzle, 80);
//! let bound = ida.solution_cost.expect("instance is solvable");
//! let w = ida.final_iteration().expanded;
//!
//! // Parallel search of the same iteration under GP-D^K.
//! let bounded = tree::problem::BoundedProblem::new(&puzzle, bound);
//! let cfg = EngineConfig::new(1024, Scheme::gp_dk(), CostModel::cm2());
//! let outcome = run(&bounded, &cfg);
//!
//! // Anomaly-free: the parallel search expanded exactly W nodes.
//! assert_eq!(outcome.report.nodes_expanded, w);
//! assert!(outcome.goals >= 1);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | schemes, triggers, matchers, the SIMD engine (`uts-core`) |
//! | [`machine`] | cost models, virtual clock, efficiency accounting (`uts-machine`) |
//! | [`tree`] | problem traits, splittable stacks, DFS/IDA\* (`uts-tree`) |
//! | [`puzzle15`] | the 15-puzzle domain and benchmark instances (`uts-puzzle15`) |
//! | [`synth`] | seeded synthetic unstructured trees (`uts-synth`) |
//! | [`synthgen`] | hash-chained on-the-fly UTS generator trees (`uts-synthgen`) |
//! | [`scan`] | rendezvous matching: the packed form the engines call and its flag-vector oracle (`uts-scan`) |
//! | [`mimd`] | asynchronous work-stealing baseline (`uts-mimd`) |
//! | [`analysis`] | isoefficiency analysis, eq. 18, contour fits (`uts-analysis`) |
//! | [`viz`] | dependency-free SVG chart rendering (`uts-viz`) |
//! | [`net`] | hypercube/mesh routing simulation validating the t_lb models (`uts-net`) |
//! | [`ckpt`] | versioned snapshot format, checkpoint policies, fault injection (`uts-ckpt`) |
//! | [`serve`] | HTTP/JSON job server with preemptive checkpoint scheduling (`uts-serve`) |

pub use uts_analysis as analysis;
pub use uts_ckpt as ckpt;
pub use uts_core as core;
pub use uts_machine as machine;
pub use uts_mimd as mimd;
pub use uts_net as net;
pub use uts_puzzle15 as puzzle15;
pub use uts_scan as scan;
pub use uts_serve as serve;
pub use uts_synth as synth;
pub use uts_synthgen as synthgen;
pub use uts_tree as tree;
pub use uts_viz as viz;

/// The names almost every user needs.
pub mod prelude {
    pub use uts_ckpt::{CheckpointPolicy, CkptError, EngineSnapshot, FaultPlan, PreemptSignal};
    pub use uts_core::{
        config_fingerprint, resume_from_bytes, resume_with, run, run_fused, run_par, run_reference,
        run_report_json, run_with, CheckpointCfg, CheckpointSink, EngineConfig, EngineKind,
        Matching, Outcome, Scheme, TransferMode, Trigger,
    };
    pub use uts_machine::{
        CostModel, DonationSpread, LbCostBreakdown, LbPhaseRecord, Ledger, Report, SimdMachine,
        Topology, TriggerFiring, TriggerKind,
    };
    pub use uts_tree::{
        serial_dfs, Children, CkptNode, HeuristicProblem, SearchStack, SplitPolicy, TreeProblem,
    };

    pub use uts_serve::{outcome_digest, JobServer, JobSpec, JobState, ServeConfig, ServeError};

    pub use uts_synthgen::{find_gen_tree, GenFamily, GenNode, GenTree};

    pub use crate::{
        analysis, ckpt, core, machine, mimd, net, puzzle15, scan, serve, synth, synthgen, tree,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        // Compile-time check that the public paths exist and line up.
        let _ = crate::core::Scheme::gp_dk();
        let _ = crate::machine::CostModel::cm2();
        let _ = crate::analysis::DEFAULT_ALPHA;
    }
}
