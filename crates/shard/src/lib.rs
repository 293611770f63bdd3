//! # uts-shard — the sharded multi-process machine
//!
//! Simulates ensembles far past one address space's comfort (P ≥ 2²⁰ PEs)
//! by splitting the PE array into contiguous shards, each owned by a
//! worker **process** running the engine's search phase over its slab,
//! with one coordinator serializing every balancing phase at macro-step
//! boundaries. The wire format is the `uts-ckpt` frame codec (length-
//! prefixed, checksummed, sequence-numbered) over the workers' pipes, and
//! the stack payloads are the checkpoint stack codec — so a sharded run's
//! checkpoint resumes under the single-process engine and vice versa.
//!
//! Because the coordinator runs the *identical* horizon/trigger/matcher
//! code ([`uts_core::LockstepDriver`]) and workers run the *identical*
//! expansion code ([`uts_core::expansion_burst_reporting`], the body of
//! [`uts_core::expansion_burst`]), the sharded
//! [`uts_core::Outcome`] is bit-identical to the macro engine at any
//! shard count. See DESIGN.md §13 for the protocol grammar and the
//! determinism argument.

pub mod coord;
pub mod proto;
pub mod worker;

pub use coord::{
    resume_sharded, run_sharded, FrameTally, RoutedPhase, ShardError, ShardOpts, ShardRun,
    ShardStats, TagTraffic, WorkerKill,
};
pub use uts_core::Workload as ShardWorkload;
pub use worker::{maybe_run_worker, serve, WorkerError, WORKER_ENV};
