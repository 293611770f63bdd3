//! Multi-tenant simulation job server (`sts serve`).
//!
//! The paper's premise — unstructured tree search served at scale on a
//! lockstep machine — made literal: a long-running server that accepts
//! simulation jobs over a hand-rolled HTTP/1.1 + JSON API, runs them on
//! a bounded pool of runner slots, and **preemptively schedules** them.
//! When more jobs wait than slots exist, running jobs are checkpointed
//! at their next macro-step boundary (the PR 5 snapshot container,
//! forced by a [`uts_ckpt::PreemptSignal`]), parked to a spill
//! directory, and resumed later with boundary numbering intact — so
//! every completed job's [`uts_core::Outcome`] is bit-identical to an
//! uninterrupted `run_with` of the same config, no matter how often it
//! was parked, and the whole job table survives a crash of the server
//! process.
//!
//! | endpoint | method | body | reply |
//! |---|---|---|---|
//! | `/submit` | POST | job spec JSON | `{"job":id}` |
//! | `/status/{id}` | GET | — | state, preemptions, config fingerprint |
//! | `/result/{id}` | GET | — | result document with `outcome_fnv`; waits up to [`RESULT_WAIT`] for the job, then 409 if it is still running |
//! | `/cancel/{id}` | POST | — | resulting state |
//! | `/jobs` | GET | — | every job's id + state |
//!
//! `/status` and `/jobs` answer at once; they are the endpoints to probe
//! with. `/result` of a cancelled job answers 409 `cancelled` at once.
//!
//! Module map: [`json`] (minimal JSON reader), [`spec`] (job spec +
//! slice runner), [`jobs`] (pure lifecycle state machine), [`http`]
//! (frame reader/writer + blocking test client), [`server`] (scheduler,
//! recovery, routing, the result wait), [`error`] (the six-way typed
//! rejection taxonomy).

pub mod error;
pub mod http;
pub mod jobs;
pub mod json;
pub mod server;
pub mod spec;

pub use error::ServeError;
pub use http::client;
pub use jobs::{JobRecord, JobState, JobTable};
pub use server::{JobServer, ServeConfig, RESULT_WAIT};
pub use spec::{outcome_digest, JobSpec, Workload};
