//! Runners, workloads and SVG charts shared by the paper reproduction.
//!
//! One binary regenerates the paper's tables and figures and runs the
//! studies around them; `repro` with an unknown section lists them all:
//!
//! ```text
//! cargo run --release -p uts-bench --bin repro -- tables    [table1..table6|ledger|all] [--quick]
//! cargo run --release -p uts-bench --bin repro -- figures   [fig3|fig4|fig7|fig8|all] [--quick]
//! cargo run --release -p uts-bench --bin repro -- ablation  [split|topology|init|transfers|related|fairness|all] [--quick]
//! cargo run --release -p uts-bench --bin repro -- bounds    [--quick]
//! cargo run --release -p uts-bench --bin repro -- anomalies [--quick]
//! cargo run --release -p uts-bench --bin repro -- mimd      [compare|iso|all] [--quick]
//! cargo run --release -p uts-bench --bin repro -- routing   [--quick]
//! cargo run --release -p uts-bench --bin repro -- recalibrate
//! cargo run --release -p uts-bench --bin repro -- all       [--quick]
//! ```
//!
//! `--quick` shrinks problem sizes and processor counts by ~8× for smoke
//! runs; the full (default) settings reproduce the paper's scales (P = 8192,
//! W up to 16.1M). Host performance is measured by the repository
//! benchmark (`benchmark/`, contract in `BENCHMARK.json`), not here.

pub mod runner;
pub mod svg;
pub mod sweep;
pub mod workloads;
