//! Benchmark harness shared by the regenerator and benchmark binaries.
//!
//! The paper's tables and figures, and the studies around them:
//!
//! ```text
//! cargo run --release -p uts-bench --bin tables      -- [table1..table6|all] [--quick]
//! cargo run --release -p uts-bench --bin figures     -- [fig3|fig4|fig7|fig8|all] [--quick]
//! cargo run --release -p uts-bench --bin repro       -- [--quick]
//! cargo run --release -p uts-bench --bin recalibrate
//! cargo run --release -p uts-bench --bin ablation    -- [split|topology|init|transfers|related|fairness|all] [--quick]
//! cargo run --release -p uts-bench --bin bounds      -- [--quick]
//! cargo run --release -p uts-bench --bin anomalies   -- [--quick]
//! cargo run --release -p uts-bench --bin mimd        -- [compare|iso] [--quick]
//! cargo run --release -p uts-bench --bin routing     -- [--quick]
//! ```
//!
//! Host-throughput harnesses, each writing a `BENCH_*.json` report and
//! gating its floors under `--check`:
//!
//! ```text
//! cargo run --release -p uts-bench --bin bench_engine    -- [--quick] [--check] [--out PATH]
//! cargo run --release -p uts-bench --bin bench_service   -- [--quick] [--check] [--out PATH]
//! cargo run --release -p uts-bench --bin bench_workloads -- [--quick] [--check] [--out PATH]
//! cargo run --release -p uts-bench --bin bench_shard     -- [--quick] [--check] [--out PATH]
//! ```
//!
//! `--quick` shrinks problem sizes and processor counts by ~8× for smoke
//! runs; the full (default) settings reproduce the paper's scales (P = 8192,
//! W up to 16.1M).

pub mod runner;
pub mod sweep;
pub mod workloads;

/// Parse the common `--quick` flag out of `args`, returning (rest, quick).
pub fn parse_quick(args: &[String]) -> (Vec<String>, bool) {
    let quick = args.iter().any(|a| a == "--quick");
    (args.iter().filter(|a| *a != "--quick").cloned().collect(), quick)
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_flag_is_extracted() {
        let args = vec!["table2".to_string(), "--quick".to_string()];
        let (rest, quick) = super::parse_quick(&args);
        assert!(quick);
        assert_eq!(rest, vec!["table2".to_string()]);
    }

    #[test]
    fn absent_flag_is_false() {
        let (rest, quick) = super::parse_quick(&["all".to_string()]);
        assert!(!quick);
        assert_eq!(rest.len(), 1);
    }
}
