//! Model-count random 3-SAT formulas on every machine this workspace
//! provides: serial DPLL, the simulated 1992 SIMD machine and the simulated
//! MIMD work-stealer. All three must (and do) agree on every count — the
//! anomaly-free property end to end.
//!
//! ```text
//! cargo run --release --example sat_counting [vars] [clauses]
//! ```

use simd_tree_search::mimd::{run_mimd, MimdConfig, StealPolicy};
use simd_tree_search::prelude::*;
use simd_tree_search::problems::{random_3sat, Dpll};

fn main() {
    let mut args = std::env::args().skip(1);
    let vars: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(26);
    let clauses: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(vars * 3);
    println!(
        "random 3-SAT, {vars} vars x {clauses} clauses (ratio {:.2}):\n",
        clauses as f64 / vars as f64
    );

    for seed in 0..4u64 {
        let dpll = Dpll::new(random_3sat(seed, vars, clauses));
        let serial = serial_dfs(&dpll);

        let simd = run(&dpll, &EngineConfig::new(256, Scheme::gp_dk(), CostModel::cm2()));
        let mimd =
            run_mimd(&dpll, &MimdConfig::new(256, StealPolicy::RandomPolling, CostModel::cm2()));

        assert_eq!(simd.goals, serial.goals);
        assert_eq!(mimd.goals, serial.goals);
        println!(
            "seed {seed}: {:7} models over {:8} DPLL nodes | SIMD E={:.2} ({} balances) | \
             MIMD E={:.2} ({} steals)",
            serial.goals,
            serial.expanded,
            simd.report.efficiency,
            simd.report.n_lb,
            mimd.efficiency,
            mimd.transfers,
        );
    }
    println!("\nall machines agree on every model count.");
}
