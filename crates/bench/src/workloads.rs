//! The calibrated 15-puzzle workloads behind Tables 2–5.
//!
//! Produced once by `cargo run --release -p uts-bench --bin repro -- recalibrate`
//! (a pool search over Korf instances and seeded scrambles for the IDA\*
//! iteration closest to each paper target) and hard-coded here so the tables
//! start instantly. Every entry's `w` is the *measured* serial
//! node count of the exhaustive bounded-DFS iteration; tests re-verify the
//! small ones (and `repro recalibrate` re-verifies all).

use uts_core::{run, EngineConfig, Outcome, Scheme};
use uts_machine::CostModel;
use uts_puzzle15::{Board, Puzzle15};
use uts_tree::problem::BoundedProblem;

/// A calibrated workload: a start position and a cost bound whose
/// exhaustive bounded DFS expands `w` nodes.
#[derive(Debug, Clone, Copy)]
pub struct PaperWorkload {
    /// Which paper size this stands in for.
    pub paper_w: u64,
    /// Start position.
    pub tiles: [u8; 16],
    /// IDA\* iteration bound.
    pub bound: u32,
    /// Measured serial node count of the iteration.
    pub w: u64,
}

impl PaperWorkload {
    /// The puzzle problem for this workload.
    pub fn puzzle(&self) -> Puzzle15 {
        Puzzle15::new(Board::from_tiles(&self.tiles))
    }

    /// This workload at full scale, or under `--quick` the IDA\* iteration
    /// four bounds below it (its W unmeasured, so `w = 0`).
    pub fn scaled(mut self, quick: bool) -> Self {
        if quick {
            self.bound -= 4;
            self.w = 0;
        }
        self
    }
}

/// The four table workloads (paper W ≈ 0.94M, 3.06M, 6.07M, 16.1M), within
/// ±1.6% of the paper's sizes.
pub fn table_workloads() -> [PaperWorkload; 4] {
    [
        PaperWorkload {
            paper_w: 941_852,
            tiles: [2, 13, 6, 7, 0, 5, 11, 3, 4, 1, 14, 10, 15, 8, 12, 9],
            bound: 41,
            w: 956_840,
        },
        PaperWorkload {
            paper_w: 3_055_171,
            tiles: [3, 6, 2, 11, 1, 9, 4, 14, 5, 7, 0, 8, 12, 15, 13, 10],
            bound: 42,
            w: 3_041_665,
        },
        PaperWorkload {
            paper_w: 6_073_623,
            // Korf instance #7.
            tiles: [2, 11, 15, 5, 13, 4, 6, 7, 12, 8, 10, 1, 9, 3, 14, 0],
            bound: 48,
            w: 5_986_735,
        },
        PaperWorkload {
            paper_w: 16_110_463,
            tiles: [13, 5, 8, 2, 4, 1, 11, 0, 12, 15, 10, 3, 9, 14, 6, 7],
            bound: 44,
            w: 16_033_284,
        },
    ]
}

/// Table 5's workload (paper W ≈ 2 067 137; ours 2 073 001, +0.3%).
pub fn table5_workload() -> PaperWorkload {
    PaperWorkload {
        paper_w: 2_067_137,
        tiles: [8, 4, 2, 6, 11, 3, 12, 7, 13, 1, 0, 10, 5, 9, 14, 15],
        bound: 40,
        w: 2_073_001,
    }
}

/// Quick-mode stand-ins: four much smaller iterations for smoke runs
/// (deterministic scrambles; `w` measured).
pub fn quick_workloads() -> [PaperWorkload; 4] {
    // Derived from the same calibration pool with targets /32.
    let mut out = table_workloads();
    for wl in &mut out {
        wl.bound -= 4; // two iterations shallower: roughly /30 in size
        wl.w = 0; // unknown until measured; quick mode reports measured W
    }
    out
}

/// Run one workload under `scheme` on `p` simulated processors.
pub fn run_workload(
    wl: &PaperWorkload,
    scheme: Scheme,
    p: usize,
    cost: CostModel,
    trace: bool,
) -> Outcome {
    let puzzle = wl.puzzle();
    let bp = BoundedProblem::new(&puzzle, wl.bound);
    let mut cfg = EngineConfig::new(p, scheme, cost);
    cfg.record_trace = trace;
    run(&bp, &cfg)
}

/// Like [`run_workload`] but with the load-balance ledger recorded;
/// returns the config too so callers can render the JSON run-report.
pub fn run_workload_ledger(
    wl: &PaperWorkload,
    scheme: Scheme,
    p: usize,
    cost: CostModel,
) -> (EngineConfig, Outcome) {
    let puzzle = wl.puzzle();
    let bp = BoundedProblem::new(&puzzle, wl.bound);
    let cfg = EngineConfig::new(p, scheme, cost).with_ledger();
    let out = run(&bp, &cfg);
    (cfg, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uts_puzzle15::calibrate::bounded_count_capped;

    #[test]
    fn workloads_are_solvable_permutations() {
        for wl in table_workloads().iter().chain([table5_workload()].iter()) {
            let b = Board::from_tiles(&wl.tiles);
            assert!(b.is_solvable());
        }
    }

    #[test]
    fn quick_workloads_have_shallower_bounds() {
        let full = table_workloads();
        let quick = quick_workloads();
        for (f, q) in full.iter().zip(&quick) {
            assert_eq!(q.bound + 4, f.bound);
        }
    }

    /// Verify the hard-coded W of the smallest workload by recounting.
    /// (The larger ones are verified by `repro recalibrate`; recounting
    /// 16M nodes in a debug-mode test is too slow.)
    #[test]
    #[ignore = "recounts ~1M nodes; run with --ignored (or --release)"]
    fn smallest_workload_w_is_exact() {
        let wl = table_workloads()[0];
        let (w, _) = bounded_count_capped(&wl.puzzle(), wl.bound, wl.w * 2).unwrap();
        assert_eq!(w, wl.w);
    }

    #[test]
    fn run_workload_smoke_on_tiny_bound() {
        // Bound h0 gives a tiny first iteration — enough to exercise the
        // plumbing in a unit test.
        let mut wl = table_workloads()[0];
        wl.bound = 33; // first iterations are small
        let out = run_workload(&wl, Scheme::gp_static(0.8), 64, CostModel::cm2(), false);
        assert!(out.report.nodes_expanded > 0);
    }
}
