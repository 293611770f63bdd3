//! Regenerate the hard-coded paper workload calibration
//! (`uts_bench::workloads`): `repro recalibrate`.
use std::time::Instant;
use uts_puzzle15::calibrate::{calibration_pool, find_workload, PAPER_TARGETS};

pub fn run(_quick: bool) {
    let pool = calibration_pool(24);
    for target in PAPER_TARGETS {
        let t0 = Instant::now();
        let wl = find_workload(&pool, target, (target as f64 * 1.7) as u64).unwrap();
        let kind = if wl.instance.id == u32::MAX { "scramble" } else { "korf" };
        println!(
            "target={target} -> {kind} id={} tiles={:?} bound={} W={} err={:+.1}% ({:?})",
            wl.instance.id,
            wl.instance.tiles,
            wl.bound,
            wl.w,
            (wl.w as f64 / target as f64 - 1.0) * 100.0,
            t0.elapsed()
        );
    }
}
