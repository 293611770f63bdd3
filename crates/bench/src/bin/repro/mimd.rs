//! SIMD vs MIMD scalability comparison (the paper's Sec. 9 claim: the SIMD
//! schemes scale no worse than the best MIMD work-stealing schemes):
//! `repro mimd [compare|iso|all]`.
//!
//! * `compare` — efficiency side by side on the same trees and machine
//!   sizes;
//! * `iso` — isoefficiency exponents (W against P log2 P along equal-E
//!   contours) for both machine models.

use uts_analysis::table::{fmt_e, TextTable};
use uts_analysis::Sample;
use uts_bench::sweep;
use uts_core::{run, EngineConfig, Scheme};
use uts_machine::CostModel;
use uts_mimd::{run_mimd, MimdConfig, StealPolicy};

use crate::{calibration, Part};

pub const PARTS: &[Part] = &[("compare", compare), ("iso", iso)];

/// The MIMD policies compared (paper Sec. 9's "best MIMD schemes").
const POLICIES: [StealPolicy; 3] =
    [StealPolicy::GlobalRoundRobin, StealPolicy::AsyncRoundRobin, StealPolicy::RandomPolling];

fn compare(quick: bool) {
    println!("== SIMD (GP-D^K, GP-S^0.9) vs MIMD work stealing, same trees ==\n");
    let crate::Calibration { grid, trees } = calibration(quick);
    let cost = CostModel::cm2();
    let mut t = TextTable::new(vec![
        "P".to_string(),
        "W".to_string(),
        "GP-D^K".to_string(),
        "GP-S^0.9".to_string(),
        "MIMD GRR".to_string(),
        "MIMD ARR".to_string(),
        "MIMD RP".to_string(),
    ]);
    for &p in &grid.ps {
        for st in trees {
            let dk = run(&st.tree, &EngineConfig::new(p, Scheme::gp_dk(), cost));
            let s9 = run(&st.tree, &EngineConfig::new(p, Scheme::gp_static(0.9), cost));
            let mut row = vec![
                p.to_string(),
                st.w.to_string(),
                fmt_e(dk.report.efficiency),
                fmt_e(s9.report.efficiency),
            ];
            for policy in POLICIES {
                let m = run_mimd(&st.tree, &MimdConfig::new(p, policy, cost));
                row.push(fmt_e(m.efficiency));
            }
            t.row(row);
        }
    }
    println!("{t}");
    println!(
        "(MIMD efficiencies are higher at equal (W, P) — no lockstep idling —\n\
         but the *scalability shape* is what the paper compares; see `iso`.)"
    );
}

fn iso(quick: bool) {
    println!("== Isoefficiency exponents: SIMD vs MIMD ==\n");
    let crate::Calibration { grid, trees } = calibration(quick);
    let cost = CostModel::cm2();
    let levels = if quick { vec![0.45, 0.60] } else { vec![0.55, 0.65, 0.75] };

    // SIMD series.
    for (name, scheme) in
        [("SIMD GP-D^K", Scheme::gp_dk()), ("SIMD GP-S^0.9", Scheme::gp_static(0.9))]
    {
        let samples = sweep::sweep_scheme(scheme, grid, trees, cost);
        print_curves(name, &sweep::iso_curves(&samples, &levels));
    }
    // MIMD series.
    for policy in POLICIES {
        let mut samples = Vec::new();
        for &p in &grid.ps {
            for st in trees {
                let m = run_mimd(&st.tree, &MimdConfig::new(p, policy, cost));
                samples.push(Sample { p, w: st.w, e: m.efficiency });
            }
        }
        print_curves(&format!("MIMD {}", policy.name()), &sweep::iso_curves(&samples, &levels));
    }
    println!(
        "(The paper's claim holds when the SIMD exponents are comparable to the\n\
         MIMD ones — all near 1.0, i.e. W ~ P log P up to polylog factors.)"
    );
}

fn print_curves(name: &str, curves: &[sweep::IsoCurve]) {
    for c in curves {
        match c.exponent {
            Some(b) if c.points.len() >= 3 => println!(
                "  {name}: E={:.2} contour ({} pts): W ~ (P log P)^{b:.2}",
                c.e,
                c.points.len()
            ),
            _ => {}
        }
    }
}
