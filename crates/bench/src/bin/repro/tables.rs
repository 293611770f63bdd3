//! The paper's tables: `repro tables [table1..table6|ledger|all]`.
//!
//! Each table prints the measured values in the paper's layout, followed by
//! a paper-vs-measured efficiency comparison where the paper reports one.
//! `ledger` is extra-paper: the Sec. 2.2 donation-burden claim measured
//! directly — GP vs nGP donation spread on a Table-2 workload, followed by
//! the full JSON run-report (`uts_core::run_report_json`) of the GP run.

use uts_analysis::table::{fmt_e, TextTable};
use uts_analysis::{isoeff_table, optimal_static_trigger, TriggerParams};
use uts_bench::runner::{machine_p, measure, Cell, TABLE2_XS};
use uts_bench::sweep;
use uts_bench::workloads::{
    quick_workloads, run_workload, run_workload_ledger, table5_workload, table_workloads,
    PaperWorkload,
};
use uts_core::Scheme;
use uts_machine::CostModel;

use crate::{calibration, Part};

pub const PARTS: &[Part] = &[
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("table6", table6),
    ("ledger", ledger_report),
];

/// The four Table 2–4 workloads, or their quick-mode stand-ins.
fn workloads(quick: bool) -> [PaperWorkload; 4] {
    if quick {
        quick_workloads()
    } else {
        table_workloads()
    }
}

/// Table 1: the scheme taxonomy.
fn table1(_quick: bool) {
    println!("== Table 1: the studied load-balancing schemes ==\n");
    let mut t = TextTable::new(vec!["Name", "Matching", "Trigger", "Transfers/phase"]);
    for (name, s) in Scheme::table1(0.0) {
        let trig = match s.trigger {
            uts_core::Trigger::Static { .. } => "static S^x",
            uts_core::Trigger::Dp => "dynamic D^P",
            uts_core::Trigger::Dk => "dynamic D^K",
            uts_core::Trigger::AnyIdle => "any idle",
        };
        let tr = match s.transfers {
            uts_core::TransferMode::Single => "single",
            uts_core::TransferMode::Multiple => "multiple",
            uts_core::TransferMode::Equalize => "equalize",
        };
        let m = match s.matching {
            uts_core::Matching::Ngp => "nGP",
            uts_core::Matching::Gp => "GP",
            uts_core::Matching::Ring => "ring",
        };
        t.row(vec![name, m, trig, tr]);
    }
    println!("{t}");
}

/// Paper Table 2 efficiencies, rows = W, cols = (x, nGP/GP).
const PAPER_TABLE2_E: [[(f64, f64); 5]; 4] = [
    [(0.52, 0.52), (0.53, 0.58), (0.53, 0.60), (0.55, 0.61), (0.52, 0.59)],
    [(0.59, 0.59), (0.63, 0.66), (0.67, 0.72), (0.65, 0.77), (0.64, 0.78)],
    [(0.63, 0.63), (0.69, 0.70), (0.71, 0.76), (0.70, 0.82), (0.67, 0.85)],
    [(0.66, 0.66), (0.72, 0.73), (0.75, 0.80), (0.74, 0.86), (0.71, 0.91)],
];
const PAPER_TABLE2_XO: [f64; 4] = [0.82, 0.89, 0.92, 0.95];

/// Table 2: static triggering, nGP vs GP across x and W.
fn table2(quick: bool) {
    let (workloads, p) = (workloads(quick), machine_p(quick));
    println!(
        "== Table 2: static triggering on {p} simulated CM-2 processors ==\n\
         (each W block: Nexpand / Nlb / E for nGP and GP at each x; last col = analytic x_o)\n"
    );
    let cost = CostModel::cm2();
    let mut header = vec!["W".to_string(), "metric".to_string()];
    for x in TABLE2_XS {
        header.push(format!("nGP {x:.2}"));
        header.push(format!("GP {x:.2}"));
    }
    header.push("x_o".to_string());
    let mut t = TextTable::new(header);
    let mut comparison: Vec<(u64, f64, String, f64, f64)> = Vec::new();

    for (wi, wl) in workloads.iter().enumerate() {
        let mut cells: Vec<(Cell, Cell)> = Vec::new();
        for &x in &TABLE2_XS {
            let ngp = measure(wl, Scheme::ngp_static(x), p, cost);
            let gp = measure(wl, Scheme::gp_static(x), p, cost);
            cells.push((ngp, gp));
        }
        let w_meas = known_w(wl);
        let xo = optimal_static_trigger(&TriggerParams::new(w_meas, p, cost.lb_ratio(p)));
        let mut row1 = vec![w_meas.to_string(), "Nexpand".to_string()];
        let mut row2 = vec![String::new(), "Nlb".to_string()];
        let mut row3 = vec![String::new(), "E".to_string()];
        for (ngp, gp) in &cells {
            row1.push(ngp.n_expand.to_string());
            row1.push(gp.n_expand.to_string());
            row2.push(ngp.n_lb.to_string());
            row2.push(gp.n_lb.to_string());
            row3.push(fmt_e(ngp.e));
            row3.push(fmt_e(gp.e));
        }
        row1.push(format!("{xo:.2}"));
        row2.push(String::new());
        row3.push(String::new());
        t.row(row1).row(row2).row(row3);

        if wl.w > 0 && wi < PAPER_TABLE2_E.len() {
            for (xi, &x) in TABLE2_XS.iter().enumerate() {
                let (pn, pg) = PAPER_TABLE2_E[wi][xi];
                comparison.push((wl.paper_w, x, "nGP".into(), pn, cells[xi].0.e));
                comparison.push((wl.paper_w, x, "GP".into(), pg, cells[xi].1.e));
            }
            comparison.push((wl.paper_w, -1.0, "x_o".into(), PAPER_TABLE2_XO[wi], xo));
        }
    }
    println!("{t}");
    print_comparison("Table 2", &comparison);
}

/// Table 3: efficiencies at x around the analytic optimum.
fn table3(quick: bool) {
    let (workloads, p) = (workloads(quick), machine_p(quick));
    println!("== Table 3: GP-S^x efficiency around the analytic optimal trigger ==\n");
    let cost = CostModel::cm2();
    let offsets = [-0.03, -0.02, -0.01, 0.0, 0.01, 0.02, 0.03];
    let mut header = vec!["W".to_string()];
    header.extend(offsets.iter().map(|o| format!("x_o{o:+.2}")));
    header.push("argmax".to_string());
    let mut t = TextTable::new(header);
    for wl in &workloads {
        let w_est = known_w(wl);
        let xo = optimal_static_trigger(&TriggerParams::new(w_est, p, cost.lb_ratio(p)));
        let mut row = vec![w_est.to_string()];
        let mut best = (0.0f64, 0.0f64);
        for o in offsets {
            let x = (xo + o).clamp(0.05, 0.99);
            let cell = measure(wl, Scheme::gp_static(x), p, cost);
            if cell.e > best.1 {
                best = (x, cell.e);
            }
            row.push(format!("{} ({x:.2})", fmt_e(cell.e)));
        }
        row.push(format!("{:.2}", best.0));
        t.row(row);
        println!(
            "  W={w_est}: analytic x_o = {xo:.3}; empirical argmax within grid = {:.2} (E = {})",
            best.0,
            fmt_e(best.1)
        );
    }
    println!("\n{t}");
}

/// Paper Table 4 efficiencies: rows = W, cols = (DP-nGP, DP-GP, DK-nGP, DK-GP).
const PAPER_TABLE4_E: [[f64; 4]; 4] = [
    [0.51, 0.58, 0.53, 0.58],
    [0.64, 0.76, 0.66, 0.77],
    [0.68, 0.83, 0.72, 0.84],
    [0.75, 0.92, 0.76, 0.92],
];

/// Table 4: dynamic triggering.
fn table4(quick: bool) {
    let (workloads, p) = (workloads(quick), machine_p(quick));
    println!(
        "== Table 4: dynamic triggering on {p} simulated CM-2 processors ==\n\
         (Nexpand / *Nlb (work transfers) / E)\n"
    );
    let cost = CostModel::cm2();
    let schemes = [
        ("DP-nGP", Scheme::ngp_dp()),
        ("DP-GP", Scheme::gp_dp()),
        ("DK-nGP", Scheme::ngp_dk()),
        ("DK-GP", Scheme::gp_dk()),
    ];
    let mut header = vec!["W".to_string(), "metric".to_string()];
    header.extend(schemes.iter().map(|(n, _)| n.to_string()));
    let mut t = TextTable::new(header);
    let mut comparison = Vec::new();
    for (wi, wl) in workloads.iter().enumerate() {
        let cells: Vec<Cell> = schemes.iter().map(|(_, s)| measure(wl, *s, p, cost)).collect();
        let w_meas = known_w(wl);
        t.row(
            std::iter::once(w_meas.to_string())
                .chain(std::iter::once("Nexpand".to_string()))
                .chain(cells.iter().map(|c| c.n_expand.to_string()))
                .collect::<Vec<_>>(),
        );
        t.row(
            std::iter::once(String::new())
                .chain(std::iter::once("*Nlb".to_string()))
                .chain(cells.iter().map(|c| c.n_transfers.to_string()))
                .collect::<Vec<_>>(),
        );
        t.row(
            std::iter::once(String::new())
                .chain(std::iter::once("E".to_string()))
                .chain(cells.iter().map(|c| fmt_e(c.e)))
                .collect::<Vec<_>>(),
        );
        if wl.w > 0 && wi < PAPER_TABLE4_E.len() {
            for (si, (name, _)) in schemes.iter().enumerate() {
                comparison.push((
                    wl.paper_w,
                    -1.0,
                    name.to_string(),
                    PAPER_TABLE4_E[wi][si],
                    cells[si].e,
                ));
            }
        }
    }
    println!("{t}");
    print_comparison("Table 4", &comparison);
}

/// Paper Table 5: (Nexpand, Nlb, E) for DP / DK / S^xo at 1×, 12×, 16×.
const PAPER_TABLE5_E: [[f64; 3]; 3] = [[0.69, 0.71, 0.72], [0.26, 0.32, 0.34], [0.20, 0.28, 0.31]];

/// Table 5: raising the balancing cost (GP matching, W ≈ 2.07M).
fn table5(quick: bool) {
    println!("== Table 5: GP matching under higher load-balancing costs (W ≈ 2.07M) ==\n");
    let p = machine_p(quick);
    let wl = table5_workload().scaled(quick);
    let cost0 = CostModel::cm2();
    let w_est = known_w(&wl);
    let mut t = TextTable::new(vec![
        "cost".to_string(),
        "metric".to_string(),
        "D^P".to_string(),
        "D^K".to_string(),
        "S^xo".to_string(),
    ]);
    let mut comparison = Vec::new();
    for (mi, &mult) in [1u32, 12, 16].iter().enumerate() {
        let cost = cost0.with_lb_multiplier(mult);
        let xo = optimal_static_trigger(&TriggerParams::new(w_est, p, cost.lb_ratio(p)));
        let cells = [
            measure(&wl, Scheme::gp_dp(), p, cost),
            measure(&wl, Scheme::gp_dk(), p, cost),
            measure(&wl, Scheme::gp_static(xo), p, cost),
        ];
        let label = if mult == 1 { "1x (actual)".to_string() } else { format!("{mult}x") };
        t.row(vec![
            label,
            "Nexpand".to_string(),
            cells[0].n_expand.to_string(),
            cells[1].n_expand.to_string(),
            cells[2].n_expand.to_string(),
        ]);
        t.row(vec![
            String::new(),
            "Nlb".to_string(),
            cells[0].n_lb.to_string(),
            cells[1].n_lb.to_string(),
            cells[2].n_lb.to_string(),
        ]);
        t.row(vec![
            String::new(),
            "E".to_string(),
            fmt_e(cells[0].e),
            fmt_e(cells[1].e),
            fmt_e(cells[2].e),
        ]);
        if !quick {
            for (si, name) in ["D^P", "D^K", "S^xo"].iter().enumerate() {
                comparison.push((
                    wl.paper_w,
                    mult as f64,
                    name.to_string(),
                    PAPER_TABLE5_E[mi][si],
                    cells[si].e,
                ));
            }
        }
    }
    println!("{t}");
    print_comparison("Table 5", &comparison);
}

/// Table 6: isoefficiency formulas, with measured exponents from a sweep.
fn table6(quick: bool) {
    println!("== Table 6: isoefficiency functions (analytic), with measured CM-2 fits ==\n");
    let mut t = TextTable::new(vec!["Scheme", "Architecture", "Isoefficiency"]);
    for row in isoeff_table() {
        t.row(vec![row.scheme, row.architecture, row.formula]);
    }
    println!("{t}");

    // Measured check on the CM-2 rows: exponent of W against P log2 P along
    // an equal-E contour should be ≈ 1 for GP and larger for nGP at x=0.9.
    let cal = calibration(quick);
    let levels = [0.45, 0.55, 0.65];
    for (name, scheme) in
        [("GP-S^0.90", Scheme::gp_static(0.9)), ("nGP-S^0.90", Scheme::ngp_static(0.9))]
    {
        let samples = sweep::sweep_scheme(scheme, &cal.grid, &cal.trees, CostModel::cm2());
        let curves = sweep::iso_curves(&samples, &levels);
        for c in curves {
            if let Some(b) = c.exponent {
                println!(
                    "  {name}: E={:.2} contour over {} P-values: W ~ (P log P)^{b:.2}",
                    c.e,
                    c.points.len()
                );
            }
        }
    }
}

/// Extra-paper ledger report: the Sec. 2.2 donation-burden claim measured
/// directly. GP's rotating global pointer should leave every donor with
/// `n` or `n+1` donations (max/mean ≤ 2) where nGP's fixed enumeration
/// piles the burden onto low-index PEs; the full JSON run-report of the
/// GP run (per-phase trigger provenance included) follows the table.
fn ledger_report(quick: bool) {
    let (workloads, p) = (workloads(quick), machine_p(quick));
    println!("== Ledger: donation spread, GP vs nGP (S^0.90, P={p}) ==\n");
    let wl = &workloads[0];
    let cost = CostModel::cm2();
    let mut t = TextTable::new(vec![
        "scheme".to_string(),
        "transfers".to_string(),
        "donors".to_string(),
        "max".to_string(),
        "max/mean".to_string(),
        "gini".to_string(),
    ]);
    let mut gp_report = None;
    for (label, scheme) in
        [("nGP-S^0.90", Scheme::ngp_static(0.9)), ("GP-S^0.90", Scheme::gp_static(0.9))]
    {
        let (cfg, out) = run_workload_ledger(wl, scheme, p, cost);
        let ledger = out.ledger.as_ref().expect("ledger was requested");
        let s = ledger.donation_spread();
        t.row(vec![
            label.to_string(),
            s.total.to_string(),
            s.donors.to_string(),
            s.max.to_string(),
            format!("{:.2}", s.max_over_mean),
            format!("{:.3}", s.gini),
        ]);
        if scheme.matching == uts_core::Matching::Gp {
            gp_report = Some(uts_core::run_report_json(&cfg, &out));
        }
    }
    println!("{t}");
    println!("-- GP-S^0.90 run-report (JSON) --");
    print!("{}", gp_report.expect("GP run executed"));
}

/// Shared: print paper-vs-measured efficiency comparison rows.
fn print_comparison(label: &str, rows: &[(u64, f64, String, f64, f64)]) {
    if rows.is_empty() {
        return;
    }
    println!("-- {label}: paper vs measured efficiency --");
    let mut t = TextTable::new(vec!["W(paper)", "x", "scheme", "E(paper)", "E(ours)", "dE"]);
    for (w, x, scheme, pe, me) in rows {
        let xs = if *x < 0.0 { "-".to_string() } else { format!("{x:.2}") };
        t.row(vec![
            w.to_string(),
            xs,
            scheme.clone(),
            fmt_e(*pe),
            fmt_e(*me),
            format!("{:+.2}", me - pe),
        ]);
    }
    println!("{t}");
}

/// The workload's W: the calibrated count, or for a quick-mode workload
/// one run on a small machine to learn it.
fn known_w(wl: &PaperWorkload) -> u64 {
    if wl.w > 0 {
        wl.w
    } else {
        run_workload(wl, Scheme::gp_static(0.8), 64, CostModel::cm2(), false).report.nodes_expanded
    }
}
