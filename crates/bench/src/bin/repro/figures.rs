//! The paper's data figures: `repro figures [fig3|fig4|fig7|fig8|all]`.
//!
//! Output is CSV-ish series data (one block per curve) plus the summary
//! statistics that make the figures' qualitative claims checkable without
//! plotting; each figure is also written under `results/` as SVG (and its
//! raw series as CSV). Figs. 1, 2, 5, 6 are illustrative diagrams with no
//! measured data; Fig. 2's matching example lives in `uts-core` unit tests.

use uts_analysis::table::TextTable;
use uts_bench::runner::machine_p;
use uts_bench::svg::{Chart, Scale, Series};
use uts_bench::sweep;
use uts_bench::workloads::{run_workload, table5_workload, table_workloads};
use uts_core::Scheme;
use uts_machine::CostModel;

use crate::{calibration, Part};

pub const PARTS: &[Part] = &[("fig3", fig3), ("fig4", fig4), ("fig7", fig7), ("fig8", fig8)];

/// Fig. 3: difference in the number of balancing phases (nGP − GP) vs the
/// static threshold x, one series per workload.
fn fig3(quick: bool) {
    println!("== Fig. 3: N_lb(nGP) - N_lb(GP) vs static threshold x ==\n");
    let p = machine_p(quick);
    let xs = [0.50, 0.60, 0.70, 0.80, 0.90, 0.95];
    let cost = CostModel::cm2();
    let mut header = vec!["W".to_string()];
    header.extend(xs.iter().map(|x| format!("x={x:.2}")));
    let mut t = TextTable::new(header);
    let mut peak_positions = Vec::new();
    let mut all_series: Vec<Vec<(f64, f64)>> = Vec::new();
    let wls = table_workloads().map(|wl| wl.scaled(quick));
    for wl in &wls {
        let mut row = vec![if wl.w > 0 { wl.w.to_string() } else { "quick".into() }];
        let mut diffs = Vec::new();
        for &x in &xs {
            let ngp = run_workload(wl, Scheme::ngp_static(x), p, cost, false);
            let gp = run_workload(wl, Scheme::gp_static(x), p, cost, false);
            let d = ngp.report.n_lb as i64 - gp.report.n_lb as i64;
            diffs.push(d);
            row.push(d.to_string());
        }
        all_series.push(xs.iter().zip(&diffs).map(|(&x, &d)| (x, d as f64)).collect());
        t.row(row);
        // The paper's Fig. 3 shape: the gap grows with x until nGP's N_lb
        // saturates at the node-expansion-cycle count, then falls; the peak
        // shifts right for larger W ("this saturation effect occurs for
        // higher values of x for larger problems", Sec. 4.2).
        let peak = diffs.iter().enumerate().max_by_key(|(_, &d)| d).map(|(i, _)| xs[i]).unwrap();
        peak_positions.push(peak);
        let rises_to_peak = diffs
            .windows(2)
            .zip(xs.windows(2))
            .take_while(|(_, x)| x[1] <= peak)
            .all(|(d, _)| d[1] >= d[0]);
        println!("  gap rises to a peak at x={peak:.2}: {} (diffs {diffs:?})", yn(rises_to_peak));
    }
    let peaks_shift_right = peak_positions.windows(2).all(|w| w[1] >= w[0]);
    println!(
        "  saturation peak moves right with W: {} (peaks {peak_positions:?})",
        yn(peaks_shift_right)
    );
    println!("\n{t}");
    // Render the figure itself.
    let mut chart = Chart::new(
        "Fig. 3: N_lb(nGP) - N_lb(GP) vs static threshold x",
        "static threshold x",
        "difference in balancing phases",
    );
    for (series, wl) in all_series.into_iter().zip(&wls) {
        let label = if wl.w > 0 { format!("W = {}", wl.w) } else { "quick".to_string() };
        chart.add(Series::line(label, series));
    }
    write_svg("results/fig3.svg", &chart);
}

/// A named scheme constructor (deferring construction keeps the arrays
/// `const`).
type SchemeEntry = (&'static str, fn() -> Scheme);

const FIG4_SCHEMES: [SchemeEntry; 4] = [
    ("GP-S^0.90", || Scheme::gp_static(0.9)),
    ("nGP-S^0.90", || Scheme::ngp_static(0.9)),
    ("nGP-S^0.80", || Scheme::ngp_static(0.8)),
    ("nGP-S^0.70", || Scheme::ngp_static(0.7)),
];

const FIG7_SCHEMES: [SchemeEntry; 4] = [
    ("GP-D^K", Scheme::gp_dk),
    ("GP-D^P", Scheme::gp_dp),
    ("nGP-D^K", Scheme::ngp_dk),
    ("nGP-D^P", Scheme::ngp_dp),
];

/// Figs. 4 & 7 share the same machinery: sweep (P, W), extract
/// equal-efficiency contours, print W against P log2 P plus a power-law
/// exponent (1.0 = the O(P log P) shape of Fig. 4a).
fn iso_figure(title: &str, schemes: &[SchemeEntry], quick: bool) {
    println!("== {title} ==\n");
    let mut chart = Chart::new(title, "P log2 P", "W (equal-efficiency contours)");
    chart.x_scale(Scale::Log10).y_scale(Scale::Log10);
    let crate::Calibration { grid, trees } = calibration(quick);
    println!(
        "grid: P = {:?}, tree sizes = {:?}\n",
        grid.ps,
        trees.iter().map(|t| t.w).collect::<Vec<_>>()
    );
    let levels = if quick { vec![0.45, 0.60] } else { vec![0.45, 0.55, 0.65, 0.75] };
    std::fs::create_dir_all("results").ok();
    for (name, mk) in schemes {
        let samples = sweep::sweep_scheme(mk(), grid, trees, CostModel::cm2());
        println!("series {name}: (P, W, E) samples");
        for s in &samples {
            println!("  {},{},{:.4}", s.p, s.w, s.e);
        }
        let safe = name.replace(['^', '.'], "");
        let path = format!("results/iso_{safe}.csv");
        if std::fs::write(&path, uts_analysis::csv::samples_csv(&samples)).is_ok() {
            println!("  [samples written to {path}]");
        }
        for c in sweep::iso_curves(&samples, &levels) {
            if c.points.len() < 2 {
                continue;
            }
            let pts: Vec<String> = c
                .points
                .iter()
                .map(|pt| format!("(P={}, PlogP={:.0}, W={:.0})", pt.p, plogp(pt.p), pt.w))
                .collect();
            println!(
                "  contour E={:.2}: {} | W ~ (P log P)^{:.2}",
                c.e,
                pts.join(" "),
                c.exponent.unwrap()
            );
            chart.add(Series::line(
                format!("{name} E={:.2}", c.e),
                c.points.iter().map(|pt| (plogp(pt.p), pt.w)).collect(),
            ));
        }
        println!();
    }
    if chart.series_count() > 0 {
        let stem =
            title.split(':').next().unwrap_or("iso").trim().to_lowercase().replace([' ', '.'], "");
        write_svg(&format!("results/{stem}.svg"), &chart);
    }
}

/// Write a chart to disk, reporting the path (errors are non-fatal: the
/// textual output above is the primary artifact).
fn write_svg(path: &str, chart: &Chart) {
    std::fs::create_dir_all("results").ok();
    match std::fs::write(path, chart.render()) {
        Ok(()) => println!("  [figure written to {path}]"),
        Err(e) => eprintln!("  [could not write {path}: {e}]"),
    }
}

fn plogp(p: usize) -> f64 {
    p as f64 * (p as f64).log2()
}

fn yn(ok: bool) -> &'static str {
    if ok {
        "yes"
    } else {
        "NO"
    }
}

fn fig4(quick: bool) {
    iso_figure(
        "Fig. 4: experimental isoefficiency curves, static triggering",
        &FIG4_SCHEMES,
        quick,
    );
}

fn fig7(quick: bool) {
    iso_figure(
        "Fig. 7: experimental isoefficiency curves, dynamic triggering",
        &FIG7_SCHEMES,
        quick,
    );
}

/// Fig. 8: active processors per expansion cycle for GP-D^P vs GP-D^K at
/// the actual and 16× balancing cost.
fn fig8(quick: bool) {
    println!("== Fig. 8: A(t) traces, GP-D^P vs GP-D^K, 1x and 16x t_lb ==\n");
    let p = machine_p(quick);
    let wl = table5_workload().scaled(quick);
    for (mult, label) in [(1u32, "actual cost"), (16, "16x cost")] {
        let mut chart = Chart::new(
            format!("Fig. 8: active processors per cycle ({label})"),
            "node expansion cycle",
            "active processors",
        );
        for (name, scheme) in [("GP-D^P", Scheme::gp_dp()), ("GP-D^K", Scheme::gp_dk())] {
            let cost = CostModel::cm2().with_lb_multiplier(mult);
            let out = run_workload(&wl, scheme, p, cost, true);
            // The trace is run-length encoded (long stretches of constant
            // A); summary stats come from the runs, the CSV from the
            // per-cycle expansion.
            let trace = &out.report.active_trace;
            let cycles = trace.len();
            let stride = (cycles / 60).max(1) as usize;
            let series: Vec<String> = trace.iter().step_by(stride).map(|a| a.to_string()).collect();
            let mean = trace.runs().map(|(_, n, a)| n as f64 * a as f64).sum::<f64>()
                / cycles.max(1) as f64;
            let min = trace.runs().map(|(_, _, a)| a).min().unwrap_or(0);
            println!(
                "{name} ({label}): cycles={cycles} Nlb={} transfers={} E={:.2} mean A={:.0} min A={min}",
                out.report.n_lb,
                out.report.n_transfers,
                out.report.efficiency,
                mean
            );
            println!("  A(t) every {stride} cycles: {}", series.join(","));
            std::fs::create_dir_all("results").ok();
            let safe = format!("results/fig8_{}_{}x.csv", name.replace('^', ""), mult);
            if std::fs::write(&safe, uts_analysis::csv::trace_csv(trace.iter())).is_ok() {
                println!("  [full trace written to {safe}]");
            }
            // One point per run endpoint draws the exact same staircase as
            // the per-cycle point cloud at a fraction of the SVG size.
            let mut pts: Vec<(f64, f64)> = Vec::new();
            for (start, n, a) in trace.runs() {
                pts.push((start as f64, a as f64));
                pts.push(((start + n - 1) as f64, a as f64));
            }
            chart.add(Series::line(name, pts));
        }
        write_svg(&format!("results/fig8_{mult}x.svg"), &chart);
        println!();
    }
    println!(
        "(Paper's claim: at 16x cost the D^P trace sags to far lower A between\n\
         balances than D^K's, and D^P performs more work transfers.)"
    );
}
