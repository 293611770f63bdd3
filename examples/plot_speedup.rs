//! Render a speedup chart with the built-in SVG plotting crate: GP-D^K vs
//! nGP-S^0.9 vs ring nearest-neighbor across machine sizes, on one
//! 15-puzzle workload. Writes `results/speedup.svg`.
//!
//! ```text
//! cargo run --release --example plot_speedup
//! ```

use simd_tree_search::prelude::*;
use simd_tree_search::viz::{Chart, Scale, Series};

fn main() {
    let instance = puzzle15::scrambled(23, 70);
    let puzzle = puzzle15::Puzzle15::new(instance.board());
    let ida = tree::ida::ida_star(&puzzle, 80);
    let bound = ida.solution_cost.expect("solvable");
    let w = ida.final_iteration().expanded;
    println!("workload W = {w} (bound {bound})");

    let ps = [64usize, 128, 256, 512, 1024, 2048, 4096];
    let mut chart = Chart::new(
        format!("Speedup on a simulated CM-2 (15-puzzle, W = {w})"),
        "processors P",
        "speedup",
    );
    chart.x_scale(Scale::Log2).y_scale(Scale::Log2);

    let bounded = tree::problem::BoundedProblem::new(&puzzle, bound);
    for (name, scheme) in [
        ("GP-D^K", Scheme::gp_dk()),
        ("nGP-S^0.90", Scheme::ngp_static(0.9)),
        ("ring-NN", Scheme::ring_nn()),
    ] {
        let pts: Vec<(f64, f64)> = ps
            .iter()
            .map(|&p| {
                let out = run(&bounded, &EngineConfig::new(p, scheme, CostModel::cm2()));
                println!("{name:>11} P={p:5}: speedup {:.1}", out.report.speedup());
                (p as f64, out.report.speedup())
            })
            .collect();
        chart.add(Series::line(name, pts));
    }
    // The ideal line for reference.
    chart.add(Series::line("ideal", ps.iter().map(|&p| (p as f64, p as f64)).collect()));

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/speedup.svg", chart.render()).expect("write svg");
    println!("wrote results/speedup.svg");
}
