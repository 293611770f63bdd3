//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! ```text
//! cargo run --release -p uts-bench --bin ablation -- [split|topology|init|transfers|related|all] [--quick]
//! ```
//!
//! * `split` — split-policy quality (bottom vs half vs top): the paper's
//!   alpha-splitting assumption in practice (Sec. 3 and Sec. 8's remark
//!   that nearest-neighbor-style schemes are "sensitive to the quality of
//!   the alpha-splitting mechanism").
//! * `topology` — the same scheme under CM-2 / hypercube / mesh balancing
//!   costs (the t_lb column of Table 6).
//! * `init` — the Sec. 7 initial-distribution threshold for dynamic
//!   triggers.
//! * `transfers` — single vs multiple transfer rounds for each trigger
//!   (why D^P needs multiple, Sec. 2.3/6.1).
//! * `related` — the Sec. 8 schemes FESS, FEGS and ring nearest-neighbour
//!   (`Scheme::ring_nn`, the ring matching under the any-idle trigger)
//!   vs GP-D^K, all on the one engine.
//! * `fairness` — Gini coefficient of per-PE donation counts: the global
//!   pointer's design goal, quantified.

use uts_analysis::counter_stats;
use uts_analysis::table::{fmt_e, TextTable};
use uts_bench::parse_quick;
use uts_bench::runner::{PAPER_P, QUICK_P};
use uts_bench::workloads::{run_workload, table_workloads, PaperWorkload};
use uts_core::{run, EngineConfig, Scheme, TransferMode};
use uts_machine::CostModel;
use uts_tree::problem::BoundedProblem;
use uts_tree::SplitPolicy;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (rest, quick) = parse_quick(&args);
    let which = rest.first().map(String::as_str).unwrap_or("all");
    match which {
        "split" => split(quick),
        "topology" => topology(quick),
        "init" => init(quick),
        "transfers" => transfers(quick),
        "related" => related(quick),
        "fairness" => fairness(quick),
        "all" => {
            split(quick);
            topology(quick);
            init(quick);
            transfers(quick);
            related(quick);
            fairness(quick);
        }
        other => {
            eprintln!("unknown ablation `{other}`");
            std::process::exit(2);
        }
    }
}

fn workload(quick: bool) -> PaperWorkload {
    let mut wl = table_workloads()[1]; // W ≈ 3.04M
    if quick {
        wl.bound -= 4;
        wl.w = 0;
    }
    wl
}

fn machine_p(quick: bool) -> usize {
    if quick {
        QUICK_P
    } else {
        PAPER_P
    }
}

fn split(quick: bool) {
    println!("== Ablation: split policy (GP-S^0.8, W ≈ 3M) ==\n");
    let wl = workload(quick);
    let p = machine_p(quick);
    let mut t = TextTable::new(vec!["policy", "Nexpand", "Nlb", "E"]);
    for (name, policy) in [
        ("bottom (paper)", SplitPolicy::Bottom),
        ("half", SplitPolicy::Half),
        ("top", SplitPolicy::Top),
    ] {
        let puzzle = wl.puzzle();
        let bp = BoundedProblem::new(&puzzle, wl.bound);
        let cfg = EngineConfig::new(p, Scheme::gp_static(0.8), CostModel::cm2()).with_split(policy);
        let out = run(&bp, &cfg);
        t.row(vec![
            name.to_string(),
            out.report.n_expand.to_string(),
            out.report.n_lb.to_string(),
            fmt_e(out.report.efficiency),
        ]);
    }
    println!("{t}");
    println!("(top-splitting donates tiny subtrees, so receivers idle again quickly.)\n");
}

fn topology(quick: bool) {
    println!("== Ablation: interconnect cost model (GP-S^0.8 and GP-D^K) ==\n");
    let wl = workload(quick);
    let p = machine_p(quick);
    let mut t = TextTable::new(vec!["topology", "t_lb/U_calc", "E(GP-S^0.8)", "E(GP-D^K)"]);
    for (name, cost) in [
        ("CM-2", CostModel::cm2()),
        ("hypercube", CostModel::hypercube()),
        ("mesh", CostModel::mesh()),
    ] {
        let s = run_workload(&wl, Scheme::gp_static(0.8), p, cost, false);
        let d = run_workload(&wl, Scheme::gp_dk(), p, cost, false);
        t.row(vec![
            name.to_string(),
            format!("{:.2}", cost.lb_ratio(p)),
            fmt_e(s.report.efficiency),
            fmt_e(d.report.efficiency),
        ]);
    }
    println!("{t}");
    println!("(D^K adapts its balancing frequency to t_lb; static x = 0.8 does not.)\n");
}

fn init(quick: bool) {
    println!("== Ablation: initial-distribution threshold for GP-D^P (Sec. 7) ==\n");
    let wl = workload(quick);
    let p = machine_p(quick);
    let puzzle = wl.puzzle();
    let bp = BoundedProblem::new(&puzzle, wl.bound);
    let mut t = TextTable::new(vec!["init fraction", "Nexpand", "*Nlb", "E"]);
    for frac in [None, Some(0.25), Some(0.5), Some(0.85)] {
        let mut cfg = EngineConfig::new(p, Scheme::gp_dp(), CostModel::cm2());
        cfg.init_fraction = frac;
        let out = run(&bp, &cfg);
        t.row(vec![
            frac.map_or("none".to_string(), |f| format!("{f:.2}")),
            out.report.n_expand.to_string(),
            out.report.n_transfers.to_string(),
            fmt_e(out.report.efficiency),
        ]);
    }
    println!("{t}");
    println!("(Without an init phase D^P may not trigger while few PEs are active.)\n");
}

fn transfers(quick: bool) {
    println!("== Ablation: single vs multiple transfer rounds per phase ==\n");
    let wl = workload(quick);
    let p = machine_p(quick);
    let puzzle = wl.puzzle();
    let bp = BoundedProblem::new(&puzzle, wl.bound);
    let mut t = TextTable::new(vec!["scheme", "rounds", "Nlb", "*Nlb", "E"]);
    for (name, base) in [("GP-D^P", Scheme::gp_dp()), ("GP-D^K", Scheme::gp_dk())] {
        for mode in [TransferMode::Single, TransferMode::Multiple] {
            let mut scheme = base;
            scheme.transfers = mode;
            let cfg = EngineConfig::new(p, scheme, CostModel::cm2());
            let out = run(&bp, &cfg);
            t.row(vec![
                name.to_string(),
                match mode {
                    TransferMode::Single => "single".to_string(),
                    TransferMode::Multiple => "multiple".to_string(),
                    TransferMode::Equalize => "equalize".to_string(),
                },
                out.report.n_lb.to_string(),
                out.report.n_transfers.to_string(),
                fmt_e(out.report.efficiency),
            ]);
        }
    }
    println!("{t}");
    println!("(The paper requires multiple transfers for D^P; D^K tolerates single.)\n");
}

fn related(quick: bool) {
    println!("== Ablation: Sec. 8 related-work schemes vs GP-D^K ==\n");
    let wl = workload(quick);
    let p = machine_p(quick);
    let puzzle = wl.puzzle();
    let bp = BoundedProblem::new(&puzzle, wl.bound);
    let mut t = TextTable::new(vec!["scheme", "Nexpand", "Nlb", "*Nlb", "E"]);
    for scheme in [Scheme::fess(), Scheme::fegs(), Scheme::gp_dk(), Scheme::ring_nn()] {
        let cfg = EngineConfig::new(p, scheme, CostModel::cm2());
        let out = run(&bp, &cfg);
        t.row(vec![
            scheme.name(),
            out.report.n_expand.to_string(),
            out.report.n_lb.to_string(),
            out.report.n_transfers.to_string(),
            fmt_e(out.report.efficiency),
        ]);
    }
    println!("{t}");
    println!("(FESS balances every cycle once any PE idles; ring NN diffuses slowly.)\n");
}

fn fairness(quick: bool) {
    println!("== Ablation: donation-burden fairness (GP's design goal, Sec. 2.2) ==\n");
    let wl = workload(quick);
    let p = machine_p(quick);
    let puzzle = wl.puzzle();
    let bp = BoundedProblem::new(&puzzle, wl.bound);
    let mut t = TextTable::new(vec!["scheme", "donors", "max donations", "gini", "E"]);
    for (name, scheme) in [
        ("nGP-S^0.9", Scheme::ngp_static(0.9)),
        ("GP-S^0.9", Scheme::gp_static(0.9)),
        ("nGP-D^K", Scheme::ngp_dk()),
        ("GP-D^K", Scheme::gp_dk()),
    ] {
        let out = run(&bp, &EngineConfig::new(p, scheme, CostModel::cm2()));
        let stats = counter_stats(&out.donations);
        let donors = out.donations.iter().filter(|&&d| d > 0).count();
        t.row(vec![
            name.to_string(),
            donors.to_string(),
            stats.max.to_string(),
            format!("{:.3}", stats.gini),
            fmt_e(out.report.efficiency),
        ]);
    }
    println!("{t}");
    println!("(Lower Gini = the sharing burden is spread more evenly; GP rotates it.)\n");
}
