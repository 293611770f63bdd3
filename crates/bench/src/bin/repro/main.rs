//! Regenerate the paper's tables and figures and run the studies around
//! them, one section at a time or all in one run.
//!
//! ```text
//! cargo run --release -p uts-bench --bin repro -- <section> [<part>] [--quick]
//! ```
//!
//! A section runs all of its parts unless one is named. `repro all` (also
//! plain `repro`) runs every table and figure, then the ablation, bounds,
//! routing, anomaly and MIMD studies, each under a `######## <section>
//! <part> ########` banner. A section that panics there is reported on
//! stderr and the later ones still run; the exit status is then 1. An
//! unknown section or part exits 2 with the list of sections. `--quick`
//! shrinks problem sizes and processor counts ~8× for smoke runs.

mod ablation;
mod anomalies;
mod bounds;
mod figures;
mod mimd;
mod recalibrate;
mod routing;
mod tables;

use std::panic::catch_unwind;
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;

use uts_bench::sweep::{calibrated_trees, SweepGrid};
use uts_synth::SizedTree;

/// A named part of a section and its runner, which takes `--quick`.
type Part = (&'static str, fn(bool));

/// Every section and its parts, in `<section> all` order. A section with
/// a single part names it `all`.
const SECTIONS: [(&str, &[Part]); 8] = [
    ("tables", tables::PARTS),
    ("figures", figures::PARTS),
    ("ablation", ablation::PARTS),
    ("bounds", &[("all", bounds::run)]),
    ("routing", &[("all", routing::run)]),
    ("anomalies", &[("all", anomalies::run)]),
    ("mimd", mimd::PARTS),
    ("recalibrate", &[("all", recalibrate::run)]),
];

/// What `repro all` runs, in order: the paper's tables and figures, then
/// the studies.
const ALL: [(&str, &str); 15] = [
    ("tables", "table1"),
    ("tables", "table2"),
    ("tables", "table3"),
    ("tables", "table4"),
    ("tables", "table5"),
    ("tables", "table6"),
    ("figures", "fig3"),
    ("figures", "fig4"),
    ("figures", "fig7"),
    ("figures", "fig8"),
    ("ablation", "all"),
    ("bounds", "all"),
    ("routing", "all"),
    ("anomalies", "all"),
    ("mimd", "compare"),
];

fn main() -> ExitCode {
    let mut quick = false;
    let mut words = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else {
            words.push(arg);
        }
    }
    let (section, part) = match words.as_slice() {
        [] => ("all", None),
        [section] => (section.as_str(), None),
        [section, part] => (section.as_str(), Some(part.as_str())),
        _ => return usage(&words),
    };
    if section == "all" && part.is_none() {
        return run_all(quick);
    }
    match find(section, part.unwrap_or("all")) {
        Some(parts) => {
            run_parts(parts, quick);
            ExitCode::SUCCESS
        }
        None => usage(&words),
    }
}

/// The parts `<section> <part>` names: one part, or every part for `all`.
fn find(section: &str, part: &str) -> Option<&'static [Part]> {
    let (_, parts) = SECTIONS.iter().find(|(name, _)| *name == section)?;
    if part == "all" {
        return Some(parts);
    }
    let i = parts.iter().position(|(name, _)| *name == part)?;
    Some(&parts[i..=i])
}

fn run_parts(parts: &[Part], quick: bool) {
    let t0 = Instant::now();
    for (_, run) in parts {
        run(quick);
    }
    eprintln!("[done in {:?}]", t0.elapsed());
}

/// Run every section of [`ALL`] in this process. A panic in one section is
/// caught, reported, and counted; the remaining sections still run.
fn run_all(quick: bool) -> ExitCode {
    let mut failures = 0;
    for (section, part) in ALL {
        println!("\n######## {section} {part} ########\n");
        let parts = find(section, part).expect("ALL names known sections and parts");
        if catch_unwind(|| run_parts(parts, quick)).is_err() {
            eprintln!("[{section} {part} panicked]");
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("\n{failures} section(s) failed");
        return ExitCode::FAILURE;
    }
    println!("\nAll sections completed.");
    ExitCode::SUCCESS
}

fn usage(words: &[String]) -> ExitCode {
    eprintln!("unknown section or part `{}`\n", words.join(" "));
    eprintln!("usage: repro <section> [<part>] [--quick]\n\nsections and their parts:");
    eprintln!("  {:<12} the tables and figures, then the studies, in one run", "all");
    for (name, parts) in SECTIONS {
        let mut names: Vec<&str> = parts.iter().map(|(part, _)| *part).collect();
        if names.len() > 1 {
            names.push("all");
        }
        eprintln!("  {name:<12} {}", names.join(" | "));
    }
    ExitCode::from(2)
}

/// The calibrated (P, W) sweep grid behind Table 6, Figs. 4 and 7 and the
/// MIMD study: the synthetic trees' serial W is measured once per run.
struct Calibration {
    grid: SweepGrid,
    trees: Vec<SizedTree>,
}

fn calibration(quick: bool) -> &'static Calibration {
    static CALIBRATIONS: [OnceLock<Calibration>; 2] = [OnceLock::new(), OnceLock::new()];
    CALIBRATIONS[usize::from(quick)].get_or_init(|| {
        let grid = if quick { SweepGrid::quick() } else { SweepGrid::full() };
        let trees = calibrated_trees(&grid);
        Calibration { grid, trees }
    })
}
