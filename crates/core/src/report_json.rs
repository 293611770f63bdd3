//! Deterministic JSON run-report for a single engine run.
//!
//! [`run_report_json`] renders the schedule-invariant observables of an
//! [`Outcome`] — the headline counters plus, when the run recorded one,
//! the load-balance ledger (donation spread and per-phase trigger
//! provenance) — as a stable, hand-rolled JSON document. Stability is the
//! point: the same `(problem, config)` yields byte-identical text on every
//! engine, thread count and host, so the quick CI tier can diff the
//! report against a golden fixture (`tests/fixtures/run_report.json`) and
//! any schedule or accounting drift shows up as a one-line test failure.
//!
//! Hand-rolled for the same reason as the bench harness's JSON: the
//! schema is small, the values are integers and fixed-precision floats,
//! and a serializer dependency would add nothing but formatting
//! ambiguity.

use std::fmt::Write as _;

use uts_machine::TriggerKind;

use crate::engine::{EngineConfig, Outcome};

/// Render the run-report JSON (trailing newline included). Floats are
/// fixed at six decimals so the text is reproducible bit-for-bit.
pub fn run_report_json(cfg: &EngineConfig, out: &Outcome) -> String {
    let r = &out.report;
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"scheme\": \"{}\",", cfg.scheme.name());
    let _ = writeln!(s, "  \"p\": {},", cfg.p);
    let _ = writeln!(s, "  \"nodes_expanded\": {},", r.nodes_expanded);
    let _ = writeln!(s, "  \"n_expand\": {},", r.n_expand);
    let _ = writeln!(s, "  \"n_lb\": {},", r.n_lb);
    let _ = writeln!(s, "  \"n_transfers\": {},", r.n_transfers);
    let _ = writeln!(s, "  \"t_par_us\": {},", r.t_par);
    let _ = writeln!(s, "  \"t_calc_us\": {},", r.t_calc);
    let _ = writeln!(s, "  \"t_idle_us\": {},", r.t_idle);
    let _ = writeln!(s, "  \"t_lb_us\": {},", r.t_lb);
    let _ = writeln!(s, "  \"efficiency\": {:.6},", r.efficiency);
    let _ = writeln!(s, "  \"goals\": {},", out.goals);
    let _ = writeln!(s, "  \"truncated\": {},", out.truncated);
    let _ = writeln!(s, "  \"peak_stack_nodes\": {},", out.peak_stack_nodes);
    match &out.ledger {
        None => s.push_str("  \"ledger\": null\n"),
        Some(ledger) => {
            let spread = ledger.donation_spread();
            s.push_str("  \"ledger\": {\n");
            s.push_str("    \"donation_spread\": {\n");
            let _ = writeln!(s, "      \"total\": {},", spread.total);
            let _ = writeln!(s, "      \"donors\": {},", spread.donors);
            let _ = writeln!(s, "      \"max\": {},", spread.max);
            let _ = writeln!(s, "      \"mean\": {:.6},", spread.mean);
            let _ = writeln!(s, "      \"max_over_mean\": {:.6},", spread.max_over_mean);
            let _ = writeln!(s, "      \"gini\": {:.6}", spread.gini);
            s.push_str("    },\n");
            s.push_str("    \"phases\": [\n");
            for (i, ph) in ledger.phases.iter().enumerate() {
                let comma = if i + 1 < ledger.phases.len() { "," } else { "" };
                let f = &ph.firing;
                let _ = writeln!(
                    s,
                    "      {{\"at_cycle\": {}, \"trigger\": \"{}\", \"busy\": {}, \
                     \"idle\": {}, \"w_us\": {}, \"t_us\": {}, \"w_idle_us\": {}, \
                     \"l_estimate_us\": {}, \"horizon\": {}, \"rounds\": {}, \
                     \"transfers\": {}, \"cost_setup_us\": {}, \"cost_transfer_us\": {}, \
                     \"cost_multiplier\": {}, \"cost_total_us\": {}}}{comma}",
                    ph.at_cycle,
                    trigger_label(f.kind),
                    f.busy,
                    f.idle,
                    f.w,
                    f.t,
                    f.w_idle,
                    f.l_estimate,
                    ph.horizon,
                    ph.rounds,
                    ph.transfers,
                    ph.cost.setup,
                    ph.cost.transfer,
                    ph.cost.multiplier,
                    ph.cost.total,
                );
            }
            s.push_str("    ]\n  }\n");
        }
    }
    s.push_str("}\n");
    s
}

/// Stable JSON label for a trigger kind; static triggers carry their
/// integer boundary so the fixture pins the ⌊x·P⌋ arithmetic too.
fn trigger_label(kind: TriggerKind) -> String {
    match kind {
        TriggerKind::Init => "init".to_string(),
        TriggerKind::Static { threshold } => format!("static<={threshold}"),
        TriggerKind::Dp => "dp".to_string(),
        TriggerKind::Dk => "dk".to_string(),
        TriggerKind::AnyIdle => "any_idle".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::run;
    use crate::scheme::Scheme;
    use uts_machine::CostModel;
    use uts_synth::GeometricTree;

    #[test]
    fn report_without_ledger_says_null() {
        let tree = GeometricTree { seed: 3, b_max: 6, depth_limit: 4 };
        let cfg = EngineConfig::new(8, Scheme::gp_static(0.8), CostModel::cm2());
        let json = run_report_json(&cfg, &run(&tree, &cfg));
        assert!(json.contains("\"ledger\": null"));
        assert!(json.contains("\"scheme\": \"GP-S^0.80\""));
    }

    #[test]
    fn report_with_ledger_lists_every_phase() {
        let tree = GeometricTree { seed: 3, b_max: 8, depth_limit: 6 };
        let cfg = EngineConfig::new(32, Scheme::gp_dk(), CostModel::cm2()).with_ledger();
        let out = run(&tree, &cfg);
        let ledger = out.ledger.as_ref().expect("ledger was requested");
        let json = run_report_json(&cfg, &out);
        assert_eq!(json.matches("\"at_cycle\"").count(), ledger.phases.len());
        assert!(json.contains("\"donation_spread\""));
        // The init phase fires under a dynamic trigger at P=32.
        assert!(json.contains("\"trigger\": \"init\""));
    }

    #[test]
    fn report_is_identical_across_engines() {
        use crate::engine::EngineKind;
        let tree = GeometricTree { seed: 5, b_max: 8, depth_limit: 5 };
        let cfg = EngineConfig::new(64, Scheme::ngp_dp(), CostModel::cm2()).with_ledger();
        let texts: Vec<String> = EngineKind::ALL
            .iter()
            .map(|&k| {
                let c = cfg.clone().with_engine(k);
                run_report_json(&c, &crate::engine::run_with(&tree, &c))
            })
            .collect();
        assert!(texts.windows(2).all(|w| w[0] == w[1]));
    }
}
