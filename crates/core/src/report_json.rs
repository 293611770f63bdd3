//! What a run reports. [`outcome_digest`] hashes every field of an
//! [`Outcome`] through the snapshot codec's own field encoders.
//! [`run_report`] builds the schedule-invariant observables of an
//! [`Outcome`] — the headline counters plus, when the run recorded one,
//! the load-balance ledger (donation spread and per-phase trigger
//! provenance) — as a [`Json`] object, and [`run_report_json`] renders it
//! with the crate's one JSON writer. Stability is the point: the same
//! `(problem, config)` yields byte-identical text on every engine, thread
//! count and host, so the quick CI tier can diff the report against a
//! golden fixture (`tests/fixtures/run_report.json`) and any schedule or
//! accounting drift shows up as a one-line test failure. The job server's
//! `/result` document is the same pairs behind a header, and `sts run`
//! and `sts shard` print the report as their stdout, straight or resumed.

use uts_ckpt::{encode_active_trace, encode_phase_record, fnv1a_64};
use uts_machine::{DonationSpread, Ledger, Report, TriggerKind};
use uts_tree::codec::{put_bool, put_f64_bits, put_u64, put_usize};
use uts_tree::CkptNode;

use crate::engine::{EngineConfig, Outcome};
use crate::json::Json;

/// The leading byte of [`outcome_digest`]'s encoding. Version 1 hashed an
/// `Outcome`'s `Debug` text; version 2 also encoded the machine's phase
/// log, the loop's horizon log and the ledger's copy of the donations;
/// version 3 also encoded the report's serial `W` and the outcome's
/// cycle-budget `truncated` bit. Bump on any change to what is encoded.
pub const DIGEST_VERSION: u8 = 4;

/// FNV-1a over a [`DIGEST_VERSION`] byte and then every field of `out`,
/// little-endian, floats as bits, vectors length-prefixed. Two outcomes
/// digest equal iff they are the same outcome. Each struct is destructured
/// without `..`, so a new field does not compile until it is encoded.
pub fn outcome_digest(out: &Outcome) -> u64 {
    let Outcome { report, goals, killed, donations, peak_stack_nodes, ledger } = out;
    let Report {
        p,
        nodes_expanded,
        n_expand,
        n_lb,
        n_transfers,
        t_par,
        t_calc,
        t_idle,
        t_lb,
        efficiency,
        active_trace,
    } = report;
    let mut b = vec![DIGEST_VERSION];
    put_usize(&mut b, *p);
    for v in [nodes_expanded, n_expand, n_lb, n_transfers, t_par, t_calc, t_idle, t_lb, goals] {
        put_u64(&mut b, *v);
    }
    put_f64_bits(&mut b, *efficiency);
    encode_active_trace(&mut b, active_trace);
    put_bool(&mut b, *killed);
    donations.encode_node(&mut b);
    put_usize(&mut b, *peak_stack_nodes);
    put_bool(&mut b, ledger.is_some());
    if let Some(Ledger { receipts, phases }) = ledger {
        receipts.encode_node(&mut b);
        put_usize(&mut b, phases.len());
        phases.iter().for_each(|ph| encode_phase_record(&mut b, ph));
    }
    fnv1a_64(&b)
}

/// Render the run report as its JSON document (trailing newline included).
pub fn run_report_json(cfg: &EngineConfig, out: &Outcome) -> String {
    run_report(cfg, out).to_string()
}

/// The run report of `out` under `cfg`: the headline counters, then the
/// ledger or `null`. Floats are fixed at six decimals so the text is
/// reproducible bit-for-bit.
pub fn run_report(cfg: &EngineConfig, out: &Outcome) -> Json {
    let r = &out.report;
    let fixed = |x: f64| Json::num(format_args!("{x:.6}"));
    let ledger = out.ledger.as_ref().map_or(Json::Null, |ledger| {
        let spread = DonationSpread::of(&out.donations);
        let phases = ledger.phases.iter().map(|ph| {
            let f = &ph.firing;
            Json::obj([
                ("at_cycle", Json::num(ph.at_cycle)),
                ("trigger", Json::Str(trigger_label(f.kind))),
                ("busy", Json::num(f.busy)),
                ("idle", Json::num(f.idle)),
                ("w_us", Json::num(f.w)),
                ("t_us", Json::num(f.t)),
                ("w_idle_us", Json::num(f.w_idle)),
                ("l_estimate_us", Json::num(f.l_estimate)),
                ("horizon", Json::num(ph.horizon)),
                ("rounds", Json::num(ph.rounds)),
                ("transfers", Json::num(ph.transfers)),
                ("cost_setup_us", Json::num(ph.cost.setup)),
                ("cost_transfer_us", Json::num(ph.cost.transfer)),
                ("cost_multiplier", Json::num(ph.cost.multiplier)),
                ("cost_total_us", Json::num(ph.cost.total)),
            ])
        });
        let spread = Json::obj([
            ("total", Json::num(spread.total)),
            ("donors", Json::num(spread.donors)),
            ("max", Json::num(spread.max)),
            ("mean", fixed(spread.mean)),
            ("max_over_mean", fixed(spread.max_over_mean)),
            ("gini", fixed(spread.gini)),
        ]);
        Json::obj([("donation_spread", spread), ("phases", Json::Arr(phases.collect()))])
    });
    Json::obj([
        ("scheme", Json::Str(cfg.scheme.name())),
        ("p", Json::num(cfg.p)),
        ("nodes_expanded", Json::num(r.nodes_expanded)),
        ("n_expand", Json::num(r.n_expand)),
        ("n_lb", Json::num(r.n_lb)),
        ("n_transfers", Json::num(r.n_transfers)),
        ("t_par_us", Json::num(r.t_par)),
        ("t_calc_us", Json::num(r.t_calc)),
        ("t_idle_us", Json::num(r.t_idle)),
        ("t_lb_us", Json::num(r.t_lb)),
        ("efficiency", fixed(r.efficiency)),
        ("goals", Json::num(out.goals)),
        ("peak_stack_nodes", Json::num(out.peak_stack_nodes)),
        ("ledger", ledger),
    ])
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

    /// Changing any one field of an outcome moves its digest: every scalar
    /// of `Outcome` and `Report`, one element of each vector, and every
    /// field of one ledger phase record.
    #[test]
    fn every_field_moves_the_digest() {
        use uts_machine::{ActiveTrace, LbPhaseRecord};
        type Mutation = (&'static str, fn(&mut Outcome));
        fn phase(o: &mut Outcome) -> &mut LbPhaseRecord {
            &mut o.ledger.as_mut().expect("ledger").phases[0]
        }
        fn ledger(o: &mut Outcome) -> &mut Ledger {
            o.ledger.as_mut().expect("ledger")
        }
        let tree = GeometricTree { seed: 3, b_max: 8, depth_limit: 6 };
        let cfg =
            EngineConfig::new(32, Scheme::gp_dk(), CostModel::cm2()).with_ledger().with_trace();
        let base = run(&tree, &cfg);
        assert!(base.report.active_trace.breakpoints().len() > 1);
        let mutations: &[Mutation] = &[
            ("report.p", |o| o.report.p += 1),
            ("report.nodes_expanded", |o| o.report.nodes_expanded += 1),
            ("report.n_expand", |o| o.report.n_expand += 1),
            ("report.n_lb", |o| o.report.n_lb += 1),
            ("report.n_transfers", |o| o.report.n_transfers += 1),
            ("report.t_par", |o| o.report.t_par += 1),
            ("report.t_calc", |o| o.report.t_calc += 1),
            ("report.t_idle", |o| o.report.t_idle += 1),
            ("report.t_lb", |o| o.report.t_lb += 1),
            ("report.efficiency", |o| {
                o.report.efficiency = f64::from_bits(o.report.efficiency.to_bits() ^ 1)
            }),
            ("report.active_trace", |o| {
                let t = &o.report.active_trace;
                let mut breaks = t.breakpoints().to_vec();
                breaks.last_mut().expect("breakpoints").1 += 1000;
                o.report.active_trace = ActiveTrace::from_breakpoints(breaks, t.len());
            }),
            ("report.active_trace.len", |o| o.report.active_trace.push_run(u32::MAX, 1)),
            ("goals", |o| o.goals += 1),
            ("killed", |o| o.killed = !o.killed),
            ("donations[0]", |o| o.donations[0] += 1),
            ("peak_stack_nodes", |o| o.peak_stack_nodes += 1),
            ("ledger", |o| o.ledger = None),
            ("ledger.receipts[0]", |o| ledger(o).receipts[0] += 1),
            ("phase.at_cycle", |o| phase(o).at_cycle += 1),
            ("phase.firing.kind", |o| {
                let f = &mut phase(o).firing;
                f.kind = if f.kind == TriggerKind::Dp { TriggerKind::Dk } else { TriggerKind::Dp };
            }),
            ("phase.firing.busy", |o| phase(o).firing.busy += 1),
            ("phase.firing.idle", |o| phase(o).firing.idle += 1),
            ("phase.firing.w", |o| phase(o).firing.w += 1),
            ("phase.firing.t", |o| phase(o).firing.t += 1),
            ("phase.firing.w_idle", |o| phase(o).firing.w_idle += 1),
            ("phase.firing.l_estimate", |o| phase(o).firing.l_estimate += 1),
            ("phase.horizon", |o| phase(o).horizon += 1),
            ("phase.rounds", |o| phase(o).rounds += 1),
            ("phase.transfers", |o| phase(o).transfers += 1),
            ("phase.cost.setup", |o| phase(o).cost.setup += 1),
            ("phase.cost.transfer", |o| phase(o).cost.transfer += 1),
            ("phase.cost.multiplier", |o| phase(o).cost.multiplier += 1),
            ("phase.cost.total", |o| phase(o).cost.total += 1),
        ];
        let digest = outcome_digest(&base);
        assert_eq!(outcome_digest(&base.clone()), digest, "the digest is a pure function");
        for (name, mutate) in mutations {
            let mut o = base.clone();
            mutate(&mut o);
            assert_ne!(o, base, "{name}: the mutation changed nothing");
            assert_ne!(outcome_digest(&o), digest, "{name} does not move the digest");
        }
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
