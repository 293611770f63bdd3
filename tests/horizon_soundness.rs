//! Horizon soundness: the macro engine batches `H` expansion cycles only
//! after proving the trigger cannot *effectively* fire before the next
//! checkpoint. The proof obligation, checked here against the per-cycle
//! reference engine: every balancing phase the reference performs lands
//! exactly on a macro-step boundary — never strictly inside a batch — and
//! the macro-steps partition the cycle count exactly.
//!
//! The macro engine's boundaries are read from its every-boundary snapshot
//! stream (`N_expand` of each decoded snapshot); the reference's balancing
//! cycles from its ledger's phase records.

use proptest::prelude::*;
use simd_tree_search::prelude::*;
use simd_tree_search::synth::GeometricTree;

fn arb_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        (0.05f64..0.95).prop_map(Scheme::gp_static),
        (0.05f64..0.95).prop_map(Scheme::ngp_static),
        Just(Scheme::gp_dk()),
        Just(Scheme::ngp_dk()),
        Just(Scheme::gp_dp()),
        Just(Scheme::ngp_dp()),
        Just(Scheme::fess()),
        Just(Scheme::fegs()),
    ]
}

/// The macro engine's run of `problem` under `cfg`, and the cycle count
/// `N_expand` at the end of each of its steps: every boundary snapshot of
/// a `CheckpointPolicy::every(1)` memory sink, then the run's total (the
/// final step ends the run, so it writes no boundary).
fn step_ends<P: TreeProblem>(problem: &P, cfg: &EngineConfig) -> (Outcome, Vec<u64>) {
    let armed = cfg.clone().with_checkpoint(CheckpointPolicy::every(1));
    let out = run(problem, &armed);
    let fingerprint = config_fingerprint(cfg);
    let snapshots = armed.checkpoint.as_ref().expect("armed").sink.taken();
    let mut ends: Vec<u64> = snapshots
        .iter()
        .map(|s| {
            let snap = EngineSnapshot::<P::Node>::decode(&s.bytes, fingerprint);
            snap.expect("own snapshot decodes").machine.metrics.n_expand
        })
        .collect();
    ends.push(out.report.n_expand);
    (out, ends)
}

/// Cycles each step ran, given the cycle counts at the steps' ends.
fn step_lengths(ends: &[u64]) -> Vec<u64> {
    [0].iter().chain(ends).zip(ends).map(|(a, b)| b - a).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random trees × schemes × machine sizes: no balancing phase of the
    /// per-cycle reference run falls strictly inside a macro-step.
    #[test]
    fn trigger_never_fires_inside_a_macro_step(
        seed in 0u64..300,
        scheme in arb_scheme(),
        p_log in 0u32..9,
    ) {
        let tree = GeometricTree { seed, b_max: 6, depth_limit: 5 };
        let cfg = EngineConfig::new(1usize << p_log, scheme, CostModel::cm2())
            .with_trace()
            .with_ledger();
        let (out, ends) = step_ends(&tree, &cfg);
        let reference = run_reference(&tree, &cfg);

        // The steps partition [0, N_expand): each runs at least one cycle.
        prop_assert!(step_lengths(&ends).iter().all(|&ran| ran >= 1), "steps end at {:?}", ends);

        // A step that ends in a balancing phase ran exactly the horizon the
        // engine proved for it.
        let ledger = out.ledger.as_ref().expect("ledger on");
        for ph in &ledger.phases {
            let at = ends.binary_search(&ph.at_cycle);
            prop_assert!(at.is_ok(), "phase at cycle {} is no step end", ph.at_cycle);
            let ran = step_lengths(&ends)[at.unwrap_or(0)];
            prop_assert_eq!(ran, ph.horizon, "step ending at cycle {}", ph.at_cycle);
        }

        // Every balancing phase the per-cycle oracle performs sits on a
        // boundary (phase records are stamped with the cycle count at the
        // moment the machine leaves the search phase).
        for ph in &reference.ledger.as_ref().expect("ledger on").phases {
            prop_assert!(
                ends.binary_search(&ph.at_cycle).is_ok(),
                "reference balanced at cycle {} but the macro engine's steps end at {:?}",
                ph.at_cycle,
                ends
            );
        }
        prop_assert_eq!(out.report.n_expand, reference.report.n_expand);
    }
}

/// The init phase of dynamic triggers balances after (almost) every cycle;
/// the macro engine must degrade to single-cycle steps there and still
/// line up with the reference.
#[test]
fn init_phase_runs_single_cycle_steps() {
    // Deep enough that the run has a real steady state after the init
    // ramp (at depth 6 the whole search fits inside the ramp at P=128).
    let tree = GeometricTree { seed: 5, b_max: 8, depth_limit: 7 };
    let cfg = EngineConfig::new(128, Scheme::gp_dk(), CostModel::cm2()).with_trace().with_ledger();
    assert_eq!(cfg.init_fraction, Some(0.85), "dynamic scheme gets the init phase");
    let (out, ends) = step_ends(&tree, &cfg);
    let reference = run_reference(&tree, &cfg);
    assert_eq!(out.ledger, reference.ledger);

    // While fewer than 85% of PEs hold work the engine steps one cycle at
    // a time; the first macro-step must therefore be a single cycle.
    let ran = step_lengths(&ends);
    assert_eq!(ran[0], 1);
    // And once the init phase hands over, real horizons appear.
    assert!(
        ran.iter().any(|&r| r > 1),
        "no batching happened at all: {:?}",
        &ran[..ran.len().min(16)]
    );
}

/// `stop_on_goal` needs per-cycle goal observation: every step must be a
/// single cycle so the early exit lands on the same cycle as the oracle's.
#[test]
fn stop_on_goal_forces_single_cycle_steps() {
    let tree = simd_tree_search::synth::BinomialTree::with_q(9, 64, 4, 0.22);
    let mut cfg = EngineConfig::new(16, Scheme::gp_static(0.8), CostModel::cm2()).with_trace();
    cfg.stop_on_goal = true;
    let (out, ends) = step_ends(&tree, &cfg);
    assert!(out.goals > 0, "the tree holds a goal");
    assert!(step_lengths(&ends).iter().all(|&ran| ran == 1), "steps end at {ends:?}");
}
