//! Schedule equivalence: the event-horizon macro engine (`uts_core::run`,
//! the default), on one thread and with its bursts fanned out over two,
//! must produce a **bit-identical** lockstep schedule to the
//! reference two-sweep executor (`uts_core::run_reference`) — same
//! counters, same virtual times, same traces, same per-PE donation counts.
//! The lockstep schedule is the correctness contract of the whole repo:
//! every table and figure regenerator sits on top of it.

use proptest::prelude::*;
use simd_tree_search::core::{LocalBackend, LockstepDriver};
use simd_tree_search::prelude::*;
use simd_tree_search::synth::{BinomialTree, GeometricTree};
use simd_tree_search::tree::StackArena;

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

fn arb_split() -> impl Strategy<Value = SplitPolicy> {
    prop_oneof![Just(SplitPolicy::Bottom), Just(SplitPolicy::Half), Just(SplitPolicy::Top)]
}

/// Every observable of the two outcomes must coincide. Plain asserts so the
/// helper is usable from property and unit tests alike (a panic fails a
/// proptest case the same way a `prop_assert!` does).
fn assert_equivalent(label: &str, got: &Outcome, reference: &Outcome) {
    assert_eq!(got.report.n_expand, reference.report.n_expand, "{label}: n_expand");
    assert_eq!(got.report.n_lb, reference.report.n_lb, "{label}: n_lb");
    assert_eq!(got.report.n_transfers, reference.report.n_transfers, "{label}: n_transfers");
    assert_eq!(
        got.report.nodes_expanded, reference.report.nodes_expanded,
        "{label}: nodes_expanded"
    );
    assert_eq!(got.report.t_par, reference.report.t_par, "{label}: t_par");
    assert_eq!(got.report.t_calc, reference.report.t_calc, "{label}: t_calc");
    assert_eq!(got.report.t_idle, reference.report.t_idle, "{label}: t_idle");
    assert_eq!(got.report.t_lb, reference.report.t_lb, "{label}: t_lb");
    assert_eq!(got.report.active_trace, reference.report.active_trace, "{label}: active_trace");
    assert_eq!(got.goals, reference.goals, "{label}: goals");
    assert_eq!(got.truncated, reference.truncated, "{label}: truncated");
    assert_eq!(got.donations, reference.donations, "{label}: donations");
    assert_eq!(got.peak_stack_nodes, reference.peak_stack_nodes, "{label}: peak_stack_nodes");
}

/// The par engine with two threads and every burst fanned out: the loop
/// over a [`LocalBackend`] with a fan-out bar of `0`, so the chunked burst
/// path is exercised even on trees far too small to cross the engines' bar.
fn forced_par<P: TreeProblem>(tree: &P, cfg: &EngineConfig) -> Outcome {
    let mut arena = StackArena::new(cfg.p);
    arena.push_frame_with(0, |frame| frame.push(tree.root()));
    let Ok(out) = LockstepDriver::fresh(cfg).drive(&mut LocalBackend::new(tree, arena, 2, 0));
    out
}

/// Run every engine on the same configuration and require bitwise
/// agreement of macro and par against the reference oracle (par with its
/// fan-out forced, [`forced_par`]).
fn assert_all_engines_agree<P: TreeProblem>(tree: &P, cfg: &EngineConfig) {
    let reference = run_reference(tree, cfg);
    assert_equivalent("macro", &run(tree, cfg), &reference);
    assert_equivalent("par", &forced_par(tree, cfg), &reference);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Schemes × machine sizes × seeds: exhaustive runs schedule
    /// identically under the macro, par and reference engines, down to
    /// the Fig. 8 active trace and every per-PE donation counter.
    #[test]
    fn engines_match_reference_schedule(
        seed in 0u64..400,
        scheme in arb_scheme(),
        split in arb_split(),
        p_log in 0u32..9,
    ) {
        let tree = GeometricTree { seed, b_max: 6, depth_limit: 5 };
        let p = 1usize << p_log;
        let cfg = EngineConfig::new(p, scheme, CostModel::cm2())
            .with_split(split)
            .with_trace();
        assert_all_engines_agree(&tree, &cfg);
    }

    /// Same contract on goal-bearing binomial trees, including the
    /// stop-on-goal early exit.
    #[test]
    fn engines_match_reference_with_goals(
        seed in 0u64..200,
        scheme in arb_scheme(),
        stop_on_goal in any::<bool>(),
        p_log in 2u32..8,
    ) {
        let tree = BinomialTree::with_q(seed, 16, 4, 0.2);
        let mut cfg = EngineConfig::new(1usize << p_log, scheme, CostModel::cm2()).with_trace();
        cfg.stop_on_goal = stop_on_goal;
        assert_all_engines_agree(&tree, &cfg);
    }

    /// The `max_cycles` safety valve truncates every engine at the
    /// same cycle (the macro engine must clamp its horizon to the budget).
    #[test]
    fn engines_match_reference_when_truncated(
        seed in 0u64..100,
        scheme in arb_scheme(),
        max_cycles in 0u64..60,
        p_log in 0u32..7,
    ) {
        let tree = GeometricTree { seed, b_max: 6, depth_limit: 5 };
        let mut cfg = EngineConfig::new(1usize << p_log, scheme, CostModel::cm2()).with_trace();
        cfg.max_cycles = Some(max_cycles);
        assert_all_engines_agree(&tree, &cfg);
    }
}

/// Non-property spot check covering every Table 1 scheme at a fixed larger
/// P, so a regression names the scheme that diverged.
#[test]
fn table1_schemes_schedule_identically_at_p256() {
    let tree = GeometricTree { seed: 17, b_max: 8, depth_limit: 6 };
    for (name, scheme) in Scheme::table1(0.75) {
        let cfg = EngineConfig::new(256, scheme, CostModel::cm2()).with_trace();
        let reference = run_reference(&tree, &cfg);
        for (engine, out) in [("macro", run(&tree, &cfg)), ("par", forced_par(&tree, &cfg))] {
            assert_eq!(out.report.n_expand, reference.report.n_expand, "{name}/{engine}");
            assert_eq!(out.report.n_lb, reference.report.n_lb, "{name}/{engine}");
            assert_eq!(out.report.t_idle, reference.report.t_idle, "{name}/{engine}");
            assert_eq!(out.report.t_lb, reference.report.t_lb, "{name}/{engine}");
            assert_eq!(out.report.active_trace, reference.report.active_trace, "{name}/{engine}");
            assert_eq!(out.donations, reference.donations, "{name}/{engine}");
        }
    }
}

/// Exhaustive tier: a dense deterministic cross-product — every Table 1
/// scheme plus the static extremes, every split policy, a spread of seeds
/// and machine sizes, every engine bit-identical. Far too slow for the
/// default `cargo test` (debug) run, so it hides behind `#[ignore]`; CI
/// runs it in a dedicated `--ignored` job, and locally:
///
/// ```text
/// cargo test --release --test engine_equivalence -- --ignored
/// ```
#[test]
#[ignore = "exhaustive cross-product; run with --ignored (CI does)"]
fn exhaustive_engine_cross_product() {
    let mut schemes: Vec<Scheme> = Scheme::table1(0.75).map(|(_, s)| s).to_vec();
    schemes.extend([Scheme::gp_static(0.05), Scheme::ngp_static(0.95), Scheme::fegs()]);
    let splits = [SplitPolicy::Bottom, SplitPolicy::Half, SplitPolicy::Top];
    for seed in [0u64, 3, 17, 41] {
        let tree = GeometricTree { seed, b_max: 7, depth_limit: 6 };
        for &scheme in &schemes {
            for &split in &splits {
                for p_log in [0u32, 3, 6, 9] {
                    let cfg = EngineConfig::new(1usize << p_log, scheme, CostModel::cm2())
                        .with_split(split)
                        .with_trace();
                    assert_all_engines_agree(&tree, &cfg);
                }
            }
        }
    }
}
