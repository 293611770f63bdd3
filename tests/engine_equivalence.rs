//! Schedule equivalence: the event-horizon macro engine (`uts_core::run`,
//! the default), on one thread and with its bursts fanned out over two,
//! must produce a **bit-identical** lockstep schedule to the
//! reference two-sweep executor (`uts_core::run_reference`) — same
//! counters, same virtual times, same traces, same per-PE donation counts.
//! The lockstep schedule is the correctness contract of the whole repo:
//! every table and figure regenerator sits on top of it. The wider fuzz
//! (ledger on/off, snapshot streams, thread counts, the exhaustive
//! cross-product) is `tests/engine_differential.rs`; this suite pins the
//! par engine with its fan-out forced on trees far too small to cross the
//! engines' bar.

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

/// The par engine with two threads and every burst fanned out: the loop
/// over a [`LocalBackend`] with a fan-out bar of `0`, so the chunked burst
/// path is exercised even on trees far too small to cross the engines' bar.
fn forced_par<P: TreeProblem>(tree: &P, cfg: &EngineConfig) -> Outcome {
    let mut arena = StackArena::new(cfg.p);
    arena.push_frame_with(0, |frame| frame.push(tree.root()));
    LockstepDriver::fresh(cfg)
        .drive(&mut LocalBackend::new(tree, arena, 2, 0))
        .expect("in-process run")
}

/// Run every engine on the same configuration and require the whole
/// [`Outcome`] of macro and par (every counter, trace, donation vector,
/// goal count and peak) to equal the reference oracle's (par with its
/// fan-out forced, [`forced_par`]).
fn assert_all_engines_agree<P: TreeProblem>(tree: &P, cfg: &EngineConfig) {
    let reference = run_reference(tree, cfg);
    assert_eq!(run(tree, cfg), reference, "macro");
    assert_eq!(forced_par(tree, cfg), reference, "par");
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
            assert_eq!(out, reference, "{name}/{engine}");
        }
    }
}
