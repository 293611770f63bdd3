//! Workspace-level property tests: for randomized trees, schemes and
//! machine sizes, the lockstep engine preserves the serial search exactly
//! and its accounting stays consistent.

use proptest::prelude::*;
use simd_tree_search::prelude::*;
use simd_tree_search::synth::{BinomialTree, GeometricTree};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any scheme, any machine size, any split policy: the parallel search
    /// expands the serial node set and finds the serial goal count.
    #[test]
    fn engine_preserves_serial_search(
        seed in 0u64..500,
        scheme in arb_scheme(),
        split in arb_split(),
        p_log in 0u32..9,
    ) {
        let tree = GeometricTree { seed, b_max: 6, depth_limit: 5 };
        let serial = serial_dfs(&tree);
        let p = 1usize << p_log;
        let cfg = EngineConfig::new(p, scheme, CostModel::cm2()).with_split(split);
        let out = run(&tree, &cfg);
        prop_assert_eq!(out.report.nodes_expanded, serial.expanded);
        prop_assert_eq!(out.goals, serial.goals);
    }

    /// The paper's accounting identity (Sec. 3.1) holds for every run.
    #[test]
    fn accounting_identity_always_holds(
        seed in 0u64..300,
        scheme in arb_scheme(),
        p_log in 0u32..8,
    ) {
        let tree = GeometricTree { seed, b_max: 6, depth_limit: 5 };
        let out = run(&tree, &EngineConfig::new(1usize << p_log, scheme, CostModel::cm2()));
        prop_assert!(out.report.accounting_identity_holds());
        // Efficiency is a probability; speedup never exceeds P.
        prop_assert!(out.report.efficiency > 0.0 && out.report.efficiency <= 1.0 + 1e-12);
        prop_assert!(out.report.speedup() <= out.report.p as f64 + 1e-9);
    }

    /// Runs are deterministic: identical (problem, config) → identical
    /// schedule, down to every counter.
    #[test]
    fn runs_are_deterministic(seed in 0u64..200, scheme in arb_scheme()) {
        let tree = BinomialTree::with_q(seed, 16, 4, 0.2);
        let cfg = EngineConfig::new(96, scheme, CostModel::cm2());
        let a = run(&tree, &cfg);
        let b = run(&tree, &cfg);
        prop_assert_eq!(a.report.n_expand, b.report.n_expand);
        prop_assert_eq!(a.report.n_lb, b.report.n_lb);
        prop_assert_eq!(a.report.n_transfers, b.report.n_transfers);
        prop_assert_eq!(a.report.t_par, b.report.t_par);
    }

    /// Raising the balancing-cost multiplier never speeds the run up.
    #[test]
    fn costlier_balancing_never_helps(seed in 0u64..100, mult in 2u32..20) {
        let tree = GeometricTree { seed, b_max: 6, depth_limit: 5 };
        let base = run(&tree, &EngineConfig::new(64, Scheme::gp_static(0.8), CostModel::cm2()));
        let dear = run(
            &tree,
            &EngineConfig::new(64, Scheme::gp_static(0.8), CostModel::cm2().with_lb_multiplier(mult)),
        );
        prop_assert!(dear.report.t_par >= base.report.t_par);
        prop_assert!(dear.report.efficiency <= base.report.efficiency + 1e-12);
    }
}
