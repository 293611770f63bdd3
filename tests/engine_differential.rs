//! Cross-engine differential fuzz: the three executors — the two-sweep
//! reference oracle, the event-horizon macro engine, and the same engine
//! with its bursts fanned out over host threads — must produce the
//! same **full [`Outcome`]** (every counter, trace, donation vector, goal
//! count and peak, compared with `==`, not just the headline numbers) on
//! random scheme × trigger × split-policy × tree-shape configurations.
//! The lockstep schedule is the correctness contract of the whole repo:
//! every table and figure regenerator sits on top of it. Configs record
//! the load-balance ledger, so the `==` also asserts bit-identical per-PE
//! receipt counts and per-phase trigger provenance (operands, horizon,
//! cost attribution) across engines; the random-tree axes also run with
//! the ledger off, where an unarmed oracle skips its horizon replay and
//! steps cycle by cycle alone. Every engine also snapshots each
//! macro-step boundary into a memory sink, and the snapshot streams must
//! be byte-identical: the same steps, ending on the same cycles, in the
//! same state. The par engine must additionally be invariant in the
//! worker count: threads are a host-side latency knob, never a schedule
//! input.
//!
//! Seeded counterexamples persist under `proptest-regressions/` (see the
//! vendored proptest's `persistence` module) and replay before the random
//! cases, so a failure found once anywhere keeps guarding forever.

use proptest::prelude::*;
use simd_tree_search::core::local::FAN_OUT_MIN_WORK;
use simd_tree_search::core::{LocalBackend, LockstepDriver};
use simd_tree_search::prelude::*;
use simd_tree_search::synth::{BinomialTree, GeometricTree};
use simd_tree_search::synthgen::GenTree;
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

/// Both `uts-synthgen` families, kept subcritical (q·m < 0.88) so every
/// sampled binomial tree is finite.
fn arb_gen_tree() -> impl Strategy<Value = GenTree> {
    prop_oneof![
        (0u64..5000, 2u32..9, 3u32..6).prop_map(|(s, b, d)| GenTree::geometric(s, b, d)),
        (0u64..5000, 4u32..32, 0.05f64..0.22).prop_map(|(s, b0, q)| GenTree::binomial(s, b0, 4, q)),
    ]
}

/// The par engine at `threads` with the fan-out bar at `min_work` (the
/// engine itself always uses `FAN_OUT_MIN_WORK`; `0` forces the fanned-out
/// path on trees too small to cross it).
fn par_at<P: TreeProblem>(tree: &P, cfg: &EngineConfig, threads: usize, min_work: u64) -> Outcome {
    let mut arena = StackArena::new(cfg.p);
    arena.push_frame_with(0, |frame| frame.push(tree.root()));
    LockstepDriver::fresh(cfg)
        .drive(&mut LocalBackend::new(tree, arena, threads, min_work))
        .expect("in-process run")
}

/// A run's `Outcome` and the snapshot bytes of every macro-step boundary
/// it crossed, in order.
type Streamed = (Outcome, Vec<Vec<u8>>);

/// `go` under `cfg` armed with `CheckpointPolicy::every(1)` into a fresh
/// memory sink.
fn streamed(cfg: &EngineConfig, go: impl FnOnce(&EngineConfig) -> Outcome) -> Streamed {
    let armed = cfg.clone().with_checkpoint(CheckpointPolicy::every(1));
    let out = go(&armed);
    let sink = &armed.checkpoint.as_ref().expect("armed").sink;
    (out, sink.taken().into_iter().map(|s| s.bytes).collect())
}

/// Whole-`Outcome` equality plus byte equality of the boundary streams,
/// naming the first boundary whose snapshot differs.
fn assert_same_run(label: &str, (got, got_stream): &Streamed, (want, want_stream): &Streamed) {
    assert_eq!(got, want, "{label}: outcome diverged");
    assert_eq!(got_stream.len(), want_stream.len(), "{label}: boundary count diverged");
    if let Some(at) = got_stream.iter().zip(want_stream).position(|(a, b)| a != b) {
        panic!("{label}: snapshot of boundary {} diverged", at + 1);
    }
}

/// Run every engine of [`EngineKind::ALL`] through the [`run_with`]
/// dispatcher and require whole-`Outcome` and boundary-stream equality
/// against the reference oracle. The par engine runs twice more at awkward
/// worker counts (3 does not divide most active lists evenly; 8 exceeds
/// the shard work threshold's comfort) so shard-boundary bugs cannot hide
/// behind round numbers. Without a ledger the oracle also runs unarmed:
/// that run replays no horizon schedule at all, and it must still reach
/// the same `Outcome`.
fn assert_all_engines_identical<P: simd_tree_search::tree::TreeProblem>(
    tree: &P,
    cfg: &EngineConfig,
) {
    let reference = streamed(cfg, |c| run_reference(tree, c));
    if !cfg.record_ledger {
        assert_eq!(run_reference(tree, cfg), reference.0, "unarmed oracle diverged");
    }
    for kind in EngineKind::ALL {
        let got = streamed(cfg, |c| run_with(tree, &c.clone().with_engine(kind)));
        assert_same_run(kind.name(), &got, &reference);
    }
    for threads in [3usize, 8] {
        let got = streamed(cfg, |c| par_at(tree, c, threads, 0));
        assert_same_run(&format!("par({threads} threads)"), &got, &reference);
    }
}

/// The ledger is internally consistent with the schedule it annotates:
/// receipts balance the outcome's donations, the phases' transfer totals
/// match the machine's counter, every phase's cost attribution reassembles
/// exactly, the phase costs times `P` sum to `T_lb`, and the phase count
/// equals `N_lb`.
fn assert_ledger_reconciles(name: &str, cfg: &EngineConfig, out: &Outcome) {
    let ledger = out.ledger.as_ref().expect("ledger was requested");
    let donated: u64 = out.donations.iter().map(|&d| d as u64).sum();
    let received: u64 = ledger.receipts.iter().map(|&r| r as u64).sum();
    assert_eq!(received, donated, "{name}: every transfer has a receiver");
    assert_eq!(donated, out.report.n_transfers, "{name}");
    assert_eq!(ledger.phases.len() as u64, out.report.n_lb, "{name}");
    let phase_transfers: u64 = ledger.phases.iter().map(|ph| ph.transfers).sum();
    assert_eq!(phase_transfers, out.report.n_transfers, "{name}");
    let phase_cost_p: u64 = ledger.phases.iter().map(|ph| ph.cost.total * cfg.p as u64).sum();
    assert_eq!(phase_cost_p, out.report.t_lb, "{name}: phase costs sum to T_lb");
    for ph in &ledger.phases {
        assert_eq!(
            (ph.cost.setup + ph.cost.transfer) * ph.cost.multiplier as u64,
            ph.cost.total,
            "{name}: exact cost attribution"
        );
        assert!(ph.rounds > 0, "{name}: abandoned fires leave no record");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Ring nearest-neighbour on every engine and under every cost model:
    /// the outcome is engine-invariant, each recorded phase is one
    /// neighbour step of `U_comm` (times the Table 5 multiplier) whatever
    /// the topology, a ring round that pairs nobody leaves no record, and
    /// the ledger reassembles `T_lb`.
    #[test]
    fn ring_nn_identical_across_engines_with_a_reconciled_ledger(
        seed in 0u64..5000,
        split in arb_split(),
        p_log in 0u32..9,
        cost in prop_oneof![
            Just(CostModel::cm2()),
            Just(CostModel::hypercube()),
            Just(CostModel::mesh().with_lb_multiplier(12)),
        ],
    ) {
        let tree = GeometricTree { seed, b_max: 8, depth_limit: 5 };
        let cfg = EngineConfig::new(1usize << p_log, Scheme::ring_nn(), cost)
            .with_split(split)
            .with_trace()
            .with_ledger();
        assert_all_engines_identical(&tree, &cfg);
        let out = run(&tree, &cfg);
        assert_ledger_reconciles("ring-NN", &cfg, &out);
        let step = cost.u_comm * cost.lb_multiplier as u64;
        for ph in &out.ledger.as_ref().expect("recorded").phases {
            assert_eq!((ph.rounds, ph.cost.setup, ph.cost.total), (1, 0, step));
            assert!(ph.transfers > 0);
        }
    }

    /// Random geometric trees (shape varied too) × schemes × splits ×
    /// machine sizes × ledger on/off: every engine agrees
    /// outcome-for-outcome.
    #[test]
    fn engines_identical_on_random_geometric_trees(
        seed in 0u64..5000,
        scheme in arb_scheme(),
        split in arb_split(),
        p_log in 0u32..9,
        b_max in 2u32..9,
        depth_limit in 3u32..6,
        ledger in any::<bool>(),
    ) {
        let tree = GeometricTree { seed, b_max, depth_limit };
        let mut cfg =
            EngineConfig::new(1usize << p_log, scheme, CostModel::cm2()).with_split(split).with_trace();
        cfg.record_ledger = ledger;
        assert_all_engines_identical(&tree, &cfg);
    }

    /// Goal-bearing binomial trees, with and without the stop-on-goal
    /// early exit, with the ledger on and off.
    #[test]
    fn engines_identical_on_goal_trees(
        seed in 0u64..2000,
        scheme in arb_scheme(),
        stop_on_goal in any::<bool>(),
        p_log in 1u32..8,
        ledger in any::<bool>(),
    ) {
        let tree = BinomialTree::with_q(seed, 16, 4, 0.2);
        let mut cfg = EngineConfig::new(1usize << p_log, scheme, CostModel::cm2()).with_trace();
        cfg.stop_on_goal = stop_on_goal;
        cfg.record_ledger = ledger;
        assert_all_engines_identical(&tree, &cfg);
    }

    /// Thread-count determinism: the par engine's `Outcome` (metrics
    /// included) and boundary stream are identical under 1, 2 and 8
    /// workers — and identical to the serial macro engine's. The fan-out
    /// threshold is fuzzed alongside the worker count: forced fan-out
    /// (0), the engine's bar, and never (`u64::MAX`, every burst inline)
    /// are all latency choices, never schedule inputs.
    #[test]
    fn par_outcome_is_thread_count_invariant(
        seed in 0u64..3000,
        scheme in arb_scheme(),
        split in arb_split(),
        p_log in 0u32..10,
        min_work in prop_oneof![
            Just(0u64),
            Just(FAN_OUT_MIN_WORK),
            Just(u64::MAX),
        ],
    ) {
        let tree = GeometricTree { seed, b_max: 8, depth_limit: 5 };
        let base = EngineConfig::new(1usize << p_log, scheme, CostModel::cm2())
            .with_split(split)
            .with_trace()
            .with_ledger();
        let serial = streamed(&base, |c| run(&tree, c));
        for threads in [1usize, 2, 8] {
            let par = streamed(&base, |c| par_at(&tree, c, threads, min_work));
            let label = format!("{} threads={threads} min_work={min_work}", scheme.name());
            assert_same_run(&label, &par, &serial);
        }
    }

    /// Generated (`uts-synthgen`) trees: nodes are hash-chain states, not
    /// stored boards, so this axis also differentials the on-the-fly
    /// expansion against the reference oracle — both families, random
    /// schemes × splits × machine sizes, plus worker counts {1, 2, 8}
    /// against the serial macro engine.
    #[test]
    fn engines_identical_on_generated_trees(
        tree in arb_gen_tree(),
        scheme in arb_scheme(),
        split in arb_split(),
        p_log in 0u32..9,
    ) {
        let cfg = EngineConfig::new(1usize << p_log, scheme, CostModel::cm2())
            .with_split(split)
            .with_trace()
            .with_ledger();
        assert_all_engines_identical(&tree, &cfg);
        let serial = run(&tree, &cfg);
        for threads in [1usize, 2, 8] {
            let par = par_at(&tree, &cfg, threads, 0);
            assert_eq!(par, serial, "generated tree, threads={threads}");
        }
    }
}

/// Non-property spot check: every Table 1 scheme at P=256 through the
/// dispatcher, so a regression names the scheme and engine that diverged.
#[test]
fn table1_schemes_identical_across_engines_at_p256() {
    let tree = GeometricTree { seed: 29, b_max: 8, depth_limit: 6 };
    for (name, scheme) in Scheme::table1(0.75) {
        let cfg = EngineConfig::new(256, scheme, CostModel::cm2()).with_trace().with_ledger();
        let reference = run_reference(&tree, &cfg);
        for kind in [EngineKind::Macro, EngineKind::Par] {
            let got = run_with(&tree, &cfg.clone().with_engine(kind));
            assert_eq!(got, reference, "{name}/{}", kind.name());
        }
    }
}

/// The init phase (dynamic triggers balance every cycle until 85% of PEs
/// hold work) forces single-cycle macro-steps; the par engine must walk it
/// identically at a P large enough that init dominates.
#[test]
fn par_handles_the_init_phase_at_large_p() {
    let tree = GeometricTree { seed: 41, b_max: 6, depth_limit: 6 };
    let cfg = EngineConfig::new(1024, Scheme::gp_dk(), CostModel::cm2()).with_trace().with_ledger();
    let reference = run_reference(&tree, &cfg);
    for threads in [1usize, 2, 8] {
        assert_eq!(par_at(&tree, &cfg, threads, 0), reference);
    }
}

/// Large-W sweep (run with `--ignored`; roughly a minute of work): a
/// target-sized multi-million-node generated tree through every engine
/// and worker counts {1, 2, 8}. The quick-tier fuzz above caps
/// trees at a few thousand nodes, so this is the only in-repo proof that
/// the hash-chain generation stays bit-identical deep into the steady
/// state where balancing horizons span many cycles. (uts-bench's
/// `utsgen_scale` release test extends the same identity to >= 10^8
/// nodes.)
#[test]
#[ignore = "large-W sweep; run with `cargo test -- --ignored`"]
fn engines_identical_on_a_multimillion_node_generated_tree() {
    let sized = simd_tree_search::synthgen::find_gen_tree(2_000_000, 0.3, 8);
    let tree = sized.tree;
    let cfg = EngineConfig::new(1024, Scheme::gp_dk(), CostModel::cm2()).with_ledger();
    let reference = run_reference(&tree, &cfg);
    assert_eq!(reference.report.nodes_expanded, sized.w, "anomaly-free contract");
    for kind in [EngineKind::Macro, EngineKind::Par] {
        let got = run_with(&tree, &cfg.clone().with_engine(kind));
        assert_eq!(got, reference, "{} diverged at W={}", kind.name(), sized.w);
    }
    for threads in [1usize, 2, 8] {
        let got = run_with(&tree, &cfg.clone().with_engine(EngineKind::Par).with_threads(threads));
        assert_eq!(got, reference, "par threads={threads} diverged at W={}", sized.w);
    }
}

/// [`assert_ledger_reconciles`] over every Table 1 scheme.
#[test]
fn ledger_reconciles_with_the_machine_accounting() {
    let tree = GeometricTree { seed: 17, b_max: 8, depth_limit: 6 };
    for (name, scheme) in Scheme::table1(0.8) {
        let cfg = EngineConfig::new(128, scheme, CostModel::cm2()).with_ledger();
        assert_ledger_reconciles(name, &cfg, &run(&tree, &cfg));
    }
}

/// Exhaustive tier: a dense deterministic cross-product — every Table 1
/// scheme plus the static extremes, every split policy, a spread of seeds
/// and machine sizes, every engine bit-identical. Far too slow for the
/// default `cargo test` (debug) run, so it hides behind `#[ignore]`; CI
/// runs it in a dedicated `--ignored` job, and locally:
///
/// ```text
/// cargo test --release --test engine_differential -- --ignored
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
                    assert_all_engines_identical(&tree, &cfg);
                }
            }
        }
    }
}
