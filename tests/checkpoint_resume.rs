//! Kill→resume differential fuzz for the checkpoint subsystem: a run that
//! checkpoints, dies at a macro-step boundary, and resumes from its last
//! snapshot must finish with the **full [`Outcome`]** (every counter,
//! donation vector, ledger record and goal count, compared with `==`) of
//! the run that was never interrupted. The property is held across random
//! scheme × machine-size × tree-shape configurations on all four engines,
//! across engine *boundaries* (a snapshot taken by one engine resumed
//! under another), across host worker counts, and through a chain of
//! repeated kills.
//!
//! The container format itself is exercised from the outside: every
//! snapshot a run produces must decode→re-encode bit-exactly, and each
//! way a snapshot can be unusable (foreign file, future format version,
//! storage corruption, truncation, wrong run configuration) must be
//! rejected with its own distinct [`CkptError`].
//!
//! Since the structure-of-arrays rework (DESIGN.md §6.3) the fused, macro
//! and par engines snapshot straight off the [`StackArena`]
//! (`StackSource::Arena`) while decode always yields frame-vector stacks,
//! so the whole suite doubles as a SoA↔frames differential; the dedicated
//! `soa_frames_soa_encode_is_bit_exact_through_the_codec` test pins the
//! conversion round trip against the codec explicitly.
//!
//! Seeded counterexamples persist under `proptest-regressions/` and
//! replay before the random cases.

use proptest::prelude::*;
use simd_tree_search::core::{LockstepDriver, PooledBackend};
use simd_tree_search::prelude::*;
use simd_tree_search::synth::GeometricTree;
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

/// Arm `cfg` with an every-boundary checkpoint policy and a kill at
/// `kill_at`, run it, and return the dead run's outcome plus its last
/// snapshot's bytes (`None` if the search finished before the kill point).
fn kill_run<P: TreeProblem>(
    tree: &P,
    cfg: &EngineConfig,
    kill_at: u64,
) -> (Outcome, Option<Vec<u8>>) {
    let armed = cfg
        .clone()
        .with_checkpoint(CheckpointPolicy::every(1))
        .with_fault(FaultPlan::kill_at(kill_at));
    let dead = run_with(tree, &armed);
    if !dead.killed {
        return (dead, None);
    }
    let snaps = armed.checkpoint.as_ref().expect("armed").sink.taken();
    let last = snaps.last().expect("every-boundary policy snapshots each step");
    assert_eq!(last.step, kill_at, "kill happens after the boundary's own snapshot");
    (dead, Some(last.bytes.clone()))
}

/// The core differential: straight run == killed-then-resumed run.
fn assert_kill_resume_identical<P: TreeProblem>(tree: &P, cfg: &EngineConfig, kill_at: u64) {
    let straight = run_with(tree, cfg);
    assert!(!straight.killed);
    let (dead, snapshot) = kill_run(tree, cfg, kill_at);
    let Some(bytes) = snapshot else {
        // The search finished before boundary `kill_at`: nothing to
        // resume, and the armed run must be the straight run.
        assert_eq!(dead, straight, "checkpointing must not perturb a finishing run");
        return;
    };
    let resumed = resume_from_bytes(tree, cfg, &bytes).expect("snapshot decodes under its config");
    assert_eq!(resumed, straight, "resume must be bit-identical to the uninterrupted run");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random trees × schemes × machine sizes × engines × kill points.
    #[test]
    fn kill_resume_is_bit_identical_on_random_configs(
        seed in 0u64..5000,
        scheme in arb_scheme(),
        p_log in 0u32..8,
        b_max in 2u32..8,
        depth_limit in 3u32..6,
        engine_idx in 0usize..4,
        kill_seed in 0u64..1000,
    ) {
        let tree = GeometricTree { seed, b_max, depth_limit };
        let cfg = EngineConfig::new(1usize << p_log, scheme, CostModel::cm2())
            .with_ledger()
            .with_engine(EngineKind::ALL[engine_idx]);
        let kill = FaultPlan::seeded(kill_seed, 12);
        assert_kill_resume_identical(&tree, &cfg, kill.kill_at_step);
    }

    /// Generated (`uts-synthgen`) trees ride the same container: their
    /// nodes are 12-byte `(state, depth)` records, so this doubles as a
    /// differential for the fixed-width `GenNode` codec under every
    /// engine × scheme × kill point. Both families are sampled
    /// (subcritical binomial: q·m < 0.88).
    #[test]
    fn kill_resume_is_bit_identical_on_generated_trees(
        gen_seed in 0u64..5000,
        geometric in any::<bool>(),
        scheme in arb_scheme(),
        p_log in 0u32..7,
        engine_idx in 0usize..4,
        kill_seed in 0u64..1000,
    ) {
        let tree = if geometric {
            GenTree::geometric(gen_seed, 6, 5)
        } else {
            GenTree::binomial(gen_seed, 12, 4, 0.21)
        };
        let cfg = EngineConfig::new(1usize << p_log, scheme, CostModel::cm2())
            .with_ledger()
            .with_engine(EngineKind::ALL[engine_idx]);
        let kill = FaultPlan::seeded(kill_seed, 12);
        assert_kill_resume_identical(&tree, &cfg, kill.kill_at_step);
    }

    /// Every snapshot a run produces decodes and re-encodes bit-exactly.
    #[test]
    fn snapshots_round_trip_bit_exactly(
        seed in 0u64..5000,
        scheme in arb_scheme(),
        p_log in 1u32..7,
    ) {
        let tree = GeometricTree { seed, b_max: 6, depth_limit: 5 };
        let cfg = EngineConfig::new(1usize << p_log, scheme, CostModel::cm2()).with_ledger();
        let armed = cfg.clone().with_checkpoint(CheckpointPolicy::every(1).and_on_trigger());
        let out = run_with(&tree, &armed);
        prop_assert!(!out.killed);
        let fp = config_fingerprint(&cfg);
        let snaps = armed.checkpoint.as_ref().expect("armed").sink.taken();
        for snap in &snaps {
            let decoded =
                EngineSnapshot::<<GeometricTree as TreeProblem>::Node>::decode(&snap.bytes, fp)
                    .expect("own snapshot decodes");
            prop_assert_eq!(decoded.step, snap.step);
            prop_assert_eq!(&decoded.encode(fp), &snap.bytes, "re-encode must be bit-equal");
        }
    }
}

/// A generated-tree run's snapshots decode and re-encode bit-exactly:
/// the 12-byte fixed-width `GenNode` record (`u64` chain state + `u32`
/// depth) survives the container at every boundary of a real run.
#[test]
fn generated_tree_snapshots_round_trip_bit_exactly() {
    type Node = <GenTree as TreeProblem>::Node;
    let tree = GenTree::binomial(7, 24, 4, 0.2);
    let cfg = EngineConfig::new(32, Scheme::gp_dk(), CostModel::cm2()).with_ledger();
    let armed = cfg.clone().with_checkpoint(CheckpointPolicy::every(1).and_on_trigger());
    let out = run_with(&tree, &armed);
    assert!(!out.killed);
    let fp = config_fingerprint(&cfg);
    let snaps = armed.checkpoint.as_ref().expect("armed").sink.taken();
    assert!(!snaps.is_empty(), "the run must cross at least one boundary");
    for snap in &snaps {
        let decoded =
            EngineSnapshot::<Node>::decode(&snap.bytes, fp).expect("own snapshot decodes");
        assert_eq!(
            decoded.encode(fp),
            snap.bytes,
            "step {}: re-encode must be bit-equal",
            snap.step
        );
    }
}

/// A snapshot taken by one engine resumes under any other: the schedule
/// (and therefore the snapshot) is engine-invariant, so every donor ×
/// resumer pair must reproduce the resumer's own uninterrupted outcome.
#[test]
fn snapshots_are_engine_invariant_across_all_pairs() {
    let tree = GeometricTree { seed: 11, b_max: 8, depth_limit: 6 };
    let base = EngineConfig::new(32, Scheme::gp_dk(), CostModel::cm2()).with_ledger();
    let straight: Vec<Outcome> =
        EngineKind::ALL.iter().map(|&e| run_with(&tree, &base.clone().with_engine(e))).collect();
    for &donor in EngineKind::ALL.iter() {
        let (_, bytes) = kill_run(&tree, &base.clone().with_engine(donor), 4);
        let bytes = bytes.expect("deep enough run to reach boundary 4");
        for (ri, &resumer) in EngineKind::ALL.iter().enumerate() {
            let resumed = resume_from_bytes(&tree, &base.clone().with_engine(resumer), &bytes)
                .expect("engine-invariant snapshot");
            assert_eq!(
                resumed, straight[ri],
                "snapshot from {donor:?} resumed under {resumer:?} diverged"
            );
        }
    }
}

/// The loop from `driver` over `arena` on a [`PooledBackend`] of
/// `threads` that fans every burst out (a bar of `0`; `run_par`'s own bar
/// would keep this small tree's bursts inline).
fn forced_par<P: TreeProblem>(
    tree: &P,
    driver: LockstepDriver,
    arena: StackArena<P::Node>,
    threads: usize,
) -> Outcome {
    let Ok(out) = driver.drive(&mut PooledBackend::new(tree, arena, threads, 0));
    out
}

/// Resuming the par engine is worker-count invariant: threads are a host
/// latency knob, never a schedule input — dying on an 8-thread host and
/// resuming on a single-threaded one changes nothing.
#[test]
fn par_resume_is_thread_count_invariant() {
    let tree = GeometricTree { seed: 23, b_max: 8, depth_limit: 6 };
    let base = EngineConfig::new(64, Scheme::fegs(), CostModel::cm2())
        .with_ledger()
        .with_engine(EngineKind::Par);
    let straight = run_with(&tree, &base);
    let armed =
        base.clone().with_checkpoint(CheckpointPolicy::every(1)).with_fault(FaultPlan::kill_at(3));
    let mut arena = StackArena::new(armed.p);
    arena.push_frame_with(0, |frame| frame.push(tree.root()));
    let dead = forced_par(&tree, LockstepDriver::fresh(&armed), arena, 8);
    assert!(dead.killed, "deep enough run to reach boundary 3");
    let snaps = armed.checkpoint.as_ref().expect("armed").sink.taken();
    let bytes = &snaps.last().expect("every-boundary policy snapshots each step").bytes;
    for threads in [1usize, 2, 8] {
        let snapshot =
            EngineSnapshot::decode(bytes, config_fingerprint(&base)).expect("valid snapshot");
        let (driver, stacks) = LockstepDriver::restore(&base, snapshot);
        let resumed = forced_par(&tree, driver, StackArena::from_stacks(stacks), threads);
        assert_eq!(resumed, straight, "par resume with {threads} threads diverged");
    }
}

/// A run that dies repeatedly — kill, resume, kill again, resume again —
/// still lands on the uninterrupted outcome: resumes compose.
#[test]
fn chain_of_kills_composes_to_the_straight_run() {
    let tree = GeometricTree { seed: 42, b_max: 8, depth_limit: 7 };
    let cfg = EngineConfig::new(32, Scheme::gp_dk(), CostModel::cm2()).with_ledger();
    let straight = run_with(&tree, &cfg);

    let mut bytes: Option<Vec<u8>> = None;
    // Boundary numbering continues across resumes, so kill steps are
    // global and strictly increasing.
    for &kill_at in &[2u64, 5, 9] {
        let armed = cfg
            .clone()
            .with_checkpoint(CheckpointPolicy::every(1))
            .with_fault(FaultPlan::kill_at(kill_at));
        let out = match &bytes {
            None => run_with(&tree, &armed),
            Some(b) => resume_from_bytes(&tree, &armed, b).expect("chain snapshot decodes"),
        };
        assert!(out.killed, "expected to die at boundary {kill_at}");
        let snaps = armed.checkpoint.as_ref().expect("armed").sink.taken();
        bytes = Some(snaps.last().expect("snapshots taken").bytes.clone());
    }
    let final_out = resume_from_bytes(&tree, &cfg, bytes.as_ref().expect("chain left a snapshot"))
        .expect("final resume");
    assert_eq!(final_out, straight, "three kills and three resumes must change nothing");
}

/// The SoA engines serialize a snapshot straight off the arena; a decoded
/// snapshot holds frame-vector stacks. Routing the decoded stacks through
/// a [`StackArena`] (frames → SoA → frames) and re-encoding must
/// reproduce the original container bit-exactly — the arena conversion is
/// lossless through the `SnapshotView` codec, in both directions, at
/// every boundary of a real run.
#[test]
fn soa_frames_soa_encode_is_bit_exact_through_the_codec() {
    type Node = <GeometricTree as TreeProblem>::Node;
    let tree = GeometricTree { seed: 17, b_max: 8, depth_limit: 6 };
    let cfg = EngineConfig::new(32, Scheme::gp_dk(), CostModel::cm2()).with_ledger();
    let armed = cfg.clone().with_checkpoint(CheckpointPolicy::every(1).and_on_trigger());
    let out = run_with(&tree, &armed);
    assert!(!out.killed);
    let fp = config_fingerprint(&cfg);
    let snaps = armed.checkpoint.as_ref().expect("armed").sink.taken();
    assert!(!snaps.is_empty());
    for snap in &snaps {
        let mut via_arena = EngineSnapshot::<Node>::decode(&snap.bytes, fp)
            .expect("arena-sourced snapshot decodes");
        via_arena.stacks = StackArena::from_stacks(via_arena.stacks).into_stacks();
        assert_eq!(
            via_arena.encode(fp),
            snap.bytes,
            "step {}: SoA→frames→SoA re-encode must be bit-equal",
            snap.step
        );
    }
}

/// Each way a snapshot can be unusable gets its own error: a foreign
/// file, a future format version, storage corruption, truncation, and a
/// config mismatch are *distinct* failures (validated in that order, so
/// e.g. a corrupt byte in a future-version file reports the version).
#[test]
fn snapshot_rejections_are_distinct() {
    type Node = <GeometricTree as TreeProblem>::Node;
    let tree = GeometricTree { seed: 11, b_max: 8, depth_limit: 6 };
    let cfg = EngineConfig::new(16, Scheme::gp_dk(), CostModel::cm2());
    let armed = cfg.clone().with_checkpoint(CheckpointPolicy::every(1));
    run_with(&tree, &armed);
    let fp = config_fingerprint(&cfg);
    let snaps = armed.checkpoint.as_ref().expect("armed").sink.taken();
    let bytes = snaps.last().expect("snapshots taken").bytes.clone();
    assert!(EngineSnapshot::<Node>::decode(&bytes, fp).is_ok());

    // Bad magic: not one of our files at all.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(EngineSnapshot::<Node>::decode(&bad, fp), Err(CkptError::BadMagic)));

    // Future format version (reported before the now-stale checksum).
    let mut bad = bytes.clone();
    bad[8] = 0xEE;
    assert!(matches!(
        EngineSnapshot::<Node>::decode(&bad, fp),
        Err(CkptError::UnsupportedVersion(_))
    ));

    // A flipped payload byte: storage corruption, caught by the checksum.
    let mut bad = bytes.clone();
    let mid = bytes.len() / 2;
    bad[mid] ^= 0x01;
    assert!(matches!(EngineSnapshot::<Node>::decode(&bad, fp), Err(CkptError::ChecksumMismatch)));

    // Truncated: the buffer ends before the declared structure does.
    assert!(matches!(
        EngineSnapshot::<Node>::decode(&bytes[..bytes.len() - 1], fp),
        Err(CkptError::Truncated)
    ));

    // An intact snapshot of some other run configuration.
    assert!(matches!(
        EngineSnapshot::<Node>::decode(&bytes, fp ^ 1),
        Err(CkptError::ConfigMismatch { .. })
    ));

    // And the end-to-end path surfaces the same rejection.
    let wrong = EngineConfig::new(32, Scheme::gp_dk(), CostModel::cm2());
    assert!(matches!(
        resume_from_bytes(&tree, &wrong, &bytes),
        Err(CkptError::ConfigMismatch { .. })
    ));
}
