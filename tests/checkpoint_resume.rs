//! Kill→resume differential fuzz for the checkpoint subsystem: a run that
//! checkpoints, dies at a macro-step boundary, and resumes from its last
//! snapshot must finish with the **full [`Outcome`]** (every counter,
//! donation vector, ledger record and goal count, compared with `==`) of
//! the run that was never interrupted. The property is held across random
//! scheme × machine-size × tree-shape configurations on every engine,
//! across engine *boundaries* (a snapshot taken by one engine resumed
//! under another), across host worker counts, and through a chain of
//! repeated kills.
//!
//! The container format itself is exercised from the outside: every
//! snapshot a run produces must decode→re-encode bit-exactly, one committed
//! snapshot (`tests/fixtures/snapshot_utsgen_p16_step3.bin`) pins the
//! format byte for byte, and each way a snapshot can be unusable (foreign
//! file, future format version, storage corruption, truncation, wrong run
//! configuration) must be rejected with its own distinct [`CkptError`].
//!
//! A snapshot has one decoded form: its stacks decode straight into the
//! [`StackArena`] the macro and par engines run on, and those engines
//! snapshot straight off it (`StackSource::Arena`). The reference oracle
//! keeps frame-vector stacks: it encodes them itself when it snapshots and
//! converts the arena once when it resumes, so every cross-engine resume
//! here doubles as a SoA↔frames differential; the dedicated
//! `soa_frames_soa_encode_is_bit_exact_through_the_codec` test pins that
//! conversion against the codec explicitly.
//!
//! Seeded counterexamples persist under `proptest-regressions/` and
//! replay before the random cases.

use std::path::Path;

use proptest::prelude::*;
use simd_tree_search::ckpt::fnv1a_64;
use simd_tree_search::core::{LocalBackend, LockstepDriver};
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
    let resumed = run_from(tree, cfg, Some(&bytes)).expect("snapshot decodes under its config");
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
        engine_idx in 0..EngineKind::ALL.len(),
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
        engine_idx in 0..EngineKind::ALL.len(),
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

    /// Ring nearest-neighbour through kill→resume: killed at a random
    /// boundary under one engine and resumed under another, it finishes
    /// with the uninterrupted run's outcome and outcome digest.
    #[test]
    fn ring_nn_kill_resume_is_bit_identical_across_engines(
        seed in 0u64..5000,
        split in prop_oneof![
            Just(SplitPolicy::Bottom),
            Just(SplitPolicy::Half),
            Just(SplitPolicy::Top),
        ],
        p_log in 0u32..8,
        kill_engine in 0..EngineKind::ALL.len(),
        resume_engine in 0..EngineKind::ALL.len(),
        kill_seed in 0u64..1000,
    ) {
        let tree = GeometricTree { seed, b_max: 8, depth_limit: 5 };
        let cfg = EngineConfig::new(1usize << p_log, Scheme::ring_nn(), CostModel::cm2())
            .with_split(split)
            .with_ledger();
        let straight = run_with(&tree, &cfg);
        let kill_cfg = cfg.clone().with_engine(EngineKind::ALL[kill_engine]);
        let kill = FaultPlan::seeded(kill_seed, 40);
        let (dead, snapshot) = kill_run(&tree, &kill_cfg, kill.kill_at_step);
        let finished = match snapshot {
            None => dead,
            Some(bytes) => {
                let resume_cfg = cfg.clone().with_engine(EngineKind::ALL[resume_engine]);
                run_from(&tree, &resume_cfg, Some(&bytes)).expect("snapshot decodes")
            }
        };
        prop_assert_eq!(outcome_digest(&finished), outcome_digest(&straight));
        prop_assert_eq!(finished, straight);
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
        let armed = cfg.clone().with_checkpoint(CheckpointPolicy::every(1));
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
    let armed = cfg.clone().with_checkpoint(CheckpointPolicy::every(1));
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
            let resumed = run_from(&tree, &base.clone().with_engine(resumer), Some(&bytes))
                .expect("engine-invariant snapshot");
            assert_eq!(
                resumed, straight[ri],
                "snapshot from {donor:?} resumed under {resumer:?} diverged"
            );
        }
    }
}

/// The loop from `driver` over `arena` on a [`LocalBackend`] of
/// `threads` that fans every burst out (a bar of `0`; the par engine's own
/// bar would keep this small tree's bursts inline).
fn forced_par<P: TreeProblem>(
    tree: &P,
    driver: LockstepDriver,
    arena: StackArena<P::Node>,
    threads: usize,
) -> Outcome {
    driver.drive(&mut LocalBackend::new(tree, arena, threads, 0)).expect("in-process run")
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
        let (driver, arena) = LockstepDriver::restore(&base, snapshot);
        let resumed = forced_par(&tree, driver, arena, threads);
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
            Some(b) => run_from(&tree, &armed, Some(b)).expect("chain snapshot decodes"),
        };
        assert!(out.killed, "expected to die at boundary {kill_at}");
        let snaps = armed.checkpoint.as_ref().expect("armed").sink.taken();
        bytes = Some(snaps.last().expect("snapshots taken").bytes.clone());
    }
    let final_out = run_from(&tree, &cfg, Some(bytes.as_ref().expect("chain left a snapshot")))
        .expect("final resume");
    assert_eq!(final_out, straight, "three kills and three resumes must change nothing");
}

/// The directory sink writes `ckpt-{step:08}.bin` at exactly the policy's
/// boundaries, on every engine, each file byte-identical to a memory sink's
/// snapshot of that boundary and renamed into place whole (no `.tmp` is left
/// behind); every file resumes the run bit-identically. A directory the sink
/// cannot write ends the in-process loop with an `io::Error` naming the
/// file, and `run_from` on every engine with that error as
/// `RunError::Checkpoint`. A sharded run's directory writes, and each of
/// its files resumed on two shards, are checked in `uts-shard`'s
/// `shard_differential`: a libtest binary like this one cannot serve as a
/// shard worker.
#[test]
fn directory_sink_writes_each_policy_boundary_once() {
    let tree = GeometricTree { seed: 42, b_max: 8, depth_limit: 7 };
    let cfg = EngineConfig::new(32, Scheme::gp_dk(), CostModel::cm2()).with_ledger();
    let armed = cfg.clone().with_checkpoint(CheckpointPolicy::every(1));
    let straight = run_with(&tree, &armed);
    let stream = armed.checkpoint.as_ref().expect("armed").sink.taken();
    let due: Vec<_> = stream.iter().filter(|s| s.step % 4 == 0).collect();
    assert!(due.len() >= 3, "run long enough for several policy boundaries");
    let file_of = |step: u64| format!("ckpt-{step:08}.bin");
    let into_dir = |dir: &Path, every| {
        cfg.clone()
            .with_checkpoint_cfg(CheckpointCfg::new(CheckpointPolicy::every(every)).into_dir(dir))
    };

    let root = std::env::temp_dir().join(format!("uts-ckpt-dir-sink-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for engine in EngineKind::ALL {
        let dir = root.join(format!("{engine:?}"));
        let out = run_with(&tree, &into_dir(&dir, 4).with_engine(engine));
        assert_eq!(out, straight, "{engine:?}: a directory sink must not perturb the run");
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .expect("the sink created its directory")
            .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
            .collect();
        names.sort();
        let expected: Vec<String> = due.iter().map(|s| file_of(s.step)).collect();
        assert_eq!(names, expected, "{engine:?}: one file per policy boundary, no .tmp left");
        for snap in &due {
            let bytes = std::fs::read(dir.join(file_of(snap.step))).expect("read snapshot");
            assert!(bytes == snap.bytes, "{engine:?}: boundary {} differs on disk", snap.step);
        }
    }
    for snap in &due {
        let bytes = std::fs::read(root.join("Macro").join(file_of(snap.step))).expect("read");
        let resumed = run_from(&tree, &cfg, Some(&bytes)).expect("own snapshot decodes");
        assert_eq!(resumed, straight, "resume from boundary {} diverged", snap.step);
    }

    // A regular file where the directory should be: the first write fails.
    let blocker = root.join("file");
    std::fs::write(&blocker, b"").expect("write blocker");
    let bad = into_dir(&blocker.join("x"), 1);
    let mut arena = StackArena::new(bad.p);
    arena.push_frame_with(0, |frame| frame.push(tree.root()));
    let err = LockstepDriver::fresh(&bad)
        .drive(&mut LocalBackend::new(&tree, arena, 1, 0))
        .expect_err("an unwritable directory stops the run");
    assert!(err.to_string().contains(&file_of(1)), "the error names the file: {err}");
    for engine in EngineKind::ALL {
        match run_from(&tree, &bad.clone().with_engine(engine), None) {
            Err(RunError::Checkpoint(err)) => {
                assert!(err.to_string().contains(&file_of(1)), "{engine:?} names the file: {err}");
            }
            other => panic!("{engine:?}: expected RunError::Checkpoint, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&root).expect("clean up");
}

/// The SoA engines serialize a snapshot straight off the arena, and a
/// decoded snapshot holds an arena again. Routing the decoded arena through
/// the oracle's frame-vector stacks (SoA → frames → SoA, the conversion the
/// reference engine makes when it resumes) and re-encoding must reproduce
/// the original container bit-exactly, at every boundary of a real run.
#[test]
fn soa_frames_soa_encode_is_bit_exact_through_the_codec() {
    type Node = <GeometricTree as TreeProblem>::Node;
    let tree = GeometricTree { seed: 17, b_max: 8, depth_limit: 6 };
    let cfg = EngineConfig::new(32, Scheme::gp_dk(), CostModel::cm2()).with_ledger();
    let armed = cfg.clone().with_checkpoint(CheckpointPolicy::every(1));
    let out = run_with(&tree, &armed);
    assert!(!out.killed);
    let fp = config_fingerprint(&cfg);
    let snaps = armed.checkpoint.as_ref().expect("armed").sink.taken();
    assert!(!snaps.is_empty());
    for snap in &snaps {
        let mut via_arena = EngineSnapshot::<Node>::decode(&snap.bytes, fp)
            .expect("arena-sourced snapshot decodes");
        via_arena.stacks = StackArena::from_stacks(via_arena.stacks.into_stacks());
        assert_eq!(
            via_arena.encode(fp),
            snap.bytes,
            "step {}: SoA→frames→SoA re-encode must be bit-equal",
            snap.step
        );
    }
}

/// The snapshot format, pinned: boundary 3 of a small generated-tree run
/// (P = 16, GP-D^K, ledger and active trace on) as committed bytes.
/// Every engine must write exactly these bytes, decode→encode must
/// reproduce them, and resuming them under every engine must finish with
/// the uninterrupted outcome. The fixture changes only together with a
/// `FORMAT_VERSION` bump.
#[test]
fn snapshot_bytes_match_the_golden_fixture() {
    let golden = &include_bytes!("fixtures/snapshot_utsgen_p16_step3.bin")[..];
    let tree = GenTree::geometric(3, 6, 6);
    let cfg = EngineConfig::new(16, Scheme::gp_dk(), CostModel::cm2()).with_ledger().with_trace();
    let fp = config_fingerprint(&cfg);
    let decoded = EngineSnapshot::<<GenTree as TreeProblem>::Node>::decode(golden, fp)
        .expect("the fixture decodes under its config");
    assert_eq!(decoded.step, 3);
    assert!(decoded.stacks.lens().iter().filter(|&&len| len > 0).count() >= 2);
    assert_eq!(decoded.encode(fp), golden, "decode → encode must reproduce the fixture");
    for engine in EngineKind::ALL {
        let cfg = cfg.clone().with_engine(engine);
        let armed = cfg
            .clone()
            .with_checkpoint(CheckpointPolicy::every(3))
            .with_fault(FaultPlan::kill_at(3));
        assert!(run_with(&tree, &armed).killed, "{engine:?}");
        let snaps = armed.checkpoint.as_ref().expect("armed").sink.taken();
        assert_eq!(snaps.len(), 1, "{engine:?}");
        assert_eq!(snaps[0].bytes, golden, "{engine:?} must write the fixture's bytes");
        let resumed = run_from(&tree, &cfg, Some(golden)).expect("the fixture resumes");
        assert_eq!(resumed, run_with(&tree, &cfg), "{engine:?} resume of the fixture diverged");
    }
}

/// `bytes` with its payload swapped for `payload`, under a fresh header
/// and checksum: a well-sealed container around an edited payload, so the
/// payload decoder and not the checksum is what meets the edit.
fn reseal(bytes: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = bytes[..20].to_vec();
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let checksum = fnv1a_64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// A well-sealed snapshot whose stack section lies — about `P`, about the
/// donation vector, inside a stack, or after the last one — is refused
/// with a typed error by the decoder that fills the arena, never a panic.
#[test]
fn sealed_hostile_stack_sections_are_typed_errors() {
    type Node = <GenTree as TreeProblem>::Node;
    let golden = &include_bytes!("fixtures/snapshot_utsgen_p16_step3.bin")[..];
    let fp = config_fingerprint(
        &EngineConfig::new(16, Scheme::gp_dk(), CostModel::cm2()).with_ledger().with_trace(),
    );
    let decode = |payload: &[u8]| EngineSnapshot::<Node>::decode(&reseal(golden, payload), fp);
    let payload = &golden[28..golden.len() - 8];
    let stacks = decode(payload).expect("resealing the unedited payload").stacks;
    let mut encoded: Vec<Vec<u8>> = vec![Vec::new(); stacks.p()];
    (0..stacks.p()).for_each(|i| stacks.encode_pe(i, &mut encoded[i]));
    // The stack section, `P` and then the per-PE encodings, ends the payload.
    let head = &payload[..payload.len() - 8 - encoded.concat().len()];
    let section = |p: u64, pes: &[Vec<u8>], tail: &[u8]| {
        [head, &p.to_le_bytes(), &pes.concat(), tail].concat()
    };
    let empty_frame = [1u64.to_le_bytes(), 0u64.to_le_bytes()].concat();
    let cases = [
        // A `P` the remaining bytes cannot hold is refused before an arena
        // of that size exists (one would not fit in memory).
        (section(1 << 40, &encoded[..1], &[]), CkptError::Truncated),
        (section(0, &[], &[]), CkptError::Malformed("snapshot has no PE stacks")),
        (
            section(15, &encoded[..15], &[]),
            CkptError::Malformed("donation vector length differs from P"),
        ),
        (
            section(16, &encoded[..15], &empty_frame),
            CkptError::Malformed("search stack stores an empty frame"),
        ),
        (section(16, &encoded, &[0]), CkptError::Malformed("trailing payload bytes")),
    ];
    for (edited, want) in cases {
        assert_eq!(decode(&edited).map(|s| s.step).unwrap_err(), want);
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
        run_from(&tree, &wrong, Some(&bytes)),
        Err(RunError::Snapshot(CkptError::ConfigMismatch { .. }))
    ));
}
