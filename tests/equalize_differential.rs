//! Phase-level differential for FEGS equalisation: one balancing phase
//! over a *crafted* ensemble, run through [`LockstepDriver::balance`] over
//! a [`StackArena`] and through the reference oracle's own naive
//! `equalize`, must leave the same stacks frame for frame and the same
//! donations, receipts, rounds, transfers and peak.
//!
//! The whole-run suites (`engine_differential`, `engine_equivalence`) only
//! ever see the ensembles a tree search produces from one root. Here the
//! ensemble is the input: totals below, at and far above `P` (target 1,
//! where only idle PEs receive, through targets where receivers already
//! hold work), donors exactly one node over target, crowds of single-node
//! PEs, all work on the last PE — the cases that decide whether the
//! driver's incremental active list and busy count stay equal to a recount
//! (which `balancing_phase` also asserts in debug builds).
//!
//! Both sides start from one hand-built [`EngineSnapshot`] over a problem
//! whose every node is a leaf, so the expansion cycle that precedes the
//! phase pops each PE's sacrificial top node and pushes nothing: the phase
//! sees exactly the stacks below. The driver side steps the public stage
//! API by hand; the oracle side resumes the snapshot under
//! [`EngineKind::Reference`] with a kill at the first boundary and reads
//! the stacks back out of that boundary's snapshot.
//!
//! Seeded counterexamples persist under `proptest-regressions/` and
//! replay before the random cases.

use proptest::prelude::*;
use simd_tree_search::ckpt::{MachineState, RecorderState};
use simd_tree_search::core::{expansion_burst, LockstepDriver, MergedBurst, StepStatus};
use simd_tree_search::prelude::*;
use simd_tree_search::tree::StackArena;

/// Every node is a leaf.
struct Leaves;

impl TreeProblem for Leaves {
    type Node = u64;

    fn root(&self) -> u64 {
        0
    }

    fn expand(&self, _: &u64, _: &mut impl Children<u64>) {}
}

const SIZES: [usize; 6] = [1, 2, 3, 64, 1000, 4096];
const SHAPES: u8 = 6;

/// SplitMix64, so an ensemble is a pure function of its seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn within(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

/// Per-PE stack lengths as the balancing phase should find them.
fn phase_lens(rng: &mut Mix, p: usize, shape: u8) -> Vec<usize> {
    let mut lens = vec![0usize; p];
    match shape {
        // Total below P: target 1, so only idle PEs receive.
        0 => {
            for _ in 0..p / 8 + 1 {
                lens[rng.within(0, p - 1)] = rng.within(1, 7);
            }
        }
        // Total exactly P, in lumps, most PEs idle.
        1 => {
            let mut left = p;
            while left > 0 {
                let lump = rng.within(1, left.min(9));
                lens[rng.within(0, p - 1)] += lump;
                left -= lump;
            }
        }
        // Total far above P: targets of 3–6, receivers that hold work.
        2 => {
            for len in &mut lens {
                *len = if rng.within(0, 3) == 0 { 0 } else { rng.within(1, 12) };
            }
        }
        // Everyone at t or t + 1 but a few idle PEs, few enough donors
        // that the target stays t: every donor is exactly one node over.
        3 => {
            let t = rng.within(2, 4);
            let idle = rng.within(1, p / 8 + 1).min(p);
            lens.fill(t);
            for _ in 0..idle {
                lens[rng.within(0, p - 1)] = 0;
            }
            let idle = lens.iter().filter(|&&l| l == 0).count();
            for _ in 0..rng.within(0, (t * idle).min(p - idle)) {
                let i = rng.within(0, p - 1);
                if lens[i] == t {
                    lens[i] += 1;
                }
            }
        }
        // A crowd of single-node PEs (never donors; receivers once the
        // target passes 1) around a few heavy ones.
        4 => {
            for len in &mut lens {
                *len = (rng.within(0, 2) != 0) as usize;
            }
            for _ in 0..p / 16 + 1 {
                lens[rng.within(0, p - 1)] = rng.within(2, 40);
            }
        }
        // All work on the last PE.
        _ => lens[p - 1] = rng.within(2, 3 * p + 5),
    }
    lens
}

/// A stack of `len` distinct nodes cut into frames of 1–4, under one
/// sacrificial single-node top frame for the expansion cycle to pop. Half
/// the PEs that should reach the phase idle start with just that node, so
/// they are on the active list going into the cycle and must leave it.
fn stack_for(rng: &mut Mix, pe: usize, len: usize) -> SearchStack<u64> {
    let id = |k: usize| (pe as u64) << 24 | k as u64;
    let mut frames = Vec::new();
    let mut k = 0;
    while k < len {
        let width = rng.within(1, 4).min(len - k);
        frames.push((k..k + width).map(id).collect());
        k += width;
    }
    if len > 0 || rng.within(0, 1) == 0 {
        frames.push(vec![id(len)]);
    }
    SearchStack::from_frames(frames)
}

/// The boundary-0 snapshot of a run whose stacks are `stacks`.
fn snapshot_over(cfg: &EngineConfig, stacks: Vec<SearchStack<u64>>) -> EngineSnapshot<u64> {
    EngineSnapshot {
        step: 0,
        in_init: false,
        goals: 0,
        donations: vec![0; cfg.p],
        peak_stack_nodes: stacks.iter().map(SearchStack::len).max().unwrap_or(0),
        global_pointer: None,
        machine: MachineState::capture(&SimdMachine::new(cfg.p, cfg.cost)),
        recorder: cfg
            .record_ledger
            .then(|| RecorderState { receipts: vec![0; cfg.p], phases: Vec::new() }),
        macro_steps: Vec::new(),
        stacks,
    }
}

type AfterPhase = (Outcome, Vec<Vec<Vec<u64>>>);

fn frames_of(stacks: &[SearchStack<u64>]) -> Vec<Vec<Vec<u64>>> {
    stacks.iter().map(|s| s.frames().to_vec()).collect()
}

/// One macro step — cycle, trigger, phase — through the driver's public
/// stage API over an arena.
fn step_by_driver(cfg: &EngineConfig, snapshot: EngineSnapshot<u64>) -> AfterPhase {
    let (mut driver, stacks) = LockstepDriver::restore(cfg, snapshot);
    let mut arena = StackArena::from_stacks(stacks);
    let mut active = driver.active().to_vec();
    let h = driver.horizon(arena.lens());
    let (mut goals, mut peak, mut deaths) = (0u64, 0usize, Vec::new());
    let stats =
        expansion_burst(&Leaves, &mut arena, &mut active, h, &mut goals, &mut peak, &mut deaths);
    let burst = MergedBurst { started: stats.started, goals, peak_stack_nodes: peak, deaths };
    let reached_boundary = match driver.absorb_burst(h, arena.lens(), burst) {
        StepStatus::Done => false,
        StepStatus::Continue { fired } => {
            if fired {
                driver.balance(&mut arena);
            }
            driver.finish_boundary();
            true
        }
    };
    (driver.finish(reached_boundary), frames_of(&arena.into_stacks()))
}

/// The same macro step through the reference oracle: resume, die at the
/// first boundary, read that boundary's snapshot.
fn step_by_reference(cfg: &EngineConfig, snapshot: EngineSnapshot<u64>) -> AfterPhase {
    let armed = cfg
        .clone()
        .with_engine(EngineKind::Reference)
        .with_checkpoint(CheckpointPolicy::every(1))
        .with_fault(FaultPlan::kill_at(1));
    let outcome = resume_with(&Leaves, &armed, snapshot);
    if !outcome.killed {
        // The search drained inside the step: no boundary, no stacks left.
        return (outcome, vec![Vec::new(); cfg.p]);
    }
    let taken = armed.checkpoint.as_ref().expect("armed").sink.taken();
    let last = taken.last().expect("every-boundary policy snapshots the boundary it dies at");
    let after = EngineSnapshot::<u64>::decode(&last.bytes, config_fingerprint(cfg))
        .expect("the oracle's snapshot decodes under its config");
    (outcome, frames_of(&after.stacks))
}

/// Build the ensemble for `(seed, p, shape)`, run the step both ways and
/// compare; returns the transfers the phase made.
fn assert_phase_identical(seed: u64, p: usize, shape: u8, ledger: bool) -> u64 {
    let mut rng = Mix(seed);
    let lens = phase_lens(&mut rng, p, shape);
    let stacks: Vec<SearchStack<u64>> =
        lens.iter().enumerate().map(|(pe, &len)| stack_for(&mut rng, pe, len)).collect();
    let mut cfg = EngineConfig::new(p, Scheme::fegs(), CostModel::cm2());
    cfg.record_ledger = ledger;
    let snapshot = snapshot_over(&cfg, stacks);

    let (want, want_frames) = step_by_reference(&cfg, snapshot.clone());
    let (got, got_frames) = step_by_driver(&cfg, snapshot);
    assert_eq!(
        got, want,
        "P={p} shape={shape}: outcome (donations, ledger, rounds, peak) diverged"
    );
    assert_eq!(got_frames, want_frames, "P={p} shape={shape}: stacks diverged");
    if got.killed && got.report.n_expand == 1 {
        // One cycle popped the sacrificial nodes; the phase only moves.
        let held: usize = got_frames.iter().flatten().map(Vec::len).sum();
        assert_eq!(held, lens.iter().sum::<usize>(), "P={p} shape={shape}: nodes lost or made");
    }
    got.report.n_transfers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn one_fegs_phase_matches_the_oracle_on_crafted_ensembles(
        seed in any::<u64>(),
        size in 0usize..SIZES.len(),
        shape in 0u8..SHAPES,
        ledger in any::<bool>(),
    ) {
        assert_phase_identical(seed, SIZES[size], shape, ledger);
    }
}

/// The property above is not vacuous: at every multi-PE size each shape
/// really does equalise (a shape whose phases never moved a node would
/// compare two untouched ensembles).
#[test]
fn every_shape_moves_work_at_every_size() {
    for p in SIZES.into_iter().filter(|&p| p >= 2) {
        for shape in 0..SHAPES {
            let moved: u64 =
                (0..8).map(|seed| assert_phase_identical(seed, p, shape, seed % 2 == 0)).sum();
            assert!(moved > 0, "P={p} shape={shape}: no ensemble of 8 moved any work");
        }
    }
}
