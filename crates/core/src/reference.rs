//! The pre-optimization engine loop, kept verbatim as an executable oracle.
//!
//! [`run_reference`] is the straightforward transcription of Sec. 2: every
//! cycle it sweeps **all** `P` processor slots (idle ones included),
//! collects per-PE results into a fresh vector, then runs a second O(P)
//! census sweep to count busy/idle processors and rebuild the matching
//! flags. It is deliberately unoptimized, and deliberately *not* built on
//! the macro-step loop of [`crate::driver`]: every executor of that loop
//! must produce a **bit-identical schedule** (same `Report`, same
//! donations, same traces) while doing strictly less work per cycle; the
//! property tests in `tests/engine_equivalence.rs` and the `engine_cycle`
//! benchmark hold them to that.
//!
//! The only deviation from the seed loop is shared with the other engines:
//! FEGS equalization merges donated chunks with
//! [`uts_tree::SearchStack::merge_from`], preserving the donation's frame
//! structure instead of flattening it into one frame (the old behaviour
//! lost the level boundaries that split policies and `depth()` rely on).

use std::io;

use uts_ckpt::StackSource;
use uts_tree::{CkptNode, SearchStack, SplitPolicy, TreeProblem};

use crate::ckpt::config_fingerprint;
use crate::driver::compute_horizon;
use crate::engine::{
    checkpoint_trigger, EngineConfig, EngineKind, EngineState, LedgerRecorder, Outcome,
};
use crate::scheme::TransferMode;

/// Per-processor state: the DFS stack plus a per-cycle child buffer.
struct Pe<N> {
    stack: SearchStack<N>,
    children: Vec<N>,
}

/// What one processor did in one expansion cycle.
#[derive(Clone, Copy, Default)]
struct CycleResult {
    worked: bool,
    goals: u64,
}

/// Run `problem` under `cfg` with the reference (two-sweep, allocating)
/// loop. Produces the same [`Outcome`] as [`crate::local::run`]. It is
/// [`crate::run_from`] the root, panicking on its error.
pub fn run_reference<P: TreeProblem>(problem: &P, cfg: &EngineConfig) -> Outcome {
    crate::run_from(problem, &cfg.clone().with_engine(EngineKind::Reference), None)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The oracle loop from boundary state `st` over `stacks`, to the end. A
/// snapshot the sink could not write ends it with that write's error.
pub(crate) fn run_stacks<P: TreeProblem>(
    problem: &P,
    cfg: &EngineConfig,
    mut st: EngineState,
    stacks: Vec<SearchStack<P::Node>>,
) -> io::Result<Outcome> {
    let mut pes: Vec<Pe<P::Node>> =
        stacks.into_iter().map(|stack| Pe { stack, children: Vec::new() }).collect();
    let mut killed = false;

    let mut busy_flags = vec![false; cfg.p];
    let mut idle_flags = vec![false; cfg.p];

    // Ledger recording and checkpointing both replay the macro-step loop's
    // horizon schedule so per-phase provenance records and snapshot
    // boundaries stay engine-invariant: a window of `window_h` cycles is
    // certified at each macro-step boundary, and horizon soundness
    // guarantees no effective fire before the window's final checkpoint —
    // this loop's per-cycle trigger evaluation inside the window is
    // provably inert (and is what witnesses that soundness). All of this
    // is skipped when both are off. The oracle keeps no active list, so it
    // derives one at each macro-step boundary — O(P), irrelevant here.
    let track = st.recorder.is_some() || cfg.checkpoint.is_some();
    let mut lens_scratch: Vec<u32> = vec![0; cfg.p];
    let mut size_hist: Vec<u32> = Vec::new();
    let mut count_ge: Vec<u32> = Vec::new();
    let mut window_h = 0u64;
    let mut h_remaining = 0u64;

    loop {
        if track {
            if h_remaining == 0 {
                // The oracle keeps wrapped stacks, no dense length mirror;
                // build one at each boundary — O(P), irrelevant here.
                let mut active_len = 0usize;
                for (i, pe) in pes.iter().enumerate() {
                    let len = pe.stack.len();
                    lens_scratch[i] = len as u32;
                    active_len += (len > 0) as usize;
                }
                window_h = compute_horizon(
                    cfg,
                    &st.machine,
                    active_len,
                    st.in_init,
                    &lens_scratch,
                    &mut size_hist,
                    &mut count_ge,
                );
                h_remaining = window_h;
            }
            h_remaining -= 1;
        }

        // ---- one lockstep expansion cycle (all P slots, idle included) ----
        let cycle: Vec<CycleResult> = pes.iter_mut().map(|pe| step_pe(problem, pe)).collect();
        let worked = cycle.iter().filter(|c| c.worked).count();
        st.goals += cycle.iter().map(|c| c.goals).sum::<u64>();
        st.machine.expansion_cycle(worked);

        // ---- census (second full O(P) sweep) ----
        // Runs before the early-exit checks so `peak_stack_nodes` covers the
        // final cycle too, matching the fused pass (which computes the
        // census inside the expansion pass). Census touches no machine
        // state, so the schedule is unaffected.
        let mut busy = 0usize;
        let mut idle = 0usize;
        let mut has_work = 0usize;
        for (i, pe) in pes.iter().enumerate() {
            let splittable = pe.stack.can_split();
            let empty = pe.stack.is_empty();
            busy_flags[i] = splittable;
            idle_flags[i] = empty;
            busy += splittable as usize;
            idle += empty as usize;
            has_work += (!empty) as usize;
            st.peak_stack_nodes = st.peak_stack_nodes.max(pe.stack.len());
        }

        if cfg.stop_on_goal && st.goals > 0 {
            break;
        }
        if has_work == 0 {
            break; // space exhausted
        }

        // ---- trigger (shared checkpoint logic) ----
        let fired = checkpoint_trigger(
            cfg,
            &st.machine,
            &mut st.in_init,
            busy,
            idle,
            window_h,
            &mut st.recorder,
        );
        if fired {
            debug_assert!(!track || h_remaining == 0, "effective fire inside a certified window");
            h_remaining = 0;

            // ---- load-balancing phase ----
            let mut rounds = 0u32;
            let mut transfers = 0u64;
            let mut receipts = st.recorder.as_mut().map(LedgerRecorder::receipts_mut);
            match cfg.scheme.transfers {
                TransferMode::Single => {
                    let pairs = st.matcher.match_round(&busy_flags, &idle_flags);
                    transfers += apply_pairs(
                        &mut pes,
                        &pairs,
                        cfg.split,
                        &mut st.donations,
                        &mut st.peak_stack_nodes,
                        receipts.as_deref_mut(),
                    );
                    rounds = u32::from(transfers > 0);
                }
                TransferMode::Multiple => loop {
                    refresh_flags(&pes, &mut busy_flags, &mut idle_flags);
                    if !busy_flags.iter().any(|&b| b) || !idle_flags.iter().any(|&i| i) {
                        break;
                    }
                    let pairs = st.matcher.match_round(&busy_flags, &idle_flags);
                    if pairs.is_empty() {
                        break;
                    }
                    transfers += apply_pairs(
                        &mut pes,
                        &pairs,
                        cfg.split,
                        &mut st.donations,
                        &mut st.peak_stack_nodes,
                        receipts.as_deref_mut(),
                    );
                    rounds += 1;
                },
                TransferMode::Equalize => {
                    rounds = equalize(
                        &mut pes,
                        &mut transfers,
                        &mut st.donations,
                        &mut st.peak_stack_nodes,
                        receipts,
                    );
                }
            }
            if rounds > 0 {
                st.machine.lb_phase(rounds, transfers);
            }
            if let Some(rec) = st.recorder.as_mut() {
                rec.settle(cfg, &st.machine, rounds, transfers);
            }
            // Reconciliation recount (oracle only): after the phase settles,
            // no stack — donor or receiver, at any point during the phase —
            // may have exceeded the running high-water mark. Transfers only
            // ever *move* nodes (a receiver peaks exactly when its transfer
            // lands, which `apply_pairs`/`equalize` observed; a donor only
            // shrinks), so a full recount must already be covered.
            #[cfg(debug_assertions)]
            for (i, pe) in pes.iter().enumerate() {
                debug_assert!(
                    pe.stack.len() <= st.peak_stack_nodes,
                    "peak_stack_nodes undercounts PE {i}: {} > {}",
                    pe.stack.len(),
                    st.peak_stack_nodes,
                );
            }
        }

        // ---- macro-step boundary (checkpoint + fault injection) ----
        if let Some(ck) = cfg.checkpoint.as_ref().filter(|_| h_remaining == 0) {
            st.step += 1;
            let dies = ck.boundary(st.step, || {
                let mut bytes = Vec::new();
                pes.iter().for_each(|pe| pe.stack.encode_node(&mut bytes));
                let stacks = StackSource::Encoded { p: cfg.p, bytes: &bytes };
                Ok::<_, io::Error>(st.capture::<P::Node>(config_fingerprint(cfg), stacks))
            })?;
            if dies {
                killed = true;
                break;
            }
        }
    }

    Ok(st.finish(killed))
}

fn step_pe<P: TreeProblem>(problem: &P, pe: &mut Pe<P::Node>) -> CycleResult {
    let Some(node) = pe.stack.pop_next() else {
        return CycleResult::default();
    };
    let mut goals = 0;
    if problem.is_goal(&node) {
        goals = 1;
    }
    pe.children.clear();
    problem.expand(&node, &mut pe.children);
    pe.stack.push_frame(std::mem::take(&mut pe.children));
    CycleResult { worked: true, goals }
}

fn refresh_flags<N>(pes: &[Pe<N>], busy: &mut [bool], idle: &mut [bool]) {
    for (i, pe) in pes.iter().enumerate() {
        busy[i] = pe.stack.can_split();
        idle[i] = pe.stack.is_empty();
    }
}

fn apply_pairs<N: Clone>(
    pes: &mut [Pe<N>],
    pairs: &[uts_scan::Pair],
    split: SplitPolicy,
    donations: &mut [u32],
    peak: &mut usize,
    mut receipts: Option<&mut [u32]>,
) -> u64 {
    let mut done = 0;
    for pair in pairs {
        debug_assert_ne!(pair.donor, pair.receiver);
        let donated = pes[pair.donor].stack.split(split);
        if let Some(stack) = donated {
            debug_assert!(pes[pair.receiver].stack.is_empty());
            pes[pair.receiver].stack = stack;
            donations[pair.donor] += 1;
            if let Some(r) = receipts.as_deref_mut() {
                r[pair.receiver] += 1;
            }
            *peak = (*peak).max(pes[pair.receiver].stack.len());
            done += 1;
        }
    }
    done
}

/// FEGS equalization, frame-preserving (see the module docs for why this
/// differs from the seed loop).
fn equalize<N: Clone>(
    pes: &mut [Pe<N>],
    transfers: &mut u64,
    donations: &mut [u32],
    peak: &mut usize,
    mut receipts: Option<&mut [u32]>,
) -> u32 {
    let p = pes.len();
    let total: usize = pes.iter().map(|pe| pe.stack.len()).sum();
    let target = total.div_ceil(p);
    let mut rounds = 0u32;
    let cap = 2 * (usize::BITS - p.leading_zeros()) + 4;
    while rounds < cap {
        let donors: Vec<usize> =
            (0..p).filter(|&i| pes[i].stack.len() > target && pes[i].stack.can_split()).collect();
        let receivers: Vec<usize> = (0..p).filter(|&i| pes[i].stack.len() < target).collect();
        if donors.is_empty() || receivers.is_empty() {
            break;
        }
        let mut moved_any = false;
        for (&d, &r) in donors.iter().zip(&receivers) {
            let excess = pes[d].stack.len() - target;
            let want = target - pes[r].stack.len();
            if let Some(chunk) = pes[d].stack.split_count(excess.min(want)) {
                pes[r].stack.merge_from(chunk);
                donations[d] += 1;
                if let Some(rc) = receipts.as_deref_mut() {
                    rc[r] += 1;
                }
                *transfers += 1;
                *peak = (*peak).max(pes[r].stack.len());
                moved_any = true;
            }
        }
        rounds += 1;
        if !moved_any {
            break;
        }
    }
    rounds
}
