//! Fan-out lifecycle: the parallel engine spawns scoped threads per burst
//! and must leave none behind on *any* exit path — normal exhaustion,
//! goal-stop early exit, `max_cycles` truncation, and checkpoint-kill
//! fault injection. The scope joins every thread before a burst returns,
//! so this holds by construction; these tests observe it anyway, by
//! counting the process's live fan-out threads (named `uts-fan-*` under
//! `/proc/self/task`) before and after runs (Linux-only observation; the
//! suite is a no-op elsewhere). Every run fans each burst out (a bar of
//! `0`), at one worker and at several.
//!
//! The count is process-wide and the harness runs this file's tests on
//! parallel threads, so every test holds [`serial`] for its whole body: a
//! sibling's fan-out must never be alive between a test's two samples.
//! Counting by name keeps the harness's own threads — it starts the next
//! test's thread while this one still runs — out of the observation.

use std::sync::{Mutex, MutexGuard, PoisonError};

use simd_tree_search::core::{LockstepDriver, PooledBackend};
use simd_tree_search::prelude::*;
use simd_tree_search::synth::{BinomialTree, GeometricTree};
use simd_tree_search::tree::StackArena;
use uts_ckpt::{CheckpointPolicy, FaultPlan};

/// The file-level lock every test takes first. A failed sibling poisons
/// it; the `()` inside cannot be left invalid, so the guard is recovered.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Live fan-out threads of this process, or `None` where unobservable.
fn os_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    // A task can exit between the listing and the read; it is not a
    // fan-out thread any more then.
    Some(
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("uts-fan-"))
            .count(),
    )
}

/// Assert `f` leaves no fan-out threads behind. The baseline is sampled
/// right before the closure (zero, under [`serial`]), so any surplus
/// afterwards is a leaked thread.
fn assert_no_leaked_threads(label: &str, f: impl FnOnce()) {
    let Some(before) = os_threads() else {
        f();
        return; // not observable on this platform; still exercise the path
    };
    f();
    // Joined threads can take a beat to vanish from procfs.
    for _ in 0..50 {
        if os_threads() == Some(before) {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("{label}: thread count {:?} never returned to {before}", os_threads());
}

fn geo(seed: u64) -> GeometricTree {
    GeometricTree { seed, b_max: 8, depth_limit: 6 }
}

fn config(p: usize, scheme: Scheme) -> EngineConfig {
    EngineConfig::new(p, scheme, CostModel::cm2())
}

/// `run_par` at `threads` with every burst fanned out — fresh, or resumed
/// from an encoded snapshot. A pooled backend with a bar of `0`: these
/// trees are small, and `run_par`'s bar would keep most bursts inline.
fn forced_par<P: TreeProblem>(
    tree: &P,
    cfg: &EngineConfig,
    threads: usize,
    snapshot: Option<&[u8]>,
) -> Outcome {
    let (driver, arena) = match snapshot {
        None => {
            let mut arena = StackArena::new(cfg.p);
            arena.push_frame_with(0, |frame| frame.push(tree.root()));
            (LockstepDriver::fresh(cfg), arena)
        }
        Some(bytes) => {
            let decoded = EngineSnapshot::decode(bytes, config_fingerprint(cfg)).expect("decodes");
            let (driver, stacks) = LockstepDriver::restore(cfg, decoded);
            (driver, StackArena::from_stacks(stacks))
        }
    };
    let Ok(out) = driver.drive(&mut PooledBackend::new(tree, arena, threads, 0));
    out
}

#[test]
fn pool_joins_on_normal_outcome_return() {
    let _serial = serial();
    for threads in [1usize, 4] {
        assert_no_leaked_threads(&format!("normal exit, {threads} threads"), || {
            let out = forced_par(&geo(3), &config(64, Scheme::gp_dk()), threads, None);
            assert!(!out.truncated && !out.killed);
        });
    }
}

#[test]
fn pool_joins_on_goal_stop_early_exit() {
    let _serial = serial();
    // A goal-bearing tree with stop_on_goal: the run breaks out of the
    // macro-step loop mid-search; no fan-out thread may outlive it.
    let tree = BinomialTree::with_q(9, 64, 4, 0.22);
    for threads in [1usize, 4] {
        assert_no_leaked_threads(&format!("goal-stop, {threads} threads"), || {
            let mut cfg = config(16, Scheme::gp_static(0.8));
            cfg.stop_on_goal = true;
            let out = forced_par(&tree, &cfg, threads, None);
            assert!(out.goals > 0, "workload must actually hit a goal");
        });
    }
}

#[test]
fn pool_joins_on_checkpoint_kill() {
    let _serial = serial();
    for threads in [1usize, 4] {
        assert_no_leaked_threads(&format!("checkpoint-kill, {threads} threads"), || {
            let cfg = config(64, Scheme::gp_dk())
                .with_checkpoint(CheckpointPolicy::every(1))
                .with_fault(FaultPlan::kill_at(3));
            let out = forced_par(&geo(3), &cfg, threads, None);
            assert!(out.killed, "fault plan must fire");
        });
    }
}

#[test]
fn pool_joins_on_truncation() {
    let _serial = serial();
    assert_no_leaked_threads("max_cycles truncation", || {
        let mut cfg = config(64, Scheme::gp_dk());
        cfg.max_cycles = Some(5);
        let out = forced_par(&geo(5), &cfg, 4, None);
        assert!(out.truncated);
    });
}

#[test]
fn repeated_runs_do_not_accumulate_threads() {
    let _serial = serial();
    // Every burst's threads are joined with the burst: fifty back-to-back
    // fanned-out runs must end at the baseline thread count.
    assert_no_leaked_threads("fifty fanned-out runs", || {
        let cfg = config(64, Scheme::gp_dk());
        let first = forced_par(&geo(7), &cfg, 4, None);
        for _ in 0..49 {
            assert_eq!(forced_par(&geo(7), &cfg, 4, None), first, "runs are deterministic");
        }
    });
}

#[test]
fn single_worker_runs_spawn_no_pool_at_all() {
    let _serial = serial();
    let Some(before) = os_threads() else { return };
    forced_par(&geo(3), &config(64, Scheme::gp_dk()), 1, None);
    assert_eq!(os_threads(), Some(before), "threads=1 must not spawn workers");
}

/// The killed partial outcome and the resumed completion are both
/// produced with every burst fanned out at several worker counts;
/// everything must be bit-identical to the serial macro engine's
/// uninterrupted run.
#[test]
fn kill_resume_under_the_pool_matches_serial_at_every_thread_count() {
    let _serial = serial();
    let tree = geo(11);
    let base = config(64, Scheme::gp_dk()).with_ledger();
    let straight = run(&tree, &base);
    for threads in [1usize, 2, 8] {
        let armed = base
            .clone()
            .with_checkpoint(CheckpointPolicy::every(2))
            .with_fault(FaultPlan::kill_at(4));
        let dead = forced_par(&tree, &armed, threads, None);
        assert!(dead.killed, "threads={threads}");
        let snaps = armed.checkpoint.as_ref().unwrap().sink.taken();
        let resumed = forced_par(&tree, &base, threads, Some(&snaps.last().unwrap().bytes));
        assert_eq!(resumed, straight, "threads={threads}");
    }
}
