//! Worker-pool lifecycle: the parallel engine spawns its persistent pool
//! once per run and must join it deterministically on *every* exit path —
//! normal exhaustion, goal-stop early exit, `max_cycles` truncation, and
//! checkpoint-kill fault injection. No leaked or wedged workers: these
//! tests count the process's live pool workers (threads named
//! `uts-pool-*` under `/proc/self/task`) before and after runs
//! (Linux-only observation; the suite is a no-op elsewhere), and CI runs
//! them under `RAYON_NUM_THREADS ∈ {1, 4}` so both the no-pool and the
//! pooled regime are exercised ambiently.
//!
//! The count is process-wide and the harness runs this file's tests on
//! parallel threads, so every test holds [`serial`] for its whole body: a
//! sibling's pool must never be alive between a test's two samples.
//! Counting by name keeps the harness's own threads — it starts the next
//! test's thread while this one still runs — out of the observation.

use std::sync::{Mutex, MutexGuard, PoisonError};

use simd_tree_search::prelude::*;
use simd_tree_search::synth::{BinomialTree, GeometricTree};
use uts_ckpt::{CheckpointPolicy, FaultPlan};
use uts_core::WorkerPool;

/// The file-level lock every test takes first. A failed sibling poisons
/// it; the `()` inside cannot be left invalid, so the guard is recovered.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Live pool worker threads of this process, or `None` where unobservable.
fn os_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    // A task can exit between the listing and the read; it is not a
    // pool worker any more then.
    Some(
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("uts-pool-"))
            .count(),
    )
}

/// Assert `f` leaves no pool workers behind. The baseline is sampled
/// right before the closure (zero, under [`serial`]), so any surplus
/// afterwards is a leaked pool worker.
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

/// A config whose fan-out threshold is zeroed, so every multi-worker run
/// in this suite genuinely wakes the pool rather than staying inline
/// (these trees are small; the tuned default would skip most bursts).
fn forced(p: usize, scheme: Scheme) -> EngineConfig {
    EngineConfig::new(p, scheme, CostModel::cm2()).with_fan_out_min_work(0)
}

#[test]
fn pool_joins_on_normal_outcome_return() {
    let _serial = serial();
    for threads in [1usize, 4] {
        assert_no_leaked_threads(&format!("normal exit, {threads} threads"), || {
            let cfg = forced(64, Scheme::gp_dk()).with_threads(threads);
            let out = run_par(&geo(3), &cfg);
            assert!(!out.truncated && !out.killed);
        });
    }
}

#[test]
fn pool_joins_on_goal_stop_early_exit() {
    let _serial = serial();
    // A goal-bearing tree with stop_on_goal: the run breaks out of the
    // macro-step loop mid-search; the pool must still join.
    let tree = BinomialTree::with_q(9, 64, 4, 0.22);
    for threads in [1usize, 4] {
        assert_no_leaked_threads(&format!("goal-stop, {threads} threads"), || {
            let mut cfg = forced(16, Scheme::gp_static(0.8)).with_threads(threads);
            cfg.stop_on_goal = true;
            let out = run_par(&tree, &cfg);
            assert!(out.goals > 0, "workload must actually hit a goal");
        });
    }
}

#[test]
fn pool_joins_on_checkpoint_kill() {
    let _serial = serial();
    for threads in [1usize, 4] {
        assert_no_leaked_threads(&format!("checkpoint-kill, {threads} threads"), || {
            let cfg = forced(64, Scheme::gp_dk())
                .with_threads(threads)
                .with_checkpoint(CheckpointPolicy::every(1))
                .with_fault(FaultPlan::kill_at(3));
            let out = run_par(&geo(3), &cfg);
            assert!(out.killed, "fault plan must fire");
        });
    }
}

#[test]
fn pool_joins_on_truncation() {
    let _serial = serial();
    assert_no_leaked_threads("max_cycles truncation", || {
        let mut cfg = forced(64, Scheme::gp_dk()).with_threads(4);
        cfg.max_cycles = Some(5);
        let out = run_par(&geo(5), &cfg);
        assert!(out.truncated);
    });
}

#[test]
fn repeated_runs_do_not_accumulate_threads() {
    let _serial = serial();
    // One pool per run, joined per run: fifty back-to-back pooled runs
    // must end at the baseline thread count, not baseline + 50·workers.
    assert_no_leaked_threads("fifty pooled runs", || {
        let cfg = forced(64, Scheme::gp_dk()).with_threads(4);
        let first = run_par(&geo(7), &cfg);
        for _ in 0..49 {
            assert_eq!(run_par(&geo(7), &cfg), first, "runs are deterministic");
        }
    });
}

#[test]
fn single_worker_runs_spawn_no_pool_at_all() {
    let _serial = serial();
    let Some(before) = os_threads() else { return };
    let cfg = EngineConfig::new(64, Scheme::gp_dk(), CostModel::cm2()).with_threads(1);
    run_par(&geo(3), &cfg);
    assert_eq!(os_threads(), Some(before), "threads=1 must not spawn workers");
}

#[test]
fn bare_pool_drop_is_deterministic_shutdown() {
    let _serial = serial();
    assert_no_leaked_threads("bare pool create/drop", || {
        for _ in 0..10 {
            let pool = WorkerPool::new(4);
            assert_eq!(pool.workers(), 4);
            assert!(pool.is_quiescent());
            pool.dispatch(&|| {});
            assert!(pool.is_quiescent());
        }
    });
}

/// The killed partial outcome and the resumed completion are both
/// produced with pools in play at several worker counts; everything must
/// be bit-identical to the serial macro engine's uninterrupted run.
#[test]
fn kill_resume_under_the_pool_matches_serial_at_every_thread_count() {
    let _serial = serial();
    let tree = geo(11);
    let base = forced(64, Scheme::gp_dk()).with_ledger();
    let straight = run(&tree, &base);
    for threads in [1usize, 2, 8] {
        let cfg = base.clone().with_threads(threads).with_engine(EngineKind::Par);
        let armed = cfg
            .clone()
            .with_checkpoint(CheckpointPolicy::every(2))
            .with_fault(FaultPlan::kill_at(4));
        let dead = run_with(&tree, &armed);
        assert!(dead.killed, "threads={threads}");
        let snaps = armed.checkpoint.as_ref().unwrap().sink.taken();
        let resumed = resume_from_bytes(&tree, &cfg, &snaps.last().unwrap().bytes)
            .unwrap_or_else(|e| panic!("threads={threads}: {e}"));
        assert_eq!(resumed, straight, "threads={threads}");
    }
}
