//! The pooled backend: host-parallel event-horizon macro-steps.
//!
//! Within one macro-step the per-PE bursts of the inline backend
//! ([`crate::macrostep::InlineBackend`]) are independent by construction —
//! each touches only its own PE's chain — which makes the batch
//! embarrassingly parallel on the host. [`PooledBackend`] exploits this:
//! it cuts the dense sorted active-PE list into contiguous **jobs** (about
//! four per worker, so stragglers on skewed trees are absorbed by idle
//! workers instead of stalling the join), publishes them in a fixed order,
//! and lets worker threads claim them off an atomic cursor. Every cut falls
//! on a block boundary of the arena, so each job owns a run of whole blocks
//! ([`uts_tree::BlockRun`]): its PEs' node pools and its stretch of the
//! length census, through plain disjoint `&mut` borrows. Each job's bursts
//! compact the job's own slice of the list in place and run into job-local
//! scratch (death cycles, goal/peak totals), and the calling thread merges
//! the jobs back **in job order** after the join.
//!
//! **Determinism argument** (DESIGN.md §6.1). Only the *assignment* of
//! jobs to threads is dynamic; everything that reaches engine state is
//! fixed before any worker starts:
//!
//! * *job contents* — job `k` is a fixed contiguous slice of the sorted
//!   active list, computed serially from `(active, workers)` and the
//!   arena's block size; which thread runs it cannot change what it does;
//! * *kept active list* — jobs are contiguous slices of a sorted list,
//!   each compacted in place, so closing the gaps between them in job
//!   order *is* PE order;
//! * *death cycles* — sorted before the schedule reconstruction, so job
//!   arrival order is irrelevant
//!   ([`uts_machine::SimdMachine::expansion_cycles_with_deaths`] consumes
//!   the sorted multiset);
//! * *goal counts* — exact `u64` sums, commutative;
//! * *peak stack depth* — a max, commutative;
//! * *busy counts* — exact sums.
//!
//! Everything sequenced — horizon computation, schedule reconstruction,
//! the trigger checkpoint, and the whole balancing phase — is the loop's
//! ([`crate::driver`]) and runs on the calling thread between bursts,
//! exactly as over the inline backend. The one atomic (the claim cursor)
//! orders nothing but job pickup; no worker observes another worker's
//! state, and no floating-point reassociation exists, so the schedule
//! cannot depend on thread count or interleaving even in principle.
//!
//! A burst that fans out opens one [`std::thread::scope`]: `workers - 1`
//! scoped threads (named `uts-fan-{i}`) and the calling thread run the same
//! claim loop, and the scope joins them all before the burst returns. So no
//! thread outlives a burst — a macro-step boundary (trigger checkpoint,
//! balancing phase, snapshot, injected kill) always sees settled state,
//! and a participant's panic re-raises on the calling thread — by
//! construction, with no lifetime erasure and no shutdown protocol. Scratch
//! buffers persist across steps so a warmed-up step allocates little, and
//! bursts below [`FAN_OUT_MIN_WORK`] — or whose active PEs all sit in one
//! block — skip the fan-out entirely (DESIGN.md §6.4 gives the bar's
//! derivation).

use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use uts_ckpt::StackSource;
use uts_tree::{BlockRun, StackArena, TreeProblem};

use crate::driver::{BurstBackend, InProcess, LockstepDriver, MergedBurst};
use crate::engine::{burst_slice, EngineConfig, Outcome, Resume, SliceBurst};
use crate::macrostep::InlineBackend;

/// The smallest `started_PEs × horizon` product [`run_par`] fans a burst
/// out for. Below it the burst runs inline on the calling thread; the
/// schedule is identical either way, so the bar is purely a latency
/// choice. [`EngineConfig::threads`] is likewise *only* a worker count:
/// setting it does not force fan-out. Suites that need the fanned-out
/// path on small trees build a [`PooledBackend`] with a bar of `0`.
///
/// Measured, not modelled. A scoped spawn costs 16–51 µs per thread on
/// the 2-vCPU reference host (a persistent pool's condvar wake cost
/// 5–8 µs); at ~15–60 ns per node expansion, 4096 PE-cycles is 60–250 µs
/// of burst work, enough to amortise one spawn. On the `serve-churn`
/// benchmark (9 of its 27 jobs run `par` at 2 threads, P = 32–256)
/// scoped threads at the pool's old bar of 256 read +20 % `wall_s`
/// against the pool; at 4096 they read −15 % (0.783 → 0.664 s median,
/// lower in 10 of 10 pairs). `burst-deep`-shaped runs (P = 8192, long
/// horizons) clear either bar on nearly every step: par2 there read
/// 551 ms with the pool and 556 ms with this bar (10 pairs).
pub const FAN_OUT_MIN_WORK: u64 = 4096;

/// Jobs published per worker. More than one job per worker lets the claim
/// cursor rebalance skew (one PE's burst can dwarf another's on an
/// irregular tree); four keeps the per-job overhead negligible while
/// bounding any worker's idle tail at roughly a quarter of a job.
const JOBS_PER_WORKER: usize = 4;

/// Resolve the worker count: explicit config knob, else one worker per
/// available core (which `taskset` and cgroup quotas narrow).
pub(crate) fn resolve_threads(cfg: &EngineConfig) -> usize {
    cfg.threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1)
}

/// Job-local results of one job's burst pass, merged on the calling thread
/// afterwards. The death buffer persists across macro-steps.
#[derive(Default)]
struct ShardScratch {
    /// Active PEs the job ran.
    started: usize,
    /// Burst lengths of this job's PEs that drained mid-batch.
    deaths: Vec<u64>,
    cut: SliceBurst,
}

/// One published job: its slice of the active list (compacted in place by
/// the burst) and the run of whole blocks holding exactly those PEs.
type Job<'a, N> = (&'a mut [usize], BlockRun<'a, N>, &'a mut ShardScratch);

/// Where a fan-out over the sorted, non-empty `active` list cuts the
/// arena into (up to) `jobs` jobs: at the start of the block of every
/// `(active.len() / jobs)`-th active PE, then at `P`. Cuts are strictly
/// increasing, so every job owns a run of whole blocks holding at least one
/// active PE; PEs that share a block share a job.
fn job_cuts<N>(arena: &StackArena<N>, active: &[usize], jobs: usize, cuts: &mut Vec<usize>) {
    let first = arena.block_start(active[0]);
    cuts.clear();
    cuts.extend(
        (1..jobs)
            .map(|k| arena.block_start(active[k * active.len() / jobs]))
            .filter(|&cut| cut > first),
    );
    cuts.dedup();
    cuts.push(arena.p());
}

/// Run `problem` to exhaustion (or first goal) under `cfg`, fanning each
/// macro-step's bursts out across scoped host threads via dynamically
/// claimed jobs: the macro-step loop over [`PooledBackend`]. The
/// schedule — every counter, trace, donation vector and goal count — is
/// bit-identical to [`crate::macrostep::run`] at any thread count (see the
/// module docs for the argument, and `tests/engine_differential.rs` for
/// the enforcement).
pub fn run_par<P: TreeProblem>(problem: &P, cfg: &EngineConfig) -> Outcome {
    run_par_over(problem, cfg, LockstepDriver::at_root(problem, cfg))
}

pub(crate) fn run_par_from<P: TreeProblem>(
    problem: &P,
    cfg: &EngineConfig,
    resume: Resume<P::Node>,
) -> Outcome {
    run_par_over(problem, cfg, LockstepDriver::resumed(cfg, resume))
}

fn run_par_over<P: TreeProblem>(
    problem: &P,
    cfg: &EngineConfig,
    (driver, arena): InProcess<P::Node>,
) -> Outcome {
    driver.run_to_end(PooledBackend::new(problem, arena, resolve_threads(cfg), FAN_OUT_MIN_WORK))
}

/// The pooled search phase: the inline backend's bursts, cut into jobs of
/// whole arena blocks and claimed by `threads` participants of one
/// [`std::thread::scope`] per burst. A burst below the fan-out bar, one
/// whose active PEs all sit in one block, and every burst of a one-thread
/// backend run through the wrapped [`InlineBackend`] verbatim, so a
/// non-fanned-out `run_par` is the macro engine plus a branch.
pub struct PooledBackend<'a, P: TreeProblem> {
    inline: InlineBackend<'a, P>,
    threads: usize,
    min_work: u64,
    /// Per-job scratch, persistent across macro-steps.
    shards: Vec<ShardScratch>,
    /// The last burst's job boundaries ([`job_cuts`]).
    cuts: Vec<usize>,
}

impl<'a, P: TreeProblem> PooledBackend<'a, P> {
    /// A backend searching `problem` over `arena` with `threads` host
    /// threads (the caller's included), fanning out bursts of at least
    /// `min_work` PE-cycles ([`run_par`] passes [`FAN_OUT_MIN_WORK`]).
    pub fn new(problem: &'a P, arena: StackArena<P::Node>, threads: usize, min_work: u64) -> Self {
        Self {
            inline: InlineBackend::new(problem, arena),
            threads,
            min_work,
            shards: Vec::new(),
            cuts: Vec::new(),
        }
    }
}

impl<P: TreeProblem> BurstBackend for PooledBackend<'_, P> {
    type Node = P::Node;
    type Error = Infallible;
    type Store = StackArena<P::Node>;

    fn lens(&self) -> &[u32] {
        self.inline.lens()
    }

    fn store(&mut self) -> &mut Self::Store {
        self.inline.store()
    }

    fn burst(
        &mut self,
        h: u64,
        active: &mut Vec<usize>,
        out: &mut MergedBurst,
    ) -> Result<usize, Infallible> {
        let started = active.len();
        if self.threads < 2 || started < 2 || (started as u64) * h < self.min_work {
            return self.inline.burst(h, active, out);
        }
        let jobs = (self.threads.min(started) * JOBS_PER_WORKER).min(started);
        job_cuts(&self.inline.arena, active, jobs, &mut self.cuts);
        let jobs = self.cuts.len();
        if jobs < 2 {
            return self.inline.burst(h, active, out);
        }
        out.reset(started);
        let problem = self.inline.problem;
        let workers = self.threads.min(jobs);
        if self.shards.len() < jobs {
            self.shards.resize_with(jobs, ShardScratch::default);
        }
        // Job `k` takes the blocks below cut `k` that the jobs before it
        // left, and the active PEs in them: a contiguous slice of the
        // sorted list. The runs are disjoint `&mut` borrows of the arena,
        // whichever worker claims which job.
        let mut queue: Vec<Mutex<Option<Job<'_, P::Node>>>> = Vec::with_capacity(jobs);
        let mut run = self.inline.arena.blocks_mut();
        let mut rest: &mut [usize] = active;
        for (&cut, scr) in self.cuts.iter().zip(&mut self.shards) {
            let at = rest.partition_point(|&pe| pe < cut);
            let (slice, rest_next) = std::mem::take(&mut rest).split_at_mut(at);
            let (blocks, run_next) = run.split_at(cut);
            scr.started = slice.len();
            queue.push(Mutex::new(Some((slice, blocks, scr))));
            rest = rest_next;
            run = run_next;
        }

        // ---- claim loop: participants pull jobs off an atomic cursor.
        // ---- The calling thread claims too instead of idling, and the
        // ---- scope joins every spawned participant before it returns (so
        // ---- all borrows below are settled).
        let cursor = AtomicUsize::new(0);
        let claim = || loop {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            if k >= queue.len() {
                break;
            }
            let (slice, mut blocks, scr) =
                queue[k].lock().expect("job lock").take().expect("job claimed once");
            scr.deaths.clear();
            scr.cut = burst_slice(problem, h, slice, &mut blocks, &mut scr.deaths);
        };
        std::thread::scope(|s| {
            for i in 1..workers {
                std::thread::Builder::new()
                    .name(format!("uts-fan-{i}"))
                    .spawn_scoped(s, claim)
                    .expect("spawn fan-out thread");
            }
            claim();
        });
        drop(queue);

        // ---- merge jobs in job order == PE order (calling thread): close
        // ---- the gaps the drained PEs left between the jobs' compacted
        // ---- prefixes ----
        let (mut kept, mut job_start, mut busy) = (0usize, 0usize, 0usize);
        for scr in &self.shards[..jobs] {
            active.copy_within(job_start..job_start + scr.cut.kept, kept);
            kept += scr.cut.kept;
            job_start += scr.started;
            if h > 1 {
                out.deaths.extend_from_slice(&scr.deaths);
            }
            busy += scr.cut.busy;
            out.goals += scr.cut.totals.goals;
            out.peak_stack_nodes = out.peak_stack_nodes.max(scr.cut.totals.peak);
        }
        active.truncate(kept);
        Ok(busy)
    }

    fn stack_source(&mut self) -> Result<StackSource<'_, P::Node>, Infallible> {
        self.inline.stack_source()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::macrostep::run;
    use crate::scheme::Scheme;
    use uts_machine::CostModel;
    use uts_synth::GeometricTree;

    /// `run_par` at `threads` with the fan-out bar at `min_work` (`0`
    /// forces the fanned-out path on trees too small to cross the bar).
    fn par_at(tree: &GeometricTree, cfg: &EngineConfig, threads: usize, min_work: u64) -> Outcome {
        let (driver, arena) = LockstepDriver::at_root(tree, cfg);
        driver.run_to_end(PooledBackend::new(tree, arena, threads, min_work))
    }

    #[test]
    fn every_fanned_out_machine_cuts_into_two_or_more_jobs() {
        // The suites force fan-out at P = 2 .. 2^9 and the benchmark runs up
        // to P = 2^20. At every such P, a burst whose active PEs span the
        // machine must cut into at least two jobs of whole blocks, each
        // holding active PEs, at any thread count.
        for p_log in 1..=20 {
            let p = 1usize << p_log;
            let arena: StackArena<u64> = StackArena::new(p);
            let active: Vec<usize> = (0..p).step_by((p / 64).max(1)).collect();
            for threads in [2usize, 8] {
                let jobs = (threads.min(active.len()) * JOBS_PER_WORKER).min(active.len());
                let mut cuts = Vec::new();
                job_cuts(&arena, &active, jobs, &mut cuts);
                assert!(cuts.len() >= 2, "P={p} threads={threads}: {cuts:?}");
                assert_eq!(cuts.last(), Some(&p));
                let mut from = 0;
                for &cut in &cuts {
                    assert!(
                        cut == p || arena.block_start(cut) == cut,
                        "P={p}: {cut} splits a block"
                    );
                    assert!(active.iter().any(|&pe| (from..cut).contains(&pe)), "P={p}: empty job");
                    from = cut;
                }
            }
        }
    }

    #[test]
    fn resolve_threads_prefers_the_config_knob() {
        let cfg = EngineConfig::new(4, Scheme::gp_dk(), CostModel::cm2()).with_threads(3);
        assert_eq!(resolve_threads(&cfg), 3);
    }

    #[test]
    fn par_matches_macro_at_several_thread_counts() {
        let tree = GeometricTree { seed: 21, b_max: 8, depth_limit: 6 };
        let base = EngineConfig::new(64, Scheme::gp_dk(), CostModel::cm2()).with_trace();
        let serial = run(&tree, &base);
        for threads in [1usize, 2, 8] {
            assert_eq!(par_at(&tree, &base, threads, 0), serial, "threads={threads}");
        }
    }

    #[test]
    fn fan_out_threshold_is_a_latency_knob_not_a_schedule_input() {
        // Any threshold — always-fan-out (0), the default, and
        // effectively-never (u64::MAX) — must yield the identical Outcome;
        // threads are auto-detected here so the heuristic actually runs.
        let tree = GeometricTree { seed: 33, b_max: 8, depth_limit: 6 };
        let base = EngineConfig::new(128, Scheme::gp_dk(), CostModel::cm2()).with_trace();
        let serial = run(&tree, &base);
        let threads = resolve_threads(&base);
        for min_work in [0u64, FAN_OUT_MIN_WORK, u64::MAX] {
            assert_eq!(par_at(&tree, &base, threads, min_work), serial, "min_work={min_work}");
        }
    }

    #[test]
    fn par_single_worker_takes_the_inline_path_with_identical_steps() {
        let tree = GeometricTree { seed: 5, b_max: 8, depth_limit: 6 };
        let cfg = EngineConfig::new(32, Scheme::gp_static(0.75), CostModel::cm2())
            .with_horizon_log()
            .with_threads(1);
        let par = run_par(&tree, &cfg);
        let serial = run(&tree, &cfg);
        assert_eq!(par.macro_steps, serial.macro_steps);
        assert_eq!(par, serial);
    }
}
