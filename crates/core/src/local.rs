//! The in-process search phase: [`LocalBackend`] runs the bursts of the
//! macro-step loop ([`crate::driver`]) over an in-process [`StackArena`],
//! on the calling thread or fanned out over scoped host threads. Its only
//! knob is that thread count; [`run`] is the loop over it at one thread.
//!
//! # Event-horizon bursts
//!
//! A per-cycle loop pays a full checkpoint — census, trigger evaluation,
//! machine accounting — after *every* expansion cycle, even though for
//! most cycles the trigger provably cannot fire. All three trigger
//! families are pure functions of the active-count step trace `A(t)`, and
//! `A(t)` can only fall between balancing phases (a PE whose stack holds
//! `s` nodes cannot go idle for at least `s` cycles). The loop turns the
//! stack-size distribution into a sound lower bound `H >= 1` on the
//! cycles before the trigger could fire *effectively*
//! (`driver::compute_horizon`), and the backend runs every
//! active PE's DFS in a tight per-PE inner loop
//! ([`uts_tree::SearchStack::expand_burst`]) for `min(H, cycles-to-empty)`
//! consecutive expansions. Each PE's whole burst runs on a cache-hot
//! stack, and the lockstep census/accounting for the batch is
//! reconstructed *exactly* from the per-PE empty-times: a PE that drained
//! after `e` cycles worked cycles `1..=e` of the batch, so sorting the
//! (few) death events yields the per-cycle worked counts as a handful of
//! constant runs. `N_expand`, `N_lb`, `T_idle`, the active trace, goal
//! counts, donation counts and the phase log all stay bit-identical to
//! [`crate::reference::run_reference`] (enforced by the equivalence and
//! horizon-soundness suites under `tests/`). A one-cycle horizon runs the
//! fused single-cycle pass (`engine::fused_expansion_cycle`), so
//! a run with no batching opportunity costs the same as sweeping cycle by
//! cycle.
//!
//! # Fan-out
//!
//! Within one macro step the per-PE bursts are independent by
//! construction — each touches only its own PE's chain — which makes the
//! batch embarrassingly parallel on the host. With two or more threads, a
//! burst of at least [`FAN_OUT_MIN_WORK`] PE-cycles cuts the dense sorted
//! active-PE list into contiguous **jobs** (about four per worker, so
//! stragglers on skewed trees are absorbed by idle workers instead of
//! stalling the join), publishes them in a fixed order, and lets the
//! threads claim them off an atomic cursor. Every cut falls on a block
//! boundary of the arena, so each job owns a run of whole blocks
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
//! and runs on the calling thread between bursts, at any thread count.
//! The one atomic (the claim cursor) orders nothing but job pickup; no
//! worker observes another worker's state, and no floating-point
//! reassociation exists, so the schedule cannot depend on thread count or
//! interleaving even in principle.
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
//! block — run inline (DESIGN.md §6.4 gives the bar's derivation).

use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use uts_ckpt::StackSource;
use uts_tree::{BlockRun, StackArena, TreeProblem};

use crate::driver::{BurstBackend, LockstepDriver, MergedBurst};
use crate::engine::{
    burst_slice, expansion_burst, EngineConfig, EngineKind, Outcome, Resume, SliceBurst,
};

/// The smallest `started_PEs × horizon` product a [`LocalBackend`] of two
/// or more threads fans a burst out for. Below it the burst runs inline on
/// the calling thread; the schedule is identical either way, so the bar is
/// purely a latency choice. [`EngineConfig::threads`] is likewise *only* a
/// worker count: setting it does not force fan-out. Suites that need the
/// fanned-out path on small trees build a [`LocalBackend`] with a bar of
/// `0`.
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

/// The host threads `cfg`'s lockstep engine bursts on: one for
/// [`EngineKind::Macro`]; for [`EngineKind::Par`] the config knob, else one
/// per available core (which `taskset` and cgroup quotas narrow).
pub(crate) fn resolve_threads(cfg: &EngineConfig) -> usize {
    match cfg.engine {
        EngineKind::Par => cfg
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .max(1),
        _ => 1,
    }
}

/// Run `problem` to exhaustion (or first goal) under `cfg` with the
/// macro-step loop over a one-thread [`LocalBackend`] — the default
/// engine ([`EngineKind::Macro`]), whatever `cfg.engine` says. Its
/// schedule is bit-identical to [`crate::reference::run_reference`].
pub fn run<P: TreeProblem>(problem: &P, cfg: &EngineConfig) -> Outcome {
    run_local(problem, cfg, 1, None)
}

/// The macro-step loop over a [`LocalBackend`] of `threads`, from the root
/// or from a restored boundary.
pub(crate) fn run_local<P: TreeProblem>(
    problem: &P,
    cfg: &EngineConfig,
    threads: usize,
    resume: Option<Resume<P::Node>>,
) -> Outcome {
    let (driver, arena) = match resume {
        None => LockstepDriver::at_root(problem, cfg),
        Some(resume) => LockstepDriver::resumed(cfg, resume),
    };
    driver.run_to_end(LocalBackend::new(problem, arena, threads, FAN_OUT_MIN_WORK))
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

/// The in-process search phase: [`expansion_burst`] over a [`StackArena`]
/// on the calling thread, or — with two or more threads, for a burst of at
/// least the bar's PE-cycles spanning two or more blocks — cut into jobs of
/// whole arena blocks claimed by `threads` participants of one
/// [`std::thread::scope`].
pub struct LocalBackend<'a, P: TreeProblem> {
    problem: &'a P,
    arena: StackArena<P::Node>,
    threads: usize,
    min_work: u64,
    /// Per-job scratch, persistent across macro-steps.
    shards: Vec<ShardScratch>,
    /// The last burst's job boundaries ([`job_cuts`]).
    cuts: Vec<usize>,
}

impl<'a, P: TreeProblem> LocalBackend<'a, P> {
    /// A backend searching `problem` over `arena` with `threads` host
    /// threads (the caller's included), fanning out bursts of at least
    /// `min_work` PE-cycles (the engines pass [`FAN_OUT_MIN_WORK`]).
    pub fn new(problem: &'a P, arena: StackArena<P::Node>, threads: usize, min_work: u64) -> Self {
        Self { problem, arena, threads, min_work, shards: Vec::new(), cuts: Vec::new() }
    }

    /// The burst on the calling thread.
    fn burst_inline(&mut self, h: u64, active: &mut Vec<usize>, out: &mut MergedBurst) -> usize {
        out.reset(active.len());
        let stats = expansion_burst(
            self.problem,
            &mut self.arena,
            active,
            h,
            &mut out.goals,
            &mut out.peak_stack_nodes,
            &mut out.deaths,
        );
        stats.busy
    }
}

impl<P: TreeProblem> BurstBackend for LocalBackend<'_, P> {
    type Node = P::Node;
    type Error = Infallible;
    type Store = StackArena<P::Node>;

    fn lens(&self) -> &[u32] {
        self.arena.lens()
    }

    fn store(&mut self) -> &mut Self::Store {
        &mut self.arena
    }

    fn burst(
        &mut self,
        h: u64,
        active: &mut Vec<usize>,
        out: &mut MergedBurst,
    ) -> Result<usize, Infallible> {
        let started = active.len();
        if self.threads < 2 || started < 2 || (started as u64) * h < self.min_work {
            return Ok(self.burst_inline(h, active, out));
        }
        let jobs = (self.threads.min(started) * JOBS_PER_WORKER).min(started);
        job_cuts(&self.arena, active, jobs, &mut self.cuts);
        let jobs = self.cuts.len();
        if jobs < 2 {
            return Ok(self.burst_inline(h, active, out));
        }
        out.reset(started);
        let problem = self.problem;
        let workers = self.threads.min(jobs);
        if self.shards.len() < jobs {
            self.shards.resize_with(jobs, ShardScratch::default);
        }
        // Job `k` takes the blocks below cut `k` that the jobs before it
        // left, and the active PEs in them: a contiguous slice of the
        // sorted list. The runs are disjoint `&mut` borrows of the arena,
        // whichever worker claims which job.
        let mut queue: Vec<Mutex<Option<Job<'_, P::Node>>>> = Vec::with_capacity(jobs);
        let mut run = self.arena.blocks_mut();
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
        Ok(StackSource::Arena(&self.arena))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;
    use uts_machine::CostModel;
    use uts_synth::GeometricTree;
    use uts_tree::serial_dfs;

    /// The loop over a [`LocalBackend`] at `threads` with the fan-out bar
    /// at `min_work` (`0` forces the fanned-out path on trees too small to
    /// cross the bar).
    fn local_at(
        tree: &GeometricTree,
        cfg: &EngineConfig,
        threads: usize,
        min_work: u64,
    ) -> Outcome {
        let (driver, arena) = LockstepDriver::at_root(tree, cfg);
        driver.run_to_end(LocalBackend::new(tree, arena, threads, min_work))
    }

    #[test]
    fn macro_steps_partition_the_run() {
        let tree = GeometricTree { seed: 9, b_max: 8, depth_limit: 6 };
        for scheme in [Scheme::gp_dk(), Scheme::gp_static(0.75), Scheme::fegs()] {
            let cfg = EngineConfig::new(64, scheme, CostModel::cm2()).with_horizon_log();
            let out = run(&tree, &cfg);
            assert!(!out.macro_steps.is_empty());
            let mut cursor = 0u64;
            for step in &out.macro_steps {
                assert_eq!(step.start_cycle, cursor, "{}", scheme.name());
                assert!(step.ran >= 1 && step.ran <= step.horizon);
                cursor += step.ran;
            }
            assert_eq!(cursor, out.report.n_expand, "{}", scheme.name());
        }
    }

    #[test]
    fn horizon_batching_actually_batches() {
        // Sanity that the horizon does something: on a serial run (P=1)
        // the horizon is the stack size, so macro-steps must be far fewer
        // than cycles.
        let tree = GeometricTree { seed: 2, b_max: 8, depth_limit: 6 };
        let w = serial_dfs(&tree).expanded;
        let cfg = EngineConfig::new(1, Scheme::gp_dk(), CostModel::cm2()).with_horizon_log();
        let out = run(&tree, &cfg);
        assert_eq!(out.report.n_expand, w);
        assert!(
            (out.macro_steps.len() as u64) * 2 < w,
            "{} steps for {} cycles",
            out.macro_steps.len(),
            w
        );
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
    fn resolve_threads_reads_the_knob_only_for_par() {
        let cfg = EngineConfig::new(4, Scheme::gp_dk(), CostModel::cm2()).with_threads(3);
        assert_eq!(resolve_threads(&cfg), 1, "macro runs on one thread");
        assert_eq!(resolve_threads(&cfg.with_engine(EngineKind::Par)), 3);
    }

    #[test]
    fn fanned_out_bursts_match_one_thread_at_several_thread_counts() {
        let tree = GeometricTree { seed: 21, b_max: 8, depth_limit: 6 };
        let base = EngineConfig::new(64, Scheme::gp_dk(), CostModel::cm2()).with_trace();
        let serial = run(&tree, &base);
        for threads in [1usize, 2, 8] {
            assert_eq!(local_at(&tree, &base, threads, 0), serial, "threads={threads}");
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
        let threads = resolve_threads(&base.clone().with_engine(EngineKind::Par));
        for min_work in [0u64, FAN_OUT_MIN_WORK, u64::MAX] {
            assert_eq!(local_at(&tree, &base, threads, min_work), serial, "min_work={min_work}");
        }
    }
}
