//! The pooled backend: host-parallel event-horizon macro-steps.
//!
//! Within one macro-step the per-PE bursts of the inline backend
//! ([`crate::macrostep::InlineBackend`]) are independent by construction —
//! each touches only its own PE's slab — which makes the batch
//! embarrassingly parallel on the host. [`PooledBackend`] exploits this:
//! it cuts the dense sorted active-PE list into contiguous **work chunks**
//! (about four per worker, so stragglers on skewed trees are absorbed by
//! idle workers instead of stalling the join), publishes the chunk jobs in
//! a fixed order, and lets worker threads claim them off an atomic cursor.
//! Each chunk's bursts compact the chunk's own slice of the list in place
//! and run into chunk-local scratch (death cycles, goal/peak totals), and
//! the calling thread merges the chunks back **in chunk-index order**
//! after the join.
//!
//! **Determinism argument** (DESIGN.md §6.1). Only the *assignment* of
//! chunks to threads is dynamic; everything that reaches engine state is
//! fixed before any worker starts:
//!
//! * *chunk contents* — chunk `c` is a fixed contiguous slice of the
//!   sorted active list, computed serially from `(started, workers)`;
//!   which thread runs it cannot change what it does;
//! * *kept active list* — chunks are contiguous slices of a sorted list,
//!   each compacted in place, so closing the gaps between them in chunk
//!   order *is* PE order;
//! * *death cycles* — sorted before the schedule reconstruction, so chunk
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
//! Workers come from a **persistent pool** ([`crate::pool::WorkerPool`]):
//! `threads - 1` threads spawned once per backend, parked on a condvar
//! between bursts, and woken per macro-step through an epoch-stamped
//! dispatch cell — a wake costs microseconds where a spawn/join per step
//! costs a burst's worth (the `pool_dispatch` criterion group measures the
//! gap). Scratch buffers persist across steps so a warmed-up step
//! allocates little; with dispatch cheap, the census feeding the next
//! horizon runs on the pool too ([`crate::census::pooled_census`]); and
//! small batches still skip the fan-out entirely. The pool joins
//! deterministically when the backend drops — when the run returns, on
//! goal-stop early exit, and on checkpoint-kill alike (its `Drop` parks
//! then joins every worker; `tests/pool_lifecycle.rs` counts live pool
//! workers).

use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use uts_ckpt::StackSource;
use uts_tree::{PeSlab, StackArena, TreeProblem};

use crate::census::{build_hist, pooled_census, SliceCensus, POOLED_CENSUS_MIN_LENS};
use crate::driver::{BurstBackend, InProcess, LockstepDriver, MergedBurst};
use crate::engine::{burst_slice, EngineConfig, Outcome, Resume, SliceBurst};
use crate::macrostep::InlineBackend;
use crate::pool::WorkerPool;

/// Default for [`EngineConfig::fan_out_min_work`]: the minimum
/// `started_PEs × horizon` product worth waking the pool for when the
/// worker count was auto-detected. Below this the batch runs inline on
/// the calling thread; the schedule is identical either way, so the
/// threshold is purely a latency knob. [`EngineConfig::threads`] is
/// likewise *only* a worker count: setting it does not force sharding.
/// Suites that need the sharded path on trees far too small to cross
/// this bar force it with [`EngineConfig::with_fan_out_min_work`]`(0)`.
///
/// The constant is bench-derived: a pool dispatch (epoch bump + condvar
/// wake + completion join) measures in the low single-digit microseconds
/// on the `pool_dispatch` criterion group. At ~15–60 ns per node
/// expansion, 256 PE-cycles of burst work is the break-even neighbourhood;
/// batches smaller than that are dominated by the wake even on a warm
/// pool, while a higher bar would serialize the small-but-frequent bursts
/// of shallow trees (whose trigger fires every few cycles).
pub const DEFAULT_FAN_OUT_MIN_WORK: u64 = 256;

/// Chunks published per worker. More than one chunk per worker lets the
/// claim cursor rebalance skew (one PE's burst can dwarf another's on an
/// irregular tree); four keeps the per-chunk overhead negligible while
/// bounding any worker's idle tail at roughly a quarter of a chunk.
const CHUNKS_PER_WORKER: usize = 4;

/// Resolve the worker count: explicit config knob, else the conventional
/// `RAYON_NUM_THREADS` override, else one worker per available core.
pub(crate) fn resolve_threads(cfg: &EngineConfig) -> usize {
    cfg.threads
        .or_else(|| {
            std::env::var("RAYON_NUM_THREADS").ok().and_then(|s| s.parse().ok()).filter(|&n| n > 0)
        })
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1)
}

/// Chunk-local results of one chunk's burst pass, merged on the calling
/// thread afterwards. The death buffer persists across macro-steps.
#[derive(Default)]
struct ShardScratch {
    /// Burst lengths of this chunk's PEs that drained mid-batch.
    deaths: Vec<u64>,
    cut: SliceBurst,
}

/// One published chunk job: its slice of the active list (compacted in
/// place by the burst), the slice's PE-index re-base, and the disjoint
/// slab/lens windows covering exactly that index range.
type ChunkJob<'a, N> =
    (&'a mut [usize], usize, &'a mut [PeSlab<N>], &'a mut [u32], &'a mut ShardScratch);

/// Run `problem` to exhaustion (or first goal) under `cfg`, fanning each
/// macro-step's bursts out across host worker threads via dynamically
/// claimed work chunks: the macro-step loop over [`PooledBackend`]. The
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
    // The pool joins when the backend drops, before the `Outcome` leaves —
    // on normal exhaustion, goal-stop, truncation and checkpoint-kill alike.
    driver.run_to_end(PooledBackend::new(
        problem,
        arena,
        resolve_threads(cfg),
        cfg.fan_out_min_work,
    ))
}

/// The pooled search phase: the inline backend's bursts, cut into chunks
/// of the active list and claimed by the workers of a persistent
/// [`WorkerPool`] (spawned here once, woken per macro-step, parked in
/// between, joined on drop). A burst below the fan-out bar — and every
/// burst of a one-thread backend, which spawns no pool at all — runs
/// through the wrapped [`InlineBackend`] verbatim, so a non-fanned-out
/// `run_par` is the macro engine plus a branch. The census feeding the
/// horizon runs on the pool too when the ensemble is large enough to pay
/// for a dispatch.
pub struct PooledBackend<'a, P: TreeProblem> {
    inline: InlineBackend<'a, P>,
    pool: Option<WorkerPool>,
    fan_out_min_work: u64,
    /// Per-chunk scratch and the pooled census's per-slice scratch, both
    /// persistent across macro-steps.
    shards: Vec<ShardScratch>,
    census_slices: Vec<SliceCensus>,
}

impl<'a, P: TreeProblem> PooledBackend<'a, P> {
    /// A backend searching `problem` over `arena` with `threads` host
    /// threads (the caller's included), fanning out bursts of at least
    /// `fan_out_min_work` PE-cycles
    /// ([`EngineConfig::fan_out_min_work`]).
    pub fn new(
        problem: &'a P,
        arena: StackArena<P::Node>,
        threads: usize,
        fan_out_min_work: u64,
    ) -> Self {
        Self {
            inline: InlineBackend::new(problem, arena),
            pool: (threads > 1).then(|| WorkerPool::new(threads - 1)),
            fan_out_min_work,
            shards: Vec::new(),
            census_slices: Vec::new(),
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
        let pool = match &self.pool {
            Some(pool) if started >= 2 && started as u64 * h >= self.fan_out_min_work => pool,
            _ => return self.inline.burst(h, active, out),
        };
        out.reset(started);
        let problem = self.inline.problem;
        // At least two chunks always form here (`started >= 2`, and a pool
        // means at least two threads).
        let workers = (pool.workers() + 1).min(started);
        let nc = (workers * CHUNKS_PER_WORKER).min(started);
        if self.shards.len() < nc {
            self.shards.resize_with(nc, ShardScratch::default);
        }
        // Chunk `c` takes a contiguous slice of the sorted active list;
        // its PEs occupy the disjoint index range
        // `chunk[0] ..= chunk[len - 1]`, so slicing the arena's slab/lens
        // arrays at the next chunk's first PE hands every job a disjoint
        // `&mut` window — the windows are disjoint no matter which worker
        // claims which job.
        let base_size = started / nc;
        let extra = started % nc;
        let chunk_len = |c: usize| base_size + usize::from(c < extra);
        let (slabs_all, lens_all) = self.inline.arena.parts_mut();
        let mut jobs: Vec<Mutex<Option<ChunkJob<'_, P::Node>>>> = Vec::with_capacity(nc);
        let mut active_rest: &mut [usize] = active;
        let mut slabs_rest: &mut [PeSlab<P::Node>] = slabs_all;
        let mut lens_rest: &mut [u32] = lens_all;
        let mut base = 0usize;
        for (c, scr) in self.shards[..nc].iter_mut().enumerate() {
            let (chunk, active_next) = std::mem::take(&mut active_rest).split_at_mut(chunk_len(c));
            let cut = active_next.first().map_or(slabs_rest.len(), |&next| next - base);
            let (slabs_here, slabs_next) = std::mem::take(&mut slabs_rest).split_at_mut(cut);
            let (lens_here, lens_next) = std::mem::take(&mut lens_rest).split_at_mut(cut);
            jobs.push(Mutex::new(Some((chunk, base, slabs_here, lens_here, scr))));
            base += cut;
            active_rest = active_next;
            slabs_rest = slabs_next;
            lens_rest = lens_next;
        }

        // ---- claim loop: participants pull chunk jobs off an atomic
        // ---- cursor. One pool dispatch wakes the parked workers for
        // ---- this epoch; the calling thread claims too instead of
        // ---- idling, and the dispatch returns once every participant
        // ---- ran out of jobs (so all borrows below are settled).
        let cursor = AtomicUsize::new(0);
        {
            let jobs = &jobs;
            let cursor = &cursor;
            pool.dispatch(&move || loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                if k >= jobs.len() {
                    break;
                }
                let (chunk, base, slabs_w, lens_w, scr) =
                    jobs[k].lock().expect("job lock").take().expect("job claimed once");
                scr.deaths.clear();
                scr.cut = burst_slice(problem, h, chunk, base, slabs_w, lens_w, &mut scr.deaths);
            });
        }
        drop(jobs);

        // ---- merge chunks in chunk order == PE order (calling thread):
        // ---- close the gaps the drained PEs left between the chunks'
        // ---- compacted prefixes ----
        let (mut kept, mut chunk_start, mut busy) = (0usize, 0usize, 0usize);
        for (c, scr) in self.shards[..nc].iter().enumerate() {
            active.copy_within(chunk_start..chunk_start + scr.cut.kept, kept);
            kept += scr.cut.kept;
            chunk_start += chunk_len(c);
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

    fn size_hist(&mut self, hist: &mut Vec<u32>) {
        // Pool-parallel slice reductions combined in fixed slice order
        // instead of one serial sweep, so the horizon computation stops
        // being a serial tail between bursts. Identical result either way
        // (exact integer reductions, fixed combine order; see
        // `census::pooled_census`), so the schedule cannot observe the
        // choice.
        let lens = self.inline.arena.lens();
        match &self.pool {
            Some(pool) if lens.len() >= POOLED_CENSUS_MIN_LENS => {
                pooled_census(pool, lens, &mut self.census_slices, hist);
            }
            _ => build_hist(lens, hist),
        }
    }

    fn stack_source(&mut self) -> Result<StackSource<'_, P::Node>, Infallible> {
        self.inline.stack_source()
    }

    fn end_step(&mut self, _: &LockstepDriver, _: bool) -> Result<(), Infallible> {
        // Every dispatch joined before this point, so a snapshot — and an
        // injected kill — always sees complete, settled state (no burst in
        // flight, every worker parked). Asserted because the kill→resume
        // differential depends on it.
        debug_assert!(
            self.pool.as_ref().is_none_or(WorkerPool::is_quiescent),
            "macro-step boundary reached with the pool mid-dispatch"
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::macrostep::run;
    use crate::scheme::Scheme;
    use uts_machine::CostModel;
    use uts_synth::GeometricTree;

    #[test]
    fn resolve_threads_prefers_the_config_knob() {
        let cfg = EngineConfig::new(4, Scheme::gp_dk(), CostModel::cm2()).with_threads(3);
        assert_eq!(resolve_threads(&cfg), 3);
    }

    #[test]
    fn par_matches_macro_at_several_thread_counts() {
        // min_work 0 forces the sharded path even on this small tree.
        let tree = GeometricTree { seed: 21, b_max: 8, depth_limit: 6 };
        let base = EngineConfig::new(64, Scheme::gp_dk(), CostModel::cm2())
            .with_trace()
            .with_fan_out_min_work(0);
        let serial = run(&tree, &base);
        for threads in [1usize, 2, 8] {
            let par = run_par(&tree, &base.clone().with_threads(threads));
            assert_eq!(par, serial, "threads={threads}");
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
        for min_work in [0u64, DEFAULT_FAN_OUT_MIN_WORK, u64::MAX] {
            let par = run_par(&tree, &base.clone().with_fan_out_min_work(min_work));
            assert_eq!(par, serial, "fan_out_min_work={min_work}");
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
