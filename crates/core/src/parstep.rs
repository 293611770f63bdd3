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
//! A burst that fans out opens one [`std::thread::scope`]: `workers - 1`
//! scoped threads (named `uts-fan-{i}`) and the calling thread run the same
//! claim loop, and the scope joins them all before the burst returns. So no
//! thread outlives a burst — a macro-step boundary (trigger checkpoint,
//! balancing phase, snapshot, injected kill) always sees settled state,
//! and a participant's panic re-raises on the calling thread — by
//! construction, with no lifetime erasure and no shutdown protocol. Scratch
//! buffers persist across steps so a warmed-up step allocates little, and
//! bursts below [`FAN_OUT_MIN_WORK`] skip the fan-out entirely
//! (DESIGN.md §6.4 gives the bar's derivation).

use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use uts_ckpt::StackSource;
use uts_tree::{PeSlab, StackArena, TreeProblem};

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

/// Chunks published per worker. More than one chunk per worker lets the
/// claim cursor rebalance skew (one PE's burst can dwarf another's on an
/// irregular tree); four keeps the per-chunk overhead negligible while
/// bounding any worker's idle tail at roughly a quarter of a chunk.
const CHUNKS_PER_WORKER: usize = 4;

/// Resolve the worker count: explicit config knob, else one worker per
/// available core (which `taskset` and cgroup quotas narrow).
pub(crate) fn resolve_threads(cfg: &EngineConfig) -> usize {
    cfg.threads
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
/// macro-step's bursts out across scoped host threads via dynamically
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
    driver.run_to_end(PooledBackend::new(problem, arena, resolve_threads(cfg), FAN_OUT_MIN_WORK))
}

/// The pooled search phase: the inline backend's bursts, cut into chunks
/// of the active list and claimed by `threads` participants of one
/// [`std::thread::scope`] per burst. A burst below the fan-out bar — and
/// every burst of a one-thread backend — runs through the wrapped
/// [`InlineBackend`] verbatim, so a non-fanned-out `run_par` is the macro
/// engine plus a branch.
pub struct PooledBackend<'a, P: TreeProblem> {
    inline: InlineBackend<'a, P>,
    threads: usize,
    min_work: u64,
    /// Per-chunk scratch, persistent across macro-steps.
    shards: Vec<ShardScratch>,
}

impl<'a, P: TreeProblem> PooledBackend<'a, P> {
    /// A backend searching `problem` over `arena` with `threads` host
    /// threads (the caller's included), fanning out bursts of at least
    /// `min_work` PE-cycles ([`run_par`] passes [`FAN_OUT_MIN_WORK`]).
    pub fn new(problem: &'a P, arena: StackArena<P::Node>, threads: usize, min_work: u64) -> Self {
        Self { inline: InlineBackend::new(problem, arena), threads, min_work, shards: Vec::new() }
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
        out.reset(started);
        let problem = self.inline.problem;
        // At least two workers, and so two chunks, always form here.
        let workers = self.threads.min(started);
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
        // ---- cursor. The calling thread claims too instead of idling,
        // ---- and the scope joins every spawned participant before it
        // ---- returns (so all borrows below are settled).
        let cursor = AtomicUsize::new(0);
        let claim = || loop {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            if k >= jobs.len() {
                break;
            }
            let (chunk, base, slabs_w, lens_w, scr) =
                jobs[k].lock().expect("job lock").take().expect("job claimed once");
            scr.deaths.clear();
            scr.cut = burst_slice(problem, h, chunk, base, slabs_w, lens_w, &mut scr.deaths);
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
