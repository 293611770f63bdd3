//! The macro-step loop — written once, for every executor.
//!
//! The paper's formulation is *one* lockstep loop: search phase, trigger,
//! balancing phase. [`LockstepDriver`] owns everything of it except the
//! stacks — the event horizon, the [`uts_machine::SimdMachine`]
//! accounting, the trigger decision, the matcher, the ledger, the
//! balancing phase and the macro-step boundary (checkpoint policy, fault,
//! preempt) — and [`LockstepDriver::drive`] sequences them:
//!
//! ```text
//! horizon → backend.burst(h) → absorb → balance → boundary … → finish
//! ```
//!
//! The executors differ only in how the host runs the search phase, which
//! is what a [`BurstBackend`] supplies: **in-process**
//! ([`crate::local::LocalBackend`]: one cache-hot DFS burst per PE, on the
//! calling thread or fanned out over scoped threads) and **remote**
//! (`uts-shard`: worker processes hold the stacks, bursts and splits
//! travel as wire frames). Both hand the loop the same census for the same
//! stacks, so every executor takes the same steps; DESIGN.md §6.1 gives
//! the per backend argument. [`crate::reference`] is deliberately *not*
//! built on this loop: it is the independent per-cycle oracle the suites
//! compare against.
//!
//! # Stepping by hand
//!
//! A caller that needs to interleave its own work with the loop (the
//! benchmark's span recorder) drives the same stages through the public
//! step API, with `lens` the dense per-PE length array of its stacks:
//!
//! 1. [`LockstepDriver::horizon`] — compute the event horizon `h`.
//! 2. Run the burst of `h` cycles on every active PE and describe it as a
//!    [`MergedBurst`].
//! 3. [`LockstepDriver::absorb_burst`] — machine accounting, stop checks
//!    and trigger evaluation. On [`StepStatus::Continue`] with
//!    `fired == true` the caller **must** call [`LockstepDriver::balance`]
//!    next (the ledger recorder is armed and must be settled).
//! 4. [`LockstepDriver::finish_boundary`] — count the macro-step boundary;
//!    snapshot via [`LockstepDriver::snapshot`] if the caller's policy
//!    wants it.
//!
//! On [`StepStatus::Done`], call [`LockstepDriver::finish`] for the
//! [`Outcome`].

use std::io;

use uts_ckpt::StackSource;
use uts_machine::SimdMachine;
use uts_tree::{CkptNode, StackArena};

use crate::census::{build_count_ge, build_hist};
use crate::ckpt::config_fingerprint;
use crate::engine::{
    balancing_phase, checkpoint_trigger, EngineConfig, EngineState, LbBuffers, Outcome,
};
use crate::store::StackStore;
use crate::trigger::{horizon_exceeds_one, safe_horizon, HorizonCtx};

/// The census of one search-phase burst over the whole active set (merged
/// across workers or chunks where the backend has any).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergedBurst {
    /// PEs that entered the burst (must equal the driver's active count).
    pub started: usize,
    /// Goal nodes found during the burst.
    pub goals: u64,
    /// Largest stack observed during the burst.
    pub peak_stack_nodes: usize,
    /// Burst lengths of PEs that drained mid-burst, in any order (the
    /// driver sorts). Empty when `h == 1`.
    pub deaths: Vec<u64>,
}

impl MergedBurst {
    /// Start describing a burst `started` PEs enter (keeps the death
    /// buffer's allocation).
    pub fn reset(&mut self, started: usize) {
        self.started = started;
        self.goals = 0;
        self.peak_stack_nodes = 0;
        self.deaths.clear();
    }
}

/// How an executor runs the search phase, and where its stacks live — the
/// only thing the executors differ in. The loop ([`LockstepDriver::drive`])
/// is generic over this.
pub trait BurstBackend {
    /// Node type of the stacks (what a snapshot encodes).
    type Node: CkptNode;
    /// What running a stage can fail with: a failed checkpoint write in
    /// process ([`io::Error`]), and also a lost worker for a remote
    /// backend. [`LockstepDriver::drive`] hands it the sink's write errors
    /// through the `From`.
    type Error: From<io::Error>;
    /// The stacks as the balancing phase splits through them.
    type Store: StackStore;

    /// Dense per-PE stack lengths (all `P` entries), current after every
    /// burst and every split batch.
    fn lens(&self) -> &[u32];

    /// The store the balancing phase runs over.
    fn store(&mut self) -> &mut Self::Store;

    /// Run `h` lockstep cycles on every PE of `active` — the driver's
    /// sorted list of PEs holding work — and compact the list in place to
    /// the PEs still holding work. Describes the burst in `out`
    /// ([`MergedBurst::reset`] first) and returns how many PEs are left
    /// splittable (`len >= 2`).
    fn burst(
        &mut self,
        h: u64,
        active: &mut Vec<usize>,
        out: &mut MergedBurst,
    ) -> Result<usize, Self::Error>;

    /// The stacks as a boundary snapshot encodes them.
    fn stack_source(&mut self) -> Result<StackSource<'_, Self::Node>, Self::Error>;

    /// Observe a completed macro step (after any balancing phase, boundary
    /// counted): the place a backend settles what the infallible
    /// [`StackStore`] calls could not report, and keeps its own records.
    fn end_step(&mut self, _driver: &LockstepDriver, _fired: bool) -> Result<(), Self::Error> {
        Ok(())
    }
}

/// Compute the next event horizon: a sound lower bound on the cycles
/// before the trigger could fire effectively
/// ([`crate::trigger::safe_horizon`]; a fire with no splittable or no idle
/// PE transfers no work and leaves no trace in the schedule).
/// `stop_on_goal` must observe goals cycle-by-cycle, and the init phase
/// balances after every cycle by construction; both degrade gracefully to
/// single-cycle steps.
/// `size_hist`/`count_ge` are caller-owned scratch, rebuilt only when a
/// multi-cycle horizon is actually reachable: the stack-size histogram
/// over the PEs holding work (`hist[s]` = PEs whose stack holds `s` nodes)
/// is then one O(P) census sweep of `lens`, the dense per-PE length array
/// ([`build_hist`]), whose cost the cycles the horizon buys amortise.
pub(crate) fn compute_horizon(
    cfg: &EngineConfig,
    machine: &SimdMachine,
    active_len: usize,
    in_init: bool,
    lens: &[u32],
    size_hist: &mut Vec<u32>,
    count_ge: &mut Vec<u32>,
) -> u64 {
    if in_init
        || cfg.stop_on_goal
        || !horizon_exceeds_one(
            cfg.scheme.trigger,
            cfg.p,
            active_len,
            machine.phase(),
            cfg.cost.u_calc,
            machine.estimated_lb_cost(),
        )
    {
        1
    } else {
        build_hist(lens, size_hist);
        build_count_ge(size_hist, count_ge);
        let hctx = HorizonCtx {
            p: cfg.p,
            active: active_len,
            count_ge,
            phase: *machine.phase(),
            u_calc: cfg.cost.u_calc,
            l_estimate: machine.estimated_lb_cost(),
        };
        safe_horizon(cfg.scheme.trigger, &hctx)
    }
}

/// Compact the sorted `active` list to the PEs whose fresh length is
/// non-zero and count the splittable ones — the post-burst census of a
/// caller that ran the burst itself ([`LockstepDriver::absorb_burst`]).
fn recount_active(active: &mut Vec<usize>, lens: &[u32]) -> usize {
    active.retain(|&i| lens[i] > 0);
    active.iter().filter(|&&i| lens[i] >= 2).count()
}

/// What the driver decided at the end of [`LockstepDriver::absorb_burst`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// The run is over (goal stop or space exhausted); call
    /// [`LockstepDriver::finish`].
    Done,
    /// The run continues. When `fired`, the trigger fired effectively and
    /// the caller must run [`LockstepDriver::balance`] before the next
    /// step.
    Continue {
        /// The trigger fired; a balancing phase must run now.
        fired: bool,
    },
}

/// The macro-step engine minus the stacks. See the module docs.
pub struct LockstepDriver {
    cfg: EngineConfig,
    state: EngineState,
    /// Dense sorted list of PEs holding work — the one such list of a
    /// run: bursts compact it in place, balancing merges fed PEs in. Its
    /// complement is the idle set, so no idle flags exist; busy
    /// (= splittable) state is `lens[i] >= 2`, so no busy flags either.
    active: Vec<usize>,
    busy_count: usize,
    /// `P - active.len()` captured at the trigger checkpoint, consumed by
    /// the balancing phase of the same step.
    idle_at_checkpoint: usize,
    size_hist: Vec<u32>,
    count_ge: Vec<u32>,
    lb: LbBuffers,
}

/// The sorted list of `arena`'s PEs holding work.
pub(crate) fn holding_work<N>(arena: &StackArena<N>) -> Vec<usize> {
    (0..arena.p()).filter(|&i| arena.len_of(i) > 0).collect()
}

impl LockstepDriver {
    /// Driver at boundary `state`, whose PEs holding work are `active`.
    pub(crate) fn with_state(cfg: &EngineConfig, state: EngineState, active: Vec<usize>) -> Self {
        Self {
            cfg: cfg.clone(),
            state,
            active,
            busy_count: 0,
            idle_at_checkpoint: 0,
            size_hist: Vec::new(),
            count_ge: Vec::new(),
            lb: LbBuffers::default(),
        }
    }

    /// Driver for a fresh run: PE 0 holds the root (the caller seeds it
    /// wherever PE 0's stack lives), everything else idle.
    pub fn fresh(cfg: &EngineConfig) -> Self {
        Self::with_state(cfg, EngineState::fresh(cfg), vec![0])
    }

    /// Driver restored from a decoded snapshot, its active list derived
    /// from the lengths of the snapshot's arena, plus that arena.
    ///
    /// # Panics
    /// Panics if the snapshot's machine size or ledger presence
    /// contradicts `cfg` (impossible for snapshots decoded against this
    /// config's fingerprint).
    pub fn restore<N: CkptNode>(
        cfg: &EngineConfig,
        snapshot: uts_ckpt::EngineSnapshot<N>,
    ) -> (Self, StackArena<N>) {
        let (state, arena) = EngineState::restore(cfg, snapshot);
        (Self::with_state(cfg, state, holding_work(&arena)), arena)
    }

    /// Run the macro-step loop to the end over `backend`.
    ///
    /// A run whose config carries a [`crate::ckpt::CheckpointCfg`]
    /// evaluates it at every boundary: snapshots go to its sink, and an
    /// injected fault or a raised preempt signal ends the loop with
    /// [`Outcome::killed`] set. A snapshot the sink could not write ends it
    /// with the backend's error.
    pub fn drive<B: BurstBackend>(mut self, backend: &mut B) -> Result<Outcome, B::Error> {
        let mut burst = MergedBurst::default();
        let killed = loop {
            let h = self.horizon(backend.lens());
            let busy = backend.burst(h, &mut self.active, &mut burst)?;
            let StepStatus::Continue { fired } = self.absorb(h, busy, &mut burst) else {
                break false;
            };
            if fired {
                self.balance(backend.store());
            }
            let step = self.finish_boundary();
            backend.end_step(&self, fired)?;
            if let Some(ck) = &self.cfg.checkpoint {
                let snapshot = || Ok::<_, B::Error>(self.snapshot_of(backend.stack_source()?));
                if ck.boundary(step, snapshot)? {
                    break true;
                }
            }
        };
        Ok(self.finish(killed))
    }

    /// The event horizon of the next macro step. `lens` is the dense
    /// length array (all `P` entries).
    pub fn horizon(&mut self, lens: &[u32]) -> u64 {
        debug_assert_eq!(lens.len(), self.cfg.p);
        compute_horizon(
            &self.cfg,
            &self.state.machine,
            self.active.len(),
            self.state.in_init,
            lens,
            &mut self.size_hist,
            &mut self.count_ge,
        )
    }

    /// Account one completed burst of horizon `h` and evaluate the stop
    /// checks and the trigger — the checkpoint tail of the macro-step
    /// loop. `lens` is the *post-burst* length array; the driver's active
    /// list is recounted from it.
    pub fn absorb_burst(&mut self, h: u64, lens: &[u32], mut burst: MergedBurst) -> StepStatus {
        debug_assert_eq!(lens.len(), self.cfg.p);
        debug_assert_eq!(burst.started, self.active.len(), "every active PE runs the burst");
        let busy = recount_active(&mut self.active, lens);
        self.absorb(h, busy, &mut burst)
    }

    /// [`LockstepDriver::absorb_burst`] once the active list is compacted
    /// and `busy` of its PEs are known splittable.
    fn absorb(&mut self, h: u64, busy: usize, burst: &mut MergedBurst) -> StepStatus {
        let st = &mut self.state;
        self.busy_count = busy;
        st.goals += burst.goals;
        st.peak_stack_nodes = st.peak_stack_nodes.max(burst.peak_stack_nodes);
        if h == 1 {
            debug_assert!(burst.deaths.is_empty(), "single cycles report no deaths");
            st.machine.expansion_cycle(burst.started);
        } else {
            // Reconstruct the lockstep schedule from the deaths: a PE that
            // drained after `e` expansions worked cycles `1..=e` of the
            // batch; survivors worked all of them. So worked(j) is a step
            // function dropping at each distinct death time, and the batch
            // ends at `h` if anyone survived, else at the last death.
            burst.deaths.sort_unstable();
            let ran = if self.active.is_empty() {
                *burst.deaths.last().expect("had active PEs")
            } else {
                h
            };
            st.machine.expansion_cycles_with_deaths(burst.started, ran, &burst.deaths);
        }

        // Stop checks, in the reference loop's order.
        if self.cfg.stop_on_goal && st.goals > 0 {
            return StepStatus::Done;
        }
        if self.active.is_empty() {
            return StepStatus::Done; // space exhausted
        }

        self.idle_at_checkpoint = self.cfg.p - self.active.len();
        let fired = checkpoint_trigger(
            &self.cfg,
            &st.machine,
            &mut st.in_init,
            busy,
            self.idle_at_checkpoint,
            h,
            &mut st.recorder,
        );
        StepStatus::Continue { fired }
    }

    /// Run the balancing phase the last [`LockstepDriver::absorb_burst`]
    /// fired, over `store` (remote for a sharded machine). Must be called
    /// exactly when `absorb_burst` returned `fired == true`.
    pub fn balance<S: StackStore>(&mut self, store: &mut S) {
        let st = &mut self.state;
        balancing_phase(
            &self.cfg,
            &mut st.machine,
            &mut st.matcher,
            store,
            &mut self.active,
            &mut self.busy_count,
            &mut st.donations,
            &mut self.lb,
            self.idle_at_checkpoint,
            &mut st.peak_stack_nodes,
            &mut st.recorder,
        );
    }

    /// Count a completed macro-step boundary; returns its 1-based number
    /// (the `ckpt-{step:08}.bin` numbering, continued across resumes).
    pub fn finish_boundary(&mut self) -> u64 {
        self.state.step += 1;
        self.state.step
    }

    /// Macro-step boundaries completed so far.
    pub fn step(&self) -> u64 {
        self.state.step
    }

    /// Encode a full engine snapshot of the current boundary over `stacks`.
    pub fn snapshot_of<N: CkptNode>(&self, stacks: StackSource<'_, N>) -> Vec<u8> {
        self.state.capture(config_fingerprint(&self.cfg), stacks)
    }

    /// [`LockstepDriver::snapshot_of`] over stacks already encoded:
    /// `stack_bytes` is the concatenation, in PE order, of every PE's
    /// stack encoding (the workers produce these with
    /// [`uts_tree::StackArena::encode_pe`]; byte-identical to the
    /// in-process [`uts_ckpt::StackSource::Arena`] capture, so sharded
    /// and single-process snapshots are interchangeable).
    pub fn snapshot(&self, stack_bytes: &[u8]) -> Vec<u8> {
        self.snapshot_of::<u64>(StackSource::Encoded { p: self.cfg.p, bytes: stack_bytes })
    }

    /// Sorted list of PEs currently holding work.
    pub fn active(&self) -> &[usize] {
        &self.active
    }

    /// Lockstep cycles executed so far (`N_expand`).
    pub fn cycles(&self) -> u64 {
        self.state.machine.metrics().n_expand
    }

    /// Close out the run. `killed` distinguishes a run that stopped at a
    /// boundary to be resumed (fault, preempt) from a completed one, with
    /// the semantics of [`Outcome::killed`].
    pub fn finish(self, killed: bool) -> Outcome {
        self.state.finish(killed)
    }
}

#[cfg(test)]
mod tests {
    //! The public step API, driven by hand with an in-process
    //! [`StackArena`] + [`expansion_burst`] exactly as
    //! `benchmark/src/trace.rs` does, must take the same steps as
    //! [`LockstepDriver::drive`] over the in-process backend at one thread
    //! (which is [`crate::local::run`]).
    use super::*;
    use crate::engine::{expansion_burst, root_arena};
    use crate::scheme::Scheme;
    use uts_machine::CostModel;
    use uts_synth::GeometricTree;
    use uts_tree::TreeProblem;

    /// Hand-step `driver` over `arena` for at most `max_steps` boundaries;
    /// true once the run is done.
    fn step_by_hand<P: TreeProblem>(
        problem: &P,
        driver: &mut LockstepDriver,
        arena: &mut StackArena<P::Node>,
        max_steps: u64,
    ) -> bool {
        let mut active = driver.active().to_vec();
        let mut deaths = Vec::new();
        for _ in 0..max_steps {
            let h = driver.horizon(arena.lens());
            let (mut goals, mut peak) = (0u64, 0usize);
            let stats =
                expansion_burst(problem, arena, &mut active, h, &mut goals, &mut peak, &mut deaths);
            let burst = MergedBurst {
                started: stats.started,
                goals,
                peak_stack_nodes: peak,
                deaths: std::mem::take(&mut deaths),
            };
            let StepStatus::Continue { fired } = driver.absorb_burst(h, arena.lens(), burst) else {
                return true;
            };
            if fired {
                driver.balance(arena);
                active.clear();
                active.extend_from_slice(driver.active());
            }
            driver.finish_boundary();
        }
        false
    }

    #[test]
    fn driver_reproduces_the_macro_engine_bit_for_bit() {
        let tree = GeometricTree { seed: 11, b_max: 8, depth_limit: 7 };
        for scheme in [
            Scheme::gp_dk(),
            Scheme::ngp_dk(),
            Scheme::gp_static(0.75),
            Scheme::gp_dp(),
            Scheme::fess(),
            Scheme::fegs(),
        ] {
            let cfg = EngineConfig::new(64, scheme, CostModel::cm2()).with_ledger().with_trace();
            let want = crate::local::run(&tree, &cfg);
            let (mut driver, mut arena) = (LockstepDriver::fresh(&cfg), root_arena(&tree, cfg.p));
            assert!(step_by_hand(&tree, &mut driver, &mut arena, u64::MAX));
            assert_eq!(driver.finish(false), want, "{}", scheme.name());
        }
    }

    #[test]
    fn driver_snapshot_resumes_under_the_macro_engine() {
        let tree = GeometricTree { seed: 5, b_max: 8, depth_limit: 6 };
        let cfg = EngineConfig::new(32, Scheme::gp_dk(), CostModel::cm2()).with_ledger();
        let want = crate::local::run(&tree, &cfg);

        // Drive three steps, snapshot, then hand the snapshot to the
        // ordinary in-process resume path.
        let (mut driver, mut arena) = (LockstepDriver::fresh(&cfg), root_arena(&tree, cfg.p));
        assert!(!step_by_hand(&tree, &mut driver, &mut arena, 3), "run too short for the test");
        let mut stack_bytes = Vec::new();
        for i in 0..cfg.p {
            arena.encode_pe(i, &mut stack_bytes);
        }
        let bytes = driver.snapshot(&stack_bytes);
        let resumed = crate::run_from(&tree, &cfg, Some(&bytes)).expect("decode");
        assert_eq!(resumed, want, "driver snapshot must resume bit-identically");
    }
}
