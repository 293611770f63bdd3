//! The lockstep SIMD search engine (the algorithm of Sec. 2).
//!
//! "At any time, all the processors are either in a search phase or in a
//! load balancing phase. In the search phase, each processor searches a
//! disjoint part of the search space in a depth-first-search fashion by
//! performing node expansion cycles in lock-step. ... All processors switch
//! from the searching phase to the load balancing phase when a triggering
//! condition is satisfied. In the load balancing phase, the busy processors
//! split their work and share it with idle processors."
//!
//! The engine is cycle-quantized: one expansion cycle = every processor
//! with a non-empty stack pops and expands exactly one node.
//!
//! This module holds what every executor shares: the configuration, the
//! [`Outcome`], the boundary state a snapshot captures ([`EngineState`]),
//! the search-phase kernels ([`fused_expansion_cycle`],
//! [`expansion_burst`]) and the trigger checkpoint and balancing phase.
//! The macro-step loop that sequences them lives once, in
//! [`crate::driver`]; [`run_fused`] below is that loop over the
//! cycle-major backend. All executors produce a lockstep schedule
//! bit-identical to the straightforward two-sweep loop kept in
//! [`crate::reference`] (enforced by property tests). See DESIGN.md §6,
//! "Engine hot path".

use std::convert::Infallible;

use uts_ckpt::StackSource;
use uts_machine::{
    CostModel, LbPhaseRecord, Ledger, Report, SimdMachine, TriggerFiring, TriggerKind,
};
use uts_scan::{MatchScratch, Pair};
use uts_tree::{BlockRun, Burst, SearchStack, SplitPolicy, StackArena, TreeProblem};

use crate::driver::{BurstBackend, InProcess, LockstepDriver, MergedBurst};
use crate::matcher::MatchState;
use crate::scheme::{Scheme, TransferMode, Trigger};
use crate::store::{CountedMove, StackStore};
use crate::trigger::{should_balance, static_threshold, TriggerCtx};

/// Which executor [`run_with`] dispatches to: one independent oracle and
/// three backends of the one macro-step loop ([`crate::driver`]). All four
/// produce bit-identical lockstep schedules (the contract enforced by
/// `tests/engine_equivalence.rs` and `tests/engine_differential.rs`); they
/// differ only in how the host executes the search phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The per-cycle two-sweep oracle loop
    /// ([`crate::reference::run_reference`]); not built on the driver.
    Reference,
    /// The cycle-major backend ([`run_fused`]): one fused
    /// expansion + census pass over the whole active list per cycle.
    Fused,
    /// The inline backend ([`crate::macrostep::run`]): one cache-hot DFS
    /// burst per PE per macro step.
    Macro,
    /// The pooled backend ([`crate::parstep::run_par`]): the inline
    /// bursts fanned out over scoped host threads.
    Par,
}

impl EngineKind {
    /// All engines, oracle first — handy for differential tests.
    pub const ALL: [EngineKind; 4] =
        [EngineKind::Reference, EngineKind::Fused, EngineKind::Macro, EngineKind::Par];

    /// Short stable name for labels and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Reference => "reference",
            EngineKind::Fused => "fused",
            EngineKind::Macro => "macro",
            EngineKind::Par => "par",
        }
    }

    /// Parse an engine name — the inverse of [`EngineKind::name`], plus the
    /// `ref` shorthand. Shared by the CLI and the job-server spec decoder.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "reference" | "ref" => Ok(EngineKind::Reference),
            "fused" => Ok(EngineKind::Fused),
            "macro" => Ok(EngineKind::Macro),
            "par" => Ok(EngineKind::Par),
            other => Err(format!("unknown engine `{other}` (reference|fused|macro|par)")),
        }
    }
}

/// Engine configuration: machine size, scheme, cost model, knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Ensemble size `P`.
    pub p: usize,
    /// The load-balancing scheme to run.
    pub scheme: Scheme,
    /// Machine timing model.
    pub cost: CostModel,
    /// Work-splitting policy (paper default: bottom-most alternative).
    pub split: SplitPolicy,
    /// Initial-distribution threshold: for dynamic triggers the paper runs
    /// static triggering with x = 0.85 "until 85% of the processors became
    /// active" (Sec. 7). `None` disables the special init phase (static
    /// triggers distribute naturally from the first cycle).
    pub init_fraction: Option<f64>,
    /// Record the per-cycle active-processor trace (Fig. 8).
    pub record_trace: bool,
    /// Stop at the end of the cycle in which the first goal is found
    /// (`false` = exhaustive search, the paper's anomaly-free setting).
    pub stop_on_goal: bool,
    /// Safety valve for tests: abort after this many expansion cycles.
    pub max_cycles: Option<u64>,
    /// Record every macro step the loop takes ([`Outcome::macro_steps`]).
    /// Every driver-backed executor (fused, macro, par, sharded) records
    /// the identical log; the reference oracle steps cycle by cycle and
    /// ignores the flag. For horizon-soundness diagnostics and tests.
    pub record_horizons: bool,
    /// Record the load-balance ledger ([`Outcome::ledger`]): per-PE
    /// donation/receipt counts and per-phase trigger provenance + cost
    /// attribution. Off by default — the engines skip all ledger work
    /// (including the oracle's horizon replay) when unset, so the hot
    /// path pays nothing. The ledger is part of the bit-identical
    /// cross-engine contract: every engine and any thread count produces
    /// the same one.
    pub record_ledger: bool,
    /// Which executor [`run_with`] dispatches to (the direct entry points
    /// `run`, `run_fused`, `run_reference`, `run_par` ignore it).
    pub engine: EngineKind,
    /// Host threads for [`crate::parstep::run_par`], the caller's included:
    /// each burst that fans out spawns `threads - 1` scoped threads and
    /// joins them before it returns. `None` means one per available core
    /// (`std::thread::available_parallelism`). Ignored by the other
    /// engines, and **never** part of the schedule: any value yields the
    /// identical `Outcome`.
    pub threads: Option<usize>,
    /// Checkpoint/resume configuration ([`crate::ckpt`]): when armed, the
    /// run snapshots its complete state at macro-step boundaries (the same
    /// engine-invariant schedule the ledger replays) and honours any
    /// injected [`uts_ckpt::FaultPlan`]. Never part of the schedule — a
    /// checkpointing run produces the identical `Outcome` (unless killed).
    pub checkpoint: Option<crate::ckpt::CheckpointCfg>,
}

impl EngineConfig {
    /// A configuration with the paper's defaults for `scheme`: bottom
    /// splitting, exhaustive search, and the 0.85 init phase iff the
    /// trigger is dynamic.
    pub fn new(p: usize, scheme: Scheme, cost: CostModel) -> Self {
        Self {
            p,
            scheme,
            cost,
            split: SplitPolicy::Bottom,
            init_fraction: scheme.is_dynamic().then_some(0.85),
            record_trace: false,
            stop_on_goal: false,
            max_cycles: None,
            record_horizons: false,
            record_ledger: false,
            engine: EngineKind::Macro,
            threads: None,
            checkpoint: None,
        }
    }

    /// Builder: enable the Fig. 8 active trace.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Builder: record the loop's event-horizon steps.
    pub fn with_horizon_log(mut self) -> Self {
        self.record_horizons = true;
        self
    }

    /// Builder: record the load-balance ledger.
    pub fn with_ledger(mut self) -> Self {
        self.record_ledger = true;
        self
    }

    /// Builder: override the split policy (ablation).
    pub fn with_split(mut self, split: SplitPolicy) -> Self {
        self.split = split;
        self
    }

    /// Builder: pick the executor [`run_with`] dispatches to.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Builder: pin the host worker count of the parallel engine.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Builder: snapshot at the boundaries `policy` selects, into a fresh
    /// in-memory sink (retarget with [`EngineConfig::with_checkpoint_cfg`]
    /// or [`crate::ckpt::CheckpointCfg::into_dir`]).
    pub fn with_checkpoint(mut self, policy: uts_ckpt::CheckpointPolicy) -> Self {
        self.checkpoint = Some(crate::ckpt::CheckpointCfg::new(policy));
        self
    }

    /// Builder: install a complete checkpoint configuration (policy, sink
    /// and optional fault).
    pub fn with_checkpoint_cfg(mut self, ckpt: crate::ckpt::CheckpointCfg) -> Self {
        self.checkpoint = Some(ckpt);
        self
    }

    /// Builder: kill the run at the fault plan's macro-step boundary
    /// (arming an empty checkpoint config if none exists yet, so a kill
    /// can be injected without any snapshot policy).
    pub fn with_fault(mut self, fault: uts_ckpt::FaultPlan) -> Self {
        self.checkpoint
            .get_or_insert_with(|| {
                crate::ckpt::CheckpointCfg::new(uts_ckpt::CheckpointPolicy::default())
            })
            .fault = Some(fault);
        self
    }
}

/// Run `problem` under the executor named by [`EngineConfig::engine`].
/// Every arm produces the same `Outcome` bit-for-bit.
pub fn run_with<P: TreeProblem>(problem: &P, cfg: &EngineConfig) -> Outcome {
    match cfg.engine {
        EngineKind::Reference => crate::reference::run_reference(problem, cfg),
        EngineKind::Fused => run_fused(problem, cfg),
        EngineKind::Macro => crate::macrostep::run(problem, cfg),
        EngineKind::Par => crate::parstep::run_par(problem, cfg),
    }
}

/// Result of a parallel run. `PartialEq` compares every observable —
/// report (including the `f64` efficiency, which is a pure function of the
/// integer time counters, so bitwise comparison is exact), goals,
/// donations, traces — which is what the differential suites assert on.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Machine accounting (efficiency, `N_expand`, `N_lb`, traces, …).
    /// `report.w` is set to the *measured* parallel node count; callers
    /// holding an independently measured serial `W` can re-derive
    /// efficiency via [`Outcome::efficiency_vs_serial`] (the two coincide
    /// in the paper's exhaustive, anomaly-free setting).
    pub report: Report,
    /// Goal nodes found.
    pub goals: u64,
    /// True if `max_cycles` aborted the run before exhaustion.
    pub truncated: bool,
    /// True if an injected [`uts_ckpt::FaultPlan`] killed the run at a
    /// macro-step boundary (the counters then cover only the completed
    /// prefix). Always false for straight runs and for resumed runs that
    /// finish, so the kill→resume differential can compare whole
    /// `Outcome`s.
    pub killed: bool,
    /// How many times each processor donated work — the burden GP exists
    /// to spread evenly ("to try to evenly distribute the burden of
    /// sharing work among the processors", Sec. 2.2). Analyze with
    /// `uts_analysis::stats` (e.g. the Gini coefficient).
    pub donations: Vec<u32>,
    /// High-water mark of untried alternatives on any single processor's
    /// stack — the per-PE memory requirement. (Sec. 8 criticizes a
    /// Frye–Myczkowski variant precisely because its memory requirements
    /// "become unbounded"; this makes the quantity observable.)
    pub peak_stack_nodes: usize,
    /// The event-horizon steps the macro-step loop took, recorded only
    /// when [`EngineConfig::record_horizons`] is set (empty otherwise, and
    /// always empty for the reference oracle, which has no macro steps).
    pub macro_steps: Vec<MacroStep>,
    /// The load-balance ledger, recorded only when
    /// [`EngineConfig::record_ledger`] is set. Unlike `macro_steps` it is
    /// engine-invariant: all four engines produce the identical ledger
    /// (the oracle replays the horizon schedule for the provenance
    /// records).
    pub ledger: Option<Ledger>,
}

/// One event-horizon macro-step taken by the loop in [`crate::driver`]: at
/// `start_cycle` the engine proved the trigger cannot (effectively) fire
/// for `horizon` cycles and ran `ran` consecutive expansion cycles without
/// a checkpoint (`ran < horizon` only when the whole ensemble drained).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacroStep {
    /// `N_expand` when the step began.
    pub start_cycle: u64,
    /// The proved lower bound on cycles until the trigger could fire.
    pub horizon: u64,
    /// Expansion cycles actually executed in the step.
    pub ran: u64,
}

impl Outcome {
    /// Efficiency computed against an externally measured serial node
    /// count (eq. 9's definition with `T_calc = W_serial · U_calc`).
    pub fn efficiency_vs_serial(&self, w_serial: u64, cost: &CostModel) -> f64 {
        let t_calc = w_serial as f64 * cost.u_calc as f64;
        t_calc / (t_calc + self.report.t_idle as f64 + self.report.t_lb as f64)
    }
}

/// The engine state of a macro-step boundary: what a snapshot captures,
/// what a fresh run starts from and what the loop advances — everything
/// except the stacks. Derived structures — the dense active list, the
/// splittable flags, the busy count — are pure functions of the stacks and
/// are rebuilt, never restored. The snapshot mapping (`restore`/`capture`)
/// lives in [`crate::ckpt`].
pub(crate) struct EngineState {
    pub machine: SimdMachine,
    pub matcher: MatchState,
    pub recorder: Option<LedgerRecorder>,
    pub donations: Vec<u32>,
    pub goals: u64,
    pub peak_stack_nodes: usize,
    pub in_init: bool,
    pub macro_steps: Vec<MacroStep>,
    /// Macro-step boundaries completed (1-based snapshot numbering, the
    /// `ckpt-{step:08}.bin` names); a resumed run continues from here.
    pub step: u64,
}

/// What an executor starts from: the boundary state plus every PE's stack.
pub(crate) type Resume<N> = (EngineState, Vec<SearchStack<N>>);

impl EngineState {
    /// Fresh-run state: everything zero (PE 0 holds the root, see
    /// [`fresh_run`]).
    pub(crate) fn fresh(cfg: &EngineConfig) -> Self {
        assert!(cfg.p > 0, "need at least one processor");
        let mut machine = SimdMachine::new(cfg.p, cfg.cost);
        machine.record_active_trace(cfg.record_trace);
        Self {
            machine,
            matcher: MatchState::new(cfg.scheme.matching),
            recorder: cfg.record_ledger.then(|| LedgerRecorder::new(cfg.p)),
            donations: vec![0u32; cfg.p],
            goals: 0,
            peak_stack_nodes: 1,
            // The init phase (dynamic triggers): alternate cycle / balance
            // until `init_fraction` of the PEs have work.
            in_init: cfg.init_fraction.is_some(),
            macro_steps: Vec::new(),
            step: 0,
        }
    }

    /// Close out the run.
    pub(crate) fn finish(self, truncated: bool, killed: bool) -> Outcome {
        let w = self.machine.metrics().nodes_expanded;
        let report = self.machine.finish(w);
        let ledger = self.recorder.map(|r| r.finish(&self.donations));
        Outcome {
            report,
            goals: self.goals,
            truncated,
            killed,
            donations: self.donations,
            peak_stack_nodes: self.peak_stack_nodes,
            macro_steps: self.macro_steps,
            ledger,
        }
    }
}

/// The start of a fresh run as wrapped stacks, the oracle's representation:
/// zeroed state, processor 0 holding the root. The driver-backed executors
/// start from [`LockstepDriver::at_root`] instead.
pub(crate) fn fresh_run<P: TreeProblem>(problem: &P, cfg: &EngineConfig) -> Resume<P::Node> {
    let state = EngineState::fresh(cfg);
    let mut pes: Vec<SearchStack<P::Node>> = (0..cfg.p).map(|_| SearchStack::new()).collect();
    pes[0] = SearchStack::from_root(problem.root());
    (state, pes)
}

/// Run `problem` to exhaustion (or first goal) under `cfg`, sweeping the
/// search phase **cycle-major**: the macro-step loop over
/// [`CycleMajorBackend`]. Kept as the single-cycle baseline the inline
/// backend is benchmarked against; new code should call
/// [`crate::macrostep::run`].
pub fn run_fused<P: TreeProblem>(problem: &P, cfg: &EngineConfig) -> Outcome {
    run_fused_over(problem, LockstepDriver::at_root(problem, cfg))
}

pub(crate) fn run_fused_from<P: TreeProblem>(
    problem: &P,
    cfg: &EngineConfig,
    resume: Resume<P::Node>,
) -> Outcome {
    run_fused_over(problem, LockstepDriver::resumed(cfg, resume))
}

fn run_fused_over<P: TreeProblem>(problem: &P, (driver, arena): InProcess<P::Node>) -> Outcome {
    driver.run_to_end(CycleMajorBackend::new(problem, arena))
}

/// The cycle-major search phase: a burst of `h` cycles is `h` calls of
/// [`fused_expansion_cycle`], each one pass over the whole (shrinking)
/// active list, where the inline backend runs each PE's `h` cycles
/// back to back. The stacks end in the same state either way (PEs never
/// interact inside a search phase); a PE that leaves the list in cycle `c`
/// is recorded as a death at `c`, which is exactly its burst length.
pub struct CycleMajorBackend<'a, P: TreeProblem> {
    problem: &'a P,
    arena: StackArena<P::Node>,
}

impl<'a, P: TreeProblem> CycleMajorBackend<'a, P> {
    /// A backend searching `problem` over `arena`.
    pub fn new(problem: &'a P, arena: StackArena<P::Node>) -> Self {
        Self { problem, arena }
    }
}

impl<P: TreeProblem> BurstBackend for CycleMajorBackend<'_, P> {
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
        out.reset(active.len());
        let mut busy = 0;
        for cycle in 1..=h {
            let stats = fused_expansion_cycle(
                self.problem,
                &mut self.arena,
                active,
                &mut out.goals,
                &mut out.peak_stack_nodes,
            );
            busy = stats.busy;
            if h > 1 {
                out.deaths.extend(std::iter::repeat_n(cycle, stats.started - active.len()));
            }
            if active.is_empty() {
                break;
            }
        }
        Ok(busy)
    }

    fn stack_source(&mut self) -> Result<StackSource<'_, P::Node>, Infallible> {
        Ok(StackSource::Arena(&self.arena))
    }
}

/// Census of one fused expansion cycle (or one macro-step burst): how many
/// PEs ran it and how many finished it splittable.
pub struct CycleStats {
    /// PEs that expanded a node this cycle (= active-list length before).
    pub started: usize,
    /// PEs left with `len >= 2` afterwards.
    pub busy: usize,
}

/// One fused expansion + census cycle: a single branch-light pass over the
/// dense active list. Every listed PE holds work, so each pops exactly one
/// node; children are generated straight into their slots on the PE's
/// chain (no bounce through a per-PE child buffer, no frame vector at all),
/// and the post-push length lands in the dense `lens` census, which doubles
/// as this cycle's census entry — busy state is `lens[i] >= 2`, no flag
/// array to maintain. This is the single-cycle hot path shared by the fused
/// engine and the macro/par engines' one-cycle steps.
#[inline]
pub(crate) fn fused_expansion_cycle<P: TreeProblem>(
    problem: &P,
    arena: &mut StackArena<P::Node>,
    active: &mut Vec<usize>,
    goals: &mut u64,
    peak_stack_nodes: &mut usize,
) -> CycleStats {
    let mut run = arena.blocks_mut();
    let started = active.len();
    let mut busy_count = 0usize;
    let mut kept = 0usize;
    for scan in 0..started {
        let i = active[scan];
        *goals += run.expand_burst(i, problem, 1).goals;
        let len = run.len_of(i);
        // A PE that empties leaves the active list (rejoining the idle set
        // implicitly); otherwise its fresh length is this cycle's census.
        if len > 0 {
            busy_count += (len >= 2) as usize;
            *peak_stack_nodes = (*peak_stack_nodes).max(len);
            active[kept] = i;
            kept += 1;
        }
    }
    active.truncate(kept);
    CycleStats { started, busy: busy_count }
}

/// One macro-step's worth of expansion over the dense active list: `h`
/// consecutive lockstep cycles (or until a PE drains), exactly the search
/// phase of [`crate::macrostep::run`] between two checkpoints. `h == 1`
/// runs [`fused_expansion_cycle`]'s single-cycle pass; `h > 1` runs one
/// tight cache-hot DFS burst per active PE ([`burst_slice`]) and records
/// each drained PE's burst length in `death_cycles` (cleared first,
/// **unsorted**) so the caller can reconstruct the lockstep schedule via
/// [`uts_machine::SimdMachine::expansion_cycles_with_deaths`]. Public
/// because the sharded machine's workers (`uts-shard`) run the identical
/// helper over their arena — the bit-identity of the sharded schedule
/// reduces to this function being the single implementation of the search
/// phase. Machine accounting is the caller's job: it needs the *merged*
/// death list when the active list spans several workers.
pub fn expansion_burst<P: TreeProblem>(
    problem: &P,
    arena: &mut StackArena<P::Node>,
    active: &mut Vec<usize>,
    h: u64,
    goals: &mut u64,
    peak_stack_nodes: &mut usize,
    death_cycles: &mut Vec<u64>,
) -> CycleStats {
    death_cycles.clear();
    if h == 1 {
        return fused_expansion_cycle(problem, arena, active, goals, peak_stack_nodes);
    }
    let started = active.len();
    let cut = burst_slice(problem, h, active, &mut arena.blocks_mut(), death_cycles);
    active.truncate(cut.kept);
    *goals += cut.totals.goals;
    *peak_stack_nodes = (*peak_stack_nodes).max(cut.totals.peak);
    CycleStats { started, busy: cut.busy }
}

/// Census of [`burst_slice`] over one slice of the active list.
#[derive(Default)]
pub(crate) struct SliceBurst {
    /// The slice's PEs still holding work were compacted to its first
    /// `kept` entries (ascending PE order).
    pub kept: usize,
    /// How many of them are left splittable (`len >= 2`).
    pub busy: usize,
    /// Expansion/goal/peak totals over the slice's bursts.
    pub totals: Burst,
}

/// The multi-cycle burst kernel: run the DFS of every PE listed in `pes`
/// for up to `h` expansions on its cache-hot chain, push the burst length
/// of each PE that drained onto `deaths`, and compact `pes` in place to
/// the survivors. `run` holds (at least) the blocks of the slice's PEs —
/// the whole arena for the inline backend, one job's disjoint run of
/// blocks for the pooled one.
pub(crate) fn burst_slice<P: TreeProblem>(
    problem: &P,
    h: u64,
    pes: &mut [usize],
    run: &mut BlockRun<'_, P::Node>,
    deaths: &mut Vec<u64>,
) -> SliceBurst {
    let mut cut = SliceBurst::default();
    for scan in 0..pes.len() {
        let i = pes[scan];
        let burst = run.expand_burst(i, problem, h);
        cut.totals.absorb(burst);
        let s1 = run.len_of(i);
        if s1 == 0 {
            deaths.push(burst.expanded);
        } else {
            cut.busy += (s1 >= 2) as usize;
            pes[cut.kept] = i;
            cut.kept += 1;
        }
    }
    cut
}

/// Long-lived balancing buffers, reused across every round of every
/// balancing phase of a run so a warmed-up phase allocates nothing.
#[derive(Default)]
pub(crate) struct LbBuffers {
    pub scratch: MatchScratch,
    pub pairs: Vec<Pair>,
    pub incoming: Vec<usize>,
    /// Per-pair transfer verdicts of the last [`StackStore::split_pairs`]
    /// round.
    pub ok: Vec<bool>,
    /// Counted-split requests of the current equalization round.
    pub reqs: Vec<CountedMove>,
    /// Per-request moved counts of the last [`StackStore::split_counts`]
    /// round.
    pub moved: Vec<usize>,
}

/// In-flight ledger state while a run executes: receipts accumulate
/// transfer-by-transfer, phase records are armed at the firing checkpoint
/// (capturing the trigger operands *before* balancing resets the phase
/// counters) and settled after the balancing phase runs. All mutation
/// happens in serial sections — the trigger checkpoint and the balancing
/// phase run on the loop's thread over every backend — so no cross-thread
/// merging exists to get wrong, which is the determinism argument
/// (DESIGN.md §7).
pub(crate) struct LedgerRecorder {
    receipts: Vec<u32>,
    phases: Vec<LbPhaseRecord>,
    /// Armed by [`checkpoint_trigger`] on an effective fire: the captured
    /// operands plus the event horizon of the macro step ending here.
    pending: Option<(TriggerFiring, u64)>,
}

impl LedgerRecorder {
    pub(crate) fn new(p: usize) -> Self {
        Self { receipts: vec![0; p], phases: Vec::new(), pending: None }
    }

    fn arm(&mut self, firing: TriggerFiring, horizon: u64) {
        debug_assert!(self.pending.is_none(), "previous firing never settled");
        self.pending = Some((firing, horizon));
    }

    /// Per-PE receipt counters, bumped by the transfer helpers.
    pub(crate) fn receipts_mut(&mut self) -> &mut [u32] {
        &mut self.receipts
    }

    /// Receipts accumulated so far (checkpoint capture).
    pub(crate) fn receipts_so_far(&self) -> &[u32] {
        &self.receipts
    }

    /// Phase records settled so far (checkpoint capture). At a macro-step
    /// boundary no firing is pending, so this is the complete state.
    pub(crate) fn phases_so_far(&self) -> &[LbPhaseRecord] {
        debug_assert!(self.pending.is_none(), "capture with an unsettled firing");
        &self.phases
    }

    /// Rebuild the recorder from a snapshot (a boundary never has a
    /// pending firing, so none is restored).
    pub(crate) fn restore(receipts: Vec<u32>, phases: Vec<LbPhaseRecord>) -> Self {
        Self { receipts, phases, pending: None }
    }

    /// Close out the armed firing after its balancing phase ran. A phase
    /// that performed no rounds charged the machine nothing and left no
    /// `PhaseEvent`, so the ledger drops it too (the fire is abandoned).
    pub(crate) fn settle(
        &mut self,
        cfg: &EngineConfig,
        machine: &SimdMachine,
        rounds: u32,
        transfers: u64,
    ) {
        let (firing, horizon) = self.pending.take().expect("settle without an armed firing");
        if rounds > 0 {
            self.phases.push(LbPhaseRecord {
                at_cycle: machine.metrics().n_expand,
                firing,
                horizon,
                rounds,
                transfers,
                cost: cfg.cost.lb_phase_cost_breakdown(cfg.p, rounds),
            });
        }
    }

    pub(crate) fn finish(self, donations: &[u32]) -> Ledger {
        debug_assert!(self.pending.is_none(), "run ended with an unsettled firing");
        Ledger { donations: donations.to_vec(), receipts: self.receipts, phases: self.phases }
    }
}

/// [`trigger_fires`] plus ledger provenance: on an effective fire, capture
/// the trigger operands (which balancing is about to reset) and the event
/// horizon of the step ending at this checkpoint. Called from the loop's
/// checkpoint tail and from the oracle's; `horizon` is the macro step's
/// computed horizon (the oracle replays the same schedule when the ledger
/// is on, and passes 0 when it is off — the value is never read then).
pub(crate) fn checkpoint_trigger(
    cfg: &EngineConfig,
    machine: &SimdMachine,
    in_init: &mut bool,
    busy: usize,
    idle: usize,
    horizon: u64,
    recorder: &mut Option<LedgerRecorder>,
) -> bool {
    let was_init = *in_init;
    let fires = trigger_fires(cfg, machine, in_init, busy, idle);
    if fires {
        if let Some(rec) = recorder.as_mut() {
            let phase = machine.phase();
            let u = cfg.cost.u_calc;
            let kind = if was_init {
                TriggerKind::Init
            } else {
                match cfg.scheme.trigger {
                    Trigger::Static { x } => {
                        TriggerKind::Static { threshold: static_threshold(x, cfg.p) as u32 }
                    }
                    Trigger::Dp => TriggerKind::Dp,
                    Trigger::Dk => TriggerKind::Dk,
                    Trigger::AnyIdle => TriggerKind::AnyIdle,
                }
            };
            rec.arm(
                TriggerFiring {
                    kind,
                    busy: busy as u32,
                    idle: idle as u32,
                    w: phase.busy_pe_cycles * u,
                    t: phase.cycles * u,
                    w_idle: phase.idle_pe_cycles * u,
                    l_estimate: machine.estimated_lb_cost(),
                },
                horizon,
            );
        }
    }
    fires
}

/// Evaluate the checkpoint trigger (including the Sec. 7 init-phase
/// protocol) and decide whether a balancing phase runs. Shared by every
/// engine so the decision logic cannot drift between them. Returns false
/// when a fire would be a no-op (`busy == 0 || idle == 0`): such a fire
/// performs no transfer and leaves no trace in the schedule.
pub(crate) fn trigger_fires(
    cfg: &EngineConfig,
    machine: &SimdMachine,
    in_init: &mut bool,
    busy: usize,
    idle: usize,
) -> bool {
    let has_work = cfg.p - idle;
    let fire = if *in_init {
        let threshold = cfg.init_fraction.unwrap();
        if (has_work as f64) >= threshold * cfg.p as f64 {
            *in_init = false;
            // Hand over to the real trigger starting next cycle; do not
            // balance on the handover cycle itself.
            false
        } else {
            // Paper Sec. 7: during init every expansion cycle is followed
            // by a distribution cycle (static x = 0.85 fires whenever
            // A <= 0.85 P, which holds throughout init).
            true
        }
    } else {
        let ctx = TriggerCtx {
            p: cfg.p,
            busy,
            idle,
            phase: *machine.phase(),
            u_calc: cfg.cost.u_calc,
            l_estimate: machine.estimated_lb_cost(),
        };
        should_balance(cfg.scheme.trigger, &ctx)
    };
    fire && busy > 0 && idle > 0
}

/// One full load-balancing phase (all transfer modes), including the
/// machine accounting. The loop runs it over every backend's
/// [`StackStore`] — the arena in process, a remote store for the sharded
/// multi-process machine — so the balancing schedule cannot drift between
/// executors. The caller has already decided the trigger fires
/// effectively.
///
/// `peak_stack_nodes` is observed at *transfer time*: every fed receiver's
/// post-transfer length is folded in as the transfer lands, not at the
/// next expansion census. For the current transfer modes this is provably
/// redundant — `Single`/`Multiple` receivers start empty and get a chunk
/// strictly smaller than their donor's already-censused length, and
/// `Equalize` receivers end at most `ceil(total/P)`, which is bounded by
/// the censused maximum — so the reported peak (and the cross-engine
/// bit-identity) is unchanged. It exists so the high-water mark stays
/// honest by construction for any future transfer mode whose mid-phase
/// temporaries could exceed the post-phase stack tops (the unbounded-memory
/// failure of Sec. 8's Frye–Myczkowski variant), and the reference oracle
/// re-checks it with a full recount under `debug_assertions`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn balancing_phase<S: StackStore>(
    cfg: &EngineConfig,
    machine: &mut SimdMachine,
    matcher: &mut MatchState,
    store: &mut S,
    active: &mut Vec<usize>,
    busy_count: &mut usize,
    donations: &mut [u32],
    lb: &mut LbBuffers,
    idle: usize,
    peak_stack_nodes: &mut usize,
    recorder: &mut Option<LedgerRecorder>,
) {
    let mut rounds = 0u32;
    let mut transfers = 0u64;
    match cfg.scheme.transfers {
        TransferMode::Single => {
            pack_busy(active, store.lens(), &mut lb.scratch.packed_busy);
            let need = lb.scratch.packed_busy.len().min(cfg.p - active.len());
            pack_idle_prefix(active, cfg.p, need, &mut lb.scratch.packed_idle);
            matcher.match_round_packed(
                cfg.p,
                &lb.scratch.packed_busy,
                &lb.scratch.packed_idle,
                &mut lb.pairs,
            );
            transfers += apply_pairs(
                store,
                &lb.pairs,
                cfg.split,
                donations,
                busy_count,
                &mut lb.incoming,
                peak_stack_nodes,
                recorder.as_mut().map(LedgerRecorder::receipts_mut),
                &mut lb.ok,
            );
            merge_active(active, &mut lb.incoming);
            rounds = 1;
        }
        TransferMode::Multiple => {
            // Repeat rendezvous rounds until no idle PE can be fed
            // (required for D^P, Sec. 2.3). The lens mirror and the active
            // list are updated round-by-round, so no per-round refresh
            // sweep is needed; the merge runs each round so the next
            // round's enumerations see the PEs just fed.
            let mut idle_left = idle;
            loop {
                if *busy_count == 0 || idle_left == 0 {
                    break;
                }
                pack_busy(active, store.lens(), &mut lb.scratch.packed_busy);
                let need = lb.scratch.packed_busy.len().min(idle_left);
                pack_idle_prefix(active, cfg.p, need, &mut lb.scratch.packed_idle);
                matcher.match_round_packed(
                    cfg.p,
                    &lb.scratch.packed_busy,
                    &lb.scratch.packed_idle,
                    &mut lb.pairs,
                );
                if lb.pairs.is_empty() {
                    break;
                }
                let done = apply_pairs(
                    store,
                    &lb.pairs,
                    cfg.split,
                    donations,
                    busy_count,
                    &mut lb.incoming,
                    peak_stack_nodes,
                    recorder.as_mut().map(LedgerRecorder::receipts_mut),
                    &mut lb.ok,
                );
                merge_active(active, &mut lb.incoming);
                idle_left -= done as usize;
                transfers += done;
                rounds += 1;
            }
        }
        TransferMode::Equalize => {
            // FEGS: move counted chunks until node counts are near-uniform
            // (donors above average feed the poorest). Donors never drain
            // and every fed receiver joins the active list as its round
            // lands, so the list is current when the phase ends; the busy
            // count is re-read over it.
            rounds = equalize(
                store,
                active,
                lb,
                &mut transfers,
                donations,
                peak_stack_nodes,
                recorder.as_mut().map(LedgerRecorder::receipts_mut),
            );
            let lens = store.lens();
            *busy_count = active.iter().filter(|&&i| lens[i] >= 2).count();
            debug_assert!(
                census_matches(active, *busy_count, lens),
                "FEGS left the active list or busy count out of step with the stacks"
            );
        }
    }
    if rounds > 0 {
        machine.lb_phase(rounds, transfers);
    }
    if let Some(rec) = recorder.as_mut() {
        rec.settle(cfg, machine, rounds, transfers);
    }
}

/// Pack the busy enumeration (ascending) from the dense active list: busy
/// implies active, so this is O(A) where a full lens sweep would be O(P).
/// Busy state is read straight off the dense census array (`lens[i] >= 2`).
pub(crate) fn pack_busy(active: &[usize], lens: &[u32], out: &mut Vec<usize>) {
    out.clear();
    out.extend(active.iter().copied().filter(|&i| lens[i] >= 2));
}

/// The first `need` idle PEs in ascending order — the gaps in the sorted
/// active list. Only the matched prefix is ever materialized (idle PEs are
/// fed in plain index order, Fig. 2), so the walk stops as soon as `need`
/// gaps are found, typically long before index P.
pub(crate) fn pack_idle_prefix(active: &[usize], p: usize, need: usize, out: &mut Vec<usize>) {
    out.clear();
    let mut next_active = 0usize;
    let mut i = 0usize;
    while out.len() < need && i < p {
        if next_active < active.len() && active[next_active] == i {
            next_active += 1;
        } else {
            out.push(i);
        }
        i += 1;
    }
}

/// Apply one round of matched transfers, maintaining the incremental
/// census: the busy count and the list of PEs that must (re)join the
/// active list (busy state itself lives in the store's lens mirror, which
/// the split primitives keep in sync). Every fed receiver's post-transfer
/// length is folded into `peak`, so the high-water mark observes
/// balancing-phase state the next expansion census would miss if the
/// receiver shrank first (see [`balancing_phase`]).
///
/// The round is applied as one [`StackStore::split_pairs`] batch and the
/// census accounting replayed afterwards in pair order. Within a
/// rendezvous round every donor and every receiver is a distinct PE (the
/// k-th busy feeds the k-th idle) and the sets are disjoint (receivers are
/// empty, donors splittable), so each PE's length is touched by exactly
/// one split and the post-batch reads equal the split-by-split
/// interleaving's — the batched form is bit-identical to the original
/// sequential one, while letting a sharded store ship the whole round in
/// one message exchange.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_pairs<S: StackStore>(
    store: &mut S,
    pairs: &[Pair],
    split: SplitPolicy,
    donations: &mut [u32],
    busy_count: &mut usize,
    incoming: &mut Vec<usize>,
    peak: &mut usize,
    mut receipts: Option<&mut [u32]>,
    ok: &mut Vec<bool>,
) -> u64 {
    #[cfg(debug_assertions)]
    for pair in pairs {
        debug_assert_ne!(pair.donor, pair.receiver);
        debug_assert_eq!(store.len_of(pair.receiver), 0);
    }
    store.split_pairs(pairs, split, ok);
    debug_assert_eq!(ok.len(), pairs.len());
    let mut done = 0;
    for (pair, &transferred) in pairs.iter().zip(ok.iter()) {
        if transferred {
            donations[pair.donor] += 1;
            if let Some(r) = receipts.as_deref_mut() {
                r[pair.receiver] += 1;
            }
            done += 1;
            // Donor stays non-empty but may drop below the busy threshold;
            // receiver now holds work (and may itself be splittable).
            *busy_count -= (!store.can_split(pair.donor)) as usize;
            *busy_count += store.can_split(pair.receiver) as usize;
            *peak = (*peak).max(store.len_of(pair.receiver));
            incoming.push(pair.receiver);
        }
    }
    done
}

/// Merge `incoming` (PEs just fed by transfers; disjoint from `active`)
/// into the sorted active list, in place and from the back: the list grows
/// by the batch and only its entries above the smallest newcomer move.
/// Leaves `incoming` empty. Public for the same reason as
/// [`expansion_burst`]: a shard worker keeps its list the way the engines do.
pub fn merge_active(active: &mut Vec<usize>, incoming: &mut Vec<usize>) {
    // Receivers of a single round arrive ascending, but a multi-round phase
    // can interleave rounds; sort the (small) batch before the linear merge.
    incoming.sort_unstable();
    let mut a = active.len();
    let mut w = a + incoming.len();
    active.resize(w, 0);
    while let Some(&fed) = incoming.last() {
        w -= 1;
        if a > 0 && active[a - 1] > fed {
            active[w] = active[a - 1];
            a -= 1;
        } else {
            active[w] = fed;
            incoming.pop();
        }
    }
}

/// FEGS equalization: repeatedly let every above-average PE ship its excess
/// to the poorest PEs until counts are within 1 of uniform (or progress
/// stops). Returns the number of transfer rounds. Donated chunks keep their
/// frame structure ([`StackArena::split_count_into`] reproduces
/// `split_count` + `merge_from` over the chunk chains); see DESIGN.md.
///
/// A round costs O(A + stacks moved) plus the census up to its last matched
/// receiver, `A = active.len()`, where the oracle's form pays two filters
/// over all `P` lengths. The target is at least 1 whenever anyone holds
/// work, so a donor (`len > target`) holds at least two nodes — it is
/// splittable and on the sorted `active` list, which is all the donor
/// enumeration reads. Only the matched prefix of the receiver enumeration
/// (`len < target`, ascending) is ever zipped, so one walk over the census
/// stops at the `donors.len()`-th receiver (the [`pack_idle_prefix`] idea,
/// over lengths because a receiver may hold work). A donor keeps at least
/// `target` nodes and a receiver ends at most at `target`, so the list
/// only grows: receivers that were empty and now hold work are merged in
/// each round. A remote store that latched a transport error reports
/// `moved = 0` whatever happened, hence the merge reads the post-batch
/// census.
///
/// Each round is applied as one [`StackStore::split_counts`] batch: a
/// round's donors (`len > target`) and receivers (`len < target`) are
/// disjoint and each appears at most once, so the per-request
/// `excess`/`want` operands computed from the pre-round census equal the
/// sequential interleaving's, and the batch is bit-identical to it (the
/// same argument as [`apply_pairs`]).
pub(crate) fn equalize<S: StackStore>(
    store: &mut S,
    active: &mut Vec<usize>,
    lb: &mut LbBuffers,
    transfers: &mut u64,
    donations: &mut [u32],
    peak: &mut usize,
    mut receipts: Option<&mut [u32]>,
) -> u32 {
    let p = store.p();
    let lens = store.lens();
    let total: usize = active.iter().map(|&i| lens[i] as usize).sum();
    let target = total.div_ceil(p);
    let mut rounds = 0u32;
    // Bound the rounds: each round matches donors to receivers 1-1, so
    // log-ish rounds suffice; 2·log2(P)+4 is a generous cap.
    let cap = 2 * (usize::BITS - p.leading_zeros()) + 4;
    while rounds < cap {
        // Donors hold > target; receivers hold < target (poorest first ==
        // index order is fine; rendezvous semantics).
        let lens = store.lens();
        let donors = &mut lb.scratch.packed_busy;
        donors.clear();
        donors.extend(active.iter().copied().filter(|&i| lens[i] as usize > target));
        if donors.is_empty() {
            break;
        }
        let receivers = &mut lb.scratch.packed_idle;
        receivers.clear();
        for (i, &len) in lens.iter().enumerate() {
            if (len as usize) < target {
                receivers.push(i);
                if receivers.len() == donors.len() {
                    break;
                }
            }
        }
        if receivers.is_empty() {
            break;
        }
        lb.reqs.clear();
        debug_assert!(lb.incoming.is_empty());
        for (&d, &r) in donors.iter().zip(receivers.iter()) {
            let excess = lens[d] as usize - target;
            let want = target - lens[r] as usize;
            lb.reqs.push(CountedMove { donor: d, receiver: r, max_nodes: excess.min(want) });
            if lens[r] == 0 {
                lb.incoming.push(r);
            }
        }
        store.split_counts(&lb.reqs, &mut lb.moved);
        debug_assert_eq!(lb.moved.len(), lb.reqs.len());
        let lens = store.lens();
        let mut moved_any = false;
        for (req, &n) in lb.reqs.iter().zip(lb.moved.iter()) {
            if n > 0 {
                donations[req.donor] += 1;
                if let Some(rc) = receipts.as_deref_mut() {
                    rc[req.receiver] += 1;
                }
                *transfers += 1;
                *peak = (*peak).max(lens[req.receiver] as usize);
                moved_any = true;
            }
        }
        lb.incoming.retain(|&r| lens[r] > 0);
        merge_active(active, &mut lb.incoming);
        rounds += 1;
        if !moved_any {
            break;
        }
    }
    rounds
}

/// Whether `active` is exactly the PEs holding work (ascending) and `busy`
/// of them are splittable — the census a balancing phase must leave.
fn census_matches(active: &[usize], busy: usize, lens: &[u32]) -> bool {
    active.iter().copied().eq((0..lens.len()).filter(|&i| lens[i] > 0))
        && busy == lens.iter().filter(|&&l| l >= 2).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    // Behavioral tests drive the default (macro) engine; the cycle-major
    // backend is covered by the smoke test below and the cross-engine
    // equivalence suite in `tests/engine_equivalence.rs`.
    use crate::macrostep::run;
    use crate::scheme::Scheme;
    use uts_machine::CostModel;
    use uts_synth::{BinomialTree, GeometricTree};
    use uts_tree::serial_dfs;

    fn geo(seed: u64) -> GeometricTree {
        GeometricTree { seed, b_max: 8, depth_limit: 6 }
    }

    fn all_schemes() -> Vec<Scheme> {
        let mut v: Vec<Scheme> = Scheme::table1(0.75).map(|(_, s)| s).to_vec();
        v.push(Scheme::gp_static(0.5));
        v.push(Scheme::ngp_static(0.9));
        v.push(Scheme::fess());
        v.push(Scheme::fegs());
        v
    }

    #[test]
    fn every_scheme_expands_the_serial_node_count() {
        let tree = geo(2);
        let w = serial_dfs(&tree).expanded;
        for scheme in all_schemes() {
            for p in [1usize, 4, 32, 128] {
                let cfg = EngineConfig::new(p, scheme, CostModel::cm2());
                let out = run(&tree, &cfg);
                assert!(!out.truncated);
                assert_eq!(
                    out.report.nodes_expanded,
                    w,
                    "{} P={p} must be anomaly-free",
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn every_scheme_finds_the_same_goals() {
        let tree = BinomialTree::with_q(5, 32, 4, 0.2);
        let serial = serial_dfs(&tree);
        for scheme in all_schemes() {
            let cfg = EngineConfig::new(16, scheme, CostModel::cm2());
            let out = run(&tree, &cfg);
            assert_eq!(out.goals, serial.goals, "{}", scheme.name());
        }
    }

    #[test]
    fn single_processor_degenerates_to_serial() {
        let tree = geo(7);
        let serial = serial_dfs(&tree);
        let cfg = EngineConfig::new(1, Scheme::gp_static(0.9), CostModel::cm2());
        let out = run(&tree, &cfg);
        assert_eq!(out.report.n_expand, serial.expanded, "one cycle per node");
        assert_eq!(out.report.n_lb, 0, "nobody to balance with");
        assert!((out.report.efficiency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accounting_identity_holds_for_all_schemes() {
        let tree = geo(3);
        for scheme in all_schemes() {
            let cfg = EngineConfig::new(32, scheme, CostModel::cm2());
            let out = run(&tree, &cfg);
            assert!(out.report.accounting_identity_holds(), "{}", scheme.name());
        }
    }

    #[test]
    fn gp_does_no_more_balancing_than_ngp_at_high_x() {
        // The paper's headline effect (Table 2 / Fig. 3): at x > 0.5, GP
        // needs no more (usually fewer) balancing phases than nGP.
        let tree = GeometricTree { seed: 11, b_max: 8, depth_limit: 7 };
        for x in [0.7, 0.8, 0.9] {
            let gp = run(&tree, &EngineConfig::new(64, Scheme::gp_static(x), CostModel::cm2()));
            let ngp = run(&tree, &EngineConfig::new(64, Scheme::ngp_static(x), CostModel::cm2()));
            assert!(
                gp.report.n_lb <= ngp.report.n_lb,
                "x={x}: GP {} vs nGP {}",
                gp.report.n_lb,
                ngp.report.n_lb
            );
        }
    }

    #[test]
    fn higher_x_means_more_balancing_fewer_idle_cycles() {
        let tree = GeometricTree { seed: 13, b_max: 8, depth_limit: 7 };
        let lo = run(&tree, &EngineConfig::new(64, Scheme::gp_static(0.5), CostModel::cm2()));
        let hi = run(&tree, &EngineConfig::new(64, Scheme::gp_static(0.9), CostModel::cm2()));
        assert!(hi.report.n_lb >= lo.report.n_lb);
        assert!(hi.report.t_idle <= lo.report.t_idle);
    }

    #[test]
    fn trace_length_matches_cycle_count() {
        let tree = geo(4);
        let cfg = EngineConfig::new(32, Scheme::gp_dk(), CostModel::cm2()).with_trace();
        let out = run(&tree, &cfg);
        assert_eq!(out.report.active_trace.len(), out.report.n_expand);
        // Trace entries never exceed P.
        assert!(out.report.active_trace.iter().all(|a| a <= 32));
    }

    #[test]
    fn stop_on_goal_terminates_early() {
        let tree = BinomialTree::with_q(9, 64, 4, 0.22);
        let serial = serial_dfs(&tree);
        let mut cfg = EngineConfig::new(16, Scheme::gp_static(0.8), CostModel::cm2());
        cfg.stop_on_goal = true;
        let out = run(&tree, &cfg);
        if serial.goals > 0 {
            assert!(out.goals >= 1);
            assert!(out.report.nodes_expanded <= serial.expanded);
        }
    }

    #[test]
    fn max_cycles_truncates() {
        let tree = geo(5);
        let mut cfg = EngineConfig::new(8, Scheme::gp_static(0.8), CostModel::cm2());
        cfg.max_cycles = Some(3);
        let out = run(&tree, &cfg);
        assert!(out.truncated);
        assert_eq!(out.report.n_expand, 3);
    }

    #[test]
    fn dynamic_schemes_use_init_phase() {
        let cfg = EngineConfig::new(128, Scheme::gp_dk(), CostModel::cm2());
        assert_eq!(cfg.init_fraction, Some(0.85));
        let cfg = EngineConfig::new(128, Scheme::gp_static(0.8), CostModel::cm2());
        assert_eq!(cfg.init_fraction, None);
    }

    #[test]
    fn more_processors_do_not_increase_efficiency_of_fixed_w() {
        // The isoefficiency premise: fixed W, growing P ⇒ E falls.
        let tree = geo(6);
        let e: Vec<f64> = [4usize, 16, 64, 256]
            .iter()
            .map(|&p| {
                run(&tree, &EngineConfig::new(p, Scheme::gp_static(0.8), CostModel::cm2()))
                    .report
                    .efficiency
            })
            .collect();
        assert!(e.windows(2).all(|w| w[1] <= w[0] + 1e-9), "E must fall: {e:?}");
    }

    #[test]
    fn gp_spreads_the_donation_burden_more_evenly_than_ngp() {
        // The motivation for GP (Sec. 2.2): measured as the Gini
        // coefficient of per-PE donation counts.
        let tree = GeometricTree { seed: 11, b_max: 8, depth_limit: 7 };
        let gp = run(&tree, &EngineConfig::new(128, Scheme::gp_static(0.9), CostModel::cm2()));
        let ngp = run(&tree, &EngineConfig::new(128, Scheme::ngp_static(0.9), CostModel::cm2()));
        let g_gp = uts_analysis::gini(&gp.donations);
        let g_ngp = uts_analysis::gini(&ngp.donations);
        assert!(g_gp < g_ngp, "GP gini {g_gp:.3} must be below nGP gini {g_ngp:.3}");
    }

    #[test]
    fn peak_stack_is_positive_and_bounded_by_tree_depth_times_branching() {
        let tree = geo(3);
        let out = run(&tree, &EngineConfig::new(16, Scheme::gp_static(0.8), CostModel::cm2()));
        assert!(out.peak_stack_nodes >= 1);
        // Geometric tree: depth <= 6, branching <= 8 → a DFS stack holds
        // at most depth * (b_max - 1) + 1 alternatives plus split slack.
        assert!(out.peak_stack_nodes <= 6 * 8 + 8, "peak {}", out.peak_stack_nodes);
    }

    #[test]
    fn peak_stack_reconciles_across_engines_and_transfer_modes() {
        // The high-water mark is observed in two places: the expansion
        // census and (since the transfer-time fix) every receiver as its
        // transfer lands inside the balancing phase. The reference oracle
        // additionally recounts all P stacks after each settled phase under
        // debug_assertions. One scheme per transfer mode (Single, Multiple,
        // Equalize), engines compared pairwise.
        let tree = GeometricTree { seed: 11, b_max: 8, depth_limit: 7 };
        for scheme in [Scheme::gp_static(0.8), Scheme::gp_dp(), Scheme::fegs()] {
            let cfg = EngineConfig::new(64, scheme, CostModel::cm2());
            let oracle = crate::reference::run_reference(&tree, &cfg);
            for engine in [EngineKind::Fused, EngineKind::Macro, EngineKind::Par] {
                let out = run_with(&tree, &cfg.clone().with_engine(engine));
                assert_eq!(
                    out.peak_stack_nodes,
                    oracle.peak_stack_nodes,
                    "{} peak diverges from oracle under {}",
                    engine.name(),
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn donations_sum_to_transfer_count() {
        let tree = geo(3);
        for scheme in all_schemes() {
            let out = run(&tree, &EngineConfig::new(64, scheme, CostModel::cm2()));
            let total: u64 = out.donations.iter().map(|&d| d as u64).sum();
            assert_eq!(total, out.report.n_transfers, "{}", scheme.name());
        }
    }

    #[test]
    fn fused_engine_still_runs_the_full_space() {
        let tree = geo(2);
        let w = serial_dfs(&tree).expanded;
        let out = run_fused(&tree, &EngineConfig::new(32, Scheme::gp_dk(), CostModel::cm2()));
        assert!(!out.truncated);
        assert_eq!(out.report.nodes_expanded, w);
        assert!(out.macro_steps.is_empty(), "no horizon log was asked for");
    }

    #[test]
    fn efficiency_vs_serial_matches_internal_when_anomaly_free() {
        let tree = geo(8);
        let w = serial_dfs(&tree).expanded;
        let cfg = EngineConfig::new(32, Scheme::gp_static(0.8), CostModel::cm2());
        let out = run(&tree, &cfg);
        let e = out.efficiency_vs_serial(w, &cfg.cost);
        assert!((e - out.report.efficiency).abs() < 1e-12);
    }
}
