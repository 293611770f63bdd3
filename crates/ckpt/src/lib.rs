//! Deterministic checkpoint/resume snapshots for the lockstep engines.
//!
//! Long lockstep runs (the paper's experiments are 128-processor-*hour*
//! CM-2 sweeps) must survive preemption: this crate defines the versioned
//! binary snapshot a run writes at macro-step boundaries and reloads on
//! resume. The contract is exact: a run resumed from a snapshot produces
//! an `Outcome` **bit-identical** to the uninterrupted run — every
//! counter, trace, donation vector and ledger phase — which the
//! kill→resume differential suite enforces across every engine.
//!
//! Three layers live here, none of which depend on the engine:
//!
//! * the **container** format ([`EngineSnapshot::encode`] /
//!   [`EngineSnapshot::decode`]): magic, format version, config
//!   fingerprint, length-prefixed payload, FNV-1a checksum — hand-rolled
//!   like `report_json.rs`, no serialization dependency, every multi-byte
//!   value little-endian;
//! * the **payload** ([`EngineSnapshot`]): complete engine state at a
//!   macro-step boundary — every PE's [`SearchStack`], the trigger/init
//!   accumulators, the GP pointer, the machine clock and [`Metrics`]
//!   (active trace included), the in-progress ledger, and the horizon log;
//! * the **harness** types ([`CheckpointPolicy`], [`FaultPlan`]): when to
//!   snapshot, and — for tests — when to kill.
//!
//! Snapshots are **engine-invariant**: every engine checkpoints at the
//! same macro-step boundaries (the per-cycle reference oracle replays the
//! loop's `compute_horizon` schedule, exactly as it does for the ledger),
//! and everything captured is a pure function of the lockstep
//! schedule. A snapshot taken by one engine resumes under any other.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use uts_machine::{
    ActiveTrace, CostModel, LbCostBreakdown, LbPhaseRecord, Metrics, PhaseEvent, PhaseStats,
    SimTime, SimdMachine, TriggerFiring, TriggerKind,
};
use uts_tree::codec::{put_bool, put_u32, put_u64, put_usize};
use uts_tree::{CkptNode, CodecError, Reader, SearchStack, StackArena};

pub mod spill;
pub mod wire;

/// Leading bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"UTSCKPT\0";

/// Current snapshot format version. Bump on any layout change; decoders
/// reject other versions rather than misread them.
pub const FORMAT_VERSION: u32 = 1;

/// Why a snapshot failed to load. Each corruption mode gets its own
/// variant so callers (and the round-trip property suite) can tell a
/// wrong file from a stale file from a damaged file from a file written
/// under a different run configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptError {
    /// The buffer does not start with [`MAGIC`]: not a snapshot at all.
    BadMagic,
    /// A snapshot, but written by an incompatible format version.
    UnsupportedVersion(u32),
    /// Header or payload bytes fail the checksum: damaged in storage.
    ChecksumMismatch,
    /// An intact snapshot of a *different* run configuration.
    ConfigMismatch {
        /// Fingerprint of the configuration the caller is resuming under.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// The buffer ended before the declared structure did.
    Truncated,
    /// Bytes decoded to a structurally impossible value (names the
    /// violated invariant). Unreachable through storage damage — the
    /// checksum catches that first — so it indicates an encoder bug.
    Malformed(&'static str),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            CkptError::UnsupportedVersion(v) => {
                write!(f, "snapshot format version {v} (this build reads {FORMAT_VERSION})")
            }
            CkptError::ChecksumMismatch => write!(f, "snapshot checksum mismatch (corrupted)"),
            CkptError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot belongs to a different configuration \
                 (fingerprint {found:#018x}, resuming config is {expected:#018x})"
            ),
            CkptError::Truncated => write!(f, "snapshot truncated"),
            CkptError::Malformed(what) => write!(f, "snapshot malformed: {what}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<CodecError> for CkptError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => CkptError::Truncated,
            CodecError::Malformed(what) => CkptError::Malformed(what),
        }
    }
}

/// FNV-1a 64-bit hash — the workspace's standing choice for cheap
/// deterministic hashing (the vendored proptest seeds test RNGs the same
/// way). Used both for the payload checksum and, by `uts-core`, for the
/// config fingerprint.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Incremental FNV-1a over heterogeneous fields (config fingerprinting).
#[derive(Debug, Clone)]
pub struct Fingerprint {
    state: u64,
}

impl Fingerprint {
    /// Start a fingerprint at the FNV offset basis.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self { state: 0xcbf2_9ce4_8422_2325 }
    }

    /// Mix raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Mix a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// When a run writes snapshots. Both conditions may be armed at once; a
/// boundary satisfying either produces one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointPolicy {
    /// Snapshot at every `n`-th macro-step boundary (1-based: `Some(3)`
    /// snapshots after steps 3, 6, 9, …).
    pub every_steps: Option<u64>,
    /// Snapshot at every boundary whose step ended in a balancing phase —
    /// the moments load just moved, which long-run operators care about.
    pub on_trigger: bool,
}

impl CheckpointPolicy {
    /// Snapshot every `n` macro-steps.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn every(n: u64) -> Self {
        assert!(n > 0, "checkpoint interval must be positive");
        Self { every_steps: Some(n), on_trigger: false }
    }

    /// Snapshot after every balancing phase.
    pub fn on_trigger() -> Self {
        Self { every_steps: None, on_trigger: true }
    }

    /// Also snapshot after every balancing phase.
    pub fn and_on_trigger(mut self) -> Self {
        self.on_trigger = true;
        self
    }

    /// Whether a boundary with 1-based index `step`, where `fired` says a
    /// balancing phase just ran, should snapshot.
    pub fn wants(&self, step: u64, fired: bool) -> bool {
        self.every_steps.is_some_and(|n| step.is_multiple_of(n)) || (self.on_trigger && fired)
    }
}

/// Fault injection for the kill→resume test harness: the run is killed —
/// `Outcome::killed` set, search abandoned — immediately *after* the
/// boundary processing (including any snapshot) of the given macro-step.
/// Power-loss-between-steps semantics: everything up to and including the
/// boundary's snapshot survives; nothing after it happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// 1-based macro-step boundary at which the run dies.
    pub kill_at_step: u64,
}

impl FaultPlan {
    /// Kill at the given 1-based macro-step boundary.
    pub fn kill_at(step: u64) -> Self {
        Self { kill_at_step: step }
    }

    /// A seeded pseudo-random kill step in `1..=max_step` (SplitMix64 on
    /// the seed), so differential tests vary the kill point run-to-run
    /// while staying reproducible from the seed alone.
    pub fn seeded(seed: u64, max_step: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Self { kill_at_step: 1 + z % max_step.max(1) }
    }
}

/// Cooperative preemption flag, checked by every engine at each
/// macro-step boundary — the third leg of the harness layer next to
/// [`CheckpointPolicy`] (when to snapshot) and [`FaultPlan`] (when to
/// die). Raising the signal asks the run to *park*: at its next boundary
/// the engine writes one forced snapshot of the boundary (whatever the
/// policy says) and returns its partial `Outcome` with the killed flag
/// set, exactly like an injected fault. Because parking happens only at
/// macro-step boundaries and the snapshot carries the boundary count, a
/// later resume continues the lockstep schedule bit-identically — which
/// is what lets a job server preempt long runs without perturbing their
/// results.
///
/// Clones share the flag (the scheduler keeps one end, the running
/// engine's checkpoint config holds the other). Raising is sticky until
/// [`PreemptSignal::clear`].
#[derive(Debug, Clone, Default)]
pub struct PreemptSignal(Arc<AtomicBool>);

impl PreemptSignal {
    /// A fresh, un-raised signal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ask the run to park at its next macro-step boundary.
    pub fn raise(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether the signal has been raised (engine side, boundary check).
    pub fn is_raised(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// Reset the flag (e.g. before resuming the parked run).
    pub fn clear(&self) {
        self.0.store(false, Ordering::Release);
    }
}

/// The machine half of a snapshot: everything [`SimdMachine`] owns.
#[derive(Debug, Clone)]
pub struct MachineState {
    /// Virtual clock.
    pub now: SimTime,
    /// The `L` estimate (cost of the most recent balancing phase).
    pub last_lb_cost: SimTime,
    /// Run-long counters, active trace and phase log.
    pub metrics: Metrics,
    /// Search-phase counters the dynamic triggers read.
    pub phase: PhaseStats,
}

impl MachineState {
    /// Capture a machine's complete state.
    pub fn capture(machine: &SimdMachine) -> Self {
        Self {
            now: machine.now(),
            last_lb_cost: machine.estimated_lb_cost(),
            metrics: machine.metrics().clone(),
            phase: *machine.phase(),
        }
    }

    /// Rebuild the machine under `p` processors and `cost` (both come from
    /// the run configuration, which the fingerprint already pinned).
    pub fn restore(self, p: usize, cost: CostModel) -> SimdMachine {
        SimdMachine::restore(p, cost, self.now, self.last_lb_cost, self.metrics, self.phase)
    }
}

/// The in-progress ledger of a run that records one: per-PE receipts and
/// the settled phase records. (Donations live in the engine's own vector;
/// a pending un-settled firing never exists at a macro-step boundary.)
#[derive(Debug, Clone)]
pub struct RecorderState {
    /// Work transfers received by each PE so far.
    pub receipts: Vec<u32>,
    /// Settled balancing-phase records, in schedule order.
    pub phases: Vec<LbPhaseRecord>,
}

/// Complete engine state at a macro-step boundary — the payload of a
/// snapshot. Generic over the problem's node type; the *problem itself*
/// is not captured (a resume call re-supplies it, and the config
/// fingerprint guards against resuming the wrong run setup).
#[derive(Debug, Clone)]
pub struct EngineSnapshot<N> {
    /// Macro-step boundaries completed (1-based count).
    pub step: u64,
    /// Whether the Sec. 7 init-distribution protocol is still running.
    pub in_init: bool,
    /// Goal nodes found so far.
    pub goals: u64,
    /// Per-PE donation counts so far.
    pub donations: Vec<u32>,
    /// Largest per-PE stack size observed so far.
    pub peak_stack_nodes: usize,
    /// The GP matcher's global pointer (`None` for NGP or before the
    /// first donation).
    pub global_pointer: Option<usize>,
    /// Clock, counters, traces.
    pub machine: MachineState,
    /// In-progress ledger, if the run records one.
    pub recorder: Option<RecorderState>,
    /// The horizon log so far, as `(start_cycle, horizon, ran)` triples
    /// (only non-empty when the run records horizons).
    pub macro_steps: Vec<(u64, u64, u64)>,
    /// Every PE's DFS stack, index = PE id.
    pub stacks: Vec<SearchStack<N>>,
}

fn encode_trigger_kind(out: &mut Vec<u8>, k: TriggerKind) {
    match k {
        TriggerKind::Init => out.push(0),
        TriggerKind::Static { threshold } => {
            out.push(1);
            put_u32(out, threshold);
        }
        TriggerKind::Dp => out.push(2),
        TriggerKind::Dk => out.push(3),
        TriggerKind::AnyIdle => out.push(4),
    }
}

fn decode_trigger_kind(r: &mut Reader<'_>) -> Result<TriggerKind, CodecError> {
    Ok(match r.u8()? {
        0 => TriggerKind::Init,
        1 => TriggerKind::Static { threshold: r.u32()? },
        2 => TriggerKind::Dp,
        3 => TriggerKind::Dk,
        4 => TriggerKind::AnyIdle,
        _ => return Err(CodecError::Malformed("trigger kind tag")),
    })
}

fn encode_phase_record(out: &mut Vec<u8>, ph: &LbPhaseRecord) {
    put_u64(out, ph.at_cycle);
    encode_trigger_kind(out, ph.firing.kind);
    put_u32(out, ph.firing.busy);
    put_u32(out, ph.firing.idle);
    put_u64(out, ph.firing.w);
    put_u64(out, ph.firing.t);
    put_u64(out, ph.firing.w_idle);
    put_u64(out, ph.firing.l_estimate);
    put_u64(out, ph.horizon);
    put_u32(out, ph.rounds);
    put_u64(out, ph.transfers);
    put_u64(out, ph.cost.setup);
    put_u64(out, ph.cost.transfer);
    put_u32(out, ph.cost.multiplier);
    put_u64(out, ph.cost.total);
}

fn decode_phase_record(r: &mut Reader<'_>) -> Result<LbPhaseRecord, CodecError> {
    Ok(LbPhaseRecord {
        at_cycle: r.u64()?,
        firing: TriggerFiring {
            kind: decode_trigger_kind(r)?,
            busy: r.u32()?,
            idle: r.u32()?,
            w: r.u64()?,
            t: r.u64()?,
            w_idle: r.u64()?,
            l_estimate: r.u64()?,
        },
        horizon: r.u64()?,
        rounds: r.u32()?,
        transfers: r.u64()?,
        cost: LbCostBreakdown {
            setup: r.u64()?,
            transfer: r.u64()?,
            multiplier: r.u32()?,
            total: r.u64()?,
        },
    })
}

fn encode_metrics(out: &mut Vec<u8>, m: &Metrics) {
    put_u64(out, m.n_expand);
    put_u64(out, m.n_lb);
    put_u64(out, m.n_transfers);
    put_u64(out, m.nodes_expanded);
    put_u64(out, m.busy_pe_cycles);
    put_u64(out, m.idle_pe_cycles);
    put_u64(out, m.t_lb_machine);
    put_bool(out, m.trace_enabled);
    m.active_trace.breakpoints().to_vec().encode_node(out);
    put_u64(out, m.active_trace.len());
    put_usize(out, m.phase_log.len());
    for ev in &m.phase_log {
        put_u64(out, ev.at_cycle);
        put_u32(out, ev.rounds);
        put_u64(out, ev.transfers);
        put_u64(out, ev.cost);
    }
}

fn decode_metrics(r: &mut Reader<'_>) -> Result<Metrics, CodecError> {
    let n_expand = r.u64()?;
    let n_lb = r.u64()?;
    let n_transfers = r.u64()?;
    let nodes_expanded = r.u64()?;
    let busy_pe_cycles = r.u64()?;
    let idle_pe_cycles = r.u64()?;
    let t_lb_machine = r.u64()?;
    let trace_enabled = r.bool()?;
    let breaks: Vec<(u64, u32)> = Vec::decode_node(r)?;
    let trace_len = r.u64()?;
    // Re-validate canonicity here (the constructor would panic; a decoder
    // must reject instead).
    let canonical = breaks.is_empty() == (trace_len == 0)
        && breaks.first().is_none_or(|&(c, _)| c == 0)
        && breaks.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 != w[1].1)
        && breaks.last().is_none_or(|&(c, _)| c < trace_len);
    if !canonical {
        return Err(CodecError::Malformed("active trace breakpoints not canonical"));
    }
    let active_trace = ActiveTrace::from_breakpoints(breaks, trace_len);
    let n_events = r.len(28)?;
    let mut phase_log = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        phase_log.push(PhaseEvent {
            at_cycle: r.u64()?,
            rounds: r.u32()?,
            transfers: r.u64()?,
            cost: r.u64()?,
        });
    }
    Ok(Metrics {
        n_expand,
        n_lb,
        n_transfers,
        nodes_expanded,
        busy_pe_cycles,
        idle_pe_cycles,
        t_lb_machine,
        trace_enabled,
        active_trace,
        phase_log,
    })
}

/// Where a snapshot's PE stacks are read from at encode time. The frame
/// view (`Vec<Vec<N>>` [`SearchStack`]s) is the canonical representation;
/// the structure-of-arrays [`StackArena`] the hot engines run on encodes
/// byte-identically (`StackArena::encode_pe` is specified against the
/// `SearchStack` codec), so either source yields the same snapshot bytes
/// and both decode into the same `Vec<SearchStack<N>>`.
pub enum StackSource<'a, N> {
    /// The canonical frame representation (oracle engine, owned snapshots).
    Frames(&'a [SearchStack<N>]),
    /// The dense arena the burst kernels run on, serialized in place.
    Arena(&'a StackArena<N>),
    /// Stacks already in their encoded form: `bytes` is the concatenation
    /// of the `p` per-PE encodings, each byte-identical to what
    /// [`SearchStack`]'s codec (equivalently `StackArena::encode_pe`)
    /// emits. This is how the sharded machine checkpoints — each worker
    /// serializes its own PE range and the coordinator splices the
    /// sections without ever decoding a node, so a shard snapshot is
    /// indistinguishable from a single-process one.
    Encoded {
        /// Ensemble size `P` across all contributing shards.
        p: usize,
        /// Concatenated per-PE stack encodings, PE order.
        bytes: &'a [u8],
    },
}

impl<N> StackSource<'_, N> {
    /// Ensemble size `P`.
    pub fn p(&self) -> usize {
        match self {
            StackSource::Frames(stacks) => stacks.len(),
            StackSource::Arena(arena) => arena.p(),
            StackSource::Encoded { p, .. } => *p,
        }
    }
}

/// Borrowed view of engine state at a macro-step boundary — the encode-side
/// twin of [`EngineSnapshot`]. Engines build one over their *live* state
/// (stacks, donation vector) so a snapshot costs one serialization pass and
/// zero clones; the bytes it produces decode into the equivalent owned
/// [`EngineSnapshot`].
pub struct SnapshotView<'a, N> {
    /// Macro-step boundaries completed (1-based count).
    pub step: u64,
    /// Whether the Sec. 7 init-distribution protocol is still running.
    pub in_init: bool,
    /// Goal nodes found so far.
    pub goals: u64,
    /// Per-PE donation counts so far.
    pub donations: &'a [u32],
    /// Largest per-PE stack size observed so far.
    pub peak_stack_nodes: usize,
    /// The GP matcher's global pointer (`None` for NGP or before the
    /// first donation).
    pub global_pointer: Option<usize>,
    /// Clock, counters, traces.
    pub machine: &'a MachineState,
    /// In-progress ledger, if the run records one.
    pub recorder: Option<&'a RecorderState>,
    /// The horizon log so far, as `(start_cycle, horizon, ran)` triples.
    pub macro_steps: &'a [(u64, u64, u64)],
    /// Every PE's DFS stack, index = PE id.
    pub stacks: StackSource<'a, N>,
}

impl<N: CkptNode> SnapshotView<'_, N> {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        put_u64(out, self.step);
        put_bool(out, self.in_init);
        put_u64(out, self.goals);
        put_usize(out, self.donations.len());
        for &d in self.donations {
            put_u32(out, d);
        }
        put_usize(out, self.peak_stack_nodes);
        self.global_pointer.encode_node(out);
        put_u64(out, self.machine.now);
        put_u64(out, self.machine.last_lb_cost);
        encode_metrics(out, &self.machine.metrics);
        put_u64(out, self.machine.phase.cycles);
        put_u64(out, self.machine.phase.busy_pe_cycles);
        put_u64(out, self.machine.phase.idle_pe_cycles);
        match self.recorder {
            None => put_bool(out, false),
            Some(rec) => {
                put_bool(out, true);
                rec.receipts.encode_node(out);
                put_usize(out, rec.phases.len());
                for ph in &rec.phases {
                    encode_phase_record(out, ph);
                }
            }
        }
        put_usize(out, self.macro_steps.len());
        for ms in self.macro_steps {
            ms.encode_node(out);
        }
        match &self.stacks {
            StackSource::Frames(stacks) => {
                put_usize(out, stacks.len());
                for s in *stacks {
                    s.encode_node(out);
                }
            }
            StackSource::Arena(arena) => {
                put_usize(out, arena.p());
                for i in 0..arena.p() {
                    arena.encode_pe(i, out);
                }
            }
            StackSource::Encoded { p, bytes } => {
                put_usize(out, *p);
                out.extend_from_slice(bytes);
            }
        }
    }

    /// Serialize into the container format under the given config
    /// fingerprint. Deterministic: the same snapshot state and fingerprint
    /// always produce the same bytes.
    pub fn encode(&self, config_fingerprint: u64) -> Vec<u8> {
        let mut payload = Vec::with_capacity(256 + 64 * self.stacks.p());
        self.encode_payload(&mut payload);
        let mut out = Vec::with_capacity(MAGIC.len() + 28 + payload.len());
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        put_u64(&mut out, config_fingerprint);
        put_u64(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
        let checksum = fnv1a_64(&out);
        put_u64(&mut out, checksum);
        out
    }
}

impl<N: CkptNode> EngineSnapshot<N> {
    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let step = r.u64()?;
        let in_init = r.bool()?;
        let goals = r.u64()?;
        let donations: Vec<u32> = Vec::decode_node(r)?;
        let peak_stack_nodes = r.usize()?;
        let global_pointer: Option<usize> = Option::decode_node(r)?;
        let now = r.u64()?;
        let last_lb_cost = r.u64()?;
        let metrics = decode_metrics(r)?;
        let phase =
            PhaseStats { cycles: r.u64()?, busy_pe_cycles: r.u64()?, idle_pe_cycles: r.u64()? };
        let recorder = if r.bool()? {
            let receipts: Vec<u32> = Vec::decode_node(r)?;
            let n = r.len(8)?;
            let mut phases = Vec::with_capacity(n);
            for _ in 0..n {
                phases.push(decode_phase_record(r)?);
            }
            Some(RecorderState { receipts, phases })
        } else {
            None
        };
        let macro_steps: Vec<(u64, u64, u64)> = Vec::decode_node(r)?;
        let stacks: Vec<SearchStack<N>> = Vec::decode_node(r)?;
        if stacks.is_empty() {
            return Err(CodecError::Malformed("snapshot has no PE stacks"));
        }
        if donations.len() != stacks.len() {
            return Err(CodecError::Malformed("donation vector length differs from P"));
        }
        Ok(Self {
            step,
            in_init,
            goals,
            donations,
            peak_stack_nodes,
            global_pointer,
            machine: MachineState { now, last_lb_cost, metrics, phase },
            recorder,
            macro_steps,
            stacks,
        })
    }

    /// Serialize into the container format under the given config
    /// fingerprint (via a borrowed [`SnapshotView`] over this snapshot).
    /// Deterministic: the same snapshot state and fingerprint always
    /// produce the same bytes.
    pub fn encode(&self, config_fingerprint: u64) -> Vec<u8> {
        SnapshotView {
            step: self.step,
            in_init: self.in_init,
            goals: self.goals,
            donations: &self.donations,
            peak_stack_nodes: self.peak_stack_nodes,
            global_pointer: self.global_pointer,
            machine: &self.machine,
            recorder: self.recorder.as_ref(),
            macro_steps: &self.macro_steps,
            stacks: StackSource::Frames(&self.stacks),
        }
        .encode(config_fingerprint)
    }

    /// Parse and validate a snapshot. `expected_fingerprint` is the
    /// fingerprint of the configuration the caller intends to resume
    /// under; a snapshot of any other configuration is rejected with
    /// [`CkptError::ConfigMismatch`]. Validation order: magic, version,
    /// structural completeness, checksum, fingerprint, payload.
    pub fn decode(bytes: &[u8], expected_fingerprint: u64) -> Result<Self, CkptError> {
        let mut r = Reader::new(bytes);
        let magic = r.bytes(MAGIC.len()).map_err(|_| CkptError::BadMagic)?;
        if magic != MAGIC {
            return Err(CkptError::BadMagic);
        }
        let version = r.u32().map_err(|_| CkptError::Truncated)?;
        if version != FORMAT_VERSION {
            return Err(CkptError::UnsupportedVersion(version));
        }
        let found = r.u64().map_err(|_| CkptError::Truncated)?;
        let payload_len = r.usize().map_err(|_| CkptError::Truncated)?;
        if payload_len.checked_add(8) != Some(r.remaining()) {
            return Err(CkptError::Truncated);
        }
        let body_end = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
        if fnv1a_64(&bytes[..body_end]) != stored {
            return Err(CkptError::ChecksumMismatch);
        }
        if found != expected_fingerprint {
            return Err(CkptError::ConfigMismatch { expected: expected_fingerprint, found });
        }
        let mut pr = Reader::new(&bytes[body_end - payload_len..body_end]);
        let snapshot = Self::decode_payload(&mut pr)?;
        if !pr.is_done() {
            return Err(CkptError::Malformed("trailing payload bytes"));
        }
        Ok(snapshot)
    }

    /// Ensemble size `P` recorded in the snapshot.
    pub fn p(&self) -> usize {
        self.stacks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> EngineSnapshot<(usize, u64)> {
        let mut trace = ActiveTrace::new();
        trace.push_run(3, 5);
        trace.push_run(1, 2);
        let metrics = Metrics {
            n_expand: 7,
            n_lb: 1,
            n_transfers: 2,
            nodes_expanded: 17,
            busy_pe_cycles: 17,
            idle_pe_cycles: 11,
            t_lb_machine: 13_000,
            trace_enabled: true,
            active_trace: trace,
            phase_log: vec![PhaseEvent { at_cycle: 5, rounds: 1, transfers: 2, cost: 13_000 }],
        };
        let firing = TriggerFiring {
            kind: TriggerKind::Static { threshold: 3 },
            busy: 2,
            idle: 1,
            w: 90_000,
            t: 150_000,
            w_idle: 60_000,
            l_estimate: 13_000,
        };
        let mut stack = SearchStack::from_root((0usize, 0u64));
        stack.pop_next();
        stack.push_frame(vec![(1, 0), (1, 1)]);
        EngineSnapshot {
            step: 4,
            in_init: false,
            goals: 1,
            donations: vec![2, 0, 0, 1],
            peak_stack_nodes: 9,
            global_pointer: Some(3),
            machine: MachineState {
                now: 223_000,
                last_lb_cost: 13_000,
                metrics,
                phase: PhaseStats { cycles: 2, busy_pe_cycles: 5, idle_pe_cycles: 3 },
            },
            recorder: Some(RecorderState {
                receipts: vec![0, 1, 1, 0],
                phases: vec![LbPhaseRecord {
                    at_cycle: 5,
                    firing,
                    horizon: 3,
                    rounds: 1,
                    transfers: 2,
                    cost: LbCostBreakdown {
                        setup: 3_000,
                        transfer: 10_000,
                        multiplier: 1,
                        total: 13_000,
                    },
                }],
            }),
            macro_steps: vec![(0, 3, 3), (3, 4, 2)],
            stacks: vec![
                stack,
                SearchStack::new(),
                SearchStack::from_root((2, 7)),
                SearchStack::new(),
            ],
        }
    }

    fn assert_snapshots_equal(a: &EngineSnapshot<(usize, u64)>, b: &EngineSnapshot<(usize, u64)>) {
        // Field-by-field: SearchStack and Metrics do not implement Eq, so
        // equality is checked through re-encoding (canonical) plus spot
        // fields for a readable failure.
        assert_eq!(a.step, b.step);
        assert_eq!(a.goals, b.goals);
        assert_eq!(a.donations, b.donations);
        assert_eq!(a.encode(9), b.encode(9), "canonical re-encode differs");
    }

    #[test]
    fn round_trips_bit_identically() {
        let snap = sample_snapshot();
        let bytes = snap.encode(0xFEED);
        let back = EngineSnapshot::<(usize, u64)>::decode(&bytes, 0xFEED).expect("decodes");
        assert_snapshots_equal(&snap, &back);
        assert_eq!(back.encode(0xFEED), bytes, "encode∘decode is the identity on bytes");
        assert_eq!(back.p(), 4);
        assert_eq!(back.machine.metrics.active_trace.to_vec(), vec![3, 3, 3, 3, 3, 1, 1]);
    }

    #[test]
    fn arena_stack_source_encodes_byte_identically() {
        let snap = sample_snapshot();
        let via_frames = snap.encode(0xFEED);
        let arena = StackArena::from_stacks(snap.stacks.clone());
        let via_arena = SnapshotView {
            step: snap.step,
            in_init: snap.in_init,
            goals: snap.goals,
            donations: &snap.donations,
            peak_stack_nodes: snap.peak_stack_nodes,
            global_pointer: snap.global_pointer,
            machine: &snap.machine,
            recorder: snap.recorder.as_ref(),
            macro_steps: &snap.macro_steps,
            stacks: StackSource::Arena(&arena),
        }
        .encode(0xFEED);
        assert_eq!(via_arena, via_frames, "SoA and frame sources must be indistinguishable");
        let back = EngineSnapshot::<(usize, u64)>::decode(&via_arena, 0xFEED).expect("decodes");
        let again = StackArena::from_stacks(back.stacks.clone());
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..again.p() {
            again.encode_pe(i, &mut a);
            back.stacks[i].encode_node(&mut b);
        }
        assert_eq!(a, b, "SoA→frames→SoA re-encode is bit-exact");
    }

    #[test]
    fn no_recorder_no_trace_round_trips() {
        let mut snap = sample_snapshot();
        snap.recorder = None;
        snap.machine.metrics.trace_enabled = false;
        snap.machine.metrics.active_trace = ActiveTrace::new();
        snap.machine.metrics.phase_log.clear();
        snap.global_pointer = None;
        snap.macro_steps.clear();
        let bytes = snap.encode(1);
        let back = EngineSnapshot::<(usize, u64)>::decode(&bytes, 1).unwrap();
        assert!(back.recorder.is_none());
        assert!(back.global_pointer.is_none());
        assert_eq!(back.encode(1), bytes);
    }

    #[test]
    fn bad_magic_is_distinct() {
        let mut bytes = sample_snapshot().encode(7);
        bytes[0] ^= 0xFF;
        assert_eq!(
            EngineSnapshot::<(usize, u64)>::decode(&bytes, 7).unwrap_err(),
            CkptError::BadMagic,
        );
        assert_eq!(
            EngineSnapshot::<(usize, u64)>::decode(&[], 7).unwrap_err(),
            CkptError::BadMagic,
        );
    }

    #[test]
    fn wrong_version_is_distinct() {
        let mut bytes = sample_snapshot().encode(7);
        bytes[8] = 99; // version field, little-endian low byte
        assert_eq!(
            EngineSnapshot::<(usize, u64)>::decode(&bytes, 7).unwrap_err(),
            CkptError::UnsupportedVersion(99),
        );
    }

    #[test]
    fn corrupted_body_is_a_checksum_mismatch() {
        let mut bytes = sample_snapshot().encode(7);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert_eq!(
            EngineSnapshot::<(usize, u64)>::decode(&bytes, 7).unwrap_err(),
            CkptError::ChecksumMismatch,
        );
    }

    #[test]
    fn wrong_config_is_distinct_and_checked_after_integrity() {
        let bytes = sample_snapshot().encode(0xAAAA);
        assert_eq!(
            EngineSnapshot::<(usize, u64)>::decode(&bytes, 0xBBBB).unwrap_err(),
            CkptError::ConfigMismatch { expected: 0xBBBB, found: 0xAAAA },
        );
    }

    #[test]
    fn truncation_is_distinct() {
        let bytes = sample_snapshot().encode(7);
        for cut in [bytes.len() - 1, bytes.len() - 9, 40, 21, 13] {
            assert_eq!(
                EngineSnapshot::<(usize, u64)>::decode(&bytes[..cut], 7).unwrap_err(),
                CkptError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn policy_every_and_on_trigger_compose() {
        let every3 = CheckpointPolicy::every(3);
        assert!(!every3.wants(1, true));
        assert!(every3.wants(3, false));
        assert!(every3.wants(6, true));
        let both = CheckpointPolicy::every(4).and_on_trigger();
        assert!(both.wants(2, true));
        assert!(both.wants(4, false));
        assert!(!both.wants(5, false));
        let trig = CheckpointPolicy::on_trigger();
        assert!(trig.wants(1, true));
        assert!(!trig.wants(100, false));
    }

    #[test]
    fn seeded_fault_is_deterministic_and_in_range() {
        for seed in 0..200u64 {
            let f = FaultPlan::seeded(seed, 12);
            assert_eq!(f, FaultPlan::seeded(seed, 12));
            assert!((1..=12).contains(&f.kill_at_step), "{f:?}");
        }
        assert_eq!(FaultPlan::seeded(5, 0).kill_at_step, 1, "degenerate range clamps to 1");
    }

    #[test]
    fn fingerprint_order_sensitivity() {
        let mut a = Fingerprint::new();
        a.u64(1).u64(2);
        let mut b = Fingerprint::new();
        b.u64(2).u64(1);
        assert_ne!(a.finish(), b.finish());
        assert_eq!(fnv1a_64(b"abc"), {
            let mut f = Fingerprint::new();
            f.bytes(b"abc");
            f.finish()
        });
    }
}
