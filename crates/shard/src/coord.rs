//! The coordinator half of the sharded machine.
//!
//! [`run_sharded`] splits the PE array into `shards` contiguous ranges,
//! spawns one worker process per range (re-executing the current binary
//! with [`crate::worker::WORKER_ENV`] set), and runs the macro-step loop
//! ([`uts_core::LockstepDriver::drive`]) over them through
//! [`RemoteBackend`] — the remote [`uts_core::BurstBackend`]: a burst is a
//! BURST broadcast whose merged census feeds the horizon, the trigger and
//! matcher run coordinator-side, and the balancing phase's splits execute
//! remotely (it is also the [`uts_core::StackStore`], over a dense length
//! mirror plus wire messages). Because the loop is the very one the
//! in-process engines run, the sharded [`Outcome`] is bit-identical to
//! [`uts_core::run`] at any shard count — the differential suite enforces
//! this.
//!
//! Every transferred pair is also routed as a [`uts_net::Message`] through
//! the simulated interconnect (hypercube for CM-2/hypercube cost models —
//! the CM-2's router *is* a hypercube of router chips — XY mesh
//! otherwise), so each balancing phase carries measured
//! [`RouteStats`] provenance next to the cost model's closed-form guess
//! ([`RoutedPhase`]).

use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use uts_ckpt::wire::{FrameReader, FrameWriter, WireError};
use uts_ckpt::{spill, CkptError, EngineSnapshot, StackSource};
use uts_core::{
    config_fingerprint, recount_active, BurstBackend, CountedMove, EngineConfig, LockstepDriver,
    MergedBurst, Outcome, StackStore,
};
use uts_machine::{CostModel, LbCostBreakdown, Topology};
use uts_net::hypercube::Hypercube;
use uts_net::mesh::Mesh;
use uts_net::{route, Message, RouteStats};
use uts_puzzle15::PuzzleState;
use uts_scan::Pair;
use uts_synthgen::GenNode;
use uts_tree::{CkptNode, CodecError, SplitPolicy};

use crate::proto::{
    self, encode_burst, encode_count_extract, encode_count_local, encode_install,
    encode_split_extract, encode_split_pairs, tag, BurstReply, Hello, ShardWorkload,
};
use crate::worker::WORKER_ENV;

/// How the coordinator runs the shards.
#[derive(Debug, Clone, Default)]
pub struct ShardOpts {
    /// Number of worker processes (`1..=P`; each owns a contiguous range).
    pub shards: usize,
    /// Park the whole run into a spill directory every Nth macro-step
    /// boundary (the crash-recovery snapshots the kill→resume path reads).
    pub park: Option<ParkPolicy>,
    /// Fault-injection knob: one worker SIGKILLs itself mid-run.
    pub kill: Option<WorkerKill>,
}

/// Spill-parking policy: where and how often.
#[derive(Debug, Clone)]
pub struct ParkPolicy {
    /// Spill directory (created on demand).
    pub dir: PathBuf,
    /// Park every Nth macro-step boundary (0 disables).
    pub every: u64,
}

/// Self-SIGKILL instruction for one worker, for the kill→resume suites.
#[derive(Debug, Clone, Copy)]
pub struct WorkerKill {
    /// Which shard dies.
    pub shard: usize,
    /// On receiving which burst (1-based) it dies.
    pub at_burst: u64,
}

/// A failure of the sharded run.
#[derive(Debug)]
pub enum ShardError {
    /// The options were inconsistent with the config.
    Config(String),
    /// Spawning a worker process failed.
    Spawn(std::io::Error),
    /// A worker's transport failed — it died (or its frames were
    /// corrupted). If the run was parking, the latest spill snapshot
    /// resumes it.
    WorkerLost {
        /// Which shard.
        shard: usize,
        /// The transport error.
        source: WireError,
    },
    /// A worker reply arrived intact but failed to decode.
    Reply {
        /// Which shard.
        shard: usize,
        /// The payload error.
        source: CodecError,
    },
    /// A worker reply carried the wrong tag.
    Protocol {
        /// Which shard.
        shard: usize,
        /// What arrived.
        found: u8,
        /// What the request was.
        expected: u8,
    },
    /// The resume snapshot failed to decode.
    Snapshot(CkptError),
    /// Writing a spill snapshot failed.
    Park(std::io::Error),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Config(msg) => write!(f, "shard config: {msg}"),
            ShardError::Spawn(e) => write!(f, "spawning a shard worker: {e}"),
            ShardError::WorkerLost { shard, source } => {
                write!(f, "lost shard {shard}: {source}")
            }
            ShardError::Reply { shard, source } => {
                write!(f, "bad reply from shard {shard}: {source}")
            }
            ShardError::Protocol { shard, found, expected } => {
                write!(f, "shard {shard} replied tag {found} to request tag {expected}")
            }
            ShardError::Snapshot(e) => write!(f, "resume snapshot: {e}"),
            ShardError::Park(e) => write!(f, "parking the run: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// One balancing phase's measured routing provenance, recorded next to
/// the closed-form cost the ledger charged.
#[derive(Debug, Clone, Copy)]
pub struct RoutedPhase {
    /// `N_expand` when the phase ran.
    pub at_cycle: u64,
    /// Match+transfer rounds in the phase.
    pub rounds: u32,
    /// Point-to-point transfers routed (one per moved pair).
    pub messages: u64,
    /// Measured routing statistics, summed over the phase's rounds.
    pub route: RouteStats,
    /// What the cost model charged the ledger (closed-form transfer term).
    pub closed_form: LbCostBreakdown,
    /// The same phase re-costed from the measured route steps
    /// ([`uts_machine::CostModel::measured_lb_cost_breakdown`]).
    pub measured: LbCostBreakdown,
}

/// Aggregated provenance of a sharded run.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Worker process count.
    pub shards: usize,
    /// Per-balancing-phase routing provenance, in schedule order.
    pub phases: Vec<RoutedPhase>,
    /// All phases' routes folded together.
    pub route_total: RouteStats,
}

/// A completed sharded run: the (engine-bit-identical) outcome plus the
/// routing provenance only the sharded machine measures.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Exactly what [`uts_core::run`] would have returned.
    pub outcome: Outcome,
    /// Measured per-phase routing next to the closed-form charges.
    pub stats: ShardStats,
}

/// Run `workload` under `cfg` across `opts.shards` worker processes.
/// The outcome is bit-identical to the single-process macro engine.
pub fn run_sharded(
    workload: &ShardWorkload,
    cfg: &EngineConfig,
    opts: &ShardOpts,
) -> Result<ShardRun, ShardError> {
    dispatch(workload, cfg, opts, None)
}

/// Resume a sharded (or single-process — the formats are interchangeable)
/// snapshot across `opts.shards` worker processes.
pub fn resume_sharded(
    workload: &ShardWorkload,
    cfg: &EngineConfig,
    opts: &ShardOpts,
    snapshot: &[u8],
) -> Result<ShardRun, ShardError> {
    dispatch(workload, cfg, opts, Some(snapshot))
}

fn dispatch(
    workload: &ShardWorkload,
    cfg: &EngineConfig,
    opts: &ShardOpts,
    snapshot: Option<&[u8]>,
) -> Result<ShardRun, ShardError> {
    match workload {
        ShardWorkload::Puzzle { .. } => {
            run_generic::<uts_tree::BoundedNode<PuzzleState>>(workload, cfg, opts, snapshot)
        }
        ShardWorkload::UtsGen(_) => run_generic::<GenNode>(workload, cfg, opts, snapshot),
    }
}

/// The contiguous range of shard `s` among `shards` over `p` PEs: sizes
/// differ by at most one, lower shards take the remainder.
pub fn shard_range(p: usize, shards: usize, s: usize) -> (usize, usize) {
    let base = p / shards;
    let rem = p % shards;
    let lo = s * base + s.min(rem);
    let hi = lo + base + usize::from(s < rem);
    (lo, hi)
}

struct Worker {
    shard: usize,
    lo: usize,
    hi: usize,
    child: Child,
    writer: FrameWriter<BufWriter<ChildStdin>>,
    reader: FrameReader<BufReader<ChildStdout>>,
}

impl Worker {
    fn send(&mut self, t: u8, payload: &[u8]) -> Result<(), ShardError> {
        self.writer
            .send(t, payload)
            .map(|_| ())
            .map_err(|source| ShardError::WorkerLost { shard: self.shard, source })
    }

    /// Receive the reply to a request of tag `expected` into `buf`.
    fn recv(&mut self, expected: u8, buf: &mut Vec<u8>) -> Result<(), ShardError> {
        let found = self
            .reader
            .recv(buf)
            .map_err(|source| ShardError::WorkerLost { shard: self.shard, source })?;
        if found != expected {
            return Err(ShardError::Protocol { shard: self.shard, found, expected });
        }
        Ok(())
    }

    fn reply_err(&self, source: CodecError) -> ShardError {
        ShardError::Reply { shard: self.shard, source }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Reap on every exit path; on the graceful path the child already
        // exited and these are no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_workers(
    cfg: &EngineConfig,
    opts: &ShardOpts,
    workload: &ShardWorkload,
    seed_root: bool,
) -> Result<Vec<Worker>, ShardError> {
    let exe = std::env::current_exe().map_err(ShardError::Spawn)?;
    let mut workers = Vec::with_capacity(opts.shards);
    for s in 0..opts.shards {
        let (lo, hi) = shard_range(cfg.p, opts.shards, s);
        let mut child = Command::new(&exe)
            .env(WORKER_ENV, "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(ShardError::Spawn)?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        workers.push(Worker {
            shard: s,
            lo,
            hi,
            child,
            writer: FrameWriter::new(BufWriter::new(stdin)),
            reader: FrameReader::new(BufReader::new(stdout)),
        });
    }
    let mut payload = Vec::new();
    for w in &mut workers {
        let hello = Hello {
            shard: w.shard as u32,
            shards: opts.shards as u32,
            lo: w.lo as u64,
            hi: w.hi as u64,
            split: cfg.split,
            seed_root,
            kill_at_burst: opts.kill.filter(|k| k.shard == w.shard).map(|k| k.at_burst),
            workload: *workload,
        };
        payload.clear();
        hello.encode(&mut payload);
        w.send(tag::HELLO, &payload)?;
    }
    let mut buf = Vec::new();
    for w in &mut workers {
        w.recv(tag::HELLO, &mut buf)?;
    }
    Ok(workers)
}

/// The simulated interconnect transfers route through.
enum RouterKind {
    Hypercube(Hypercube),
    Mesh(Mesh),
}

impl RouterKind {
    fn for_cost(topology: Topology, p: usize) -> Self {
        match topology {
            // The CM-2's general router is itself a hypercube of router
            // chips, so CM-2 traffic is measured on the hypercube too.
            Topology::Cm2 | Topology::Hypercube => RouterKind::Hypercube(Hypercube::new(p)),
            Topology::Mesh => RouterKind::Mesh(Mesh::new(p)),
        }
    }

    fn route(&self, messages: &[Message]) -> RouteStats {
        match self {
            RouterKind::Hypercube(h) => route(h, messages),
            RouterKind::Mesh(m) => route(m, messages),
        }
    }
}

/// The remote [`BurstBackend`]: the stacks live in the worker fleet, the
/// coordinator keeps a dense length mirror updated from the authoritative
/// lengths every reply carries. As the [`StackStore`] it additionally
/// routes every round's transfers through the simulated interconnect.
///
/// `StackStore`'s methods cannot return errors, so the first transport
/// failure is latched into `err` and every later batch is a no-op
/// (reporting "nothing transferred", which the balancing phase handles
/// gracefully); [`BurstBackend::end_step`] surfaces the latch when the
/// phase returns.
struct RemoteBackend<N> {
    lens: Vec<u32>,
    workers: Vec<Worker>,
    router: RouterKind,
    cost: CostModel,
    park: Option<ParkPolicy>,
    stats: ShardStats,
    /// The current balancing phase's rounds, messages and routes.
    rounds: u32,
    messages: u64,
    route_stats: RouteStats,
    err: Option<ShardError>,
    msgs: Vec<Message>,
    payload: Vec<u8>,
    buf: Vec<u8>,
    /// Every PE's stack encoding in PE order, as of the last
    /// [`BurstBackend::stack_source`].
    stack_bytes: Vec<u8>,
    node: std::marker::PhantomData<N>,
}

impl<N> RemoteBackend<N> {
    /// Which shard owns global PE `pe`.
    fn shard_of(&self, pe: usize) -> usize {
        self.workers.partition_point(|w| w.hi <= pe)
    }

    fn route_round(&mut self) {
        if self.msgs.is_empty() {
            return;
        }
        self.messages += self.msgs.len() as u64;
        let stats = self.router.route(&self.msgs);
        self.route_stats.absorb(stats);
        self.msgs.clear();
    }

    /// Run one round's remote exchange; on failure latch the error.
    fn try_round(&mut self, f: impl FnOnce(&mut Self) -> Result<(), ShardError>) {
        if self.err.is_some() {
            return;
        }
        self.rounds += 1;
        if let Err(e) = f(self) {
            self.err = Some(e);
        }
    }
}

impl<N: CkptNode> BurstBackend for RemoteBackend<N> {
    type Node = N;
    type Error = ShardError;
    type Store = Self;

    fn lens(&self) -> &[u32] {
        &self.lens
    }

    fn store(&mut self) -> &mut Self {
        self
    }

    /// Broadcast the burst, merge the per-worker census.
    fn burst(
        &mut self,
        h: u64,
        active: &mut Vec<usize>,
        out: &mut MergedBurst,
    ) -> Result<usize, ShardError> {
        out.reset(0);
        self.payload.clear();
        encode_burst(&mut self.payload, h);
        for w in &mut self.workers {
            w.send(tag::BURST, &self.payload)?;
        }
        for w in &mut self.workers {
            w.recv(tag::BURST, &mut self.buf)?;
            let reply = BurstReply::decode(&self.buf).map_err(|e| w.reply_err(e))?;
            out.started += reply.started as usize;
            out.goals += reply.goals;
            out.peak_stack_nodes = out.peak_stack_nodes.max(reply.peak as usize);
            out.deaths.extend_from_slice(&reply.deaths);
            for (pe, len) in reply.changed {
                self.lens[w.lo + pe as usize] = len;
            }
        }
        debug_assert_eq!(out.started, active.len(), "every active PE runs the burst");
        Ok(recount_active(active, &self.lens))
    }

    /// Collect every shard's stack encodings (in PE order — byte-identical
    /// to the in-process capture).
    fn stack_source(&mut self) -> Result<StackSource<'_, N>, ShardError> {
        for w in &mut self.workers {
            w.send(tag::ENCODE, &[])?;
        }
        self.stack_bytes.clear();
        for w in &mut self.workers {
            w.recv(tag::ENCODE, &mut self.buf)?;
            self.stack_bytes.extend_from_slice(&self.buf);
        }
        Ok(StackSource::Encoded { p: self.lens.len(), bytes: &self.stack_bytes })
    }

    /// Surface a transport failure the balancing phase latched, record the
    /// phase's routing provenance, and park the whole machine into the
    /// spill directory (under the boundary number as job id) when the
    /// policy wants this boundary.
    fn end_step(&mut self, driver: &LockstepDriver, fired: bool) -> Result<(), ShardError> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        if fired && self.rounds > 0 {
            let p = self.lens.len();
            let (rounds, route) = (self.rounds, self.route_stats);
            self.stats.route_total.absorb(route);
            self.stats.phases.push(RoutedPhase {
                at_cycle: driver.cycles(),
                rounds,
                messages: self.messages,
                route,
                closed_form: self.cost.lb_phase_cost_breakdown(p, rounds),
                measured: self.cost.measured_lb_cost_breakdown(p, rounds, route.steps as u64),
            });
        }
        (self.rounds, self.messages, self.route_stats) = (0, 0, RouteStats::default());
        let step = driver.step();
        if let Some(park) =
            self.park.as_ref().filter(|p| p.every > 0 && step.is_multiple_of(p.every))
        {
            let dir = park.dir.clone();
            let snapshot = driver.snapshot_of(self.stack_source()?);
            spill::park(&dir, step, &snapshot).map_err(ShardError::Park)?;
        }
        Ok(())
    }
}

/// Per-shard batches for one balancing round: `batch[s]` holds this
/// round's (round index, request) entries owned by shard `s`.
type Batched<T> = Vec<Vec<(usize, T)>>;

impl<N> StackStore for RemoteBackend<N> {
    fn p(&self) -> usize {
        self.lens.len()
    }

    fn lens(&self) -> &[u32] {
        &self.lens
    }

    fn split_pairs(&mut self, pairs: &[Pair], policy: SplitPolicy, ok: &mut Vec<bool>) {
        ok.clear();
        ok.resize(pairs.len(), false);
        self.try_round(|store| {
            let nshards = store.workers.len();
            // Partition the round by donor shard: same-shard pairs apply
            // locally, cross-shard donors extract and ship to the receiver.
            let mut local: Batched<(u32, u32)> = vec![Vec::new(); nshards];
            let mut extract: Batched<u32> = vec![Vec::new(); nshards];
            for (idx, pair) in pairs.iter().enumerate() {
                let ds = store.shard_of(pair.donor);
                let rs = store.shard_of(pair.receiver);
                let d_local = (pair.donor - store.workers[ds].lo) as u32;
                if ds == rs {
                    let r_local = (pair.receiver - store.workers[rs].lo) as u32;
                    local[ds].push((idx, (d_local, r_local)));
                } else {
                    extract[ds].push((idx, d_local));
                }
            }
            // Each sub-phase below keeps at most ONE outstanding request
            // per worker: a worker waiting in its request loop drains the
            // frame as it arrives, so the coordinator's sends can never
            // block on a worker that is itself blocked writing a reply.
            // (Sending the extract batch while the pairs reply was still
            // unread deadlocked at P ~ 1M, where both sides of that
            // exchange outgrow the pipe buffer.)
            let mut scratch_pairs: Vec<(u32, u32)> = Vec::new();
            let mut scratch_donors: Vec<u32> = Vec::new();
            for (s, batch) in local.iter().enumerate() {
                if !batch.is_empty() {
                    scratch_pairs.clear();
                    scratch_pairs.extend(batch.iter().map(|&(_, lp)| lp));
                    store.payload.clear();
                    encode_split_pairs(&mut store.payload, policy, &scratch_pairs);
                    let payload = std::mem::take(&mut store.payload);
                    store.workers[s].send(tag::SPLIT_PAIRS, &payload)?;
                    store.payload = payload;
                }
            }
            for (s, batch) in local.iter().enumerate() {
                if !batch.is_empty() {
                    let mut buf = std::mem::take(&mut store.buf);
                    store.workers[s].recv(tag::SPLIT_PAIRS, &mut buf)?;
                    let entries = proto::decode_local_split_reply(&buf)
                        .map_err(|e| store.workers[s].reply_err(e))?;
                    store.buf = buf;
                    if entries.len() != batch.len() {
                        return Err(store.workers[s]
                            .reply_err(CodecError::Malformed("split reply count mismatch")));
                    }
                    for (&(idx, _), e) in batch.iter().zip(&entries) {
                        ok[idx] = e.moved > 0;
                        store.lens[pairs[idx].donor] = e.donor_len;
                        store.lens[pairs[idx].receiver] = e.receiver_len;
                    }
                }
            }
            for (s, batch) in extract.iter().enumerate() {
                if !batch.is_empty() {
                    scratch_donors.clear();
                    scratch_donors.extend(batch.iter().map(|&(_, d)| d));
                    store.payload.clear();
                    encode_split_extract(&mut store.payload, policy, &scratch_donors);
                    let payload = std::mem::take(&mut store.payload);
                    store.workers[s].send(tag::SPLIT_EXTRACT, &payload)?;
                    store.payload = payload;
                }
            }
            // (receiver shard) -> entries awaiting install, with the pair
            // index so `ok` can be confirmed from the receiver's reply.
            let mut installs: Vec<Vec<(usize, u32, Vec<u8>)>> = vec![Vec::new(); nshards];
            for (s, batch) in extract.iter().enumerate() {
                if !batch.is_empty() {
                    let mut buf = std::mem::take(&mut store.buf);
                    store.workers[s].recv(tag::SPLIT_EXTRACT, &mut buf)?;
                    let entries = proto::decode_extract_reply(&buf)
                        .map_err(|e| store.workers[s].reply_err(e))?;
                    store.buf = buf;
                    if entries.len() != batch.len() {
                        return Err(store.workers[s]
                            .reply_err(CodecError::Malformed("extract reply count mismatch")));
                    }
                    for (&(idx, _), e) in batch.iter().zip(entries) {
                        store.lens[pairs[idx].donor] = e.donor_len;
                        if e.moved > 0 {
                            let receiver = pairs[idx].receiver;
                            let rs = store.shard_of(receiver);
                            let r_local = (receiver - store.workers[rs].lo) as u32;
                            installs[rs].push((idx, r_local, e.stack));
                        }
                    }
                }
            }
            // Ship donated stacks to their receiver shards.
            for (s, batch) in installs.iter().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                let entries: Vec<(u32, &[u8])> =
                    batch.iter().map(|(_, r, st)| (*r, st.as_slice())).collect();
                store.payload.clear();
                encode_install(&mut store.payload, &entries);
                let payload = std::mem::take(&mut store.payload);
                store.workers[s].send(tag::INSTALL, &payload)?;
                store.payload = payload;
            }
            for (s, batch) in installs.iter().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                let mut buf = std::mem::take(&mut store.buf);
                store.workers[s].recv(tag::INSTALL, &mut buf)?;
                let lens_back =
                    proto::decode_install_reply(&buf).map_err(|e| store.workers[s].reply_err(e))?;
                store.buf = buf;
                if lens_back.len() != batch.len() {
                    return Err(store.workers[s]
                        .reply_err(CodecError::Malformed("install reply count mismatch")));
                }
                for (&(idx, _, _), &len) in batch.iter().zip(&lens_back) {
                    ok[idx] = true;
                    store.lens[pairs[idx].receiver] = len;
                }
            }
            // Route the round's transfers through the interconnect.
            for (idx, pair) in pairs.iter().enumerate() {
                if ok[idx] {
                    store.msgs.push(Message { src: pair.donor, dst: pair.receiver });
                }
            }
            store.route_round();
            Ok(())
        });
    }

    fn split_counts(&mut self, reqs: &[CountedMove], moved: &mut Vec<usize>) {
        moved.clear();
        moved.resize(reqs.len(), 0);
        self.try_round(|store| {
            let nshards = store.workers.len();
            let mut local: Batched<(u32, u32, u64)> = vec![Vec::new(); nshards];
            let mut extract: Batched<(u32, u64)> = vec![Vec::new(); nshards];
            for (idx, req) in reqs.iter().enumerate() {
                let ds = store.shard_of(req.donor);
                let rs = store.shard_of(req.receiver);
                let d_local = (req.donor - store.workers[ds].lo) as u32;
                if ds == rs {
                    let r_local = (req.receiver - store.workers[rs].lo) as u32;
                    local[ds].push((idx, (d_local, r_local, req.max_nodes as u64)));
                } else {
                    extract[ds].push((idx, (d_local, req.max_nodes as u64)));
                }
            }
            // One outstanding request per worker per sub-phase — see the
            // deadlock note in `split_pairs`.
            let mut scratch_local: Vec<(u32, u32, u64)> = Vec::new();
            let mut scratch_extract: Vec<(u32, u64)> = Vec::new();
            for (s, batch) in local.iter().enumerate() {
                if !batch.is_empty() {
                    scratch_local.clear();
                    scratch_local.extend(batch.iter().map(|&(_, r)| r));
                    store.payload.clear();
                    encode_count_local(&mut store.payload, &scratch_local);
                    let payload = std::mem::take(&mut store.payload);
                    store.workers[s].send(tag::COUNT_LOCAL, &payload)?;
                    store.payload = payload;
                }
            }
            for (s, batch) in local.iter().enumerate() {
                if !batch.is_empty() {
                    let mut buf = std::mem::take(&mut store.buf);
                    store.workers[s].recv(tag::COUNT_LOCAL, &mut buf)?;
                    let entries = proto::decode_local_split_reply(&buf)
                        .map_err(|e| store.workers[s].reply_err(e))?;
                    store.buf = buf;
                    if entries.len() != batch.len() {
                        return Err(store.workers[s]
                            .reply_err(CodecError::Malformed("count reply count mismatch")));
                    }
                    for (&(idx, _), e) in batch.iter().zip(&entries) {
                        moved[idx] = e.moved as usize;
                        store.lens[reqs[idx].donor] = e.donor_len;
                        store.lens[reqs[idx].receiver] = e.receiver_len;
                    }
                }
            }
            for (s, batch) in extract.iter().enumerate() {
                if !batch.is_empty() {
                    scratch_extract.clear();
                    scratch_extract.extend(batch.iter().map(|&(_, r)| r));
                    store.payload.clear();
                    encode_count_extract(&mut store.payload, &scratch_extract);
                    let payload = std::mem::take(&mut store.payload);
                    store.workers[s].send(tag::COUNT_EXTRACT, &payload)?;
                    store.payload = payload;
                }
            }
            let mut installs: Vec<Vec<(usize, u32, Vec<u8>)>> = vec![Vec::new(); nshards];
            for (s, batch) in extract.iter().enumerate() {
                if !batch.is_empty() {
                    let mut buf = std::mem::take(&mut store.buf);
                    store.workers[s].recv(tag::COUNT_EXTRACT, &mut buf)?;
                    let entries = proto::decode_extract_reply(&buf)
                        .map_err(|e| store.workers[s].reply_err(e))?;
                    store.buf = buf;
                    if entries.len() != batch.len() {
                        return Err(store.workers[s].reply_err(CodecError::Malformed(
                            "count extract reply count mismatch",
                        )));
                    }
                    for (&(idx, _), e) in batch.iter().zip(entries) {
                        moved[idx] = e.moved as usize;
                        store.lens[reqs[idx].donor] = e.donor_len;
                        if e.moved > 0 {
                            let receiver = reqs[idx].receiver;
                            let rs = store.shard_of(receiver);
                            let r_local = (receiver - store.workers[rs].lo) as u32;
                            installs[rs].push((idx, r_local, e.stack));
                        }
                    }
                }
            }
            for (s, batch) in installs.iter().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                let entries: Vec<(u32, &[u8])> =
                    batch.iter().map(|(_, r, st)| (*r, st.as_slice())).collect();
                store.payload.clear();
                encode_install(&mut store.payload, &entries);
                let payload = std::mem::take(&mut store.payload);
                store.workers[s].send(tag::INSTALL, &payload)?;
                store.payload = payload;
            }
            for (s, batch) in installs.iter().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                let mut buf = std::mem::take(&mut store.buf);
                store.workers[s].recv(tag::INSTALL, &mut buf)?;
                let lens_back =
                    proto::decode_install_reply(&buf).map_err(|e| store.workers[s].reply_err(e))?;
                store.buf = buf;
                if lens_back.len() != batch.len() {
                    return Err(store.workers[s]
                        .reply_err(CodecError::Malformed("install reply count mismatch")));
                }
                for (&(idx, _, _), &len) in batch.iter().zip(&lens_back) {
                    store.lens[reqs[idx].receiver] = len;
                }
            }
            for (idx, req) in reqs.iter().enumerate() {
                if moved[idx] > 0 {
                    store.msgs.push(Message { src: req.donor, dst: req.receiver });
                }
            }
            store.route_round();
            Ok(())
        });
    }
}

fn run_generic<N: CkptNode>(
    workload: &ShardWorkload,
    cfg: &EngineConfig,
    opts: &ShardOpts,
    snapshot: Option<&[u8]>,
) -> Result<ShardRun, ShardError> {
    if cfg.p == 0 {
        return Err(ShardError::Config("need at least one processor".into()));
    }
    if opts.shards == 0 || opts.shards > cfg.p {
        return Err(ShardError::Config(format!(
            "--shards must be in 1..=P (got {} for P={})",
            opts.shards, cfg.p
        )));
    }
    // Decode the snapshot (if resuming) before spawning anything.
    let resume = snapshot
        .map(|bytes| EngineSnapshot::<N>::decode(bytes, config_fingerprint(cfg)))
        .transpose()
        .map_err(ShardError::Snapshot)?;

    let mut workers = spawn_workers(cfg, opts, workload, resume.is_none())?;
    let (driver, lens) = match resume {
        None => {
            let mut lens = vec![0u32; cfg.p];
            lens[0] = 1; // the root
            (LockstepDriver::fresh(cfg), lens)
        }
        Some(snap) => {
            let (driver, stacks) = LockstepDriver::restore(cfg, snap);
            // Ship every non-empty stack to the worker that owns it.
            let mut stack_buf = Vec::new();
            let mut payload = Vec::new();
            for w in &mut workers {
                let mut entries: Vec<(u32, Vec<u8>)> = Vec::new();
                for (local, stack) in stacks[w.lo..w.hi].iter().enumerate() {
                    if !stack.is_empty() {
                        stack_buf.clear();
                        stack.encode_node(&mut stack_buf);
                        entries.push((local as u32, stack_buf.clone()));
                    }
                }
                let borrowed: Vec<(u32, &[u8])> =
                    entries.iter().map(|(pe, b)| (*pe, b.as_slice())).collect();
                payload.clear();
                proto::encode_load(&mut payload, &borrowed);
                w.send(tag::LOAD, &payload)?;
            }
            let mut buf = Vec::new();
            for w in &mut workers {
                w.recv(tag::LOAD, &mut buf)?;
                proto::decode_count_reply(&buf).map_err(|e| w.reply_err(e))?;
            }
            (driver, stacks.iter().map(|s| s.len() as u32).collect())
        }
    };

    let mut backend = RemoteBackend::<N> {
        lens,
        workers,
        router: RouterKind::for_cost(cfg.cost.topology, cfg.p),
        cost: cfg.cost,
        park: opts.park.clone(),
        stats: ShardStats { shards: opts.shards, ..ShardStats::default() },
        rounds: 0,
        messages: 0,
        route_stats: RouteStats::default(),
        err: None,
        msgs: Vec::new(),
        payload: Vec::new(),
        buf: Vec::new(),
        stack_bytes: Vec::new(),
        node: std::marker::PhantomData,
    };
    let outcome = driver.drive(&mut backend)?;

    // ---- graceful shutdown ----
    let RemoteBackend { mut workers, mut buf, stats, .. } = backend;
    for w in &mut workers {
        w.send(tag::SHUTDOWN, &[])?;
    }
    for w in &mut workers {
        w.recv(tag::SHUTDOWN, &mut buf)?;
        let _ = w.child.wait();
    }
    Ok(ShardRun { outcome, stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_partition_the_ensemble() {
        for (p, shards) in [(8usize, 3usize), (64, 4), (7, 7), (100, 1), (10, 4)] {
            let mut cursor = 0;
            for s in 0..shards {
                let (lo, hi) = shard_range(p, shards, s);
                assert_eq!(lo, cursor);
                assert!(hi > lo, "every shard owns at least one PE");
                cursor = hi;
            }
            assert_eq!(cursor, p);
            let sizes: Vec<usize> =
                (0..shards).map(|s| shard_range(p, shards, s)).map(|(lo, hi)| hi - lo).collect();
            let min = *sizes.iter().min().expect("non-empty");
            let max = *sizes.iter().max().expect("non-empty");
            assert!(max - min <= 1, "balanced ranges");
        }
    }
}
