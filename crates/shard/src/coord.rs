//! The coordinator half of the sharded machine.
//!
//! [`run_sharded`] splits the PE array into `shards` contiguous ranges,
//! spawns one worker process per range (re-executing the current binary
//! with [`crate::worker::WORKER_ENV`] set), and runs the macro-step loop
//! ([`uts_core::LockstepDriver::drive`]) over them through
//! `RemoteBackend` — the remote [`uts_core::BurstBackend`]: a burst is a
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
    MergedBurst, Outcome, Search, StackStore, Workload,
};
use uts_machine::{CostModel, LbCostBreakdown, Topology};
use uts_net::hypercube::Hypercube;
use uts_net::mesh::Mesh;
use uts_net::{route_with, Links, Message, RouteStats};
use uts_scan::Pair;
use uts_tree::{CkptNode, CodecError, SplitPolicy, StackArena, TreeProblem};

use crate::proto::{self, encode_burst, put_install, tag, BurstReply, Give, Hello, Transfer};
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
    workload: &Workload,
    cfg: &EngineConfig,
    opts: &ShardOpts,
) -> Result<ShardRun, ShardError> {
    workload.search(Coordinate { workload, cfg, opts, snapshot: None })
}

/// Resume a sharded (or single-process — the formats are interchangeable)
/// snapshot across `opts.shards` worker processes.
pub fn resume_sharded(
    workload: &Workload,
    cfg: &EngineConfig,
    opts: &ShardOpts,
    snapshot: &[u8],
) -> Result<ShardRun, ShardError> {
    workload.search(Coordinate { workload, cfg, opts, snapshot: Some(snapshot) })
}

/// One sharded run. The coordinator needs only the node type of the
/// problem a workload names: each worker builds the problem from its HELLO.
struct Coordinate<'a> {
    workload: &'a Workload,
    cfg: &'a EngineConfig,
    opts: &'a ShardOpts,
    snapshot: Option<&'a [u8]>,
}

impl Search for Coordinate<'_> {
    type Out = Result<ShardRun, ShardError>;

    fn search<P: TreeProblem>(self, _: &P) -> Self::Out {
        run_generic::<P::Node>(self)
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
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Reap on every exit path; on the graceful path the child already
        // exited and these are no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One sub-phase of the protocol across the fleet, and the only place a
/// frame is sent or a reply read: send a `t` request to every worker
/// `frame` has a payload for, *then* read each one's reply into `buf` and
/// hand it to `on_reply` (whose decode failure is that shard's
/// [`ShardError::Reply`]).
///
/// All sends before any read, and so at most one outstanding request per
/// worker, is what makes the pipes deadlock-free at any frame size: a
/// worker waiting in its request loop drains a frame as it arrives, so a
/// send can never block on a worker that is itself blocked writing a
/// reply. (Sending a second batch while the first reply was still unread
/// froze the machine at P ~ 1M, where both outgrow the pipe buffer —
/// DESIGN.md §13.)
fn exchange<'a>(
    workers: &mut [Worker],
    t: u8,
    frame: impl Fn(usize) -> Option<&'a [u8]>,
    buf: &mut Vec<u8>,
    mut on_reply: impl FnMut(usize, &[u8]) -> Result<(), CodecError>,
) -> Result<(), ShardError> {
    for w in workers.iter_mut() {
        if let Some(payload) = frame(w.shard) {
            w.send(t, payload)?;
        }
    }
    for w in workers.iter_mut() {
        if frame(w.shard).is_some() {
            w.recv(t, buf)?;
            on_reply(w.shard, buf)
                .map_err(|source| ShardError::Reply { shard: w.shard, source })?;
        }
    }
    Ok(())
}

/// A request with no payload (`ENCODE`, `SHUTDOWN`) for every worker.
fn empty_frame<'a>(_shard: usize) -> Option<&'a [u8]> {
    Some(&[])
}

/// Spawn one worker per range of `bounds` and greet it.
fn spawn_workers(
    bounds: &[usize],
    opts: &ShardOpts,
    workload: &Workload,
    seed_root: bool,
) -> Result<Vec<Worker>, ShardError> {
    let exe = std::env::current_exe().map_err(ShardError::Spawn)?;
    let mut workers = Vec::with_capacity(opts.shards);
    let mut hellos = Vec::with_capacity(opts.shards);
    for shard in 0..opts.shards {
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
            shard,
            child,
            writer: FrameWriter::new(BufWriter::new(stdin)),
            reader: FrameReader::new(BufReader::new(stdout)),
        });
        let hello = Hello {
            lo: bounds[shard] as u64,
            hi: bounds[shard + 1] as u64,
            seed_root,
            kill_at_burst: opts.kill.filter(|k| k.shard == shard).map(|k| k.at_burst),
            workload: *workload,
        };
        let mut payload = Vec::new();
        hello.encode(&mut payload);
        hellos.push(payload);
    }
    exchange(&mut workers, tag::HELLO, |s| Some(&hellos[s]), &mut Vec::new(), |_, _| Ok(()))?;
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

    fn route(&self, links: &mut Links, messages: &[Message]) -> RouteStats {
        match self {
            RouterKind::Hypercube(h) => route_with(links, h, messages),
            RouterKind::Mesh(m) => route_with(links, m, messages),
        }
    }
}

/// One worker's staged request for one sub-phase of a transfer round: the
/// frame being assembled, and which of the round's requests each of its
/// entries stands for (replies answer entries in order).
#[derive(Clone, Default)]
struct Lane {
    slots: Vec<usize>,
    payload: Vec<u8>,
}

impl Lane {
    /// Start a new request with no entries (a header, if the request has
    /// one, goes on `payload` next).
    fn begin(&mut self) {
        self.slots.clear();
        proto::begin_request(&mut self.payload);
    }

    /// Claim the next entry for request `idx`; the caller appends its wire
    /// form to the returned payload.
    fn push(&mut self, idx: usize) -> &mut Vec<u8> {
        self.slots.push(idx);
        proto::set_count(&mut self.payload, self.slots.len());
        &mut self.payload
    }

    /// The frame to send: none when no entry was staged.
    fn frame(&self) -> Option<&[u8]> {
        (!self.slots.is_empty()).then_some(&self.payload)
    }

    /// Pair a reply's entries with the requests they answer.
    fn answered<'a, T: 'a>(
        &'a self,
        entries: Vec<T>,
    ) -> Result<impl Iterator<Item = (usize, T)> + 'a, CodecError> {
        if entries.len() != self.slots.len() {
            return Err(CodecError::Malformed("reply does not answer every entry of its request"));
        }
        Ok(self.slots.iter().copied().zip(entries))
    }
}

/// The shard owning global PE `pe` (`bounds[s]..bounds[s + 1]` is shard
/// `s`'s range), and `pe`'s index within it.
fn locate(bounds: &[usize], pe: usize) -> (usize, u32) {
    let shard = bounds.partition_point(|&lo| lo <= pe) - 1;
    (shard, (pe - bounds[shard]) as u32)
}

/// The remote [`BurstBackend`]: the stacks live in the worker fleet, the
/// coordinator keeps a dense length mirror updated from the authoritative
/// lengths every reply carries. As the [`StackStore`] it additionally
/// routes every round's transfers through the simulated interconnect.
///
/// `StackStore`'s methods cannot return errors, so the first transport
/// failure is latched into `err` and every later round is a no-op
/// (reporting "nothing transferred", which the balancing phase handles
/// gracefully); [`BurstBackend::end_step`] surfaces the latch when the
/// phase returns.
struct RemoteBackend<N> {
    lens: Vec<u32>,
    workers: Vec<Worker>,
    /// Shard `s` owns global PEs `bounds[s]..bounds[s + 1]`.
    bounds: Vec<usize>,
    router: RouterKind,
    /// The interconnect's link table, kept for the run.
    links: Links,
    /// The configured cost model, which re-costs the measured route steps.
    cost: CostModel,
    /// What the machine charged each phase
    /// ([`uts_core::Scheme::phase_cost_model`]).
    charged: CostModel,
    park: Option<ParkPolicy>,
    stats: ShardStats,
    /// The current balancing phase's rounds, messages and routes.
    rounds: u32,
    messages: u64,
    route_stats: RouteStats,
    err: Option<ShardError>,
    /// The current round's staged `MOVE` / `EXTRACT` / `INSTALL` requests,
    /// one lane per shard, and the nodes each of its requests moved.
    moves: Vec<Lane>,
    extracts: Vec<Lane>,
    installs: Vec<Lane>,
    moved: Vec<usize>,
    msgs: Vec<Message>,
    payload: Vec<u8>,
    buf: Vec<u8>,
    /// Every PE's stack encoding in PE order, as of the last
    /// [`BurstBackend::stack_source`].
    stack_bytes: Vec<u8>,
    node: std::marker::PhantomData<N>,
}

impl<N: CkptNode> RemoteBackend<N> {
    /// Ship a resumed ensemble to the fresh workers that own it: one
    /// `INSTALL` of every non-empty stack, whose returned lengths must be
    /// the snapshot's (already in the mirror).
    fn load(&mut self, arena: &StackArena<N>) -> Result<(), ShardError> {
        let Self { lens, workers, bounds, installs, buf, payload: encoded, .. } = self;
        installs.iter_mut().for_each(Lane::begin);
        for pe in (0..arena.p()).filter(|&pe| arena.len_of(pe) > 0) {
            let (shard, local) = locate(bounds, pe);
            encoded.clear();
            arena.encode_pe(pe, encoded);
            put_install(installs[shard].push(pe), local, encoded);
        }
        let staged = |s: usize| installs[s].frame();
        exchange(workers, tag::INSTALL, staged, buf, |s, reply| {
            let mut loaded = installs[s].answered(proto::decode_install_reply(reply)?)?;
            if loaded.any(|(pe, len)| len != lens[pe]) {
                return Err(CodecError::Malformed("installed length differs from the snapshot's"));
            }
            Ok(())
        })
    }
}

impl<N> RemoteBackend<N> {
    fn route_round(&mut self) {
        if self.msgs.is_empty() {
            return;
        }
        self.messages += self.msgs.len() as u64;
        let stats = self.router.route(&mut self.links, &self.msgs);
        self.route_stats.absorb(stats);
        self.msgs.clear();
    }

    /// One balancing round over the wire: every donor gives `give` to its
    /// receiver, and `self.moved[k]` is left holding the nodes request `k`
    /// moved. `req` reads a request of either [`StackStore`] batch shape.
    /// The first failure is latched and turns later rounds into no-ops.
    fn transfer_round<T>(&mut self, give: Give, reqs: &[T], req: impl Fn(&T) -> CountedMove) {
        self.moved.clear();
        self.moved.resize(reqs.len(), 0);
        // A ring round can find no pair; it is no round, on the wire or in
        // the phase's provenance.
        if self.err.is_none() && !reqs.is_empty() {
            self.rounds += 1;
            self.err = self.try_transfer_round(give, reqs, req).err();
        }
    }

    /// Partition the round by donor shard, then three sub-phases, each one
    /// [`exchange`]: `MOVE` applies same-shard transfers where they live;
    /// `EXTRACT` takes the donation out of every donor whose receiver is
    /// elsewhere; `INSTALL` lands those stacks — relayed as the bytes the
    /// donor encoded — on their receivers. Then the round's successful
    /// transfers are routed through the interconnect, in request order.
    fn try_transfer_round<T>(
        &mut self,
        give: Give,
        reqs: &[T],
        req: impl Fn(&T) -> CountedMove,
    ) -> Result<(), ShardError> {
        let Self { lens, workers, bounds, moves, extracts, installs, moved, buf, .. } = self;
        for lane in moves.iter_mut().chain(extracts.iter_mut()) {
            lane.begin();
            give.put(&mut lane.payload);
        }
        installs.iter_mut().for_each(Lane::begin);
        for (idx, r) in reqs.iter().map(&req).enumerate() {
            let ((ds, donor), (rs, receiver)) =
                (locate(bounds, r.donor), locate(bounds, r.receiver));
            let (lane, receiver) =
                if ds == rs { (&mut moves[ds], Some(receiver)) } else { (&mut extracts[ds], None) };
            Transfer { donor, receiver, max_nodes: r.max_nodes }.put(give, lane.push(idx));
        }
        let staged = |s: usize| moves[s].frame();
        exchange(workers, tag::MOVE, staged, buf, |s, reply| {
            for (idx, e) in moves[s].answered(proto::decode_move_reply(reply)?)? {
                let r = req(&reqs[idx]);
                moved[idx] = e.moved as usize;
                lens[r.donor] = e.donor_len;
                lens[r.receiver] = e.receiver_len;
            }
            Ok(())
        })?;
        let staged = |s: usize| extracts[s].frame();
        exchange(workers, tag::EXTRACT, staged, buf, |s, reply| {
            for (idx, e) in extracts[s].answered(proto::decode_extract_reply(reply)?)? {
                let r = req(&reqs[idx]);
                moved[idx] = e.moved as usize;
                lens[r.donor] = e.donor_len;
                if e.moved > 0 {
                    let (rs, receiver) = locate(bounds, r.receiver);
                    put_install(installs[rs].push(idx), receiver, e.stack);
                }
            }
            Ok(())
        })?;
        let staged = |s: usize| installs[s].frame();
        exchange(workers, tag::INSTALL, staged, buf, |s, reply| {
            for (idx, len) in installs[s].answered(proto::decode_install_reply(reply)?)? {
                lens[req(&reqs[idx]).receiver] = len;
            }
            Ok(())
        })?;
        let sent = reqs.iter().zip(&self.moved).filter(|(_, &moved)| moved > 0);
        self.msgs
            .extend(sent.map(|(r, _)| req(r)).map(|r| Message { src: r.donor, dst: r.receiver }));
        self.route_round();
        Ok(())
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
        let Self { lens, workers, bounds, payload, buf, .. } = self;
        payload.clear();
        encode_burst(payload, h);
        let broadcast = |_| Some(&payload[..]);
        exchange(workers, tag::BURST, broadcast, buf, |s, reply| {
            let (lo, hi) = (bounds[s], bounds[s + 1]);
            let reply = BurstReply::decode(reply, hi - lo)?;
            out.started += reply.started as usize;
            out.goals += reply.goals;
            out.peak_stack_nodes = out.peak_stack_nodes.max(reply.peak as usize);
            out.deaths.extend_from_slice(&reply.deaths);
            for (pe, len) in reply.changed {
                lens[lo + pe as usize] = len;
            }
            Ok(())
        })?;
        debug_assert_eq!(out.started, active.len(), "every active PE runs the burst");
        Ok(recount_active(active, &self.lens))
    }

    /// Collect every shard's stack encodings (in PE order — byte-identical
    /// to the in-process capture).
    fn stack_source(&mut self) -> Result<StackSource<'_, N>, ShardError> {
        let Self { workers, buf, stack_bytes, .. } = self;
        stack_bytes.clear();
        exchange(workers, tag::ENCODE, empty_frame, buf, |_, reply| {
            stack_bytes.extend_from_slice(reply);
            Ok(())
        })?;
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
                closed_form: self.charged.lb_phase_cost_breakdown(p, rounds),
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

impl<N> StackStore for RemoteBackend<N> {
    fn p(&self) -> usize {
        self.lens.len()
    }

    fn lens(&self) -> &[u32] {
        &self.lens
    }

    fn split_pairs(&mut self, pairs: &[Pair], policy: SplitPolicy, ok: &mut Vec<bool>) {
        self.transfer_round(Give::Split(policy), pairs, |pair| CountedMove {
            donor: pair.donor,
            receiver: pair.receiver,
            max_nodes: 0,
        });
        ok.clear();
        ok.extend(self.moved.iter().map(|&moved| moved > 0));
    }

    fn split_counts(&mut self, reqs: &[CountedMove], moved: &mut Vec<usize>) {
        self.transfer_round(Give::Counted, reqs, |req| *req);
        moved.clone_from(&self.moved);
    }

    /// Whole rounds: a batch is one `MOVE`/`EXTRACT`/`INSTALL` exchange and
    /// one routed permutation, so an equalization round stays one of each.
    fn max_batch(&self) -> usize {
        usize::MAX
    }
}

fn run_generic<N: Clone + CkptNode>(run: Coordinate<'_>) -> Result<ShardRun, ShardError> {
    let Coordinate { workload, cfg, opts, snapshot } = run;
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
        .map_err(ShardError::Snapshot)?
        .map(|snapshot| LockstepDriver::restore(cfg, snapshot));

    let lens = match &resume {
        None => {
            let mut lens = vec![0u32; cfg.p];
            lens[0] = 1; // the root
            lens
        }
        Some((_, arena)) => arena.lens().to_vec(),
    };
    let bounds: Vec<usize> =
        (0..opts.shards).map(|s| shard_range(cfg.p, opts.shards, s).0).chain([cfg.p]).collect();
    let lanes = vec![Lane::default(); opts.shards];
    let mut backend = RemoteBackend::<N> {
        lens,
        workers: spawn_workers(&bounds, opts, workload, resume.is_none())?,
        bounds,
        router: RouterKind::for_cost(cfg.cost.topology, cfg.p),
        links: Links::default(),
        cost: cfg.cost,
        charged: cfg.scheme.phase_cost_model(cfg.cost),
        park: opts.park.clone(),
        stats: ShardStats { shards: opts.shards, ..ShardStats::default() },
        rounds: 0,
        messages: 0,
        route_stats: RouteStats::default(),
        err: None,
        moves: lanes.clone(),
        extracts: lanes.clone(),
        installs: lanes,
        moved: Vec::new(),
        msgs: Vec::new(),
        payload: Vec::new(),
        buf: Vec::new(),
        stack_bytes: Vec::new(),
        node: std::marker::PhantomData,
    };
    let driver = match resume {
        None => LockstepDriver::fresh(cfg),
        Some((driver, arena)) => {
            backend.load(&arena)?;
            driver
        }
    };
    let outcome = driver.drive(&mut backend)?;

    // ---- graceful shutdown ----
    let RemoteBackend { mut workers, mut buf, stats, .. } = backend;
    exchange(&mut workers, tag::SHUTDOWN, empty_frame, &mut buf, |_, _| Ok(()))?;
    for w in &mut workers {
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
