//! The outside-in per-layer trace.
//!
//! No crate under test is edited for this: the harness drives the macro
//! step itself from the public API — `LockstepDriver::fresh`, then
//! `horizon` → `expansion_burst` → `absorb_burst` → `balance` →
//! `finish_boundary` until `finish` — with an in-memory span around each
//! call, and a [`StackStore`] wrapper that times the split calls the
//! balancing phase makes into `uts-tree`. A layer's self time is its span
//! minus the spans nested in it. The loop is the one `uts-shard`'s
//! coordinator runs with the stacks in process, so its schedule (and its
//! `Outcome`) is bit-identical to `run` and to `run_sharded` by
//! construction; the caller checks the digest anyway.
//!
//! Every `probe_every`-th boundary the loop additionally times, off the
//! critical path, what the codec, snapshot, spill and routing layers would
//! cost on the live state. Probe time is kept out of the traced wall and of
//! the coverage figure.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use uts_ckpt::{spill, EngineSnapshot};
use uts_core::{
    config_fingerprint, expansion_burst, CountedMove, EngineConfig, LockstepDriver, MergedBurst,
    Outcome, StackStore, StepStatus,
};
use uts_net::hypercube::Hypercube;
use uts_net::Message;
use uts_scan::Pair;
use uts_synthgen::{GenNode, GenTree};
use uts_tree::{SearchStack, SplitPolicy, StackArena, TreeProblem};

const NO_PARENT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` at top level.
    pub parent: u32,
    /// Macro step the call belongs to (the shared identifier).
    pub step: u32,
}

/// In-memory span recorder; written out once, at the end.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    step: u32,
}

impl Tracer {
    fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), step: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, step: self.step });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }
}

/// Seconds and calls per span name; `self_s` excludes nested spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub total_s: f64,
    pub self_s: f64,
    pub calls: u64,
}

fn fold(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut nested_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            nested_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, nested) in spans.iter().zip(nested_ns) {
        let e = out.entry(s.name).or_default();
        let dur = s.end_ns - s.start_ns;
        e.total_s += dur as f64 / 1e9;
        e.self_s += (dur - nested) as f64 / 1e9;
        e.calls += 1;
    }
    out
}

/// The balancing phase's view of the arena, with every split batch timed
/// and its transfers counted (and, when routing is probed, captured as
/// donor → receiver messages, one list per round like the coordinator's).
struct TimedStore<'a> {
    arena: &'a mut StackArena<GenNode>,
    tracer: &'a mut Tracer,
    transfers: &'a mut u64,
    rounds: Option<&'a mut Vec<Vec<Message>>>,
}

impl StackStore for TimedStore<'_> {
    fn p(&self) -> usize {
        self.arena.p()
    }

    fn lens(&self) -> &[u32] {
        self.arena.lens()
    }

    fn split_pairs(&mut self, pairs: &[Pair], policy: SplitPolicy, ok: &mut Vec<bool>) {
        let id = self.tracer.enter("tree.split");
        StackStore::split_pairs(self.arena, pairs, policy, ok);
        self.tracer.exit(id);
        *self.transfers += ok.iter().filter(|&&k| k).count() as u64;
        if let Some(rounds) = self.rounds.as_deref_mut() {
            rounds.push(
                pairs
                    .iter()
                    .zip(ok.iter())
                    .filter(|&(_, &k)| k)
                    .map(|(pair, _)| Message { src: pair.donor, dst: pair.receiver })
                    .collect(),
            );
        }
    }

    fn split_counts(&mut self, reqs: &[CountedMove], moved: &mut Vec<usize>) {
        let id = self.tracer.enter("tree.split");
        StackStore::split_counts(self.arena, reqs, moved);
        self.tracer.exit(id);
        *self.transfers += moved.iter().filter(|&&m| m > 0).count() as u64;
        if let Some(rounds) = self.rounds.as_deref_mut() {
            rounds.push(
                reqs.iter()
                    .zip(moved.iter())
                    .filter(|&(_, &m)| m > 0)
                    .map(|(r, _)| Message { src: r.donor, dst: r.receiver })
                    .collect(),
            );
        }
    }
}

/// Off-critical-path probe totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    pub encode_s: f64,
    pub encode_bytes: u64,
    pub snapshot_encode_s: f64,
    pub snapshot_bytes: u64,
    pub snapshot_decode_s: f64,
    pub spill_park_s: f64,
    pub spill_unpark_s: f64,
    pub spill_bytes: u64,
    pub route_s: f64,
    pub route_messages: u64,
    pub route_steps: u64,
}

pub struct Traced {
    pub outcome: Outcome,
    /// Critical-path wall of the driven run (probe time excluded).
    pub wall_s: f64,
    pub layers: BTreeMap<&'static str, LayerTime>,
    /// Sum of top-level span time ÷ `wall_s`.
    pub coverage: f64,
    pub boundaries: u64,
    pub horizon_sum: u64,
    pub split_transfers: u64,
    pub probes: Probes,
    pub spans: Vec<Span>,
}

fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    *acc += t0.elapsed().as_secs_f64();
    r
}

/// Drive `tree` under `cfg` with a span around every layer call. Every
/// `probe_every`-th boundary also probes codec / snapshot / spill (into
/// `spill_dir`); `route` additionally routes every phase's transfers on
/// the hypercube, as the shard coordinator does.
pub fn traced_run(
    tree: &GenTree,
    cfg: &EngineConfig,
    probe_every: u64,
    route: bool,
    spill_dir: &Path,
) -> Traced {
    let fingerprint = config_fingerprint(cfg);
    let router = route.then(|| Hypercube::new(cfg.p));
    let mut probes = Probes::default();
    let mut probe_wall = 0.0f64;
    let mut rounds: Vec<Vec<Message>> = Vec::new();
    let mut split_transfers = 0u64;
    let mut horizon_sum = 0u64;

    let mut tr = Tracer::new();
    let wall0 = Instant::now();
    let (mut driver, mut arena) = tr.span("core.init", || {
        let mut stacks: Vec<SearchStack<GenNode>> =
            (0..cfg.p).map(|_| SearchStack::new()).collect();
        stacks[0] = SearchStack::from_root(tree.root());
        (LockstepDriver::fresh(cfg), StackArena::from_stacks(stacks))
    });
    let mut active: Vec<usize> = vec![0];
    let mut deaths: Vec<u64> = Vec::new();
    loop {
        let h = tr.span("core.horizon", || driver.horizon(arena.lens()));
        horizon_sum += h;
        let mut goals = 0u64;
        let mut peak = 0usize;
        let stats = tr.span("core.burst", || {
            expansion_burst(tree, &mut arena, &mut active, h, &mut goals, &mut peak, &mut deaths)
        });
        let burst = MergedBurst {
            started: stats.started,
            goals,
            peak_stack_nodes: peak,
            deaths: std::mem::take(&mut deaths),
        };
        let status = tr.span("core.absorb", || driver.absorb_burst(h, arena.lens(), burst));
        let StepStatus::Continue { fired } = status else { break };
        if fired {
            let id = tr.enter("core.balance");
            let mut store = TimedStore {
                arena: &mut arena,
                tracer: &mut tr,
                transfers: &mut split_transfers,
                rounds: route.then_some(&mut rounds),
            };
            driver.balance(&mut store);
            tr.exit(id);
            active.clear();
            active.extend_from_slice(driver.active());
        }
        let step = driver.finish_boundary();
        tr.step = step as u32;

        // ---- probes: off the critical path, outside every span ----
        let probe0 = Instant::now();
        if let Some(router) = &router {
            for msgs in rounds.drain(..).filter(|m| !m.is_empty()) {
                probes.route_messages += msgs.len() as u64;
                let stats = timed(&mut probes.route_s, || uts_net::route(router, &msgs));
                probes.route_steps += stats.steps as u64;
            }
        }
        if probe_every > 0 && step % probe_every == 0 {
            let mut stack_bytes = Vec::new();
            timed(&mut probes.encode_s, || {
                for i in 0..cfg.p {
                    arena.encode_pe(i, &mut stack_bytes);
                }
            });
            probes.encode_bytes += stack_bytes.len() as u64;
            let snapshot = timed(&mut probes.snapshot_encode_s, || driver.snapshot(&stack_bytes));
            probes.snapshot_bytes += snapshot.len() as u64;
            let decoded = timed(&mut probes.snapshot_decode_s, || {
                EngineSnapshot::<GenNode>::decode(&snapshot, fingerprint)
            });
            assert_eq!(
                decoded.expect("a fresh snapshot decodes").step,
                step,
                "decoded snapshot is the boundary just taken"
            );
            timed(&mut probes.spill_park_s, || spill::park(spill_dir, step, &snapshot))
                .expect("spill dir is writable");
            let back = timed(&mut probes.spill_unpark_s, || spill::unpark(spill_dir, step))
                .expect("parked snapshot reads back");
            assert_eq!(back, snapshot, "spill round trip");
            probes.spill_bytes += back.len() as u64;
            spill::clear(spill_dir, step).expect("spill dir is writable");
        }
        probe_wall += probe0.elapsed().as_secs_f64();
    }
    let boundaries = driver.step();
    // `run` frees the stacks before it returns; so does the traced wall.
    let outcome = tr.span("core.finish", || {
        drop(arena);
        driver.finish(false)
    });
    let wall_s = wall0.elapsed().as_secs_f64() - probe_wall;

    assert!(tr.open.is_empty(), "every span closed");
    let top_level_s: f64 = tr
        .spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum();
    Traced {
        outcome,
        wall_s,
        layers: fold(&tr.spans),
        coverage: top_level_s / wall_s,
        boundaries,
        horizon_sum,
        split_transfers,
        probes,
        spans: tr.spans,
    }
}

/// The spans as a JSON array, one object per span.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"step\":{}}}{}\n",
            s.name,
            s.start_ns,
            s.end_ns,
            s.step,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}
