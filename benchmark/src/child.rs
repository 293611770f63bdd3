//! One repetition, in a fresh process: reference kernel, set-up (with the
//! warm run), reference kernel, the timed region, reference kernel, then
//! one JSON line ([`Rep`]). A fresh process per repetition gives every
//! timing a clean allocator and its own peak-RSS reading.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use uts_core::{run, Outcome};
use uts_serve::{JobServer, JobSpec, ServeConfig};
use uts_shard::{run_sharded, ShardOpts, ShardRun, ShardStats, ShardWorkload};
use uts_synthgen::GenTree;
use uts_tree::serial_dfs;

use crate::rep::{Rep, Sim};
use crate::serveload::{drain, Drained};
use crate::trace::{spans_json, traced_run, Traced};
use crate::workloads::{tree, Def, Inputs, Kind, TreeCase, SERVE_CLIENTS, SERVE_WARM_JOBS};
use crate::{refkernel, stats, sys, wirebench};

/// Boundaries between codec / snapshot / spill probes in a traced run.
const PROBE_EVERY: u64 = 8;

pub struct ChildArgs {
    pub def: &'static Def,
    pub inputs: Inputs,
    /// Oracle digest per job (`serve-churn`).
    pub oracle: Vec<u64>,
    pub scratch: PathBuf,
    pub traced: bool,
}

/// Reference kernel runs and everything set-up time must not include.
struct Clock {
    start: Instant,
    refs: Vec<f64>,
}

impl Clock {
    fn reference(&mut self) {
        self.refs.push(refkernel::run());
    }

    /// Seconds since the child started, reference kernel time excluded.
    fn setup_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - self.refs.iter().sum::<f64>()
    }
}

pub fn run_child(args: ChildArgs, start: Instant) {
    let mut clock = Clock { start, refs: Vec::new() };
    clock.reference();
    let mut rep = match args.def.kind {
        Kind::Tree(case) => tree_rep(&case, &args, &mut clock),
        Kind::Serve => serve_rep(&args, &mut clock),
    };
    rep.refs = clock.refs.as_slice().try_into().expect("three reference kernel runs");
    println!("{}", rep.to_json());
}

fn shard_or_run(case: &TreeCase, tree: &GenTree) -> Result<(Outcome, Option<ShardStats>), String> {
    if case.workers == 0 {
        return Ok((run(tree, &case.config()), None));
    }
    let opts = ShardOpts { shards: case.workers, park: None, kill: None };
    let ShardRun { outcome, stats } =
        run_sharded(&ShardWorkload::UtsGen(*tree), &case.config(), &opts)
            .map_err(|e| e.to_string())?;
    Ok((outcome, Some(stats)))
}

fn tree_rep(case: &TreeCase, args: &ChildArgs, clock: &mut Clock) -> Rep {
    let main = tree(args.inputs.tree_seed, case.depth);
    let warm = tree(args.inputs.tree_seed, case.warm_depth);
    let mut rep = Rep { attempted: 1, ..Rep::default() };

    let warm_t0 = Instant::now();
    let warm_out = shard_or_run(case, &warm);
    let fleet_s = warm_t0.elapsed().as_secs_f64();
    match &warm_out {
        Ok((out, _)) => {
            rep.warm_nodes = out.report.nodes_expanded;
            rep.warm_digest = uts_serve::outcome_digest(out);
        }
        Err(e) => eprintln!("warm run failed: {e}"),
    }
    rep.setup_s = clock.setup_s();
    clock.reference();

    sys::reset_vm_hwm();
    let self0 = sys::rusage_self();
    let kids0 = sys::rusage_children();
    let t0 = Instant::now();
    let timed = if args.traced && case.workers == 0 {
        let traced = traced_run(&main, &case.config(), PROBE_EVERY, false, &args.scratch);
        rep.wall_s = traced.wall_s;
        Ok((traced.outcome.clone(), None, Some(traced)))
    } else {
        let r = shard_or_run(case, &main);
        rep.wall_s = t0.elapsed().as_secs_f64();
        r.map(|(out, sharded)| (out, sharded, None))
    };
    rep.hwm_kb = sys::vm_hwm_kb();
    let self1 = sys::rusage_self();
    let kids1 = sys::rusage_children();
    rep.worker_rss_kb = if case.workers > 0 { kids1.maxrss_kb } else { 0 };
    clock.reference();

    let (outcome, sharded, traced) = match timed {
        Ok(t) => t,
        Err(e) => {
            eprintln!("timed run failed: {e}");
            rep.failed = 1;
            return rep;
        }
    };
    rep.sim = Sim::of(&outcome);
    rep.latencies_ms = vec![rep.wall_s * 1e3];
    if !args.traced {
        return rep;
    }

    // ---- traced repetition: the per-layer numbers ----
    let mut layers = BTreeMap::new();
    let traced = match (traced, sharded) {
        (Some(traced), _) => traced,
        (None, sharded) => {
            let stats = sharded.expect("a sharded case returns its stats");
            let secs = |a: std::time::Duration, b: std::time::Duration| (a - b).as_secs_f64();
            let macro_t0 = Instant::now();
            let macro_out = run(&main, &case.config());
            let macro_s = macro_t0.elapsed().as_secs_f64();
            if uts_serve::outcome_digest(&macro_out) != rep.sim.digest {
                eprintln!("sharded outcome differs from the macro engine's");
                rep.failed += 1;
            }
            // The in-process replica: same schedule, stacks in reach, so
            // codec / snapshot / routing sizes can be probed.
            let replica = traced_run(&main, &case.config(), PROBE_EVERY, true, &args.scratch);
            if replica.probes.route_steps != stats.route_total.steps as u64 {
                eprintln!("replica routed a different schedule than the coordinator");
                rep.failed += 1;
            }
            layers.insert("shard.run_s", rep.wall_s);
            layers.insert("shard.macro_s", macro_s);
            layers.insert("shard.vs_macro_ratio", rep.wall_s / macro_s);
            layers.insert("shard.fleet_s", fleet_s);
            layers.insert(
                "shard.coord_cpu_s",
                secs(self1.user, self0.user) + secs(self1.sys, self0.sys),
            );
            layers.insert(
                "shard.workers_cpu_s",
                secs(kids1.user, kids0.user) + secs(kids1.sys, kids0.sys),
            );
            layers
                .insert("shard.sys_cpu_s", secs(self1.sys, self0.sys) + secs(kids1.sys, kids0.sys));
            layers.insert("shard.phases", stats.phases.len() as f64);
            layers.insert(
                "shard.messages",
                stats.phases.iter().map(|p| p.messages).sum::<u64>() as f64,
            );
            layers.insert(
                "shard.us_per_macro_step",
                (rep.wall_s - fleet_s) / replica.boundaries.max(1) as f64 * 1e6,
            );
            replica
        }
    };
    if uts_serve::outcome_digest(&traced.outcome) != rep.sim.digest {
        eprintln!("traced outcome differs from the untraced one");
        rep.failed += 1;
    }
    layer_metrics(&traced, &mut layers);
    let dfs_t0 = Instant::now();
    let dfs = serial_dfs(&warm);
    layers.insert(
        "tree.serial_dfs_nodes_per_s",
        dfs.expanded as f64 / dfs_t0.elapsed().as_secs_f64(),
    );
    wire_metrics(&mut layers);
    write_spans(&args.scratch, &spans_json(&traced.spans));
    rep.layers = layers.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    rep
}

/// `core.*`, `tree.*`, `ckpt.*` (codec side) and `net.*` from one traced run.
fn layer_metrics(t: &Traced, layers: &mut BTreeMap<&'static str, f64>) {
    let layer = |name: &str| t.layers.get(name).copied().unwrap_or_default();
    let (horizon, burst, absorb, balance, split) = (
        layer("core.horizon"),
        layer("core.burst"),
        layer("core.absorb"),
        layer("core.balance"),
        layer("tree.split"),
    );
    let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };
    layers.insert("core.horizon_s", horizon.total_s);
    layers.insert("core.horizon_calls", horizon.calls as f64);
    layers.insert("core.horizon_mean", per(t.horizon_sum as f64, horizon.calls as f64));
    layers.insert("core.burst_s", burst.total_s);
    layers.insert("core.burst_calls", burst.calls as f64);
    layers.insert(
        "core.burst_ns_per_node",
        per(burst.total_s * 1e9, t.outcome.report.nodes_expanded as f64),
    );
    layers.insert("core.absorb_s", absorb.total_s);
    layers.insert("core.balance_s", balance.total_s);
    layers.insert("core.balance_phases", balance.calls as f64);
    layers.insert("core.balance_self_s", balance.self_s);
    layers.insert("tree.split_s", split.total_s);
    layers.insert("tree.split_calls", split.calls as f64);
    layers.insert("tree.split_transfers", t.split_transfers as f64);
    layers.insert("tree.split_ns_per_transfer", per(split.total_s * 1e9, t.split_transfers as f64));
    let p = &t.probes;
    layers.insert("tree.encode_s", p.encode_s);
    layers.insert("tree.encode_bytes", p.encode_bytes as f64);
    layers.insert("tree.encode_mb_per_s", per(p.encode_bytes as f64 / 1e6, p.encode_s));
    layers.insert("ckpt.snapshot_encode_s", p.snapshot_encode_s);
    layers.insert("ckpt.snapshot_bytes", p.snapshot_bytes as f64);
    layers.insert("ckpt.snapshot_decode_s", p.snapshot_decode_s);
    layers.insert("ckpt.spill_park_s", p.spill_park_s);
    layers.insert("ckpt.spill_unpark_s", p.spill_unpark_s);
    layers.insert("ckpt.spill_bytes", p.spill_bytes as f64);
    layers.insert("net.route_s", p.route_s);
    layers.insert("net.route_messages", p.route_messages as f64);
    layers.insert("net.route_steps", p.route_steps as f64);
    layers.insert("trace.coverage", t.coverage);
    layers.insert("trace.burst_share", burst.total_s / t.wall_s);
}

fn wire_metrics(layers: &mut BTreeMap<&'static str, f64>) {
    let wire = wirebench::measure();
    layers.insert("ckpt.wire_large_mb_per_s", wire.large_mb_per_s);
    layers.insert("ckpt.wire_small_mb_per_s", wire.small_mb_per_s);
    layers.insert("ckpt.wire_frame_rtt_us", wire.frame_rtt_us);
}

/// Spans stay in memory until here; the harness keeps the file.
fn write_spans(scratch: &Path, json: &str) {
    let _ = std::fs::write(scratch.join("trace.json"), json);
}

fn serve_rep(args: &ChildArgs, clock: &mut Clock) -> Rep {
    let specs = &args.inputs.jobs;
    let mut rep = Rep { attempted: specs.len() as u64, ..Rep::default() };
    let spill_dir = args.scratch.join("spill");
    let config = || {
        let mut cfg = ServeConfig::new(&spill_dir);
        cfg.slots = 1;
        // Not the zero quantum the server also accepts: then a slice is as
        // long as the gap to the governor's next poll happens to be, and
        // identical repetitions ranged 1.5–2.8 s (92 parks per job). Two
        // milliseconds park every job about 15 times, ±5 % between repetitions.
        cfg.quantum_ms = 2;
        cfg.poll_ms = 1;
        cfg
    };

    let start_t0 = Instant::now();
    let server = JobServer::start(config()).expect("job server starts on a loopback port");
    let start_s = start_t0.elapsed().as_secs_f64();
    let warm = drain(server.addr(), &specs[..SERVE_WARM_JOBS.min(specs.len())], SERVE_CLIENTS);
    rep.warm_nodes = warm.jobs.iter().filter_map(|j| j.sim).map(|s| s.nodes).sum();
    rep.warm_digest = warm.jobs.iter().filter_map(|j| j.sim).fold(0, |acc, s| acc ^ s.digest);
    rep.setup_s = clock.setup_s();
    clock.reference();

    sys::reset_vm_hwm();
    let Drained { wall_s, jobs, spans } = drain(server.addr(), specs, SERVE_CLIENTS);
    rep.hwm_kb = sys::vm_hwm_kb();
    clock.reference();
    rep.wall_s = wall_s;
    server.shutdown();

    let mut preemptions = 0u64;
    let mut efficiency_sum = 0.0;
    for job in &jobs {
        match job.sim {
            Some(sim) if Some(&sim.digest) == args.oracle.get(job.index) => {
                rep.sim.nodes += sim.nodes;
                rep.sim.cycles += sim.cycles;
                rep.sim.phases += sim.phases;
                rep.sim.transfers += sim.transfers;
                rep.sim.peak_stack = rep.sim.peak_stack.max(sim.peak_stack);
                rep.sim.digest ^= sim.digest;
                efficiency_sum += sim.efficiency;
                preemptions += job.preemptions;
                rep.latencies_ms.push(job.latency_ms);
            }
            _ => {
                eprintln!("job {} failed or differs from its oracle", job.index);
                rep.failed += 1;
            }
        }
    }
    rep.sim.efficiency = efficiency_sum / jobs.len().max(1) as f64;
    if !args.traced {
        return rep;
    }

    // ---- traced repetition ----
    let mut layers = BTreeMap::new();
    let rtts = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    };
    let mut result_rtts = rtts("poll");
    result_rtts.extend(rtts("result"));
    layers.insert("serve.submit_rtt_p50_ms", stats::median(&rtts("submit")));
    layers.insert("serve.result_rtt_p50_ms", stats::median(&result_rtts));
    layers.insert("serve.preemptions", preemptions as f64);
    layers.insert("serve.parks_per_job", preemptions as f64 / jobs.len().max(1) as f64);
    layers.insert("serve.start_s", start_s);
    let recover_t0 = Instant::now();
    let recovered = JobServer::start(config()).expect("job server restarts over its spill dir");
    layers.insert("serve.recover_s", recover_t0.elapsed().as_secs_f64());
    recovered.shutdown();
    let parse_t0 = Instant::now();
    let parsed: Vec<JobSpec> =
        specs.iter().map(|s| JobSpec::parse(s).expect("generated specs parse")).collect();
    layers.insert(
        "serve.spec_parse_us",
        parse_t0.elapsed().as_secs_f64() * 1e6 / specs.len().max(1) as f64,
    );
    // Codec, snapshot and spill cost at a serve-sized job: the first
    // generated-tree job, driven in process with probes.
    if let Some(spec) = parsed.first() {
        if let uts_serve::Workload::UtsGen(job_tree) = spec.workload {
            let traced = traced_run(&job_tree, &spec.config, PROBE_EVERY, false, &args.scratch);
            layer_metrics(&traced, &mut layers);
        }
    }
    wire_metrics(&mut layers);
    let request_spans: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.job, s.name, s.start_ns, s.end_ns
            )
        })
        .collect();
    write_spans(&args.scratch, &format!("[\n{}\n]", request_spans.join(",\n")));
    rep.layers = layers.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    rep
}
