//! Command implementations. Each returns `Result<(), String>`; `main`
//! prints the error + usage on failure.

use uts_analysis::{optimal_static_trigger, TriggerParams};
use uts_ckpt::{CheckpointPolicy, FaultPlan};
use uts_core::{resume_from_bytes, run_with, CheckpointCfg, EngineConfig, Outcome, Scheme};
use uts_machine::CostModel;
use uts_mimd::{run_mimd, MimdConfig, StealPolicy};
use uts_puzzle15::Puzzle15;
use uts_shard::{resume_sharded, run_sharded, ParkPolicy, ShardOpts, ShardWorkload, WorkerKill};
use uts_tree::ida::ida_star;
use uts_tree::problem::BoundedProblem;

use uts_synthgen::{GenFamily, GenTree};

use crate::args::{
    parse_cost, parse_engine, parse_scheme, parse_simd_workload, parse_workload, Flags,
    SimdWorkloadSpec, SIMD_WORKLOAD_FLAGS, WORKLOAD_FLAGS,
};

/// `sts solve`: serial IDA\* on a 15-puzzle.
pub fn solve(flags: &Flags) -> Result<(), String> {
    flags.reject_unknown(&[WORKLOAD_FLAGS, &["max-bound"]])?;
    let spec = parse_workload(flags)?;
    let inst = spec.instance();
    let puzzle = Puzzle15::new(inst.board());
    println!("{}", puzzle.start());
    let r = ida_star(&puzzle, flags.get_parsed("max-bound", 80u32)?);
    for it in &r.iterations {
        println!("bound {:3}: {:>12} nodes, {} goal(s)", it.bound, it.expanded, it.goals);
    }
    match r.solution_cost {
        Some(c) => println!("optimal solution cost: {c}"),
        None => println!("no solution within the bound"),
    }
    Ok(())
}

/// The materialized problem a SIMD run searches: a bounded 15-puzzle
/// iteration (the default), or a generated tree (`--workload utsgen`).
enum SimdWorkload {
    Puzzle { puzzle: Puzzle15, bound: u32 },
    UtsGen(GenTree),
}

impl SimdWorkload {
    fn describe(&self) -> String {
        match self {
            SimdWorkload::Puzzle { bound, .. } => format!("15-puzzle, bound {bound}"),
            SimdWorkload::UtsGen(t) => match t.family {
                GenFamily::Geometric { b_max, depth_limit } => format!(
                    "utsgen geometric (seed {}, b_max {b_max}, depth {depth_limit})",
                    t.seed
                ),
                GenFamily::Binomial { b0, m, .. } => {
                    format!("utsgen binomial (seed {}, b0 {b0}, m {m})", t.seed)
                }
            },
        }
    }
}

/// Everything `sts run` and `sts resume` share: the workload instance and
/// the fully-built engine config. `sts resume` must rebuild the *same*
/// config the checkpointing run used (the snapshot only carries a
/// fingerprint of it, not the config itself), so both commands funnel
/// through here and accept the same flags.
struct SimdSetup {
    workload: SimdWorkload,
    cfg: EngineConfig,
}

/// The flags [`simd_setup`] reads besides the workload's.
const SIMD_FLAGS: &[&str] = &[
    "p",
    "scheme",
    "cost",
    "lb-mult",
    "bound",
    "ledger",
    "engine",
    "checkpoint-every",
    "checkpoint-dir",
    "kill-at",
];

/// Reject any flag outside what [`simd_setup`] reads and the command's
/// `own`: the one accepted set of `run`, `resume` and `shard`.
fn reject_non_simd_flags(flags: &Flags, own: &[&str]) -> Result<(), String> {
    flags.reject_unknown(&[WORKLOAD_FLAGS, SIMD_WORKLOAD_FLAGS, SIMD_FLAGS, own])
}

fn simd_setup(flags: &Flags) -> Result<SimdSetup, String> {
    let spec = parse_simd_workload(flags)?;
    let p = flags.get_parsed("p", 1024usize)?;
    let scheme = match flags.get("scheme") {
        Some(s) => parse_scheme(s)?,
        None => Scheme::gp_dk(),
    };
    let cost = match flags.get("cost") {
        Some(c) => parse_cost(c)?,
        None => CostModel::cm2(),
    };
    let cost = cost.with_lb_multiplier(flags.get_parsed("lb-mult", 1u32)?);

    let workload = match spec {
        SimdWorkloadSpec::Puzzle(pz) => {
            let inst = pz.instance();
            let puzzle = Puzzle15::new(inst.board());
            // Bound: explicit flag, else the final IDA* bound.
            let bound = match flags.get("bound") {
                Some(b) => b.parse().map_err(|_| format!("--bound: bad value `{b}`"))?,
                None => ida_star(&puzzle, 80)
                    .solution_cost
                    .ok_or("instance not solvable within bound 80")?,
            };
            SimdWorkload::Puzzle { puzzle, bound }
        }
        SimdWorkloadSpec::UtsGen(tree) => SimdWorkload::UtsGen(tree),
    };
    let mut cfg = EngineConfig::new(p, scheme, cost);
    cfg.record_ledger = flags.get_parsed("ledger", false)?;
    if let Some(e) = flags.get("engine") {
        cfg.engine = parse_engine(e)?;
    }

    // Checkpointing: `--checkpoint-every N` snapshots every Nth macro-step
    // boundary into `--checkpoint-dir DIR`; `--kill-at K` injects a fault at
    // boundary K (with or without snapshots, for overhead experiments).
    let every = flags.get_parsed("checkpoint-every", 0u64)?;
    let kill_at = flags.get_parsed("kill-at", 0u64)?;
    if every > 0 || kill_at > 0 {
        let policy =
            if every > 0 { CheckpointPolicy::every(every) } else { CheckpointPolicy::default() };
        let mut ck = CheckpointCfg::new(policy);
        match flags.get("checkpoint-dir") {
            Some(d) => ck = ck.into_dir(d),
            None if every > 0 => return Err("--checkpoint-every needs --checkpoint-dir DIR".into()),
            None => {}
        }
        if kill_at > 0 {
            ck = ck.with_fault(FaultPlan::kill_at(kill_at));
        }
        cfg.checkpoint = Some(ck);
    }
    Ok(SimdSetup { workload, cfg })
}

fn print_outcome(cfg: &EngineConfig, workload: &str, out: &Outcome) {
    let p = cfg.p;
    println!("scheme        : {}", cfg.scheme.name());
    println!("P             : {p}");
    println!("workload      : {workload}");
    println!("W (nodes)     : {}", out.report.nodes_expanded);
    println!("goals         : {}", out.goals);
    println!("Nexpand cycles: {}", out.report.n_expand);
    println!("Nlb phases    : {}", out.report.n_lb);
    println!("work transfers: {}", out.report.n_transfers);
    println!("peak PE stack : {}", out.peak_stack_nodes);
    println!("T_par (virt s): {:.2}", out.report.t_par as f64 / 1e6);
    println!("speedup       : {:.1}", out.report.speedup());
    println!("efficiency    : {:.3}", out.report.efficiency);
    if out.killed {
        println!("killed        : yes (fault injected; resume with `sts resume --snapshot ...`)");
    }
    if let Some(ledger) = &out.ledger {
        let s = ledger.donation_spread();
        println!("-- ledger ({} balancing phases) --", ledger.phases.len());
        println!("donors        : {} of {p} PEs (max {} donations)", s.donors, s.max);
        println!("spread        : max/mean {:.2}, gini {:.3}", s.max_over_mean, s.gini);
        let lb_cost: u64 = ledger.phases.iter().map(|ph| ph.cost.total).sum();
        let setup: u64 = ledger.phases.iter().map(|ph| ph.cost.setup).sum();
        let transfer: u64 = ledger.phases.iter().map(|ph| ph.cost.transfer).sum();
        println!(
            "phase cost    : {lb_cost} us total (pre-mult: setup {setup}, transfer {transfer})"
        );
    }
}

/// `sts run`: parallel SIMD search of one bounded iteration or one
/// generated tree.
pub fn run_simd(flags: &Flags) -> Result<(), String> {
    reject_non_simd_flags(flags, &[])?;
    let setup = simd_setup(flags)?;
    let out = match &setup.workload {
        SimdWorkload::Puzzle { puzzle, bound } => {
            run_with(&BoundedProblem::new(puzzle, *bound), &setup.cfg)
        }
        SimdWorkload::UtsGen(tree) => run_with(tree, &setup.cfg),
    };
    print_outcome(&setup.cfg, &setup.workload.describe(), &out);
    Ok(())
}

/// `sts resume`: continue a checkpointed `sts run` from a snapshot file.
///
/// Takes the same workload/config flags as `run` — the snapshot's config
/// fingerprint is checked against the rebuilt config, so resuming under
/// different `--p`/`--scheme`/`--cost` flags is rejected rather than
/// silently diverging.
pub fn resume(flags: &Flags) -> Result<(), String> {
    reject_non_simd_flags(flags, &["snapshot"])?;
    let path = flags.get("snapshot").ok_or("--snapshot PATH is required")?;
    let bytes = std::fs::read(path).map_err(|e| format!("--snapshot {path}: {e}"))?;
    let setup = simd_setup(flags)?;
    let out = match &setup.workload {
        SimdWorkload::Puzzle { puzzle, bound } => {
            resume_from_bytes(&BoundedProblem::new(puzzle, *bound), &setup.cfg, &bytes)
        }
        SimdWorkload::UtsGen(tree) => resume_from_bytes(tree, &setup.cfg, &bytes),
    }
    .map_err(|e| format!("{path}: {e}"))?;
    print_outcome(&setup.cfg, &setup.workload.describe(), &out);
    Ok(())
}

/// `sts shard`: the same search as `sts run`, executed by the
/// multi-process sharded machine — `--shards N` worker processes each own
/// a contiguous slab of PEs and the coordinator serializes every
/// balancing phase, so the outcome is bit-identical to `sts run` with the
/// macro engine. `--spill-dir DIR --park-every N` parks whole-machine
/// snapshots at boundaries (the recovery path after a worker dies);
/// `--snapshot PATH` resumes one, at any shard count.
pub fn shard(flags: &Flags) -> Result<(), String> {
    reject_non_simd_flags(
        flags,
        &["shards", "spill-dir", "park-every", "worker-kill-at", "worker-kill-shard", "snapshot"],
    )?;
    let setup = simd_setup(flags)?;
    if setup.cfg.checkpoint.is_some() {
        return Err("sts shard parks at the coordinator: use --spill-dir DIR --park-every N \
             instead of --checkpoint-*"
            .into());
    }
    let shards = flags.get_parsed("shards", 4usize)?;
    let mut opts = ShardOpts { shards, park: None, kill: None };
    let every = flags.get_parsed("park-every", 0u64)?;
    if every > 0 {
        let dir = flags.get("spill-dir").ok_or("--park-every needs --spill-dir DIR")?;
        opts.park = Some(ParkPolicy { dir: dir.into(), every });
    }
    let kill_at = flags.get_parsed("worker-kill-at", 0u64)?;
    if kill_at > 0 {
        opts.kill = Some(WorkerKill {
            shard: flags.get_parsed("worker-kill-shard", 0usize)?,
            at_burst: kill_at,
        });
    }
    let workload = match &setup.workload {
        SimdWorkload::Puzzle { puzzle, bound } => {
            ShardWorkload::Puzzle { board: puzzle.start().0, bound: *bound }
        }
        SimdWorkload::UtsGen(tree) => ShardWorkload::UtsGen(*tree),
    };
    let snapshot = match flags.get("snapshot") {
        Some(path) => Some(std::fs::read(path).map_err(|e| format!("--snapshot {path}: {e}"))?),
        None => None,
    };
    let sharded = match &snapshot {
        Some(bytes) => resume_sharded(&workload, &setup.cfg, &opts, bytes),
        None => run_sharded(&workload, &setup.cfg, &opts),
    }
    .map_err(|e| match e {
        uts_shard::ShardError::WorkerLost { .. } if opts.park.is_some() => {
            format!("{e}\nresume from the newest .park in the spill dir with --snapshot")
        }
        other => other.to_string(),
    })?;
    print_outcome(&setup.cfg, &setup.workload.describe(), &sharded.outcome);
    print_shard_stats(&sharded.stats);
    Ok(())
}

fn print_shard_stats(stats: &uts_shard::ShardStats) {
    println!("-- sharded machine ({} worker processes) --", stats.shards);
    let messages: u64 = stats.phases.iter().map(|ph| ph.messages).sum();
    println!(
        "routed phases : {} ({} transfers routed through the interconnect)",
        stats.phases.len(),
        messages
    );
    println!(
        "route (meas.) : {} router steps, max hops {}, waits {}",
        stats.route_total.steps, stats.route_total.max_hops, stats.route_total.waits
    );
    let closed: u64 = stats.phases.iter().map(|ph| ph.closed_form.total).sum();
    let measured: u64 = stats.phases.iter().map(|ph| ph.measured.total).sum();
    println!("lb cost       : closed-form {closed} us vs route-measured {measured} us");
}

/// `sts mimd`: asynchronous work stealing on the same workload.
pub fn run_mimd_cmd(flags: &Flags) -> Result<(), String> {
    flags.reject_unknown(&[WORKLOAD_FLAGS, &["p", "policy"]])?;
    let spec = parse_workload(flags)?;
    let p = flags.get_parsed("p", 1024usize)?;
    let policy = match flags.get("policy").unwrap_or("rp") {
        "grr" => StealPolicy::GlobalRoundRobin,
        "arr" => StealPolicy::AsyncRoundRobin,
        "rp" => StealPolicy::RandomPolling,
        "nn" => StealPolicy::NeighborPolling,
        other => return Err(format!("unknown policy `{other}` (grr|arr|rp|nn)")),
    };
    let inst = spec.instance();
    let puzzle = Puzzle15::new(inst.board());
    let bound = ida_star(&puzzle, 80).solution_cost.ok_or("unsolvable within bound 80")?;
    let bp = BoundedProblem::new(&puzzle, bound);
    let m = run_mimd(&bp, &MimdConfig::new(p, policy, CostModel::cm2()));
    println!("policy     : {}", policy.name());
    println!("W (nodes)  : {}", m.nodes_expanded);
    println!("requests   : {}", m.requests);
    println!("steals     : {}", m.transfers);
    println!("efficiency : {:.3}", m.efficiency);
    Ok(())
}

/// `sts serve`: the long-running job server. Blocks until killed; jobs
/// and results are durable in `--spill-dir`, so a restarted server picks
/// up where the last one stopped.
pub fn serve(flags: &Flags) -> Result<(), String> {
    flags.reject_unknown(&[&["addr", "slots", "spill-dir", "quantum-ms", "poll-ms"]])?;
    let cfg = uts_serve::ServeConfig {
        addr: flags.get("addr").unwrap_or("127.0.0.1:7117").to_string(),
        slots: flags.get_parsed("slots", 2usize)?.max(1),
        spill_dir: flags.get("spill-dir").unwrap_or("sts-spool").into(),
        quantum_ms: flags.get_parsed("quantum-ms", 50u64)?,
        poll_ms: flags.get_parsed("poll-ms", 5u64)?,
    };
    let spill = cfg.spill_dir.clone();
    let server = uts_serve::JobServer::start(cfg).map_err(|e| format!("serve: {e}"))?;
    println!("sts serve: listening on http://{}", server.addr());
    println!("sts serve: spilling to {}", spill.display());
    println!("  POST /submit  GET /status/<id>  GET /result/<id>  POST /cancel/<id>  GET /jobs");
    // Serve until the process is killed; jobs in flight at that point
    // recover from the spill directory on the next start.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `sts xo`: the optimal static trigger of eq. 18.
pub fn xo(flags: &Flags) -> Result<(), String> {
    flags.reject_unknown(&[&["w", "p", "ratio"]])?;
    let w: u64 = flags
        .get("w")
        .ok_or("--w <problem size> is required")?
        .parse()
        .map_err(|_| "--w: not a number".to_string())?;
    let p = flags.get_parsed("p", 8192usize)?;
    let ratio = flags.get_parsed("ratio", CostModel::cm2().lb_ratio(p))?;
    let params = TriggerParams::new(w, p, ratio);
    println!("x_o(W={w}, P={p}, t_lb/U_calc={ratio:.3}) = {:.4}", optimal_static_trigger(&params));
    Ok(())
}
