//! Command implementations. Each returns `Result<(), CliError>`: a
//! malformed command line is a [`CliError::Usage`] (every `String` error of
//! flag parsing converts to one), a failure while running a
//! [`CliError::Failed`].

use uts_analysis::{optimal_static_trigger, TriggerParams};
use uts_ckpt::{CheckpointPolicy, FaultPlan};
use uts_core::{CheckpointCfg, EngineConfig, EngineKind, Outcome, Scheme, Search, Workload};
use uts_machine::CostModel;
use uts_mimd::{run_mimd, MimdConfig, MimdReport, StealPolicy};
use uts_puzzle15::{Board, Puzzle15};
use uts_shard::{resume_sharded, run_sharded, ParkPolicy, ShardOpts, WorkerKill};
use uts_tree::ida::ida_star;
use uts_tree::TreeProblem;

use crate::args::{parse_board, parse_workload, Flags, BOARD_FLAGS, WORKLOAD_FLAGS};
use crate::CliError;

/// `sts solve`: serial IDA\* on a 15-puzzle.
pub fn solve(flags: &Flags) -> Result<(), CliError> {
    flags.reject_unknown(&[BOARD_FLAGS, &["max-bound"]])?;
    let puzzle = Puzzle15::new(Board(parse_board(flags)?));
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

/// Everything `sts run` and `sts resume` share: the workload instance and
/// the fully-built engine config. `sts resume` must rebuild the *same*
/// config the checkpointing run used (the snapshot only carries a
/// fingerprint of it, not the config itself), so both commands funnel
/// through here and accept the same flags.
struct SimdSetup {
    workload: Workload,
    cfg: EngineConfig,
}

/// The flags [`simd_setup`] reads besides the workload's.
const SIMD_FLAGS: &[&str] = &[
    "p",
    "scheme",
    "cost",
    "lb-mult",
    "ledger",
    "engine",
    "checkpoint-every",
    "checkpoint-dir",
    "kill-at",
];

/// Reject any flag outside what [`simd_setup`] reads and the command's
/// `own`: the one accepted set of `run`, `resume` and `shard`.
fn reject_non_simd_flags(flags: &Flags, own: &[&str]) -> Result<(), String> {
    flags.reject_unknown(&[BOARD_FLAGS, WORKLOAD_FLAGS, SIMD_FLAGS, own])
}

fn simd_setup(flags: &Flags) -> Result<SimdSetup, CliError> {
    let p = flags.get_parsed("p", 1024usize)?;
    let scheme = flags.get("scheme").map_or(Ok(Scheme::gp_dk()), Scheme::parse)?;
    let cost = flags.get("cost").map_or(Ok(CostModel::cm2()), CostModel::parse)?;
    let cost = cost.with_lb_multiplier(flags.get_parsed("lb-mult", 1u32)?);

    let mut cfg = EngineConfig::new(p, scheme, cost);
    cfg.record_ledger = flags.get_parsed("ledger", false)?;
    cfg.engine = flags.get("engine").map_or(Ok(cfg.engine), EngineKind::parse)?;

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
    // Last: resolving a puzzle's bound runs serial IDA*.
    Ok(SimdSetup { workload: parse_workload(flags)?, cfg })
}

/// The run report on stdout; the workload echo and kill hint on stderr.
fn print_report(setup: &SimdSetup, out: &Outcome) {
    eprintln!("workload: {}", setup.workload);
    if out.killed {
        eprintln!("killed: fault injected; resume with `sts resume --snapshot ...`");
    }
    print!("{}", uts_core::run_report_json(&setup.cfg, out));
}

/// `sts run`: parallel SIMD search of one bounded iteration or one
/// generated tree.
pub fn run_simd(flags: &Flags) -> Result<(), CliError> {
    reject_non_simd_flags(flags, &[])?;
    let setup = simd_setup(flags)?;
    let out = setup.workload.run(&setup.cfg, None).map_err(CliError::failed)?;
    print_report(&setup, &out);
    Ok(())
}

/// `sts resume`: continue a checkpointed `sts run` from a snapshot file.
///
/// Takes the same workload/config flags as `run` — the snapshot's config
/// fingerprint is checked against the rebuilt config, so resuming under
/// different `--p`/`--scheme`/`--cost` flags is rejected rather than
/// silently diverging.
pub fn resume(flags: &Flags) -> Result<(), CliError> {
    reject_non_simd_flags(flags, &["snapshot"])?;
    let path = flags.get("snapshot").ok_or("--snapshot PATH is required")?;
    let bytes = read_snapshot(path)?;
    let setup = simd_setup(flags)?;
    let out = setup
        .workload
        .run(&setup.cfg, Some(&bytes))
        .map_err(|e| CliError::Failed(format!("{path}: {e}")))?;
    print_report(&setup, &out);
    Ok(())
}

/// The bytes of `--snapshot PATH`; an unreadable file is a run failure.
fn read_snapshot(path: &str) -> Result<Vec<u8>, CliError> {
    std::fs::read(path).map_err(|e| CliError::Failed(format!("--snapshot {path}: {e}")))
}

/// `sts shard`: the same search as `sts run`, executed by the
/// multi-process sharded machine — `--shards N` worker processes each own
/// a contiguous slab of PEs and the coordinator serializes every
/// balancing phase, so the outcome is bit-identical to `sts run` with the
/// macro engine. `--spill-dir DIR --park-every N` parks whole-machine
/// snapshots at boundaries (the recovery path after a worker dies);
/// `--snapshot PATH` resumes one, at any shard count.
pub fn shard(flags: &Flags) -> Result<(), CliError> {
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
    let snapshot = flags.get("snapshot").map(read_snapshot).transpose()?;
    let sharded = match &snapshot {
        Some(bytes) => resume_sharded(&setup.workload, &setup.cfg, &opts, bytes),
        None => run_sharded(&setup.workload, &setup.cfg, &opts),
    }
    .map_err(|e| match e {
        uts_shard::ShardError::WorkerLost { .. } if opts.park.is_some() => CliError::Failed(
            format!("{e}\nresume from the newest .park in the spill dir with --snapshot"),
        ),
        other => CliError::failed(other),
    })?;
    print_report(&setup, &sharded.outcome);
    print_shard_stats(&sharded.stats);
    Ok(())
}

/// The transport summary, on stderr: stdout is the run report alone.
fn print_shard_stats(stats: &uts_shard::ShardStats) {
    eprintln!("-- sharded machine ({} worker processes) --", stats.shards);
    let messages: u64 = stats.phases.iter().map(|ph| ph.messages).sum();
    eprintln!(
        "routed phases : {} ({} transfers routed through the interconnect)",
        stats.phases.len(),
        messages
    );
    eprintln!(
        "route (meas.) : {} router steps, max hops {}, waits {}",
        stats.route_total.steps, stats.route_total.max_hops, stats.route_total.waits
    );
    let closed: u64 = stats.phases.iter().map(|ph| ph.closed_form.total).sum();
    let measured: u64 = stats.phases.iter().map(|ph| ph.measured.total).sum();
    eprintln!("lb cost       : closed-form {closed} us vs route-measured {measured} us");
}

/// `sts mimd`: asynchronous work stealing on the same workload.
pub fn run_mimd_cmd(flags: &Flags) -> Result<(), CliError> {
    flags.reject_unknown(&[BOARD_FLAGS, &["p", "policy"]])?;
    let p = flags.get_parsed("p", 1024usize)?;
    let policy = match flags.get("policy").unwrap_or("rp") {
        "grr" => StealPolicy::GlobalRoundRobin,
        "arr" => StealPolicy::AsyncRoundRobin,
        "rp" => StealPolicy::RandomPolling,
        "nn" => StealPolicy::NeighborPolling,
        other => return Err(format!("unknown policy `{other}` (grr|arr|rp|nn)").into()),
    };
    struct Mimd(MimdConfig);
    impl Search for Mimd {
        type Out = MimdReport;
        fn search<P: TreeProblem>(self, problem: &P) -> MimdReport {
            run_mimd(problem, &self.0)
        }
    }
    let workload = Workload::puzzle(parse_board(flags)?, None)?;
    let m = workload.search(Mimd(MimdConfig::new(p, policy, CostModel::cm2())));
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
pub fn serve(flags: &Flags) -> Result<(), CliError> {
    flags.reject_unknown(&[&["addr", "slots", "spill-dir", "quantum-ms", "poll-ms"]])?;
    let cfg = uts_serve::ServeConfig {
        addr: flags.get("addr").unwrap_or("127.0.0.1:7117").to_string(),
        slots: flags.get_parsed("slots", 2usize)?.max(1),
        spill_dir: flags.get("spill-dir").unwrap_or("sts-spool").into(),
        quantum_ms: flags.get_parsed("quantum-ms", 50u64)?,
        poll_ms: flags.get_parsed("poll-ms", 5u64)?,
    };
    let spill = cfg.spill_dir.clone();
    let server =
        uts_serve::JobServer::start(cfg).map_err(|e| CliError::Failed(format!("serve: {e}")))?;
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
pub fn xo(flags: &Flags) -> Result<(), CliError> {
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
