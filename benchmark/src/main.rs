//! The repository benchmark. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- [flags]
//!   (no flags)            all workloads, 11 interleaved repetitions each, then one traced run each
//!   --workload NAME       only that workload
//!   --seed S              input seed (default 1)
//!   --reps N              repetitions per workload (default 11)
//!   --seconds T           measure for T seconds instead of a repetition count
//!   --trace 0|1           with --seconds: print end-to-end (0) or per-layer (1) metrics
//!   --list                print workloads, metrics, units, directions and bounds
//!   --noise-check         two sets back to back; fail if any median moves past its bound
//! ```

mod child;
mod refkernel;
mod rep;
mod serveload;
mod stats;
mod sys;
mod trace;
mod wirebench;
mod workloads;

use std::collections::BTreeMap;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use uts_core::{run, run_with, EngineKind};
use uts_serve::json::Json;
use uts_serve::{outcome_digest, JobSpec};
use uts_tree::serial_dfs;

use rep::{num, Rep, Sim};
use stats::{median, quantile};
use workloads::{Def, Inputs, Kind, DEFS};

/// The contract file is the one place metric names, units, directions and
/// bounds are written down; the harness reads its own copy.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

const DEFAULT_REPS: usize = 11;
const MIN_TIMED_REPS: usize = 3;
/// Twenty times the slowest repetition.
const REPETITION_TIMEOUT: Duration = Duration::from_secs(60);
/// Outside this range the host was too far from the recording machine's
/// speed for normalised seconds to be trusted.
const SPEED_FACTOR_TRUSTED: (f64, f64) = (0.7, 1.4);

struct Metric {
    name: String,
    unit: String,
    better: String,
    bound: Option<f64>,
}

struct Contract {
    workloads: Vec<(String, String)>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn contract() -> Contract {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    let items = |key: &str| match doc.get(key) {
        Some(Json::Arr(items)) => items.clone(),
        _ => panic!("BENCHMARK.json lacks the `{key}` list"),
    };
    let text = |item: &Json, key: &str| {
        item.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("`{key}` missing"))
            .to_string()
    };
    let metrics = |key: &str| {
        items(key)
            .iter()
            .map(|m| Metric {
                name: text(m, "name"),
                unit: text(m, "unit"),
                better: text(m, "better"),
                bound: m.get("bound").and_then(Json::as_f64),
            })
            .collect()
    };
    let contract = Contract {
        workloads: items("workloads").iter().map(|w| (text(w, "name"), text(w, "why"))).collect(),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    };
    let named: Vec<&str> = contract.workloads.iter().map(|(n, _)| n.as_str()).collect();
    let defined: Vec<&str> = DEFS.iter().map(|d| d.name).collect();
    assert_eq!(named, defined, "BENCHMARK.json and the harness name the same workloads");
    contract
}

#[derive(Default)]
struct Args {
    seed: u64,
    workload: Option<String>,
    reps: usize,
    seconds: Option<f64>,
    trace: Option<bool>,
    list: bool,
    noise_check: bool,
    // One repetition (internal).
    child: bool,
    tree_seed: u64,
    jobs_file: Option<PathBuf>,
    scratch: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { seed: 1, reps: DEFAULT_REPS, ..Args::default() };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        fn number<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad value `{v}`"))
        }
        match flag.as_str() {
            "--seed" => args.seed = number(&flag, value("a seed")?)?,
            "--workload" => args.workload = Some(value("a workload name")?),
            "--reps" => args.reps = number::<usize>(&flag, value("a count")?)?.max(1),
            "--seconds" => args.seconds = Some(number(&flag, value("seconds")?)?),
            "--trace" => args.trace = Some(number::<u8>(&flag, value("0 or 1")?)? != 0),
            "--list" => args.list = true,
            "--noise-check" => args.noise_check = true,
            "--child" => args.child = true,
            "--tree-seed" => args.tree_seed = number(&flag, value("a seed")?)?,
            "--jobs-file" => args.jobs_file = Some(value("a path")?.into()),
            "--scratch" => args.scratch = Some(value("a path")?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let start = Instant::now();
    // Shard workers are this binary re-executed.
    uts_shard::maybe_run_worker();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        return child_main(&args, start);
    }
    let contract = contract();
    if args.list {
        list(&contract);
        return ExitCode::SUCCESS;
    }
    let defs: Vec<&'static Def> = match &args.workload {
        None => DEFS.iter().collect(),
        Some(name) => match workloads::find(name) {
            Some(def) => vec![def],
            None => {
                eprintln!("error: unknown workload `{name}` (see --list)");
                return ExitCode::from(2);
            }
        },
    };
    let harness = Harness::new(args.seed);
    let ok = if args.noise_check {
        noise_check(&harness, &contract, &defs, args.reps)
    } else if let Some(seconds) = args.seconds {
        let [def] = defs.as_slice() else {
            eprintln!("error: --seconds measures one --workload");
            return ExitCode::from(2);
        };
        timed_run(&harness, &contract, def, seconds, args.trace.unwrap_or(false))
    } else {
        full_set(&harness, &contract, &defs, args.reps, args.trace.unwrap_or(true))
    };
    harness.clean_up();
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------- child ---

fn child_main(args: &Args, start: Instant) -> ExitCode {
    let def = args.workload.as_deref().and_then(workloads::find).expect("--child names a workload");
    let scratch = args.scratch.clone().expect("--child has a scratch directory");
    let mut inputs = Inputs { tree_seed: args.tree_seed, jobs: Vec::new() };
    let mut oracle = Vec::new();
    if let Some(path) = &args.jobs_file {
        let text = std::fs::read_to_string(path).expect("jobs file is readable");
        for line in text.lines() {
            let (digest, spec) = line.split_once('\t').expect("jobs file line: digest<TAB>spec");
            oracle.push(digest.parse().expect("oracle digest"));
            inputs.jobs.push(spec.to_string());
        }
    }
    std::fs::create_dir_all(&scratch).expect("scratch directory");
    let traced = args.trace.unwrap_or(false);
    child::run_child(child::ChildArgs { def, inputs, oracle, scratch, traced }, start);
    ExitCode::SUCCESS
}

// -------------------------------------------------------------- harness ---

struct Harness {
    seed: u64,
    /// Cores available before pinning (provenance).
    nproc: usize,
    /// The one CPU everything runs on (`None`: the kernel refused to pin).
    cpu: Option<usize>,
    exe: PathBuf,
    /// Inside the build directory: ignored by git, inside the checkout.
    scratch: PathBuf,
}

/// One workload's inputs and the oracles its repetitions are checked
/// against, computed once, before anything is timed.
struct Prepared {
    def: &'static Def,
    inputs: Inputs,
    jobs_file: Option<PathBuf>,
    /// Expected digest of the timed run, where an independent oracle exists
    /// (`shard-*`: the macro engine on the same instance).
    oracle_digest: Option<u64>,
    warm_nodes: Option<u64>,
    warm_digest: Option<u64>,
    /// `serve-churn`: the same jobs through `JobSpec::oracle()`, sequentially.
    direct_s: f64,
    problems: Vec<String>,
}

impl Harness {
    fn new(seed: u64) -> Self {
        // On the recording sandbox the host moves the two vCPUs between
        // separate cores (30 µs cross-CPU wake-ups, full parallel speed) and
        // one shared core (2 µs wake-ups, half the parallel speed) every few
        // minutes; the latency-bound workloads swing by 30 % with it. On one
        // CPU both regimes look the same. Repetitions and the shard workers
        // they spawn inherit the pin.
        let nproc = sys::nproc();
        let cpu = sys::pin_to_one_cpu();
        let exe = std::env::current_exe().expect("own executable path");
        let scratch = exe
            .parent()
            .expect("executable sits in a directory")
            .join(format!("uts-benchmark-scratch/{}", std::process::id()));
        std::fs::create_dir_all(&scratch).expect("scratch directory inside the build directory");
        Self { seed, nproc, cpu, exe, scratch }
    }

    fn clean_up(&self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }

    fn prepare(&self, def: &'static Def) -> Prepared {
        let inputs = workloads::generate(def, self.seed);
        let mut prepared = Prepared {
            def,
            inputs,
            jobs_file: None,
            oracle_digest: None,
            warm_nodes: None,
            warm_digest: None,
            direct_s: 0.0,
            problems: Vec::new(),
        };
        match def.kind {
            Kind::Tree(case) => {
                let cfg = case.config();
                let warm = workloads::tree(prepared.inputs.tree_seed, case.warm_depth);
                prepared.warm_nodes = Some(serial_dfs(&warm).expanded);
                if case.workers == 0 {
                    // All four engine loops agree on the warm instance.
                    let digests: Vec<u64> = EngineKind::ALL
                        .iter()
                        .map(|&k| outcome_digest(&run_with(&warm, &cfg.clone().with_engine(k))))
                        .collect();
                    if digests.iter().any(|&d| d != digests[0]) {
                        prepared.problems.push(format!(
                            "engines disagree on the warm instance: {digests:x?} (reference, fused, macro, par)"
                        ));
                    }
                    prepared.warm_digest = Some(digests[2]);
                } else {
                    prepared.warm_digest = Some(outcome_digest(&run(&warm, &cfg)));
                    let main = workloads::tree(prepared.inputs.tree_seed, case.depth);
                    prepared.oracle_digest = Some(outcome_digest(&run(&main, &cfg)));
                }
            }
            Kind::Serve => {
                let t0 = Instant::now();
                let digests: Vec<u64> = prepared
                    .inputs
                    .jobs
                    .iter()
                    .map(|s| {
                        outcome_digest(&JobSpec::parse(s).expect("generated specs parse").oracle())
                    })
                    .collect();
                prepared.direct_s = t0.elapsed().as_secs_f64();
                let lines: Vec<String> = digests
                    .iter()
                    .zip(&prepared.inputs.jobs)
                    .map(|(d, s)| format!("{d}\t{s}"))
                    .collect();
                let path = self.scratch.join("jobs.tsv");
                std::fs::write(&path, lines.join("\n")).expect("jobs file is writable");
                prepared.jobs_file = Some(path);
            }
        }
        prepared
    }

    /// One repetition in a fresh child process.
    fn repetition(&self, prepared: &Prepared, index: usize, traced: bool) -> Result<Rep, String> {
        let scratch = self.scratch.join(format!("{}-{index}", prepared.def.name));
        let mut cmd = Command::new(&self.exe);
        cmd.arg("--child")
            .args(["--workload", prepared.def.name])
            .args(["--tree-seed", &prepared.inputs.tree_seed.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--scratch")
            .arg(&scratch);
        if let Some(path) = &prepared.jobs_file {
            cmd.arg("--jobs-file").arg(path);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning a repetition: {e}"))?;
        let mut pipe = child.stdout.take().expect("piped stdout");
        let reader = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = pipe.read_to_string(&mut text);
            text
        });
        // A repetition that hangs (a deadlocked pipe, a server that never
        // answers) must fail the run, not stall it.
        let deadline = Instant::now() + REPETITION_TIMEOUT;
        let status = loop {
            match child.try_wait().map_err(|e| format!("waiting for a repetition: {e}"))? {
                Some(status) => break status,
                None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
                None => {
                    let _ = child.kill();
                    let _ = child.wait();
                    let _ = std::fs::remove_dir_all(&scratch);
                    return Err(format!("repetition still running after {REPETITION_TIMEOUT:?}"));
                }
            }
        };
        let stdout = reader.join().map_err(|_| "reading a repetition's report panicked")?;
        if traced {
            // The spans outlive the scratch directory.
            let kept =
                self.exe.with_file_name(format!("uts-benchmark-trace-{}.json", prepared.def.name));
            let _ = std::fs::rename(scratch.join("trace.json"), kept);
        }
        let _ = std::fs::remove_dir_all(&scratch);
        if !status.success() {
            return Err(format!("repetition exited with {status}"));
        }
        let line = stdout.lines().rev().find(|l| !l.trim().is_empty()).ok_or("empty report")?;
        Rep::from_json(line)
    }
}

// ------------------------------------------------------------ one result ---

#[derive(Default)]
struct Outcome {
    reps: Vec<Rep>,
    traced: Option<Rep>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    fn absorb(&mut self, prepared: &Prepared, rep: Result<Rep, String>, traced: bool) {
        let rep = match rep {
            Ok(rep) => rep,
            Err(e) => {
                self.attempted += 1;
                return self.fail(e);
            }
        };
        println!(
            "  {} {}: raw wall {:.4} s, set-up {:.4} s, reference {:.4} {:.4} {:.4} s",
            prepared.def.name,
            if traced { "traced".into() } else { format!("rep {}", self.reps.len() + 1) },
            rep.wall_s,
            rep.setup_s,
            rep.refs[0],
            rep.refs[1],
            rep.refs[2]
        );
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        if rep.failed > 0 {
            self.problems.push(format!("{} operation(s) failed inside a repetition", rep.failed));
        }
        if let Some((sim, warm)) = self.reps.first().map(|r| (r.sim, (r.warm_nodes, r.warm_digest)))
        {
            if sim != rep.sim {
                self.fail(format!("simulated counts moved: {sim:?} then {:?}", rep.sim));
            }
            if warm != (rep.warm_nodes, rep.warm_digest) {
                self.fail("the warm run's outcome moved between repetitions".into());
            }
        }
        if prepared.oracle_digest.is_some_and(|d| d != rep.sim.digest) {
            self.fail("outcome digest differs from the macro engine's".into());
        }
        if prepared.warm_digest.is_some_and(|d| d != rep.warm_digest) {
            self.fail("warm run's digest differs from the macro engine's".into());
        }
        if prepared.warm_nodes.is_some_and(|n| n != rep.warm_nodes) {
            self.fail("warm run expanded a different node count than the serial search".into());
        }
        if traced {
            self.traced = Some(rep);
        } else {
            self.reps.push(rep);
        }
    }

    /// Checks over the whole set of repetitions.
    fn close(&mut self, prepared: &Prepared, seed: u64) {
        for p in &prepared.problems {
            self.fail(p.clone());
        }
        let Some(first) = self.reps.first().map(|r| r.sim) else {
            return self.fail("no repetition completed".into());
        };
        if let (1, Some(pinned)) = (seed, prepared.def.pinned) {
            let got = first.counts();
            if got != pinned {
                self.fail(format!("pinned counts moved: expected {pinned:?}, got {got:?}"));
            }
        }
        let Some(traced) = &self.traced else { return };
        let layer = |k: &str| traced.layers.get(k).copied().unwrap_or(0.0);
        let in_process = matches!(prepared.def.kind, Kind::Tree(c) if c.workers == 0);
        let mut problems = Vec::new();
        if in_process && layer("trace.coverage") < 0.90 {
            problems.push(format!(
                "trace covers {:.3} of the traced wall, under 0.90",
                layer("trace.coverage")
            ));
        }
        // The reason each in-process workload exists, asserted.
        match prepared.def.name {
            "burst-deep" if layer("trace.burst_share") < 0.70 => problems.push(format!(
                "burst is {:.2} of burst-deep, under 0.70",
                layer("trace.burst_share")
            )),
            "balance-wide" if layer("trace.burst_share") > 0.40 => problems.push(format!(
                "burst is {:.2} of balance-wide, over 0.40",
                layer("trace.burst_share")
            )),
            _ => {}
        }
        for p in problems {
            self.fail(p);
        }
    }
}

struct Measured {
    end_to_end: BTreeMap<String, f64>,
    per_layer: BTreeMap<String, f64>,
    speed_factor: f64,
}

fn measure(prepared: &Prepared, outcome: &Outcome) -> Measured {
    let reps = &outcome.reps;
    let nominal = refkernel::REF_NOMINAL_S;
    let factor = |a: f64, b: f64| nominal / ((a + b) / 2.0);
    let wall_factor: Vec<f64> = reps.iter().map(|r| factor(r.refs[1], r.refs[2])).collect();
    let raw_wall: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let wall: Vec<f64> = raw_wall.iter().zip(&wall_factor).map(|(w, f)| w * f).collect();
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s * factor(r.refs[0], r.refs[1])).collect();
    let workers = match prepared.def.kind {
        Kind::Tree(case) => case.workers as u64,
        Kind::Serve => 0,
    };
    // A job is the whole run on the single-job workloads.
    let jobs = |r: &Rep| r.latencies_ms.len().max(1) as f64;

    let mut e = BTreeMap::new();
    e.insert("wall_s".to_string(), median(&wall));
    e.insert(
        "nodes_per_s".to_string(),
        median(&reps.iter().zip(&wall).map(|(r, w)| r.sim.nodes as f64 / w).collect::<Vec<_>>()),
    );
    e.insert("setup_s".to_string(), median(&setup));
    e.insert(
        "peak_rss_mb".to_string(),
        reps.iter()
            .map(|r| (r.hwm_kb + workers * r.worker_rss_kb) as f64 / 1024.0)
            .fold(0.0, f64::max),
    );
    e.insert(
        "jobs_per_s".to_string(),
        median(&reps.iter().zip(&wall).map(|(r, w)| jobs(r) / w).collect::<Vec<_>>()),
    );
    e.insert(
        "job_latency_p50_ms".to_string(),
        median(
            &reps
                .iter()
                .zip(&wall_factor)
                .map(
                    |(r, f)| {
                        if r.latencies_ms.is_empty() {
                            0.0
                        } else {
                            median(&r.latencies_ms) * f
                        }
                    },
                )
                .collect::<Vec<_>>(),
        ),
    );

    let mut l: BTreeMap<String, f64> = BTreeMap::new();
    if let Some(traced) = &outcome.traced {
        l.extend(traced.layers.iter().map(|(k, v)| (k.clone(), *v)));
        l.insert("trace.overhead_ratio".into(), traced.wall_s / median(&raw_wall));
    }
    let sim: Sim = reps[0].sim;
    l.insert("sim.nodes".into(), sim.nodes as f64);
    l.insert("sim.cycles".into(), sim.cycles as f64);
    l.insert("sim.phases".into(), sim.phases as f64);
    l.insert("sim.transfers".into(), sim.transfers as f64);
    l.insert("sim.efficiency".into(), sim.efficiency);
    l.insert("sim.peak_stack_nodes".into(), sim.peak_stack as f64);
    // The low 48 bits: exact in a JSON number.
    l.insert("sim.outcome_fnv".into(), (sim.digest & 0xFFFF_FFFF_FFFF) as f64);
    let all_refs: Vec<f64> = reps.iter().flat_map(|r| r.refs).collect();
    let speed_factor = median(&wall_factor);
    l.insert("host.ref_s".into(), median(&all_refs));
    l.insert("host.speed_factor".into(), speed_factor);
    l.insert("host.raw_wall_s".into(), median(&raw_wall));
    l.insert("rep.count".into(), reps.len() as f64);
    l.insert("rep.raw_wall_q1_s".into(), quantile(&raw_wall, 0.25));
    l.insert("rep.raw_wall_q3_s".into(), quantile(&raw_wall, 0.75));
    l.insert("rep.norm_wall_q1_s".into(), quantile(&wall, 0.25));
    l.insert("rep.norm_wall_q3_s".into(), quantile(&wall, 0.75));
    if matches!(prepared.def.kind, Kind::Serve) {
        let pooled: Vec<f64> = reps.iter().flat_map(|r| r.latencies_ms.iter().copied()).collect();
        l.insert("serve.direct_s".into(), prepared.direct_s);
        l.insert("serve.vs_direct_ratio".into(), median(&raw_wall) / prepared.direct_s);
        l.insert("serve.job_latency_p90_ms".into(), quantile(&pooled, 0.90));
    }
    Measured { end_to_end: e, per_layer: l, speed_factor }
}

// ----------------------------------------------------------------- modes ---

fn provenance(harness: &Harness, prepared: &[Prepared], reps: usize, speed_factor: f64) -> String {
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let threads: Vec<String> =
        prepared.iter().map(|p| format!("\"{}\":{}", p.def.name, p.def.host_threads)).collect();
    // The instances the seed led to, so a run can be reproduced exactly.
    let instances: Vec<String> = prepared
        .iter()
        .map(|p| match p.def.kind {
            Kind::Tree(_) => format!("\"{}\":{}", p.def.name, p.inputs.tree_seed),
            Kind::Serve => format!("\"{}\":{}", p.def.name, p.inputs.jobs.len()),
        })
        .collect();
    format!(
        "{{\"nproc\":{},\"pinned_cpu\":{},\"host_threads\":{{{}}},\"tree_seed_or_jobs\":{{{}}},\"rustc\":\"{}\",\"git_rev\":\"{}\",\"seed\":{},\"rep_count\":{},\"ref_nominal_s\":{},\"speed_factor\":{}}}",
        harness.nproc,
        harness.cpu.map_or("null".to_string(), |c| c.to_string()),
        threads.join(","),
        instances.join(","),
        uts_serve::json::escape(&tool("rustc", &["-V"])),
        uts_serve::json::escape(&tool("git", &["rev-parse", "--short", "HEAD"])),
        harness.seed,
        reps,
        num(refkernel::REF_NOMINAL_S),
        num(speed_factor),
    )
}

fn metrics_json(metrics: &[Metric], values: &BTreeMap<String, f64>) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            // A per-layer metric that does not exist on this workload reads 0.
            let value = values.get(&m.name).copied().unwrap_or(0.0);
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, num(value), m.unit)
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

fn print_metrics(title: &str, metrics: &[Metric], values: &BTreeMap<String, f64>) {
    println!("  {title}:");
    for m in metrics {
        if let Some(v) = values.get(&m.name) {
            println!("    {:<28} {:>18.6} {}", m.name, v, m.unit);
        }
    }
}

fn warn_if_untrusted(name: &str, speed_factor: f64) {
    if !(SPEED_FACTOR_TRUSTED.0..=SPEED_FACTOR_TRUSTED.1).contains(&speed_factor) {
        println!(
            "  WARNING {name}: host.speed_factor {speed_factor:.3} is outside {}–{}; distrust normalised seconds",
            SPEED_FACTOR_TRUSTED.0, SPEED_FACTOR_TRUSTED.1
        );
    }
}

/// Print one workload's problems and metrics; `None` if nothing completed.
fn report(contract: &Contract, prepared: &Prepared, outcome: &Outcome) -> Option<Measured> {
    let name = prepared.def.name;
    println!("{name}");
    for p in &outcome.problems {
        println!("  FAILED {name}: {p}");
    }
    if outcome.reps.is_empty() {
        return None;
    }
    let measured = measure(prepared, outcome);
    warn_if_untrusted(name, measured.speed_factor);
    print_metrics("end to end", &contract.end_to_end, &measured.end_to_end);
    print_metrics("per layer", &contract.per_layer, &measured.per_layer);
    Some(measured)
}

/// The driver's mode: one workload, measured for `seconds`; the last line
/// is the result object.
fn timed_run(
    harness: &Harness,
    contract: &Contract,
    def: &'static Def,
    seconds: f64,
    trace: bool,
) -> bool {
    let prepared = harness.prepare(def);
    let mut outcome = Outcome::default();
    let t0 = Instant::now();
    // A traced run spends half its time on untraced repetitions: the traced
    // one is read against them (`rep.*`, `trace.overhead_ratio`).
    let budget = if trace { seconds / 2.0 } else { seconds };
    let mut started = 0;
    loop {
        let done = outcome.reps.len();
        // Give up on a workload whose repetitions keep dying.
        if started - done >= MIN_TIMED_REPS {
            break;
        }
        let elapsed = t0.elapsed().as_secs_f64();
        if done >= MIN_TIMED_REPS && elapsed + elapsed / done as f64 / 2.0 >= budget {
            break;
        }
        outcome.absorb(&prepared, harness.repetition(&prepared, started, false), false);
        started += 1;
    }
    if trace && !outcome.reps.is_empty() {
        outcome.absorb(&prepared, harness.repetition(&prepared, usize::MAX, true), true);
    }
    outcome.close(&prepared, harness.seed);
    let Some(measured) = report(contract, &prepared, &outcome) else { return false };
    println!(
        "provenance: {}",
        provenance(
            harness,
            std::slice::from_ref(&prepared),
            outcome.reps.len(),
            measured.speed_factor
        )
    );
    let correct = outcome.failed == 0;
    let metrics = if trace {
        metrics_json(&contract.per_layer, &measured.per_layer)
    } else {
        metrics_json(&contract.end_to_end, &measured.end_to_end)
    };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    correct
}

/// Repetition `r` of every workload before repetition `r + 1` of any, so
/// each workload's samples span the whole run.
fn run_set(harness: &Harness, prepared: &[Prepared], reps: usize, trace: bool) -> Vec<Outcome> {
    let mut outcomes: Vec<Outcome> = prepared.iter().map(|_| Outcome::default()).collect();
    for r in 0..reps {
        for (p, o) in prepared.iter().zip(&mut outcomes) {
            o.absorb(p, harness.repetition(p, r, false), false);
        }
    }
    for (p, o) in prepared.iter().zip(&mut outcomes) {
        if trace && !o.reps.is_empty() {
            o.absorb(p, harness.repetition(p, usize::MAX, true), true);
        }
        o.close(p, harness.seed);
    }
    outcomes
}

fn full_set(
    harness: &Harness,
    contract: &Contract,
    defs: &[&'static Def],
    reps: usize,
    trace: bool,
) -> bool {
    let prepared: Vec<Prepared> = defs.iter().map(|d| harness.prepare(d)).collect();
    let outcomes = run_set(harness, &prepared, reps, trace);
    let mut blocks = Vec::new();
    let mut factors = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for (p, o) in prepared.iter().zip(&outcomes) {
        attempted += o.attempted;
        failed += o.failed;
        let Some(m) = report(contract, p, o) else { continue };
        factors.push(m.speed_factor);
        blocks.push(format!(
            "\"{}\":{{\"end_to_end\":{},\"per_layer\":{}}}",
            p.def.name,
            metrics_json(&contract.end_to_end, &m.end_to_end),
            metrics_json(&contract.per_layer, &m.per_layer)
        ));
    }
    let correct = failed == 0;
    let speed = if factors.is_empty() { 1.0 } else { median(&factors) };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"provenance\":{},\"workloads\":{{{}}}}}",
        attempted.max(1),
        provenance(harness, &prepared, reps, speed),
        blocks.join(",")
    );
    correct
}

/// Two sets of identical code, back to back: every end-to-end median must
/// agree with itself within the committed bound.
fn noise_check(harness: &Harness, contract: &Contract, defs: &[&'static Def], reps: usize) -> bool {
    let prepared: Vec<Prepared> = defs.iter().map(|d| harness.prepare(d)).collect();
    let sets: Vec<Vec<Outcome>> =
        (0..2).map(|_| run_set(harness, &prepared, reps, false)).collect();
    let mut ok = true;
    println!("| workload | metric | set 1 | set 2 | difference | bound | |");
    println!("|---|---|---|---|---|---|---|");
    for (i, p) in prepared.iter().enumerate() {
        let (a, b) = (&sets[0][i], &sets[1][i]);
        for o in [a, b] {
            for problem in &o.problems {
                println!("  FAILED {}: {problem}", p.def.name);
            }
            ok &= o.failed == 0 && !o.reps.is_empty();
        }
        if a.reps.is_empty() || b.reps.is_empty() {
            continue;
        }
        if a.reps[0].sim != b.reps[0].sim {
            println!("  FAILED {}: simulated counts differ between the sets", p.def.name);
            ok = false;
        }
        let (ma, mb) = (measure(p, a), measure(p, b));
        for m in &contract.end_to_end {
            let (va, vb) = (ma.end_to_end[&m.name], mb.end_to_end[&m.name]);
            let diff = (vb - va).abs() / va;
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let verdict = if diff <= bound { "ok" } else { "EXCEEDED" };
            ok &= diff <= bound;
            println!(
                "| {} | {} | {va:.4} | {vb:.4} | {:.1} % | {:.0} % | {verdict} |",
                p.def.name,
                m.name,
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    ok
}

fn list(contract: &Contract) {
    println!("workloads:");
    for (name, why) in &contract.workloads {
        println!("  {name}: {why}");
    }
    for (title, metrics) in
        [("end to end", &contract.end_to_end), ("per layer", &contract.per_layer)]
    {
        println!("{title}:");
        for m in metrics {
            let bound =
                m.bound.map_or(String::new(), |b| format!(", may worsen by {:.0} %", b * 100.0));
            println!("  {:<28} {:<6} {} is better{bound}", m.name, m.unit, m.better);
        }
    }
}
