//! Service-layer overhead harness: what does running a search job through
//! the `uts-serve` scheduler cost over calling the engine directly, and
//! what does preemptive slot-sharing add on top? Results go to
//! `BENCH_service.json` (current directory).
//!
//! ```text
//! cargo run --release -p uts-bench --bin bench_service -- [--quick] [--check] [--out PATH]
//! ```
//!
//! Three legs drain the same seeded batch of geometric-tree jobs:
//!
//! - `direct`  — each job's engine run called in-process, sequentially.
//!   The baseline: zero scheduling, zero HTTP, zero spill I/O.
//! - `serve`   — a [`JobServer`] with 2 slots and an effectively infinite
//!   quantum; jobs are submitted and drained over the loopback HTTP API.
//!   Measures admission + scheduling + transport overhead with no
//!   preemption in play.
//! - `churn`   — 1 slot, zero quantum: the governor parks the running job
//!   whenever anyone waits, so every job is snapshotted, spilled, and
//!   resumed over and over. Measures the full park/resume machinery under
//!   the worst slot pressure the scheduler can generate.
//!
//! Every leg digests every outcome ([`outcome_digest`]) and the harness
//! asserts all three legs agree job-for-job before a single number is
//! written — a bench run that loses bit-identity is a failed run, not a
//! slow one.
//!
//! `--quick` shrinks the batch for CI smoke runs. `--check` exits
//! non-zero when the overhead regresses past its floors: `serve` must
//! keep >= 0.40x of direct throughput (the jobs are deliberately small,
//! so this bounds fixed per-job cost, not engine speed) and `churn` must
//! keep >= 0.15x of direct while actually preempting (its preemption
//! count must be positive, else the leg proved nothing).
//!
//! ```json
//! {
//!   "bench": "service",
//!   "jobs": 24,
//!   "results": [
//!     {"leg": "direct", "seconds": 1.2, "jobs_per_sec": 20.0,
//!      "nodes_per_sec": 1.0e6, "preemptions": 0},
//!     ...
//!   ],
//!   "ratios": {"serve_vs_direct": 0.8, "churn_vs_direct": 0.4}
//! }
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use uts_serve::{client, outcome_digest, JobServer, JobSpec, ServeConfig};

/// The seeded job mix: engines and machine sizes rotate; every third job
/// is deeper so the churn leg has boundaries worth parking at. The seeds
/// all come from the band whose depth-7 trees are non-degenerate (see the
/// service stress suite: a geometric tree can die out before its first
/// macro-step boundary, which would make the churn leg vacuous).
fn spec_text(i: usize, quick: bool) -> String {
    let engine = ["macro", "fused", "par"][i % 3];
    let p = [32, 64][i % 2];
    // Deep enough that a job costs milliseconds, not microseconds: the
    // serve/direct ratio bounds fixed per-job overhead only if the jobs
    // are not themselves overhead-sized, and the churn leg needs running
    // jobs the governor can actually catch mid-flight.
    let depth = match (quick, i % 3) {
        (true, 2) => 9,
        (true, _) => 8,
        (false, 2) => 10,
        (false, _) => 9,
    };
    format!(
        r#"{{"workload":{{"kind":"synth","seed":{},"b_max":8,"depth_limit":{depth}}},"p":{p},"engine":"{engine}","threads":1}}"#,
        [1, 2, 3, 5, 11, 42][i % 6]
    )
}

struct LegResult {
    leg: &'static str,
    seconds: f64,
    jobs_per_sec: f64,
    nodes_per_sec: f64,
    preemptions: u64,
}

fn field<'a>(doc: &'a str, key: &str) -> &'a str {
    doc.lines()
        .find_map(|l| l.trim().strip_prefix(&format!("\"{key}\": ")))
        .unwrap_or_else(|| panic!("result lacks `{key}`:\n{doc}"))
        .trim_end_matches(',')
}

/// Drain `jobs` through a server under `cfg`, returning (wall seconds,
/// per-job outcome digests, total preemptions, total nodes expanded).
fn serve_leg(cfg: ServeConfig, jobs: usize, quick: bool) -> (f64, Vec<String>, u64, u64) {
    let _ = std::fs::remove_dir_all(&cfg.spill_dir);
    let dir = cfg.spill_dir.clone();
    let server = JobServer::start(cfg).expect("bench server starts");
    let addr = server.addr();
    let t0 = Instant::now();
    for i in 0..jobs {
        let (status, body) = client::post(addr, "/submit", &spec_text(i, quick));
        assert_eq!(status, 200, "{body}");
    }
    let mut digests = Vec::with_capacity(jobs);
    let mut preemptions = 0u64;
    let mut nodes = 0u64;
    for id in 1..=jobs as u64 {
        let doc = loop {
            let (status, body) = client::get(addr, &format!("/result/{id}"));
            match status {
                200 => break body,
                // The server has already waited for the job; ask again.
                409 => {}
                other => panic!("job {id}: status {other}: {body}"),
            }
        };
        digests.push(field(&doc, "outcome_fnv").trim_matches('"').to_string());
        preemptions += field(&doc, "preemptions").parse::<u64>().unwrap();
        nodes += field(&doc, "nodes_expanded").parse::<u64>().unwrap();
    }
    let seconds = t0.elapsed().as_secs_f64();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    (seconds, digests, preemptions, nodes)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let out_idx = args.iter().position(|a| a == "--out");
    let out_path = out_idx
        .map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("error: --out requires a path");
                std::process::exit(2);
            })
        })
        .unwrap_or_else(|| "BENCH_service.json".to_string());
    for (i, a) in args.iter().enumerate() {
        if a != "--quick" && a != "--check" && a != "--out" && out_idx != Some(i.wrapping_sub(1)) {
            eprintln!(
                "error: unknown argument `{a}` (usage: bench_service [--quick] [--check] [--out PATH])"
            );
            std::process::exit(2);
        }
    }

    let jobs = if quick { 8 } else { 24 };
    let scratch = std::env::temp_dir().join(format!("uts-bench-service-{}", std::process::id()));

    // Leg 1: direct — the engines called in-process, no service anywhere.
    let specs: Vec<JobSpec> = (0..jobs)
        .map(|i| JobSpec::parse(&spec_text(i, quick)).expect("bench specs parse"))
        .collect();
    let t0 = Instant::now();
    let direct: Vec<(String, u64)> = specs
        .iter()
        .map(|s| {
            let out = s.oracle();
            (format!("{:#018x}", outcome_digest(&out)), out.report.nodes_expanded)
        })
        .collect();
    let direct_seconds = t0.elapsed().as_secs_f64();
    let direct_nodes: u64 = direct.iter().map(|&(_, n)| n).sum();
    let mut results = vec![LegResult {
        leg: "direct",
        seconds: direct_seconds,
        jobs_per_sec: jobs as f64 / direct_seconds,
        nodes_per_sec: direct_nodes as f64 / direct_seconds,
        preemptions: 0,
    }];
    eprintln!("direct: {jobs} jobs in {direct_seconds:.4} s ({direct_nodes} nodes)");

    // Leg 2: serve — 2 slots, no preemption pressure.
    let mut cfg = ServeConfig::new(scratch.join("serve"));
    cfg.slots = 2;
    cfg.quantum_ms = 3_600_000;
    let (serve_seconds, serve_digests, serve_preempts, serve_nodes) = serve_leg(cfg, jobs, quick);
    eprintln!("serve:  {jobs} jobs in {serve_seconds:.4} s ({serve_preempts} preemptions)");
    results.push(LegResult {
        leg: "serve",
        seconds: serve_seconds,
        jobs_per_sec: jobs as f64 / serve_seconds,
        nodes_per_sec: serve_nodes as f64 / serve_seconds,
        preemptions: serve_preempts,
    });

    // Leg 3: churn — 1 slot, zero quantum: maximal park/resume pressure.
    let mut cfg = ServeConfig::new(scratch.join("churn"));
    cfg.slots = 1;
    cfg.quantum_ms = 0;
    cfg.poll_ms = 1;
    let (churn_seconds, churn_digests, churn_preempts, churn_nodes) = serve_leg(cfg, jobs, quick);
    eprintln!("churn:  {jobs} jobs in {churn_seconds:.4} s ({churn_preempts} preemptions)");
    results.push(LegResult {
        leg: "churn",
        seconds: churn_seconds,
        jobs_per_sec: jobs as f64 / churn_seconds,
        nodes_per_sec: churn_nodes as f64 / churn_seconds,
        preemptions: churn_preempts,
    });
    let _ = std::fs::remove_dir_all(&scratch);

    // Identity gate: all three legs agree job-for-job, or the bench dies.
    for (i, (want, _)) in direct.iter().enumerate() {
        assert_eq!(&serve_digests[i], want, "serve leg lost bit-identity on job {}", i + 1);
        assert_eq!(&churn_digests[i], want, "churn leg lost bit-identity on job {}", i + 1);
    }
    eprintln!("identity: all {jobs} jobs digest-equal across direct/serve/churn");

    let serve_ratio = results[1].jobs_per_sec / results[0].jobs_per_sec;
    let churn_ratio = results[2].jobs_per_sec / results[0].jobs_per_sec;
    eprintln!("serve/direct throughput: {serve_ratio:.2}x  churn/direct: {churn_ratio:.2}x");

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"service\",\n");
    let _ = writeln!(json, "  \"jobs\": {jobs},");
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"leg\": \"{}\", \"seconds\": {:.6}, \"jobs_per_sec\": {:.2}, \"nodes_per_sec\": {:.1}, \"preemptions\": {}}}{comma}",
            r.leg, r.seconds, r.jobs_per_sec, r.nodes_per_sec, r.preemptions
        );
    }
    json.push_str("  ],\n  \"ratios\": {\n");
    let _ = writeln!(json, "    \"serve_vs_direct\": {serve_ratio:.3},");
    let _ = writeln!(json, "    \"churn_vs_direct\": {churn_ratio:.3}");
    json.push_str("  }\n}\n");
    match std::fs::write(&out_path, &json) {
        Ok(()) => eprintln!("wrote {out_path}"),
        Err(e) => {
            eprintln!("could not write {out_path}: {e}");
            std::process::exit(1);
        }
    }

    if check {
        // Floors are deliberately loose: this gate catches the service
        // layer suddenly costing multiples of the work it schedules (a
        // lock held across a slice, a busy-wait, quadratic spill scans),
        // not single-digit-percent drift on noisy CI hosts.
        let mut ok = true;
        if serve_ratio < 0.40 {
            eprintln!("CHECK FAIL: serve throughput {serve_ratio:.2}x direct < 0.40x");
            ok = false;
        }
        if churn_preempts == 0 {
            eprintln!("CHECK FAIL: churn leg never preempted — the floor proved nothing");
            ok = false;
        }
        if churn_ratio < 0.15 {
            eprintln!("CHECK FAIL: churn throughput {churn_ratio:.2}x direct < 0.15x");
            ok = false;
        }
        if !ok {
            std::process::exit(1);
        }
        eprintln!(
            "check passed: serve >= 0.40x direct, churn >= 0.15x direct with {churn_preempts} preemptions"
        );
    }
}
