//! Concurrent-client soak test for the job server (quick tier).
//!
//! A slot-starved server (32 jobs, 2 slots, zero quantum) is hammered by
//! 4 client threads submitting a seeded mix of short and long jobs
//! across every engine name (`fused` included, the retired engine's name
//! that now reads as macro) and host-thread counts 1/2/8. The zero
//! quantum makes the governor preempt every running job whenever anyone
//! waits, so jobs are parked and resumed over and over — and every
//! completed result must still be **bit-identical** to a direct
//! `run_with` oracle of the same config, proven through the HTTP API by
//! the outcome's FNV digest. Alongside identity the suite pins the
//! bookkeeping: no job is lost, duplicated, or starved. The same batch
//! also runs with a quantum no job outlives, where identity must hold
//! with no job ever parked.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use simd_tree_search::prelude::*;
use simd_tree_search::serve::json::Json;
use simd_tree_search::serve::{client, JobSpec, ServeConfig};

const JOBS: usize = 32;
const CLIENTS: usize = 4;

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("uts-service-stress-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The seeded job mix: engines, schemes, machine sizes, and host-thread
/// counts all rotate; every fourth job is "long" (a deeper tree) so the
/// scheduler has something worth parking.
fn spec_text(i: usize) -> String {
    let engine = ["macro", "fused", "par", "reference"][i % 4];
    let scheme = ["gp-dk", "gp-s:0.5", "fess", "ngp-dp"][i % 4];
    let p = [16, 32, 64][i % 3];
    let threads = [1, 2, 8][i % 3]; // the par jobs cover threads ∈ {1, 2, 8}
    let depth = if i % 4 == 2 { 7 } else { 5 };
    format!(
        r#"{{"workload":{{"kind":"synth","seed":{},"b_max":8,"depth_limit":{depth}}},"p":{p},"scheme":"{scheme}","engine":"{engine}","threads":{threads}}}"#,
        1000 + i
    )
}

fn wait_result(addr: std::net::SocketAddr, id: u64, deadline: Instant) -> String {
    loop {
        let (status, body) = client::get(addr, &format!("/result/{id}"));
        match status {
            200 => return body,
            409 => {
                assert!(
                    Instant::now() < deadline,
                    "job {id} starved: no result before the deadline"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            other => panic!("job {id}: status {other}: {body}"),
        }
    }
}

fn field<'a>(doc: &'a str, key: &str) -> &'a str {
    doc.lines()
        .find_map(|l| l.trim().strip_prefix(&format!("\"{key}\": ")))
        .unwrap_or_else(|| panic!("result lacks `{key}`:\n{doc}"))
        .trim_end_matches(',')
}

/// Drain the batch through a 2-slot server with `quantum_ms`, checking
/// every result against its oracle; returns the total preemption count.
fn drain_batch(tag: &str, quantum_ms: u64) -> u64 {
    let dir = scratch_dir(tag);
    let mut cfg = ServeConfig::new(&dir);
    cfg.slots = 2;
    cfg.quantum_ms = quantum_ms;
    cfg.poll_ms = 1;
    let server = simd_tree_search::serve::JobServer::start(cfg).unwrap();
    let addr = server.addr();

    // Phase 1: CLIENTS threads submit concurrently; ids must come back
    // unique and form exactly 1..=JOBS (no job lost, none duplicated).
    let ids: Vec<(usize, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for i in (c..JOBS).step_by(CLIENTS) {
                        let (status, body) = client::post(addr, "/submit", &spec_text(i));
                        assert_eq!(status, 200, "submit {i}: {body}");
                        let id = Json::parse(&body)
                            .ok()
                            .and_then(|d| d.get("job")?.as_u64())
                            .expect("submit returns an id");
                        mine.push((i, id));
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let unique: BTreeSet<u64> = ids.iter().map(|&(_, id)| id).collect();
    assert_eq!(unique.len(), JOBS, "a job id was issued twice");
    assert_eq!(*unique.first().unwrap(), 1);
    assert_eq!(*unique.last().unwrap(), JOBS as u64);

    // Phase 2: CLIENTS threads drain their own jobs and compare digests
    // against locally computed oracles.
    let deadline = Instant::now() + Duration::from_secs(300);
    let preemptions: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = ids
            .chunks(JOBS / CLIENTS)
            .map(|chunk| {
                scope.spawn(move || {
                    let mut parked = 0u64;
                    for &(i, id) in chunk {
                        let doc = wait_result(addr, id, deadline);
                        let spec = spec_text(i);
                        let oracle = JobSpec::parse(&spec).unwrap().oracle();
                        assert!(!oracle.killed);
                        let want = format!("{:#018x}", outcome_digest(&oracle));
                        assert_eq!(
                            field(&doc, "outcome_fnv").trim_matches('"'),
                            want,
                            "job {id} (spec {i}) diverged from its oracle\nspec: {spec}\ndoc:\n{doc}"
                        );
                        assert_eq!(
                            field(&doc, "nodes_expanded").parse::<u64>().unwrap(),
                            oracle.report.nodes_expanded,
                            "job {id} counter drift"
                        );
                        parked += field(&doc, "preemptions").parse::<u64>().unwrap();
                    }
                    parked
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("drain thread")).sum()
    });

    // Phase 3: the table agrees — every job present, every job done.
    let (status, body) = client::get(addr, "/jobs");
    assert_eq!(status, 200);
    let Some(Json::Arr(jobs)) = Json::parse(&body).ok().and_then(|d| d.get("jobs").cloned()) else {
        panic!("/jobs lacks its `jobs` array: {body}");
    };
    let done = jobs.iter().filter(|j| j.get("state").and_then(Json::as_str) == Some("done"));
    assert_eq!(done.count(), JOBS, "{body}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    preemptions
}

#[test]
fn slot_starved_churn_keeps_every_job_oracle_identical() {
    let preemptions = drain_batch("churn", 0);
    assert!(preemptions > 0, "32 jobs on 2 zero-quantum slots must force at least one preemption");
}

/// Admission, scheduling and transport alone: with an hour-long quantum
/// the governor never parks a job.
#[test]
fn unpreempted_slots_keep_every_job_oracle_identical() {
    assert_eq!(drain_batch("calm", 3_600_000), 0, "no job outlives an hour-long quantum");
}

/// The same identity claim, driven through the library API at the three
/// acceptance thread counts explicitly: a job parked between *different*
/// host-thread counts (1 → 2 → 8) still reproduces the single-process
/// oracle, because threads are never part of the lockstep schedule.
#[test]
fn parked_slices_may_hop_thread_counts() {
    let spec = JobSpec::parse(
        r#"{"workload":{"kind":"synth","seed":11,"b_max":8,"depth_limit":7},"p":64,"engine":"par"}"#,
    )
    .unwrap();
    let oracle = spec.oracle();

    let mut parked: Option<Vec<u8>> = None;
    let mut hops = 0usize;
    for threads in [1usize, 2, 8].into_iter().cycle() {
        let mut slice_spec = spec.clone();
        slice_spec.config.threads = Some(threads);
        let signal = PreemptSignal::new();
        signal.raise(); // park at the very next boundary
        let (out, bytes) = slice_spec.run_slice(parked.as_deref(), &signal).unwrap();
        match bytes {
            Some(bytes) => {
                parked = Some(bytes);
                hops += 1;
                assert!(out.killed);
                assert!(hops < 10_000, "job never finishes");
            }
            None => {
                assert_eq!(out, oracle, "thread-hopping resume diverged");
                assert!(hops >= 2, "the tree is deep enough to park at least twice");
                return;
            }
        }
    }
}
