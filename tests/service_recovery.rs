//! Kill-and-resume-under-load: the service-layer extension of the
//! `checkpoint_resume` fault-injection suite.
//!
//! A slot-starved server churns through a batch of jobs; mid-churn the
//! process "dies" ([`JobServer::kill`] — threads abandon instantly and
//! write nothing more, the in-process equivalent of SIGKILL). A new
//! server starts over the same spill directory and must recover every
//! job from its durable trail — finished jobs serve their stored
//! results, parked jobs resume from their snapshot, queued and
//! interrupted jobs restart from scratch — and every final result must
//! be bit-identical to an uninterrupted `run_with` oracle. A stored
//! result the new server cannot vouch for — garbage, another job's, or
//! written under an older digest version — fails its job instead.

use std::time::{Duration, Instant};

use simd_tree_search::prelude::*;
use simd_tree_search::serve::json::Json;
use simd_tree_search::serve::{client, JobSpec, ServeConfig};

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("uts-service-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec_text(i: usize) -> String {
    let engine = ["macro", "par", "fused"][i % 3];
    let depth = if i.is_multiple_of(2) { 7 } else { 5 };
    format!(
        r#"{{"workload":{{"kind":"synth","seed":{},"b_max":8,"depth_limit":{depth}}},"p":32,"engine":"{engine}","threads":2}}"#,
        500 + i
    )
}

fn wait_result(addr: std::net::SocketAddr, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let (status, body) = client::get(addr, &format!("/result/{id}"));
        match status {
            200 => return body,
            409 => {
                assert!(Instant::now() < deadline, "job {id} never recovered");
                std::thread::sleep(Duration::from_millis(5));
            }
            other => panic!("job {id}: status {other}: {body}"),
        }
    }
}

fn digest_of(doc: &str) -> String {
    doc.lines()
        .find_map(|l| l.trim().strip_prefix("\"outcome_fnv\": \""))
        .unwrap_or_else(|| panic!("no outcome_fnv in:\n{doc}"))
        .trim_end_matches(['"', ','])
        .to_string()
}

#[test]
fn kill_mid_churn_then_restart_recovers_every_job_oracle_identical() {
    const JOBS: usize = 8;
    let dir = scratch_dir("kill");

    // First life: 1 slot, zero quantum — constant parking. Kill once the
    // churn is demonstrably mid-flight (some, but not all, jobs done).
    let mut cfg = ServeConfig::new(&dir);
    cfg.slots = 1;
    cfg.quantum_ms = 0;
    cfg.poll_ms = 1;
    let server = simd_tree_search::serve::JobServer::start(cfg.clone()).unwrap();
    let addr = server.addr();
    for i in 0..JOBS {
        let (status, body) = client::post(addr, "/submit", &spec_text(i));
        assert_eq!(status, 200, "{body}");
    }
    let deadline = Instant::now() + Duration::from_secs(300);
    let mut first_life_docs: Vec<(u64, String)> = Vec::new();
    loop {
        let (_, body) = client::get(addr, "/jobs");
        // The ids of the done jobs among `/jobs`' `{"job": id, "state": …}` items.
        let Some(Json::Arr(jobs)) = Json::parse(&body).ok().and_then(|d| d.get("jobs").cloned())
        else {
            panic!("/jobs lacks its `jobs` array: {body}");
        };
        let done: Vec<u64> = jobs
            .iter()
            .filter(|job| job.get("state").and_then(Json::as_str) == Some("done"))
            .map(|job| job.get("job").and_then(Json::as_u64).expect("every item names its job"))
            .collect();
        if done.len() >= 2 {
            // Capture what the first life already answered, then die. Only
            // done jobs are asked: `/result` of an unfinished one would
            // wait for it, and let the churn drain before the kill.
            for id in done {
                let (status, doc) = client::get(addr, &format!("/result/{id}"));
                assert_eq!(status, 200, "done job {id} has no result: {doc}");
                first_life_docs.push((id, doc));
            }
            break;
        }
        assert!(Instant::now() < deadline, "first life never made progress");
        std::thread::sleep(Duration::from_millis(2));
    }
    server.kill();

    // The crash must have left work behind — otherwise this test proves
    // nothing about recovery under load.
    let leftover = (1..=JOBS as u64)
        .filter(|&id| !std::path::Path::new(&dir).join(format!("job-{id:08}.done")).exists())
        .count();
    assert!(leftover > 0, "every job finished before the kill; enlarge the job mix");

    // Second life, same spill directory: everything must drain.
    let server = simd_tree_search::serve::JobServer::start(cfg).unwrap();
    let addr = server.addr();
    for i in 0..JOBS {
        let id = (i + 1) as u64;
        let doc = wait_result(addr, id);
        let oracle = JobSpec::parse(&spec_text(i)).unwrap().oracle();
        assert_eq!(
            digest_of(&doc),
            format!("{:#018x}", outcome_digest(&oracle)),
            "job {id} lost bit-identity across the kill→restart cycle:\n{doc}"
        );
    }

    // Results that existed before the kill are preserved verbatim.
    for (id, old_doc) in first_life_docs {
        let (status, new_doc) = client::get(addr, &format!("/result/{id}"));
        assert_eq!(status, 200);
        assert_eq!(new_doc, old_doc, "job {id}'s stored result changed across restart");
    }

    // New submissions keep working after recovery, with fresh ids.
    let (status, body) = client::post(addr, "/submit", &spec_text(0));
    assert_eq!(status, 200);
    let id = Json::parse(&body).ok().and_then(|d| d.get("job")?.as_u64());
    assert_eq!(id, Some(JOBS as u64 + 1), "ids continue past recovered jobs: {body}");
    wait_result(addr, (JOBS + 1) as u64);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spill directory written by an older server can hold a queued job
/// whose spec names the retired cycle-major engine, `"engine":"fused"`.
/// A server started over it must run that job (as macro, which has the
/// same schedule) to the oracle's result, not fail it as unreadable.
#[test]
fn a_spilled_spec_naming_the_retired_fused_engine_recovers_oracle_identical() {
    let dir = scratch_dir("fused");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = r#"{"workload":{"kind":"synth","seed":77,"b_max":8,"depth_limit":6},"p":32,"engine":"fused"}"#;
    std::fs::write(dir.join("job-00000001.spec"), spec).unwrap();

    let server = simd_tree_search::serve::JobServer::start(ServeConfig::new(&dir)).unwrap();
    let doc = wait_result(server.addr(), 1);
    // The per-cycle reference oracle of the same job.
    let oracle = JobSpec::parse(&spec.replace("fused", "reference")).unwrap().oracle();
    assert_eq!(
        digest_of(&doc),
        format!("{:#018x}", outcome_digest(&oracle)),
        "a recovered `fused` spec lost bit-identity:\n{doc}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_parks_in_flight_work_for_the_next_life() {
    let dir = scratch_dir("graceful");
    let mut cfg = ServeConfig::new(&dir);
    cfg.slots = 1;
    cfg.quantum_ms = 10_000; // no preemption pressure: the shutdown itself must park
    let server = simd_tree_search::serve::JobServer::start(cfg.clone()).unwrap();
    let addr = server.addr();

    let spec = r#"{"workload":{"kind":"synth","seed":900,"b_max":8,"depth_limit":8},"p":32}"#;
    let (status, _) = client::post(addr, "/submit", spec);
    assert_eq!(status, 200);
    // Let the runner pick it up, then shut down mid-run.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, body) = client::get(addr, "/status/1");
        if body.contains("\"running\"") || body.contains("\"done\"") {
            break;
        }
        assert!(Instant::now() < deadline, "job never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    server.shutdown();

    let server = simd_tree_search::serve::JobServer::start(cfg).unwrap();
    let doc = wait_result(server.addr(), 1);
    let oracle = JobSpec::parse(spec).unwrap().oracle();
    assert_eq!(
        digest_of(&doc),
        format!("{:#018x}", outcome_digest(&oracle)),
        "graceful park → restart lost bit-identity:\n{doc}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `.done` file a server wrote before the digest moved off `Debug`
/// text: no `digest_version`, and an `outcome_fnv` no client can
/// reproduce any more.
const PRE_VERSION_DONE: &str = r#"{
  "job": 1,
  "state": "done",
  "preemptions": 0,
  "outcome_fnv": "0x7b7154057f0904f7",
  "goals": 3,
  "nodes_expanded": 157,
  "n_expand": 20,
  "n_lb": 14,
  "n_transfers": 48,
  "t_par_us": 782000,
  "efficiency": 0.376439,
  "peak_stack_nodes": 11,
  "truncated": false
}
"#;

/// A `.done` file recovery cannot vouch for fails its job with a typed
/// `spill` error naming the reason, and the job is not run again.
#[test]
fn an_unverifiable_stored_result_recovers_as_a_spill_failure() {
    let spec = r#"{"workload":{"kind":"synth","seed":32,"b_max":6,"depth_limit":4},"p":16}"#;
    let cases = [
        ("garbage", "garbage\n".to_string(), "not JSON"),
        ("pre-version", PRE_VERSION_DONE.to_string(), "digest version None"),
        (
            // Version 2 also digested the phase and horizon logs.
            "version-2",
            PRE_VERSION_DONE.replace("\"goals\"", "\"digest_version\": 2,\n  \"goals\""),
            "digest version Some(2)",
        ),
        (
            // Version 3 also digested the report's `W` and the cycle-budget
            // `truncated` bit.
            "version-3",
            PRE_VERSION_DONE.replace("\"goals\"", "\"digest_version\": 3,\n  \"goals\""),
            "digest version Some(3)",
        ),
        ("other-job", PRE_VERSION_DONE.replace("\"job\": 1", "\"job\": 2"), "job Some(2)"),
    ];
    for (tag, done, reason) in cases {
        let dir = scratch_dir(tag);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("job-00000001.spec"), spec).unwrap();
        std::fs::write(dir.join("job-00000001.done"), &done).unwrap();

        let server = simd_tree_search::serve::JobServer::start(ServeConfig::new(&dir)).unwrap();
        let (status, body) = client::get(server.addr(), "/result/1");
        assert_eq!(status, 500, "{tag}: {body}");
        let doc = Json::parse(&body).unwrap_or_else(|e| panic!("{tag}: {e}: {body}"));
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("spill"), "{tag}: {body}");
        let error = doc.get("error").and_then(Json::as_str).unwrap_or_default();
        assert!(error.contains(reason), "{tag}: {body}");
        let (_, state) = client::get(server.addr(), "/status/1");
        assert!(state.contains(r#""state": "failed""#), "{tag}: {state}");
        server.shutdown();
        let left = std::fs::read_to_string(dir.join("job-00000001.done")).unwrap();
        assert_eq!(left, done, "{tag}: the job ran again and replaced its result");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
