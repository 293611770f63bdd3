//! End-to-end smoke: the server accepts, runs, parks, and answers over
//! real sockets. The heavyweight churn lives in the root-package suites
//! (`tests/service_*.rs`); this pins the basic request/response loop
//! close to the crate.

use std::time::{Duration, Instant};

use uts_serve::json::Json;
use uts_serve::{client, outcome_digest, JobServer, JobSpec, ServeConfig};

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("uts-serve-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wait_done(addr: std::net::SocketAddr, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = client::get(addr, &format!("/result/{id}"));
        match status {
            200 => return body,
            409 => {
                assert!(Instant::now() < deadline, "job {id} never finished");
                std::thread::sleep(Duration::from_millis(5));
            }
            other => panic!("job {id}: unexpected status {other}: {body}"),
        }
    }
}

#[test]
fn submit_run_fetch_round_trip() {
    let dir = scratch_dir("roundtrip");
    let server = JobServer::start(ServeConfig::new(&dir)).unwrap();
    let addr = server.addr();

    let spec =
        r#"{"workload":{"kind":"synth","seed":5,"b_max":8,"depth_limit":6},"p":64,"ledger":true}"#;
    let (status, body) = client::post(addr, "/submit", spec);
    assert_eq!(status, 200, "{body}");
    assert_eq!(Json::parse(&body).ok().and_then(|d| d.get("job")?.as_u64()), Some(1), "{body}");

    let doc = wait_done(addr, 1);
    let spec = JobSpec::parse(spec).unwrap();
    let oracle = spec.oracle();
    let want = format!("\"outcome_fnv\": \"{:#018x}\"", outcome_digest(&oracle));
    assert!(doc.contains(&want), "served result differs from the oracle:\n{doc}");
    // After its header the result is the run report, ledger included.
    let report = uts_core::run_report_json(&spec.config, &oracle);
    assert!(report.contains("\"phases\""), "{report}");
    assert!(doc.ends_with(&report["{\n".len()..]), "{doc}");

    let (status, body) = client::get(addr, "/status/1");
    assert_eq!(status, 200);
    assert!(body.contains("\"state\": \"done\""), "{body}");

    let (status, _) = client::get(addr, "/status/99");
    assert_eq!(status, 404);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slot_starvation_forces_preemption_and_results_stay_oracle_identical() {
    let dir = scratch_dir("preempt");
    let mut cfg = ServeConfig::new(&dir);
    cfg.slots = 1;
    cfg.quantum_ms = 0; // preempt at the very next boundary when anyone waits
    cfg.poll_ms = 1;
    let server = JobServer::start(cfg).unwrap();
    let addr = server.addr();

    // Each job is thousands of macro-step boundaries and a quarter of a
    // second unoptimised, so the next submit always lands while the one
    // before it still runs and the governor has someone to park.
    let specs: Vec<String> = (0..3)
        .map(|i| {
            format!(
                r#"{{"workload":{{"kind":"synth","seed":{},"b_max":8,"depth_limit":9}},"p":64}}"#,
                20 + i
            )
        })
        .collect();
    for (i, spec) in specs.iter().enumerate() {
        let (status, body) = client::post(addr, "/submit", spec);
        assert_eq!(status, 200);
        let id = Json::parse(&body).ok().and_then(|d| d.get("job")?.as_u64());
        assert_eq!(id, Some(i as u64 + 1), "{body}");
    }

    let mut total_preemptions = 0u64;
    for (i, spec) in specs.iter().enumerate() {
        let id = (i + 1) as u64;
        let doc = wait_done(addr, id);
        let oracle = JobSpec::parse(spec).unwrap().oracle();
        let want = format!("\"outcome_fnv\": \"{:#018x}\"", outcome_digest(&oracle));
        assert!(doc.contains(&want), "job {id} diverged from its oracle:\n{doc}");
        let preemptions: u64 = doc
            .lines()
            .find_map(|l| l.trim().strip_prefix("\"preemptions\": "))
            .and_then(|v| v.trim_end_matches(',').parse().ok())
            .expect("result docs carry a preemption count");
        total_preemptions += preemptions;
    }
    assert!(
        total_preemptions > 0,
        "a slot-starved zero-quantum server must have parked at least one job"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
