//! Protocol rejection suite + golden `status` fixture (quick tier).
//!
//! Mirrors the five-way `CkptError` rejection discipline one layer up:
//! each way a request can be refused maps to a *distinct* typed error —
//! a distinct `kind` tag and a distinct HTTP status — and this suite
//! pins each one independently:
//!
//! | rejection | kind | status |
//! |---|---|---|
//! | malformed JSON / bad spec / bad route | `proto` | 400 |
//! | unknown job id | `unknown_job` | 404 |
//! | result of an unfinished job | `not_ready` | 409 |
//! | oversized request body | `body_too_large` | 413 |
//! | fingerprint-mismatched / unreadable spill state | `spill` | 500 |
//!
//! The golden half freezes the `status` response schema in
//! `tests/fixtures/service_status.json`; regenerate intentional changes
//! with `UPDATE_GOLDEN=1 cargo test --test service_protocol`.

use std::time::{Duration, Instant};

use simd_tree_search::ckpt::spill;
use simd_tree_search::prelude::PreemptSignal;
use simd_tree_search::serve::{client, outcome_digest, JobServer, JobSpec, ServeConfig};

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("uts-service-proto-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(tag: &str) -> (JobServer, std::path::PathBuf) {
    let dir = scratch_dir(tag);
    let server = JobServer::start(ServeConfig::new(&dir)).unwrap();
    (server, dir)
}

fn assert_rejection(status: u16, body: &str, want_status: u16, want_kind: &str) {
    assert_eq!(status, want_status, "{body}");
    assert!(
        body.contains(&format!("\"kind\":\"{want_kind}\"")),
        "expected kind `{want_kind}` in: {body}"
    );
}

#[test]
fn malformed_json_and_bad_specs_are_proto_rejections() {
    let (server, dir) = start("proto");
    let addr = server.addr();
    for bad in [
        "{not json",
        "",
        r#"{"workload":{"kind":"synth"},"unknown_knob":1}"#,
        r#"{"workload":{"kind":"antimatter"}}"#,
        r#"{"workload":{"kind":"synth"},"p":0}"#,
        r#"{"workload":{"kind":"synth"},"scheme":"gp-s:7.5"}"#,
        r#"{"workload":{"kind":"synth"},"engine":"gpu"}"#,
        r#"{"p":16}"#,
        r#"[1,2,3]"#,
    ] {
        let (status, body) = client::post(addr, "/submit", bad);
        assert_rejection(status, &body, 400, "proto");
    }
    // Unroutable paths and ids that are not numbers are protocol errors
    // too — not 404s, which are reserved for well-formed unknown ids.
    let (status, body) = client::get(addr, "/nonsense");
    assert_rejection(status, &body, 400, "proto");
    let (status, body) = client::get(addr, "/status/banana");
    assert_rejection(status, &body, 400, "proto");
    let (status, body) = client::raw(addr, "GET /jobs SPDY/9\r\n\r\n");
    assert_rejection(status, &body, 400, "proto");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_p_and_threads_are_refused_before_anything_is_durable() {
    // A spec is made durable before it runs, and the run's first act is
    // several p-sized allocations (resp. `threads` OS threads) in a runner
    // thread: an absurd size must be refused at the door, or it takes the
    // server down on this start and, via recovery, on every later one.
    let (server, dir) = start("oversized-spec");
    let addr = server.addr();
    for bad in [
        r#"{"workload":{"kind":"synth"},"p":1099511627776}"#,
        r#"{"workload":{"kind":"synth"},"engine":"par","threads":1000000}"#,
    ] {
        let (status, body) = client::post(addr, "/submit", bad);
        assert_rejection(status, &body, 400, "proto");
    }
    let spilled = std::fs::read_dir(&dir).expect("the server created its spill dir").count();
    assert_eq!(spilled, 0, "a rejected spec leaves nothing to recover");
    let (status, body) = client::get(addr, "/jobs");
    assert_eq!(status, 200, "{body}");

    // The server is unharmed: an ordinary job still runs to the oracle's result.
    let ok = r#"{"workload":{"kind":"synth","seed":5,"b_max":8,"depth_limit":5},"p":64}"#;
    let (status, body) = client::post(addr, "/submit", ok);
    assert_eq!(status, 200, "{body}");
    let deadline = Instant::now() + Duration::from_secs(60);
    let doc = loop {
        let (status, doc) = client::get(addr, "/result/1");
        if status == 200 {
            break doc;
        }
        assert_eq!(status, 409, "unexpected: {doc}");
        assert!(Instant::now() < deadline, "ordinary job never finished");
        std::thread::sleep(Duration::from_millis(2));
    };
    let want = outcome_digest(&JobSpec::parse(ok).unwrap().oracle());
    assert!(doc.contains(&format!("{want:#018x}")), "oracle {want:#018x} not in: {doc}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_job_ids_are_404_on_every_endpoint() {
    let (server, dir) = start("unknown");
    let addr = server.addr();
    for path in ["/status/42", "/result/42"] {
        let (status, body) = client::get(addr, path);
        assert_rejection(status, &body, 404, "unknown_job");
        assert!(body.contains("42"), "the offending id is named: {body}");
    }
    let (status, body) = client::post(addr, "/cancel/42", "");
    assert_rejection(status, &body, 404, "unknown_job");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn results_of_unfinished_jobs_are_not_ready() {
    let dir = scratch_dir("notready");
    let mut cfg = ServeConfig::new(&dir);
    cfg.slots = 1;
    cfg.quantum_ms = 60_000;
    let server = JobServer::start(cfg).unwrap();
    let addr = server.addr();
    // Job 1 hogs the single slot; job 2 sits queued behind it.
    let long = r#"{"workload":{"kind":"synth","seed":31,"b_max":8,"depth_limit":9},"p":16}"#;
    let short = r#"{"workload":{"kind":"synth","seed":32,"b_max":6,"depth_limit":4},"p":16}"#;
    client::post(addr, "/submit", long);
    client::post(addr, "/submit", short);
    let (status, body) = client::get(addr, "/result/2");
    assert_rejection(status, &body, 409, "not_ready");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_post_without_content_length_is_rejected_up_front() {
    // A POST body without a `Content-Length` header is unreadable framing:
    // the server used to default the length to 0, silently read an empty
    // body, and fail later with a confusing "empty spec" parse error. It
    // must instead reject the frame itself, naming the missing header.
    let (server, dir) = start("no-length");
    let addr = server.addr();
    let frame = "POST /submit HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n\
                 {\"workload\":{\"kind\":\"synth\",\"seed\":3}}";
    let (status, body) = client::raw(addr, frame);
    assert_rejection(status, &body, 400, "proto");
    assert!(body.contains("content-length"), "the missing header is named: {body}");
    // A GET without the header stays fine — there is no body to frame.
    let (status, _) = client::get(addr, "/jobs");
    assert_eq!(status, 200);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_bodies_are_refused_from_the_header_alone() {
    let (server, dir) = start("oversize");
    let addr = server.addr();
    // Declare far more than the cap without sending it: the server must
    // reject from `Content-Length`, not buffer and see.
    let frame =
        format!("POST /submit HTTP/1.1\r\nhost: x\r\ncontent-length: {}\r\n\r\n", 10 * 1024 * 1024);
    let (status, body) = client::raw(addr, &frame);
    assert_rejection(status, &body, 413, "body_too_large");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_fingerprint_mismatched_spill_file_fails_the_job_as_spill() {
    // Craft a spill directory by hand: job 1's spec says p = 32, but its
    // parked snapshot was taken under p = 16 — the container decodes
    // fine, the config fingerprint does not match, and the job must
    // surface as failed with a `spill` error, not crash the server or
    // silently restart.
    let dir = scratch_dir("mismatch");
    std::fs::create_dir_all(&dir).unwrap();
    let spec_16 = JobSpec::parse(
        r#"{"workload":{"kind":"synth","seed":8,"b_max":8,"depth_limit":6},"p":16}"#,
    )
    .unwrap();
    let signal = PreemptSignal::new();
    signal.raise();
    let (_, bytes) = spec_16.run_slice(None, &signal).unwrap();
    spill::park(&dir, 1, &bytes.expect("preempted slice parks")).unwrap();
    std::fs::write(
        dir.join("job-00000001.spec"),
        r#"{"workload":{"kind":"synth","seed":8,"b_max":8,"depth_limit":6},"p":32}"#,
    )
    .unwrap();

    let server = JobServer::start(ServeConfig::new(&dir)).unwrap();
    let addr = server.addr();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = client::get(addr, "/result/1");
        if status == 500 {
            assert_rejection(status, &body, 500, "spill");
            break;
        }
        assert_eq!(status, 409, "unexpected: {body}");
        assert!(Instant::now() < deadline, "mismatched job never failed");
        std::thread::sleep(Duration::from_millis(2));
    }
    let (_, body) = client::get(addr, "/status/1");
    assert!(body.contains("\"failed\""), "{body}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn status_response_matches_the_golden_fixture() {
    // A deterministic scenario: fresh server, one small job, run to
    // completion with no preemption pressure (2 slots, 1 job), then ask
    // for its status. Everything in the response — schema, state name,
    // preemption count, config fingerprint — must be byte-stable.
    let dir = scratch_dir("golden");
    let mut cfg = ServeConfig::new(&dir);
    cfg.slots = 2;
    cfg.quantum_ms = 60_000;
    let server = JobServer::start(cfg).unwrap();
    let addr = server.addr();
    let (status, body) = client::post(
        addr,
        "/submit",
        r#"{"workload":{"kind":"synth","seed":11,"b_max":8,"depth_limit":6},"p":64,"scheme":"gp-dk"}"#,
    );
    assert_eq!(status, 200, "{body}");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, _) = client::get(addr, "/result/1");
        if status == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "golden job never finished");
        std::thread::sleep(Duration::from_millis(2));
    }
    let (status, got) = client::get(addr, "/status/1");
    assert_eq!(status, 200);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/service_status.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("write golden fixture");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden fixture exists");
    assert_eq!(
        got, golden,
        "status response drifted from tests/fixtures/service_status.json; if \
         the change is intentional, regenerate with UPDATE_GOLDEN=1 and review"
    );
}
