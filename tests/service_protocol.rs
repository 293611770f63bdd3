//! Protocol rejection suite, the `/result` wait contract, and the golden
//! `status` fixture (quick tier).
//!
//! Each way a request can be refused maps to a *distinct* typed error —
//! a distinct `kind` tag, and a distinct HTTP status except for the two
//! `/result` refusals that share 409 — and this suite pins each one
//! independently:
//!
//! | rejection | kind | status |
//! |---|---|---|
//! | malformed JSON / bad spec / bad route / silent client | `proto` | 400 |
//! | unknown job id | `unknown_job` | 404 |
//! | result of a job still unfinished after the wait | `not_ready` | 409 |
//! | result of a cancelled job | `cancelled` | 409 |
//! | oversized request body | `body_too_large` | 413 |
//! | fingerprint-mismatched / unreadable spill state | `spill` | 500 |
//!
//! `GET /result/{id}` waits up to [`RESULT_WAIT`] for its job; the wait
//! tests pin when it answers at once, when it answers after the bound,
//! and that `/status`, `/jobs`, `/cancel`, `shutdown` and `kill` are
//! never held up by it and end it promptly.
//!
//! The golden half freezes the `status` response schema in
//! `tests/fixtures/service_status.json`; regenerate intentional changes
//! with `UPDATE_GOLDEN=1 cargo test --test service_protocol`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use simd_tree_search::ckpt::spill;
use simd_tree_search::prelude::PreemptSignal;
use simd_tree_search::serve::http::IO_TIMEOUT;
use simd_tree_search::serve::{
    client, outcome_digest, JobServer, JobSpec, ServeConfig, RESULT_WAIT,
};

/// A job no build finishes inside one [`RESULT_WAIT`]: tens of seconds
/// unoptimised, seconds optimised. Every test that submits it ends it
/// with a cancel, `shutdown` or `kill`.
const LONG: &str = r#"{"workload":{"kind":"synth","seed":4242,"b_max":8,"depth_limit":13},"p":16}"#;
/// A job of a few milliseconds in any build.
const TINY: &str = r#"{"workload":{"kind":"synth","seed":32,"b_max":6,"depth_limit":4},"p":16}"#;

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

/// One runner slot and no preemption: the first job keeps the slot until
/// it ends, and every later job stays queued behind it.
fn start_one_slot(tag: &str) -> (JobServer, std::path::PathBuf) {
    let dir = scratch_dir(tag);
    let mut cfg = ServeConfig::new(&dir);
    cfg.slots = 1;
    cfg.quantum_ms = 60_000;
    (JobServer::start(cfg).unwrap(), dir)
}

fn state_of(addr: SocketAddr, id: u64) -> String {
    let (status, body) = client::get(addr, &format!("/status/{id}"));
    assert_eq!(status, 200, "{body}");
    body.lines()
        .find_map(|l| l.trim().strip_prefix("\"state\": \""))
        .unwrap_or_else(|| panic!("no state in:\n{body}"))
        .trim_end_matches(['"', ','])
        .to_string()
}

fn wait_for_state(addr: SocketAddr, id: u64, want: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while state_of(addr, id) != want {
        assert!(Instant::now() < deadline, "job {id} never reached `{want}`");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Send `GET path` on a connection of its own and read the reply on a
/// thread, which returns it with the time it took. The `/jobs` round trip
/// afterwards proves the server has accepted the connection (its acceptor
/// takes connections in order); the pause lets the handler reach its wait.
fn pending_get(addr: SocketAddr, path: &str) -> JoinHandle<(u16, String, Duration)> {
    let sent = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect to job server");
    write!(stream, "GET {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\r\n")
        .expect("send request");
    let reader = std::thread::spawn(move || {
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let elapsed = sent.elapsed();
        let status = response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
        let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        (status, body, elapsed)
    });
    let (status, _) = client::get(addr, "/jobs");
    assert_eq!(status, 200);
    std::thread::sleep(Duration::from_millis(20));
    reader
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
        let asked = Instant::now();
        let (status, body) = client::get(addr, path);
        assert!(asked.elapsed() < RESULT_WAIT, "{path} waited for a job that does not exist");
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
    // Job 1 hogs the single slot for longer than any wait; job 2 sits
    // queued behind it. Neither can finish inside the bound, so each
    // `/result` answers `not_ready` — and no sooner than the bound.
    let (server, dir) = start_one_slot("notready");
    let addr = server.addr();
    client::post(addr, "/submit", LONG);
    client::post(addr, "/submit", TINY);
    wait_for_state(addr, 1, "running");
    assert_eq!(state_of(addr, 2), "queued");
    for id in [2, 1] {
        let asked = Instant::now();
        let (status, body) = client::get(addr, &format!("/result/{id}"));
        let waited = asked.elapsed();
        assert_rejection(status, &body, 409, "not_ready");
        assert!(waited >= RESULT_WAIT, "job {id}: 409 after {waited:?}, before the bound");
    }
    assert_eq!(state_of(addr, 2), "queued");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_result_request_waits_for_a_queued_job_to_finish() {
    // Job 2 is queued behind job 1 when its single `/result` goes out;
    // job 1 is cancelled under that request, job 2 runs, and the same
    // request answers with job 2's document — no retry.
    let (server, dir) = start_one_slot("wait-queued");
    let addr = server.addr();
    client::post(addr, "/submit", LONG);
    client::post(addr, "/submit", TINY);
    wait_for_state(addr, 1, "running");
    assert_eq!(state_of(addr, 2), "queued");
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        client::post(addr, "/cancel/1", "")
    });
    let (status, doc) = client::get(addr, "/result/2");
    assert_eq!(status, 200, "one request did not see the job through: {doc}");
    let want = outcome_digest(&JobSpec::parse(TINY).unwrap().oracle());
    assert!(doc.contains(&format!("{want:#018x}")), "oracle {want:#018x} not in: {doc}");
    assert_eq!(canceller.join().unwrap().0, 200);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn status_and_jobs_answer_while_a_result_waits() {
    let (server, dir) = start_one_slot("probe-while-waiting");
    let addr = server.addr();
    client::post(addr, "/submit", LONG);
    wait_for_state(addr, 1, "running");
    let waiter = pending_get(addr, "/result/1");
    let probing = Instant::now();
    assert_eq!(state_of(addr, 1), "running");
    let (status, body) = client::get(addr, "/jobs");
    assert_eq!(status, 200, "{body}");
    let probed = probing.elapsed();
    let (status, body, waited) = waiter.join().unwrap();
    assert_rejection(status, &body, 409, "not_ready");
    assert!(
        probed < waited,
        "the probes took {probed:?}: they queued behind a `/result` that took {waited:?}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_and_kill_answer_a_pending_result_promptly() {
    for graceful in [true, false] {
        let (server, dir) = start_one_slot(if graceful { "wait-shutdown" } else { "wait-kill" });
        let addr = server.addr();
        client::post(addr, "/submit", LONG);
        wait_for_state(addr, 1, "running");
        let waiter = pending_get(addr, "/result/1");
        let halting = Instant::now();
        if graceful {
            server.shutdown();
        } else {
            server.kill();
        }
        // A halt waits for the runner's next boundary, never for a request.
        assert!(halting.elapsed() < Duration::from_secs(5), "halt took {:?}", halting.elapsed());
        let (status, body, waited) = waiter.join().unwrap();
        assert_rejection(status, &body, 409, "not_ready");
        assert!(waited < RESULT_WAIT, "the halt did not end the wait: answered after {waited:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_result_waiting_on_a_cancelled_job_answers_cancelled_at_once() {
    // Job 1 runs and job 2 is queued; a `/result` waits on each when both
    // are cancelled. The running job ends at its next boundary, the queued
    // one at once, and both waits end with `cancelled`, well inside the
    // bound — as does every later `/result` of either.
    let (server, dir) = start_one_slot("wait-cancel");
    let addr = server.addr();
    client::post(addr, "/submit", LONG);
    client::post(addr, "/submit", LONG);
    wait_for_state(addr, 1, "running");
    let waiters = [pending_get(addr, "/result/1"), pending_get(addr, "/result/2")];
    for id in [1, 2] {
        let (status, body) = client::post(addr, &format!("/cancel/{id}"), "");
        assert_eq!(status, 200, "{body}");
    }
    for (id, waiter) in (1..).zip(waiters) {
        let (status, body, waited) = waiter.join().unwrap();
        assert_rejection(status, &body, 409, "cancelled");
        assert!(waited < RESULT_WAIT, "job {id}: the cancel did not end the wait ({waited:?})");
        let asked = Instant::now();
        let (status, body) = client::get(addr, &format!("/result/{id}"));
        assert_rejection(status, &body, 409, "cancelled");
        assert!(asked.elapsed() < RESULT_WAIT, "job {id}: a cancelled job's result waited");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_silent_connection_is_refused_after_the_io_timeout_and_holds_nothing_up() {
    // A client that connects and never sends a byte: the server keeps
    // answering others, shuts down regardless, and the silent connection
    // itself gets a `proto` refusal once its read deadline passes.
    let (server, dir) = start("silent");
    let addr = server.addr();
    let connected = Instant::now();
    let mut silent = TcpStream::connect(addr).expect("connect to job server");
    let (status, body) = client::get(addr, "/jobs");
    assert_eq!(status, 200, "{body}");
    server.shutdown();
    let mut response = String::new();
    silent.read_to_string(&mut response).expect("read response");
    let status = response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let body = response.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    assert_rejection(status, body, 400, "proto");
    assert!(connected.elapsed() >= IO_TIMEOUT, "refused before the deadline");
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
