//! The `serve-churn` load: a closed loop of client threads against an
//! in-process `JobServer` over loopback HTTP. Each client submits a job,
//! polls `/result` every millisecond until it is done, then takes the next
//! job; with one runner slot and a zero quantum there is always a job
//! waiting, so the running one is parked at its next boundary after every
//! governor poll — snapshot encode and decode, spill write and read, the
//! HTTP/JSON layer and the scheduler all sit on the path.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use uts_serve::client;
use uts_serve::json::Json;

use crate::rep::Sim;

/// One client-side request span.
#[derive(Debug, Clone, Copy)]
pub struct RequestSpan {
    pub job: u64,
    /// `submit`, `poll` (409) or `result` (200).
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Clone)]
pub struct JobDone {
    /// Index into the spec list.
    pub index: usize,
    pub latency_ms: f64,
    pub preemptions: u64,
    /// `None` when the server's reply was not a readable result document.
    pub sim: Option<Sim>,
}

pub struct Drained {
    pub wall_s: f64,
    pub jobs: Vec<JobDone>,
    pub spans: Vec<RequestSpan>,
}

fn parse_result(body: &str) -> Option<(Sim, u64)> {
    let doc = Json::parse(body).ok()?;
    let u = |k: &str| doc.get(k).and_then(Json::as_u64);
    let digest = doc.get("outcome_fnv")?.as_str()?.strip_prefix("0x")?;
    let sim = Sim {
        nodes: u("nodes_expanded")?,
        cycles: u("n_expand")?,
        phases: u("n_lb")?,
        transfers: u("n_transfers")?,
        efficiency: doc.get("efficiency")?.as_f64()?,
        peak_stack: u("peak_stack_nodes")?,
        digest: u64::from_str_radix(digest, 16).ok()?,
    };
    Some((sim, u("preemptions")?))
}

/// Run one job to its result. A non-2xx submit or an unexpected poll status
/// ends the job as failed (`sim: None`).
fn one_job(
    addr: SocketAddr,
    index: usize,
    spec: &str,
    origin: Instant,
    spans: &mut Vec<RequestSpan>,
) -> JobDone {
    let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    let sent = Instant::now();
    let (status, body) = client::post(addr, "/submit", spec);
    let acked = Instant::now();
    let id = Json::parse(&body).ok().and_then(|d| d.get("job").and_then(Json::as_u64));
    let (200, Some(id)) = (status, id) else {
        return JobDone { index, latency_ms: 0.0, preemptions: 0, sim: None };
    };
    spans.push(RequestSpan { job: id, name: "submit", start_ns: ns(sent), end_ns: ns(acked) });
    let path = format!("/result/{id}");
    loop {
        let asked = Instant::now();
        let (status, body) = client::get(addr, &path);
        let answered = Instant::now();
        let name = if status == 200 { "result" } else { "poll" };
        spans.push(RequestSpan { job: id, name, start_ns: ns(asked), end_ns: ns(answered) });
        match status {
            200 => {
                let latency_ms = answered.duration_since(sent).as_secs_f64() * 1e3;
                let parsed = parse_result(&body);
                return JobDone {
                    index,
                    latency_ms,
                    preemptions: parsed.map_or(0, |(_, p)| p),
                    sim: parsed.map(|(s, _)| s),
                };
            }
            409 => std::thread::sleep(Duration::from_millis(1)),
            _ => return JobDone { index, latency_ms: 0.0, preemptions: 0, sim: None },
        }
    }
}

/// Drain `specs` through the server at `addr` with `clients` closed-loop
/// client threads; returns when the last job's result is in hand.
pub fn drain(addr: SocketAddr, specs: &[String], clients: usize) -> Drained {
    let next = AtomicUsize::new(0);
    let done: Mutex<(Vec<JobDone>, Vec<RequestSpan>)> = Mutex::new((Vec::new(), Vec::new()));
    let origin = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut jobs = Vec::new();
                let mut spans = Vec::new();
                loop {
                    // Relaxed: the counter only hands out indices.
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(index) else { break };
                    jobs.push(one_job(addr, index, spec, origin, &mut spans));
                }
                let mut all = done.lock().expect("a client thread panicked");
                all.0.append(&mut jobs);
                all.1.append(&mut spans);
            });
        }
    });
    let wall_s = origin.elapsed().as_secs_f64();
    let (mut jobs, spans) = done.into_inner().expect("a client thread panicked");
    jobs.sort_by_key(|j| j.index);
    Drained { wall_s, jobs, spans }
}
