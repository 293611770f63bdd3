//! The job server: bounded runner slots + preemptive checkpoint
//! scheduling over a durable spill directory.
//!
//! ## Scheduling
//!
//! `slots` runner threads drain a FIFO run queue ([`crate::jobs::JobTable`]).
//! A governor thread watches the queue: whenever claimable jobs are
//! waiting and a running job has held its slot longer than
//! `quantum_ms`, the governor raises that job's [`PreemptSignal`]. The
//! engine observes the signal at its next macro-step boundary, force-
//! snapshots, and returns `killed`; the runner parks the snapshot bytes
//! to the spill directory and re-queues the job at the tail. Because a
//! slice always completes at least one macro-step before parking, every
//! job makes progress on every claim — combined with FIFO requeueing, no
//! job starves.
//!
//! ## Why results stay bit-identical
//!
//! Parking reuses the PR 5 snapshot container unchanged: the forced
//! snapshot is a complete engine state at a macro-step boundary, and
//! resuming continues the boundary numbering as if nothing happened. The
//! scheduler adds no state of its own to the run — a job parked seven
//! times produces the same [`Outcome`] bytes as one uninterrupted
//! `run_with`, which the stress suite asserts through the HTTP API via
//! [`crate::spec::outcome_digest`].
//!
//! ## Durability
//!
//! Every job leaves an atomic-write trail in the spill directory —
//! `job-{id:08}.spec` (the submitted body, written before the submit
//! response), `.park` (latest parked snapshot), `.done` (result
//! document), `.cancelled` (marker) — so [`JobServer::start`] over an
//! existing directory recovers every job: finished jobs serve their
//! stored results, parked jobs resume from their snapshots, queued jobs
//! restart from scratch. [`JobServer::kill`] simulates a crash (threads
//! abandon without writing); [`JobServer::shutdown`] parks everything
//! gracefully first.
//!
//! ## Waiting for a result
//!
//! `GET /result/{id}` waits for its job. A job that is not terminal yet
//! holds the request on the `settled` condvar, with the state lock
//! released, until the job is done, failed or cancelled, the server
//! halts, or [`RESULT_WAIT`] passes; the request then answers exactly as
//! an immediate one would — the document, the job's error, `cancelled`,
//! or 409 `not_ready` if it is still unfinished. A client therefore needs
//! about two requests per job (submit, result) instead of polling, and
//! the CPU its polls took goes to the runners. Every terminal transition
//! (a runner finishing, failing or cancelling a job at a boundary;
//! `/cancel` of a queued or parked job) and every halt notifies
//! `settled`. `/status` and `/jobs` never wait: they are the probes.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use uts_ckpt::{spill, PreemptSignal};

use crate::error::ServeError;
use crate::http::{read_request, write_response, Request, IO_TIMEOUT};
use crate::jobs::{JobState, JobTable};
use crate::spec::{outcome_digest, JobSpec};

/// How long `GET /result/{id}` waits for an unfinished job before it
/// answers 409 `not_ready`. Long enough that most jobs finish inside one
/// request, short enough that a request never outlives a client's
/// patience or holds a connection thread for long.
pub const RESULT_WAIT: Duration = Duration::from_millis(250);

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Concurrent runner slots.
    pub slots: usize,
    /// Durable spill directory (specs, parked snapshots, results).
    pub spill_dir: PathBuf,
    /// Minimum uninterrupted slice a running job gets while others wait;
    /// `0` preempts at the very next boundary whenever the queue is
    /// non-empty.
    pub quantum_ms: u64,
    /// Governor poll interval.
    pub poll_ms: u64,
}

impl ServeConfig {
    /// Defaults: ephemeral loopback port, 2 slots, 50 ms quantum, 5 ms
    /// governor poll.
    pub fn new(spill_dir: impl Into<PathBuf>) -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            slots: 2,
            spill_dir: spill_dir.into(),
            quantum_ms: 50,
            poll_ms: 5,
        }
    }
}

/// A running job's slot-side handles.
struct RunningJob {
    signal: PreemptSignal,
    started: Instant,
}

/// Everything behind the state lock.
#[derive(Default)]
struct ServerState {
    table: JobTable,
    specs: HashMap<u64, Arc<JobSpec>>,
    running: HashMap<u64, RunningJob>,
    results: HashMap<u64, Arc<String>>,
    errors: HashMap<u64, ServeError>,
}

struct Shared {
    cfg: ServeConfig,
    state: Mutex<ServerState>,
    /// Runners wait here for claimable work.
    work: Condvar,
    /// `/result` requests wait here for their job to become terminal.
    settled: Condvar,
    stop: AtomicBool,
    crash: AtomicBool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, ServerState> {
        self.state.lock().expect("server state poisoned")
    }

    fn halted(&self) -> bool {
        self.stop.load(Ordering::Acquire) || self.crash.load(Ordering::Acquire)
    }
}

fn spec_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id:08}.spec"))
}

fn done_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id:08}.done"))
}

fn cancelled_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id:08}.cancelled"))
}

/// The job server. Dropping it without [`JobServer::shutdown`] behaves
/// like [`JobServer::kill`] — a crash.
pub struct JobServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl JobServer {
    /// Bind, recover any jobs left in the spill directory, and start the
    /// runner/governor/acceptor threads.
    pub fn start(cfg: ServeConfig) -> std::io::Result<JobServer> {
        std::fs::create_dir_all(&cfg.spill_dir)?;
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        let mut state = ServerState::default();
        recover(&cfg.spill_dir, &mut state)?;

        let shared = Arc::new(Shared {
            cfg,
            state: Mutex::new(state),
            work: Condvar::new(),
            settled: Condvar::new(),
            stop: AtomicBool::new(false),
            crash: AtomicBool::new(false),
        });

        let mut threads = Vec::new();
        for _ in 0..shared.cfg.slots.max(1) {
            let sh = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || runner_loop(&sh)));
        }
        {
            let sh = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || governor_loop(&sh)));
        }
        {
            let sh = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || acceptor_loop(&sh, listener)));
        }
        Ok(JobServer { addr, shared, threads })
    }

    /// The bound address (resolve the ephemeral port here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Simulated crash: threads abandon immediately, nothing further is
    /// written to the spill directory. In-flight slices are lost; their
    /// jobs recover from their last parked snapshot (or from scratch) on
    /// the next [`JobServer::start`] over the same directory.
    pub fn kill(mut self) {
        self.shared.crash.store(true, Ordering::Release);
        self.halt_threads();
    }

    /// Graceful shutdown: running jobs are preempted so their latest
    /// state parks to disk, then all threads join.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.halt_threads();
    }

    fn halt_threads(&mut self) {
        {
            let st = self.shared.lock();
            for rj in st.running.values() {
                rj.signal.raise();
            }
        }
        self.shared.work.notify_all();
        self.shared.settled.notify_all();
        // Unblock the acceptor's blocking `accept`.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.shared.crash.store(true, Ordering::Release);
            self.halt_threads();
        }
    }
}

/// Rebuild the job table from a spill directory's file trail.
fn recover(dir: &Path, state: &mut ServerState) -> std::io::Result<()> {
    let entries = match std::fs::read_dir(dir) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        other => other?,
    };
    let mut ids = Vec::new();
    for entry in entries {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(id) = name.strip_prefix("job-").and_then(|s| s.strip_suffix(".spec")) {
            if let Ok(id) = id.parse::<u64>() {
                ids.push(id);
            }
        }
    }
    ids.sort_unstable();
    for id in ids {
        let body = std::fs::read_to_string(spec_path(dir, id))?;
        let spec = match JobSpec::parse(&body) {
            Ok(spec) => spec,
            Err(err) => {
                // A spec this server once accepted no longer parses —
                // surface it as a failed job rather than dropping it.
                state.table.restore(id, JobState::Failed, 0);
                state.errors.insert(id, ServeError::Spill(format!("unreadable spec: {err}")));
                continue;
            }
        };
        let recovered_state = if done_path(dir, id).exists() {
            match std::fs::read_to_string(done_path(dir, id)) {
                Ok(doc) => {
                    state.results.insert(id, Arc::new(doc));
                    JobState::Done
                }
                Err(e) => {
                    state.errors.insert(id, ServeError::Spill(format!("unreadable result: {e}")));
                    JobState::Failed
                }
            }
        } else if cancelled_path(dir, id).exists() {
            JobState::Cancelled
        } else if spill::park_path(dir, id).exists() {
            JobState::Parked
        } else {
            JobState::Queued
        };
        state.table.restore(id, recovered_state, 0);
        state.specs.insert(id, Arc::new(spec));
    }
    Ok(())
}

fn runner_loop(shared: &Shared) {
    let dir = shared.cfg.spill_dir.clone();
    loop {
        // Claim the next job (or halt).
        let (id, spec, signal, was_parked) = {
            let mut st = shared.lock();
            loop {
                if shared.halted() {
                    return;
                }
                if let Some(id) = st.table.claim_next() {
                    // Whether to resume comes from the spill file, not the
                    // in-memory preemption count — recovery resets the
                    // counters but keeps park files.
                    let parked = spill::park_path(&dir, id).exists();
                    let spec = Arc::clone(st.specs.get(&id).expect("claimed jobs have specs"));
                    let signal = PreemptSignal::new();
                    let started = Instant::now();
                    st.running.insert(id, RunningJob { signal: signal.clone(), started });
                    // A cancel that arrived while the job was queued past
                    // its claim would be lost; re-raise for ones flagged
                    // mid-claim.
                    if st.table.get(id).expect("claimed").cancel_requested {
                        signal.raise();
                    }
                    break (id, spec, signal, parked);
                }
                st = shared.work.wait(st).expect("server state poisoned");
            }
        };

        // Long part, outside the lock: read the snapshot and run the
        // slice until completion or the next boundary after a preempt.
        let parked_bytes = if was_parked {
            match spill::unpark(&dir, id) {
                Ok(bytes) => Some(bytes),
                Err(e) => {
                    let mut st = shared.lock();
                    st.table.fail(id);
                    st.errors.insert(id, ServeError::Spill(format!("unpark: {e}")));
                    st.running.remove(&id);
                    drop(st);
                    shared.work.notify_all();
                    shared.settled.notify_all();
                    continue;
                }
            }
        } else {
            None
        };
        let slice = spec.run_slice(parked_bytes.as_deref(), &signal);

        // Publish the slice's result. Disk writes happen under the lock,
        // after the crash check: a killed server writes nothing more.
        let mut st = shared.lock();
        if shared.crash.load(Ordering::Acquire) {
            return;
        }
        match slice {
            Err(err) => {
                st.table.fail(id);
                st.errors.insert(id, ServeError::from_ckpt(err));
            }
            Ok((_out, Some(bytes))) => {
                if st.table.get(id).expect("running").cancel_requested {
                    st.table.finish_cancelled(id);
                    let _ = spill::write_atomic(&cancelled_path(&dir, id), b"cancelled\n");
                    let _ = spill::clear(&dir, id);
                } else {
                    match spill::park(&dir, id, &bytes) {
                        Ok(_) => {
                            st.table.park(id);
                        }
                        Err(e) => {
                            st.table.fail(id);
                            st.errors.insert(id, ServeError::Spill(format!("park: {e}")));
                        }
                    }
                }
            }
            Ok((out, None)) => {
                let preemptions = st.table.get(id).expect("running").preemptions;
                let doc = Arc::new(result_doc(id, preemptions, &out));
                match spill::write_atomic(&done_path(&dir, id), doc.as_bytes()) {
                    Ok(()) => {
                        st.results.insert(id, Arc::clone(&doc));
                        st.table.complete(id);
                        let _ = spill::clear(&dir, id);
                    }
                    Err(e) => {
                        st.table.fail(id);
                        st.errors.insert(id, ServeError::Spill(format!("store result: {e}")));
                    }
                }
            }
        }
        st.running.remove(&id);
        let settled = st.table.get(id).expect("running").state.is_terminal();
        drop(st);
        shared.work.notify_all();
        if settled {
            shared.settled.notify_all();
        }
    }
}

fn governor_loop(shared: &Shared) {
    let quantum = Duration::from_millis(shared.cfg.quantum_ms);
    loop {
        std::thread::sleep(Duration::from_millis(shared.cfg.poll_ms.max(1)));
        if shared.halted() {
            return;
        }
        let st = shared.lock();
        if st.table.waiting() == 0 {
            continue;
        }
        for rj in st.running.values() {
            if rj.started.elapsed() >= quantum {
                rj.signal.raise();
            }
        }
    }
}

fn acceptor_loop(shared: &Arc<Shared>, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.halted() {
            return;
        }
        let Ok(stream) = stream else { continue };
        let sh = Arc::clone(shared);
        std::thread::spawn(move || {
            let mut stream = stream;
            let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
            let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
            let (status, body) = match read_request(&mut stream) {
                Err(e) => (e.status(), e.body()),
                Ok(req) => match route(&sh, &req) {
                    Ok(body) => (200, body),
                    Err(e) => (e.status(), e.body()),
                },
            };
            let _ = write_response(&mut stream, status, &body);
        });
    }
}

/// Dispatch one request to its endpoint.
fn route(shared: &Shared, req: &Request) -> Result<String, ServeError> {
    let segments: Vec<&str> = req.path.trim_matches('/').split('/').collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["submit"]) => submit(shared, &req.body),
        ("GET", ["status", id]) => status(shared, parse_id(id)?),
        ("GET", ["result", id]) => result(shared, parse_id(id)?),
        ("POST", ["cancel", id]) => cancel(shared, parse_id(id)?),
        ("GET", ["jobs"]) => jobs(shared),
        _ => Err(ServeError::Proto(format!("no endpoint {} {}", req.method, req.path))),
    }
}

fn parse_id(raw: &str) -> Result<u64, ServeError> {
    raw.parse().map_err(|_| ServeError::Proto(format!("bad job id `{raw}`")))
}

fn submit(shared: &Shared, body: &str) -> Result<String, ServeError> {
    let spec = JobSpec::parse(body)?;
    let mut st = shared.lock();
    let id = st.table.submit();
    // Durable before acknowledged: the spec hits disk before the client
    // learns the id, so an acked job survives any crash.
    spill::write_atomic(&spec_path(&shared.cfg.spill_dir, id), body.as_bytes())
        .map_err(|e| ServeError::Spill(format!("store spec: {e}")))?;
    st.specs.insert(id, Arc::new(spec));
    drop(st);
    shared.work.notify_all();
    Ok(format!(r#"{{"job":{id}}}"#))
}

fn status(shared: &Shared, id: u64) -> Result<String, ServeError> {
    let st = shared.lock();
    let job = st.table.get(id).ok_or(ServeError::UnknownJob(id))?;
    let spec = st.specs.get(&id);
    Ok(format!(
        "{{\n  \"job\": {},\n  \"state\": \"{}\",\n  \"preemptions\": {},\n  \"cancel_requested\": {},\n  \"config_fnv\": \"{}\"\n}}\n",
        job.id,
        job.state.name(),
        job.preemptions,
        job.cancel_requested,
        spec.map_or_else(|| "unknown".to_string(), |s| format!("{:#018x}", s.fingerprint())),
    ))
}

/// Answer once the job is terminal, the server halts, or [`RESULT_WAIT`]
/// passes — whichever comes first.
fn result(shared: &Shared, id: u64) -> Result<String, ServeError> {
    let deadline = Instant::now() + RESULT_WAIT;
    let mut st = shared.lock();
    loop {
        let job = st.table.get(id).ok_or(ServeError::UnknownJob(id))?;
        match job.state {
            JobState::Done => {
                return Ok(st.results.get(&id).expect("done jobs have results").to_string());
            }
            JobState::Failed => {
                return Err(st.errors.get(&id).cloned().unwrap_or_else(|| {
                    ServeError::Spill(format!("job {id} failed without a recorded error"))
                }));
            }
            JobState::Cancelled => return Err(ServeError::Cancelled(id)),
            JobState::Queued | JobState::Running | JobState::Parked => {}
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || shared.halted() {
            return Err(ServeError::NotReady(id));
        }
        st = shared.settled.wait_timeout(st, left).expect("server state poisoned").0;
    }
}

fn cancel(shared: &Shared, id: u64) -> Result<String, ServeError> {
    let mut st = shared.lock();
    let state = st.table.cancel(id).ok_or(ServeError::UnknownJob(id))?;
    match state {
        JobState::Cancelled => {
            // Left the queue just now (or was already cancelled): make it
            // durable so a restart does not resurrect the job.
            let dir = &shared.cfg.spill_dir;
            let _ = spill::write_atomic(&cancelled_path(dir, id), b"cancelled\n");
            let _ = spill::clear(dir, id);
            shared.settled.notify_all();
        }
        JobState::Running => {
            if let Some(rj) = st.running.get(&id) {
                rj.signal.raise();
            }
        }
        _ => {}
    }
    Ok(format!(r#"{{"job":{id},"state":"{}"}}"#, state.name()))
}

fn jobs(shared: &Shared) -> Result<String, ServeError> {
    let st = shared.lock();
    let items: Vec<String> = st
        .table
        .iter()
        .map(|j| format!(r#"{{"job":{},"state":"{}"}}"#, j.id, j.state.name()))
        .collect();
    Ok(format!(r#"{{"jobs":[{}]}}"#, items.join(",")))
}

/// The `/result` document, also the `.done` spill file: identity,
/// preemption count, and the outcome's headline counters plus its full
/// FNV digest for bit-identity checks.
fn result_doc(id: u64, preemptions: u32, out: &uts_core::Outcome) -> String {
    format!(
        "{{\n  \"job\": {id},\n  \"state\": \"done\",\n  \"preemptions\": {preemptions},\n  \"outcome_fnv\": \"{:#018x}\",\n  \"goals\": {},\n  \"nodes_expanded\": {},\n  \"n_expand\": {},\n  \"n_lb\": {},\n  \"n_transfers\": {},\n  \"t_par_us\": {},\n  \"efficiency\": {:.6},\n  \"peak_stack_nodes\": {},\n  \"truncated\": {}\n}}\n",
        outcome_digest(out),
        out.goals,
        out.report.nodes_expanded,
        out.report.n_expand,
        out.report.n_lb,
        out.report.n_transfers,
        out.report.t_par,
        out.report.efficiency,
        out.peak_stack_nodes,
        out.truncated,
    )
}
