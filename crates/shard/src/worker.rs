//! The worker half of the sharded machine: one OS process owning a
//! contiguous slab of PEs.
//!
//! A worker is the *search phase* of the engine and nothing else: it holds
//! a [`StackArena`] over its `[lo, hi)` range, runs the in-process burst
//! kernel ([`uts_core::expansion_burst_reporting`]) when told to, and
//! applies the splits the coordinator's balancing phase decided. It makes
//! **no** scheduling decisions — the horizon, the trigger, the matching
//! and the transfer counts all arrive over the wire, which is what keeps
//! the lockstep schedule deterministic at any shard count (DESIGN.md §13).
//!
//! Workers are spawned by re-executing the host binary
//! (`std::env::current_exe()`) with [`WORKER_ENV`] set; any binary that
//! wants to coordinate shards calls [`maybe_run_worker`] first thing in
//! `main`. All parameters arrive in the [`Hello`] frame on stdin, so the
//! environment variable is just a mode switch.

use std::io::{Read, Write};

use uts_ckpt::wire::{FrameReader, FrameWriter, WireError};
use uts_core::{expansion_burst_reporting, merge_active, MergedBurst, Search};
use uts_tree::{CodecError, Donation, StackArena, TreeProblem};

use crate::proto::{
    begin_list, decode_burst, decode_install, decode_transfers, finish_burst_reply, put_len,
    set_count, tag, ExtractReply, Give, Hello, MoveReply, WorkerMemory,
};

/// Mode-switch environment variable: when set, the process is a shard
/// worker and must serve the wire protocol on stdin/stdout instead of
/// running its own `main`.
pub const WORKER_ENV: &str = "UTS_SHARD_WORKER";

/// Run the worker protocol and exit iff [`WORKER_ENV`] is set; return
/// immediately otherwise. Every binary that spawns shards (the `sts` CLI,
/// the benches, the differential suite) calls this first thing in `main`.
pub fn maybe_run_worker() {
    if std::env::var_os(WORKER_ENV).is_none() {
        return;
    }
    let stdin = std::io::BufReader::new(std::io::stdin().lock());
    let stdout = std::io::BufWriter::new(std::io::stdout().lock());
    match serve(stdin, stdout) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("uts-shard worker: {e}");
            std::process::exit(3);
        }
    }
}

/// A worker-side protocol failure.
#[derive(Debug)]
pub enum WorkerError {
    /// The transport failed (truncated/corrupt/reordered frame, broken
    /// pipe).
    Wire(WireError),
    /// A frame arrived intact but its payload failed to decode.
    Codec(CodecError),
    /// A frame tag outside the request grammar (or a duplicate `HELLO`).
    UnexpectedTag(u8),
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::Wire(e) => write!(f, "wire: {e}"),
            WorkerError::Codec(e) => write!(f, "payload: {e}"),
            WorkerError::UnexpectedTag(t) => write!(f, "unexpected request tag {t}"),
        }
    }
}

impl std::error::Error for WorkerError {}

impl From<WireError> for WorkerError {
    fn from(e: WireError) -> Self {
        WorkerError::Wire(e)
    }
}

impl From<CodecError> for WorkerError {
    fn from(e: CodecError) -> Self {
        WorkerError::Codec(e)
    }
}

/// Serve the shard protocol over an arbitrary transport until `SHUTDOWN`:
/// one `HELLO`, then any sequence of the other six requests, each answered
/// by one frame of the same tag. [`maybe_run_worker`] binds it to
/// stdin/stdout; `tests/worker_protocol.rs` drives it over in-memory
/// buffers. A frame that is intact but not a well-formed request for this
/// worker — a PE index outside `[0, hi - lo)`, a transfer onto its own
/// donor, trailing bytes, an unknown tag or a second `HELLO` — ends the
/// session with a typed error; no payload can make it index out of bounds.
pub fn serve<R: Read, W: Write>(reader: R, writer: W) -> Result<(), WorkerError> {
    let mut reader = FrameReader::new(reader);
    let mut writer = FrameWriter::new(writer);
    let mut buf = Vec::new();
    let t = reader.recv(&mut buf)?;
    if t != tag::HELLO {
        return Err(WorkerError::UnexpectedTag(t));
    }
    let hello = Hello::decode(&buf)?;
    writer.send(tag::HELLO, &[])?;
    hello.workload.search(Session { hello: &hello, reader: &mut reader, writer: &mut writer })
}

/// The request loop of one session, over the problem its `HELLO` names.
struct Session<'a, R: Read, W: Write> {
    hello: &'a Hello,
    reader: &'a mut FrameReader<R>,
    writer: &'a mut FrameWriter<W>,
}

impl<R: Read, W: Write> Search for Session<'_, R, W> {
    type Out = Result<(), WorkerError>;

    fn search<P: TreeProblem>(self, problem: &P) -> Self::Out {
        serve_problem(problem, self.hello, self.reader, self.writer)
    }
}

/// The monomorphized request loop over one slab.
fn serve_problem<P: TreeProblem, R: Read, W: Write>(
    problem: &P,
    hello: &Hello,
    reader: &mut FrameReader<R>,
    writer: &mut FrameWriter<W>,
) -> Result<(), WorkerError> {
    let local_p = (hello.hi - hello.lo) as usize;
    let mut arena = StackArena::new(local_p);
    // The local PEs holding work, ascending, are `active` merged with `fed`:
    // a burst compacts `active` to its survivors, a donor never gives its
    // last node, so between bursts the set only gains the PEs a `MOVE` or an
    // `INSTALL` feeds while they are empty. No request sweeps all `local_p`.
    let mut active: Vec<usize> = Vec::new();
    let mut fed: Vec<usize> = Vec::new();
    if hello.seed_root && hello.lo == 0 && local_p > 0 {
        arena.push_frame_with(0, |frame| frame.push(problem.root()));
        active.push(0);
    }

    let mut buf = Vec::new();
    let mut payload = Vec::new();
    let mut burst = MergedBurst::default();
    let mut stack: Vec<u8> = Vec::new();
    let mut bursts_seen = 0u64;

    loop {
        let t = reader.recv(&mut buf)?;
        payload.clear();
        match t {
            tag::BURST => {
                bursts_seen += 1;
                if hello.kill_at_burst == Some(bursts_seen) {
                    die_hard();
                }
                let h = decode_burst(&buf)?;
                merge_active(&mut active, &mut fed);
                debug_assert!(
                    active.iter().copied().eq((0..local_p).filter(|&i| arena.len_of(i) > 0)),
                    "the kept active list is the PEs holding work"
                );
                // The reply's lengths are written as the kernel reports
                // them, in `active`'s order, so the PEs that started need
                // not be remembered; the census goes in front afterwards.
                burst.reset(active.len());
                expansion_burst_reporting(
                    problem,
                    &mut arena,
                    &mut active,
                    h,
                    &mut burst.goals,
                    &mut burst.peak_stack_nodes,
                    &mut burst.deaths,
                    |len| put_len(&mut payload, len),
                );
                debug_assert!(arena.store_ok(), "node store out of step with the length census");
                finish_burst_reply(&mut payload, &burst);
                writer.send(tag::BURST, &payload)?;
            }
            tag::MOVE | tag::EXTRACT => {
                // Each entry is applied and answered as it is read.
                begin_list(&mut payload);
                let n = decode_transfers(t, &buf, local_p, |what, tr| {
                    let d = tr.donor as usize;
                    let what = donation(what, tr.max_nodes);
                    match tr.receiver {
                        // MOVE: give straight onto the receiver's stack.
                        Some(r) => {
                            let r = r as usize;
                            let was_idle = arena.len_of(r) == 0;
                            let moved = arena.donate(d, r, what) as u32;
                            if was_idle && moved > 0 {
                                fed.push(r);
                            }
                            let (donor_len, receiver_len) =
                                (arena.len_of(d) as u32, arena.len_of(r) as u32);
                            MoveReply { moved, donor_len, receiver_len }.put(&mut payload);
                        }
                        // EXTRACT: ship the donation's encoding.
                        None => {
                            stack.clear();
                            let moved = arena.donate_encoded(d, what, &mut stack) as u32;
                            let donor_len = arena.len_of(d) as u32;
                            ExtractReply { moved, donor_len, stack: &stack }.put(&mut payload);
                        }
                    }
                })?;
                set_count(&mut payload, n);
                writer.send(t, &payload)?;
            }
            tag::INSTALL => {
                begin_list(&mut payload);
                let n = decode_install(&buf, local_p, |pe, stack_bytes| {
                    let pe = pe as usize;
                    // The frames land on top of the PE in encoded
                    // (bottom-first) order, which reproduces the in-process
                    // receiver layout of a transfer exactly; onto the empty
                    // stack of a resumed worker it reproduces the snapshot's
                    // stack.
                    let was_idle = arena.len_of(pe) == 0;
                    if arena.push_encoded(pe, stack_bytes)? > 0 && was_idle {
                        fed.push(pe);
                    }
                    put_len(&mut payload, arena.len_of(pe) as u32);
                    Ok(())
                })?;
                set_count(&mut payload, n);
                writer.send(tag::INSTALL, &payload)?;
            }
            tag::ENCODE => {
                for i in 0..local_p {
                    arena.encode_pe(i, &mut payload);
                }
                writer.send(tag::ENCODE, &payload)?;
            }
            tag::SHUTDOWN => {
                own_memory().put(&mut payload);
                writer.send(tag::SHUTDOWN, &payload)?;
                return Ok(());
            }
            other => return Err(WorkerError::UnexpectedTag(other)),
        }
    }
}

/// This process's peak resident set (`VmHWM` in `/proc/self/status`) and
/// minor page faults (the tenth field of `/proc/self/stat`); each zero
/// where it cannot be read.
fn own_memory() -> WorkerMemory {
    let read = |file| std::fs::read_to_string(file).unwrap_or_default();
    let status = read("/proc/self/status");
    let hwm = status.lines().find_map(|line| line.strip_prefix("VmHWM:"));
    let peak_rss_kb = hwm.and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok());
    // The command name (field 2) is parenthesised and may hold spaces.
    let stat = read("/proc/self/stat");
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let minor_faults = after_name.split_whitespace().nth(7).and_then(|v| v.parse().ok());
    WorkerMemory { peak_rss_kb: peak_rss_kb.unwrap_or(0), minor_faults: minor_faults.unwrap_or(0) }
}

/// What every donor of a round gives, in the arena's terms: a split under
/// the round's policy, or up to the entry's `max_nodes` bottom nodes.
fn donation(what: Give, max_nodes: u32) -> Donation {
    match what {
        Give::Split(policy) => Donation::Split(policy),
        Give::Counted => Donation::Bottom(max_nodes as usize),
    }
}

/// Die without unwinding or flushing, as a real machine fault would:
/// SIGKILL ourselves (abort as a fallback). The coordinator observes the
/// broken pipe.
fn die_hard() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill").args(["-9", &pid]).status();
    std::process::abort();
}
