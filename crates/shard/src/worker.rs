//! The worker half of the sharded machine: one OS process owning a
//! contiguous slab of PEs.
//!
//! A worker is the *search phase* of the engine and nothing else: it holds
//! a [`StackArena`] over its `[lo, hi)` range, runs
//! [`uts_core::expansion_burst`] when told to, and applies the splits the
//! coordinator's balancing phase decided. It makes **no** scheduling
//! decisions — the horizon, the trigger, the matching and the transfer
//! counts all arrive over the wire, which is what keeps the lockstep
//! schedule deterministic at any shard count (DESIGN.md §13).
//!
//! Workers are spawned by re-executing the host binary
//! (`std::env::current_exe()`) with [`WORKER_ENV`] set; any binary that
//! wants to coordinate shards calls [`maybe_run_worker`] first thing in
//! `main`. All parameters arrive in the [`Hello`] frame on stdin, so the
//! environment variable is just a mode switch.

use std::io::{Read, Write};

use uts_ckpt::wire::{FrameReader, FrameWriter, WireError};
use uts_core::expansion_burst;
use uts_puzzle15::{Board, Puzzle15};
use uts_tree::problem::BoundedProblem;
use uts_tree::{CkptNode, CodecError, PeSlab, Reader, SearchStack, StackArena, TreeProblem};

use crate::proto::{
    decode_burst, decode_count_extract, decode_count_local, decode_split_extract,
    decode_split_pairs, decode_stack_entries, encode_count_reply, encode_extract_reply,
    encode_install_reply, encode_local_split_reply, tag, BurstReply, ExtractReply, Hello,
    LocalSplitReply, ShardWorkload,
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

/// Serve the shard protocol over an arbitrary transport (tests drive this
/// in-process over pipes; [`maybe_run_worker`] binds it to stdin/stdout).
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
    match hello.workload {
        ShardWorkload::Puzzle { board, bound } => {
            let puzzle = Puzzle15::new(Board(board));
            let problem = BoundedProblem::new(&puzzle, bound);
            serve_problem(&problem, &hello, &mut reader, &mut writer)
        }
        ShardWorkload::UtsGen(tree) => serve_problem(&tree, &hello, &mut reader, &mut writer),
    }
}

/// The monomorphized request loop over one slab.
fn serve_problem<P, R, W>(
    problem: &P,
    hello: &Hello,
    reader: &mut FrameReader<R>,
    writer: &mut FrameWriter<W>,
) -> Result<(), WorkerError>
where
    P: TreeProblem,
    P::Node: CkptNode,
    R: Read,
    W: Write,
{
    let local_p = (hello.hi - hello.lo) as usize;
    let mut arena = StackArena::new(local_p);
    if hello.seed_root && hello.lo == 0 && local_p > 0 {
        arena.push_frame_with(0, |frame| frame.push(problem.root()));
    }

    let mut buf = Vec::new();
    let mut payload = Vec::new();
    let mut active: Vec<usize> = Vec::new();
    let mut started: Vec<usize> = Vec::new();
    let mut deaths: Vec<u64> = Vec::new();
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
                active.clear();
                active.extend((0..local_p).filter(|&i| arena.len_of(i) > 0));
                started.clear();
                started.extend_from_slice(&active);
                let mut goals = 0u64;
                let mut peak = 0usize;
                expansion_burst(
                    problem,
                    &mut arena,
                    &mut active,
                    h,
                    &mut goals,
                    &mut peak,
                    &mut deaths,
                );
                let reply = BurstReply {
                    started: started.len() as u64,
                    goals,
                    peak: peak as u64,
                    deaths: std::mem::take(&mut deaths),
                    changed: started.iter().map(|&i| (i as u32, arena.lens()[i])).collect(),
                };
                reply.encode(&mut payload);
                deaths = reply.deaths;
                writer.send(tag::BURST, &payload)?;
            }
            tag::SPLIT_PAIRS => {
                let (policy, pairs) = decode_split_pairs(&buf)?;
                let mut entries = Vec::with_capacity(pairs.len());
                for &(d, rcv) in &pairs {
                    let ok = arena.split_into(d as usize, rcv as usize, policy);
                    entries.push(LocalSplitReply {
                        moved: ok as u64,
                        donor_len: arena.lens()[d as usize],
                        receiver_len: arena.lens()[rcv as usize],
                    });
                }
                encode_local_split_reply(&mut payload, &entries);
                writer.send(tag::SPLIT_PAIRS, &payload)?;
            }
            tag::COUNT_LOCAL => {
                let reqs = decode_count_local(&buf)?;
                let mut entries = Vec::with_capacity(reqs.len());
                for &(d, rcv, k) in &reqs {
                    let moved = arena.split_count_into(d as usize, rcv as usize, k as usize);
                    entries.push(LocalSplitReply {
                        moved: moved as u64,
                        donor_len: arena.lens()[d as usize],
                        receiver_len: arena.lens()[rcv as usize],
                    });
                }
                encode_local_split_reply(&mut payload, &entries);
                writer.send(tag::COUNT_LOCAL, &payload)?;
            }
            tag::SPLIT_EXTRACT => {
                let (policy, donors) = decode_split_extract(&buf)?;
                let mut entries = Vec::with_capacity(donors.len());
                for &d in &donors {
                    let mut scratch = PeSlab::new();
                    let (slabs, lens) = arena.parts_mut();
                    let ok = slabs[d as usize].split_into(policy, &mut scratch);
                    lens[d as usize] = slabs[d as usize].len() as u32;
                    let donor_len = lens[d as usize];
                    let mut stack = Vec::new();
                    if ok {
                        scratch.encode_stack(&mut stack);
                    }
                    entries.push(ExtractReply {
                        moved: if ok { scratch.len() as u64 } else { 0 },
                        donor_len,
                        stack,
                    });
                }
                encode_extract_reply(&mut payload, &entries);
                writer.send(tag::SPLIT_EXTRACT, &payload)?;
            }
            tag::COUNT_EXTRACT => {
                let reqs = decode_count_extract(&buf)?;
                let mut entries = Vec::with_capacity(reqs.len());
                for &(d, k) in &reqs {
                    let mut scratch = PeSlab::new();
                    let (slabs, lens) = arena.parts_mut();
                    let moved = slabs[d as usize].split_count_into(k as usize, &mut scratch);
                    lens[d as usize] = slabs[d as usize].len() as u32;
                    let donor_len = lens[d as usize];
                    let mut stack = Vec::new();
                    if moved > 0 {
                        scratch.encode_stack(&mut stack);
                    }
                    entries.push(ExtractReply { moved: moved as u64, donor_len, stack });
                }
                encode_extract_reply(&mut payload, &entries);
                writer.send(tag::COUNT_EXTRACT, &payload)?;
            }
            tag::INSTALL => {
                let entries = decode_stack_entries(&buf)?;
                let mut lens_out = Vec::with_capacity(entries.len());
                for (pe, stack_bytes) in &entries {
                    let pe = *pe as usize;
                    let stack = decode_one_stack::<P::Node>(stack_bytes)?;
                    // Appending the donated frames in encoded (bottom-first)
                    // order on top of the receiver reproduces the in-process
                    // split_into / split_count_into receiver layout exactly.
                    for frame in stack.into_frames() {
                        arena.push_frame_with(pe, |out| out.extend(frame));
                    }
                    lens_out.push(arena.lens()[pe]);
                }
                encode_install_reply(&mut payload, &lens_out);
                writer.send(tag::INSTALL, &payload)?;
            }
            tag::LOAD => {
                let entries = decode_stack_entries(&buf)?;
                let n = entries.len() as u64;
                for (pe, stack_bytes) in &entries {
                    let pe = *pe as usize;
                    let stack = decode_one_stack::<P::Node>(stack_bytes)?;
                    let (slabs, lens) = arena.parts_mut();
                    slabs[pe] = PeSlab::from_stack(stack);
                    lens[pe] = slabs[pe].len() as u32;
                }
                encode_count_reply(&mut payload, n);
                writer.send(tag::LOAD, &payload)?;
            }
            tag::ENCODE => {
                for i in 0..local_p {
                    arena.encode_pe(i, &mut payload);
                }
                writer.send(tag::ENCODE, &payload)?;
            }
            tag::SHUTDOWN => {
                writer.send(tag::SHUTDOWN, &[])?;
                return Ok(());
            }
            other => return Err(WorkerError::UnexpectedTag(other)),
        }
    }
}

fn decode_one_stack<N: CkptNode>(bytes: &[u8]) -> Result<SearchStack<N>, WorkerError> {
    let mut r = Reader::new(bytes);
    let stack = SearchStack::<N>::decode_node(&mut r)?;
    if !r.is_done() {
        return Err(WorkerError::Codec(CodecError::Malformed(
            "trailing bytes after a donated stack",
        )));
    }
    Ok(stack)
}

/// Die without unwinding or flushing, as a real machine fault would:
/// SIGKILL ourselves (abort as a fallback). The coordinator observes the
/// broken pipe.
fn die_hard() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill").args(["-9", &pid]).status();
    std::process::abort();
}
