//! A worker that lies. Its frames are intact — checksum, sequence and tag
//! all good — but the first reply it sends under one tag says something its
//! request cannot have produced. The coordinator reads each reply once,
//! applying entries as it goes, so a lie may be found after earlier entries
//! were applied; it must still end the run as [`ShardError::Reply`] from
//! the lying shard, and never panic or index out of range. Five lies:
//!
//! - a `BURST` reply with one length more than the PEs that started;
//! - a `BURST` reply whose `started` is one higher than the worker's active
//!   PEs (with as many lengths);
//! - a `MOVE` reply whose count is right but which ends early;
//! - a `MOVE` reply with trailing bytes;
//! - an `EXTRACT` reply whose first stack claims more bytes than the frame
//!   holds.
//!
//! A `BURST` reply names no PE: the coordinator applies its lengths, in
//! order, to its own sorted active list restricted to the replying worker's
//! range. Trusted, either `BURST` lie would hand shard 0's extra length to
//! the next active PE in the list, which belongs to shard 1. The run
//! resumes a snapshot in which both shards hold work, so that PE exists.
//!
//! `harness = false` because this binary is its own (dishonest) worker
//! executable: `resume_sharded` re-executes `current_exe()`. The worker is
//! the real request loop ([`uts_shard::serve`]) writing through a filter
//! that rewrites one reply frame. Only shard 0 lies, and it reads which lie
//! to tell from the seed of the tree its `HELLO` names.

use std::io::{stdin, stdout, Cursor, Read, Write};

use uts_ckpt::wire::{decode_frame, encode_frame, FrameReader, WireError};
use uts_ckpt::{CheckpointPolicy, EngineSnapshot};
use uts_core::{config_fingerprint, run, EngineConfig, Scheme};
use uts_machine::CostModel;
use uts_shard::proto::{tag, take_len, Hello};
use uts_shard::{resume_sharded, serve, ShardError, ShardOpts, ShardWorkload, WORKER_ENV};
use uts_synthgen::{GenNode, GenTree};
use uts_tree::Reader;

/// One lie: the tree seed that selects it, what it says, the tag of the
/// reply it rewrites, and the rewrite.
struct Lie {
    seed: u64,
    what: &'static str,
    tag: u8,
    tell: fn(&mut Vec<u8>),
}

const LIES: [Lie; 5] = [
    Lie {
        seed: 1,
        what: "one length more than the PEs that started",
        tag: tag::BURST,
        tell: |reply| reply.push(1),
    },
    Lie {
        seed: 2,
        what: "a started count one higher than the worker's active PEs",
        tag: tag::BURST,
        tell: |reply| {
            let started = u64::from_le_bytes(reply[..8].try_into().expect("8 bytes"));
            reply[..8].copy_from_slice(&(started + 1).to_le_bytes());
            reply.push(1);
        },
    },
    Lie {
        seed: 3,
        what: "a MOVE reply whose count is right but which ends early",
        tag: tag::MOVE,
        tell: |reply| {
            reply.pop();
        },
    },
    Lie {
        seed: 5,
        what: "a MOVE reply with trailing bytes",
        tag: tag::MOVE,
        tell: |reply| reply.push(0),
    },
    Lie {
        seed: 7,
        what: "an EXTRACT reply whose stack length overruns the frame",
        tag: tag::EXTRACT,
        tell: |reply| {
            // Past the count, the first entry's moved count and donor length.
            let mut r = Reader::new(reply);
            r.u64().expect("count");
            take_len(&mut r).expect("moved");
            take_len(&mut r).expect("donor length");
            let at = reply.len() - r.remaining();
            let overrun = (r.remaining() - 4 + 1) as u32;
            reply[at..at + 4].copy_from_slice(&overrun.to_le_bytes());
        },
    },
];

const P: usize = 8;

fn main() {
    if std::env::var_os(WORKER_ENV).is_some() {
        return lie();
    }
    let cfg = EngineConfig::new(P, Scheme::gp_dk(), CostModel::cm2());
    for Lie { seed, what, .. } in LIES {
        let tree = GenTree::geometric(seed, 8, 7);
        let snapshot = both_shards_busy(&tree, &cfg);
        let opts = ShardOpts { shards: 2, park: None, kill: None };
        match resume_sharded(&ShardWorkload::from(tree), &cfg, &opts, &snapshot) {
            Err(ShardError::Reply { shard: 0, source }) => {
                println!("hostile_worker: {what}: refused ({source})")
            }
            other => panic!("{what}: expected ShardError::Reply from shard 0, got {other:?}"),
        }
    }
}

/// The first boundary snapshot of the in-process run at which both halves
/// of the machine (the two shards' ranges) hold work.
fn both_shards_busy(tree: &GenTree, cfg: &EngineConfig) -> Vec<u8> {
    let armed = cfg.clone().with_checkpoint(CheckpointPolicy::every(1));
    run(tree, &armed);
    let sink = &armed.checkpoint.as_ref().expect("armed").sink;
    let fingerprint = config_fingerprint(cfg);
    let busy = |bytes: &[u8]| {
        let snapshot = EngineSnapshot::<GenNode>::decode(bytes, fingerprint).expect("snapshot");
        let lens = snapshot.stacks.lens();
        lens[..P / 2].iter().any(|&len| len > 0) && lens[P / 2..].iter().any(|&len| len > 0)
    };
    let snapshots = sink.taken();
    let found = snapshots.into_iter().find(|s| busy(&s.bytes));
    found.expect("a boundary at which both shards hold work").bytes
}

/// Serve the session honestly through [`Liar`], which shard 0 arms with the
/// lie its tree's seed names. The `HELLO` is read here to learn both, then
/// replayed to the request loop ahead of the rest of stdin.
fn lie() {
    let mut input = stdin().lock();
    let mut hello = Vec::new();
    assert_eq!(FrameReader::new(&mut input).recv(&mut hello).expect("HELLO"), tag::HELLO);
    let decoded = Hello::decode(&hello).expect("HELLO payload");
    let ShardWorkload::UtsGen(tree) = decoded.workload else { panic!("a generated tree") };
    let lie = LIES.iter().find(|lie| lie.seed == tree.seed).filter(|_| decoded.lo == 0);
    let mut replay = Vec::new();
    encode_frame(&mut replay, tag::HELLO, 0, &hello);
    let out = Liar { inner: stdout().lock(), lie, pending: Vec::new() };
    // The coordinator refuses the lie and kills this process.
    let _ = serve(Cursor::new(replay).chain(input), out);
}

/// A byte sink that passes every frame through but the first one under the
/// lie's tag, which it re-encodes with the lie told.
struct Liar<W> {
    inner: W,
    lie: Option<&'static Lie>,
    pending: Vec<u8>,
}

impl<W: Write> Write for Liar<W> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(bytes);
        loop {
            let (frame, used) = match decode_frame(&self.pending) {
                Ok(decoded) => decoded,
                Err(WireError::Truncated) => return Ok(bytes.len()),
                Err(e) => panic!("the request loop wrote a bad frame: {e}"),
            };
            match self.lie.filter(|lie| lie.tag == frame.tag) {
                Some(lie) => {
                    let mut payload = frame.payload.to_vec();
                    (lie.tell)(&mut payload);
                    let mut told = Vec::new();
                    encode_frame(&mut told, frame.tag, frame.seq, &payload);
                    self.inner.write_all(&told)?;
                    self.lie = None;
                }
                None => self.inner.write_all(&self.pending[..used])?,
            }
            self.pending.drain(..used);
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}
