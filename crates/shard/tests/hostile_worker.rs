//! A worker that lies. Its frames are intact — checksum, sequence and tag
//! all good — but its first `BURST` reply disagrees with the PEs the
//! coordinator knows entered the burst. The reply names no PE: the
//! coordinator applies its lengths, in order, to its own sorted active list
//! restricted to the replying worker's range. Two lies:
//!
//! - one length more than the PEs that started;
//! - a `started` one higher than the worker's active PEs (with as many
//!   lengths).
//!
//! Trusted, either would hand shard 0's extra length to the next active PE
//! in the list, which belongs to shard 1. The run resumes a snapshot in
//! which both shards hold work, so that PE exists. The coordinator must
//! refuse each lie as [`ShardError::Reply`] from shard 0, never panic.
//!
//! `harness = false` because this binary is its own (dishonest) worker
//! executable: `resume_sharded` re-executes `current_exe()`. The worker
//! reads which lie to tell from the seed of the tree its `HELLO` names.

use std::io::{stdin, stdout};

use uts_ckpt::wire::{FrameReader, FrameWriter};
use uts_ckpt::{CheckpointPolicy, EngineSnapshot};
use uts_core::{config_fingerprint, run, EngineConfig, MergedBurst, Scheme};
use uts_machine::CostModel;
use uts_shard::proto::{decode_install, encode_burst_reply, encode_install_reply, tag, Hello};
use uts_shard::{resume_sharded, ShardError, ShardOpts, ShardWorkload, WORKER_ENV};
use uts_synthgen::{GenNode, GenTree};
use uts_tree::StackArena;

/// Tree seed → the lie the workers of that run tell.
const LIES: [(u64, &str); 2] = [
    (1, "one length more than the PEs that started"),
    (2, "a started count one higher than the worker's active PEs"),
];

const P: usize = 8;

fn main() {
    if std::env::var_os(WORKER_ENV).is_some() {
        return lie();
    }
    let cfg = EngineConfig::new(P, Scheme::gp_dk(), CostModel::cm2());
    for (seed, what) in LIES {
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

/// Ack `HELLO`, load the resumed range honestly (the coordinator checks
/// the lengths), answer the first `BURST` with the lie the tree's seed
/// names, then wait to be reaped.
fn lie() {
    let mut reader = FrameReader::new(stdin().lock());
    let mut writer = FrameWriter::new(stdout().lock());
    let mut buf = Vec::new();
    assert_eq!(reader.recv(&mut buf).expect("first frame"), tag::HELLO);
    let hello = Hello::decode(&buf).expect("HELLO payload");
    writer.send(tag::HELLO, &[]).expect("ack");
    let ShardWorkload::UtsGen(tree) = hello.workload else { panic!("a generated tree") };

    let mut arena = StackArena::<GenNode>::new((hello.hi - hello.lo) as usize);
    assert_eq!(reader.recv(&mut buf).expect("second frame"), tag::INSTALL);
    let lens: Vec<u32> = decode_install(&buf, arena.p())
        .expect("INSTALL payload")
        .into_iter()
        .map(|(pe, stack)| {
            arena.push_encoded(pe as usize, stack).expect("stack");
            arena.len_of(pe as usize) as u32
        })
        .collect();
    let mut payload = Vec::new();
    encode_install_reply(&mut payload, &lens);
    writer.send(tag::INSTALL, &payload).expect("INSTALL reply");

    // Every installed PE holds work, so these are the PEs that start; the
    // lie reports each unchanged, plus one more length.
    assert_eq!(reader.recv(&mut buf).expect("third frame"), tag::BURST);
    let mut payload = Vec::new();
    if tree.seed == LIES[0].0 {
        let honest = MergedBurst { started: lens.len(), ..MergedBurst::default() };
        encode_burst_reply(&mut payload, &honest, lens.iter().copied());
        payload.push(1);
    } else {
        let inflated = MergedBurst { started: lens.len() + 1, ..MergedBurst::default() };
        let more: Vec<u32> = lens.iter().copied().chain([1]).collect();
        encode_burst_reply(&mut payload, &inflated, more.into_iter());
    }
    writer.send(tag::BURST, &payload).expect("reply");
    let _ = reader.recv(&mut buf);
}
