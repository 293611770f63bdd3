//! A worker that lies. Its frames are intact — checksum, sequence and tag
//! all good — but its first `BURST` reply reports a new length for a PE
//! one past its own range. The coordinator indexes its length mirror with
//! those PEs, so it must refuse the reply as [`ShardError::Reply`] rather
//! than panic or overwrite a neighbouring shard's entry.
//!
//! `harness = false` because this binary is its own (dishonest) worker
//! executable: `run_sharded` re-executes `current_exe()`.

use std::io::{stdin, stdout};

use uts_ckpt::wire::{FrameReader, FrameWriter};
use uts_core::{EngineConfig, Scheme};
use uts_machine::CostModel;
use uts_shard::proto::{tag, BurstReply, Hello};
use uts_shard::{run_sharded, ShardError, ShardOpts, ShardWorkload, WORKER_ENV};
use uts_synthgen::GenTree;

fn main() {
    if std::env::var_os(WORKER_ENV).is_some() {
        return lie();
    }
    let cfg = EngineConfig::new(8, Scheme::gp_dk(), CostModel::cm2());
    let workload = ShardWorkload::from(GenTree::geometric(1, 4, 4));
    match run_sharded(&workload, &cfg, &ShardOpts { shards: 2, park: None, kill: None }) {
        Err(ShardError::Reply { shard: 0, source }) => {
            println!("hostile_worker: refused ({source})")
        }
        other => panic!("expected ShardError::Reply from shard 0, got {other:?}"),
    }
}

/// Ack `HELLO`, answer the first `BURST` with an out-of-range length
/// update, then wait to be reaped.
fn lie() {
    let mut reader = FrameReader::new(stdin().lock());
    let mut writer = FrameWriter::new(stdout().lock());
    let mut buf = Vec::new();
    assert_eq!(reader.recv(&mut buf).expect("first frame"), tag::HELLO);
    let hello = Hello::decode(&buf).expect("HELLO payload");
    writer.send(tag::HELLO, &[]).expect("ack");
    assert_eq!(reader.recv(&mut buf).expect("second frame"), tag::BURST);
    let one_past = (hello.hi - hello.lo) as u32;
    let reply = BurstReply { started: 1, changed: vec![(one_past, 1)], ..BurstReply::default() };
    let mut payload = Vec::new();
    reply.encode(&mut payload);
    writer.send(tag::BURST, &payload).expect("reply");
    let _ = reader.recv(&mut buf);
}
