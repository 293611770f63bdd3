//! Cross-process differential suite: the sharded machine must reproduce
//! the single-process macro engine **bit-identically** (full [`Outcome`],
//! ledger included, and the snapshot of every macro-step boundary) at
//! every shard count, and the snapshots its checkpoint sink takes must be
//! interchangeable with the in-process ones.
//!
//! It also holds the paper's GP-vs-nGP contrast (Sec. 2.2) at machine
//! sizes the in-process suites never reach: GP's global pointer spreads
//! donations more evenly than nGP, at P = 4096 here and at P = 2^20 when
//! the binary is given `--ignored` or `--include-ignored`:
//!
//! ```text
//! cargo test --release -p uts-shard --test shard_differential -- --ignored
//! ```
//!
//! `harness = false` because this binary is its own worker executable:
//! `run_sharded` re-executes `current_exe()` with the worker mode switch
//! set, so `main` must call [`uts_shard::maybe_run_worker`] before
//! anything else.
//!
//! [`Outcome`]: uts_core::Outcome

use std::path::{Path, PathBuf};

use uts_ckpt::CheckpointPolicy;
use uts_core::{run, run_from, CheckpointCfg, EngineConfig, Outcome, Scheme, StackStore};
use uts_machine::{CostModel, DonationSpread};
use uts_puzzle15::Puzzle15;
use uts_shard::proto::tag;
use uts_shard::{
    resume_sharded, run_sharded, FrameTally, ShardError, ShardOpts, ShardRun, ShardWorkload,
    WorkerKill,
};
use uts_synthgen::{find_gen_tree, GenNode, GenTree};
use uts_tree::ida::ida_star;
use uts_tree::problem::BoundedProblem;
use uts_tree::{SplitPolicy, StackArena, TreeProblem};

fn main() {
    uts_shard::maybe_run_worker();

    utsgen_matches_macro_engine();
    split_policies_match();
    mesh_topology_matches();
    puzzle_matches_macro_engine();
    escaped_lengths_match_macro_engine();
    sharded_snapshots_are_interchangeable();
    killed_worker_resumes_from_its_last_snapshot();
    counted_rounds_checkpoint_and_resume_across_shards();
    directory_sink_resumes_on_two_shards();
    gp_spreads_donations_more_evenly_than_ngp(4096, [4, 2], 60_000);
    fegs_rounds_are_one_exchange_each(4096, GenTree::geometric(1, 8, 8));
    if std::env::args().any(|a| a == "--ignored" || a == "--include-ignored") {
        gp_spreads_donations_more_evenly_than_ngp(1 << 20, [8, 4], 4_000_000);
        fegs_rounds_are_one_exchange_each(1 << 20, GenTree::geometric(1, 8, 11));
    }
    println!("shard_differential: all ok");
}

/// A self-cleaning scratch directory for a directory sink.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("uts-shard-diff-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn opts(shards: usize) -> ShardOpts {
    ShardOpts { shards, park: None, kill: None }
}

/// Fully-instrumented config: ledger and trace both feed the `Outcome`
/// equality, so any scheduling divergence shows up.
fn instrumented(p: usize, scheme: Scheme, cost: CostModel) -> EngineConfig {
    EngineConfig::new(p, scheme, cost).with_ledger().with_trace()
}

/// The snapshot of every macro-step boundary a run writes: `cfg` armed
/// with `CheckpointPolicy::every(1)` into a fresh memory sink, and what
/// the sink held once `go` ran it. A stream pins where each step ended
/// and the whole engine state there, not just the final `Outcome`.
fn streamed<T>(cfg: &EngineConfig, go: impl FnOnce(&EngineConfig) -> T) -> (T, Vec<Vec<u8>>) {
    let armed = cfg.clone().with_checkpoint(CheckpointPolicy::every(1));
    let got = go(&armed);
    let sink = &armed.checkpoint.as_ref().expect("armed").sink;
    (got, sink.taken().into_iter().map(|s| s.bytes).collect())
}

/// The in-process run of `cfg` and its boundary stream.
fn run_streamed<P: TreeProblem>(problem: &P, cfg: &EngineConfig) -> (Outcome, Vec<Vec<u8>>) {
    let (want, stream) = streamed(cfg, |armed| run(problem, armed));
    assert!(!stream.is_empty(), "{}: the run has boundaries", cfg.scheme.name());
    (want, stream)
}

/// The sharded run of `cfg` and its boundary stream, which must equal the
/// in-process `want` byte for byte.
fn sharded_streamed(
    workload: &ShardWorkload,
    cfg: &EngineConfig,
    opts: &ShardOpts,
    want: &[Vec<u8>],
) -> ShardRun {
    let (got, stream) = streamed(cfg, |armed| run_sharded(workload, armed, opts));
    let got = got.expect("sharded run");
    let name = cfg.scheme.name();
    let shards = opts.shards;
    assert_eq!(stream.len(), want.len(), "{name} on {shards} shard(s): boundary count");
    if let Some(step) = stream.iter().zip(want).position(|(a, b)| a != b) {
        panic!("{name} on {shards} shard(s): snapshot of boundary {} differs", step + 1);
    }
    got
}

fn utsgen_matches_macro_engine() {
    let tree = GenTree::geometric(11, 8, 7);
    let workload = ShardWorkload::from(tree);
    // Ring-NN's wrap pair (PE 63 -> PE 0) crosses shards from 2 up.
    for scheme in
        [Scheme::gp_dk(), Scheme::ngp_dk(), Scheme::gp_dp(), Scheme::fegs(), Scheme::ring_nn()]
    {
        let cfg = instrumented(64, scheme, CostModel::cm2());
        let (want, stream) = run_streamed(&tree, &cfg);
        let charged = &want.ledger.as_ref().expect("instrumented").phases;
        for shards in [1usize, 2, 4] {
            let got = sharded_streamed(&workload, &cfg, &opts(shards), &stream);
            assert_eq!(
                got.outcome,
                want,
                "scheme {} with {shards} shard(s) diverged",
                cfg.scheme.name()
            );
            assert_eq!(got.stats.shards, shards);
            // One routed record per charged phase, its closed form the
            // cost the ledger charged.
            assert_eq!(got.stats.phases.len(), charged.len(), "{}", cfg.scheme.name());
            for (routed, ph) in got.stats.phases.iter().zip(charged) {
                assert_eq!(routed.closed_form, ph.cost, "{}", cfg.scheme.name());
            }
            // Every worker is greeted, sent every burst (one per boundary
            // and the last), and shut down; a `BURST` request is `h`.
            let fleet = shards as u64;
            let bursts = fleet * (stream.len() as u64 + 1);
            let (hello, burst, shutdown) = (
                got.stats.traffic(tag::HELLO),
                got.stats.traffic(tag::BURST),
                got.stats.traffic(tag::SHUTDOWN),
            );
            assert_eq!((hello.requests.frames, shutdown.replies.frames), (fleet, fleet));
            assert_eq!(burst.requests, FrameTally { frames: bursts, bytes: 8 * bursts });
            assert_eq!(burst.replies.frames, bursts);
        }
        println!(
            "utsgen {} x shards {{1,2,4}}: bit-identical, {} boundary snapshots",
            cfg.scheme.name(),
            stream.len()
        );
    }
}

fn split_policies_match() {
    let tree = GenTree::geometric(3, 8, 7);
    let workload = ShardWorkload::from(tree);
    for split in [SplitPolicy::Bottom, SplitPolicy::Half, SplitPolicy::Top] {
        let cfg = instrumented(48, Scheme::gp_dk(), CostModel::cm2()).with_split(split);
        let (want, stream) = run_streamed(&tree, &cfg);
        // 3 shards over 48 PEs also exercises uneven slab arithmetic.
        let got = sharded_streamed(&workload, &cfg, &opts(3), &stream);
        assert_eq!(got.outcome, want, "split {split:?} diverged");
    }
    println!("split policies x 3 shards: bit-identical");
}

fn mesh_topology_matches() {
    let tree = GenTree::geometric(7, 8, 7);
    let workload = ShardWorkload::from(tree);
    let cfg = instrumented(64, Scheme::ngp_dk(), CostModel::mesh());
    let (want, stream) = run_streamed(&tree, &cfg);
    let got = sharded_streamed(&workload, &cfg, &opts(2), &stream);
    assert_eq!(got.outcome, want, "mesh run diverged");
    // Every balancing phase must carry measured routing provenance.
    assert_eq!(got.stats.phases.len() as u64, want.report.n_lb, "one RoutedPhase per lb phase");
    if want.report.n_transfers > 0 {
        assert!(got.stats.route_total.steps > 0, "transfers happened but none were routed");
    }
    println!("mesh topology x 2 shards: bit-identical ({} routed phases)", got.stats.phases.len());
}

fn puzzle_matches_macro_engine() {
    let inst = uts_puzzle15::scrambled(42, 24);
    let puzzle = Puzzle15::new(inst.board());
    let bound = ida_star(&puzzle, 80).solution_cost.expect("solvable");
    let cfg = instrumented(32, Scheme::gp_dk(), CostModel::cm2());
    let (want, stream) = run_streamed(&BoundedProblem::new(&puzzle, bound), &cfg);
    let workload = ShardWorkload::Puzzle { board: inst.board().0, bound };
    for shards in [1usize, 4] {
        let got = sharded_streamed(&workload, &cfg, &opts(shards), &stream);
        assert_eq!(got.outcome, want, "puzzle with {shards} shard(s) diverged");
    }
    println!("15-puzzle (bound {bound}) x shards {{1,4}}: bit-identical");
}

/// A binomial tree whose root has 300 children, so a stack outgrows one
/// length byte and the replies carry escaped lengths (the byte 255 and a
/// `u32`): at P = 4 its peak stack is 314 nodes.
fn escaped_lengths_match_macro_engine() {
    let tree = GenTree::binomial(9, 300, 4, 0.21);
    let workload = ShardWorkload::from(tree);
    let cfg = instrumented(4, Scheme::gp_dk(), CostModel::cm2());
    let (want, stream) = run_streamed(&tree, &cfg);
    assert_eq!(want.peak_stack_nodes, 314, "the stacks outgrow one length byte");
    for shards in [1usize, 2] {
        let got = sharded_streamed(&workload, &cfg, &opts(shards), &stream);
        assert_eq!(got.outcome, want, "binomial with {shards} shard(s) diverged");
    }
    println!("binomial (peak stack 314) x shards {{1,2}}: bit-identical");
}

/// A sharded run snapshots through its config's checkpoint sink, at the
/// policy's boundaries only, and its snapshots resume under the
/// single-process engine and under the sharded machine at another shard
/// count.
fn sharded_snapshots_are_interchangeable() {
    let tree = GenTree::geometric(5, 8, 7);
    let workload = ShardWorkload::from(tree);
    let cfg = instrumented(32, Scheme::gp_dk(), CostModel::cm2());
    let (want, stream) = run_streamed(&tree, &cfg);

    let armed = cfg.clone().with_checkpoint(CheckpointPolicy::every(2));
    let got = run_sharded(&workload, &armed, &opts(2)).expect("sharded run");
    assert_eq!(got.outcome, want, "checkpointing must not perturb the run");
    let snaps = armed.checkpoint.as_ref().expect("armed").sink.taken();
    let steps: Vec<u64> = snaps.iter().map(|s| s.step).collect();
    let even: Vec<u64> = (1..=stream.len() as u64).filter(|s| s % 2 == 0).collect();
    assert_eq!(steps, even, "snapshots at exactly the policy's boundaries");
    let mid = &snaps[snaps.len() / 2];
    let bytes = &mid.bytes;

    // The same bytes resume under the single-process engine...
    let resumed = run_from(&tree, &cfg, Some(bytes)).expect("in-process resume");
    assert_eq!(resumed, want, "in-process resume of a sharded snapshot diverged");
    // ...and under the sharded machine at a different shard count.
    let resharded = resume_sharded(&workload, &cfg, &opts(3), bytes).expect("sharded resume");
    assert_eq!(resharded.outcome, want, "re-sharded resume diverged");
    println!(
        "snapshot interchange (boundary {}, one of {} at every 2nd boundary): single-process and 3-shard resumes identical",
        mid.step,
        snaps.len()
    );
}

/// The memory sink lives in the coordinator, so it outlasts a worker that
/// dies: the last boundary snapshot before the SIGKILL resumes the run.
fn killed_worker_resumes_from_its_last_snapshot() {
    let tree = GenTree::geometric(5, 8, 7);
    let workload = ShardWorkload::from(tree);
    let cfg = instrumented(32, Scheme::gp_dk(), CostModel::cm2());
    let (want, stream) = run_streamed(&tree, &cfg);
    assert!(stream.len() > 5, "workload long enough to kill mid-run");

    let armed = cfg.clone().with_checkpoint(CheckpointPolicy::every(1));
    let mut doomed = opts(2);
    doomed.kill = Some(WorkerKill { shard: 1, at_burst: 4 });
    match run_sharded(&workload, &armed, &doomed) {
        Err(ShardError::WorkerLost { shard, .. }) => assert_eq!(shard, 1),
        other => panic!("expected WorkerLost, got {other:?}"),
    }

    let snaps = armed.checkpoint.as_ref().expect("armed").sink.taken();
    let last = snaps.last().expect("at least one boundary snapshot before the kill");
    let recovered =
        resume_sharded(&workload, &cfg, &opts(2), &last.bytes).expect("recovery resume");
    assert_eq!(recovered.outcome, want, "recovery from the last snapshot diverged");
    println!("SIGKILL at burst 4, recovered from boundary {}: bit-identical", last.step);
}

/// FEGS equalizes by counted transfers, many of them across a shard cut
/// once the work has spread: the one leg where counted `EXTRACT` /
/// `INSTALL`, and the `INSTALL` that loads a resumed range, meet stacks
/// that are non-empty and multi-frame. 48 PEs cut 16/16/16 over three
/// shards, 50 cut 17/17/16.
fn counted_rounds_checkpoint_and_resume_across_shards() {
    let tree = GenTree::geometric(13, 8, 7);
    let workload = ShardWorkload::from(tree);
    for p in [48usize, 50] {
        let cfg = instrumented(p, Scheme::fegs(), CostModel::cm2());
        let (want, stream) = run_streamed(&tree, &cfg);

        let (got, snaps) = streamed(&cfg, |armed| run_sharded(&workload, armed, &opts(3)));
        let got = got.expect("sharded run");
        assert_eq!(got.outcome, want, "FEGS at P={p} on 3 checkpointing shards diverged");
        assert!(
            snaps == stream,
            "FEGS at P={p}: the 3-shard snapshots differ from the in-process ones"
        );
        assert!(got.stats.route_total.steps > 0, "equalization moved work between PEs");

        let mid = snaps.len() / 2;
        let bytes = &snaps[mid];
        let resumed = run_from(&tree, &cfg, Some(bytes)).expect("in-process resume");
        assert_eq!(resumed, want, "in-process resume of a FEGS snapshot at P={p} diverged");
        let resharded = resume_sharded(&workload, &cfg, &opts(2), bytes).expect("sharded resume");
        assert_eq!(resharded.outcome, want, "2-shard resume of a FEGS snapshot at P={p} diverged");
        println!(
            "FEGS P={p} x 3 shards, snapshots at all {} boundaries, boundary {} resumed in process and on 2 shards: bit-identical",
            snaps.len(),
            mid + 1
        );
    }
}

/// The directory sink under the sharded machine: one `ckpt-{step:08}.bin`
/// per policy boundary and nothing else, each file the in-process snapshot
/// of its boundary and resumable on two shards; a directory it cannot
/// write ends the run as `ShardError::Checkpoint`. (The in-process half is
/// in the root package's `tests/checkpoint_resume.rs`, whose test binary
/// cannot serve as a shard worker.)
fn directory_sink_resumes_on_two_shards() {
    let tmp = TempDir::new("dir");
    let tree = GenTree::geometric(5, 8, 7);
    let workload = ShardWorkload::from(tree);
    let cfg = instrumented(32, Scheme::gp_dk(), CostModel::cm2());
    let (want, stream) = run_streamed(&tree, &cfg);

    let into_dir = |dir: &Path, every| {
        cfg.clone()
            .with_checkpoint_cfg(CheckpointCfg::new(CheckpointPolicy::every(every)).into_dir(dir))
    };
    let ckpt = tmp.0.join("ckpt");
    let got = run_sharded(&workload, &into_dir(&ckpt, 25), &opts(2)).expect("sharded run");
    assert_eq!(got.outcome, want, "a directory sink must not perturb the run");
    let mut names: Vec<String> = std::fs::read_dir(&ckpt)
        .expect("the sink created its directory")
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
        .collect();
    names.sort();
    let steps: Vec<usize> = (1..=stream.len()).filter(|s| s % 25 == 0).collect();
    let expected: Vec<String> = steps.iter().map(|s| format!("ckpt-{s:08}.bin")).collect();
    assert_eq!(names, expected, "one file per policy boundary, no .tmp left");
    for (step, name) in steps.iter().zip(&names) {
        let bytes = std::fs::read(ckpt.join(name)).expect("read snapshot");
        assert!(bytes == stream[step - 1], "{name} differs from the in-process snapshot");
        let resharded = resume_sharded(&workload, &cfg, &opts(2), &bytes).expect("sharded resume");
        assert_eq!(resharded.outcome, want, "2-shard resume of {name} diverged");
    }

    // A regular file where the directory should be: the first write fails.
    let blocker = tmp.0.join("file");
    std::fs::write(&blocker, b"").expect("write blocker");
    match run_sharded(&workload, &into_dir(&blocker.join("x"), 1), &opts(2)) {
        Err(ShardError::Checkpoint(e)) => {
            assert!(e.to_string().contains("ckpt-00000001.bin"), "error names the file: {e}");
        }
        other => panic!("expected ShardError::Checkpoint, got {other:?}"),
    }
    println!(
        "directory sink x 2 shards: {} files at every 25th boundary, each resumed bit-identically",
        names.len()
    );
}

/// GP-D^K and nGP-D^K with the ledger on, on a generated tree of about
/// `target` nodes at `p` PEs: GP finishes with the same outcome at both
/// shard counts, and its donation Gini is below nGP's.
fn gp_spreads_donations_more_evenly_than_ngp(p: usize, shards: [usize; 2], target: u64) {
    let sized = find_gen_tree(target, 0.25, 24);
    let workload = ShardWorkload::from(sized.tree);
    let run_at = |scheme, n| {
        let cfg = EngineConfig::new(p, scheme, CostModel::cm2()).with_ledger();
        run_sharded(&workload, &cfg, &opts(n)).expect("sharded run").outcome
    };
    let gini = |out: &Outcome| DonationSpread::of(&out.donations).gini;
    let gp_out = run_at(Scheme::gp_dk(), shards[0]);
    assert!(
        run_at(Scheme::gp_dk(), shards[1]) == gp_out,
        "GP at P={p}: {shards:?} shards diverged"
    );
    let (gp, ngp) = (gini(&gp_out), gini(&run_at(Scheme::ngp_dk(), shards[0])));
    assert!(gp < ngp, "P={p}: GP donation gini {gp:.4} is not below nGP's {ngp:.4}");
    println!(
        "W={} at P={p}: GP identical at shards {shards:?}, donation gini GP {gp:.4} < nGP {ngp:.4}",
        sized.w
    );
}

/// The in-process equalizer applies a FEGS round in windows of at most
/// `StackStore::max_batch` requests; the remote store takes every round
/// whole, so a round stays one `MOVE`/`EXTRACT`/`INSTALL` exchange and one
/// routed permutation. Each routed phase must count exactly the rounds the
/// ledger charged for it. At P = 2^20 (with `--ignored`) some round is
/// larger than the in-process window, which is where a windowed remote
/// store would count more.
fn fegs_rounds_are_one_exchange_each(p: usize, tree: GenTree) {
    let cfg = EngineConfig::new(p, Scheme::fegs(), CostModel::cm2()).with_ledger();
    let want = run(&tree, &cfg);
    let got = run_sharded(&ShardWorkload::from(tree), &cfg, &opts(2)).expect("sharded run");
    assert_eq!(got.outcome, want, "FEGS at P={p} on 2 shards diverged");
    let charged = &want.ledger.as_ref().expect("ledger on").phases;
    assert_eq!(got.stats.phases.len(), charged.len(), "FEGS at P={p}: routed phases");
    for (routed, ph) in got.stats.phases.iter().zip(charged) {
        assert_eq!(routed.rounds, ph.rounds, "FEGS at P={p}, phase at cycle {}", ph.at_cycle);
    }
    let window = StackStore::max_batch(&StackArena::<GenNode>::new(1)) as u64;
    let widest = got.stats.phases.iter().map(|ph| ph.messages / u64::from(ph.rounds)).max();
    println!(
        "FEGS P={p} x 2 shards: {} phases, one exchange per round (widest mean round {} \
         transfers, window {window})",
        charged.len(),
        widest.unwrap_or(0)
    );
    if p >= 1 << 20 {
        assert!(widest > Some(window), "FEGS at P={p}: no round wider than one window");
    }
}
