//! Cross-process differential suite: the sharded machine must reproduce
//! the single-process macro engine **bit-identically** (full [`Outcome`],
//! ledger included) at every shard count, and its parked snapshots must
//! be interchangeable with the in-process checkpoint format.
//!
//! `harness = false` because this binary is its own worker executable:
//! `run_sharded` re-executes `current_exe()` with the worker mode switch
//! set, so `main` must call [`uts_shard::maybe_run_worker`] before
//! anything else.
//!
//! [`Outcome`]: uts_core::Outcome

use std::path::PathBuf;

use uts_ckpt::spill;
use uts_core::{resume_from_bytes, run, EngineConfig, Scheme};
use uts_machine::CostModel;
use uts_puzzle15::Puzzle15;
use uts_shard::{
    resume_sharded, run_sharded, ParkPolicy, ShardError, ShardOpts, ShardWorkload, WorkerKill,
};
use uts_synthgen::GenTree;
use uts_tree::ida::ida_star;
use uts_tree::problem::BoundedProblem;
use uts_tree::SplitPolicy;

fn main() {
    uts_shard::maybe_run_worker();

    utsgen_matches_macro_engine();
    split_policies_match();
    mesh_topology_matches();
    puzzle_matches_macro_engine();
    parked_snapshots_are_interchangeable();
    killed_worker_resumes_from_spill();
    counted_rounds_park_and_resume_across_shards();
    println!("shard_differential: all ok");
}

/// A self-cleaning scratch directory for spill parking.
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

/// Fully-instrumented config: ledger, horizon log and trace all feed the
/// `Outcome` equality, so any scheduling divergence shows up.
fn instrumented(p: usize, scheme: Scheme, cost: CostModel) -> EngineConfig {
    EngineConfig::new(p, scheme, cost).with_ledger().with_horizon_log().with_trace()
}

fn utsgen_matches_macro_engine() {
    let tree = GenTree::geometric(11, 8, 7);
    let workload = ShardWorkload::from(tree);
    for scheme in [Scheme::gp_dk(), Scheme::ngp_dk(), Scheme::gp_dp(), Scheme::fegs()] {
        let cfg = instrumented(64, scheme, CostModel::cm2());
        let want = run(&tree, &cfg);
        for shards in [1usize, 2, 4] {
            let got = run_sharded(&workload, &cfg, &opts(shards)).expect("sharded run");
            assert_eq!(
                got.outcome,
                want,
                "scheme {} with {shards} shard(s) diverged",
                cfg.scheme.name()
            );
            assert_eq!(got.stats.shards, shards);
        }
        println!("utsgen {} x shards {{1,2,4}}: bit-identical", cfg.scheme.name());
    }
}

fn split_policies_match() {
    let tree = GenTree::geometric(3, 8, 7);
    let workload = ShardWorkload::from(tree);
    for split in [SplitPolicy::Bottom, SplitPolicy::Half, SplitPolicy::Top] {
        let cfg = instrumented(48, Scheme::gp_dk(), CostModel::cm2()).with_split(split);
        let want = run(&tree, &cfg);
        // 3 shards over 48 PEs also exercises uneven slab arithmetic.
        let got = run_sharded(&workload, &cfg, &opts(3)).expect("sharded run");
        assert_eq!(got.outcome, want, "split {split:?} diverged");
    }
    println!("split policies x 3 shards: bit-identical");
}

fn mesh_topology_matches() {
    let tree = GenTree::geometric(7, 8, 7);
    let workload = ShardWorkload::from(tree);
    let cfg = instrumented(64, Scheme::ngp_dk(), CostModel::mesh());
    let want = run(&tree, &cfg);
    let got = run_sharded(&workload, &cfg, &opts(2)).expect("sharded run");
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
    let want = run(&BoundedProblem::new(&puzzle, bound), &cfg);
    let workload = ShardWorkload::Puzzle { board: inst.board().0, bound };
    for shards in [1usize, 4] {
        let got = run_sharded(&workload, &cfg, &opts(shards)).expect("sharded run");
        assert_eq!(got.outcome, want, "puzzle with {shards} shard(s) diverged");
    }
    println!("15-puzzle (bound {bound}) x shards {{1,4}}: bit-identical");
}

fn parked_snapshots_are_interchangeable() {
    let tmp = TempDir::new("park");
    let tree = GenTree::geometric(5, 8, 7);
    let workload = ShardWorkload::from(tree);
    let cfg = instrumented(32, Scheme::gp_dk(), CostModel::cm2());
    let want = run(&tree, &cfg);

    let mut with_park = opts(2);
    with_park.park = Some(ParkPolicy { dir: tmp.0.clone(), every: 2 });
    let got = run_sharded(&workload, &cfg, &with_park).expect("parking run");
    assert_eq!(got.outcome, want, "parking must not perturb the run");

    let jobs = spill::parked_jobs(&tmp.0).expect("list spill dir");
    assert!(!jobs.is_empty(), "boundary parks were written");
    let mid = jobs[jobs.len() / 2];
    let bytes = spill::unpark(&tmp.0, mid).expect("read parked snapshot");

    // The same bytes resume under the single-process engine...
    let resumed = resume_from_bytes(&tree, &cfg, &bytes).expect("in-process resume");
    assert_eq!(resumed, want, "in-process resume of a sharded park diverged");
    // ...and under the sharded machine at a different shard count.
    let resharded = resume_sharded(&workload, &cfg, &opts(3), &bytes).expect("sharded resume");
    assert_eq!(resharded.outcome, want, "re-sharded resume diverged");
    println!(
        "park interchange (boundary {mid} of {} parks): single-process and 3-shard resumes identical",
        jobs.len()
    );
}

fn killed_worker_resumes_from_spill() {
    let tmp = TempDir::new("kill");
    let tree = GenTree::geometric(5, 8, 7);
    let workload = ShardWorkload::from(tree);
    let cfg = instrumented(32, Scheme::gp_dk(), CostModel::cm2());
    let want = run(&tree, &cfg);
    assert!(want.macro_steps.len() > 5, "workload long enough to kill mid-run");

    let mut doomed = opts(2);
    doomed.park = Some(ParkPolicy { dir: tmp.0.clone(), every: 1 });
    doomed.kill = Some(WorkerKill { shard: 1, at_burst: 4 });
    match run_sharded(&workload, &cfg, &doomed) {
        Err(ShardError::WorkerLost { shard, .. }) => assert_eq!(shard, 1),
        other => panic!("expected WorkerLost, got {other:?}"),
    }

    let jobs = spill::parked_jobs(&tmp.0).expect("list spill dir");
    let last = *jobs.last().expect("at least one boundary parked before the kill");
    let bytes = spill::unpark(&tmp.0, last).expect("read parked snapshot");
    let recovered = resume_sharded(&workload, &cfg, &opts(2), &bytes).expect("recovery resume");
    assert_eq!(recovered.outcome, want, "recovery from the spill diverged");
    println!("SIGKILL at burst 4, recovered from boundary {last}: bit-identical");
}

/// FEGS equalizes by counted transfers, many of them across a shard cut
/// once the work has spread: the one leg where counted `EXTRACT` /
/// `INSTALL`, and the `INSTALL` that loads a resumed range, meet stacks
/// that are non-empty and multi-frame. 48 PEs cut 16/16/16 over three
/// shards, 50 cut 17/17/16.
fn counted_rounds_park_and_resume_across_shards() {
    let tree = GenTree::geometric(13, 8, 7);
    let workload = ShardWorkload::from(tree);
    for p in [48usize, 50] {
        let tmp = TempDir::new(&format!("fegs{p}"));
        let cfg = instrumented(p, Scheme::fegs(), CostModel::cm2());
        let want = run(&tree, &cfg);

        let mut parking = opts(3);
        parking.park = Some(ParkPolicy { dir: tmp.0.clone(), every: 1 });
        let got = run_sharded(&workload, &cfg, &parking).expect("parking run");
        assert_eq!(got.outcome, want, "FEGS at P={p} on 3 parking shards diverged");
        assert!(got.stats.route_total.steps > 0, "equalization moved work between PEs");

        let jobs = spill::parked_jobs(&tmp.0).expect("list spill dir");
        let mid = jobs[jobs.len() / 2];
        let bytes = spill::unpark(&tmp.0, mid).expect("read parked snapshot");
        let resumed = resume_from_bytes(&tree, &cfg, &bytes).expect("in-process resume");
        assert_eq!(resumed, want, "in-process resume of a FEGS park at P={p} diverged");
        let resharded = resume_sharded(&workload, &cfg, &opts(2), &bytes).expect("sharded resume");
        assert_eq!(resharded.outcome, want, "2-shard resume of a FEGS park at P={p} diverged");
        println!(
            "FEGS P={p} x 3 shards, parked at all {} boundaries, boundary {mid} resumed in process and on 2 shards: bit-identical",
            jobs.len()
        );
    }
}
