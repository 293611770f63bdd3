//! The five workloads and how their inputs are made from `--seed`.
//!
//! A Galton–Watson tree's size varies by ±75 % from seed to seed at a fixed
//! depth, so "tree number `seed`" would make every timing a function of the
//! seed. Instead the seed starts a deterministic search for an instance of
//! the *pinned size*: candidates are probed by a shallow serial walk (the
//! size at depth `d` is the size at the probe depth times 4^(d − probe) to
//! within 0.5 %, measured), and the first one inside the window is taken.
//! The default seed is its own first candidate and sits in the middle of
//! every window, so `--seed 1` runs exactly the instances the counts in
//! [`Def::pinned`] were recorded on. The program under test sees only the
//! chosen instances.

use uts_core::{EngineConfig, Scheme};
use uts_machine::CostModel;
use uts_puzzle15::Puzzle15;
use uts_synth::GeometricTree;
use uts_synthgen::{splitmix64, GenTree};
use uts_tree::problem::BoundedProblem;
use uts_tree::TreeProblem;

/// Simulated counts that must repeat exactly (and are pinned for seed 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimCounts {
    pub nodes: u64,
    pub cycles: u64,
    pub phases: u64,
    pub transfers: u64,
}

/// One generated-tree instance run through `run` or `run_sharded`.
#[derive(Debug, Clone, Copy)]
pub struct TreeCase {
    pub p: usize,
    pub scheme: &'static str,
    pub depth: u32,
    /// Same P / shards / scheme on a shallower cut of the same tree: the
    /// warm run inside `setup_s`.
    pub warm_depth: u32,
    /// Worker processes; 0 runs the in-process macro engine.
    pub workers: usize,
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Tree(TreeCase),
    Serve,
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub kind: Kind,
    /// Runnable host threads or processes at once (provenance; rule 4 of
    /// the noise design keeps this at or below the core count).
    pub host_threads: usize,
    /// Counts of the `--seed 1` instance.
    pub pinned: Option<SimCounts>,
}

pub const DEFS: [Def; 5] = [
    Def {
        name: "burst-deep",
        kind: Kind::Tree(TreeCase {
            p: 8192,
            scheme: "gp-dk",
            depth: 13,
            warm_depth: 11,
            workers: 0,
        }),
        host_threads: 1,
        pinned: Some(SimCounts {
            nodes: 45_088_959,
            cycles: 5_696,
            phases: 381,
            transfers: 235_705,
        }),
    },
    // FEGS at depth 11 on 2^20 PEs, not the GP-S^0.9 depth-12 run on 2^18
    // first planned: that one spent 0.56 of its time in the burst kernel
    // (GP-S^0.9 stays at 0.35–0.56 at any size), and this workload exists to
    // be the one where balancing dominates. Traced on ten instances: burst
    // 0.17–0.25, balancing 0.7 in 11 phases of ~96k equalising transfers.
    Def {
        name: "balance-wide",
        kind: Kind::Tree(TreeCase {
            p: 1_048_576,
            scheme: "fegs",
            depth: 11,
            warm_depth: 9,
            workers: 0,
        }),
        host_threads: 1,
        pinned: Some(SimCounts { nodes: 2_818_963, cycles: 14, phases: 11, transfers: 1_057_036 }),
    },
    Def {
        name: "shard-wide",
        kind: Kind::Tree(TreeCase {
            p: 1_048_576,
            scheme: "gp-dk",
            depth: 11,
            warm_depth: 6,
            workers: 2,
        }),
        host_threads: 3,
        pinned: Some(SimCounts { nodes: 2_818_963, cycles: 53, phases: 52, transfers: 1_288_445 }),
    },
    Def {
        name: "shard-deep",
        kind: Kind::Tree(TreeCase {
            p: 8192,
            scheme: "gp-dk",
            depth: 13,
            warm_depth: 10,
            workers: 1,
        }),
        host_threads: 2,
        pinned: Some(SimCounts {
            nodes: 45_088_959,
            cycles: 5_696,
            phases: 381,
            transfers: 235_705,
        }),
    },
    Def { name: "serve-churn", kind: Kind::Serve, host_threads: 4, pinned: None },
];

pub fn find(name: &str) -> Option<&'static Def> {
    DEFS.iter().find(|d| d.name == name)
}

impl TreeCase {
    pub fn config(&self) -> EngineConfig {
        let scheme = Scheme::parse(self.scheme).expect("workload schemes are valid");
        EngineConfig::new(self.p, scheme, CostModel::cm2())
    }
}

/// What one invocation runs: the chosen tree (tree workloads) or the job
/// list, one single-line JSON spec per job (`serve-churn`).
#[derive(Debug, Clone, Default)]
pub struct Inputs {
    pub tree_seed: u64,
    pub jobs: Vec<String>,
}

pub fn generate(def: &Def, seed: u64) -> Inputs {
    match def.kind {
        Kind::Tree(_) => Inputs { tree_seed: pick_tree_seed(seed), jobs: Vec::new() },
        Kind::Serve => Inputs { tree_seed: 0, jobs: serve_jobs(seed) },
    }
}

/// Deterministic candidate stream of one `--seed`.
struct Candidates(u64);

impl Candidates {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }
}

/// Nodes of `problem`, or `None` as soon as the count passes `cap`.
fn count_capped<P: TreeProblem>(problem: &P, cap: u64) -> Option<u64> {
    let mut stack = vec![problem.root()];
    let mut children = Vec::new();
    let mut nodes = 0u64;
    while let Some(node) = stack.pop() {
        nodes += 1;
        if nodes > cap {
            return None;
        }
        problem.expand(&node, &mut children);
        stack.append(&mut children);
    }
    Some(nodes)
}

/// Next candidate of `stream` whose probe-depth cut holds `lo..=hi` nodes.
fn pick_in_window<P: TreeProblem>(
    stream: &mut Candidates,
    probe: impl Fn(u64) -> P,
    (lo, hi): (u64, u64),
) -> u64 {
    loop {
        let candidate = stream.next();
        if count_capped(&probe(candidate), hi).is_some_and(|n| n >= lo) {
            return candidate;
        }
    }
}

/// All four tree workloads cut one tree at different depths. A cheap
/// depth-8 walk (43,967 nodes ± 1.5 %; seed 1 holds exactly that) discards
/// most candidates, then the depth-10 cut must hold 702,000–716,000 nodes
/// (seed 1: 705,074), which pins the depth-11 to 13 cuts to within 1.5 %.
/// The lower edge is not symmetric on purpose: under about 2.79 M nodes at
/// depth 11 `balance-wide` takes one cycle fewer and a quarter more
/// transfers, and its wall time and peak memory step with them.
const TREE_PROBES: [(u32, u64, u64); 2] = [(8, 43_308, 44_626), (10, 702_000, 716_000)];

fn pick_tree_seed(seed: u64) -> u64 {
    let mut stream = Candidates(seed);
    let mut first = Some(seed);
    loop {
        let candidate = first.take().unwrap_or_else(|| stream.next());
        if TREE_PROBES.iter().all(|&(depth, lo, hi)| {
            count_capped(&GenTree::geometric(candidate, 8, depth), hi).is_some_and(|n| n >= lo)
        }) {
            return candidate;
        }
    }
}

pub fn tree(tree_seed: u64, depth: u32) -> GenTree {
    GenTree::geometric(tree_seed, 8, depth)
}

/// `serve-churn`: jobs drained per repetition, and how many of them run
/// once more beforehand as the warm instance.
pub const SERVE_JOBS: usize = 27;
pub const SERVE_WARM_JOBS: usize = 4;
pub const SERVE_CLIENTS: usize = 2;

/// Generated-tree jobs are depth-10 trees of 0.9–1.1 M nodes (depth-7 cut
/// of 14,062–17,187): 10–20 ms under macro and fused, 30–100 ms under par.
const JOB_DEPTH: u32 = 10;
const JOB_PROBE_DEPTH: u32 = 7;
const JOB_PROBE_WINDOW: (u64, u64) = (14_062, 17_187);

/// Puzzle jobs are single bounded iterations of 352–448 k nodes (about
/// 20 ms). Finding one costs several capped walks, so a run draws four and
/// reuses each under different engines and machine sizes.
const PUZZLES: usize = 4;
const PUZZLE_WALK: usize = 60;
const PUZZLE_WINDOW: (u64, u64) = (352_000, 448_000);

fn pick_puzzle(stream: &mut Candidates) -> (u64, u32) {
    loop {
        let seed = stream.next();
        let board = uts_puzzle15::scrambled(seed, PUZZLE_WALK).board();
        let puzzle = Puzzle15::new(board);
        let mut bound = board.manhattan();
        // Iteration sizes grow about fivefold per bound step: walk the
        // bounds up until one lands in the window or overshoots it.
        while bound <= 80 {
            match count_capped(&BoundedProblem::new(&puzzle, bound), PUZZLE_WINDOW.1) {
                Some(n) if n >= PUZZLE_WINDOW.0 => return (seed, bound),
                Some(_) => bound += 2,
                None => break,
            }
        }
    }
}

fn serve_jobs(seed: u64) -> Vec<String> {
    // Salted so the job stream is not the tree workloads' candidate stream.
    let mut stream = Candidates(seed ^ 0x5E12_7EC4_0121);
    let puzzles: Vec<(u64, u32)> = (0..PUZZLES).map(|_| pick_puzzle(&mut stream)).collect();
    (0..SERVE_JOBS)
        .map(|i| {
            let workload = match i % 3 {
                0 => {
                    let s = pick_in_window(
                        &mut stream,
                        |s| GenTree::geometric(s, 8, JOB_PROBE_DEPTH),
                        JOB_PROBE_WINDOW,
                    );
                    format!(
                        r#"{{"kind":"utsgen","family":"geometric","seed":{s},"b_max":8,"depth":{JOB_DEPTH}}}"#
                    )
                }
                1 => {
                    let s = pick_in_window(
                        &mut stream,
                        |s| GeometricTree { seed: s, b_max: 8, depth_limit: JOB_PROBE_DEPTH },
                        JOB_PROBE_WINDOW,
                    );
                    format!(r#"{{"kind":"synth","seed":{s},"b_max":8,"depth_limit":{JOB_DEPTH}}}"#)
                }
                _ => {
                    let (s, bound) = puzzles[(i / 3) % PUZZLES];
                    format!(
                        r#"{{"kind":"scramble","seed":{s},"walk":{PUZZLE_WALK},"bound":{bound}}}"#
                    )
                }
            };
            let engine = ["macro", "fused", "par"][(i / 3) % 3];
            let threads = if engine == "par" { r#","threads":2"# } else { "" };
            let p = [32, 64, 256][(i / 9) % 3];
            format!(r#"{{"workload":{workload},"p":{p},"engine":"{engine}"{threads}}}"#)
        })
        .collect()
}
