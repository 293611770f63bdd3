//! An asynchronous (MIMD) work-stealing baseline.
//!
//! The paper's closing claim (Sec. 9) is that its SIMD schemes scale "no
//! worse than that of the best load balancing schemes on MIMD
//! architectures" — the receiver-initiated schemes analyzed by Kumar, Grama
//! & Rao. This crate provides those baselines on a cycle-quantized
//! *asynchronous* simulator: unlike the SIMD machine, each processor acts
//! independently every cycle — an idle processor polls a donor of its own
//! choosing while the others keep expanding; there are no global phases and
//! no lockstep idling.
//!
//! Steal policies ([`StealPolicy`]):
//!
//! * **GlobalRoundRobin** — one shared counter names the next poll target
//!   (best V(P), but the counter is a contention point; we charge an
//!   access-serialization penalty to model it);
//! * **AsyncRoundRobin** — a private per-processor counter;
//! * **RandomPolling** — uniformly random targets;
//! * **NeighborPolling** — poll ring neighbors only (work diffusion).
//!
//! A poll costs a round trip of [`MimdConfig::latency_cycles`]; a donor
//! answers with an alpha-split of its stack ([`SplitPolicy`]) or a reject.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use uts_machine::{CostModel, SimTime};
use uts_tree::{SearchStack, SplitPolicy, TreeProblem};

/// Whom an idle processor polls for work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealPolicy {
    /// Targets from one global counter (GRR).
    GlobalRoundRobin,
    /// Targets from a per-processor counter (ARR).
    AsyncRoundRobin,
    /// Uniformly random targets (RP).
    RandomPolling,
    /// Ring neighbors, alternating sides (NN).
    NeighborPolling,
}

impl StealPolicy {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            StealPolicy::GlobalRoundRobin => "GRR",
            StealPolicy::AsyncRoundRobin => "ARR",
            StealPolicy::RandomPolling => "RP",
            StealPolicy::NeighborPolling => "NN",
        }
    }
}

/// MIMD run configuration.
#[derive(Debug, Clone)]
pub struct MimdConfig {
    /// Number of processors.
    pub p: usize,
    /// Steal policy.
    pub policy: StealPolicy,
    /// Timing model (`u_calc` per expansion; a poll round trip costs
    /// `latency_cycles * u_calc`).
    pub cost: CostModel,
    /// Poll round-trip latency, in expansion cycles.
    pub latency_cycles: u32,
    /// Split policy donors use.
    pub split: SplitPolicy,
    /// RNG seed (random polling).
    pub seed: u64,
}

impl MimdConfig {
    /// Defaults: latency 1 cycle, bottom split, seed 0.
    pub fn new(p: usize, policy: StealPolicy, cost: CostModel) -> Self {
        Self { p, policy, cost, latency_cycles: 1, split: SplitPolicy::Bottom, seed: 0 }
    }
}

/// Outcome of a MIMD run, in the same vocabulary as the SIMD reports.
#[derive(Debug, Clone)]
pub struct MimdReport {
    /// Processors.
    pub p: usize,
    /// Nodes expanded (`W` when anomaly-free).
    pub nodes_expanded: u64,
    /// Wall cycles until completion.
    pub cycles: u64,
    /// Work requests issued.
    pub requests: u64,
    /// Successful work transfers.
    pub transfers: u64,
    /// PE-cycles spent idle (waiting on polls).
    pub idle_pe_cycles: u64,
    /// Parallel time (virtual).
    pub t_par: SimTime,
    /// Efficiency `W·U_calc / (P·T_par)`.
    pub efficiency: f64,
    /// Goals found.
    pub goals: u64,
}

/// Per-processor asynchronous state.
enum PeState {
    Working,
    /// Waiting for a poll round trip to complete at `ready_cycle`,
    /// targeting `target`.
    Polling {
        target: usize,
        ready_cycle: u64,
    },
}

/// Run `problem` under asynchronous work stealing.
pub fn run_mimd<P: TreeProblem>(problem: &P, cfg: &MimdConfig) -> MimdReport {
    assert!(cfg.p > 0);
    let p = cfg.p;
    let mut stacks: Vec<SearchStack<P::Node>> = (0..p).map(|_| SearchStack::new()).collect();
    stacks[0] = SearchStack::from_root(problem.root());
    let mut states: Vec<PeState> = (0..p).map(|_| PeState::Working).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut grr_counter = 0usize;
    let mut arr_counters: Vec<usize> = (0..p).map(|i| (i + 1) % p).collect();
    let mut nn_side: Vec<bool> = vec![false; p];

    let mut cycles = 0u64;
    let mut nodes = 0u64;
    let mut goals = 0u64;
    let mut requests = 0u64;
    let mut transfers = 0u64;
    let mut idle_pe_cycles = 0u64;
    let mut children: Vec<P::Node> = Vec::new();

    while !stacks.iter().all(|s| s.is_empty()) {
        cycles += 1;
        for i in 0..p {
            if !stacks[i].is_empty() {
                // Expand one node this cycle.
                states[i] = PeState::Working;
                let node = stacks[i].pop_next().expect("non-empty");
                nodes += 1;
                if problem.is_goal(&node) {
                    goals += 1;
                }
                children.clear();
                problem.expand(&node, &mut children);
                stacks[i].push_frame(std::mem::take(&mut children));
                continue;
            }
            // Idle: poll for work.
            idle_pe_cycles += 1;
            if p == 1 {
                continue;
            }
            match states[i] {
                PeState::Working => {
                    // Issue a fresh request.
                    let target = next_target(
                        cfg.policy,
                        i,
                        p,
                        &mut grr_counter,
                        &mut arr_counters,
                        &mut nn_side,
                        &mut rng,
                    );
                    requests += 1;
                    states[i] = PeState::Polling {
                        target,
                        ready_cycle: cycles + cfg.latency_cycles as u64,
                    };
                }
                PeState::Polling { target, ready_cycle } => {
                    if cycles >= ready_cycle {
                        // Round trip complete: the donor answers now.
                        if stacks[target].can_split() {
                            if let Some(chunk) = stacks[target].split(cfg.split) {
                                stacks[i] = chunk;
                                transfers += 1;
                                states[i] = PeState::Working;
                                continue;
                            }
                        }
                        // Reject: immediately re-poll a new target.
                        let target = next_target(
                            cfg.policy,
                            i,
                            p,
                            &mut grr_counter,
                            &mut arr_counters,
                            &mut nn_side,
                            &mut rng,
                        );
                        requests += 1;
                        states[i] = PeState::Polling {
                            target,
                            ready_cycle: cycles + cfg.latency_cycles as u64,
                        };
                    }
                }
            }
        }
    }

    let t_par = cycles * cfg.cost.u_calc;
    let t_calc = nodes as f64 * cfg.cost.u_calc as f64;
    let efficiency = if cycles == 0 { 1.0 } else { t_calc / (p as f64 * t_par as f64) };
    MimdReport {
        p,
        nodes_expanded: nodes,
        cycles,
        requests,
        transfers,
        idle_pe_cycles,
        t_par,
        efficiency,
        goals,
    }
}

#[allow(clippy::too_many_arguments)]
fn next_target(
    policy: StealPolicy,
    me: usize,
    p: usize,
    grr: &mut usize,
    arr: &mut [usize],
    nn_side: &mut [bool],
    rng: &mut ChaCha8Rng,
) -> usize {
    let avoid_self = |t: usize| if t == me { (t + 1) % p } else { t };
    match policy {
        StealPolicy::GlobalRoundRobin => {
            let t = *grr % p;
            *grr = (*grr + 1) % p;
            avoid_self(t)
        }
        StealPolicy::AsyncRoundRobin => {
            let t = arr[me] % p;
            arr[me] = (arr[me] + 1) % p;
            avoid_self(t)
        }
        StealPolicy::RandomPolling => {
            let t = rng.random_range(0..p);
            avoid_self(t)
        }
        StealPolicy::NeighborPolling => {
            nn_side[me] = !nn_side[me];
            if nn_side[me] {
                (me + 1) % p
            } else {
                (me + p - 1) % p
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uts_synth::GeometricTree;
    use uts_tree::serial_dfs;

    fn geo(seed: u64) -> GeometricTree {
        GeometricTree { seed, b_max: 8, depth_limit: 6 }
    }

    fn policies() -> [StealPolicy; 4] {
        [
            StealPolicy::GlobalRoundRobin,
            StealPolicy::AsyncRoundRobin,
            StealPolicy::RandomPolling,
            StealPolicy::NeighborPolling,
        ]
    }

    #[test]
    fn all_policies_expand_serial_node_count() {
        let tree = geo(2);
        let w = serial_dfs(&tree).expanded;
        for policy in policies() {
            for p in [1usize, 2, 16, 64] {
                let out = run_mimd(&tree, &MimdConfig::new(p, policy, CostModel::cm2()));
                assert_eq!(out.nodes_expanded, w, "{} P={p}", policy.name());
            }
        }
    }

    #[test]
    fn all_policies_find_serial_goals() {
        let tree = geo(3);
        let g = serial_dfs(&tree).goals;
        for policy in policies() {
            let out = run_mimd(&tree, &MimdConfig::new(8, policy, CostModel::cm2()));
            assert_eq!(out.goals, g, "{}", policy.name());
        }
    }

    #[test]
    fn single_processor_is_serial_time() {
        let tree = geo(4);
        let w = serial_dfs(&tree).expanded;
        let out =
            run_mimd(&tree, &MimdConfig::new(1, StealPolicy::RandomPolling, CostModel::cm2()));
        assert_eq!(out.cycles, w);
        assert!((out.efficiency - 1.0).abs() < 1e-12);
        assert_eq!(out.requests, 0);
    }

    #[test]
    fn efficiency_decreases_with_p_for_fixed_w() {
        let tree = geo(5);
        for policy in policies() {
            let mut last = f64::INFINITY;
            for p in [2usize, 8, 32, 128] {
                let out = run_mimd(&tree, &MimdConfig::new(p, policy, CostModel::cm2()));
                assert!(out.efficiency <= last + 1e-9, "{} P={p}", policy.name());
                last = out.efficiency;
            }
        }
    }

    #[test]
    fn random_polling_is_seed_deterministic() {
        let tree = geo(6);
        let mut cfg = MimdConfig::new(16, StealPolicy::RandomPolling, CostModel::cm2());
        cfg.seed = 9;
        let a = run_mimd(&tree, &cfg);
        let b = run_mimd(&tree, &cfg);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.requests, b.requests);
    }

    #[test]
    fn transfers_bounded_by_requests() {
        let tree = geo(2);
        for policy in policies() {
            let out = run_mimd(&tree, &MimdConfig::new(32, policy, CostModel::cm2()));
            assert!(out.transfers <= out.requests, "{}", policy.name());
            assert!(out.transfers > 0, "{} must share work", policy.name());
        }
    }

    #[test]
    fn higher_latency_hurts_efficiency() {
        let tree = geo(8);
        let mut cfg = MimdConfig::new(64, StealPolicy::RandomPolling, CostModel::cm2());
        cfg.latency_cycles = 1;
        let fast = run_mimd(&tree, &cfg);
        cfg.latency_cycles = 16;
        let slow = run_mimd(&tree, &cfg);
        assert!(slow.efficiency <= fast.efficiency + 1e-9);
    }
}
