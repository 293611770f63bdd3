//! The nearest-neighbor scheme of Frye & Myczkowski (paper Sec. 8):
//! "after each node expansion cycle the processors that have work check to
//! see if their neighbors are idle. If this is the case then they transfer
//! work to them."
//!
//! We realize it on a ring (1-D torus): after every expansion cycle, each
//! busy processor whose right neighbor is idle donates one split. The
//! transfer is neighbor-to-neighbor, so the machine is charged `U_comm`
//! (not the full routed `t_lb`) per balancing step. The paper notes this
//! family's isoefficiency is sensitive to the splitting quality —
//! observable here via [`NnConfig::split`].
//!
//! **Checkpointing:** this engine does *not* participate in the
//! [`crate::ckpt`] subsystem. It is a deliberately separate baseline with
//! its own [`NnConfig`]/[`NnOutcome`] types — it balances after *every*
//! expansion cycle, so it has no macro-step boundaries for a
//! [`uts_ckpt::CheckpointPolicy`] to select, and it sits outside the
//! four-engine bit-identical contract that makes snapshots
//! engine-invariant. A run here is also short and cheap to redo; fault
//! tolerance buys nothing. Its runs are fully deterministic (see the
//! repeatability test below), so re-running *is* resuming.

use uts_machine::{CostModel, Report, SimdMachine};
use uts_tree::{SearchStack, SplitPolicy, TreeProblem};

/// Configuration for the nearest-neighbor run.
#[derive(Debug, Clone)]
pub struct NnConfig {
    /// Ensemble size (ring length).
    pub p: usize,
    /// Machine timing model (uses `u_calc` and `u_comm`).
    pub cost: CostModel,
    /// Split policy used for neighbor donations.
    pub split: SplitPolicy,
    /// Safety valve for tests.
    pub max_cycles: Option<u64>,
}

impl NnConfig {
    /// Defaults: bottom split, no cycle cap.
    pub fn new(p: usize, cost: CostModel) -> Self {
        Self { p, cost, split: SplitPolicy::Bottom, max_cycles: None }
    }
}

/// Outcome of a nearest-neighbor run.
#[derive(Debug, Clone)]
pub struct NnOutcome {
    /// Machine accounting. `n_lb` counts the cycles in which at least one
    /// neighbor transfer happened.
    pub report: Report,
    /// Goal nodes found.
    pub goals: u64,
    /// True if `max_cycles` fired.
    pub truncated: bool,
}

/// Run `problem` under ring nearest-neighbor balancing.
pub fn run_nearest_neighbor<P: TreeProblem>(problem: &P, cfg: &NnConfig) -> NnOutcome {
    assert!(cfg.p > 0);
    // Neighbor steps cost U_comm instead of the routed t_lb: express that
    // by overriding the cost model's balancing cost with u_comm.
    let mut cost = cfg.cost;
    cost.lb_setup = 0;
    cost.lb_transfer = cfg.cost.u_comm;
    cost.topology = uts_machine::Topology::Cm2; // constant per-step cost
    let mut machine = SimdMachine::new(cfg.p, cost);

    let mut stacks: Vec<SearchStack<P::Node>> = (0..cfg.p).map(|_| SearchStack::new()).collect();
    stacks[0] = SearchStack::from_root(problem.root());
    let mut goals = 0u64;
    let mut truncated = false;
    let mut children: Vec<P::Node> = Vec::new();

    loop {
        // Expansion cycle.
        let mut worked = 0usize;
        for stack in stacks.iter_mut() {
            if let Some(node) = stack.pop_next() {
                worked += 1;
                if problem.is_goal(&node) {
                    goals += 1;
                }
                children.clear();
                problem.expand(&node, &mut children);
                stack.push_frame(std::mem::take(&mut children));
            }
        }
        machine.expansion_cycle(worked);
        if stacks.iter().all(|s| s.is_empty()) {
            break;
        }
        if cfg.max_cycles.is_some_and(|m| machine.metrics().n_expand >= m) {
            truncated = true;
            break;
        }

        // Neighbor balancing step: busy PE i feeds idle PE (i+1) mod P.
        // Decisions are taken against the pre-step state (lockstep SIMD),
        // so a PE fed this step cannot donate in the same step.
        let idle_before: Vec<bool> = stacks.iter().map(|s| s.is_empty()).collect();
        let busy_before: Vec<bool> = stacks.iter().map(|s| s.can_split()).collect();
        let mut transfers = 0u64;
        for i in 0..cfg.p {
            let right = (i + 1) % cfg.p;
            if right != i && busy_before[i] && idle_before[right] {
                if let Some(chunk) = stacks[i].split(cfg.split) {
                    stacks[right] = chunk;
                    transfers += 1;
                }
            }
        }
        if transfers > 0 {
            machine.lb_phase(1, transfers);
        }
    }

    let w = machine.metrics().nodes_expanded;
    NnOutcome { report: machine.finish(w), goals, truncated }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uts_synth::GeometricTree;
    use uts_tree::serial_dfs;

    fn geo(seed: u64) -> GeometricTree {
        GeometricTree { seed, b_max: 8, depth_limit: 6 }
    }

    #[test]
    fn nn_is_anomaly_free() {
        let tree = geo(2);
        let w = serial_dfs(&tree).expanded;
        for p in [1usize, 2, 8, 64] {
            let out = run_nearest_neighbor(&tree, &NnConfig::new(p, CostModel::cm2()));
            assert_eq!(out.report.nodes_expanded, w, "P={p}");
            assert!(!out.truncated);
        }
    }

    #[test]
    fn nn_finds_serial_goals() {
        let tree = geo(3);
        let serial = serial_dfs(&tree);
        let out = run_nearest_neighbor(&tree, &NnConfig::new(16, CostModel::cm2()));
        assert_eq!(out.goals, serial.goals);
    }

    #[test]
    fn nn_single_processor_never_balances() {
        let tree = geo(4);
        let out = run_nearest_neighbor(&tree, &NnConfig::new(1, CostModel::cm2()));
        assert_eq!(out.report.n_lb, 0);
    }

    #[test]
    fn nn_work_diffuses_slower_than_global_matching() {
        // Ring diffusion reaches PEs one hop per step, so the idle time on
        // a wide machine should be at least that of a global scheme.
        let tree = GeometricTree { seed: 6, b_max: 8, depth_limit: 7 };
        let nn = run_nearest_neighbor(&tree, &NnConfig::new(128, CostModel::cm2()));
        let global = crate::local::run(
            &tree,
            &crate::engine::EngineConfig::new(
                128,
                crate::scheme::Scheme::gp_static(0.9),
                CostModel::cm2(),
            ),
        );
        assert!(
            nn.report.t_idle >= global.report.t_idle,
            "nn {} vs global {}",
            nn.report.t_idle,
            global.report.t_idle
        );
    }

    #[test]
    fn nn_accounting_identity() {
        let tree = geo(5);
        let out = run_nearest_neighbor(&tree, &NnConfig::new(32, CostModel::cm2()));
        assert!(out.report.accounting_identity_holds());
    }

    #[test]
    fn nn_is_deterministic_run_to_run() {
        // No checkpoint/resume here (see the module docs): the substitute
        // guarantee is that re-running reproduces the run exactly.
        let tree = geo(7);
        let cfg = NnConfig::new(32, CostModel::cm2());
        let a = run_nearest_neighbor(&tree, &cfg);
        let b = run_nearest_neighbor(&tree, &cfg);
        assert_eq!(a.report, b.report);
        assert_eq!(a.goals, b.goals);
        assert_eq!(a.truncated, b.truncated);
    }

    #[test]
    fn nn_max_cycles_truncates_and_reports_it() {
        let tree = geo(2);
        let mut cfg = NnConfig::new(4, CostModel::cm2());
        cfg.max_cycles = Some(3);
        let out = run_nearest_neighbor(&tree, &cfg);
        assert!(out.truncated);
        assert_eq!(out.report.n_expand, 3);
        let full = run_nearest_neighbor(&tree, &NnConfig::new(4, CostModel::cm2()));
        assert!(out.report.nodes_expanded < full.report.nodes_expanded);
    }

    #[test]
    fn nn_split_policy_changes_diffusion_not_work() {
        // Splitting quality shifts *when* work spreads (the paper's
        // isoefficiency sensitivity), never *how much* work exists.
        let tree = geo(8);
        let w = serial_dfs(&tree).expanded;
        for split in [SplitPolicy::Bottom, SplitPolicy::Half, SplitPolicy::Top] {
            let mut cfg = NnConfig::new(16, CostModel::cm2());
            cfg.split = split;
            let out = run_nearest_neighbor(&tree, &cfg);
            assert_eq!(out.report.nodes_expanded, w, "{split:?}");
        }
    }

    #[test]
    fn nn_transfers_only_feed_idle_right_neighbors() {
        // On a 2-ring the donor can only ever feed PE 1; the very first
        // balancing step must move work there, after which some cycles
        // expand two nodes — so node count exceeds cycle count.
        let tree = geo(9);
        let out = run_nearest_neighbor(&tree, &NnConfig::new(2, CostModel::cm2()));
        assert!(out.report.n_transfers >= 1);
        assert!(out.report.nodes_expanded > out.report.n_expand, "both PEs worked some cycle");
    }
}
