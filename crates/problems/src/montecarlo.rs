//! Weighted path enumeration for functional-integral evaluation — the
//! "Monte-Carlo evaluations of functional integrals" motivation of the
//! paper's introduction (its ref. 35, Frye & Myczkowski, used exactly this
//! kind of tree with CM-2 load balancing).
//!
//! The search space is the tree of discretized paths of a random walk:
//! each node extends the path by one of `branching` moves, multiplying the
//! path's weight by a move-dependent factor. Paths whose weight falls
//! below a cutoff are pruned (their contribution is negligible), which
//! makes the tree *irregular* — heavy branches go deep, light branches
//! terminate early — precisely the load-balancing stress the paper
//! targets. Leaves at the horizon contribute `weight × payoff` to the
//! integral.
//!
//! Weights are kept in integer micro-units so the tree (and therefore any
//! parallel run) is exactly reproducible; the integral estimate is the
//! *sum over contributing leaves*, which every machine in this workspace
//! computes identically (it is a goal-count-style reduction).

use uts_tree::{Children, TreeProblem};

/// Weight fixed-point scale (1.0 == `SCALE`).
pub const SCALE: u64 = 1_000_000;

/// A partial path: depth, current walk position (lattice site), and the
/// accumulated weight in micro-units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathNode {
    /// Steps taken.
    pub depth: u16,
    /// Lattice position (signed).
    pub site: i32,
    /// Accumulated weight, in units of 1/[`SCALE`].
    pub weight: u64,
}

impl uts_tree::CkptNode for PathNode {
    fn encode_node(&self, out: &mut Vec<u8>) {
        uts_tree::codec::put_u16(out, self.depth);
        uts_tree::codec::put_i32(out, self.site);
        uts_tree::codec::put_u64(out, self.weight);
    }
    fn decode_node(r: &mut uts_tree::Reader<'_>) -> Result<Self, uts_tree::CodecError> {
        Ok(Self { depth: r.u16()?, site: r.i32()?, weight: r.u64()? })
    }
}

/// The discretized path-integral tree.
#[derive(Debug, Clone)]
pub struct PathIntegral {
    /// Time horizon (path length).
    pub horizon: u16,
    /// Per-step weight factor for a +1 move, in micro-units (e.g. 600 000
    /// = 0.6).
    pub up_factor: u64,
    /// Per-step weight factor for a −1 move.
    pub down_factor: u64,
    /// Prune paths whose weight drops below this (micro-units).
    pub cutoff: u64,
}

impl PathIntegral {
    /// A symmetric walk with the given per-step damping and cutoff.
    ///
    /// # Panics
    /// Panics if a factor exceeds `SCALE` (weights must not grow — the
    /// tree would not be prunable) or the cutoff is zero.
    pub fn new(horizon: u16, up_factor: u64, down_factor: u64, cutoff: u64) -> Self {
        assert!(up_factor <= SCALE && down_factor <= SCALE, "factors must damp");
        assert!(cutoff > 0, "a zero cutoff never prunes and the tree is 2^horizon");
        Self { horizon, up_factor, down_factor, cutoff }
    }

    /// Exact integral by dynamic programming over (depth, site) —
    /// the oracle for the tree evaluation. Payoff: `max(site, 0)` at the
    /// horizon. Returns micro-units (truncation matches the tree's
    /// per-path integer arithmetic only approximately; see
    /// [`PathIntegral::integral_via_search`] for the exact tree sum).
    pub fn integral_via_enumeration(&self) -> u64 {
        // Full enumeration with the same pruning — reference implementation
        // independent of the TreeProblem machinery.
        fn go(p: &PathIntegral, depth: u16, site: i32, weight: u64) -> u64 {
            if depth == p.horizon {
                return weight * site.max(0) as u64;
            }
            let mut total = 0;
            let up = weight * p.up_factor / SCALE;
            if up >= p.cutoff {
                total += go(p, depth + 1, site + 1, up);
            }
            let down = weight * p.down_factor / SCALE;
            if down >= p.cutoff {
                total += go(p, depth + 1, site - 1, down);
            }
            total
        }
        go(self, 0, 0, SCALE)
    }

    /// Evaluate the integral by serial tree search (sums the same leaves
    /// the parallel engines visit).
    pub fn integral_via_search(&self) -> u64 {
        let mut total = 0u64;
        uts_tree::serial_dfs_collect(self, |leaf| {
            total += leaf.weight * leaf.site.max(0) as u64;
        });
        total
    }
}

impl TreeProblem for PathIntegral {
    type Node = PathNode;

    fn root(&self) -> PathNode {
        PathNode { depth: 0, site: 0, weight: SCALE }
    }

    fn expand(&self, node: &PathNode, out: &mut impl Children<PathNode>) {
        if node.depth == self.horizon {
            return;
        }
        let up = node.weight * self.up_factor / SCALE;
        if up >= self.cutoff {
            out.push(PathNode { depth: node.depth + 1, site: node.site + 1, weight: up });
        }
        let down = node.weight * self.down_factor / SCALE;
        if down >= self.cutoff {
            out.push(PathNode { depth: node.depth + 1, site: node.site - 1, weight: down });
        }
    }

    /// Goals are the contributing leaves (horizon reached with positive
    /// payoff site).
    fn is_goal(&self, node: &PathNode) -> bool {
        node.depth == self.horizon && node.site > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uts_tree::serial_dfs;

    fn toy() -> PathIntegral {
        PathIntegral::new(12, 900_000, 800_000, 50_000)
    }

    #[test]
    fn tree_sum_matches_reference_enumeration() {
        let p = toy();
        assert_eq!(p.integral_via_search(), p.integral_via_enumeration());
        assert!(p.integral_via_search() > 0);
    }

    #[test]
    fn pruning_makes_the_tree_irregular_and_subexponential() {
        let p = toy();
        let stats = serial_dfs(&p);
        assert!(stats.expanded > 100, "non-trivial: {}", stats.expanded);
        assert!(stats.expanded < 1 << 13, "pruned well below 2^13: {}", stats.expanded);
        // Asymmetric damping: down-paths die sooner, so some up-leaf goals
        // exist while full-depth down-paths are pruned.
        assert!(stats.goals > 0);
    }

    #[test]
    fn zero_horizon_is_single_node() {
        let p = PathIntegral::new(0, 900_000, 900_000, 1);
        assert_eq!(serial_dfs(&p).expanded, 1);
        assert_eq!(p.integral_via_search(), 0, "payoff at site 0 is 0");
    }

    #[test]
    fn no_damping_rejected() {
        // up factor > 1.0 would grow weights forever.
        let r = std::panic::catch_unwind(|| PathIntegral::new(4, SCALE + 1, SCALE, 1));
        assert!(r.is_err());
    }

    #[test]
    fn parallel_engines_agree_on_the_integral_support() {
        use uts_core::{run, EngineConfig, Scheme};
        use uts_machine::CostModel;
        let p = toy();
        let serial = serial_dfs(&p);
        let out = run(&p, &EngineConfig::new(32, Scheme::gp_dk(), CostModel::cm2()));
        assert_eq!(out.report.nodes_expanded, serial.expanded);
        assert_eq!(out.goals, serial.goals, "identical contributing-leaf set");
    }

    #[test]
    fn tighter_cutoff_prunes_more() {
        let loose = PathIntegral::new(12, 900_000, 800_000, 10_000);
        let tight = PathIntegral::new(12, 900_000, 800_000, 200_000);
        assert!(serial_dfs(&tight).expanded < serial_dfs(&loose).expanded);
        // And the integral estimate only loses low-weight mass.
        assert!(tight.integral_via_search() <= loose.integral_via_search());
    }
}
