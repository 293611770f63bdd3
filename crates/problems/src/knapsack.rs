//! 0/1 knapsack by depth-first branch-and-bound — the operations-research
//! corner of the paper's motivation (Papadimitriou & Steiglitz).
//!
//! Items are pre-sorted by value density. A node fixes a prefix of
//! include/exclude decisions; children are pruned when (a) the item no
//! longer fits, or (b) the fractional-relaxation upper bound on the
//! remaining value cannot beat a *precomputed greedy incumbent*. Using a
//! static incumbent (instead of a shared, improving one) keeps the tree
//! identical for serial and lockstep-parallel execution — the anomaly-free
//! regime of the paper. Goals are complete decision vectors whose value
//! strictly beats the incumbent; exhaustive search therefore enumerates
//! every improvement on greedy, and the best of them is the optimum.

use uts_tree::{Children, TreeProblem};

/// One item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    /// Weight (capacity units).
    pub weight: u32,
    /// Value.
    pub value: u32,
}

/// A search node: decisions made for items `0..next`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnapsackNode {
    /// Next item to decide.
    pub next: u16,
    /// Weight used so far.
    pub weight: u32,
    /// Value collected so far.
    pub value: u32,
}

impl uts_tree::CkptNode for KnapsackNode {
    fn encode_node(&self, out: &mut Vec<u8>) {
        uts_tree::codec::put_u16(out, self.next);
        uts_tree::codec::put_u32(out, self.weight);
        uts_tree::codec::put_u32(out, self.value);
    }
    fn decode_node(r: &mut uts_tree::Reader<'_>) -> Result<Self, uts_tree::CodecError> {
        Ok(Self { next: r.u16()?, weight: r.u32()?, value: r.u32()? })
    }
}

/// The 0/1 knapsack problem, with items sorted by value density and a
/// greedy incumbent for bound pruning.
#[derive(Debug, Clone)]
pub struct Knapsack {
    items: Vec<Item>,
    capacity: u32,
    greedy_value: u32,
}

impl Knapsack {
    /// Build a problem; items are re-sorted by decreasing value density.
    ///
    /// # Panics
    /// Panics if any item has zero weight (the relaxation would divide by
    /// zero; zero-weight items belong in the sack unconditionally).
    pub fn new(mut items: Vec<Item>, capacity: u32) -> Self {
        assert!(items.iter().all(|i| i.weight > 0), "zero-weight items are not allowed");
        items.sort_by(|a, b| {
            (b.value as u64 * a.weight as u64).cmp(&(a.value as u64 * b.weight as u64))
        });
        let greedy_value = Self::greedy(&items, capacity);
        Self { items, capacity, greedy_value }
    }

    /// The items in density order.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// The capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Value of the greedy (density-order) packing — the static incumbent.
    pub fn greedy_value(&self) -> u32 {
        self.greedy_value
    }

    fn greedy(items: &[Item], capacity: u32) -> u32 {
        let mut weight = 0;
        let mut value = 0;
        for item in items {
            if weight + item.weight <= capacity {
                weight += item.weight;
                value += item.value;
            }
        }
        value
    }

    /// Fractional-relaxation upper bound on the total value achievable
    /// from `node` (density order makes the greedy fractional fill
    /// optimal for the relaxation).
    pub fn upper_bound(&self, node: &KnapsackNode) -> f64 {
        let mut bound = node.value as f64;
        let mut room = (self.capacity - node.weight) as f64;
        for item in &self.items[node.next as usize..] {
            if room <= 0.0 {
                break;
            }
            let take = (item.weight as f64).min(room);
            bound += item.value as f64 * take / item.weight as f64;
            room -= take;
        }
        bound
    }

    /// Exact optimum by dynamic programming (test oracle).
    pub fn dp_optimum(&self) -> u32 {
        let mut best = vec![0u32; self.capacity as usize + 1];
        for item in &self.items {
            for cap in (item.weight..=self.capacity).rev() {
                let with = best[(cap - item.weight) as usize] + item.value;
                if with > best[cap as usize] {
                    best[cap as usize] = with;
                }
            }
        }
        best[self.capacity as usize]
    }

    /// The best value reachable by the pruned search: the maximum of the
    /// greedy incumbent and every goal's value. (A convenience for callers
    /// that just want the optimum; `serial_dfs_collect` exposes the goals.)
    pub fn optimum_via_search(&self) -> u32 {
        let mut best = self.greedy_value;
        uts_tree::serial::serial_dfs_collect(self, |node| best = best.max(node.value));
        best
    }
}

impl TreeProblem for Knapsack {
    type Node = KnapsackNode;

    fn root(&self) -> KnapsackNode {
        KnapsackNode { next: 0, weight: 0, value: 0 }
    }

    fn expand(&self, node: &KnapsackNode, out: &mut impl Children<KnapsackNode>) {
        let idx = node.next as usize;
        if idx >= self.items.len() {
            return;
        }
        let item = self.items[idx];
        // Exclude branch first (so DFS explores the include branch first —
        // the stack pops from the back).
        let exclude = KnapsackNode { next: node.next + 1, ..*node };
        if self.upper_bound(&exclude) > self.greedy_value as f64 {
            out.push(exclude);
        }
        if node.weight + item.weight <= self.capacity {
            let include = KnapsackNode {
                next: node.next + 1,
                weight: node.weight + item.weight,
                value: node.value + item.value,
            };
            if self.upper_bound(&include) > self.greedy_value as f64 {
                out.push(include);
            }
        }
    }

    fn is_goal(&self, node: &KnapsackNode) -> bool {
        node.next as usize == self.items.len() && node.value > self.greedy_value
    }
}

/// Seeded random instances: weights in `1..=max_weight`, values loosely
/// correlated with weights (correlated instances are the hard ones).
pub fn random_instance(seed: u64, n: usize, max_weight: u32) -> Knapsack {
    use rand::prelude::*;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let items: Vec<Item> = (0..n)
        .map(|_| {
            let weight = rng.random_range(1..=max_weight);
            let value = weight + rng.random_range(0..=max_weight / 2);
            Item { weight, value }
        })
        .collect();
    let total: u32 = items.iter().map(|i| i.weight).sum();
    Knapsack::new(items, total / 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uts_tree::serial_dfs;

    fn toy() -> Knapsack {
        Knapsack::new(
            vec![
                Item { weight: 2, value: 3 },
                Item { weight: 3, value: 4 },
                Item { weight: 4, value: 5 },
                Item { weight: 5, value: 6 },
            ],
            5,
        )
    }

    #[test]
    fn items_sorted_by_density() {
        let k = toy();
        let densities: Vec<f64> =
            k.items().iter().map(|i| i.value as f64 / i.weight as f64).collect();
        assert!(densities.windows(2).all(|w| w[0] >= w[1]), "{densities:?}");
    }

    #[test]
    fn greedy_is_a_lower_bound_dp_is_exact() {
        let k = toy();
        assert!(k.greedy_value() <= k.dp_optimum());
        assert_eq!(k.dp_optimum(), 7, "items (2,3)+(3,4) fill capacity 5");
    }

    #[test]
    fn search_finds_the_dp_optimum() {
        for seed in 0..8 {
            let k = random_instance(seed, 16, 30);
            assert_eq!(k.optimum_via_search(), k.dp_optimum(), "seed {seed}");
        }
    }

    #[test]
    fn goals_strictly_beat_greedy() {
        let k = random_instance(3, 14, 25);
        let greedy = k.greedy_value();
        uts_tree::serial::serial_dfs_collect(&k, |node| {
            assert!(node.value > greedy);
            assert!(node.weight <= k.capacity());
        });
    }

    #[test]
    fn bound_pruning_shrinks_the_tree() {
        // Compare against an unpruned enumeration count 2^(n+1)-1.
        let k = random_instance(1, 18, 20);
        let stats = serial_dfs(&k);
        assert!(
            stats.expanded < (1u64 << 19),
            "pruning must beat full enumeration: {}",
            stats.expanded
        );
        // And pruning is usually dramatic on correlated instances.
        assert!(stats.expanded < 1u64 << 16, "expanded {}", stats.expanded);
    }

    #[test]
    fn upper_bound_dominates_true_value() {
        let k = toy();
        let root = k.root();
        assert!(k.upper_bound(&root) >= k.dp_optimum() as f64);
    }

    #[test]
    #[should_panic(expected = "zero-weight")]
    fn zero_weight_rejected() {
        let _ = Knapsack::new(vec![Item { weight: 0, value: 1 }], 5);
    }

    #[test]
    fn parallel_lockstep_matches_serial() {
        use uts_core::{run, EngineConfig, Scheme};
        use uts_machine::CostModel;
        let k = random_instance(7, 20, 30);
        let serial = serial_dfs(&k);
        let out = run(&k, &EngineConfig::new(64, Scheme::gp_dp(), CostModel::cm2()));
        assert_eq!(out.report.nodes_expanded, serial.expanded);
        assert_eq!(out.goals, serial.goals);
    }
}
