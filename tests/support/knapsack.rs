//! 0/1 knapsack by depth-first branch-and-bound. Items are sorted by value
//! density; a child is pruned when its item does not fit or when the
//! fractional-relaxation bound cannot beat the greedy packing's value. That
//! incumbent is fixed, not improving, so serial and parallel searches expand
//! the same tree. Goals are complete packings that beat greedy; the best of
//! them, or greedy itself, is the optimum.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use simd_tree_search::prelude::*;
use simd_tree_search::tree::serial_dfs_collect;

struct Item {
    weight: u32,
    value: u32,
}

/// A knapsack instance with its items in decreasing value density.
pub struct Knapsack {
    items: Vec<Item>,
    capacity: u32,
    greedy_value: u32,
}

/// `(next item to decide, weight so far, value so far)`.
type Node = (usize, u32, u32);

impl Knapsack {
    /// Fractional-relaxation upper bound on the total value reachable from
    /// `node` (density order makes the greedy fractional fill optimal).
    fn upper_bound(&self, (next, weight, value): Node) -> f64 {
        let mut bound = value as f64;
        let mut room = (self.capacity - weight) as f64;
        for item in &self.items[next..] {
            if room <= 0.0 {
                break;
            }
            let take = (item.weight as f64).min(room);
            bound += item.value as f64 * take / item.weight as f64;
            room -= take;
        }
        bound
    }

    /// The exact optimum by dynamic programming over capacities.
    pub fn dp_optimum(&self) -> u32 {
        let mut best = vec![0u32; self.capacity as usize + 1];
        for item in &self.items {
            for cap in (item.weight..=self.capacity).rev() {
                best[cap as usize] =
                    best[cap as usize].max(best[(cap - item.weight) as usize] + item.value);
            }
        }
        best[self.capacity as usize]
    }

    /// The best value the pruned search finds: greedy's or a goal's.
    pub fn optimum_via_search(&self) -> u32 {
        let mut best = self.greedy_value;
        serial_dfs_collect(self, |&(_, _, value)| best = best.max(value));
        best
    }
}

impl TreeProblem for Knapsack {
    type Node = Node;

    fn root(&self) -> Node {
        (0, 0, 0)
    }

    fn expand(&self, &(next, weight, value): &Node, out: &mut impl Children<Node>) {
        let Some(item) = self.items.get(next) else { return };
        let incumbent = self.greedy_value as f64;
        // Exclude first, so DFS (which pops the back) tries include first.
        let exclude = (next + 1, weight, value);
        if self.upper_bound(exclude) > incumbent {
            out.push(exclude);
        }
        if weight + item.weight <= self.capacity {
            let include = (next + 1, weight + item.weight, value + item.value);
            if self.upper_bound(include) > incumbent {
                out.push(include);
            }
        }
    }

    fn is_goal(&self, &(next, _, value): &Node) -> bool {
        next == self.items.len() && value > self.greedy_value
    }
}

/// A seeded instance of `n` items: weights in `1..=max_weight`, values
/// loosely correlated with weights (the hard kind), and a capacity of half
/// the total weight.
pub fn random_instance(seed: u64, n: usize, max_weight: u32) -> Knapsack {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut items: Vec<Item> = (0..n)
        .map(|_| {
            let weight = rng.random_range(1..=max_weight);
            Item { weight, value: weight + rng.random_range(0..=max_weight / 2) }
        })
        .collect();
    let capacity = items.iter().map(|i| i.weight).sum::<u32>() / 2;
    items.sort_by(|a, b| {
        (b.value as u64 * a.weight as u64).cmp(&(a.value as u64 * b.weight as u64))
    });
    let mut room = capacity;
    let mut greedy_value = 0;
    for item in &items {
        if item.weight <= room {
            room -= item.weight;
            greedy_value += item.value;
        }
    }
    Knapsack { items, capacity, greedy_value }
}
