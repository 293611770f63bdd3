//! DPLL model counting over seeded random 3-SAT. A node is a partial
//! assignment; expansion branches the first unset variable both ways and
//! unit-propagates each child to a fixed point, dropping it on a conflict.
//! Goals are complete assignments, which are models, so an exhaustive
//! search counts them.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use simd_tree_search::prelude::*;

/// A literal: a variable and whether it appears negated.
struct Lit {
    var: usize,
    negated: bool,
}

/// DPLL over a CNF formula of `num_vars` variables.
pub struct Dpll {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
}

impl Dpll {
    /// Unit-propagate `a` to a fixed point. `false` when a clause is
    /// falsified.
    fn propagate(&self, a: &mut [Option<bool>]) -> bool {
        loop {
            let mut changed = false;
            for clause in &self.clauses {
                if clause.iter().any(|l| a[l.var] == Some(!l.negated)) {
                    continue;
                }
                let mut unset = clause.iter().filter(|l| a[l.var].is_none());
                match (unset.next(), unset.next()) {
                    (None, _) => return false,
                    (Some(l), None) => {
                        a[l.var] = Some(!l.negated);
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                return true;
            }
        }
    }
}

impl TreeProblem for Dpll {
    /// The partial assignment, `None` for an unset variable.
    type Node = Vec<Option<bool>>;

    fn root(&self) -> Self::Node {
        vec![None; self.num_vars]
    }

    fn expand(&self, node: &Self::Node, out: &mut impl Children<Self::Node>) {
        let Some(var) = node.iter().position(Option::is_none) else { return };
        for value in [false, true] {
            let mut child = node.clone();
            child[var] = Some(value);
            if self.propagate(&mut child) {
                out.push(child);
            }
        }
    }

    fn is_goal(&self, node: &Self::Node) -> bool {
        !node.contains(&None)
    }
}

/// A seeded random 3-SAT formula: `num_clauses` clauses of three distinct
/// variables out of `num_vars`, each negated with probability 1/2.
pub fn random_3sat(seed: u64, num_vars: u32, num_clauses: u32) -> Dpll {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let clauses = (0..num_clauses)
        .map(|_| {
            let mut vars = Vec::with_capacity(3);
            while vars.len() < 3 {
                let v = rng.random_range(0..num_vars);
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            vars.into_iter()
                .map(|v| Lit { var: v as usize, negated: rng.random_bool(0.5) })
                .collect()
        })
        .collect();
    Dpll { num_vars: num_vars as usize, clauses }
}

#[test]
fn model_count_equals_brute_force_on_small_formulas() {
    for seed in 0..6 {
        let dpll = random_3sat(seed, 8, 28);
        let holds = |bits: u32| {
            dpll.clauses.iter().all(|c| c.iter().any(|l| (bits >> l.var & 1 == 1) != l.negated))
        };
        let brute = (0u32..1 << 8).filter(|&bits| holds(bits)).count() as u64;
        assert_eq!(serial_dfs(&dpll).goals, brute, "seed {seed}");
    }
}
