//! DPLL propositional satisfiability as a tree search — the "backtracking"
//! family of the paper's Sec. 2 (Horowitz & Sahni), and the kind of
//! automatic-test-generation workload its references [2, 28] parallelize.
//!
//! A [`Dpll`] problem wraps a CNF formula; nodes are partial assignments.
//! Expansion performs *unit propagation* to a fixed point, prunes
//! conflicts, and branches the first unassigned variable both ways. The
//! search is exhaustive — goals are *models* (complete satisfying
//! assignments) — so serial and parallel runs agree exactly, and counting
//! goals model-counts the formula (#SAT over the branching tree).

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use uts_tree::{Children, TreeProblem};

/// A literal: variable index with sign (`+v` = true, `-v` = false),
/// encoded as `2 * var + (negated as usize)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lit(pub u32);

impl Lit {
    /// A positive or negative literal of `var`.
    pub fn new(var: u32, negated: bool) -> Self {
        Lit(2 * var + negated as u32)
    }

    /// The variable index.
    pub fn var(self) -> u32 {
        self.0 / 2
    }

    /// Whether the literal is negated.
    pub fn negated(self) -> bool {
        self.0 % 2 == 1
    }
}

/// A CNF formula: clauses of literals over variables `0..num_vars`.
#[derive(Debug, Clone)]
pub struct Cnf {
    /// Number of variables.
    pub num_vars: u32,
    /// Clauses (each a disjunction of literals).
    pub clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// Evaluate under a complete assignment (for tests / verification).
    pub fn satisfied_by(&self, assignment: &[bool]) -> bool {
        assert_eq!(assignment.len(), self.num_vars as usize);
        self.clauses
            .iter()
            .all(|clause| clause.iter().any(|l| assignment[l.var() as usize] != l.negated()))
    }
}

/// Truth value of a variable in a partial assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Val {
    Unset,
    True,
    False,
}

/// A partial assignment (one per tree node; cloned on branching, which is
/// exactly the self-contained-node requirement of the lockstep engine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    vals: Vec<Val>,
    assigned: u32,
}

impl uts_tree::CkptNode for Assignment {
    fn encode_node(&self, out: &mut Vec<u8>) {
        // `assigned` is derivable (count of non-Unset), so only the value
        // vector goes on the wire — canonical by construction.
        uts_tree::codec::put_usize(out, self.vals.len());
        for v in &self.vals {
            out.push(match v {
                Val::Unset => 0,
                Val::True => 1,
                Val::False => 2,
            });
        }
    }
    fn decode_node(r: &mut uts_tree::Reader<'_>) -> Result<Self, uts_tree::CodecError> {
        let n = r.len(1)?;
        let mut vals = Vec::with_capacity(n);
        for _ in 0..n {
            vals.push(match r.u8()? {
                0 => Val::Unset,
                1 => Val::True,
                2 => Val::False,
                _ => return Err(uts_tree::CodecError::Malformed("Val byte not 0/1/2")),
            });
        }
        let assigned = vals.iter().filter(|v| !matches!(v, Val::Unset)).count() as u32;
        Ok(Self { vals, assigned })
    }
}

impl Assignment {
    fn empty(num_vars: u32) -> Self {
        Self { vals: vec![Val::Unset; num_vars as usize], assigned: 0 }
    }

    fn get(&self, var: u32) -> Val {
        self.vals[var as usize]
    }

    fn set(&mut self, var: u32, value: bool) {
        debug_assert_eq!(self.vals[var as usize], Val::Unset);
        self.vals[var as usize] = if value { Val::True } else { Val::False };
        self.assigned += 1;
    }

    /// Whether every variable is assigned.
    pub fn is_complete(&self) -> bool {
        self.assigned as usize == self.vals.len()
    }

    /// Extract the boolean vector (complete assignments only).
    pub fn to_bools(&self) -> Vec<bool> {
        self.vals
            .iter()
            .map(|v| match v {
                Val::True => true,
                Val::False => false,
                Val::Unset => panic!("assignment is incomplete"),
            })
            .collect()
    }
}

/// DPLL over a CNF: unit propagation + first-unassigned branching.
#[derive(Debug, Clone)]
pub struct Dpll {
    cnf: Cnf,
}

/// What propagation found.
enum Propagation {
    Conflict,
    Stable,
}

impl Dpll {
    /// Wrap a formula.
    pub fn new(cnf: Cnf) -> Self {
        Self { cnf }
    }

    /// The wrapped formula.
    pub fn cnf(&self) -> &Cnf {
        &self.cnf
    }

    /// Unit-propagate `a` to a fixed point. Returns `Conflict` if a clause
    /// is falsified.
    fn propagate(&self, a: &mut Assignment) -> Propagation {
        loop {
            let mut changed = false;
            for clause in &self.cnf.clauses {
                let mut unassigned: Option<Lit> = None;
                let mut n_unassigned = 0;
                let mut satisfied = false;
                for &l in clause {
                    match a.get(l.var()) {
                        Val::Unset => {
                            n_unassigned += 1;
                            unassigned = Some(l);
                        }
                        Val::True if !l.negated() => {
                            satisfied = true;
                            break;
                        }
                        Val::False if l.negated() => {
                            satisfied = true;
                            break;
                        }
                        _ => {}
                    }
                }
                if satisfied {
                    continue;
                }
                match n_unassigned {
                    0 => return Propagation::Conflict,
                    1 => {
                        let l = unassigned.expect("counted one unassigned literal");
                        a.set(l.var(), !l.negated());
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                return Propagation::Stable;
            }
        }
    }
}

impl TreeProblem for Dpll {
    type Node = Assignment;

    fn root(&self) -> Assignment {
        Assignment::empty(self.cnf.num_vars)
    }

    fn expand(&self, node: &Assignment, out: &mut impl Children<Assignment>) {
        if node.is_complete() {
            return;
        }
        let var = node
            .vals
            .iter()
            .position(|&v| v == Val::Unset)
            .expect("incomplete assignment has an unset variable") as u32;
        for value in [false, true] {
            let mut child = node.clone();
            child.set(var, value);
            match self.propagate(&mut child) {
                Propagation::Conflict => {}
                Propagation::Stable => out.push(child),
            }
        }
    }

    fn is_goal(&self, node: &Assignment) -> bool {
        node.is_complete()
    }
}

/// Generate a seeded random 3-SAT instance with `num_vars` variables and
/// `num_clauses` clauses (three distinct variables per clause, random
/// signs). The clause/variable ratio controls hardness (~4.27 is the
/// classic threshold).
pub fn random_3sat(seed: u64, num_vars: u32, num_clauses: u32) -> Cnf {
    assert!(num_vars >= 3, "3-SAT needs at least three variables");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut clauses = Vec::with_capacity(num_clauses as usize);
    for _ in 0..num_clauses {
        let mut vars = Vec::with_capacity(3);
        while vars.len() < 3 {
            let v = rng.random_range(0..num_vars);
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        clauses.push(vars.into_iter().map(|v| Lit::new(v, rng.random_bool(0.5))).collect());
    }
    Cnf { num_vars, clauses }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uts_tree::{serial_dfs, serial_dfs_collect};

    fn lit(v: u32) -> Lit {
        Lit::new(v, false)
    }
    fn nlit(v: u32) -> Lit {
        Lit::new(v, true)
    }

    #[test]
    fn literal_encoding_round_trips() {
        let l = Lit::new(7, true);
        assert_eq!(l.var(), 7);
        assert!(l.negated());
        let l = Lit::new(3, false);
        assert_eq!(l.var(), 3);
        assert!(!l.negated());
    }

    #[test]
    fn trivially_satisfiable_formula() {
        // (x0) with 1 variable: exactly one model.
        let cnf = Cnf { num_vars: 1, clauses: vec![vec![lit(0)]] };
        let stats = serial_dfs(&Dpll::new(cnf));
        assert_eq!(stats.goals, 1);
    }

    #[test]
    fn unsatisfiable_formula_has_no_models() {
        // (x0) ∧ (¬x0).
        let cnf = Cnf { num_vars: 1, clauses: vec![vec![lit(0)], vec![nlit(0)]] };
        let stats = serial_dfs(&Dpll::new(cnf));
        assert_eq!(stats.goals, 0);
    }

    #[test]
    fn unit_propagation_chains() {
        // x0 forces x1 forces x2: (x0)(¬x0∨x1)(¬x1∨x2) → single model TTT,
        // found with a single expansion of the root (propagation does the
        // rest ... after the first branch).
        let cnf = Cnf {
            num_vars: 3,
            clauses: vec![vec![lit(0)], vec![nlit(0), lit(1)], vec![nlit(1), lit(2)]],
        };
        let dpll = Dpll::new(cnf);
        let stats = serial_dfs(&dpll);
        assert_eq!(stats.goals, 1);
        // The conflict branch (x0 = false) dies in propagation, so the
        // tree is tiny: root + one child.
        assert!(stats.expanded <= 3, "expanded {}", stats.expanded);
    }

    #[test]
    fn model_counting_free_variables() {
        // (x0 ∨ x1) over 2 vars: models TT, TF, FT = 3.
        let cnf = Cnf { num_vars: 2, clauses: vec![vec![lit(0), lit(1)]] };
        let stats = serial_dfs(&Dpll::new(cnf));
        assert_eq!(stats.goals, 3);
    }

    #[test]
    fn every_reported_model_satisfies_the_formula() {
        let cnf = random_3sat(5, 10, 30);
        let dpll = Dpll::new(cnf.clone());
        let mut models = Vec::new();
        serial_dfs_collect(&dpll, |a| models.push(a.to_bools()));
        assert!(!models.is_empty(), "ratio 3.0 is almost surely satisfiable");
        for m in &models {
            assert!(cnf.satisfied_by(m));
        }
    }

    #[test]
    fn brute_force_agrees_on_small_instances() {
        for seed in 0..6 {
            let cnf = random_3sat(seed, 8, 28);
            let dpll = Dpll::new(cnf.clone());
            let dpll_models = serial_dfs(&dpll).goals;
            let mut brute = 0u64;
            for bits in 0u32..(1 << 8) {
                let assignment: Vec<bool> = (0..8).map(|i| bits >> i & 1 == 1).collect();
                if cnf.satisfied_by(&assignment) {
                    brute += 1;
                }
            }
            assert_eq!(dpll_models, brute, "seed {seed}");
        }
    }

    #[test]
    fn generator_is_deterministic_and_well_formed() {
        let a = random_3sat(1, 12, 40);
        let b = random_3sat(1, 12, 40);
        assert_eq!(a.clauses.len(), b.clauses.len());
        for (ca, cb) in a.clauses.iter().zip(&b.clauses) {
            assert_eq!(ca, cb);
            assert_eq!(ca.len(), 3);
            let vars: Vec<u32> = ca.iter().map(|l| l.var()).collect();
            assert!(vars.iter().all(|&v| v < 12));
            assert!(vars[0] != vars[1] && vars[1] != vars[2] && vars[0] != vars[2]);
        }
    }

    #[test]
    fn parallel_lockstep_matches_serial() {
        use uts_core::{run, EngineConfig, Scheme};
        use uts_machine::CostModel;
        let dpll = Dpll::new(random_3sat(9, 14, 55));
        let serial = serial_dfs(&dpll);
        let out = run(&dpll, &EngineConfig::new(32, Scheme::gp_static(0.8), CostModel::cm2()));
        assert_eq!(out.report.nodes_expanded, serial.expanded);
        assert_eq!(out.goals, serial.goals);
    }
}
