//! Seeded synthetic unstructured trees.
//!
//! The paper's isoefficiency experiments (Figs. 4 & 7) need *many* search
//! spaces spanning a wide range of problem sizes `W`. Its 15-puzzle
//! workloads come in IDA\*-iteration-sized quanta, so for dense (W, P)
//! sweeps we add deterministic synthetic trees in the style of the
//! Unbalanced Tree Search benchmark (Olivier et al.): every node's
//! branching is a pure hash of `(tree seed, node id)`, so the same tree is
//! regenerated identically on any processor — exactly the
//! "successor-generator-function" model of Sec. 2.
//!
//! Two families:
//!
//! * [`BinomialTree`] — after a fixed root fan-out, every node has `m`
//!   children with probability `q` (subcritical: `q·m < 1`) and none
//!   otherwise. Sizes are heavy-tailed and shapes highly irregular — a
//!   stress test for load balancing.
//! * [`GeometricTree`] — branching drawn uniformly from `0..=b_max` with a
//!   hard depth limit; sizes concentrate near the mean, which makes hitting
//!   a target `W` easy.
//!
//! [`find_tree`] searches seeds for a tree whose measured `W` lands within
//! a tolerance of a target.

use uts_tree::{serial_dfs, Children, TreeProblem};

/// SplitMix64 — the standard 64-bit finalizer used to derive child
/// identities; statistically strong and trivially reproducible.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Child identity as a chain keyed on `(parent id, child index)`: the
/// parent is mixed *before* the index is folded in, so within one parent
/// the chain is injective (`splitmix64` is a bijection, so
/// `h(p) + i ≠ h(p) + j` for `i ≠ j`) and a cross-parent collision needs
/// two independent hash outputs within fan-out distance of each other —
/// a near-collision of the mixer, not an algebraic relation.
#[inline]
pub fn child_id(parent: u64, c: u32) -> u64 {
    splitmix64(splitmix64(parent).wrapping_add(c as u64 + 1))
}

/// The pre-fix derivation, kept only as the regression target: hashing
/// `parent ^ (c+1)·key` maps the shared id space through XOR, so for any
/// parent `p` and child indices `c1 ≠ c2` the distinct node
/// `(p ^ (c1+1)·key ^ (c2+1)·key, c2)` collides with `(p, c1)` exactly —
/// identical ids replay identical subtrees (expansion depends only on the
/// id once past the root). See `legacy_derivation_collides_and_chain_does_not`.
#[inline]
pub fn legacy_child_id(parent: u64, c: u32, key: u64) -> u64 {
    splitmix64(parent ^ (c as u64 + 1).wrapping_mul(key))
}

/// A node of a synthetic tree: its hash identity and depth.
///
/// Packed to alignment 4, a node is stored in its 12 payload bytes rather
/// than 16. The codec writes field by field, so snapshot bytes do not
/// depend on the layout. Read fields by value — the compiler refuses a
/// reference to a packed field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, packed(4))]
pub struct SynthNode {
    /// Hash identity (determines this node's subtree).
    pub id: u64,
    /// Depth below the root.
    pub depth: u32,
}

impl uts_tree::CkptNode for SynthNode {
    fn encode_node(&self, out: &mut Vec<u8>) {
        uts_tree::codec::put_u64(out, self.id);
        uts_tree::codec::put_u32(out, self.depth);
    }
    fn decode_node(r: &mut uts_tree::Reader<'_>) -> Result<Self, uts_tree::CodecError> {
        Ok(Self { id: r.u64()?, depth: r.u32()? })
    }
}

/// Binomial tree: root has exactly `root_children` children; every other
/// node has `m` children with probability `q`, else it is a leaf.
#[derive(Debug, Clone, Copy)]
pub struct BinomialTree {
    /// Tree seed; different seeds give independent trees.
    pub seed: u64,
    /// Fan-out of the root.
    pub root_children: u32,
    /// Fan-out of every internal non-root node.
    pub m: u32,
    /// Probability a non-root node is internal, as a fraction of 2^64
    /// (use [`BinomialTree::with_q`] to set it from an `f64`).
    pub q_threshold: u64,
}

impl BinomialTree {
    /// Construct with branching probability `q` (must satisfy `q * m < 1`
    /// for the tree to be finite with probability 1).
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1)` or the process is supercritical.
    pub fn with_q(seed: u64, root_children: u32, m: u32, q: f64) -> Self {
        assert!((0.0..1.0).contains(&q), "q must be a probability");
        assert!(q * (m as f64) < 1.0, "supercritical binomial tree would be infinite");
        Self { seed, root_children, m, q_threshold: (q * (u64::MAX as f64)) as u64 }
    }

    /// Expected number of nodes: `1 + b0 / (1 - q m)` (branching-process
    /// mean; the realized size varies widely).
    pub fn expected_size(&self) -> f64 {
        let q = self.q_threshold as f64 / u64::MAX as f64;
        1.0 + self.root_children as f64 / (1.0 - q * self.m as f64)
    }
}

impl TreeProblem for BinomialTree {
    type Node = SynthNode;

    fn root(&self) -> SynthNode {
        SynthNode { id: splitmix64(self.seed), depth: 0 }
    }

    fn expand(&self, node: &SynthNode, out: &mut impl Children<SynthNode>) {
        let fanout = if node.depth == 0 {
            self.root_children
        } else if splitmix64(node.id) <= self.q_threshold {
            self.m
        } else {
            0
        };
        for c in 0..fanout {
            out.push(SynthNode { id: child_id(node.id, c), depth: node.depth + 1 });
        }
    }

    fn is_goal(&self, node: &SynthNode) -> bool {
        // Deterministic sparse goals (~1/61 of nodes) so goal propagation
        // is exercised by parallel runs.
        node.id.is_multiple_of(61)
    }
}

/// Geometric tree: node at depth `d < depth_limit` has `hash % (b_max + 1)`
/// children; deeper nodes are leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeometricTree {
    /// Tree seed.
    pub seed: u64,
    /// Maximum fan-out (actual fan-out is uniform on `0..=b_max`).
    pub b_max: u32,
    /// Depth at which all nodes become leaves.
    pub depth_limit: u32,
}

impl GeometricTree {
    /// Expected size `sum_{d<=limit} (b_max/2)^d` (mean branching b_max/2).
    pub fn expected_size(&self) -> f64 {
        let b = self.b_max as f64 / 2.0;
        if (b - 1.0).abs() < 1e-9 {
            return (self.depth_limit + 1) as f64;
        }
        (b.powi(self.depth_limit as i32 + 1) - 1.0) / (b - 1.0)
    }
}

impl TreeProblem for GeometricTree {
    type Node = SynthNode;

    fn root(&self) -> SynthNode {
        SynthNode { id: splitmix64(self.seed), depth: 0 }
    }

    fn expand(&self, node: &SynthNode, out: &mut impl Children<SynthNode>) {
        if node.depth >= self.depth_limit {
            return;
        }
        let fanout = (splitmix64(node.id) % (self.b_max as u64 + 1)) as u32;
        for c in 0..fanout {
            out.push(SynthNode { id: child_id(node.id, c), depth: node.depth + 1 });
        }
    }

    fn is_goal(&self, node: &SynthNode) -> bool {
        // Deterministic sparse goals (~1/61 of nodes).
        node.id.is_multiple_of(61)
    }
}

/// A tree generator together with its measured size.
#[derive(Debug, Clone)]
pub struct SizedTree {
    /// The generator (geometric family).
    pub tree: GeometricTree,
    /// Measured node count `W`.
    pub w: u64,
}

/// Search seeds `0..max_seeds` of a geometric family for a tree whose size
/// lies within `rel_tol` of `target`; depth and fan-out are chosen from the
/// target's magnitude. Returns the closest tree found even if outside the
/// tolerance (callers report measured `W`).
pub fn find_tree(target: u64, rel_tol: f64, max_seeds: u64) -> SizedTree {
    // Mean branching 4 (b_max 8): depth_limit ≈ log4(target).
    let depth_limit = ((target as f64).ln() / (4.0f64).ln()).ceil() as u32 + 1;
    let mut best: Option<SizedTree> = None;
    for seed in 0..max_seeds {
        let tree = GeometricTree { seed, b_max: 8, depth_limit };
        let w = serial_dfs(&tree).expanded;
        let dist = ((w as f64).ln() - (target as f64).ln()).abs();
        if best.as_ref().is_none_or(|b| dist < ((b.w as f64).ln() - (target as f64).ln()).abs()) {
            best = Some(SizedTree { tree, w });
        }
        if let Some(b) = &best {
            if (b.w as f64 / target as f64 - 1.0).abs() <= rel_tol {
                break;
            }
        }
    }
    best.expect("max_seeds > 0")
}

#[cfg(test)]
mod tests {
    use super::*;
    use uts_tree::serial_dfs;

    /// A node is stored in its 12 payload bytes.
    #[test]
    fn a_node_is_its_payload() {
        assert_eq!(std::mem::size_of::<SynthNode>(), 12);
        assert_eq!(std::mem::align_of::<SynthNode>(), 4);
    }

    #[test]
    fn binomial_is_deterministic() {
        let t = BinomialTree::with_q(9, 16, 4, 0.2);
        let a = serial_dfs(&t).expanded;
        let b = serial_dfs(&t).expanded;
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = serial_dfs(&BinomialTree::with_q(1, 16, 4, 0.2)).expanded;
        let b = serial_dfs(&BinomialTree::with_q(2, 16, 4, 0.2)).expanded;
        // Heavy-tailed sizes: equality is vanishingly unlikely.
        assert_ne!(a, b);
    }

    #[test]
    fn q_zero_gives_star_tree() {
        let t = BinomialTree::with_q(5, 10, 4, 0.0);
        assert_eq!(serial_dfs(&t).expanded, 11, "root + 10 leaves");
    }

    #[test]
    #[should_panic(expected = "supercritical")]
    fn supercritical_rejected() {
        let _ = BinomialTree::with_q(0, 4, 4, 0.3);
    }

    #[test]
    fn geometric_respects_depth_limit() {
        let t = GeometricTree { seed: 3, b_max: 8, depth_limit: 4 };
        struct DepthCheck(GeometricTree);
        impl TreeProblem for DepthCheck {
            type Node = SynthNode;
            fn root(&self) -> SynthNode {
                self.0.root()
            }
            fn expand(&self, n: &SynthNode, out: &mut impl Children<SynthNode>) {
                assert!(n.depth <= self.0.depth_limit);
                self.0.expand(n, out);
            }
        }
        serial_dfs(&DepthCheck(t));
    }

    #[test]
    fn geometric_sizes_near_expectation() {
        // Average over several seeds should be within 3x of the mean-field
        // expectation (loose: the process has real variance).
        let mut total = 0u64;
        let n = 8;
        let t0 = GeometricTree { seed: 0, b_max: 8, depth_limit: 6 };
        for seed in 0..n {
            let t = GeometricTree { seed, ..t0 };
            total += serial_dfs(&t).expanded;
        }
        let mean = total as f64 / n as f64;
        let expect = t0.expected_size();
        assert!(mean > expect / 3.0 && mean < expect * 3.0, "mean={mean} expect={expect}");
    }

    #[test]
    fn find_tree_hits_target_within_factor_two() {
        let st = find_tree(50_000, 0.10, 64);
        assert!(st.w > 25_000 && st.w < 100_000, "w = {}", st.w);
        // And the generator regenerates the same W.
        assert_eq!(serial_dfs(&st.tree).expanded, st.w);
    }

    #[test]
    fn legacy_derivation_collides_and_chain_does_not() {
        // The constructed collision family of the old derivation: for any
        // parent p and child indices (0, 1), the distinct parent
        // p ^ 1·K ^ 2·K produces the *same* child id at index 1 that p
        // produces at index 0 — two distinct tree positions with identical
        // ids, which replay identical subtrees. The chained derivation
        // must not satisfy the relation.
        const K: u64 = 0x9FB2_1C65_1E98_DF25;
        for p in [1u64, 42, 0xFEED_F00D, 0x0123_4567_89AB_CDEF] {
            let p2 = p ^ K ^ 2u64.wrapping_mul(K);
            assert_ne!(p, p2, "the constructed parents are distinct");
            assert_eq!(
                legacy_child_id(p, 0, K),
                legacy_child_id(p2, 1, K),
                "the legacy relation is the bug being pinned"
            );
            assert_ne!(child_id(p, 0), child_id(p2, 1), "chained ids must not collide");
        }
    }

    #[test]
    fn sibling_ids_never_collide() {
        // Within one parent the chain is injective by construction
        // (splitmix64 is a bijection); check a window anyway.
        for p in [0u64, 7, 0xDEAD_BEEF, u64::MAX] {
            let mut ids: Vec<u64> = (0..64).map(|c| child_id(p, c)).collect();
            let n = ids.len();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), n, "sibling collision under parent {p:#x}");
        }
    }

    #[test]
    fn splitmix_is_not_identity_and_spreads() {
        let a = splitmix64(0);
        let b = splitmix64(1);
        assert_ne!(a, 0);
        assert_ne!(a, b);
        assert!(((a ^ b).count_ones() as i32 - 32).abs() < 24, "bits should mix");
    }
}
