//! On-the-fly UTS workload family: trees whose node state is *recomputed,
//! not stored*.
//!
//! The paper's isoefficiency claims (Figs. 4 & 7) only bind at problem
//! sizes where the per-processor work `W/P` dwarfs the balancing overhead
//! `V(P)` — sizes far beyond anything a materialized fixture can hold.
//! This crate provides Galton-Watson trees in the style of the UTS
//! benchmark generators (BOTS `uts_numChildren_*`, the Grappa UTS port):
//! every node carries a *hash-chained RNG state*, children are derived
//! purely from that state, and the whole tree exists only as the O(stack)
//! working set of whichever processors are searching it. A 10^9-node tree
//! costs exactly as much memory as its deepest DFS stack.
//!
//! **The state chain.** A child's state is keyed on the pair
//! `(parent_state, child_index)`:
//!
//! ```text
//! child_state = splitmix64( splitmix64(parent_state) + child_index + 1 )
//! ```
//!
//! The inner hash mixes the parent before the index is folded in, so the
//! addend lands on an already-decorrelated value. Because `splitmix64` is
//! a bijection on `u64`, two children of the *same* parent can never
//! collide (`h(p) + i ≠ h(p) + j` for `i ≠ j`), and a cross-parent
//! collision requires two independent hash outputs to land within `b_max`
//! of each other — a genuine near-collision of the mixer, not the
//! XOR-cancellation relation that makes the legacy `uts-synth` derivation
//! (`splitmix64(parent ^ (i+1)·K)`) collide for constructed parent pairs
//! (see `uts_synth::legacy_child_id` and its regression test).
//!
//! Two families, both with closed-form expected sizes so seed search can
//! aim before it measures:
//!
//! * [`GenFamily::Geometric`] — fan-out uniform on `0..=b_max` with a hard
//!   depth limit; `E[W] = ((b_max/2)^(d+1) - 1) / (b_max/2 - 1)`.
//! * [`GenFamily::Binomial`] — root fan-out `b0`, then every node has `m`
//!   children with probability `q` (subcritical `q·m < 1`);
//!   `E[W] = 1 + b0 / (1 - q·m)`.
//!
//! [`find_gen_tree`] picks the depth limit from the closed form, then
//! scans seeds for a realized `W` within tolerance of a target.

use uts_tree::{serial_dfs, Children, TreeProblem};

/// SplitMix64 — the standard 64-bit finalizer (a bijection on `u64`).
/// Kept local so the generator crate is self-contained; bit-identical to
/// `uts_synth::splitmix64`.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Domain separator folded into the root state of geometric trees.
const GEOMETRIC_ROOT_KEY: u64 = 0x47454F_u64; // "GEO"
/// Domain separator folded into the root state of binomial trees.
const BINOMIAL_ROOT_KEY: u64 = 0x42494E_u64; // "BIN"
/// Domain separator for the fan-out draw, so the branching decision and
/// the child identity chain consume *independent* streams of the state.
const DRAW_KEY: u64 = 0x4452_4157_4452_4157;

/// The hash chain: the state of child `c` of a node with state `parent`.
/// See the module docs for the collision argument.
#[inline]
pub fn chain(parent: u64, c: u32) -> u64 {
    splitmix64(splitmix64(parent).wrapping_add(c as u64 + 1))
}

/// The fan-out draw of a node state (independent of the identity chain).
#[inline]
fn draw(state: u64) -> u64 {
    splitmix64(state ^ DRAW_KEY)
}

/// A node of a generated tree: the chained RNG state and the depth. The
/// entire subtree below a node is a pure function of this 12-byte value —
/// donating a node donates its whole subtree, and a receiver regenerates
/// it without any communication.
///
/// Packed to alignment 4, a node is stored in its 12 payload bytes rather
/// than 16, and an arena chunk of four nodes in 48 bytes. The codec writes
/// field by field, so snapshot bytes do not depend on the layout. Read
/// fields by value — the compiler refuses a reference to a packed field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, packed(4))]
pub struct GenNode {
    /// Chained RNG state (determines the subtree).
    pub state: u64,
    /// Depth below the root.
    pub depth: u32,
}

impl uts_tree::CkptNode for GenNode {
    fn encode_node(&self, out: &mut Vec<u8>) {
        uts_tree::codec::put_u64(out, self.state);
        uts_tree::codec::put_u32(out, self.depth);
    }
    fn decode_node(r: &mut uts_tree::Reader<'_>) -> Result<Self, uts_tree::CodecError> {
        Ok(Self { state: r.u64()?, depth: r.u32()? })
    }
}

/// The branching law of a generated tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenFamily {
    /// Fan-out uniform on `0..=b_max`, hard depth limit. Sizes concentrate
    /// near the mean — the family for hitting a target `W`.
    Geometric {
        /// Maximum fan-out (actual fan-out uniform on `0..=b_max`).
        b_max: u32,
        /// Depth at which every node becomes a leaf.
        depth_limit: u32,
    },
    /// Root has exactly `b0` children; every other node has `m` children
    /// with probability `q` (else it is a leaf). Heavy-tailed and highly
    /// irregular — the load-balancing stress family.
    Binomial {
        /// Root fan-out.
        b0: u32,
        /// Fan-out of internal non-root nodes.
        m: u32,
        /// `q` as a fraction of `2^64` (see [`GenTree::binomial`]).
        q_threshold: u64,
    },
}

/// A generated tree: seed + family. `expand` is allocation-free (children
/// are hashed straight into the caller's buffer) and node state is never
/// stored anywhere but the live DFS stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenTree {
    /// Tree seed; different seeds give independent trees.
    pub seed: u64,
    /// The branching law.
    pub family: GenFamily,
}

impl GenTree {
    /// A geometric tree: fan-out uniform on `0..=b_max`, leaves at
    /// `depth_limit`.
    pub fn geometric(seed: u64, b_max: u32, depth_limit: u32) -> Self {
        Self { seed, family: GenFamily::Geometric { b_max, depth_limit } }
    }

    /// A binomial tree with branching probability `q`.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1)` or `q·m >= 1` (a supercritical
    /// process is infinite with positive probability).
    pub fn binomial(seed: u64, b0: u32, m: u32, q: f64) -> Self {
        assert!((0.0..1.0).contains(&q), "q must be a probability");
        assert!(q * (m as f64) < 1.0, "supercritical binomial tree would be infinite");
        Self {
            seed,
            family: GenFamily::Binomial { b0, m, q_threshold: (q * (u64::MAX as f64)) as u64 },
        }
    }

    /// Expected node count from the branching-process closed form. The
    /// realized size concentrates near this for the geometric family and
    /// is heavy-tailed around it for the binomial family.
    pub fn expected_size(&self) -> f64 {
        match self.family {
            GenFamily::Geometric { b_max, depth_limit } => {
                let b = b_max as f64 / 2.0;
                if (b - 1.0).abs() < 1e-9 {
                    return (depth_limit + 1) as f64;
                }
                (b.powi(depth_limit as i32 + 1) - 1.0) / (b - 1.0)
            }
            GenFamily::Binomial { b0, m, q_threshold } => {
                let q = q_threshold as f64 / u64::MAX as f64;
                1.0 + b0 as f64 / (1.0 - q * m as f64)
            }
        }
    }

    /// Worst-case untried alternatives on one DFS stack searching this
    /// tree alone: each open depth holds at most `b - 1` siblings plus the
    /// top frame's full fan-out. Donations can only shrink a stack, so
    /// this bounds per-PE memory for any ensemble too (the quantity
    /// `Outcome::peak_stack_nodes` measures).
    pub fn stack_bound(&self) -> Option<usize> {
        match self.family {
            GenFamily::Geometric { b_max, depth_limit } => {
                Some((depth_limit as usize) * (b_max as usize).saturating_sub(1).max(1) + 1)
            }
            // Binomial trees have no depth bound; the *expected* depth is
            // finite (subcritical) but no worst case exists.
            GenFamily::Binomial { .. } => None,
        }
    }

    fn fanout(&self, node: &GenNode) -> u32 {
        match self.family {
            GenFamily::Geometric { b_max, depth_limit } => {
                if node.depth >= depth_limit {
                    0
                } else {
                    (draw(node.state) % (b_max as u64 + 1)) as u32
                }
            }
            GenFamily::Binomial { b0, m, q_threshold } => {
                if node.depth == 0 {
                    b0
                } else if draw(node.state) <= q_threshold {
                    m
                } else {
                    0
                }
            }
        }
    }
}

impl TreeProblem for GenTree {
    type Node = GenNode;

    fn root(&self) -> GenNode {
        let key = match self.family {
            GenFamily::Geometric { .. } => GEOMETRIC_ROOT_KEY,
            GenFamily::Binomial { .. } => BINOMIAL_ROOT_KEY,
        };
        GenNode { state: splitmix64(self.seed ^ key), depth: 0 }
    }

    // Runs once per node in the engines' burst kernel. Hinted so that it
    // inlines there around the arena's frame writer, whose `push` is larger
    // than `Vec::push`: called out of line, it cost `burst-deep` 4–5 %.
    #[inline]
    fn expand(&self, node: &GenNode, out: &mut impl Children<GenNode>) {
        let fanout = self.fanout(node);
        for c in 0..fanout {
            out.push(GenNode { state: chain(node.state, c), depth: node.depth + 1 });
        }
    }

    fn is_goal(&self, node: &GenNode) -> bool {
        // Deterministic sparse goals (~1/61 of nodes) so goal propagation
        // is exercised by parallel runs.
        node.state.is_multiple_of(61)
    }
}

/// A generator together with its measured size.
#[derive(Debug, Clone)]
pub struct SizedGenTree {
    /// The generator.
    pub tree: GenTree,
    /// Measured node count `W`.
    pub w: u64,
}

/// Find a geometric generator whose realized size lies within `rel_tol`
/// of `target`: the depth limit is chosen from the closed-form expected
/// size (the `d` whose `E[W]` is nearest the target in log-space), then
/// seeds `0..max_seeds` are measured by serial DFS. Returns the closest
/// tree found even if outside tolerance (callers report measured `W`).
///
/// Each probe costs one serial DFS of roughly `target` nodes — for very
/// large targets keep `max_seeds` small (the geometric family
/// concentrates, so a handful of seeds suffices).
pub fn find_gen_tree(target: u64, rel_tol: f64, max_seeds: u64) -> SizedGenTree {
    let b_max = 8u32;
    let lt = (target.max(2) as f64).ln();
    let depth_limit = (1u32..=64)
        .min_by(|&a, &b| {
            let da = (GenTree::geometric(0, b_max, a).expected_size().ln() - lt).abs();
            let db = (GenTree::geometric(0, b_max, b).expected_size().ln() - lt).abs();
            da.partial_cmp(&db).expect("finite expectations")
        })
        .expect("non-empty depth range");
    let mut best: Option<SizedGenTree> = None;
    for seed in 0..max_seeds {
        let tree = GenTree::geometric(seed, b_max, depth_limit);
        let w = serial_dfs(&tree).expanded;
        let dist = ((w as f64).ln() - lt).abs();
        if best.as_ref().is_none_or(|b| dist < ((b.w as f64).ln() - lt).abs()) {
            best = Some(SizedGenTree { tree, w });
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
    use uts_tree::{serial_dfs, CkptNode, Reader};

    /// A node is stored in its 12 payload bytes, so an arena chunk of
    /// four is 48 bytes.
    #[test]
    fn a_node_is_its_payload() {
        assert_eq!(std::mem::size_of::<GenNode>(), 12);
        assert_eq!(std::mem::align_of::<GenNode>(), 4);
    }

    #[test]
    fn siblings_never_collide() {
        // splitmix64 is a bijection, so within one parent the chain is
        // injective by construction; check a window anyway.
        for p in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let ids: Vec<u64> = (0..64).map(|c| chain(p, c)).collect();
            let mut dedup = ids.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), ids.len(), "sibling collision under parent {p:#x}");
        }
    }

    #[test]
    fn legacy_collision_construction_does_not_collide_here() {
        // The legacy uts-synth derivation `h(parent ^ (c+1)·K)` collides
        // for any parent pair p2 = p1 ^ 1·K ^ 2·K at child indices (0, 1).
        // The chained derivation must not reproduce that relation.
        const K: u64 = 0x9FB2_1C65_1E98_DF25;
        for p1 in [1u64, 42, 0xFEED_F00D, 0x0123_4567_89AB_CDEF] {
            let p2 = p1 ^ K ^ 2u64.wrapping_mul(K);
            assert_ne!(p1, p2);
            assert_ne!(chain(p1, 0), chain(p2, 1), "legacy collision relation survived");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let t = GenTree::geometric(7, 8, 6);
        assert_eq!(serial_dfs(&t).expanded, serial_dfs(&t).expanded);
        let b = GenTree::binomial(7, 16, 4, 0.2);
        assert_eq!(serial_dfs(&b).expanded, serial_dfs(&b).expanded);
    }

    #[test]
    fn families_and_seeds_are_independent() {
        let g = serial_dfs(&GenTree::geometric(7, 8, 6)).expanded;
        let g2 = serial_dfs(&GenTree::geometric(8, 8, 6)).expanded;
        assert_ne!(g, g2, "seeds must decorrelate");
    }

    #[test]
    fn geometric_respects_depth_limit_and_stack_bound() {
        let t = GenTree::geometric(3, 8, 5);
        struct DepthCheck(GenTree);
        impl TreeProblem for DepthCheck {
            type Node = GenNode;
            fn root(&self) -> GenNode {
                self.0.root()
            }
            fn expand(&self, n: &GenNode, out: &mut impl Children<GenNode>) {
                assert!(n.depth <= 5);
                self.0.expand(n, out);
            }
        }
        serial_dfs(&DepthCheck(t));
        assert_eq!(t.stack_bound(), Some(5 * 7 + 1));
        assert!(GenTree::binomial(3, 8, 4, 0.2).stack_bound().is_none());
    }

    #[test]
    fn binomial_q_zero_gives_star_tree() {
        let t = GenTree::binomial(5, 10, 4, 0.0);
        assert_eq!(serial_dfs(&t).expanded, 11, "root + 10 leaves");
        assert!((t.expected_size() - 11.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "supercritical")]
    fn supercritical_binomial_rejected() {
        let _ = GenTree::binomial(0, 4, 4, 0.3);
    }

    #[test]
    fn geometric_sizes_near_expectation() {
        let mut total = 0u64;
        let n = 8;
        for seed in 0..n {
            total += serial_dfs(&GenTree::geometric(seed, 8, 6)).expanded;
        }
        let mean = total as f64 / n as f64;
        let expect = GenTree::geometric(0, 8, 6).expected_size();
        assert!(mean > expect / 3.0 && mean < expect * 3.0, "mean={mean} expect={expect}");
    }

    #[test]
    fn sibling_subtrees_decorrelate() {
        // The legacy bug's symptom: colliding identities replay identical
        // subtrees. Chained states must give siblings (and cousins)
        // independent subtrees — measure a root's children.
        let t = GenTree::geometric(11, 8, 6);
        let mut kids = Vec::new();
        t.expand(&t.root(), &mut kids);
        assert!(kids.len() >= 2, "pick a seed whose root branches");
        let sizes: Vec<u64> = kids
            .iter()
            .map(|k| {
                let sub = GenTree { seed: 0, ..t };
                // Measure the subtree below `k` by DFS from that node.
                struct From(GenTree, GenNode);
                impl TreeProblem for From {
                    type Node = GenNode;
                    fn root(&self) -> GenNode {
                        self.1
                    }
                    fn expand(&self, n: &GenNode, out: &mut impl Children<GenNode>) {
                        self.0.expand(n, out);
                    }
                }
                serial_dfs(&From(sub, *k)).expanded
            })
            .collect();
        let mut dedup = sizes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert!(dedup.len() > 1, "sibling subtrees all identical: {sizes:?}");
    }

    #[test]
    fn find_gen_tree_hits_target_within_factor_two() {
        let st = find_gen_tree(50_000, 0.10, 64);
        assert!(st.w > 25_000 && st.w < 100_000, "w = {}", st.w);
        assert_eq!(serial_dfs(&st.tree).expanded, st.w);
    }

    #[test]
    fn node_codec_round_trips_byte_stably() {
        for node in [
            GenNode { state: 0, depth: 0 },
            GenNode { state: u64::MAX, depth: u32::MAX },
            GenNode { state: 0x0123_4567_89AB_CDEF, depth: 17 },
        ] {
            let mut bytes = Vec::new();
            node.encode_node(&mut bytes);
            assert_eq!(bytes.len(), 12, "fixed-width codec");
            let mut r = Reader::new(&bytes);
            let back = GenNode::decode_node(&mut r).unwrap();
            assert_eq!(back, node);
            let mut again = Vec::new();
            back.encode_node(&mut again);
            assert_eq!(again, bytes, "re-encode must be byte-identical");
        }
    }
}
