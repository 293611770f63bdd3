//! The node store of an ensemble of DFS stacks.
//!
//! The paper's machine state is P dense, uniform DFS stacks. A
//! [`StackArena`] holds them in two parts:
//!
//! * **`lens`** — every PE's stack length in one contiguous `u32` array,
//!   index = PE id. It is the census the engines sweep (`uts-core`'s
//!   `census` module turns it into activity counts and the `count_ge`
//!   distribution with chunked, autovectorizable reductions), and the only
//!   place a length is stored.
//! * **One node store per block** — a block is a fixed run of consecutive
//!   PEs, and its store hands out fixed-size chunks of [`CHUNK_NODES`]
//!   nodes from one pooled array and a free list. A PE's stack is a chain
//!   of chunk ids, bottom chunk first, in which every chunk but the top one
//!   is full, so node `k` of a stack sits in chunk `k / CHUNK_NODES` of its
//!   chain. Frame boundaries are one bit per slot of each chunk: the bit of
//!   the first node of every frame is set.
//!
//! The DFS works at the top of a chain: a pop reads the top slot, and
//! [`TreeProblem::expand`] writes each child straight into its final slot
//! through a [`FrameWriter`], taking a chunk off the free list when the top
//! one is full. A transfer works at the bottom: the donated prefix leaves
//! and the rest of the chain shifts down, which keeps a stack of `len`
//! nodes in exactly `ceil(len / CHUNK_NODES)` chunks. A chunk goes back to
//! its block's free list as soon as its PE no longer needs it, so an
//! emptied PE holds nothing and dropping the arena frees a handful of
//! arrays per block.
//!
//! **Layout note.** The store used to be one `Vec` of nodes and one `Vec`
//! of frame offsets per PE. On a million-PE machine most stacks hold one
//! to seven nodes, and there the per-PE `Vec`s cost more than the nodes:
//! a 48-byte header pair per PE and a heap allocation per non-empty
//! vector, grown 4 → 8 → 16 by reallocation. Pooled chunks cost a
//! 4-byte chain head per PE and 9 bytes of links and frame bits per
//! chunk. A single slab for the whole ensemble is not an option either:
//! PEs grow at wildly different rates within one macro step. Chunks give
//! each PE room to grow without moving anyone else's nodes.
//!
//! The blocks exist for the fanned-out burst: it hands each job a
//! run of whole blocks ([`BlockRun`]), so concurrent bursts own disjoint
//! pools and disjoint stretches of `lens` through plain `&mut` borrows —
//! no lock and no `unsafe`. The block size follows from P (P / 16 PEs,
//! rounded down to a power of two, between 1 and 4096), so every machine
//! of two or more PEs has at least two blocks to hand out.
//!
//! **Equivalence contract.** Every operation here reproduces the observable
//! semantics of the matching [`SearchStack`] operation exactly — same DFS
//! order, same frame boundaries after splits and merges, same [`Burst`]
//! totals — and [`StackArena::encode_pe`] emits bytes identical to
//! [`SearchStack`]'s `CkptNode::encode_node`, so snapshots taken from either
//! representation are interchangeable. The differential tests at the bottom
//! of this file drive both representations through the same operation
//! sequences and compare complete frame structures.

use crate::codec::{put_usize, CkptNode, CodecError, Reader};
use crate::problem::{Children, TreeProblem};
use crate::stack::{Burst, SearchStack, SplitPolicy};

/// Nodes per chunk, chosen by measurement. On the benchmark's million-PE
/// instance (`balance-wide`: P = 2^20, FEGS, 2.1 M nodes on 716 k PEs at
/// the peak boundary, no stack longer than seven) a whole run peaks at
/// 116 / 107 / 132 MB resident and takes 0.21 / 0.19 / 0.23 s with
/// 2 / 4 / 8 nodes per chunk: four 16-byte nodes make a 64-byte chunk that
/// holds most of those stacks whole. On the deep-stack instance
/// (`burst-deep`) 8 is 1 % faster than 4, and 2 is 6 % slower. Frame bits
/// are a `u8` per chunk, so this is at most 8.
pub const CHUNK_NODES: usize = 4;

/// A machine is cut into this many blocks, or more when the block size cap
/// binds.
const BLOCKS: usize = 16;

/// Log2 of the most PEs one block holds (4096): a million-PE machine has
/// 256 blocks, and no block's pool regrows by more than a few megabytes.
const MAX_BLOCK_SHIFT: u32 = 12;

/// A block's node pool never outgrows this many bytes per PE of the block
/// (asserted under debug). Generously above any measured peak — a depth-13
/// generated tree holds about 100 nodes per stack — and crushingly below a
/// materialised tree.
const POOL_BYTES_PER_PE: usize = 64 * 1024;

/// No chunk: the end of a chain, or the chain of an idle PE.
const NIL: u32 = u32::MAX;

/// What a donor hands over in one transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Donation {
    /// A split under the policy, as [`SearchStack::split`] makes it.
    Split(SplitPolicy),
    /// Up to this many bottom-of-stack nodes, the donor keeping at least
    /// one, as [`SearchStack::split_count`] makes it.
    Bottom(usize),
}

/// One block's node store.
#[derive(Debug, Clone)]
struct Block<N> {
    /// Per PE of the block: the top chunk of its chain (`NIL` when idle).
    tops: Vec<u32>,
    /// The pool: chunk `c` is `nodes[c * CHUNK_NODES..][..CHUNK_NODES]`.
    /// Slots past a chain's end hold stale nodes that are never read.
    nodes: Vec<N>,
    /// Per chunk: the chunk below it in its chain (`NIL` at the bottom).
    down: Vec<u32>,
    /// Per chunk: the chunk above it (meaningless at the top).
    up: Vec<u32>,
    /// Per chunk: bit `s` is set iff slot `s` starts a frame. The bits of
    /// slots past a chain's end are meaningless; a free chunk's are clear.
    starts: Vec<u8>,
    /// Chunks in no chain.
    free: Vec<u32>,
}

impl<N> Block<N> {
    fn new(pes: usize) -> Self {
        Self {
            tops: vec![NIL; pes],
            nodes: Vec::new(),
            down: Vec::new(),
            up: Vec::new(),
            starts: Vec::new(),
            free: Vec::new(),
        }
    }

    /// The chunk holding node `k` of a chain of `len > k` nodes topped by
    /// `top`.
    fn chunk_of(&self, top: u32, len: usize, k: usize) -> u32 {
        let mut chunk = top;
        for _ in k / CHUNK_NODES..(len - 1) / CHUNK_NODES {
            chunk = self.down[chunk as usize];
        }
        chunk
    }

    /// The slot after `(chunk, slot)` along a chain.
    fn step(&self, (chunk, slot): (u32, usize)) -> (u32, usize) {
        if slot + 1 < CHUNK_NODES {
            (chunk, slot + 1)
        } else {
            (self.up[chunk as usize], 0)
        }
    }

    /// The node in a slot, and whether it starts a frame.
    fn get(&self, (chunk, slot): (u32, usize)) -> (&N, bool) {
        let c = chunk as usize;
        (&self.nodes[c * CHUNK_NODES + slot], self.starts[c] >> slot & 1 == 1)
    }

    /// Start a frame at node `k`, the bottom of the top frame, of a chain
    /// of `len > k` nodes topped by `top`: set its bit and clear those of
    /// the frame's other slots in its chunk (any later chunk was free).
    #[inline]
    fn start_frame(&mut self, top: u32, len: usize, k: usize) {
        let chunk = self.chunk_of(top, len, k) as usize;
        let bit = 1 << (k % CHUNK_NODES);
        self.starts[chunk] = self.starts[chunk] & (bit - 1) | bit;
    }

    /// PE `pe`'s `len` nodes bottom to top, each with whether it starts a
    /// frame.
    fn items(&self, pe: usize, len: usize) -> impl Iterator<Item = (&N, bool)> + '_ {
        let mut at = (if len == 0 { NIL } else { self.chunk_of(self.tops[pe], len, 0) }, 0);
        (0..len).map(move |k| {
            if k > 0 {
                at = self.step(at);
            }
            self.get(at)
        })
    }

    /// Cut a chain of `from` nodes topped by `top` to its bottom `to`,
    /// freeing the chunks it no longer needs; returns the new top (`NIL`
    /// when `to == 0`).
    fn release(&mut self, mut top: u32, from: usize, to: usize) -> u32 {
        for _ in to.div_ceil(CHUNK_NODES)..from.div_ceil(CHUNK_NODES) {
            self.starts[top as usize] = 0;
            self.free.push(top);
            top = self.down[top as usize];
        }
        top
    }

    /// Put `chunk` on top of the chain topped by `below` (`NIL`: make it
    /// the bottom of a new chain).
    #[inline]
    fn link(&mut self, below: u32, chunk: u32) -> u32 {
        self.down[chunk as usize] = below;
        if below != NIL {
            self.up[below as usize] = chunk;
        }
        chunk
    }

    /// The store invariants, given the block's stretch of the length
    /// census: every PE's chain holds exactly the chunks its length needs
    /// and ends at a bottom chunk; each chunk is in one chain or on the free
    /// list, never both and never twice; and the pool stays under its
    /// resident ceiling.
    fn holds(&self, lens: &[u32]) -> bool {
        let mut seen = vec![false; self.down.len()];
        let mut mark = |chunk: u32| match seen.get_mut(chunk as usize) {
            Some(s) if !*s => {
                *s = true;
                true
            }
            _ => false,
        };
        for (&top, &len) in self.tops.iter().zip(lens) {
            let mut chunk = top;
            for _ in 0..(len as usize).div_ceil(CHUNK_NODES) {
                if !mark(chunk) {
                    return false;
                }
                chunk = self.down[chunk as usize];
            }
            if chunk != NIL {
                return false;
            }
        }
        self.free.iter().all(|&chunk| mark(chunk))
            && seen.iter().all(|&s| s)
            && std::mem::size_of_val(&self.nodes[..]) <= POOL_BYTES_PER_PE * self.tops.len()
    }
}

impl<N: Clone> Block<N> {
    /// Grow the pool by one chunk, its slots holding copies of `fill`, and
    /// put it on top of the chain topped by `below`.
    #[cold]
    fn new_chunk(&mut self, below: u32, fill: N) -> u32 {
        let chunk = u32::try_from(self.down.len())
            .ok()
            .filter(|&c| c != NIL)
            .expect("a block has fewer than 2^32 - 1 chunks");
        self.nodes.extend(std::iter::repeat_n(fill, CHUNK_NODES));
        self.down.push(NIL);
        self.up.push(NIL);
        self.starts.push(0);
        self.link(below, chunk)
    }

    /// Put a chunk off the free list (or a new one) on top of the chain
    /// topped by `below`.
    ///
    /// Out of line, so that [`FrameWriter::push`] stays about as small as
    /// `Vec::push` and inlines, with the `expand` around it, into the burst
    /// kernel. With this path inline, the benchmark's binary called `push`
    /// or `expand` once per child or node instead.
    #[inline(never)]
    fn next_chunk(&mut self, below: u32, fill: &N) -> u32 {
        match self.free.pop() {
            Some(chunk) => self.link(below, chunk),
            None => self.new_chunk(below, fill.clone()),
        }
    }

    /// Pop the top node of a chain of `*len >= 1` nodes topped by `*top`,
    /// freeing the top chunk if the pop empties it.
    #[inline]
    fn pop(&mut self, top: &mut u32, len: &mut usize) -> N {
        *len -= 1;
        let (chunk, slot) = (*top as usize, *len % CHUNK_NODES);
        let node = self.nodes[chunk * CHUNK_NODES + slot].clone();
        if slot == 0 {
            self.starts[chunk] = 0;
            self.free.push(*top);
            *top = self.down[chunk];
        }
        node
    }

    /// Run PE `pe`'s DFS for up to `budget` expansion cycles (or until its
    /// stack empties): pop, goal-test, expand onto the top of the chain.
    /// Burst accounting is identical to [`SearchStack::expand_burst`].
    ///
    /// `#[inline(always)]` so that the one hot call site (`uts_core`'s burst
    /// kernel) runs it without a call per PE, in whichever codegen unit the
    /// kernel lands.
    #[inline(always)]
    fn burst<P: TreeProblem<Node = N>>(
        &mut self,
        pe: usize,
        len: &mut u32,
        problem: &P,
        budget: u64,
    ) -> Burst {
        let mut out = FrameWriter { top: self.tops[pe], len: *len as usize, block: self };
        let mut burst = Burst::default();
        while burst.expanded < budget && out.len > 0 {
            let node = out.block.pop(&mut out.top, &mut out.len);
            if problem.is_goal(&node) {
                burst.goals += 1;
            }
            let first = out.len;
            problem.expand(&node, &mut out);
            if out.len > first {
                out.block.start_frame(out.top, out.len, first);
            }
            burst.expanded += 1;
            burst.peak = burst.peak.max(out.len);
        }
        let FrameWriter { top, len: n, .. } = out;
        self.tops[pe] = top;
        debug_assert!(u32::try_from(n).is_ok(), "stack length overflows the census");
        *len = n as u32;
        burst
    }

    /// Move the bottom `m` of PE `pe`'s `len` nodes (`0 < m < len`) to `out`
    /// with their frame starts, and shift the rest down. The frame the cut
    /// runs through keeps its upper part, which now starts the stack.
    fn take_bottom(&mut self, pe: usize, len: usize, m: usize, out: &mut Vec<(N, bool)>) {
        let top = self.tops[pe];
        let bottom = self.chunk_of(top, len, 0);
        let mut at = (bottom, 0);
        for k in 0..m {
            if k > 0 {
                at = self.step(at);
            }
            let (node, start) = self.get(at);
            out.push((node.clone(), start));
        }
        // Chunk `j` of the kept stack takes slots `r..` of chunk `j + q` of
        // the old one and slots `..r` of the chunk after it. Every source
        // slot is read before the shift overwrites it.
        let (q, r) = (m / CHUNK_NODES, m % CHUNK_NODES);
        let kept = len - m;
        let (mut dst, mut src) = (bottom, bottom);
        for _ in 0..q {
            src = self.up[src as usize];
        }
        for j in 0..kept.div_ceil(CHUNK_NODES) {
            let has_next = (j + q + 1) * CHUNK_NODES < len;
            let next = if has_next { self.up[src as usize] } else { NIL };
            for s in 0..CHUNK_NODES.min(kept - j * CHUNK_NODES) {
                let (c, t) =
                    if s + r < CHUNK_NODES { (src, s + r) } else { (next, s + r - CHUNK_NODES) };
                let node = self.nodes[c as usize * CHUNK_NODES + t].clone();
                self.nodes[dst as usize * CHUNK_NODES + s] = node;
            }
            let carried =
                if r > 0 && has_next { self.starts[next as usize] << (CHUNK_NODES - r) } else { 0 };
            let slots = u8::MAX >> (8 - CHUNK_NODES);
            self.starts[dst as usize] = (self.starts[src as usize] >> r | carried) & slots;
            (dst, src) = (self.up[dst as usize], next);
        }
        self.starts[bottom as usize] |= 1;
        self.tops[pe] = self.release(top, len, kept);
    }
}

/// Where [`TreeProblem::expand`] writes the children of a node the arena
/// pops: each `push` stores the child straight into its final slot at the
/// top of the PE's chain, taking a chunk off the block's free list when the
/// top one is full. Its owner starts a frame at the first child.
pub struct FrameWriter<'a, N> {
    block: &'a mut Block<N>,
    /// The chain's top chunk.
    top: u32,
    /// The chain's length.
    len: usize,
}

impl<N: Clone> FrameWriter<'_, N> {
    /// Push `child` onto the frame being built.
    #[inline]
    pub fn push(&mut self, child: N) {
        let slot = self.len % CHUNK_NODES;
        if slot == 0 {
            self.top = self.block.next_chunk(self.top, &child);
        }
        self.block.nodes[self.top as usize * CHUNK_NODES + slot] = child;
        self.len += 1;
    }

    /// Start a frame at the node just pushed.
    fn start_frame_at_top(&mut self) {
        self.block.start_frame(self.top, self.len, self.len - 1);
    }
}

impl<N: Clone> Children<N> for FrameWriter<'_, N> {
    #[inline]
    fn push(&mut self, child: N) {
        FrameWriter::push(self, child);
    }
}

/// A run of whole blocks of an arena and their stretch of the length
/// census, borrowed mutably: what one job of a fanned-out burst owns. Runs
/// split only at block boundaries ([`BlockRun::split_at`]), so the runs of
/// one arena never share a pool.
pub struct BlockRun<'a, N> {
    blocks: &'a mut [Block<N>],
    lens: &'a mut [u32],
    /// The run's first PE (the first PE of a block).
    base: usize,
    shift: u32,
}

impl<N: Clone> BlockRun<'_, N> {
    /// Burst PE `i`, a PE of the run (see [`StackArena::expand_burst`]).
    #[inline(always)]
    pub fn expand_burst<P: TreeProblem<Node = N>>(
        &mut self,
        i: usize,
        problem: &P,
        budget: u64,
    ) -> Burst {
        let local = i - self.base;
        let pe = local & ((1 << self.shift) - 1);
        self.blocks[local >> self.shift].burst(pe, &mut self.lens[local], problem, budget)
    }
}

impl<N> BlockRun<'_, N> {
    /// Stack length of PE `i`, a PE of the run.
    pub fn len_of(&self, i: usize) -> usize {
        self.lens[i - self.base] as usize
    }

    /// Cut the run at PE `at`: the first PE of one of its blocks, or the
    /// end of the run.
    ///
    /// # Panics
    /// Panics if `at` is neither.
    pub fn split_at(self, at: usize) -> (Self, Self) {
        let local = at - self.base;
        assert!(
            local == self.lens.len()
                || (local < self.lens.len() && local.is_multiple_of(1 << self.shift)),
            "runs split at block boundaries"
        );
        let (blocks, blocks_after) = self.blocks.split_at_mut(local.div_ceil(1 << self.shift));
        let (lens, lens_after) = self.lens.split_at_mut(local);
        let shift = self.shift;
        (
            BlockRun { blocks, lens, base: self.base, shift },
            BlockRun { blocks: blocks_after, lens: lens_after, base: at, shift },
        )
    }
}

/// The ensemble: one node store per block of consecutive PEs plus the dense
/// length census (see the module docs). All mutation goes through methods
/// that keep every chain exactly as long as its `lens` entry says;
/// [`StackArena::lens`] re-checks the store under debug.
#[derive(Debug, Clone)]
pub struct StackArena<N> {
    lens: Vec<u32>,
    blocks: Vec<Block<N>>,
    /// Log2 of the PEs per block.
    shift: u32,
    /// The donation in flight, bottom to top, each node with whether it
    /// starts a frame; empty between calls.
    donated: Vec<(N, bool)>,
}

impl<N> StackArena<N> {
    /// An ensemble of `p` idle PEs.
    pub fn new(p: usize) -> Self {
        let shift = (p / BLOCKS).max(1).ilog2().min(MAX_BLOCK_SHIFT);
        let per_block = 1 << shift;
        let blocks = (0..p.div_ceil(per_block))
            .map(|b| Block::new(per_block.min(p - b * per_block)))
            .collect();
        Self { lens: vec![0; p], blocks, shift, donated: Vec::new() }
    }

    /// Ensemble size `P`.
    pub fn p(&self) -> usize {
        self.lens.len()
    }

    /// The dense stack-length array the census sweeps read. Index = PE id;
    /// `lens()[i] > 0` is the activity bit, `lens()[i] >= 2` the busy bit.
    pub fn lens(&self) -> &[u32] {
        debug_assert!(self.store_ok(), "node store out of step with the length census");
        &self.lens
    }

    /// Stack length of PE `i`.
    pub fn len_of(&self, i: usize) -> usize {
        self.lens[i] as usize
    }

    /// The first PE of the block holding PE `i`: where
    /// [`BlockRun::split_at`] may cut.
    pub fn block_start(&self, i: usize) -> usize {
        i >> self.shift << self.shift
    }

    /// The whole arena as one [`BlockRun`].
    pub fn blocks_mut(&mut self) -> BlockRun<'_, N> {
        BlockRun { blocks: &mut self.blocks, lens: &mut self.lens, base: 0, shift: self.shift }
    }

    /// Block index and PE-within-block of PE `i`.
    fn locate(&self, i: usize) -> (usize, usize) {
        (i >> self.shift, i & ((1 << self.shift) - 1))
    }

    /// PE `i`'s nodes bottom to top, each with whether it starts a frame.
    fn items(&self, i: usize) -> impl Iterator<Item = (&N, bool)> + '_ {
        let (b, pe) = self.locate(i);
        self.blocks[b].items(pe, self.len_of(i))
    }

    /// Cut PE `i`'s stack to its bottom `keep` nodes.
    fn truncate(&mut self, i: usize, keep: usize) {
        let (b, pe) = self.locate(i);
        let block = &mut self.blocks[b];
        block.tops[pe] = block.release(block.tops[pe], self.lens[i] as usize, keep);
        self.lens[i] = keep as u32;
    }

    fn store_ok(&self) -> bool {
        self.blocks.iter().zip(self.lens.chunks(1 << self.shift)).all(|(b, lens)| b.holds(lens))
    }
}

impl<N: Clone> StackArena<N> {
    /// Flatten an ensemble of [`SearchStack`]s (the canonical checkpoint /
    /// oracle representation) into arena form.
    pub fn from_stacks(stacks: Vec<SearchStack<N>>) -> Self {
        let mut arena = Self::new(stacks.len());
        for (i, stack) in stacks.into_iter().enumerate() {
            arena.push_frames(i, stack.into_frames());
        }
        arena
    }

    /// Rebuild the canonical [`SearchStack`] ensemble.
    pub fn into_stacks(self) -> Vec<SearchStack<N>> {
        (0..self.p()).map(|i| SearchStack::from_frames(self.frames_of(i))).collect()
    }

    /// PE `i`'s stack as a frame list, bottom to top.
    fn frames_of(&self, i: usize) -> Vec<Vec<N>> {
        let mut frames: Vec<Vec<N>> = Vec::new();
        for (node, start) in self.items(i) {
            if start {
                frames.push(Vec::new());
            }
            frames.last_mut().expect("the bottom node starts a frame").push(node.clone());
        }
        frames
    }

    /// Push `frames`, bottom first, on top of PE `i`'s stack.
    fn push_frames(&mut self, i: usize, frames: Vec<Vec<N>>) {
        for frame in frames {
            self.push_frame_with(i, |out| frame.into_iter().for_each(|node| out.push(node)));
        }
    }

    /// Run `f` with a writer at the top of PE `i`'s chain. `f` must start
    /// a frame at its first push, if it pushes anything.
    fn write<R>(&mut self, i: usize, f: impl FnOnce(&mut FrameWriter<'_, N>) -> R) -> R {
        let (b, pe) = self.locate(i);
        let block = &mut self.blocks[b];
        let mut out = FrameWriter { top: block.tops[pe], len: self.lens[i] as usize, block };
        let r = f(&mut out);
        let FrameWriter { top, len, .. } = out;
        block.tops[pe] = top;
        self.lens[i] = u32::try_from(len).expect("stack length overflows the census");
        r
    }

    /// Build PE `i`'s new top frame in place: `fill` pushes the children
    /// straight into their slots at the top of the chain, and a frame
    /// starts iff anything was pushed. The zero-copy twin of
    /// [`SearchStack::push_frame_with`]. Returns the child count.
    pub fn push_frame_with(
        &mut self,
        i: usize,
        fill: impl FnOnce(&mut FrameWriter<'_, N>),
    ) -> usize {
        self.write(i, |out| {
            let first = out.len;
            fill(out);
            if out.len > first {
                out.block.start_frame(out.top, out.len, first);
            }
            out.len - first
        })
    }

    /// Burst PE `i` for up to `budget` cycles: pop, goal-test, expand onto
    /// the top of the chain, as [`SearchStack::expand_burst`] does.
    pub fn expand_burst<P: TreeProblem<Node = N>>(
        &mut self,
        i: usize,
        problem: &P,
        budget: u64,
    ) -> Burst {
        self.blocks_mut().expand_burst(i, problem, budget)
    }

    /// Split work from PE `donor` to PE `receiver` under `policy`,
    /// reproducing [`SearchStack::split`] followed by
    /// [`SearchStack::merge_from`] frame for frame. Returns `false` (both
    /// stacks untouched) when the donor cannot split.
    ///
    /// # Panics
    /// Panics if `donor == receiver`.
    pub fn split_into(&mut self, donor: usize, receiver: usize, policy: SplitPolicy) -> bool {
        self.donate(donor, receiver, Donation::Split(policy)) > 0
    }

    /// Donate up to `k` bottom alternatives from `donor` to `receiver`,
    /// preserving frame structure and always leaving the donor at least one
    /// node — [`SearchStack::split_count`] followed by
    /// [`SearchStack::merge_from`]. Returns the number of nodes moved.
    ///
    /// # Panics
    /// Panics if `donor == receiver`.
    pub fn split_count_into(&mut self, donor: usize, receiver: usize, k: usize) -> usize {
        self.donate(donor, receiver, Donation::Bottom(k))
    }

    /// Move `what` from PE `donor`'s stack on top of PE `receiver`'s, the
    /// donated frames kept apart from the receiver's. Returns the nodes
    /// moved; 0 (both stacks untouched) when the donor cannot give.
    ///
    /// # Panics
    /// Panics if `donor == receiver`.
    pub fn donate(&mut self, donor: usize, receiver: usize, what: Donation) -> usize {
        assert_ne!(donor, receiver, "a PE cannot donate to itself");
        let moved = self.take(donor, what);
        let mut donated = std::mem::take(&mut self.donated);
        self.write(receiver, |out| {
            for (node, start) in donated.drain(..) {
                out.push(node);
                if start {
                    out.start_frame_at_top();
                }
            }
        });
        self.donated = donated;
        moved
    }

    /// Take `what` off PE `donor`'s stack into `self.donated`; returns the
    /// nodes taken.
    fn take(&mut self, donor: usize, what: Donation) -> usize {
        debug_assert!(self.donated.is_empty());
        let len = self.len_of(donor);
        let m = match what {
            _ if len < 2 => return 0,
            Donation::Bottom(k) => k.min(len - 1),
            Donation::Split(SplitPolicy::Bottom) => 1,
            // The ablation policies rewrite whole frames; they go through
            // the oracle's own split.
            Donation::Split(policy) => {
                let mut stack = SearchStack::from_frames(self.frames_of(donor));
                let given = stack.split(policy).expect("a stack of two or more nodes splits");
                self.truncate(donor, 0);
                self.push_frames(donor, stack.into_frames());
                for frame in given.into_frames() {
                    self.donated.extend(frame.into_iter().enumerate().map(|(k, n)| (n, k == 0)));
                }
                return self.donated.len();
            }
        };
        if m > 0 {
            let (b, pe) = self.locate(donor);
            self.blocks[b].take_bottom(pe, len, m, &mut self.donated);
            self.lens[donor] -= m as u32;
        }
        m
    }
}

impl<N: CkptNode> StackArena<N> {
    /// Serialize PE `i`'s stack byte-identically to the [`SearchStack`]
    /// codec.
    pub fn encode_pe(&self, i: usize, out: &mut Vec<u8>) {
        encode_stack(self.items(i), out);
    }
}

impl<N: Clone + CkptNode> StackArena<N> {
    /// Take `what` off PE `donor`'s stack and append the donated stack's
    /// [`SearchStack`] encoding to `out` — nothing when the donor cannot
    /// give. Returns the nodes taken. The donor half of a transfer whose
    /// receiver lives elsewhere; [`StackArena::push_encoded`] is the other.
    pub fn donate_encoded(&mut self, donor: usize, what: Donation, out: &mut Vec<u8>) -> usize {
        let moved = self.take(donor, what);
        if moved > 0 {
            encode_stack(self.donated.iter().map(|(node, start)| (node, *start)), out);
        }
        self.donated.clear();
        moved
    }

    /// Decode one [`SearchStack`] encoding — all of `bytes` — straight onto
    /// the top of PE `i`'s chain, its frames kept apart from the PE's: onto
    /// an idle PE this loads the stack, onto a busy one it lands a
    /// transfer. Returns the nodes pushed. Total over its input: bytes that
    /// are not exactly one well-formed stack give an error and leave the PE
    /// as it was.
    pub fn push_encoded(&mut self, i: usize, bytes: &[u8]) -> Result<usize, CodecError> {
        let before = self.len_of(i);
        let mut r = Reader::new(bytes);
        let mut decode = || {
            for _ in 0..r.len(8)? {
                let nodes = r.len(1)?;
                if nodes == 0 {
                    return Err(CodecError::Malformed("search stack stores an empty frame"));
                }
                self.write(i, |out| {
                    for k in 0..nodes {
                        out.push(N::decode_node(&mut r)?);
                        if k == 0 {
                            out.start_frame_at_top();
                        }
                    }
                    Ok(())
                })?;
            }
            if r.is_done() {
                Ok(())
            } else {
                Err(CodecError::Malformed("trailing bytes after a stack encoding"))
            }
        };
        match decode() {
            Ok(()) => Ok(self.len_of(i) - before),
            Err(e) => {
                self.truncate(i, before);
                Err(e)
            }
        }
    }
}

/// Append a stack, given as its nodes bottom to top each with whether it
/// starts a frame, in [`SearchStack`]'s encoding: the frame count, then
/// each frame as a length-prefixed node list. Each count is written once it
/// is known.
fn encode_stack<'a, N: CkptNode + 'a>(
    items: impl Iterator<Item = (&'a N, bool)>,
    out: &mut Vec<u8>,
) {
    fn patch(out: &mut [u8], at: usize, count: usize) {
        out[at..at + 8].copy_from_slice(&(count as u64).to_le_bytes());
    }
    let head = out.len();
    put_usize(out, 0);
    let (mut frames, mut frame_head, mut frame_len) = (0, 0, 0);
    for (node, start) in items {
        if start {
            if frames > 0 {
                patch(out, frame_head, frame_len);
            }
            frames += 1;
            frame_head = out.len();
            frame_len = 0;
            put_usize(out, 0);
        }
        node.encode_node(out);
        frame_len += 1;
    }
    if frames > 0 {
        patch(out, frame_head, frame_len);
    }
    patch(out, head, frames);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack_of(frames: Vec<Vec<u32>>) -> SearchStack<u32> {
        SearchStack::from_frames(frames)
    }

    /// Frame lists of the given frame lengths, numbered consecutively from
    /// `first`.
    fn shape(first: u32, lens: &[u32]) -> Vec<Vec<u32>> {
        let mut next = first;
        lens.iter()
            .map(|&n| {
                next += n;
                (next - n..next).collect()
            })
            .collect()
    }

    /// Donor shapes whose frames and stacks straddle chunk edges: totals
    /// one before, at and one after one and two chunks, frames crossing
    /// an edge, and frames ending exactly on one.
    fn edge_shapes() -> Vec<Vec<Vec<u32>>> {
        [
            &[2][..],
            &[1, 1, 1],
            &[3, 1],
            &[4],
            &[2, 3],
            &[3, 2],
            &[1, 4, 2],
            &[4, 4],
            &[7],
            &[2, 5, 2],
            &[1, 1, 1, 1, 1, 1, 1, 1, 1],
            &[5, 3, 4, 1],
        ]
        .iter()
        .map(|lens| shape(10, lens))
        .collect()
    }

    /// Receiver shapes: idle, and one short of, at and one past a chunk
    /// edge, so appended donations straddle the receiver's edges too.
    fn receiver_shapes() -> Vec<Vec<Vec<u32>>> {
        [&[][..], &[3], &[2, 2], &[4, 1], &[1, 6]].iter().map(|lens| shape(900, lens)).collect()
    }

    /// A two-PE arena: PE 0 holds `donor`, PE 1 holds `receiver`.
    fn pair(donor: &[Vec<u32>], receiver: &[Vec<u32>]) -> StackArena<u32> {
        StackArena::from_stacks(vec![stack_of(donor.to_vec()), stack_of(receiver.to_vec())])
    }

    impl<N: Clone> StackArena<N> {
        /// Pop PE `i`'s next alternative in DFS order.
        fn pop_next(&mut self, i: usize) -> Option<N> {
            let node = self.items(i).last().map(|(node, _)| node.clone())?;
            self.truncate(i, self.len_of(i) - 1);
            Some(node)
        }
    }

    /// Every block's chunks are all on its free list.
    fn all_chunks_free<N>(arena: &StackArena<N>) -> bool {
        arena.blocks.iter().all(|b| b.free.len() == b.down.len())
    }

    fn assert_matches(arena: &StackArena<u32>, i: usize, stack: &SearchStack<u32>) {
        assert_eq!(arena.len_of(i), stack.len(), "lengths diverge");
        assert_eq!(arena.frames_of(i), stack.frames(), "frame structures diverge");
        let (mut via_arena, mut via_stack) = (Vec::new(), Vec::new());
        arena.encode_pe(i, &mut via_arena);
        stack.encode_node(&mut via_stack);
        assert_eq!(via_arena, via_stack, "encodings diverge");
    }

    /// What `what` takes off `donor` as a [`SearchStack`] does it.
    fn given(donor: &mut SearchStack<u32>, what: Donation) -> Option<SearchStack<u32>> {
        match what {
            Donation::Split(policy) => donor.split(policy),
            Donation::Bottom(k) => donor.split_count(k),
        }
    }

    /// The reference for [`StackArena::donate`]: split (or count off), then
    /// merge the donation on top of the receiver.
    fn donate_ref(
        donor: &mut SearchStack<u32>,
        what: Donation,
        receiver: &mut SearchStack<u32>,
    ) -> usize {
        given(donor, what).map_or(0, |d| {
            let moved = d.len();
            receiver.merge_from(d);
            moved
        })
    }

    /// Tiny deterministic problem: node `n > 0` has two children `n - 1`;
    /// `n == 0` is a goal leaf (mirrors the stack.rs burst tests).
    struct Halving;
    impl TreeProblem for Halving {
        type Node = u32;
        fn root(&self) -> u32 {
            3
        }
        fn expand(&self, n: &u32, out: &mut impl Children<u32>) {
            if *n > 0 {
                out.push(n - 1);
                out.push(n - 1);
            }
        }
        fn is_goal(&self, n: &u32) -> bool {
            *n == 0
        }
    }

    /// Node `n > 0` has three children `n - 1`: DFS stacks of up to nine
    /// nodes from root 4, so bursts cross chunk edges both ways.
    struct Fan;
    impl TreeProblem for Fan {
        type Node = u32;
        fn root(&self) -> u32 {
            4
        }
        fn expand(&self, n: &u32, out: &mut impl Children<u32>) {
            if *n > 0 {
                (0..3).for_each(|_| out.push(n - 1));
            }
        }
    }

    #[test]
    fn pop_next_matches_search_stack() {
        for frames in edge_shapes() {
            let mut stack = stack_of(frames.clone());
            let mut arena = StackArena::from_stacks(vec![stack_of(frames)]);
            loop {
                let a = arena.pop_next(0);
                assert_eq!(a, stack.pop_next());
                assert_matches(&arena, 0, &stack);
                if a.is_none() {
                    break;
                }
            }
            assert!(all_chunks_free(&arena));
        }
    }

    #[test]
    fn push_frame_with_matches_search_stack() {
        for frames in edge_shapes() {
            let mut stack = stack_of(frames.clone());
            let mut arena = StackArena::from_stacks(vec![stack_of(frames)]);
            for n in [0u32, 1, 3, 4, 5] {
                assert_eq!(
                    arena.push_frame_with(0, |out| (0..n).for_each(|k| out.push(k))),
                    stack.push_frame_with(|out| out.extend(0..n)),
                );
                assert_matches(&arena, 0, &stack);
            }
        }
    }

    #[test]
    fn expand_burst_matches_search_stack() {
        for budget in [0u64, 1, 2, 3, 5, 7, 100] {
            let mut stack = SearchStack::from_root(Halving.root());
            let mut arena = StackArena::from_stacks(vec![SearchStack::from_root(Halving.root())]);
            let a = arena.expand_burst(0, &Halving, budget);
            let b = stack.expand_burst(&Halving, budget);
            assert_eq!(a, b, "budget {budget}");
            assert_matches(&arena, 0, &stack);
        }
        for budget in 0u64..40 {
            let mut stack = SearchStack::from_root(Fan.root());
            let mut arena = StackArena::from_stacks(vec![SearchStack::from_root(Fan.root())]);
            assert_eq!(arena.expand_burst(0, &Fan, budget), stack.expand_burst(&Fan, budget));
            assert_matches(&arena, 0, &stack);
        }
    }

    #[test]
    fn donations_match_search_stack_at_chunk_edges() {
        // Every policy, and counted cuts at every offset — one before, at
        // and one after each chunk edge of every donor shape — onto
        // receivers that are idle or themselves sit around an edge.
        for frames in edge_shapes() {
            let total = frames.iter().map(Vec::len).sum::<usize>();
            let mut donations: Vec<Donation> =
                [SplitPolicy::Bottom, SplitPolicy::Half, SplitPolicy::Top]
                    .map(Donation::Split)
                    .to_vec();
            donations.extend((0..=total + 1).map(Donation::Bottom));
            for what in donations {
                for receiver in receiver_shapes() {
                    let mut donor_s = stack_of(frames.clone());
                    let mut recv_s = stack_of(receiver.clone());
                    let mut arena = pair(&frames, &receiver);
                    let moved = arena.donate(0, 1, what);
                    assert_eq!(moved, donate_ref(&mut donor_s, what, &mut recv_s), "{what:?}");
                    assert_matches(&arena, 0, &donor_s);
                    assert_matches(&arena, 1, &recv_s);
                }

                // The encoded donation is the SearchStack donation's bytes.
                let mut donor_s = stack_of(frames.clone());
                let mut arena = pair(&frames, &[]);
                let mut bytes = Vec::new();
                let moved = arena.donate_encoded(0, what, &mut bytes);
                let mut want = Vec::new();
                if let Some(d) = given(&mut donor_s, what) {
                    d.encode_node(&mut want);
                }
                assert_eq!(moved, total - donor_s.len(), "{what:?}");
                assert_eq!(bytes, want, "{what:?} from {frames:?}");
                assert_matches(&arena, 0, &donor_s);
            }
        }
    }

    #[test]
    fn repeated_bottom_donations_keep_shifting_frames_across_chunk_edges() {
        // One donor gives its bottom one, two or three nodes again and
        // again while its top keeps growing and shrinking, so its chain
        // keeps shifting by every offset within a chunk under frame bits
        // that keep changing.
        for frames in edge_shapes() {
            let mut donor = stack_of(frames.clone());
            let mut arena = StackArena::from_stacks(vec![stack_of(frames), SearchStack::new()]);
            for (step, k) in (1..=3).cycle().take(24).enumerate() {
                let mut receiver = SearchStack::new();
                let moved = donate_ref(&mut donor, Donation::Bottom(k), &mut receiver);
                assert_eq!(arena.donate_encoded(0, Donation::Bottom(k), &mut Vec::new()), moved);
                assert_matches(&arena, 0, &donor);
                let fresh = 100 * step as u32..100 * step as u32 + k as u32;
                arena.push_frame_with(0, |out| fresh.clone().for_each(|n| out.push(n)));
                donor.push_frame_with(|out| out.extend(fresh));
                assert_eq!(arena.pop_next(0), donor.pop_next());
                assert_matches(&arena, 0, &donor);
            }
        }
    }

    #[test]
    fn split_into_unsplittable_is_noop() {
        let mut arena = pair(&[vec![5]], &[]);
        assert!(!arena.split_into(0, 1, SplitPolicy::Bottom));
        assert_eq!(arena.lens(), &[1, 0]);
        assert_eq!(arena.split_count_into(0, 1, 3), 0);
        assert_eq!(arena.lens(), &[1, 0]);
    }

    #[test]
    fn stack_round_trip_is_lossless() {
        let mut shapes = edge_shapes();
        shapes.push(vec![]);
        let stacks: Vec<SearchStack<u32>> = shapes.iter().cloned().map(stack_of).collect();
        let back = StackArena::from_stacks(stacks).into_stacks();
        let after: Vec<Vec<Vec<u32>>> = back.into_iter().map(SearchStack::into_frames).collect();
        assert_eq!(after, shapes);
    }

    #[test]
    fn push_encoded_loads_and_lands_exactly_what_was_encoded() {
        for frames in edge_shapes() {
            for receiver in receiver_shapes() {
                let mut bytes = Vec::new();
                stack_of(frames.clone()).encode_node(&mut bytes);
                let mut arena = pair(&[], &receiver);
                assert_eq!(arena.push_encoded(1, &bytes), Ok(stack_of(frames.clone()).len()));
                let mut want = stack_of(receiver.clone());
                want.merge_from(stack_of(frames.clone()));
                assert_matches(&arena, 1, &want);
            }
        }
    }

    #[test]
    fn push_encoded_rejects_malformed_bytes_and_leaves_the_pe_as_it_was() {
        let receiver = shape(900, &[2, 3]);
        let mut bytes = Vec::new();
        stack_of(shape(10, &[3, 4, 2])).encode_node(&mut bytes);
        let mut empty_frame = Vec::new();
        put_usize(&mut empty_frame, 1);
        put_usize(&mut empty_frame, 0);
        let mut cases: Vec<Vec<u8>> = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
        cases.push([&bytes[..], &[0]].concat());
        cases.push(empty_frame);
        for case in cases {
            let mut arena = pair(&[], &receiver);
            assert!(arena.push_encoded(1, &case).is_err(), "{case:?}");
            assert_matches(&arena, 1, &stack_of(receiver.clone()));
        }
    }

    #[test]
    fn arena_keeps_the_lens_mirror_in_sync() {
        let mut arena = StackArena::from_stacks(vec![
            SearchStack::from_root(Halving.root()),
            SearchStack::new(),
            stack_of(vec![vec![1, 2], vec![3]]),
        ]);
        assert_eq!(arena.lens(), &[1, 0, 3]);
        assert_eq!(arena.p(), 3);
        arena.expand_burst(0, &Halving, 2);
        assert_eq!(arena.len_of(0), 3);
        assert!(arena.split_into(2, 1, SplitPolicy::Bottom));
        assert_eq!(arena.lens(), &[3, 1, 2]);
        let moved = arena.split_count_into(2, 1, 1);
        assert_eq!(moved, 1);
        assert_eq!(arena.lens()[1], 2);
        let stacks = arena.into_stacks();
        assert_eq!(stacks.len(), 3);
    }

    #[test]
    fn block_size_follows_from_p() {
        for p in [1usize, 2, 3, 15, 16, 31, 32, 100, 256, 8192, 65536, 1 << 20] {
            let arena: StackArena<u32> = StackArena::new(p);
            let per_block = 1usize << arena.shift;
            assert_eq!(arena.blocks.len(), p.div_ceil(per_block), "P={p}");
            assert_eq!(arena.blocks.iter().map(|b| b.tops.len()).sum::<usize>(), p);
            assert!(per_block <= 4096, "P={p}");
            if p >= 2 {
                assert!(arena.blocks.len() >= 2, "P={p} must offer two blocks to a fan-out");
            }
            assert_eq!(arena.block_start(p - 1), (p - 1) / per_block * per_block);
        }
    }

    #[test]
    fn block_runs_split_only_at_block_edges() {
        let mut arena: StackArena<u32> = StackArena::new(64);
        let per_block = 1 << arena.shift;
        let (left, right) = arena.blocks_mut().split_at(per_block);
        assert_eq!((left.lens.len(), right.lens.len()), (per_block, 64 - per_block));
        assert_eq!((left.blocks.len(), right.base), (1, per_block));
        let (whole, rest) = right.split_at(64);
        assert_eq!((whole.lens.len(), rest.lens.len(), rest.blocks.len()), (64 - per_block, 0, 0));
        let misaligned = std::panic::catch_unwind(|| {
            let mut arena: StackArena<u32> = StackArena::new(64);
            let _ = arena.blocks_mut().split_at(1);
        });
        assert!(misaligned.is_err(), "a cut inside a block is refused");
    }

    #[test]
    fn long_differential_run_stays_in_lockstep_and_drains_to_free_chunks() {
        // Drive both representations through an interleaved pop / expand /
        // split / donate sequence chosen by a tiny deterministic LCG and
        // compare complete frame structures after every operation. The
        // stacks reach nine nodes, so every operation meets chunk edges;
        // whenever the ensemble drains, every chunk must be back on its
        // block's free list.
        const P: usize = 5;
        let policies = [SplitPolicy::Bottom, SplitPolicy::Half, SplitPolicy::Top];
        for seed in 0..4u64 {
            let mut stacks: Vec<SearchStack<u32>> = (0..P).map(|_| SearchStack::new()).collect();
            stacks[0] = SearchStack::from_root(Fan.root());
            let mut arena = StackArena::from_stacks(stacks.clone());
            let mut rng = 0x2545_F491_4F6C_DD1Du64 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut drained = 0;
            for step in 0..3000 {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let i = (rng >> 33) as usize % P;
                let j = (i + 1 + (rng >> 21) as usize % (P - 1)) % P;
                let at = format!("seed {seed} step {step}");
                let what = match (rng >> 60) % 4 {
                    0 => {
                        assert_eq!(arena.pop_next(i), stacks[i].pop_next(), "{at}");
                        None
                    }
                    1 => {
                        let budget = 1 + (rng >> 10) % 4;
                        let a = arena.expand_burst(i, &Fan, budget);
                        assert_eq!(a, stacks[i].expand_burst(&Fan, budget), "{at}");
                        None
                    }
                    2 => Some(Donation::Split(policies[(rng >> 15) as usize % 3])),
                    _ => Some(Donation::Bottom(1 + (rng >> 40) as usize % 6)),
                };
                if let Some(what) = what {
                    let a = arena.donate(i, j, what);
                    let [d, r] = stacks.get_disjoint_mut([i, j]).expect("distinct in-range PEs");
                    assert_eq!(a, donate_ref(d, what, r), "{at}");
                }
                for (pe, stack) in stacks.iter().enumerate() {
                    assert_matches(&arena, pe, stack);
                }
                // If the whole ensemble drained, reseed it so later steps
                // keep exercising the mutating arms.
                if arena.lens().iter().all(|&l| l == 0) {
                    assert!(all_chunks_free(&arena), "{at}: a drained arena holds chunks");
                    drained += 1;
                    stacks[0] = SearchStack::from_root(Fan.root());
                    arena.push_frame_with(0, |out| out.push(Fan.root()));
                }
            }
            assert!(drained >= 2, "seed {seed}: the run drained only {drained} times");
        }
    }
}
