//! The same-run reference kernel every timing is normalised by.
//!
//! The sandbox this benchmark is recorded on drifts by ±20 % in phases
//! lasting tens of seconds, so raw seconds from two runs of identical code
//! disagree by more than any bound worth setting. Each repetition therefore
//! times this kernel immediately before and after its timed region and
//! reports `timing × REF_NOMINAL_S / ref_s`: seconds on a host that runs
//! the kernel in exactly [`REF_NOMINAL_S`].
//!
//! Two rules keep the normalisation honest:
//!
//! - the kernel calls nothing from the `uts-*` crates, so no change to the
//!   program under test can move it;
//! - the kernel is never edited after the baseline is recorded — a faster
//!   kernel would read as a slower program.
//!
//! It mixes the two things the engines do: a hash-chain depth-first search
//! on an explicit `Vec` stack (compute + branchy stack traffic, the shape of
//! `expansion_burst`) and a strided read-modify-write pass over a buffer
//! larger than the private caches (the shape of the P-sized census and
//! split sweeps). It runs on one thread: on the recording sandbox the two
//! vCPUs' joint throughput switches between twice and once a single vCPU's
//! for minutes at a time while single-thread speed stays put, so a kernel
//! on every core misreads the (mostly single-threaded) workloads by 2×.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's quietest wall time on the recording machine (one 2.1 GHz
/// Xeon vCPU), in seconds. Normalised seconds are seconds on a host
/// where the kernel takes exactly this long.
pub const REF_NOMINAL_S: f64 = 0.075;

const BUF_WORDS: usize = (16 << 20) / 8;
const STRIDE: usize = 8;
const PASSES: usize = 64;
const DFS_SEED: u64 = 0x005E_ED0F_7EF0_4E57;
const DFS_DEPTH: u32 = 11;
const DFS_FANOUT: u64 = 9;

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Depth-first walk of a fixed hash-chain tree; returns (nodes, checksum).
fn dfs() -> (u64, u64) {
    let mut stack: Vec<(u64, u32)> = vec![(splitmix64(DFS_SEED), 0)];
    let mut nodes = 0u64;
    let mut sum = 0u64;
    while let Some((state, depth)) = stack.pop() {
        nodes += 1;
        sum = sum.wrapping_add(state);
        if depth < DFS_DEPTH {
            let fanout = splitmix64(state) % DFS_FANOUT;
            for c in 0..fanout {
                stack.push((splitmix64(splitmix64(state).wrapping_add(c + 1)), depth + 1));
            }
        }
    }
    (nodes, sum)
}

/// One cache line touched per step, several passes, each pass offset by one
/// word so every pass misses the lines' previous values in registers.
fn sweep(buf: &mut [u64]) -> u64 {
    let mut acc = 0u64;
    for pass in 0..PASSES {
        let mut i = pass % STRIDE;
        while i < buf.len() {
            let v = buf[i].wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64);
            buf[i] = v;
            acc ^= v;
            i += STRIDE;
        }
    }
    acc
}

fn one_copy(buf: &mut [u64]) -> u64 {
    let (nodes, sum) = dfs();
    let acc = sweep(black_box(buf));
    black_box(nodes) ^ black_box(sum) ^ acc
}

/// Run the kernel once on the calling thread and return its wall seconds.
/// The buffer is allocated (and its pages touched) before the clock starts
/// and freed on return, so the kernel leaves no resident memory behind.
pub fn run() -> f64 {
    let mut buf = vec![1u64; BUF_WORDS];
    let t0 = Instant::now();
    black_box(one_copy(&mut buf));
    t0.elapsed().as_secs_f64()
}
