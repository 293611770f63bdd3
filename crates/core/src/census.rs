//! Dense census sweeps over the structure-of-arrays stack-length array.
//!
//! The engines keep every PE's stack length mirrored into one contiguous
//! `u32` array ([`uts_tree::StackArena::lens`], index = PE id). The
//! ensemble census — how many PEs are active, how many are busy
//! (splittable), and the stack-size distribution `count_ge` the
//! event-horizon bound reads — then becomes a handful of flat reductions
//! over that array instead of a pointer-chase through one heap-allocated
//! stack per PE.
//!
//! Every reduction here is written as a chunked loop over fixed-width
//! blocks with a branch-free body, the shape LLVM autovectorizes on stable
//! Rust (`std::simd` is still nightly-only; when it stabilizes these
//! bodies map 1:1 onto explicit `u32xN` lanes — see DESIGN.md §6.3). The
//! results are specified *exactly* against the per-stack recomputation the
//! engines used before (`tests/census_soa.rs` drives both on random stack
//! populations):
//!
//! * [`active_count`] = #{i : lens[i] > 0} — the paper's `A`;
//! * [`busy_count`]   = #{i : lens[i] >= 2} — PEs that can donate;
//! * [`build_hist`] + [`build_count_ge`] — the suffix-sum distribution
//!   `count_ge[t]` = #{active i : lens[i] >= t}, with `count_ge[0] = A`
//!   (idle PEs contribute `lens[i] == 0` and are skipped, exactly as the
//!   old active-list sweep never visited them; `hist[0] == 0` either way).
//!
//! Every backend, the pooled one included, runs the census serially on
//! the loop's thread: one sweep of a `P`-entry array is cheap next to a
//! thread spawn (DESIGN.md §6.4).

/// Width of the reduction blocks. 64 `u32`s = one or two cache lines per
/// accumulator block, wide enough for any SIMD unit the compiler targets.
const CHUNK: usize = 64;

/// Number of PEs holding work: `#{i : lens[i] > 0}`.
pub fn active_count(lens: &[u32]) -> usize {
    let mut total = 0usize;
    for chunk in lens.chunks(CHUNK) {
        let mut c = 0u32;
        for &l in chunk {
            c += (l > 0) as u32;
        }
        total += c as usize;
    }
    total
}

/// Number of PEs that can donate (the paper's busy predicate):
/// `#{i : lens[i] >= 2}`.
pub fn busy_count(lens: &[u32]) -> usize {
    let mut total = 0usize;
    for chunk in lens.chunks(CHUNK) {
        let mut c = 0u32;
        for &l in chunk {
            c += (l >= 2) as u32;
        }
        total += c as usize;
    }
    total
}

/// Largest stack length in the ensemble (the histogram's extent).
pub fn max_len(lens: &[u32]) -> u32 {
    let mut total = 0u32;
    for chunk in lens.chunks(CHUNK) {
        let mut m = 0u32;
        for &l in chunk {
            m = m.max(l);
        }
        total = total.max(m);
    }
    total
}

/// Rebuild the stack-size histogram from the dense length array:
/// `hist[s]` = number of PEs whose stack holds exactly `s > 0` nodes.
/// Idle PEs (`lens[i] == 0`) are skipped, so `hist[0] == 0` — identical
/// to the old sweep over the active list (active PEs always hold work).
/// Two passes: a vectorizable max fixes the extent, then one scatter.
pub fn build_hist(lens: &[u32], hist: &mut Vec<u32>) {
    hist.clear();
    let extent = max_len(lens) as usize;
    hist.resize(extent + 1, 0);
    for &l in lens {
        if l > 0 {
            hist[l as usize] += 1;
        }
    }
}

/// Suffix-sum the histogram into `count_ge[t]` = #active PEs with stack
/// size >= t. O(max stack size), no pointer chasing. `count_ge[0]` is the
/// active count (every counted PE holds >= 0 nodes and `hist[0] == 0`).
pub fn build_count_ge(hist: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.resize(hist.len() + 1, 0);
    let mut acc = 0u32;
    for t in (0..hist.len()).rev() {
        acc += hist[t];
        out[t] = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_the_scalar_definitions() {
        // Exercise lengths around the chunk boundary so partial blocks run.
        for n in [0usize, 1, 63, 64, 65, 130, 1024] {
            let lens: Vec<u32> = (0..n).map(|i| ((i * 7 + 3) % 5) as u32).collect();
            let a = lens.iter().filter(|&&l| l > 0).count();
            let b = lens.iter().filter(|&&l| l >= 2).count();
            let m = lens.iter().copied().max().unwrap_or(0);
            assert_eq!(active_count(&lens), a, "n={n}");
            assert_eq!(busy_count(&lens), b, "n={n}");
            assert_eq!(max_len(&lens), m, "n={n}");
        }
    }

    #[test]
    fn hist_skips_idle_pes_and_matches_per_stack_recount() {
        let lens = [0u32, 3, 1, 0, 3, 7, 0, 1];
        let mut hist = Vec::new();
        build_hist(&lens, &mut hist);
        assert_eq!(hist, vec![0, 2, 0, 2, 0, 0, 0, 1]);
        let mut cg = Vec::new();
        build_count_ge(&hist, &mut cg);
        assert_eq!(cg[0] as usize, active_count(&lens), "count_ge[0] is A");
        for (t, &got) in cg.iter().enumerate() {
            let expect = lens.iter().filter(|&&l| l > 0 && l as usize >= t).count();
            assert_eq!(got as usize, expect, "t={t}");
        }
    }

    #[test]
    fn count_ge_is_the_suffix_sum() {
        let mut out = Vec::new();
        build_count_ge(&[0, 2, 0, 1], &mut out);
        assert_eq!(out, vec![3, 3, 1, 1, 0]);
        build_count_ge(&[], &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn all_idle_yields_an_empty_distribution() {
        let lens = [0u32; 100];
        let mut hist = Vec::new();
        build_hist(&lens, &mut hist);
        assert_eq!(hist, vec![0]);
        let mut cg = Vec::new();
        build_count_ge(&hist, &mut cg);
        assert_eq!(cg, vec![0, 0]);
    }
}
