//! Run-long and phase-local counters, plus the run-length-encoded
//! active-processor trace.

use crate::SimTime;

/// The Fig. 8 trace `A(t)`, run-length encoded as `(cycle, A)` breakpoints:
/// a breakpoint `(c, a)` means "from cycle `c` (0-based) until the next
/// breakpoint, `A = a`". The encoding is canonical — consecutive cycles
/// with equal `A` never produce two breakpoints — so the derived
/// `PartialEq` compares traces by value, and a full Fig. 4/7 sweep stores
/// one breakpoint per balancing phase instead of one word per cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActiveTrace {
    breaks: Vec<(u64, u32)>,
    len: u64,
}

impl ActiveTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one cycle with `a` active processors.
    pub fn push(&mut self, a: u32) {
        self.push_run(a, 1);
    }

    /// Append `n` consecutive cycles, all with `a` active processors.
    /// A macro-stepping engine records whole constant runs in O(1).
    pub fn push_run(&mut self, a: u32, n: u64) {
        if n == 0 {
            return;
        }
        if self.breaks.last().map(|&(_, v)| v) != Some(a) {
            self.breaks.push((self.len, a));
        }
        self.len += n;
    }

    /// Number of cycles recorded.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no cycle has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `A` at 0-based `cycle`, or `None` past the end.
    pub fn get(&self, cycle: u64) -> Option<u32> {
        if cycle >= self.len {
            return None;
        }
        let idx = match self.breaks.binary_search_by_key(&cycle, |&(c, _)| c) {
            Ok(i) => i,
            Err(i) => i - 1, // a breakpoint at cycle 0 always exists
        };
        Some(self.breaks[idx].1)
    }

    /// The raw `(cycle, A)` breakpoints (ascending, first at cycle 0).
    pub fn breakpoints(&self) -> &[(u64, u32)] {
        &self.breaks
    }

    /// Rebuild a trace from its breakpoint encoding and total length — the
    /// checkpoint-resume inverse of [`ActiveTrace::breakpoints`] /
    /// [`ActiveTrace::len`]. The input must be a *canonical* encoding
    /// (ascending cycles starting at 0, no two consecutive breakpoints
    /// with equal `A`, empty iff `len == 0`), which is what a recorded
    /// trace always serializes to; a resumed trace then continues to
    /// compare equal to an uninterrupted one.
    ///
    /// # Panics
    /// Panics if the encoding is not canonical.
    pub fn from_breakpoints(breaks: Vec<(u64, u32)>, len: u64) -> Self {
        assert_eq!(breaks.is_empty(), len == 0, "breakpoints iff cycles");
        if let Some(&(first, _)) = breaks.first() {
            assert_eq!(first, 0, "first breakpoint sits at cycle 0");
        }
        assert!(
            breaks.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 != w[1].1),
            "breakpoints must be ascending with distinct consecutive values"
        );
        assert!(breaks.last().is_none_or(|&(c, _)| c < len), "breakpoints lie within len");
        Self { breaks, len }
    }

    /// Iterate the constant runs as `(start_cycle, run_length, a)`.
    pub fn runs(&self) -> impl Iterator<Item = (u64, u64, u32)> + '_ {
        self.breaks.iter().enumerate().map(|(i, &(c, a))| {
            let end = self.breaks.get(i + 1).map_or(self.len, |&(c2, _)| c2);
            (c, end - c, a)
        })
    }

    /// Iterate per-cycle values (decompressed view, one `u32` per cycle).
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.runs().flat_map(|(_, n, a)| std::iter::repeat_n(a, n as usize))
    }

    /// Decompress to one value per cycle (test/plotting helper).
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }
}

impl FromIterator<u32> for ActiveTrace {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut t = Self::new();
        for a in iter {
            t.push(a);
        }
        t
    }
}

/// One load-balancing phase, as recorded in the phase log (when tracing
/// is enabled): when it happened, what it moved, what it cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseEvent {
    /// Expansion-cycle index after which the phase ran.
    pub at_cycle: u64,
    /// Match+transfer rounds in the phase.
    pub rounds: u32,
    /// Work transfers performed.
    pub transfers: u64,
    /// Machine-time cost of the phase.
    pub cost: SimTime,
}

/// Counters accumulated over the whole run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Node-expansion cycles executed (`N_expand`).
    pub n_expand: u64,
    /// Load-balancing phases executed (`N_lb`).
    pub n_lb: u64,
    /// Individual work transfers performed (`*N_lb` of Table 4; ≥ `n_lb`
    /// when a phase feeds several idle PEs, which is the normal case).
    pub n_transfers: u64,
    /// Total nodes expanded by the parallel search.
    pub nodes_expanded: u64,
    /// Σ over cycles of the busy-PE count.
    pub busy_pe_cycles: u64,
    /// Σ over cycles of the idle-PE count (becomes `T_idle` × `1/U_calc`).
    pub idle_pe_cycles: u64,
    /// Machine-time (not PE-time) spent in balancing phases.
    pub t_lb_machine: SimTime,
    /// Whether to record `active_trace` and `phase_log`.
    pub trace_enabled: bool,
    /// Busy-PE count per expansion cycle (Fig. 8), if enabled; run-length
    /// encoded.
    pub active_trace: ActiveTrace,
    /// One entry per balancing phase, if enabled.
    pub phase_log: Vec<PhaseEvent>,
}

/// Counters since the start of the current search phase, from which the
/// dynamic triggers are computed:
///
/// * DP (eq. 2): `w = busy_pe_cycles * U_calc`, `t = cycles * U_calc`;
/// * DK (eq. 4): `w_idle = idle_pe_cycles * U_calc`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStats {
    /// Expansion cycles since the last balancing phase.
    pub cycles: u64,
    /// Σ busy-PE counts over those cycles.
    pub busy_pe_cycles: u64,
    /// Σ idle-PE counts over those cycles.
    pub idle_pe_cycles: u64,
}

impl PhaseStats {
    /// The paper's `w`: work done this search phase, in PE-time units
    /// (multiply by `U_calc`).
    pub fn work_pe_cycles(&self) -> u64 {
        self.busy_pe_cycles
    }

    /// The paper's `w_idle` in PE-cycles (multiply by `U_calc` for PE-time).
    pub fn idle_pe_cycles(&self) -> u64 {
        self.idle_pe_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_zero() {
        let m = Metrics::default();
        assert_eq!(m.n_expand, 0);
        assert_eq!(m.n_lb, 0);
        assert!(m.active_trace.is_empty());
        let p = PhaseStats::default();
        assert_eq!(p.work_pe_cycles(), 0);
        assert_eq!(p.idle_pe_cycles(), 0);
    }

    #[test]
    fn trace_round_trips_per_cycle_values() {
        let vals = [3u32, 3, 3, 1, 1, 4, 4, 4, 4, 0];
        let t: ActiveTrace = vals.iter().copied().collect();
        assert_eq!(t.len(), vals.len() as u64);
        assert_eq!(t.to_vec(), vals);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(t.get(i as u64), Some(v), "cycle {i}");
        }
        assert_eq!(t.get(vals.len() as u64), None);
    }

    #[test]
    fn encoding_is_canonical_so_eq_is_by_value() {
        // Same per-cycle values through different push patterns must
        // compare equal (the equivalence suite relies on this).
        let mut a = ActiveTrace::new();
        a.push_run(5, 3);
        a.push_run(5, 2);
        a.push(2);
        let mut b = ActiveTrace::new();
        for v in [5, 5, 5, 5, 5, 2] {
            b.push(v);
        }
        assert_eq!(a, b);
        assert_eq!(a.breakpoints(), &[(0, 5), (5, 2)]);
    }

    #[test]
    fn runs_partition_the_trace() {
        let t: ActiveTrace = [7u32, 7, 1, 1, 1, 9].iter().copied().collect();
        let runs: Vec<_> = t.runs().collect();
        assert_eq!(runs, vec![(0, 2, 7), (2, 3, 1), (5, 1, 9)]);
        assert_eq!(runs.iter().map(|&(_, n, _)| n).sum::<u64>(), t.len());
    }

    #[test]
    fn zero_length_run_is_a_noop() {
        let mut t = ActiveTrace::new();
        t.push_run(4, 0);
        assert!(t.is_empty());
        assert!(t.breakpoints().is_empty());
        t.push_run(4, 2);
        t.push_run(9, 0);
        t.push_run(4, 1);
        assert_eq!(t.breakpoints(), &[(0, 4)], "empty run must not split a constant run");
        assert_eq!(t.len(), 3);
    }
}
