//! The load-balance ledger: who donated, why each phase fired, what it
//! cost.
//!
//! The paper's headline mechanism — GP's global pointer "spreading the
//! donation burden evenly" over busy PEs (Sec. 2.2, Fig. 2) — and its
//! trigger analysis (Powley–Ferguson–Korf's eq. 2 vs the paper's eq. 4)
//! are claims about *per-PE* and *per-phase* behaviour that the aggregate
//! [`crate::Report`] cannot verify at machine scale. The [`Ledger`] is the
//! opt-in measurement layer for those claims: per-PE receipt counts (the
//! donation counts are the run's own), one [`LbPhaseRecord`] per balancing
//! phase capturing the trigger operands at the firing cycle plus the event
//! horizon covering that checkpoint, and an exact setup/transfer/multiplier
//! attribution of the phase cost. [`DonationSpread::of`] summarises the
//! donation counts.
//!
//! The data types live here (not in `uts-core`) so analysis and export
//! code can consume a ledger without depending on the engine; `uts-core`
//! owns the recording. Every field is a pure function of the lockstep
//! schedule, so ledgers are bit-identical across every engine and any
//! host thread count — the cross-engine differential suite enforces it.

use crate::SimTime;

/// Which trigger condition caused a balancing phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TriggerKind {
    /// The Sec. 7 init-phase protocol (distribute after every cycle until
    /// `init_fraction · P` processors hold work).
    Init,
    /// `S^x` (eq. 1), recorded with its precomputed integer boundary
    /// `⌊x·P⌋`: the phase fired because `A <= threshold`.
    Static {
        /// The integer threshold `⌊x·P⌋` shared by the trigger, the
        /// horizon precheck and the horizon bound.
        threshold: u32,
    },
    /// `D^P` (Powley/Ferguson/Korf, eq. 2): `w >= A·(t + L)`.
    Dp,
    /// `D^K` (the paper's eq. 4): `w_idle >= L·P`.
    Dk,
    /// FESS/FEGS: any processor idle.
    AnyIdle,
}

/// The trigger operands at the firing cycle — everything the trigger
/// comparison looked at, regardless of which condition fired. Times are
/// in virtual microseconds (PE-time), matching the paper's eq. 2/4
/// vocabulary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriggerFiring {
    /// Which condition fired.
    pub kind: TriggerKind,
    /// Busy (splittable) processors `A` at the checkpoint.
    pub busy: u32,
    /// Idle (empty-stack) processors `I` at the checkpoint.
    pub idle: u32,
    /// `w` — work done this search phase, in PE-time.
    pub w: SimTime,
    /// `t` — elapsed search-phase time.
    pub t: SimTime,
    /// `w_idle` — idle PE-time accumulated this search phase.
    pub w_idle: SimTime,
    /// `L` — the machine's estimate of the next phase's cost.
    pub l_estimate: SimTime,
}

/// Exact attribution of one balancing phase's cost: the setup (scan /
/// matching) part, the transfer (routing) part, and the Table 5 cost
/// multiplier. Invariant: `(setup + transfer) * multiplier == total`,
/// where `total` is exactly what the machine charged
/// ([`crate::CostModel::lb_phase_cost`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LbCostBreakdown {
    /// Setup cost over all rounds, before the multiplier.
    pub setup: SimTime,
    /// Transfer cost over all rounds, before the multiplier.
    pub transfer: SimTime,
    /// The configured phase-cost multiplier (Table 5).
    pub multiplier: u32,
    /// The phase cost the machine charged: `(setup + transfer) * multiplier`.
    pub total: SimTime,
}

/// One balancing phase, with full provenance: when it ran, why it fired,
/// the horizon the macro engine had proved for the step ending at this
/// checkpoint, what it moved and what it cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LbPhaseRecord {
    /// Expansion-cycle index (`N_expand`) after which the phase ran.
    pub at_cycle: u64,
    /// The trigger condition and its operands at the firing cycle.
    pub firing: TriggerFiring,
    /// The event horizon covering the checkpoint at which the trigger
    /// fired — the sound no-fire window the macro engine had computed for
    /// the step ending here. Every engine records the same value (the
    /// single-cycle engines replay the macro engine's horizon schedule
    /// when the ledger is on), so this field is engine-invariant too.
    pub horizon: u64,
    /// Match+transfer rounds in the phase.
    pub rounds: u32,
    /// Work transfers performed.
    pub transfers: u64,
    /// Exact setup/transfer/multiplier attribution of the phase cost.
    pub cost: LbCostBreakdown,
}

/// Spread summary of the per-PE donation counts — the quantity GP exists
/// to flatten. `mean` and `max_over_mean` are taken over the PEs that
/// donated at least once: a perfectly fair rotation gives every donor
/// `n` or `n+1` donations (`max_over_mean <= 2` whenever anyone donated
/// twice), while nGP's fixed enumeration concentrates the burden on
/// low-index PEs and sends the ratio far above that.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DonationSpread {
    /// Total donations (= the run's work-transfer count).
    pub total: u64,
    /// PEs that donated at least once.
    pub donors: usize,
    /// Largest per-PE donation count.
    pub max: u32,
    /// Mean donation count over the donors (0 if nobody donated).
    pub mean: f64,
    /// `max / mean` over the donors (0 if nobody donated).
    pub max_over_mean: f64,
    /// Gini coefficient over **all** `P` per-PE counts (0 = perfectly
    /// even, → 1 = one PE carries everything; 0 for an all-zero vector).
    pub gini: f64,
}

impl DonationSpread {
    /// The spread of per-PE donation counts (indexed by PE; an
    /// `Outcome`'s `donations`).
    pub fn of(donations: &[u32]) -> Self {
        let total: u64 = donations.iter().map(|&d| d as u64).sum();
        let donors = donations.iter().filter(|&&d| d > 0).count();
        let max = donations.iter().copied().max().unwrap_or(0);
        let mean = if donors == 0 { 0.0 } else { total as f64 / donors as f64 };
        let max_over_mean = if donors == 0 { 0.0 } else { max as f64 / mean };
        Self { total, donors, max, mean, max_over_mean, gini: gini(donations) }
    }
}

/// The opt-in load-balance ledger of one run: per-PE receipt counts plus
/// one [`LbPhaseRecord`] per balancing phase. (Per-PE donation counts are
/// the run's own `donations`, recorded whether or not a ledger is.)
/// Derived `PartialEq` compares every field — the differential suites
/// assert whole-ledger equality across engines and thread counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Work transfers received by each PE (indexed by PE; length `P`).
    pub receipts: Vec<u32>,
    /// One record per balancing phase, in schedule order.
    pub phases: Vec<LbPhaseRecord>,
}

/// Gini coefficient of a non-negative counter vector (0 for empty or
/// all-zero), via the sorted-rank formula. Self-contained so the machine
/// crate stays dependency-light; `uts_analysis::gini` is the same formula
/// with richer companions.
fn gini(counts: &[u32]) -> f64 {
    let n = counts.len();
    if n == 0 {
        return 0.0;
    }
    let total: u64 = counts.iter().map(|&c| c as u64).sum();
    if total == 0 {
        return 0.0;
    }
    let mut sorted: Vec<u32> = counts.to_vec();
    sorted.sort_unstable();
    let weighted: f64 = sorted.iter().enumerate().map(|(i, &x)| (i as f64 + 1.0) * x as f64).sum();
    (2.0 * weighted) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_of_no_donations_is_all_zero() {
        let s = DonationSpread::of(&[0; 8]);
        assert_eq!(s.total, 0);
        assert_eq!(s.donors, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.max_over_mean, 0.0);
        assert_eq!(s.gini, 0.0);
    }

    #[test]
    fn even_rotation_has_unit_max_over_mean() {
        let s = DonationSpread::of(&[4, 4, 4, 4, 0, 0]);
        assert_eq!(s.total, 16);
        assert_eq!(s.donors, 4);
        assert_eq!(s.max, 4);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert!((s.max_over_mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn concentration_inflates_max_over_mean_and_gini() {
        let se = DonationSpread::of(&[3, 3, 3, 3, 3, 3, 0, 0]);
        let ss = DonationSpread::of(&[15, 1, 1, 1, 0, 0, 0, 0]);
        assert_eq!(se.total, ss.total, "same burden, different spread");
        assert!(ss.max_over_mean > 3.0, "{}", ss.max_over_mean);
        assert!(se.max_over_mean < 1.5, "{}", se.max_over_mean);
        assert!(ss.gini > se.gini);
    }

    #[test]
    fn cost_breakdown_invariant_shape() {
        let b = LbCostBreakdown { setup: 3, transfer: 10, multiplier: 2, total: 26 };
        assert_eq!((b.setup + b.transfer) * b.multiplier as u64, b.total);
    }
}
