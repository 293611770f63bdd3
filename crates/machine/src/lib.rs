//! A lockstep SIMD machine model in the spirit of the CM-2.
//!
//! The paper (Karypis & Kumar, Secs. 3.1 & 3.3) abstracts the target machine
//! to a handful of quantities:
//!
//! * `P` — the number of identical processors working in lock-step;
//! * `U_calc` — the time of one node-expansion cycle (~30 ms on their CM-2);
//! * `t_lb` — the time of one load-balancing phase (~13 ms on their CM-2;
//!   `O(log^2 P)` on a hypercube, `O(sqrt P)` on a mesh);
//! * the derived totals `T_calc`, `T_idle`, `T_lb`, and the identity
//!   `P * T_par = T_calc + T_idle + T_lb` that defines efficiency.
//!
//! This crate is that abstraction made executable: a [`SimdMachine`] keeps a
//! virtual clock in integer microseconds, charges each expansion cycle and
//! balancing phase according to a [`CostModel`], and maintains the metrics
//! the paper reports (`N_expand`, `N_lb`, number of work transfers, the
//! active-processor trace of Fig. 8, and the efficiency of eq. 9).
//!
//! The machine knows nothing about trees or search; `uts-core` drives it.

pub mod cost;
pub mod ledger;
pub mod metrics;

pub use cost::{CostModel, Topology};
pub use ledger::{
    DonationSpread, LbCostBreakdown, LbPhaseRecord, Ledger, TriggerFiring, TriggerKind,
};
pub use metrics::{ActiveTrace, Metrics, PhaseStats};

/// Virtual time, in integer microseconds (avoids float drift across millions
/// of cycles). One paper second = 1_000_000 `SimTime` units.
pub type SimTime = u64;

/// Number of microseconds per virtual second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// The lockstep machine: clock + cost model + accounting.
///
/// The driving engine calls [`SimdMachine::expansion_cycle`] once per
/// lockstep node-expansion cycle (reporting how many PEs were busy) and
/// [`SimdMachine::lb_phase`] once per load-balancing phase (reporting how
/// many match/transfer rounds it contained and how many work transfers were
/// made). The machine does all time accounting.
#[derive(Debug, Clone)]
pub struct SimdMachine {
    /// Ensemble size `P`.
    p: usize,
    cost: CostModel,
    /// Virtual wall-clock (the paper's `T_par` once the search terminates).
    now: SimTime,
    metrics: Metrics,
    /// Counters since the current search phase began (reset by `lb_phase`);
    /// the dynamic triggers are functions of these.
    phase: PhaseStats,
    /// Cost of the most recent load-balancing phase — the paper's estimate
    /// `L` for the cost of the *next* phase ("the value of L cannot be
    /// known... it is approximated by the cost of the previous load
    /// balancing phase", Sec. 2.1).
    last_lb_cost: SimTime,
}

impl SimdMachine {
    /// Create a machine with `p` processors under the given cost model.
    ///
    /// Before any balancing phase has run, `L` is estimated by the cost
    /// model's prediction for a single-round phase.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(p: usize, cost: CostModel) -> Self {
        assert!(p > 0, "a SIMD machine needs at least one processor");
        let last_lb_cost = cost.lb_phase_cost(p, 1);
        Self {
            p,
            cost,
            now: 0,
            metrics: Metrics::default(),
            phase: PhaseStats::default(),
            last_lb_cost,
        }
    }

    /// Rebuild a machine from checkpointed state: the resumed machine must
    /// be indistinguishable from one that lived through the original run,
    /// so every private field is restored verbatim (the checkpoint
    /// subsystem in `uts-ckpt` is the intended caller).
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn restore(
        p: usize,
        cost: CostModel,
        now: SimTime,
        last_lb_cost: SimTime,
        metrics: Metrics,
        phase: PhaseStats,
    ) -> Self {
        assert!(p > 0, "a SIMD machine needs at least one processor");
        Self { p, cost, now, metrics, phase, last_lb_cost }
    }

    /// Ensemble size `P`.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Counters since the current search phase began.
    pub fn phase(&self) -> &PhaseStats {
        &self.phase
    }

    /// The machine's estimate of the next balancing phase's cost (`L`).
    pub fn estimated_lb_cost(&self) -> SimTime {
        self.last_lb_cost
    }

    /// Enable recording of the active-processor count per expansion cycle
    /// (the `A(t)` traces of Fig. 8). Off by default to keep sweeps lean.
    pub fn record_active_trace(&mut self, on: bool) {
        self.metrics.trace_enabled = on;
    }

    /// Account one lockstep node-expansion cycle in which `busy` of the `P`
    /// processors expanded a node (each expanding exactly one).
    ///
    /// Advances the clock by `U_calc`; the `P - busy` idle processors accrue
    /// `U_calc` of idle time each (the paper's `T_idle` counts idling
    /// *during search phases only*, which is exactly what this charges).
    ///
    /// # Panics
    /// Panics if `busy > P`.
    pub fn expansion_cycle(&mut self, busy: usize) {
        self.expansion_cycles_run(busy, 1);
    }

    /// Account `n` consecutive lockstep expansion cycles, each with the
    /// same `busy` count — the batch entry point for macro-stepping
    /// engines. Exactly equivalent to calling
    /// [`SimdMachine::expansion_cycle`]`(busy)` `n` times, but O(1): the
    /// counters advance arithmetically and the trace records one
    /// run-length-encoded run.
    ///
    /// # Panics
    /// Panics if `busy > P`.
    pub fn expansion_cycles_run(&mut self, busy: usize, n: u64) {
        assert!(busy <= self.p, "cannot have more busy PEs than the machine has");
        if n == 0 {
            return;
        }
        let u = self.cost.u_calc;
        self.now += u * n;
        self.metrics.n_expand += n;
        self.metrics.nodes_expanded += busy as u64 * n;
        self.metrics.busy_pe_cycles += busy as u64 * n;
        self.metrics.idle_pe_cycles += (self.p - busy) as u64 * n;
        self.phase.cycles += n;
        self.phase.busy_pe_cycles += busy as u64 * n;
        self.phase.idle_pe_cycles += (self.p - busy) as u64 * n;
        if self.metrics.trace_enabled {
            self.metrics.active_trace.push_run(busy as u32, n);
        }
    }

    /// Account a whole batch of consecutive expansion cycles from its
    /// *death events* — the merge-friendly entry point for macro-stepping
    /// engines (host-parallel or not). `started` PEs each worked from
    /// cycle 1 of the batch; `deaths` holds, **sorted ascending**, the
    /// batch-relative cycle at which each draining PE worked its last
    /// cycle; survivors worked all `ran` cycles. Exactly equivalent to the
    /// per-cycle sequence
    /// `expansion_cycle(worked(1)), …, expansion_cycle(worked(ran))` where
    /// `worked(j) = started - #{deaths < j}`, but O(distinct death times):
    /// each constant run of the step function is charged via
    /// [`SimdMachine::expansion_cycles_run`].
    ///
    /// Because every input is a plain count, shard-local results from
    /// host-parallel workers can be merged (concatenate + sort the death
    /// lists, sum the started counts per shard → same totals) before a
    /// single call here reconstructs the lockstep schedule bit-identically.
    ///
    /// # Panics
    /// Panics if `started > P`; debug-asserts that `deaths` is sorted, has
    /// at most `started` entries, and lies within `1..=ran`.
    pub fn expansion_cycles_with_deaths(&mut self, started: usize, ran: u64, deaths: &[u64]) {
        debug_assert!(deaths.len() <= started, "more deaths than participants");
        debug_assert!(deaths.windows(2).all(|w| w[0] <= w[1]), "deaths must be sorted");
        debug_assert!(deaths.iter().all(|&e| e >= 1 && e <= ran), "death outside the batch");
        let mut alive = started;
        let mut prev = 0u64;
        let mut d = 0usize;
        while d < deaths.len() {
            let e = deaths[d];
            self.expansion_cycles_run(alive, e - prev);
            prev = e;
            while d < deaths.len() && deaths[d] == e {
                d += 1;
                alive -= 1;
            }
        }
        self.expansion_cycles_run(alive, ran - prev);
    }

    /// Account one load-balancing phase consisting of `rounds` match+transfer
    /// rounds (1 for single-transfer schemes; ≥1 when the DP trigger performs
    /// multiple work transfers) in which `transfers` stack splits were sent.
    ///
    /// Advances the clock by the cost model's phase cost, updates `L`, and
    /// resets the search-phase counters.
    pub fn lb_phase(&mut self, rounds: u32, transfers: u64) {
        let cost = self.cost.lb_phase_cost(self.p, rounds);
        self.now += cost;
        self.metrics.n_lb += 1;
        self.metrics.n_transfers += transfers;
        self.metrics.t_lb_machine += cost;
        self.last_lb_cost = cost;
        self.phase = PhaseStats::default();
    }

    /// The paper's running time `T_par` (so far): the virtual clock.
    pub fn t_par(&self) -> SimTime {
        self.now
    }

    /// Finish the run and return the final report. `T_calc` counts the
    /// nodes the machine expanded ([`Metrics::nodes_expanded`]); in the
    /// paper's exhaustive, anomaly-free setting that is the serial `W`.
    pub fn finish(self) -> Report {
        let t_calc = self.metrics.nodes_expanded * self.cost.u_calc;
        let t_idle = self.metrics.idle_pe_cycles * self.cost.u_calc;
        let t_lb = self.metrics.t_lb_machine * self.p as u64;
        let denom = t_calc + t_idle + t_lb;
        let efficiency = if denom == 0 { 1.0 } else { t_calc as f64 / denom as f64 };
        Report {
            p: self.p,
            nodes_expanded: self.metrics.nodes_expanded,
            n_expand: self.metrics.n_expand,
            n_lb: self.metrics.n_lb,
            n_transfers: self.metrics.n_transfers,
            t_par: self.now,
            t_calc,
            t_idle,
            t_lb,
            efficiency,
            active_trace: self.metrics.active_trace,
        }
    }
}

/// Final accounting of one parallel search, in the paper's vocabulary
/// (Sec. 3.1). All times are in PE-microseconds except `t_par` (wall).
///
/// `PartialEq` compares every field (including the f64 `efficiency`,
/// which is derived deterministically from integer counters, so
/// bit-equality is the right notion): the cross-engine differential
/// suites assert whole-report equality between engines.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Number of processors.
    pub p: usize,
    /// Nodes expanded by the parallel search (the serial `W` when
    /// anomaly-free).
    pub nodes_expanded: u64,
    /// Number of node-expansion cycles (`N_expand` in Tables 2 & 4).
    pub n_expand: u64,
    /// Number of load-balancing phases (`N_lb` in Table 2).
    pub n_lb: u64,
    /// Number of individual work transfers (`*N_lb` in Table 4).
    pub n_transfers: u64,
    /// Parallel running time (virtual wall clock).
    pub t_par: SimTime,
    /// `T_calc = nodes_expanded * U_calc` (PE-time in useful computation).
    pub t_calc: u64,
    /// `T_idle` — PE-time idled during search phases.
    pub t_idle: u64,
    /// `T_lb` — PE-time spent in balancing phases (`phase cost × P` summed).
    pub t_lb: u64,
    /// `E = T_calc / (T_calc + T_idle + T_lb)` (eq. 9's left-hand side).
    pub efficiency: f64,
    /// `A(t)` per expansion cycle if tracing was enabled (Fig. 8),
    /// run-length encoded as `(cycle, A)` breakpoints.
    pub active_trace: metrics::ActiveTrace,
}

impl Report {
    /// Speedup `S = T_calc / T_par` (Sec. 3.1).
    pub fn speedup(&self) -> f64 {
        if self.t_par == 0 {
            self.p as f64
        } else {
            self.t_calc as f64 / self.t_par as f64
        }
    }

    /// Check the accounting identity `P * T_par = T_calc + T_idle + T_lb`
    /// that the paper's Sec. 3.1 defines.
    pub fn accounting_identity_holds(&self) -> bool {
        self.p as u64 * self.t_par == self.t_calc + self.t_idle + self.t_lb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cm2(p: usize) -> SimdMachine {
        SimdMachine::new(p, CostModel::cm2())
    }

    #[test]
    fn expansion_cycle_advances_clock_and_counts() {
        let mut m = cm2(8);
        m.expansion_cycle(5);
        assert_eq!(m.now(), CostModel::cm2().u_calc);
        assert_eq!(m.metrics().n_expand, 1);
        assert_eq!(m.metrics().nodes_expanded, 5);
        assert_eq!(m.metrics().busy_pe_cycles, 5);
        assert_eq!(m.metrics().idle_pe_cycles, 3);
    }

    #[test]
    fn lb_phase_resets_phase_counters_and_updates_l() {
        let mut m = cm2(8);
        m.expansion_cycle(8);
        m.expansion_cycle(4);
        assert_eq!(m.phase().cycles, 2);
        assert_eq!(m.phase().idle_pe_cycles, 4);
        m.lb_phase(1, 4);
        assert_eq!(m.phase().cycles, 0);
        assert_eq!(m.metrics().n_lb, 1);
        assert_eq!(m.metrics().n_transfers, 4);
        assert_eq!(m.estimated_lb_cost(), CostModel::cm2().lb_phase_cost(8, 1));
    }

    #[test]
    fn fully_busy_run_has_perfect_efficiency() {
        let mut m = cm2(4);
        for _ in 0..10 {
            m.expansion_cycle(4);
        }
        let r = m.finish();
        assert_eq!(r.t_idle, 0);
        assert_eq!(r.t_lb, 0);
        assert!((r.efficiency - 1.0).abs() < 1e-12);
        assert!(r.accounting_identity_holds());
    }

    #[test]
    fn idle_time_reduces_efficiency() {
        let mut m = cm2(4);
        for _ in 0..10 {
            m.expansion_cycle(2); // half the machine idles
        }
        let r = m.finish();
        assert!((r.efficiency - 0.5).abs() < 1e-12, "E = {}", r.efficiency);
        assert!(r.accounting_identity_holds());
    }

    #[test]
    fn lb_time_reduces_efficiency() {
        let mut m = cm2(4);
        m.expansion_cycle(4);
        m.lb_phase(1, 2);
        let r = m.finish();
        let expect = r.t_calc as f64 / (r.t_calc + 4 * CostModel::cm2().lb_phase_cost(4, 1)) as f64;
        assert!((r.efficiency - expect).abs() < 1e-12);
        assert!(r.accounting_identity_holds());
    }

    #[test]
    fn trace_records_only_when_enabled() {
        let mut m = cm2(4);
        m.expansion_cycle(4);
        assert!(m.metrics().active_trace.is_empty());
        m.record_active_trace(true);
        m.expansion_cycle(3);
        m.expansion_cycle(1);
        let r = m.finish();
        assert_eq!(r.active_trace.to_vec(), vec![3, 1]);
    }

    #[test]
    fn batched_cycles_match_singles_exactly() {
        let mut batched = cm2(8);
        batched.record_active_trace(true);
        let mut singles = cm2(8);
        singles.record_active_trace(true);
        for &(busy, n) in &[(8usize, 3u64), (5, 1), (5, 4), (0, 2)] {
            batched.expansion_cycles_run(busy, n);
            for _ in 0..n {
                singles.expansion_cycle(busy);
            }
        }
        batched.lb_phase(1, 2);
        singles.lb_phase(1, 2);
        assert_eq!(batched.now(), singles.now());
        assert_eq!(batched.phase().cycles, singles.phase().cycles);
        let (rb, rs) = (batched.finish(), singles.finish());
        assert_eq!(rb.n_expand, rs.n_expand);
        assert_eq!(rb.nodes_expanded, rs.nodes_expanded);
        assert_eq!(rb.t_idle, rs.t_idle);
        assert_eq!(rb.active_trace, rs.active_trace);
    }

    #[test]
    fn death_batches_match_per_cycle_singles_exactly() {
        // worked(j) = started - #{deaths < j}: replay the same step
        // function through both entry points and demand equality.
        let cases: &[(usize, u64, &[u64])] = &[
            (8, 5, &[]),           // nobody dies
            (8, 5, &[1, 1, 3, 5]), // deaths at both ends and a duplicate
            (3, 4, &[2, 2, 2]),    // whole ensemble drains mid-batch
            (1, 7, &[7]),          // lone PE works the full batch then dies
        ];
        for &(started, ran, deaths) in cases {
            let mut batched = cm2(8);
            batched.record_active_trace(true);
            let mut singles = cm2(8);
            singles.record_active_trace(true);
            batched.expansion_cycles_with_deaths(started, ran, deaths);
            for j in 1..=ran {
                let worked = started - deaths.iter().filter(|&&e| e < j).count();
                singles.expansion_cycle(worked);
            }
            assert_eq!(batched.now(), singles.now(), "{started}/{ran}/{deaths:?}");
            assert_eq!(batched.phase().cycles, singles.phase().cycles);
            assert_eq!(batched.phase().busy_pe_cycles, singles.phase().busy_pe_cycles);
            assert_eq!(batched.phase().idle_pe_cycles, singles.phase().idle_pe_cycles);
            let (rb, rs) = (batched.finish(), singles.finish());
            assert_eq!(rb, rs, "{started}/{ran}/{deaths:?}");
        }
    }

    #[test]
    fn zero_length_batch_is_a_noop() {
        let mut m = cm2(4);
        m.expansion_cycles_run(3, 0);
        assert_eq!(m.now(), 0);
        assert_eq!(m.metrics().n_expand, 0);
    }

    #[test]
    fn speedup_equals_p_when_fully_efficient() {
        let mut m = cm2(16);
        for _ in 0..5 {
            m.expansion_cycle(16);
        }
        let r = m.finish();
        assert!((r.speedup() - 16.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let _ = SimdMachine::new(0, CostModel::cm2());
    }

    #[test]
    #[should_panic(expected = "more busy PEs")]
    fn overfull_cycle_rejected() {
        cm2(2).expansion_cycle(3);
    }
}
