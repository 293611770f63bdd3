//! Cost models: how long an expansion cycle and a balancing phase take.
//!
//! The paper's Sec. 3.3 derives the balancing-phase cost per architecture:
//!
//! * **CM-2** — setup (sum-scans) and transfer are both hardware-assisted
//!   large constants independent of `P`; `t_lb = O(1)`;
//! * **hypercube** — setup `O(log P)` (sum-scan), transfer `O(log^2 P)`
//!   (general permutation), so `t_lb = O(log^2 P)`;
//! * **mesh** — both `O(sqrt P)`, so `t_lb = O(sqrt P)`.
//!
//! Their measured CM-2 constants (Sec. 5) are `U_calc ≈ 30 ms` per expansion
//! cycle and `t_lb ≈ 13 ms` per balancing phase; Table 5 rescales `t_lb` by
//! 12× and 16× — here the [`CostModel::lb_multiplier`] knob.

use crate::{LbCostBreakdown, SimTime, MICROS_PER_SEC};

/// Interconnect topology, which fixes the asymptotic shape of `t_lb(P)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// CM-2-like: hardware scans and router make the phase cost a constant.
    Cm2,
    /// Hypercube: `t_lb = setup * log2(P) + transfer * log2(P)^2`.
    Hypercube,
    /// 2-D mesh: `t_lb = (setup + transfer) * sqrt(P)`.
    Mesh,
}

/// Machine timing parameters. All times in virtual microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Interconnect topology.
    pub topology: Topology,
    /// `U_calc`: one lockstep node-expansion cycle.
    pub u_calc: SimTime,
    /// `U_comm`: sending one node to a *neighbor* processor (used by the
    /// nearest-neighbor scheme of Sec. 8, not by scan-based matching).
    pub u_comm: SimTime,
    /// Setup cost unit of a balancing phase (matching via sum-scans).
    pub lb_setup: SimTime,
    /// Transfer cost unit of a balancing phase (moving the split stacks).
    pub lb_transfer: SimTime,
    /// Multiplier applied to the whole phase cost (Table 5 uses 12 and 16,
    /// simulated in the paper by "sending larger than necessary messages").
    pub lb_multiplier: u32,
}

impl CostModel {
    /// Parse a cost-model name — the shared grammar for the CLI and the
    /// job-server spec decoder.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "cm2" => Ok(CostModel::cm2()),
            "hypercube" => Ok(CostModel::hypercube()),
            "mesh" => Ok(CostModel::mesh()),
            other => Err(format!("unknown cost model `{other}` (cm2|hypercube|mesh)")),
        }
    }

    /// The paper's measured CM-2 constants: 30 ms expansion cycles, 13 ms
    /// balancing phases (setup 3 ms + transfer 10 ms; the paper notes scans
    /// are "a lot smaller" than general communication).
    pub fn cm2() -> Self {
        Self {
            topology: Topology::Cm2,
            u_calc: 30 * MICROS_PER_SEC / 1000,
            u_comm: MICROS_PER_SEC / 1000,
            lb_setup: 3 * MICROS_PER_SEC / 1000,
            lb_transfer: 10 * MICROS_PER_SEC / 1000,
            lb_multiplier: 1,
        }
    }

    /// A hypercube (CM-5/nCUBE-like) model with per-hop costs; `t_lb` grows
    /// as `log^2 P`.
    pub fn hypercube() -> Self {
        Self {
            topology: Topology::Hypercube,
            u_calc: 30 * MICROS_PER_SEC / 1000,
            u_comm: MICROS_PER_SEC / 1000,
            lb_setup: MICROS_PER_SEC / 1000,
            lb_transfer: MICROS_PER_SEC / 1000,
            lb_multiplier: 1,
        }
    }

    /// A 2-D mesh model; `t_lb` grows as `sqrt P`.
    pub fn mesh() -> Self {
        Self {
            topology: Topology::Mesh,
            u_calc: 30 * MICROS_PER_SEC / 1000,
            u_comm: MICROS_PER_SEC / 1000,
            lb_setup: MICROS_PER_SEC / 1000,
            lb_transfer: MICROS_PER_SEC / 1000,
            lb_multiplier: 1,
        }
    }

    /// Return a copy with the balancing cost scaled by `k` (Table 5).
    pub fn with_lb_multiplier(mut self, k: u32) -> Self {
        self.lb_multiplier = k;
        self
    }

    /// Per-round (setup, transfer) cost parts for a phase on `p`
    /// processors, before rounds and the Table 5 multiplier are applied.
    ///
    /// Degenerate sizes clamp to `p.max(2)` on every size-dependent
    /// topology: a balancing phase needs a donor *and* a receiver, so a
    /// phase on fewer than 2 PEs can never be charged by the engine — the
    /// clamp only keeps `L` estimates (and direct cost-model queries)
    /// finite and non-zero instead of collapsing to 0 (mesh used to
    /// return 0 at `p = 0`) or `-inf` exponents (hypercube `log2(0)`).
    fn lb_round_parts(&self, p: usize) -> (SimTime, SimTime) {
        match self.topology {
            Topology::Cm2 => (self.lb_setup, self.lb_transfer),
            Topology::Hypercube => {
                let d = (p.max(2) as f64).log2().ceil() as u64;
                (self.lb_setup * d, self.lb_transfer * d * d)
            }
            Topology::Mesh => {
                let s = (p.max(2) as f64).sqrt().ceil() as u64;
                (self.lb_setup * s, self.lb_transfer * s)
            }
        }
    }

    /// Cost of one balancing phase on `p` processors containing `rounds`
    /// match+transfer rounds (each round is one setup scan set plus one
    /// routed transfer; single-transfer schemes have `rounds == 1`).
    /// Sizes below 2 clamp to 2: a phase needs a donor and a receiver.
    ///
    /// # Panics
    /// Panics if `rounds == 0` — a phase with no rounds is an engine bug.
    pub fn lb_phase_cost(&self, p: usize, rounds: u32) -> SimTime {
        self.lb_phase_cost_breakdown(p, rounds).total
    }

    /// The same phase cost as [`CostModel::lb_phase_cost`], attributed
    /// exactly: `(setup + transfer) * multiplier == total`, with `setup`
    /// and `transfer` each already summed over all `rounds`.
    ///
    /// # Panics
    /// Panics if `rounds == 0` — a phase with no rounds is an engine bug.
    pub fn lb_phase_cost_breakdown(&self, p: usize, rounds: u32) -> LbCostBreakdown {
        assert!(rounds > 0, "a balancing phase must contain at least one round");
        let (setup_round, transfer_round) = self.lb_round_parts(p);
        let setup = setup_round * rounds as u64;
        let transfer = transfer_round * rounds as u64;
        LbCostBreakdown {
            setup,
            transfer,
            multiplier: self.lb_multiplier,
            total: (setup + transfer) * self.lb_multiplier as u64,
        }
    }

    /// The ratio `t_lb / U_calc` that eq. 18 (the optimal static trigger)
    /// depends on, for a single-round phase on `p` processors.
    pub fn lb_ratio(&self, p: usize) -> f64 {
        self.lb_phase_cost(p, 1) as f64 / self.u_calc as f64
    }

    /// Phase cost attribution with a *measured* transfer term: like
    /// [`CostModel::lb_phase_cost_breakdown`], but the transfer part is
    /// charged per actually-routed network step (`lb_transfer *
    /// route_steps`, where `route_steps` is `uts_net::RouteStats::steps`
    /// summed over the phase's rounds) instead of the closed-form
    /// per-round bound (`d^2` hypercube / `sqrt P` mesh / constant CM-2).
    /// The setup term stays closed-form — the sum-scan tree's depth is a
    /// property of the topology, not of the traffic. The sharded machine
    /// records this next to the closed-form breakdown so the ledger's
    /// guess and the routed measurement can be compared round-trip (the
    /// satellite bracket suite pins one against the other).
    ///
    /// # Panics
    /// Panics if `rounds == 0` — a phase with no rounds is an engine bug.
    pub fn measured_lb_cost_breakdown(
        &self,
        p: usize,
        rounds: u32,
        route_steps: u64,
    ) -> LbCostBreakdown {
        assert!(rounds > 0, "a balancing phase must contain at least one round");
        let (setup_round, _) = self.lb_round_parts(p);
        let setup = setup_round * rounds as u64;
        let transfer = self.lb_transfer * route_steps;
        LbCostBreakdown {
            setup,
            transfer,
            multiplier: self.lb_multiplier,
            total: (setup + transfer) * self.lb_multiplier as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cm2_cost_is_constant_in_p() {
        let c = CostModel::cm2();
        assert_eq!(c.lb_phase_cost(64, 1), c.lb_phase_cost(65536, 1));
        assert_eq!(c.lb_phase_cost(8192, 1), 13_000);
        assert_eq!(c.u_calc, 30_000);
    }

    #[test]
    fn cm2_matches_paper_ratio() {
        // 13 ms / 30 ms ≈ 0.433 — the ratio behind Table 2's x_o column.
        let r = CostModel::cm2().lb_ratio(8192);
        assert!((r - 13.0 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn hypercube_cost_grows_log_squared() {
        let c = CostModel::hypercube();
        let c64 = c.lb_phase_cost(64, 1); // d = 6
        let c4096 = c.lb_phase_cost(4096, 1); // d = 12
                                              // setup*d + transfer*d^2 with 1 ms unit costs:
                                              // 6+36=42 ms vs 12+144=156 ms.
        assert_eq!(c64, 42_000);
        assert_eq!(c4096, 156_000);
    }

    #[test]
    fn degenerate_sizes_clamp_to_two_processors() {
        // A balancing phase needs a donor and a receiver; sizes below 2
        // clamp rather than degenerating (mesh used to return 0 at p = 0).
        for c in [CostModel::cm2(), CostModel::hypercube(), CostModel::mesh()] {
            let floor = c.lb_phase_cost(2, 1);
            assert!(floor > 0, "{:?}", c.topology);
            assert_eq!(c.lb_phase_cost(0, 1), floor, "{:?}", c.topology);
            assert_eq!(c.lb_phase_cost(1, 1), floor, "{:?}", c.topology);
        }
    }

    #[test]
    fn breakdown_parts_sum_exactly_to_the_charged_cost() {
        for c in [
            CostModel::cm2(),
            CostModel::hypercube(),
            CostModel::mesh(),
            CostModel::cm2().with_lb_multiplier(16),
            CostModel::mesh().with_lb_multiplier(12),
        ] {
            for p in [0usize, 1, 2, 64, 100, 8192] {
                for rounds in [1u32, 3, 7] {
                    let b = c.lb_phase_cost_breakdown(p, rounds);
                    assert_eq!(
                        (b.setup + b.transfer) * b.multiplier as u64,
                        b.total,
                        "{:?} p={p} rounds={rounds}",
                        c.topology
                    );
                    assert_eq!(b.total, c.lb_phase_cost(p, rounds));
                    assert_eq!(b.multiplier, c.lb_multiplier);
                }
            }
        }
    }

    #[test]
    fn breakdown_separates_setup_from_transfer() {
        // CM-2: 3 ms setup + 10 ms transfer per round.
        let b = CostModel::cm2().lb_phase_cost_breakdown(8192, 2);
        assert_eq!(b.setup, 6_000);
        assert_eq!(b.transfer, 20_000);
        assert_eq!(b.total, 26_000);
        // Hypercube at d = 6: setup*6, transfer*36.
        let b = CostModel::hypercube().lb_phase_cost_breakdown(64, 1);
        assert_eq!(b.setup, 6_000);
        assert_eq!(b.transfer, 36_000);
    }

    #[test]
    fn mesh_cost_grows_sqrt() {
        let c = CostModel::mesh();
        assert_eq!(c.lb_phase_cost(100, 1) * 2, c.lb_phase_cost(400, 1));
    }

    #[test]
    fn multiplier_scales_linearly() {
        let c = CostModel::cm2();
        let c16 = c.with_lb_multiplier(16);
        assert_eq!(c16.lb_phase_cost(8192, 1), 16 * c.lb_phase_cost(8192, 1));
    }

    #[test]
    fn rounds_scale_linearly() {
        let c = CostModel::cm2();
        assert_eq!(c.lb_phase_cost(8192, 3), 3 * c.lb_phase_cost(8192, 1));
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        CostModel::cm2().lb_phase_cost(8, 0);
    }

    #[test]
    fn measured_breakdown_keeps_setup_and_swaps_transfer() {
        // Hypercube at p = 64 (d = 6), one round: closed form charges
        // transfer * 36; a measured route of 9 steps charges transfer * 9.
        let c = CostModel::hypercube();
        let closed = c.lb_phase_cost_breakdown(64, 1);
        let measured = c.measured_lb_cost_breakdown(64, 1, 9);
        assert_eq!(measured.setup, closed.setup);
        assert_eq!(measured.transfer, 9 * c.lb_transfer);
        assert_eq!(measured.total, (measured.setup + measured.transfer) * c.lb_multiplier as u64);
    }

    #[test]
    fn measured_breakdown_applies_the_multiplier() {
        let c = CostModel::mesh().with_lb_multiplier(12);
        let b = c.measured_lb_cost_breakdown(100, 2, 30);
        assert_eq!(b.multiplier, 12);
        assert_eq!(b.total, (b.setup + b.transfer) * 12);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn measured_zero_rounds_rejected() {
        CostModel::cm2().measured_lb_cost_breakdown(8, 0, 5);
    }
}
