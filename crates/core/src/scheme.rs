//! The scheme taxonomy (Table 1 of the paper, extended with the Sec. 8
//! related-work schemes).

use uts_machine::{CostModel, Topology};

/// How idle processors are paired with busy donors during a balancing
/// phase (Sec. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Matching {
    /// Plain rendezvous: k-th busy (from processor 0) feeds the k-th idle.
    /// The prior-work scheme of Powley et al. and Mahanti & Daniels.
    Ngp,
    /// Global-pointer rendezvous: the busy enumeration starts after the
    /// last donor of the previous phase, rotating the donation burden.
    /// **New in the paper.**
    Gp,
    /// Ring nearest-neighbour (Frye & Myczkowski, Sec. 8): busy PE `i`
    /// feeds PE `(i + 1) mod P` when that PE is idle. Every decision reads
    /// the pre-round state, so a PE fed this round cannot donate in it.
    Ring,
}

/// When a balancing phase is triggered (checked after every expansion
/// cycle; at least one cycle always runs between phases).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// `S^x`: balance as soon as the busy count `A <= x * P` (eq. 1).
    Static {
        /// The threshold fraction `x ∈ [0, 1]`.
        x: f64,
    },
    /// `D^P` (Powley/Ferguson/Korf): balance when `w >= A * (t + L)`
    /// (eq. 2), `w` = work this phase in PE-time, `t` = elapsed phase time,
    /// `L` = previous phase's cost.
    Dp,
    /// `D^K` (**new in the paper**): balance when the idle time accumulated
    /// this phase exceeds the next phase's cost spread over the machine:
    /// `w_idle >= L * P` (eq. 4).
    Dk,
    /// Balance as soon as any processor is idle (the FESS/FEGS trigger of
    /// Mahanti & Daniels, Sec. 8).
    AnyIdle,
}

/// How many transfer rounds one balancing phase performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMode {
    /// One rendezvous round: every matched busy processor splits once.
    Single,
    /// Repeat rendezvous rounds until no idle processor can be fed — the
    /// paper requires this whenever `D^P` triggering is used (Sec. 2.3).
    Multiple,
    /// Repeat counted transfers until node counts are near-uniform across
    /// processors (the FEGS scheme of Sec. 8).
    Equalize,
}

/// A complete load-balancing scheme: matching × trigger × transfer mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scheme {
    /// The matching mechanism.
    pub matching: Matching,
    /// The triggering mechanism.
    pub trigger: Trigger,
    /// The transfer mode.
    pub transfers: TransferMode,
}

impl Scheme {
    /// Parse a scheme name (`gp-s:0.8`, `ngp-dk`, `fess`, …) — the shared
    /// grammar for the CLI and the job-server spec decoder.
    pub fn parse(s: &str) -> Result<Self, String> {
        fn static_threshold(x: &str) -> Result<f64, String> {
            let x: f64 = x.parse().map_err(|_| format!("bad static threshold `{x}`"))?;
            if (0.0..=1.0).contains(&x) {
                Ok(x)
            } else {
                Err(format!("static threshold {x} must lie in [0, 1]"))
            }
        }
        if let Some(x) = s.strip_prefix("gp-s:") {
            return static_threshold(x).map(Scheme::gp_static);
        }
        if let Some(x) = s.strip_prefix("ngp-s:") {
            return static_threshold(x).map(Scheme::ngp_static);
        }
        match s {
            "gp-dk" => Ok(Scheme::gp_dk()),
            "ngp-dk" => Ok(Scheme::ngp_dk()),
            "gp-dp" => Ok(Scheme::gp_dp()),
            "ngp-dp" => Ok(Scheme::ngp_dp()),
            "fess" => Ok(Scheme::fess()),
            "fegs" => Ok(Scheme::fegs()),
            "ring-nn" => Ok(Scheme::ring_nn()),
            other => Err(format!("unknown scheme `{other}`")),
        }
    }

    /// `nGP-S^x` — prior work (Powley et al.; Mahanti & Daniels).
    pub fn ngp_static(x: f64) -> Self {
        Self {
            matching: Matching::Ngp,
            trigger: Trigger::Static { x },
            transfers: TransferMode::Single,
        }
    }

    /// `GP-S^x` — new scheme.
    pub fn gp_static(x: f64) -> Self {
        Self {
            matching: Matching::Gp,
            trigger: Trigger::Static { x },
            transfers: TransferMode::Single,
        }
    }

    /// `nGP-D^P` (multiple transfers, as the paper requires for `D^P`).
    pub fn ngp_dp() -> Self {
        Self { matching: Matching::Ngp, trigger: Trigger::Dp, transfers: TransferMode::Multiple }
    }

    /// `GP-D^P` — new scheme (multiple transfers).
    pub fn gp_dp() -> Self {
        Self { matching: Matching::Gp, trigger: Trigger::Dp, transfers: TransferMode::Multiple }
    }

    /// `nGP-D^K` — new scheme (single transfer).
    pub fn ngp_dk() -> Self {
        Self { matching: Matching::Ngp, trigger: Trigger::Dk, transfers: TransferMode::Single }
    }

    /// `GP-D^K` — new scheme (single transfer).
    pub fn gp_dk() -> Self {
        Self { matching: Matching::Gp, trigger: Trigger::Dk, transfers: TransferMode::Single }
    }

    /// FESS (Mahanti & Daniels): balance on first idle, single transfer,
    /// nGP matching.
    pub fn fess() -> Self {
        Self { matching: Matching::Ngp, trigger: Trigger::AnyIdle, transfers: TransferMode::Single }
    }

    /// FEGS (Mahanti & Daniels): balance on first idle, equalize node
    /// counts, nGP matching.
    pub fn fegs() -> Self {
        Self {
            matching: Matching::Ngp,
            trigger: Trigger::AnyIdle,
            transfers: TransferMode::Equalize,
        }
    }

    /// Ring nearest-neighbour (Frye & Myczkowski, Sec. 8): after every
    /// cycle with an idle PE, each busy PE whose right ring neighbour is
    /// idle donates one split, charged as a neighbour step
    /// ([`Scheme::phase_cost_model`]).
    pub fn ring_nn() -> Self {
        Self {
            matching: Matching::Ring,
            trigger: Trigger::AnyIdle,
            transfers: TransferMode::Single,
        }
    }

    /// The cost model this scheme's balancing phases are charged under —
    /// the one place a scheme changes the phase cost. Scan-based matching
    /// pays the configured `t_lb`; a ring step only moves work to a
    /// neighbour, so it costs `U_comm` with no setup scan, constant in `P`.
    /// Expansion cycles and the interconnect a router models are unchanged.
    pub fn phase_cost_model(&self, cost: CostModel) -> CostModel {
        match self.matching {
            Matching::Ngp | Matching::Gp => cost,
            Matching::Ring => {
                CostModel { topology: Topology::Cm2, lb_setup: 0, lb_transfer: cost.u_comm, ..cost }
            }
        }
    }

    /// The six schemes of the paper's Table 1, with a generic static
    /// threshold `x`.
    pub fn table1(x: f64) -> [(&'static str, Scheme); 6] {
        [
            ("nGP-S^x", Self::ngp_static(x)),
            ("nGP-D^P", Self::ngp_dp()),
            ("nGP-D^K", Self::ngp_dk()),
            ("GP-S^x", Self::gp_static(x)),
            ("GP-D^P", Self::gp_dp()),
            ("GP-D^K", Self::gp_dk()),
        ]
    }

    /// Display name in the paper's notation.
    pub fn name(&self) -> String {
        let m = match self.matching {
            Matching::Ngp => "nGP",
            Matching::Gp => "GP",
            Matching::Ring => "ring",
        };
        let t = match self.trigger {
            Trigger::Static { x } => format!("S^{x:.2}"),
            Trigger::Dp => "D^P".to_string(),
            Trigger::Dk => "D^K".to_string(),
            Trigger::AnyIdle => match (self.matching, self.transfers) {
                (_, TransferMode::Equalize) => return "FEGS".to_string(),
                (Matching::Ring, _) => "NN".to_string(),
                _ => return "FESS".to_string(),
            },
        };
        format!("{m}-{t}")
    }

    /// Whether this scheme's trigger adapts at run time.
    pub fn is_dynamic(&self) -> bool {
        matches!(self.trigger, Trigger::Dp | Trigger::Dk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_the_papers_six_schemes() {
        let t = Scheme::table1(0.8);
        assert_eq!(t.len(), 6);
        // DP schemes use multiple transfers, everything else single.
        for (name, s) in t {
            match s.trigger {
                Trigger::Dp => assert_eq!(s.transfers, TransferMode::Multiple, "{name}"),
                _ => assert_eq!(s.transfers, TransferMode::Single, "{name}"),
            }
        }
    }

    #[test]
    fn names_follow_paper_notation() {
        assert_eq!(Scheme::gp_static(0.9).name(), "GP-S^0.90");
        assert_eq!(Scheme::ngp_dp().name(), "nGP-D^P");
        assert_eq!(Scheme::gp_dk().name(), "GP-D^K");
        assert_eq!(Scheme::fess().name(), "FESS");
        assert_eq!(Scheme::fegs().name(), "FEGS");
        assert_eq!(Scheme::ring_nn().name(), "ring-NN");
    }

    #[test]
    fn only_ring_matching_changes_the_phase_cost() {
        let cost = CostModel::hypercube();
        assert_eq!(Scheme::gp_dk().phase_cost_model(cost), cost);
        assert_eq!(Scheme::fegs().phase_cost_model(cost), cost);
        let ring = Scheme::ring_nn().phase_cost_model(cost);
        assert_eq!(ring.lb_phase_cost(4096, 1), cost.u_comm);
        assert_eq!((ring.u_calc, ring.u_comm), (cost.u_calc, cost.u_comm));
    }

    #[test]
    fn dynamic_flag() {
        assert!(Scheme::gp_dp().is_dynamic());
        assert!(Scheme::ngp_dk().is_dynamic());
        assert!(!Scheme::gp_static(0.5).is_dynamic());
        assert!(!Scheme::fess().is_dynamic());
    }
}
