//! Closed-form efficiency models (eqs. 12 and 15) and the isoefficiency
//! table (Table 6).
//!
//! With δ = 0 (processors drop to the threshold immediately after each
//! balance), eq. 12 (GP-S^x) reads
//!
//! ```text
//! E = 1 / ( 1/x + (P / ((1-x) W)) · log_{1/(1-α)} W · t_lb/U_calc )
//! ```
//!
//! and eq. 15 (nGP-S^x) replaces `1/(1-x)` by the nGP `V(P)` bound.

use crate::bounds::{v_gp, v_ngp};

/// Model efficiency for GP-S^x (eq. 12 with δ = 0).
pub fn gp_efficiency(w: f64, p: f64, x: f64, lb_ratio: f64, log_alpha_w: f64) -> f64 {
    let overhead = (p / w) * v_gp(x) * log_alpha_w * lb_ratio;
    1.0 / (1.0 / x + overhead)
}

/// Model efficiency for nGP-S^x (eq. 15 with δ = 0, using the Appendix B
/// upper bound for `V(P)` — hence a *lower* bound on E).
pub fn ngp_efficiency(w: f64, p: f64, x: f64, lb_ratio: f64, log_alpha_w: f64) -> f64 {
    let overhead = (p / w) * v_ngp(x, log_alpha_w) * log_alpha_w * lb_ratio;
    1.0 / (1.0 / x + overhead)
}

/// One row of the paper's Table 6: the isoefficiency of a scheme on an
/// architecture, as a human-readable formula and a numeric evaluator.
#[derive(Debug, Clone)]
pub struct IsoeffRow {
    /// Scheme name.
    pub scheme: &'static str,
    /// Architecture.
    pub architecture: &'static str,
    /// The asymptotic isoefficiency formula (the paper's notation).
    pub formula: &'static str,
}

impl IsoeffRow {
    /// Evaluate the formula's growth function at `p` with `x` (nGP rows
    /// depend on the threshold; GP rows ignore it). Constants are dropped —
    /// use ratios across `p` values.
    pub fn growth(&self, p: f64, x: f64) -> f64 {
        let lg = p.log2().max(1.0);
        match (self.scheme, self.architecture) {
            ("GP-S^x", "CM-2") => p * lg,
            ("nGP-S^x", "CM-2") => p * lg.powf(x / (1.0 - x)),
            ("GP-S^x", "Hypercube") => p * lg.powi(3),
            ("nGP-S^x", "Hypercube") => p * lg.powf(2.0 + x / (1.0 - x)),
            ("GP-S^x", "Mesh") => p.powf(1.5) * lg,
            ("nGP-S^x", "Mesh") => p.powf(1.5) * lg.powf(x / (1.0 - x)),
            _ => unreachable!("unknown row"),
        }
    }
}

/// The paper's Table 6 (plus the CM-2 rows implied by `t_lb = O(1)`,
/// eqs. 13 & 16).
pub fn isoeff_table() -> Vec<IsoeffRow> {
    vec![
        IsoeffRow { scheme: "GP-S^x", architecture: "CM-2", formula: "O(P log P)" },
        IsoeffRow { scheme: "nGP-S^x", architecture: "CM-2", formula: "O(P log^{x/(1-x)} P)" },
        IsoeffRow { scheme: "GP-S^x", architecture: "Hypercube", formula: "O(P log^3 P)" },
        IsoeffRow {
            scheme: "nGP-S^x",
            architecture: "Hypercube",
            formula: "O(P log^{2 + x/(1-x)} P)",
        },
        IsoeffRow { scheme: "GP-S^x", architecture: "Mesh", formula: "O(P^1.5 log P)" },
        IsoeffRow { scheme: "nGP-S^x", architecture: "Mesh", formula: "O(P^1.5 log^{x/(1-x)} P)" },
    ]
}

/// The paper's bound on DK overheads (Sec. 6.2): total DK overhead is at
/// most twice that of the optimal static trigger. Returns the measured
/// overhead ratio `(T_idle + T_lb)_DK / (T_idle + T_lb)_Sxo`.
pub fn dk_overhead_ratio(dk_t_idle: u64, dk_t_lb: u64, sxo_t_idle: u64, sxo_t_lb: u64) -> f64 {
    let num = (dk_t_idle + dk_t_lb) as f64;
    let den = (sxo_t_idle + sxo_t_lb) as f64;
    if den == 0.0 {
        if num == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LW: f64 = 13.8; // ln(1e6)

    #[test]
    fn gp_model_efficiency_bounded_by_x() {
        // Eq. 9: E <= x + δ; with δ = 0 the model never exceeds x.
        for x in [0.5, 0.7, 0.9] {
            let e = gp_efficiency(1e9, 8.0, x, 0.43, LW);
            assert!(e <= x + 1e-9, "x={x} e={e}");
            // And approaches x as W → ∞.
            assert!(e > x - 0.01);
        }
    }

    #[test]
    fn gp_beats_ngp_at_high_x_in_the_model() {
        for x in [0.7, 0.8, 0.9] {
            let gp = gp_efficiency(1e6, 8192.0, x, 0.43, LW);
            let ngp = ngp_efficiency(1e6, 8192.0, x, 0.43, LW);
            assert!(gp >= ngp, "x={x}: gp={gp} ngp={ngp}");
        }
    }

    #[test]
    fn models_coincide_at_half() {
        // v_gp(0.5) = 2 vs v_ngp = 1: GP's worst case is a factor 2, so the
        // models differ by at most that overhead term; at W >> P they agree.
        let gp = gp_efficiency(1e9, 8.0, 0.5, 0.43, LW);
        let ngp = ngp_efficiency(1e9, 8.0, 0.5, 0.43, LW);
        assert!((gp - ngp).abs() < 1e-3);
    }

    #[test]
    fn efficiency_rises_with_w_falls_with_p() {
        let e_small = gp_efficiency(1e5, 8192.0, 0.8, 0.43, (1e5f64).ln());
        let e_big = gp_efficiency(1e7, 8192.0, 0.8, 0.43, (1e7f64).ln());
        assert!(e_big > e_small);
        let e_few = gp_efficiency(1e6, 1024.0, 0.8, 0.43, LW);
        let e_many = gp_efficiency(1e6, 65536.0, 0.8, 0.43, LW);
        assert!(e_few > e_many);
    }

    #[test]
    fn table6_has_all_rows_and_sane_growth() {
        let t = isoeff_table();
        assert_eq!(t.len(), 6);
        for row in &t {
            // Growth functions are increasing in P.
            let g1 = row.growth(1024.0, 0.8);
            let g2 = row.growth(8192.0, 0.8);
            assert!(g2 > g1, "{} on {}", row.scheme, row.architecture);
        }
    }

    #[test]
    fn ngp_growth_worsens_with_x() {
        let row = &isoeff_table()[1]; // nGP on CM-2
        let slack_low = row.growth(8192.0, 0.7) / row.growth(1024.0, 0.7);
        let slack_high = row.growth(8192.0, 0.9) / row.growth(1024.0, 0.9);
        assert!(slack_high > slack_low);
    }

    #[test]
    fn dk_ratio_basics() {
        assert_eq!(dk_overhead_ratio(10, 10, 10, 10), 1.0);
        assert_eq!(dk_overhead_ratio(30, 10, 10, 10), 2.0);
        assert_eq!(dk_overhead_ratio(0, 0, 0, 0), 1.0);
        assert!(dk_overhead_ratio(1, 0, 0, 0).is_infinite());
    }
}
