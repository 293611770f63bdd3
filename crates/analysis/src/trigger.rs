//! The optimal static trigger `x_o` (eq. 18):
//!
//! ```text
//!            1
//! x_o = ---------------------------------------
//!       sqrt( (P/W) · log_{1/(1-α)} W · t_lb/U_calc ) + 1
//! ```
//!
//! obtained by minimizing `1/x + (P/((1-x)W)) · log W · t_lb/U_calc` over
//! `x` (the δ = 0 efficiency of eq. 17).

/// The α we use when reducing `log_{1/(1-α)} W` to a computable number:
/// `1 - 1/e`, which makes the factor exactly `ln W`. Calibration against
/// the paper's Table 2 `x_o` column shows this choice reproduces their
/// numbers to within ±0.01 at the CM-2 cost ratio (the paper itself says
/// "the equation is not too sensitive on α and any reasonable
/// approximation should be acceptable", Sec. 4.3).
pub const DEFAULT_ALPHA: f64 = 1.0 - std::f64::consts::E.recip();

/// Inputs to the optimal-trigger formula.
#[derive(Debug, Clone, Copy)]
pub struct TriggerParams {
    /// Problem size `W` (serial node count).
    pub w: f64,
    /// Processors `P`.
    pub p: f64,
    /// Cost ratio `t_lb / U_calc`.
    pub lb_ratio: f64,
    /// Splitting quality `α` (see [`DEFAULT_ALPHA`]).
    pub alpha: f64,
}

impl TriggerParams {
    /// Convenience constructor with the default α.
    pub fn new(w: u64, p: usize, lb_ratio: f64) -> Self {
        Self { w: w as f64, p: p as f64, lb_ratio, alpha: DEFAULT_ALPHA }
    }

    /// `log_{1/(1-α)} W = ln W / ln(1/(1-α))`.
    pub fn log_alpha_w(&self) -> f64 {
        self.w.ln() / (1.0 / (1.0 - self.alpha)).ln()
    }
}

/// Compute `x_o` per eq. 18. Returns a value in `(0, 1]`.
///
/// # Panics
/// Panics on non-positive `w`, `p` or `lb_ratio`, or `alpha` outside (0,1).
pub fn optimal_static_trigger(params: &TriggerParams) -> f64 {
    assert!(params.w > 1.0, "W must exceed 1");
    assert!(params.p >= 1.0, "P must be at least 1");
    assert!(params.lb_ratio > 0.0, "t_lb/U_calc must be positive");
    assert!(params.alpha > 0.0 && params.alpha < 1.0, "alpha must be in (0,1)");
    let inner = (params.p / params.w) * params.log_alpha_w() * params.lb_ratio;
    1.0 / (inner.sqrt() + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table 2 `x_o` column: W ∈ {941852, 3055171, 6073623,
    /// 16110463}, P = 8192, t_lb/U_calc ≈ 13/30 → x_o ≈ {0.82, 0.89,
    /// 0.92, 0.95}. Our α = 1 − 1/e reproduces them within ±0.012.
    #[test]
    fn reproduces_table2_xo_column() {
        let cases = [(941_852u64, 0.82), (3_055_171, 0.89), (6_073_623, 0.92), (16_110_463, 0.95)];
        for (w, expect) in cases {
            let xo = optimal_static_trigger(&TriggerParams::new(w, 8192, 13.0 / 30.0));
            assert!((xo - expect).abs() < 0.012, "W={w}: x_o={xo:.3} vs paper {expect}");
        }
    }

    #[test]
    fn xo_increases_with_w() {
        let xs: Vec<f64> = [1e5, 1e6, 1e7, 1e8]
            .iter()
            .map(|&w| {
                optimal_static_trigger(&TriggerParams {
                    w,
                    p: 8192.0,
                    lb_ratio: 0.43,
                    alpha: DEFAULT_ALPHA,
                })
            })
            .collect();
        assert!(xs.windows(2).all(|a| a[1] > a[0]), "{xs:?}");
    }

    #[test]
    fn xo_decreases_with_p() {
        let a = optimal_static_trigger(&TriggerParams::new(1_000_000, 1024, 0.43));
        let b = optimal_static_trigger(&TriggerParams::new(1_000_000, 8192, 0.43));
        assert!(b < a);
    }

    #[test]
    fn xo_decreases_with_lb_cost() {
        let cheap = optimal_static_trigger(&TriggerParams::new(1_000_000, 8192, 0.43));
        let dear = optimal_static_trigger(&TriggerParams::new(1_000_000, 8192, 16.0 * 0.43));
        assert!(dear < cheap);
    }

    #[test]
    fn xo_decreases_as_alpha_worsens() {
        // Smaller α (worse splits) → bigger log factor → smaller x_o.
        let good = optimal_static_trigger(&TriggerParams {
            w: 1e6,
            p: 8192.0,
            lb_ratio: 0.43,
            alpha: 0.5,
        });
        let bad = optimal_static_trigger(&TriggerParams {
            w: 1e6,
            p: 8192.0,
            lb_ratio: 0.43,
            alpha: 0.05,
        });
        assert!(bad < good);
    }

    #[test]
    fn xo_is_a_probability() {
        for w in [100u64, 10_000, 100_000_000] {
            for p in [2usize, 64, 65536] {
                for r in [0.01, 1.0, 100.0] {
                    let xo = optimal_static_trigger(&TriggerParams::new(w, p, r));
                    assert!(xo > 0.0 && xo <= 1.0);
                }
            }
        }
    }

    #[test]
    fn default_alpha_makes_log_factor_ln_w() {
        let p = TriggerParams::new(1_000_000, 8, 0.4);
        assert!((p.log_alpha_w() - (1_000_000f64).ln()).abs() < 1e-9);
    }
}
