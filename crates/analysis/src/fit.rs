//! Fits that quantify how close a measured contour is to the analytic
//! isoefficiency shape.
//!
//! Two fits are provided:
//!
//! * [`fit_through_origin`]: least-squares `y = a·x` — used with
//!   `x = P log2 P` to check Fig. 4a-style linearity (a high R² means the
//!   contour *is* `O(P log P)`);
//! * [`fit_power_law`]: log-log regression `y = a·x^b` — the exponent `b`
//!   against `x = P log2 P` exposes super-linear growth (nGP at high x).

/// Result of a power-law fit `y = a · x^b`.
#[derive(Debug, Clone, Copy)]
pub struct PowerLawFit {
    /// Scale factor `a`.
    pub a: f64,
    /// Exponent `b`.
    pub b: f64,
    /// Coefficient of determination in log-log space.
    pub r2: f64,
}

/// Least-squares slope of `y = a·x` through the origin, with R² computed
/// against the mean-free total sum of squares. Returns `(a, r2)`.
///
/// # Panics
/// Panics if fewer than 2 points are supplied.
pub fn fit_through_origin(points: &[(f64, f64)]) -> (f64, f64) {
    assert!(points.len() >= 2, "need at least two points to fit");
    let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
    let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
    let a = sxy / sxx;
    let mean_y: f64 = points.iter().map(|(_, y)| y).sum::<f64>() / points.len() as f64;
    let ss_tot: f64 = points.iter().map(|(_, y)| (y - mean_y).powi(2)).sum();
    let ss_res: f64 = points.iter().map(|(x, y)| (y - a * x).powi(2)).sum();
    let r2 = if ss_tot == 0.0 { 1.0 } else { 1.0 - ss_res / ss_tot };
    (a, r2)
}

/// Log-log linear regression for `y = a·x^b`.
///
/// # Panics
/// Panics if fewer than 2 points are supplied, or any coordinate is
/// non-positive (logs would be undefined).
pub fn fit_power_law(points: &[(f64, f64)]) -> PowerLawFit {
    assert!(points.len() >= 2, "need at least two points to fit");
    let logs: Vec<(f64, f64)> = points
        .iter()
        .map(|&(x, y)| {
            assert!(x > 0.0 && y > 0.0, "power-law fit needs positive data");
            (x.ln(), y.ln())
        })
        .collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|(x, _)| x).sum();
    let sy: f64 = logs.iter().map(|(_, y)| y).sum();
    let sxx: f64 = logs.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = logs.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    let b = if denom.abs() < f64::EPSILON { 0.0 } else { (n * sxy - sx * sy) / denom };
    let ln_a = (sy - b * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = logs.iter().map(|(_, y)| (y - mean_y).powi(2)).sum();
    let ss_res: f64 = logs.iter().map(|(x, y)| (y - (ln_a + b * x)).powi(2)).sum();
    let r2 = if ss_tot == 0.0 { 1.0 } else { 1.0 - ss_res / ss_tot };
    PowerLawFit { a: ln_a.exp(), b, r2 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_fit_recovers_exact_slope() {
        let pts: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, 3.5 * i as f64)).collect();
        let (a, r2) = fit_through_origin(&pts);
        assert!((a - 3.5).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn origin_fit_flags_nonlinear_data() {
        let pts: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, (i * i) as f64)).collect();
        let (_, r2) = fit_through_origin(&pts);
        assert!(r2 < 0.95, "quadratic data must not look linear, r2={r2}");
    }

    #[test]
    fn power_law_recovers_exponent() {
        let pts: Vec<(f64, f64)> =
            (1..20).map(|i| (i as f64, 2.0 * (i as f64).powf(1.7))).collect();
        let fit = fit_power_law(&pts);
        assert!((fit.b - 1.7).abs() < 1e-9);
        assert!((fit.a - 2.0).abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_law_linear_data_has_unit_exponent() {
        let pts: Vec<(f64, f64)> = (1..20).map(|i| (i as f64, 5.0 * i as f64)).collect();
        let fit = fit_power_law(&pts);
        assert!((fit.b - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_point_rejected() {
        let _ = fit_through_origin(&[(1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "positive data")]
    fn nonpositive_rejected_for_power_law() {
        let _ = fit_power_law(&[(1.0, 1.0), (0.0, 2.0)]);
    }
}
