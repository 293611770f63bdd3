//! Equal-efficiency contour extraction — the experimental isoefficiency
//! curves of Figs. 4 and 7.
//!
//! "These graphs were obtained by performing a large number of experiments
//! for a range of W and P, and then collecting the points with equal
//! efficiency." (Sec. 5)
//!
//! Given measured samples `(P, W, E)` on a (possibly ragged) grid, for each
//! target efficiency and each `P` we find the `W` at which the efficiency
//! crosses the target, interpolating linearly in `(ln W, E)` between
//! bracketing samples — efficiency is monotone increasing in `W` at fixed
//! `P` for these schemes, which the extraction checks.

/// One measured run.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Processors.
    pub p: usize,
    /// Problem size.
    pub w: u64,
    /// Measured efficiency.
    pub e: f64,
}

/// One point of an equal-efficiency contour.
#[derive(Debug, Clone, Copy)]
pub struct ContourPoint {
    /// Processors.
    pub p: usize,
    /// Interpolated problem size achieving the target efficiency.
    pub w: f64,
}

/// Extract the contour for `target` efficiency. Returns one point per `P`
/// value whose sample set brackets the target; `P` values whose efficiencies
/// never reach the target (or always exceed it) are skipped.
pub fn extract_contour(samples: &[Sample], target: f64) -> Vec<ContourPoint> {
    let mut by_p: std::collections::BTreeMap<usize, Vec<(f64, f64)>> =
        std::collections::BTreeMap::new();
    for s in samples {
        by_p.entry(s.p).or_default().push(((s.w as f64).ln(), s.e));
    }
    let mut out = Vec::new();
    for (p, mut pts) in by_p {
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Walk consecutive (ln W, E) pairs looking for a bracketing segment.
        for pair in pts.windows(2) {
            let (lw0, e0) = pair[0];
            let (lw1, e1) = pair[1];
            let (lo, hi) = if e0 <= e1 { (e0, e1) } else { (e1, e0) };
            if target >= lo && target <= hi && (e1 - e0).abs() > f64::EPSILON {
                let t = (target - e0) / (e1 - e0);
                let lw = lw0 + t * (lw1 - lw0);
                out.push(ContourPoint { p, w: lw.exp() });
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(es: &[(usize, &[(u64, f64)])]) -> Vec<Sample> {
        let mut v = Vec::new();
        for &(p, pts) in es {
            for &(w, e) in pts {
                v.push(Sample { p, w, e });
            }
        }
        v
    }

    #[test]
    fn interpolates_between_brackets() {
        let samples = grid(&[(64, &[(1_000, 0.40), (10_000, 0.60)])]);
        let c = extract_contour(&samples, 0.50);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].p, 64);
        // Midway in E ⇒ midway in ln W ⇒ geometric mean of the W's.
        let expect = (1_000f64 * 10_000f64).sqrt();
        assert!((c[0].w - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn exact_hits_are_returned() {
        let samples = grid(&[(16, &[(500, 0.30), (5_000, 0.70)])]);
        let c = extract_contour(&samples, 0.70);
        assert_eq!(c.len(), 1);
        assert!((c[0].w - 5_000.0).abs() < 1e-6);
    }

    #[test]
    fn unreachable_targets_are_skipped() {
        let samples =
            grid(&[(16, &[(500, 0.30), (5_000, 0.50)]), (64, &[(500, 0.20), (5_000, 0.80)])]);
        let c = extract_contour(&samples, 0.75);
        assert_eq!(c.len(), 1, "only P=64 brackets 0.75");
        assert_eq!(c[0].p, 64);
    }

    #[test]
    fn contour_w_grows_with_p_for_iso_like_data() {
        // Synthesize E = W / (W + p·lg p·c): the GP model shape.
        let mut samples = Vec::new();
        for &p in &[64usize, 256, 1024, 4096] {
            for &w in &[10_000u64, 100_000, 1_000_000, 10_000_000] {
                let c = 40.0;
                let e = w as f64 / (w as f64 + (p as f64) * (p as f64).log2() * c);
                samples.push(Sample { p, w, e });
            }
        }
        let contour = extract_contour(&samples, 0.6);
        assert!(contour.len() >= 3);
        for pair in contour.windows(2) {
            assert!(pair[1].w > pair[0].w, "isoefficiency curves rise with P");
        }
        // And W/(P lg P) should be roughly constant (the model is exactly
        // linear in P lg P).
        let ratios: Vec<f64> =
            contour.iter().map(|c| c.w / (c.p as f64 * (c.p as f64).log2())).collect();
        let (min, max) =
            ratios.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
        // The log-space interpolation over a ×10 W grid introduces a few
        // percent of error against the exact hyperbolic E(W); 25% headroom.
        assert!(max / min < 1.25, "ratios {ratios:?}");
    }

    #[test]
    fn empty_input_gives_empty_contour() {
        assert!(extract_contour(&[], 0.5).is_empty());
    }
}
