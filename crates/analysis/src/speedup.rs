//! Speedup-curve analysis: fixed-size (Amdahl-style) and scaled
//! (Gustafson-style) speedup, the two framings the paper's scalability
//! references contrast (Gustafson 1988; Gustafson, Montry & Benner 1988 —
//! refs. 10 and 11).
//!
//! * **Fixed-size**: hold `W` constant, grow `P`; speedup saturates as
//!   overheads dominate. [`knee`] finds where the marginal efficiency of
//!   doubling `P` drops below a threshold.
//! * **Scaled**: grow `W` with `P` along an isoefficiency function; speedup
//!   stays ~linear if the scaling matches the machine. [`scaled_speedups`]
//!   evaluates how close a measured (P, W, E) sweep comes to that ideal.

use crate::contour::Sample;

/// One point of a fixed-size speedup curve.
#[derive(Debug, Clone, Copy)]
pub struct SpeedupPoint {
    /// Processors.
    pub p: usize,
    /// Speedup `S = E · P`.
    pub s: f64,
}

/// Derive the speedup curve for a fixed `W` from efficiency samples
/// (entries with other `w` values are ignored; result is sorted by `P`).
pub fn fixed_size_speedups(samples: &[Sample], w: u64) -> Vec<SpeedupPoint> {
    let mut pts: Vec<SpeedupPoint> = samples
        .iter()
        .filter(|s| s.w == w)
        .map(|s| SpeedupPoint { p: s.p, s: s.e * s.p as f64 })
        .collect();
    pts.sort_by_key(|p| p.p);
    pts
}

/// The knee of a fixed-size speedup curve: the largest `P` reached while
/// every doubling of the machine still bought at least `threshold` of its
/// ideal gain (e.g. `threshold = 0.75` accepts a doubling that yields
/// ≥ 1.5× speedup). Returns `None` for curves with fewer than 2 points.
pub fn knee(curve: &[SpeedupPoint], threshold: f64) -> Option<usize> {
    if curve.len() < 2 {
        return None;
    }
    let mut last_good = curve[0].p;
    for pair in curve.windows(2) {
        let gain = pair[1].s / pair[0].s;
        let ideal = pair[1].p as f64 / pair[0].p as f64;
        if gain >= threshold * ideal {
            last_good = pair[1].p;
        } else {
            break;
        }
    }
    Some(last_good)
}

/// For each `P`, the best (largest-W) measured efficiency — the envelope a
/// scaled-workload user would ride. Returns `(P, E)` sorted by `P`.
pub fn scaled_speedups(samples: &[Sample]) -> Vec<(usize, f64)> {
    let mut best: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
    for s in samples {
        let e = best.entry(s.p).or_insert(0.0);
        if s.e > *e {
            *e = s.e;
        }
    }
    best.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(p: usize, w: u64, e: f64) -> Sample {
        Sample { p, w, e }
    }

    #[test]
    fn fixed_size_curve_filters_and_sorts() {
        let samples = [sample(256, 100, 0.5), sample(64, 100, 0.9), sample(64, 999, 0.99)];
        let curve = fixed_size_speedups(&samples, 100);
        assert_eq!(curve.len(), 2);
        assert_eq!(curve[0].p, 64);
        assert!((curve[0].s - 57.6).abs() < 1e-9);
        assert!((curve[1].s - 128.0).abs() < 1e-9);
    }

    #[test]
    fn knee_detects_saturation() {
        // Perfect up to 256, then collapse.
        let curve = vec![
            SpeedupPoint { p: 64, s: 60.0 },
            SpeedupPoint { p: 128, s: 118.0 },
            SpeedupPoint { p: 256, s: 230.0 },
            SpeedupPoint { p: 512, s: 240.0 },
        ];
        assert_eq!(knee(&curve, 0.75), Some(256));
        assert_eq!(knee(&curve[..1], 0.75), None);
    }

    #[test]
    fn knee_of_ideal_curve_is_last_point() {
        let curve: Vec<SpeedupPoint> =
            [64usize, 128, 256].iter().map(|&p| SpeedupPoint { p, s: p as f64 }).collect();
        assert_eq!(knee(&curve, 0.95), Some(256));
    }

    #[test]
    fn scaled_envelope_takes_best_w() {
        let samples = [
            sample(64, 100, 0.7),
            sample(64, 1000, 0.9),
            sample(128, 100, 0.5),
            sample(128, 1000, 0.85),
        ];
        let env = scaled_speedups(&samples);
        assert_eq!(env, vec![(64, 0.9), (128, 0.85)]);
    }
}
