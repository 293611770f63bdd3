//! Dependency-free SVG charts for the reproduction's figures.
//!
//! Just enough of a plotting library to render the paper's data figures
//! (Figs. 3, 4, 7, 8) as standalone `.svg` files: XY line charts with
//! linear or logarithmic axes, automatic ticks, multiple named series, and
//! a legend. No external crates; output is plain SVG 1.1.
//!
//! ```
//! use uts_bench::svg::{Chart, Scale, Series};
//!
//! let mut chart = Chart::new("Speedup vs P", "processors", "speedup");
//! chart.x_scale(Scale::Log2).add(
//!     Series::line("GP-D^K", vec![(64.0, 55.0), (256.0, 180.0), (1024.0, 420.0)]),
//! );
//! let svg = chart.render();
//! assert!(svg.starts_with("<svg"));
//! assert!(svg.contains("GP-D^K"));
//! ```

/// An axis scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Linear mapping.
    #[default]
    Linear,
    /// Base-2 logarithmic (natural for processor counts).
    Log2,
    /// Base-10 logarithmic (natural for problem sizes).
    Log10,
}

impl Scale {
    /// Forward transform into "scale space" where the mapping to pixels is
    /// linear.
    ///
    /// # Panics
    /// Panics on non-positive input to a log scale.
    pub fn forward(self, v: f64) -> f64 {
        match self {
            Scale::Linear => v,
            Scale::Log2 => {
                assert!(v > 0.0, "log2 scale needs positive values, got {v}");
                v.log2()
            }
            Scale::Log10 => {
                assert!(v > 0.0, "log10 scale needs positive values, got {v}");
                v.log10()
            }
        }
    }

    /// Inverse transform (scale space → data space).
    pub fn inverse(self, s: f64) -> f64 {
        match self {
            Scale::Linear => s,
            Scale::Log2 => (2.0f64).powf(s),
            Scale::Log10 => (10.0f64).powf(s),
        }
    }
}

/// Generate "nice" tick positions covering `[min, max]` in data space.
///
/// * Linear: 1/2/5×10^k steps targeting ~`want` ticks.
/// * Log scales: one tick per whole power of the base within range (or
///   every k-th power when the range spans many decades).
///
/// # Panics
/// Panics if `min > max`, or on non-positive bounds for log scales.
fn ticks(scale: Scale, min: f64, max: f64, want: usize) -> Vec<f64> {
    assert!(min <= max, "tick range is inverted: {min} > {max}");
    if min == max {
        return vec![min];
    }
    match scale {
        Scale::Linear => linear_ticks(min, max, want.max(2)),
        Scale::Log2 | Scale::Log10 => {
            let lo = scale.forward(min).ceil() as i64;
            let hi = scale.forward(max).floor() as i64;
            if lo > hi {
                return vec![min, max];
            }
            let span = (hi - lo + 1) as usize;
            let step = span.div_ceil(want.max(2)).max(1);
            (lo..=hi).step_by(step).map(|e| scale.inverse(e as f64)).collect()
        }
    }
}

fn linear_ticks(min: f64, max: f64, want: usize) -> Vec<f64> {
    let raw_step = (max - min) / want as f64;
    let mag = 10f64.powf(raw_step.log10().floor());
    let norm = raw_step / mag;
    let step = if norm <= 1.0 {
        1.0
    } else if norm <= 2.0 {
        2.0
    } else if norm <= 5.0 {
        5.0
    } else {
        10.0
    } * mag;
    let start = (min / step).ceil() * step;
    let mut out = Vec::new();
    let mut t = start;
    while t <= max + step * 1e-9 {
        // Clean up float noise so labels print nicely.
        out.push((t / step).round() * step);
        t += step;
    }
    out
}

/// Format a tick label compactly (k/M suffixes for large values).
fn tick_label(v: f64) -> String {
    let a = v.abs();
    if a >= 1e6 && (v / 1e6).fract().abs() < 1e-9 {
        format!("{}M", (v / 1e6) as i64)
    } else if a >= 1e3 && (v / 1e3).fract().abs() < 1e-9 {
        format!("{}k", (v / 1e3) as i64)
    } else if v.fract().abs() < 1e-9 {
        format!("{}", v as i64)
    } else {
        format!("{v:.2}")
    }
}

/// A named data series, drawn as a polyline with point markers.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// `(x, y)` points in data space.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// A line series.
    pub fn line(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Self { name: name.into(), points }
    }
}

/// Default categorical palette (distinct, print-safe hues).
const PALETTE: [&str; 8] =
    ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f"];

const WIDTH: f64 = 720.0;
const HEIGHT: f64 = 480.0;
const MARGIN_L: f64 = 72.0;
const MARGIN_R: f64 = 24.0;
const MARGIN_T: f64 = 40.0;
const MARGIN_B: f64 = 56.0;

/// An XY chart.
#[derive(Debug, Clone)]
pub struct Chart {
    title: String,
    x_label: String,
    y_label: String,
    x_scale: Scale,
    y_scale: Scale,
    series: Vec<Series>,
}

impl Chart {
    /// New empty chart with linear axes.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            x_scale: Scale::Linear,
            y_scale: Scale::Linear,
            series: Vec::new(),
        }
    }

    /// Set the x-axis scale (builder style).
    pub fn x_scale(&mut self, scale: Scale) -> &mut Self {
        self.x_scale = scale;
        self
    }

    /// Set the y-axis scale (builder style).
    pub fn y_scale(&mut self, scale: Scale) -> &mut Self {
        self.y_scale = scale;
        self
    }

    /// Add a series (builder style).
    pub fn add(&mut self, series: Series) -> &mut Self {
        self.series.push(series);
        self
    }

    /// Number of series added so far.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Render to an SVG document string.
    ///
    /// # Panics
    /// Panics if no series has any points, or if a log axis receives a
    /// non-positive coordinate.
    pub fn render(&self) -> String {
        let pts: Vec<(f64, f64)> =
            self.series.iter().flat_map(|s| s.points.iter().copied()).collect();
        assert!(!pts.is_empty(), "cannot render a chart with no data");
        let (x_min, x_max) = bounds(pts.iter().map(|p| self.x_scale.forward(p.0)));
        let (y_min, y_max) = bounds(pts.iter().map(|p| self.y_scale.forward(p.1)));
        // Pad degenerate ranges so the mapping stays finite.
        let (x_min, x_max) = pad(x_min, x_max);
        let (y_min, y_max) = pad(y_min, y_max);

        let plot_w = WIDTH - MARGIN_L - MARGIN_R;
        let plot_h = HEIGHT - MARGIN_T - MARGIN_B;
        let px = |x: f64| MARGIN_L + (self.x_scale.forward(x) - x_min) / (x_max - x_min) * plot_w;
        let py = |y: f64| {
            MARGIN_T + plot_h - (self.y_scale.forward(y) - y_min) / (y_max - y_min) * plot_h
        };

        let mut out = String::with_capacity(8192);
        out.push_str(&format!(
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">"#
        ));
        out.push('\n');
        out.push_str(r#"<rect width="100%" height="100%" fill="white"/>"#);
        out.push('\n');
        // Title and axis labels.
        out.push_str(&format!(
            r#"<text x="{:.0}" y="24" text-anchor="middle" font-size="16">{}</text>"#,
            WIDTH / 2.0,
            xml_escape(&self.title)
        ));
        out.push_str(&format!(
            r#"<text x="{:.0}" y="{:.0}" text-anchor="middle" font-size="12">{}</text>"#,
            MARGIN_L + plot_w / 2.0,
            HEIGHT - 12.0,
            xml_escape(&self.x_label)
        ));
        out.push_str(&format!(
            r#"<text x="16" y="{:.0}" text-anchor="middle" font-size="12" transform="rotate(-90 16 {:.0})">{}</text>"#,
            MARGIN_T + plot_h / 2.0,
            MARGIN_T + plot_h / 2.0,
            xml_escape(&self.y_label)
        ));
        out.push('\n');
        // Frame.
        out.push_str(&format!(
            r##"<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w:.0}" height="{plot_h:.0}" fill="none" stroke="#333"/>"##
        ));
        out.push('\n');
        // Ticks + gridlines.
        for t in ticks(self.x_scale, self.x_scale.inverse(x_min), self.x_scale.inverse(x_max), 6) {
            let x = px(t);
            out.push_str(&format!(
                r##"<line x1="{x:.1}" y1="{MARGIN_T}" x2="{x:.1}" y2="{:.1}" stroke="#ddd"/>"##,
                MARGIN_T + plot_h
            ));
            out.push_str(&format!(
                r#"<text x="{x:.1}" y="{:.1}" text-anchor="middle" font-size="11">{}</text>"#,
                MARGIN_T + plot_h + 18.0,
                tick_label(t)
            ));
        }
        for t in ticks(self.y_scale, self.y_scale.inverse(y_min), self.y_scale.inverse(y_max), 6) {
            let y = py(t);
            out.push_str(&format!(
                r##"<line x1="{MARGIN_L}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="#ddd"/>"##,
                MARGIN_L + plot_w
            ));
            out.push_str(&format!(
                r#"<text x="{:.1}" y="{y:.1}" text-anchor="end" font-size="11" dy="4">{}</text>"#,
                MARGIN_L - 6.0,
                tick_label(t)
            ));
        }
        out.push('\n');
        // Series.
        for (i, s) in self.series.iter().enumerate() {
            let color = PALETTE[i % PALETTE.len()];
            if s.points.len() > 1 {
                let path: Vec<String> =
                    s.points.iter().map(|&(x, y)| format!("{:.1},{:.1}", px(x), py(y))).collect();
                out.push_str(&format!(
                    r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="1.8"/>"#,
                    path.join(" ")
                ));
            }
            for &(x, y) in &s.points {
                out.push_str(&format!(
                    r#"<circle cx="{:.1}" cy="{:.1}" r="3" fill="{color}"/>"#,
                    px(x),
                    py(y)
                ));
            }
            // Legend entry.
            let ly = MARGIN_T + 16.0 + i as f64 * 18.0;
            out.push_str(&format!(
                r#"<rect x="{:.1}" y="{:.1}" width="12" height="12" fill="{color}"/>"#,
                MARGIN_L + 10.0,
                ly - 10.0
            ));
            out.push_str(&format!(
                r#"<text x="{:.1}" y="{ly:.1}" font-size="12">{}</text>"#,
                MARGIN_L + 28.0,
                xml_escape(&s.name)
            ));
            out.push('\n');
        }
        out.push_str("</svg>\n");
        out
    }
}

fn bounds(vals: impl Iterator<Item = f64>) -> (f64, f64) {
    vals.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(v), hi.max(v)))
}

fn pad(min: f64, max: f64) -> (f64, f64) {
    if (max - min).abs() < 1e-12 {
        (min - 1.0, max + 1.0)
    } else {
        (min, max)
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_chart() -> Chart {
        let mut c = Chart::new("t", "x", "y");
        c.add(Series::line("a", vec![(1.0, 2.0), (2.0, 4.0), (3.0, 8.0)]));
        c.add(Series::line("b", vec![(1.5, 3.0)]));
        c
    }

    #[test]
    fn renders_well_formed_svg() {
        let svg = sample_chart().render();
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 1, "a one-point series has no line");
        assert_eq!(svg.matches("<circle").count(), 4, "all points marked");
        assert!(svg.contains(">a<") && svg.contains(">b<"), "legend entries");
    }

    #[test]
    fn log_axes_render() {
        let mut c = Chart::new("iso", "P log P", "W");
        c.x_scale(Scale::Log2).y_scale(Scale::Log10);
        c.add(Series::line("GP", vec![(512.0, 1e5), (8192.0, 2e6)]));
        let svg = c.render();
        assert!(svg.contains("polyline"));
    }

    #[test]
    fn titles_are_escaped() {
        let mut c = Chart::new("a < b & c", "x", "y");
        c.add(Series::line("s", vec![(0.0, 0.0), (1.0, 1.0)]));
        let svg = c.render();
        assert!(svg.contains("a &lt; b &amp; c"));
        assert!(!svg.contains("a < b & c"));
    }

    #[test]
    fn coordinates_stay_inside_canvas() {
        let svg = sample_chart().render();
        for cap in svg.split("cx=\"").skip(1) {
            let x: f64 = cap.split('"').next().unwrap().parse().unwrap();
            assert!((0.0..=720.0).contains(&x));
        }
    }

    #[test]
    fn degenerate_single_point_still_renders() {
        let mut c = Chart::new("p", "x", "y");
        c.add(Series::line("one", vec![(5.0, 5.0)]));
        let svg = c.render();
        assert!(svg.contains("circle"));
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn empty_chart_rejected() {
        Chart::new("e", "x", "y").render();
    }

    // Axis scales and ticks.

    #[test]
    fn linear_forward_is_identity() {
        assert_eq!(Scale::Linear.forward(3.5), 3.5);
        assert_eq!(Scale::Linear.inverse(3.5), 3.5);
    }

    #[test]
    fn log_scales_round_trip() {
        for v in [1.0, 2.0, 1024.0, 1e6] {
            assert!((Scale::Log2.inverse(Scale::Log2.forward(v)) - v).abs() / v < 1e-12);
            assert!((Scale::Log10.inverse(Scale::Log10.forward(v)) - v).abs() / v < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn log_of_zero_rejected() {
        Scale::Log2.forward(0.0);
    }

    #[test]
    fn linear_ticks_are_nice() {
        let t = ticks(Scale::Linear, 0.0, 1.0, 5);
        assert!(t.contains(&0.0));
        assert!(t.contains(&1.0));
        assert!(t.len() >= 4 && t.len() <= 8, "{t:?}");
    }

    #[test]
    fn log2_ticks_hit_powers() {
        let t = ticks(Scale::Log2, 512.0, 8192.0, 6);
        assert_eq!(t, vec![512.0, 1024.0, 2048.0, 4096.0, 8192.0]);
    }

    #[test]
    fn log10_ticks_decimate_wide_ranges() {
        let t = ticks(Scale::Log10, 1.0, 1e12, 5);
        assert!(t.len() <= 8, "{t:?}");
        assert!(t.iter().all(|&v| (v.log10().fract()).abs() < 1e-9));
    }

    #[test]
    fn degenerate_range_yields_single_tick() {
        assert_eq!(ticks(Scale::Linear, 4.0, 4.0, 5), vec![4.0]);
    }

    #[test]
    fn labels_use_suffixes() {
        assert_eq!(tick_label(1_000_000.0), "1M");
        assert_eq!(tick_label(16_000.0), "16k");
        assert_eq!(tick_label(42.0), "42");
        assert_eq!(tick_label(0.65), "0.65");
    }

    proptest! {
        #[test]
        fn ticks_are_sorted_and_in_range(min in -1e6f64..1e6, span in 1e-3f64..1e6) {
            let max = min + span;
            let t = ticks(Scale::Linear, min, max, 6);
            prop_assert!(t.windows(2).all(|w| w[0] < w[1]));
            for &v in &t {
                prop_assert!(v >= min - span * 1e-6 && v <= max + span * 1e-6);
            }
        }

        #[test]
        fn log_ticks_in_range(lo_exp in 0u32..10, span_exp in 1u32..10) {
            let min = (2.0f64).powi(lo_exp as i32);
            let max = (2.0f64).powi((lo_exp + span_exp) as i32);
            let t = ticks(Scale::Log2, min, max, 6);
            prop_assert!(!t.is_empty());
            for &v in &t {
                prop_assert!(v >= min * 0.999 && v <= max * 1.001);
            }
        }
    }
}
