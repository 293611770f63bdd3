//! Minimal CSV serialization for the harness outputs (samples and
//! traces), so results can be re-plotted outside Rust. Hand-rolled — the
//! data is numeric and the only quoting concern is commas in labels.

use std::fmt::Write as _;

use crate::contour::Sample;

/// Quote a field if it contains a comma, quote, or newline.
pub fn escape_field(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Render rows (with a header) as CSV text.
///
/// # Panics
/// Panics if any row's width differs from the header's.
pub fn to_csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    writeln!(out, "{}", header.iter().map(|h| escape_field(h)).collect::<Vec<_>>().join(","))
        .expect("writing to a String cannot fail");
    for row in rows {
        assert_eq!(row.len(), header.len(), "CSV row width must match header");
        writeln!(out, "{}", row.iter().map(|f| escape_field(f)).collect::<Vec<_>>().join(","))
            .expect("writing to a String cannot fail");
    }
    out
}

/// CSV for a (P, W, E) sample grid.
pub fn samples_csv(samples: &[Sample]) -> String {
    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| vec![s.p.to_string(), s.w.to_string(), format!("{:.6}", s.e)])
        .collect();
    to_csv(&["p", "w", "efficiency"], &rows)
}

/// CSV for an active-processor trace (`A(t)` per cycle). Takes any
/// per-cycle iterator so both plain slices and the machine's run-length
/// encoded trace (via its `iter()`) can be rendered without materializing
/// a `Vec`.
pub fn trace_csv<I: IntoIterator<Item = u32>>(trace: I) -> String {
    let rows: Vec<Vec<String>> =
        trace.into_iter().enumerate().map(|(i, a)| vec![i.to_string(), a.to_string()]).collect();
    to_csv(&["cycle", "active"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_fields_pass_through() {
        assert_eq!(escape_field("123"), "123");
        assert_eq!(escape_field("GP-S^0.9"), "GP-S^0.9");
    }

    #[test]
    fn commas_and_quotes_are_escaped() {
        assert_eq!(escape_field("a,b"), "\"a,b\"");
        assert_eq!(escape_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn to_csv_renders_header_and_rows() {
        let csv = to_csv(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(csv, "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_rejected() {
        let _ = to_csv(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn samples_round_trip_textually() {
        let csv = samples_csv(&[Sample { p: 64, w: 1000, e: 0.5 }]);
        assert!(csv.starts_with("p,w,efficiency\n"));
        assert!(csv.contains("64,1000,0.500000"));
    }

    #[test]
    fn trace_csv_indexes_cycles() {
        let csv = trace_csv([8, 6, 3]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines, vec!["cycle,active", "0,8", "1,6", "2,3"]);
    }
}
