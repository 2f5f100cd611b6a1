//! Result emitters: JSON-lines for scripts, a fixed-width ASCII table
//! for terminals.
//!
//! JSON floats are printed with Rust's shortest-round-trip formatting,
//! so re-parsing reproduces every value bit-exactly — the scenario
//! harness compares figure reproductions at the bit level.

use std::fmt::Write as _;

use hiss_obs::json::escape;

use crate::compile::{Datum, Row, COLUMNS};

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Encodes one row as a single-line JSON object: the cell coordinates,
/// then every [`COLUMNS`] entry in table order.
pub fn row_json(row: &Row) -> String {
    let mut out = String::with_capacity(256);
    out.push('{');
    let _ = write!(out, "\"cpu_app\":\"{}\"", escape(&row.cpu_app));
    let _ = write!(out, ",\"gpu_app\":\"{}\"", escape(&row.gpu_app));
    for (key, value) in &row.axes {
        let _ = write!(out, ",\"axis_{}\":\"{}\"", escape(key), escape(value));
    }
    let _ = write!(out, ",\"replica\":{}", row.replica);
    for column in COLUMNS {
        let _ = write!(out, ",\"{}\":", column.key);
        match column.value(row) {
            Datum::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Datum::Real(x) => out.push_str(&json_f64(x)),
            Datum::Null => out.push_str("null"),
        }
    }
    out.push('}');
    out
}

/// Encodes a batch as JSON-lines (one object per row, trailing newline).
pub fn to_jsonl(rows: &[Row]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&row_json(row));
        out.push('\n');
    }
    out
}

/// Renders a batch as a fixed-width ASCII table.
pub fn to_table(rows: &[Row]) -> String {
    let axis_keys: Vec<String> = rows
        .first()
        .map(|r| r.axes.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default();
    let replicated = rows.iter().any(|r| r.replica > 0);
    let mut header: Vec<String> = vec!["CPU app".into(), "GPU app".into()];
    header.extend(axis_keys.iter().cloned());
    if replicated {
        header.push("rep".into());
    }
    for h in ["CPU perf", "GPU perf", "SSR/s", "p99 us", "CC6", "overhead"] {
        header.push(h.into());
    }

    let mut data: Vec<Vec<String>> = Vec::with_capacity(rows.len());
    for r in rows {
        let mut row = vec![r.cpu_app.clone(), r.gpu_app.clone()];
        row.extend(r.axes.iter().map(|(_, v)| v.clone()));
        if replicated {
            row.push(r.replica.to_string());
        }
        row.push(
            r.cpu_perf
                .map(|p| format!("{p:.3}"))
                .unwrap_or_else(|| "-".into()),
        );
        row.push(format!("{:.3}", r.gpu_perf));
        let run = &r.report;
        row.push(format!("{:.0}", run.gauge("run.ssr_rate")));
        row.push(format!("{:.1}", run.p99_ssr_latency().as_micros_f64()));
        row.push(format!("{:.1}%", run.gauge("run.cc6_residency") * 100.0));
        row.push(format!("{:.2}%", run.gauge("run.cpu_ssr_overhead") * 100.0));
        data.push(row);
    }

    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    hiss::experiments::render_table(&header, &data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::test_row;
    use hiss::RunReport;
    use hiss_obs::{HistogramSnapshot, MetricValue};

    fn row() -> Row {
        let mut run = RunReport::default();
        let m = &mut run.metrics;
        m.counter("run.cpu_app_runtime_ns", 123_456);
        m.gauge("run.gpu_throughput", 0.75);
        m.gauge("run.ssr_rate", 42_000.0);
        m.gauge("run.cc6_residency", 0.125);
        m.gauge("run.cpu_ssr_overhead", 0.0625);
        m.set(
            "kernel.latency",
            MetricValue::Histogram(HistogramSnapshot {
                p99_ns: 99_000,
                ..HistogramSnapshot::default()
            }),
        );
        let mut r = test_row("x264", "ubench", Some(0.5625), 0.25, run);
        r.axes = vec![("qos_percent".into(), "5".into())];
        r
    }

    #[test]
    fn json_round_trips_floats_exactly() {
        let r = row();
        let json = row_json(&r);
        assert!(json.contains("\"cpu_perf\":0.5625"), "{json}");
        assert!(json.contains("\"axis_qos_percent\":\"5\""), "{json}");
        assert!(json.contains("\"cpu_runtime_ns\":123456"), "{json}");
        // Exactly one object per line.
        let lines = to_jsonl(&[r.clone(), r]);
        assert_eq!(lines.lines().count(), 2);
    }

    #[test]
    fn null_for_unfinished_cpu_app() {
        let r = test_row("x264", "ubench", None, 0.25, RunReport::default());
        let json = row_json(&r);
        assert!(json.contains("\"cpu_perf\":null"), "{json}");
        assert!(json.contains("\"cpu_runtime_ns\":null"), "{json}");
    }

    #[test]
    fn table_has_axis_column_and_aligns() {
        let text = to_table(&[row()]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("qos_percent"));
        assert!(lines[2].contains("x264"));
        assert!(lines[2].contains("0.562"));
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn escaping_is_json_safe() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
