//! Exposition of a metrics [`Snapshot`]: Prometheus text format
//! v0.0.4 and a JSON form.
//!
//! Naming follows Prometheus conventions: counters gain a `_total`
//! suffix, and nanosecond-valued histograms (names ending `_ns`) are
//! exported in base seconds as `*_seconds` with scaled `le` bounds and
//! sums. Output order is the snapshot's — sorted by name then label —
//! so the exposition is byte-stable for a given set of values (pinned
//! by a golden-file test).
//!
//! Histograms are emitted sparsely: one cumulative `_bucket` line per
//! *non-empty* bucket plus the mandatory `+Inf`, `_sum`, and `_count`
//! series, keeping the text bounded even though the internal layout
//! has [`crate::metrics::BUCKETS`] buckets.

use crate::metrics::{bucket_upper, HistogramSnapshot, Metric, MetricValue, Snapshot, Unit};

/// Renders the snapshot in Prometheus text format v0.0.4.
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_family: Option<String> = None;
    for m in &snap.metrics {
        let family = family_name(m);
        if last_family.as_deref() != Some(family.as_str()) {
            out.push_str(&format!("# TYPE {family} {}\n", type_name(m)));
            last_family = Some(family.clone());
        }
        match &m.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("{family}{} {v}\n", label_set(m, None)));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("{family}{} {v}\n", label_set(m, None)));
            }
            MetricValue::Histogram(h) => render_histogram(&mut out, &family, m, h),
        }
    }
    out
}

fn render_histogram(out: &mut String, family: &str, m: &Metric, h: &HistogramSnapshot) {
    let seconds = m.unit == Unit::Nanos;
    let mut cum = 0u64;
    for &(i, n) in &h.buckets {
        cum += n;
        let le = if seconds { fmt_seconds(bucket_upper(i)) } else { bucket_upper(i).to_string() };
        out.push_str(&format!("{family}_bucket{} {cum}\n", label_set(m, Some(&le))));
    }
    out.push_str(&format!("{family}_bucket{} {}\n", label_set(m, Some("+Inf")), h.count));
    let sum = if seconds { fmt_seconds(h.sum) } else { h.sum.to_string() };
    out.push_str(&format!("{family}_sum{} {sum}\n", label_set(m, None)));
    out.push_str(&format!("{family}_count{} {}\n", label_set(m, None), h.count));
}

/// Exposition family name: `_total` for counters, `_ns` → `_seconds`
/// for nanosecond histograms.
fn family_name(m: &Metric) -> String {
    match (&m.value, m.unit) {
        (MetricValue::Counter(_), _) => format!("{}_total", m.name),
        (MetricValue::Histogram(_), Unit::Nanos) => {
            format!("{}_seconds", m.name.strip_suffix("_ns").unwrap_or(m.name))
        }
        _ => m.name.to_string(),
    }
}

fn type_name(m: &Metric) -> &'static str {
    match &m.value {
        MetricValue::Counter(_) => "counter",
        MetricValue::Gauge(_) => "gauge",
        MetricValue::Histogram(_) => "histogram",
    }
}

/// The `{key="value",le="..."}` label set (empty string when bare).
fn label_set(m: &Metric, le: Option<&str>) -> String {
    let mut parts = Vec::new();
    if let Some((k, v)) = &m.label {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Formats a nanosecond count as seconds with no trailing zeros and no
/// exponent, e.g. `7` → `0.000000007`, `1_500_000_000` → `1.5`.
fn fmt_seconds(ns: u64) -> String {
    if ns == u64::MAX {
        // The top bucket's bound; Prometheus has +Inf for the real
        // catch-all, this keeps the finite bound representable.
        return format!("{:.3}", ns as f64 / 1e9);
    }
    let s = format!("{}.{:09}", ns / 1_000_000_000, ns % 1_000_000_000);
    let trimmed = s.trim_end_matches('0').trim_end_matches('.');
    if trimmed.is_empty() {
        "0".to_string()
    } else {
        trimmed.to_string()
    }
}

/// Renders the snapshot as a JSON document:
/// `{"metrics": [{"name": …, "type": …, …}]}`. Histogram entries carry
/// count/sum/min/max, the p50/p95/p99 estimates, and the non-empty
/// cumulative buckets as `[upper_bound, cumulative_count]` pairs.
pub fn render_json(snap: &Snapshot) -> String {
    let mut out = String::from("{\n  \"metrics\": [\n");
    for (idx, m) in snap.metrics.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"name\": \"{}\"", crate::trace::escape(m.name)));
        if let Some((k, v)) = &m.label {
            out.push_str(&format!(
                ", \"label\": {{\"{}\": \"{}\"}}",
                crate::trace::escape(k),
                crate::trace::escape(v)
            ));
        }
        match &m.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!(", \"type\": \"counter\", \"value\": {v}"));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!(", \"type\": \"gauge\", \"value\": {v}"));
            }
            MetricValue::Histogram(h) => {
                out.push_str(&format!(
                    ", \"type\": \"histogram\", \"unit\": \"{}\"",
                    unit_name(m.unit)
                ));
                out.push_str(&format!(
                    ", \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}",
                    h.count, h.sum, h.min, h.max
                ));
                out.push_str(&format!(
                    ", \"p50\": {}, \"p95\": {}, \"p99\": {}",
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.quantile(0.99)
                ));
                out.push_str(", \"buckets\": [");
                let mut cum = 0u64;
                for (j, &(i, n)) in h.buckets.iter().enumerate() {
                    cum += n;
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("[{}, {cum}]", bucket_upper(i)));
                }
                out.push(']');
            }
        }
        out.push_str(&format!("}}{}\n", if idx + 1 < snap.metrics.len() { "," } else { "" }));
    }
    out.push_str("  ]\n}\n");
    out
}

fn unit_name(u: Unit) -> &'static str {
    match u {
        Unit::Count => "count",
        Unit::Nanos => "ns",
        Unit::Bytes => "bytes",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("aqks_sample_queries").add(42);
        r.labeled_counter("aqks_sample_trips", "site", "engine.answer").add(1);
        r.labeled_counter("aqks_sample_trips", "site", "ops.Scan").add(2);
        r.gauge("aqks_sample_retained").set(7);
        let h = r.histogram("aqks_sample_latency_ns", crate::metrics::Unit::Nanos);
        for v in [0, 1, 7, 120, 1_000_000, 30_000_000_000] {
            h.record(v);
        }
        let b = r.labeled_histogram(
            "aqks_sample_peak_bytes",
            "op",
            "HashJoin",
            crate::metrics::Unit::Bytes,
        );
        b.record(4096);
        b.record(65536);
        r
    }

    #[test]
    fn prometheus_output_is_wellformed_and_ordered() {
        let text = render_prometheus(&sample_registry().snapshot());
        // One TYPE line per family, families in sorted name order.
        let types: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE")).collect();
        assert_eq!(
            types,
            vec![
                "# TYPE aqks_sample_latency_seconds histogram",
                "# TYPE aqks_sample_peak_bytes histogram",
                "# TYPE aqks_sample_queries_total counter",
                "# TYPE aqks_sample_retained gauge",
                "# TYPE aqks_sample_trips_total counter",
            ]
        );
        assert!(text.contains("aqks_sample_queries_total 42\n"));
        assert!(text.contains("aqks_sample_trips_total{site=\"ops.Scan\"} 2\n"));
        assert!(text.contains("aqks_sample_latency_seconds_count 6\n"));
        assert!(text.contains("le=\"+Inf\"} 6\n"));
        // Nanosecond values scale to seconds without exponent notation.
        assert!(text.contains("le=\"0.000000001\"} 2\n"), "text:\n{text}");
        assert!(text.contains("aqks_sample_peak_bytes_count{op=\"HashJoin\"} 2\n"));
    }

    #[test]
    fn json_snapshot_is_valid_json() {
        let json = render_json(&sample_registry().snapshot());
        crate::json::validate(&json).expect("snapshot JSON is RFC-8259 valid");
        assert!(json.contains("\"type\": \"histogram\""));
        assert!(json.contains("\"p95\":"));
    }

    #[test]
    fn empty_histogram_exposes_zero_series() {
        let r = Registry::new();
        r.histogram("aqks_sample_empty_ns", crate::metrics::Unit::Nanos);
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("aqks_sample_empty_seconds_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("aqks_sample_empty_seconds_sum 0\n"));
        assert!(text.contains("aqks_sample_empty_seconds_count 0\n"));
        crate::json::validate(&render_json(&r.snapshot())).expect("valid");
    }

    #[test]
    fn seconds_formatting_has_no_exponent_or_trailing_zeros() {
        assert_eq!(fmt_seconds(0), "0");
        assert_eq!(fmt_seconds(7), "0.000000007");
        assert_eq!(fmt_seconds(1_500_000_000), "1.5");
        assert_eq!(fmt_seconds(1_000_000_000), "1");
    }
}
