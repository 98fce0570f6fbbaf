//! Measured values and their JSON forms: the one-line result a run ends
//! with, and the per-workload record files.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `latency_p50_ms`.
    pub name: String,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
}

impl Metric {
    /// A metric measured from `n` samples.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, n: usize) -> Metric {
        Metric { name: name.into(), unit, value, n }
    }
}

/// Escapes `s` for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON number; non-finite values (which JSON cannot hold) become
/// `null`, and a negative zero (an empty float sum) prints as `0`.
pub fn number(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
fn metrics_object(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&m.name),
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The one-line result every run prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_object(metrics)
    )
}

/// Restarts the peak resident set size (`VmHWM`) from the current one, so
/// that [`peak_rss_mb`] leaves out memory freed before this call.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS via /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// CPUs available to this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Where runs write their records and traces: `out/` inside the
/// benchmark package.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The commit the benchmark was built from, read from the repository's
/// `.git` directory (the package's parent holds it); `"unknown"` outside
/// a git checkout.
pub fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    // A packed ref: lines of `<rev> <ref>`.
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.split_once(' ').filter(|(_, r)| *r == reference).map(|(rev, _)| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_valid_json() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric::new("a_ms", "ms", 1.25, 3), Metric::new("b", "ratio", f64::NAN, 1)],
        );
        aqks_obs::json::validate(&line).unwrap();
        assert!(line.contains("\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"), "{line}");
        assert!(line.contains("\"b\": {\"value\": null"), "{line}");
    }

    #[test]
    fn escape_handles_controls() {
        assert_eq!(escape("a\"b\\c\n\u{1}"), "a\\\"b\\\\c\\n\\u0001");
    }
}
