//! The snapshot a [`crate::Recorder`] produces: a span tree with
//! self/total wall times and an aggregated metrics map, renderable as a
//! text tree or as Chrome `trace_event` JSON.

use std::collections::BTreeMap;

use crate::recorder::RawSpan;

/// One span in the finished tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name (a pipeline phase, an operator, a lint pass, …).
    pub name: String,
    /// Start offset from the trace epoch, nanoseconds.
    pub start_ns: u64,
    /// Inclusive wall time (this span plus its children), nanoseconds.
    pub total_ns: u64,
    /// Exclusive wall time (total minus children totals), nanoseconds.
    pub self_ns: u64,
    /// Counters attached to this span, in first-recorded order.
    pub counters: Vec<(String, u64)>,
    /// Child spans in start order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Inclusive wall time in microseconds.
    pub fn total_us(&self) -> f64 {
        self.total_ns as f64 / 1000.0
    }

    /// Exclusive wall time in microseconds.
    pub fn self_us(&self) -> f64 {
        self.self_ns as f64 / 1000.0
    }

    /// The value of one counter on this span, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Calls `f` on this span and then on every descendant, depth-first
    /// in child order.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a SpanNode)) {
        f(self);
        for c in &self.children {
            c.visit(f);
        }
    }
}

/// A finished trace: the span forest plus every span counter summed
/// by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineTrace {
    /// Top-level spans (usually exactly one per traced call).
    pub roots: Vec<SpanNode>,
    /// All span counters, summed across spans, name-sorted.
    pub counters: BTreeMap<String, u64>,
}

impl PipelineTrace {
    pub(crate) fn build(raw: Vec<RawSpan>) -> PipelineTrace {
        let mut counters = BTreeMap::new();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); raw.len()];
        let mut root_ids = Vec::new();
        for (i, s) in raw.iter().enumerate() {
            // Parents are always recorded before their children, so the
            // parent id is valid and smaller than `i`.
            match s.parent {
                Some(p) => children[p as usize].push(i),
                None => root_ids.push(i),
            }
        }
        fn node(
            i: usize,
            raw: &[RawSpan],
            children: &[Vec<usize>],
            agg: &mut BTreeMap<String, u64>,
        ) -> SpanNode {
            let kids: Vec<SpanNode> =
                children[i].iter().map(|&c| node(c, raw, children, agg)).collect();
            let total_ns = raw[i].dur_ns.unwrap_or(0);
            let child_sum: u64 = kids.iter().map(|k| k.total_ns).sum();
            for (k, v) in &raw[i].counters {
                *agg.entry(k.to_string()).or_default() += v;
            }
            SpanNode {
                name: raw[i].name.to_string(),
                start_ns: raw[i].start_ns,
                total_ns,
                self_ns: total_ns.saturating_sub(child_sum),
                counters: raw[i].counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
                children: kids,
            }
        }
        let roots = root_ids.iter().map(|&i| node(i, &raw, &children, &mut counters)).collect();
        PipelineTrace { roots, counters }
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Number of spans named `name`, anywhere in the forest.
    pub fn span_count(&self, name: &str) -> usize {
        let mut n = 0;
        for r in &self.roots {
            r.visit(&mut |s| {
                if s.name == name {
                    n += 1;
                }
            });
        }
        n
    }

    /// The first span named `name`, depth-first.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        let mut found = None;
        for r in &self.roots {
            r.visit(&mut |s| {
                if found.is_none() && s.name == name {
                    found = Some(s);
                }
            });
        }
        found
    }

    /// Total spans in the forest.
    pub fn len(&self) -> usize {
        let mut n = 0;
        for r in &self.roots {
            r.visit(&mut |_| n += 1);
        }
        n
    }

    /// Renders the span tree with per-span self/total wall time and
    /// counters, followed by the aggregated counter snapshot.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for r in &self.roots {
            render_node(r, "", true, true, &mut out);
        }
        if !self.counters.is_empty() {
            let parts: Vec<String> =
                self.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!("counters: {}\n", parts.join(" ")));
        }
        out
    }

    /// Serializes the trace as Chrome `trace_event` JSON ("X" complete
    /// events, timestamps in microseconds), loadable in
    /// `chrome://tracing` and Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let mut events: Vec<String> = Vec::new();
        for r in &self.roots {
            r.visit(&mut |s| {
                let mut args: Vec<String> = s
                    .counters
                    .iter()
                    .map(|(k, v)| format!("\"{}\":{}", escape(k), v))
                    .collect();
                args.push(format!("\"self_us\":{:.3}", s.self_us()));
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"aqks\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{{}}}}}",
                    escape(&s.name),
                    s.start_ns as f64 / 1000.0,
                    s.total_us(),
                    args.join(",")
                ));
            });
        }
        format!("{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}\n", events.join(",\n"))
    }

    /// Serializes the trace as a standalone JSON document (nested spans
    /// plus the counter snapshot) — the CLI's `--trace=json` output.
    pub fn to_json(&self) -> String {
        fn span_json(s: &SpanNode, out: &mut String) {
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"total_us\":{:.3},\"self_us\":{:.3}",
                escape(&s.name),
                s.total_us(),
                s.self_us()
            ));
            if !s.counters.is_empty() {
                let parts: Vec<String> =
                    s.counters.iter().map(|(k, v)| format!("\"{}\":{}", escape(k), v)).collect();
                out.push_str(&format!(",\"counters\":{{{}}}", parts.join(",")));
            }
            if !s.children.is_empty() {
                out.push_str(",\"children\":[");
                for (i, c) in s.children.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    span_json(c, out);
                }
                out.push(']');
            }
            out.push('}');
        }
        let mut out = String::from("{\"spans\":[");
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            span_json(r, &mut out);
        }
        out.push_str("],\"counters\":{");
        let parts: Vec<String> =
            self.counters.iter().map(|(k, v)| format!("\"{}\":{}", escape(k), v)).collect();
        out.push_str(&parts.join(","));
        out.push_str("}}\n");
        out
    }
}

fn render_node(s: &SpanNode, prefix: &str, last: bool, root: bool, out: &mut String) {
    let (branch, child_prefix) = if root {
        (String::new(), String::new())
    } else if last {
        (format!("{prefix}└─ "), format!("{prefix}   "))
    } else {
        (format!("{prefix}├─ "), format!("{prefix}│  "))
    };
    out.push_str(&branch);
    out.push_str(&s.name);
    out.push_str(&format!("  total={} self={}", fmt_ns(s.total_ns), fmt_ns(s.self_ns)));
    if !s.counters.is_empty() {
        let parts: Vec<String> = s.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
        out.push_str(&format!(" [{}]", parts.join(" ")));
    }
    out.push('\n');
    let n = s.children.len();
    for (i, c) in s.children.iter().enumerate() {
        render_node(c, &child_prefix, i + 1 == n, false, out);
    }
}

/// Human-friendly duration: µs below 1 ms, ms below 1 s.
fn fmt_ns(ns: u64) -> String {
    let us = ns as f64 / 1000.0;
    if us < 1000.0 {
        format!("{us:.1}µs")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1000.0)
    } else {
        format!("{:.3}s", us / 1e6)
    }
}

pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::Recorder;

    fn sample() -> crate::PipelineTrace {
        let rec = Recorder::enabled();
        {
            let root = rec.span("answer");
            root.add("k", 1);
            {
                let m = rec.span("match");
                m.add("index.probes", 3);
            }
            let _e = rec.span("exec");
        }
        rec.take()
    }

    #[test]
    fn render_text_shows_tree_times_and_counters() {
        let text = sample().render_text();
        assert!(text.starts_with("answer  total="), "{text}");
        assert!(text.contains("├─ match"), "{text}");
        assert!(text.contains("└─ exec"), "{text}");
        assert!(text.contains("[index.probes=3]"), "{text}");
        assert!(text.contains("counters: index.probes=3 k=1"), "{text}");
    }

    #[test]
    fn chrome_json_is_valid_and_carries_all_spans() {
        let t = sample();
        let json = t.to_chrome_json();
        crate::json::validate(&json).expect("chrome trace is well-formed JSON");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), t.len());
        assert!(json.contains("\"name\":\"match\""), "{json}");
        assert!(json.contains("\"traceEvents\""), "{json}");
    }

    #[test]
    fn structured_json_is_valid() {
        let json = sample().to_json();
        crate::json::validate(&json).expect("trace json is well-formed");
        assert!(json.contains("\"counters\""), "{json}");
    }

    #[test]
    fn self_time_excludes_children() {
        let t = sample();
        let root = &t.roots[0];
        let kids: u64 = root.children.iter().map(|c| c.total_ns).sum();
        assert_eq!(root.self_ns, root.total_ns - kids);
    }

    #[test]
    fn names_are_escaped_in_json() {
        let rec = Recorder::enabled();
        {
            let _s = rec.span("weird \"name\"\\path");
        }
        let json = rec.take().to_chrome_json();
        crate::json::validate(&json).expect("escaped JSON parses");
    }
}
