//! The thread-safe span/counter recorder.
//!
//! A [`Recorder`] is a cheap clone (one `Arc`). Spans are recorded into
//! a mutex-guarded buffer; whether it records is fixed when it is built,
//! so the disabled fast path reads one flag and never takes the lock.
//! Span nesting is tracked per thread on an ambient stack, so
//! deeply-layered code (the engine calling the executor calling nothing
//! observability-aware) does not need to pass recorder handles around.

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::trace::PipelineTrace;

/// One recorded span, id-indexed in the recorder state.
#[derive(Debug, Clone)]
pub(crate) struct RawSpan {
    pub(crate) name: Cow<'static, str>,
    pub(crate) parent: Option<u32>,
    /// Start offset from the recorder epoch, nanoseconds.
    pub(crate) start_ns: u64,
    /// Inclusive duration, nanoseconds; `None` while the span is open.
    pub(crate) dur_ns: Option<u64>,
    pub(crate) counters: Vec<(Cow<'static, str>, u64)>,
}

struct Inner {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<RawSpan>>,
}

/// A thread-safe span/counter sink. Clones share the same buffer.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("enabled", &self.is_enabled()).finish()
    }
}

thread_local! {
    /// Innermost-last stack of (recorder, span id) active on this thread.
    static AMBIENT: RefCell<Vec<(Recorder, u32)>> = const { RefCell::new(Vec::new()) };
}

impl Recorder {
    fn with_enabled(enabled: bool) -> Recorder {
        Recorder {
            inner: Arc::new(Inner {
                enabled,
                epoch: Instant::now(),
                spans: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A recorder with recording off — every span is an inert guard
    /// costing one flag read.
    pub fn disabled() -> Recorder {
        Recorder::with_enabled(false)
    }

    /// A recorder with recording on.
    pub fn enabled() -> Recorder {
        Recorder::with_enabled(true)
    }

    /// True when spans and counters are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// True when both handles point at the same underlying buffer.
    fn same(&self, other: &Recorder) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span. When recording is on, the span is parented under
    /// the innermost span *of this recorder* active on the current
    /// thread (the ambient stack) and is pushed onto that stack until
    /// the guard drops. When recording is off this is one flag read.
    pub fn span(&self, name: impl Into<Cow<'static, str>>) -> Span {
        if !self.is_enabled() {
            return Span { live: None };
        }
        let parent = AMBIENT
            .with(|s| s.borrow().iter().rev().find(|(r, _)| r.same(self)).map(|(_, id)| *id));
        let name = name.into();
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.inner.spans.lock().expect("recorder spans poisoned");
            let id = spans.len() as u32;
            spans.push(RawSpan { name, parent, start_ns, dur_ns: None, counters: Vec::new() });
            id
        };
        AMBIENT.with(|s| s.borrow_mut().push((self.clone(), id)));
        Span { live: Some((self.clone(), id)) }
    }

    fn add_to_span(&self, id: u32, name: Cow<'static, str>, n: u64) {
        let mut spans = self.inner.spans.lock().expect("recorder spans poisoned");
        let Some(raw) = spans.get_mut(id as usize) else { return };
        match raw.counters.iter_mut().find(|(k, _)| *k == name) {
            Some(c) => c.1 += n,
            None => raw.counters.push((name, n)),
        }
    }

    /// Grafts an externally-timed, already-completed span into the tree:
    /// `start`/`dur` come from the caller's own measurement (e.g. the
    /// executor's accumulated per-operator wall time). With `parent:
    /// None` the span lands under the innermost ambient span of this
    /// recorder. Returns a handle usable as the parent of further
    /// completed spans.
    pub fn record_span(
        &self,
        parent: Option<&SpanHandle>,
        name: impl Into<Cow<'static, str>>,
        start: Instant,
        dur: Duration,
        counters: &[(&'static str, u64)],
    ) -> SpanHandle {
        if !self.is_enabled() {
            return SpanHandle { live: None };
        }
        let parent_id = match parent {
            Some(h) => h.live.as_ref().map(|(_, id)| *id),
            None => AMBIENT
                .with(|s| s.borrow().iter().rev().find(|(r, _)| r.same(self)).map(|(_, id)| *id)),
        };
        let start_ns =
            start.checked_duration_since(self.inner.epoch).unwrap_or_default().as_nanos() as u64;
        let mut spans = self.inner.spans.lock().expect("recorder spans poisoned");
        let id = spans.len() as u32;
        spans.push(RawSpan {
            name: name.into(),
            parent: parent_id,
            start_ns,
            dur_ns: Some(dur.as_nanos() as u64),
            counters: counters.iter().map(|&(k, v)| (Cow::Borrowed(k), v)).collect(),
        });
        SpanHandle { live: Some((self.clone(), id)) }
    }

    /// Snapshots and clears everything recorded so far. Call after all
    /// spans have closed; a span still open at `take` time is reported
    /// with zero duration and its late close is ignored.
    pub fn take(&self) -> PipelineTrace {
        let spans = std::mem::take(&mut *self.inner.spans.lock().expect("recorder spans poisoned"));
        PipelineTrace::build(spans)
    }
}

/// RAII guard of an open span. Dropping it records the duration.
#[must_use = "a span measures until it is dropped"]
#[derive(Debug)]
pub struct Span {
    live: Option<(Recorder, u32)>,
}

impl Span {
    /// Adds `n` to a counter attached to this span.
    pub fn add(&self, name: impl Into<Cow<'static, str>>, n: u64) {
        if let Some((rec, id)) = &self.live {
            rec.add_to_span(*id, name.into(), n);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((rec, id)) = self.live.take() else { return };
        let end_ns = rec.now_ns();
        // Remove this span from the ambient stack of the dropping
        // thread; after a cross-thread move it may not be there.
        AMBIENT.with(|s| {
            let mut st = s.borrow_mut();
            if let Some(pos) = st.iter().rposition(|(r, i)| r.same(&rec) && *i == id) {
                st.remove(pos);
            }
        });
        let mut spans = rec.inner.spans.lock().expect("recorder spans poisoned");
        if let Some(raw) = spans.get_mut(id as usize) {
            if raw.dur_ns.is_none() {
                raw.dur_ns = Some(end_ns.saturating_sub(raw.start_ns));
            }
        }
    }
}

/// A reference to a span grafted by [`Recorder::record_span`], usable
/// as the parent of further completed spans.
#[derive(Debug, Clone)]
pub struct SpanHandle {
    live: Option<(Recorder, u32)>,
}

/// Adds `n` to a counter on the innermost ambient span of the current
/// thread, whatever recorder it belongs to. A no-op (one thread-local
/// read) when no span is active — instrumented leaf code calls this
/// unconditionally.
pub fn counter(name: impl Into<Cow<'static, str>>, n: u64) {
    let target = AMBIENT.with(|s| s.borrow().last().cloned());
    if let Some((rec, id)) = target {
        rec.add_to_span(id, name.into(), n);
    }
}

/// The recorder owning the innermost ambient span of this thread, if
/// any — how layers below the engine (the executor) find the active
/// recorder without a parameter.
pub fn current() -> Option<Recorder> {
    AMBIENT.with(|s| s.borrow().last().map(|(r, _)| r.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_form_a_tree() {
        let rec = Recorder::enabled();
        {
            let root = rec.span("root");
            root.add("hits", 2);
            {
                let _child = rec.span("child-a");
                counter("probes", 3);
            }
            let _b = rec.span("child-b");
        }
        let t = rec.take();
        assert_eq!(t.roots.len(), 1);
        let root = &t.roots[0];
        assert_eq!(root.name, "root");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "child-a");
        assert_eq!(root.children[1].name, "child-b");
        assert_eq!(root.counters, vec![("hits".to_string(), 2)]);
        assert_eq!(root.children[0].counters, vec![("probes".to_string(), 3)]);
        // Aggregated metrics snapshot sees both.
        assert_eq!(t.counters.get("hits"), Some(&2));
        assert_eq!(t.counters.get("probes"), Some(&3));
    }

    #[test]
    fn sibling_after_drop_is_not_nested() {
        let rec = Recorder::enabled();
        {
            let _a = rec.span("a");
        }
        {
            let _b = rec.span("b");
        }
        let t = rec.take();
        assert_eq!(t.roots.len(), 2, "{t:?}");
    }

    #[test]
    fn counters_merge_within_a_span() {
        let rec = Recorder::enabled();
        {
            let s = rec.span("s");
            s.add("n", 1);
            s.add("n", 4);
        }
        let t = rec.take();
        assert_eq!(t.roots[0].counters, vec![("n".to_string(), 5)]);
        assert_eq!(t.counters.get("n"), Some(&5));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        {
            let s = rec.span("s");
            s.add("n", 1);
            counter("ambient", 1);
        }
        let t = rec.take();
        assert!(t.is_empty());
        assert!(t.counters.is_empty());
    }

    #[test]
    fn record_span_grafts_completed_work() {
        let rec = Recorder::enabled();
        let t0 = Instant::now();
        {
            let _exec = rec.span("exec");
            let parent = rec.record_span(
                None,
                "op:Project",
                t0,
                Duration::from_micros(50),
                &[("rows_out", 7)],
            );
            rec.record_span(
                Some(&parent),
                "op:Scan",
                t0,
                Duration::from_micros(40),
                &[("rows_out", 100)],
            );
        }
        let t = rec.take();
        let exec = &t.roots[0];
        assert_eq!(exec.children[0].name, "op:Project");
        assert_eq!(exec.children[0].children[0].name, "op:Scan");
        assert_eq!(exec.children[0].total_ns, 50_000);
        assert_eq!(exec.children[0].self_ns, 10_000);
        assert_eq!(t.counters.get("rows_out"), Some(&107));
    }

    #[test]
    fn take_resets_the_buffer() {
        let rec = Recorder::enabled();
        {
            let _s = rec.span("one");
        }
        assert_eq!(rec.take().roots.len(), 1);
        assert!(rec.take().is_empty());
    }
}
