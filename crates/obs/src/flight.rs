//! Query flight recorder: two *exemplars* out of every metered query —
//! the slowest query seen and the most recent budget-tripped query —
//! each kept with its full [`PipelineTrace`].
//!
//! The span recorder answers "trace this one call"; the flight
//! recorder answers "what did that slow query half an hour ago do"
//! without anyone having asked for a trace in advance. The engine
//! feeds it from `Engine::run` whenever the metrics registry is
//! enabled; readers get the exemplars as cheap `Arc` clones.
//!
//! Whether a query becomes an exemplar is decided on the recording
//! thread: a run that is neither slower than the slowest threshold (an
//! atomic) nor tripped takes no lock and copies nothing, so its span
//! tree is dropped by the thread that built it. Memory is bounded by
//! construction: at most two entries are retained.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::trace::PipelineTrace;

/// One recorded flight: a finished query with its full span trace.
#[derive(Debug)]
pub struct FlightEntry {
    /// Monotonic sequence number (1-based, global per recorder).
    pub seq: u64,
    /// The keyword query text.
    pub query: String,
    /// End-to-end wall time in nanoseconds.
    pub total_ns: u64,
    /// Budget-exhaustion description when the query tripped a guard.
    pub tripped: Option<String>,
    /// The full span trace of the run.
    pub trace: PipelineTrace,
}

#[derive(Debug)]
struct Exemplars {
    slowest: Option<Arc<FlightEntry>>,
    last_tripped: Option<Arc<FlightEntry>>,
}

/// The slowest and last-tripped exemplars. Recording one takes one
/// short mutex section; reads share entries out as `Arc`s.
#[derive(Debug)]
pub struct FlightRecorder {
    recorded: AtomicU64,
    /// A run must take at least this many nanoseconds to become the
    /// slowest exemplar: the current slowest time plus one (0 while
    /// there is none), so ties keep the first. Only a filter: the
    /// decision is re-checked under the lock, which also publishes the
    /// entry, so relaxed accesses suffice.
    slowest_floor: AtomicU64,
    exemplars: Mutex<Exemplars>,
}

fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl FlightRecorder {
    const fn new() -> FlightRecorder {
        FlightRecorder {
            recorded: AtomicU64::new(0),
            slowest_floor: AtomicU64::new(0),
            exemplars: Mutex::new(Exemplars { slowest: None, last_tripped: None }),
        }
    }

    /// Records one finished query: counts it, and keeps a copy of it
    /// as the slowest exemplar when `total_ns` sets a new record and as
    /// the tripped exemplar when `tripped` is set.
    pub fn record(
        &self,
        query: &str,
        total_ns: u64,
        tripped: Option<String>,
        trace: &PipelineTrace,
    ) {
        let seq = self.recorded.fetch_add(1, Ordering::Relaxed) + 1;
        let slower = total_ns >= self.slowest_floor.load(Ordering::Relaxed);
        if !slower && tripped.is_none() {
            return;
        }
        let mut ex = relock(&self.exemplars);
        // Another thread may have set a slower record since the check.
        let slowest = slower && ex.slowest.as_ref().is_none_or(|s| total_ns > s.total_ns);
        if !slowest && tripped.is_none() {
            return;
        }
        let is_tripped = tripped.is_some();
        let entry = Arc::new(FlightEntry {
            seq,
            query: query.to_string(),
            total_ns,
            tripped,
            trace: trace.clone(),
        });
        if slowest {
            self.slowest_floor.store(total_ns.saturating_add(1), Ordering::Relaxed);
            ex.slowest = Some(Arc::clone(&entry));
        }
        if is_tripped {
            ex.last_tripped = Some(entry);
        }
    }

    /// The slowest query ever recorded.
    pub fn slowest(&self) -> Option<Arc<FlightEntry>> {
        relock(&self.exemplars).slowest.clone()
    }

    /// The most recent budget-tripped query.
    pub fn last_tripped(&self) -> Option<Arc<FlightEntry>> {
        relock(&self.exemplars).last_tripped.clone()
    }

    /// Total flights recorded over the recorder's lifetime.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }
}

static GLOBAL: FlightRecorder = FlightRecorder::new();

/// The process-wide flight recorder the engine records into.
pub fn global() -> &'static FlightRecorder {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_with_spans(n: usize) -> PipelineTrace {
        let rec = crate::Recorder::enabled();
        for i in 0..n {
            let _s = rec.span(if i % 2 == 0 { "exec" } else { "plan" });
        }
        rec.take()
    }

    #[test]
    fn exemplars_survive_1000_query_mixed_workload() {
        let fr = FlightRecorder::new();
        // 1000 mixed queries: latencies cycle, the global maximum is
        // planted early, and every 97th query trips a budget guard.
        let mut expected_slowest = 0u64;
        let mut expected_last_tripped = 0u64;
        for i in 1..=1000u64 {
            let total_ns = if i == 137 { 9_999_999_999 } else { 1_000 + (i * 7919) % 500_000 };
            if total_ns > expected_slowest {
                expected_slowest = total_ns;
            }
            let tripped = (i % 97 == 0).then(|| format!("rows budget at ops.Scan (query {i})"));
            if tripped.is_some() {
                expected_last_tripped = i;
            }
            fr.record(&format!("query {i}"), total_ns, tripped, &trace_with_spans(3));
        }
        assert_eq!(fr.recorded(), 1000);
        let slowest = fr.slowest().expect("slowest exemplar");
        assert_eq!(slowest.seq, 137, "an early slowest exemplar survives later queries");
        assert_eq!(slowest.query, "query 137");
        assert_eq!(slowest.total_ns, expected_slowest);
        assert!(!slowest.trace.is_empty());
        let tripped = fr.last_tripped().expect("tripped exemplar");
        assert_eq!(tripped.seq, expected_last_tripped);
        assert!(tripped.tripped.as_deref().unwrap_or("").contains("ops.Scan"));
    }

    /// Four threads record concurrently: the slowest exemplar is the
    /// global maximum whichever thread saw it, every query is counted,
    /// and the tripped exemplar is one of the tripped queries.
    #[test]
    fn exemplars_hold_under_four_recording_threads() {
        let fr = FlightRecorder::new();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (fr, start) = (&fr, &start);
                s.spawn(move || {
                    let trace = trace_with_spans(2);
                    start.wait();
                    for i in 0..250u64 {
                        // Distinct across threads: t + 4 * (a permutation of 0..250).
                        let total_ns = t + 4 * ((i * 101) % 250);
                        let tripped = (i % 50 == 7).then(|| format!("tripped {t}/{i}"));
                        fr.record(&format!("{t}/{i}"), total_ns, tripped, &trace);
                    }
                });
            }
        });
        assert_eq!(fr.recorded(), 1000);
        let slowest = fr.slowest().expect("slowest exemplar");
        assert_eq!(slowest.total_ns, 3 + 4 * 249);
        assert!(slowest.query.starts_with("3/"), "{}", slowest.query);
        let tripped = fr.last_tripped().expect("tripped exemplar");
        let (t, i) = tripped.query.split_once('/').expect("query names its thread");
        assert!(i.parse::<u64>().is_ok_and(|i| i % 50 == 7), "{}", tripped.query);
        assert_eq!(tripped.tripped.as_deref(), Some(format!("tripped {t}/{i}").as_str()));
    }

    #[test]
    fn empty_recorder_has_no_exemplars() {
        let fr = FlightRecorder::new();
        assert_eq!(fr.recorded(), 0);
        assert!(fr.slowest().is_none());
        assert!(fr.last_tripped().is_none());
    }

    #[test]
    fn slowest_tie_keeps_the_first() {
        let fr = FlightRecorder::new();
        fr.record("first", 100, None, &trace_with_spans(1));
        fr.record("second", 100, None, &trace_with_spans(1));
        assert_eq!(fr.slowest().expect("slowest").seq, 1);
    }

    #[test]
    fn a_zero_time_first_query_is_the_slowest() {
        let fr = FlightRecorder::new();
        fr.record("instant", 0, None, &trace_with_spans(1));
        assert_eq!(fr.slowest().expect("slowest").query, "instant");
    }
}
