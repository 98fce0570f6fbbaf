//! Metrics hot-path allocation contract, pinned with a counting global
//! allocator (same harness as the recorder's `overhead` test):
//!
//! * **disabled path**: a handle bump with the registry disabled is an
//!   early return — zero allocations;
//! * **enabled steady state**: once a handle's cell is registered
//!   (first use), recording is pure atomics, and a labeled series is
//!   found by a hash lookup on borrowed strings — also zero
//!   allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use aqks_obs::metrics::{self, Counter, Gauge, Histogram, Unit};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialized and destructor-free, so reading it inside the
    // allocator can neither allocate nor touch torn-down TLS.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = TRACKING.try_with(|t| {
            if t.get() {
                ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
            }
        });
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

static QUERIES: Counter = Counter::new("probe_queries");
static RETAINED: Gauge = Gauge::new("probe_retained");
static LATENCY: Histogram = Histogram::new("probe_latency_ns", Unit::Nanos);

fn exercise_handles(i: u64) {
    QUERIES.add(1);
    RETAINED.set(3);
    LATENCY.observe(i * 17);
    let registry = metrics::global();
    registry.add("probe_trips", Some(("site", "ops.Scan")), 1);
    registry.add("probe_trips", Some(("site", "engine.answer")), 1);
    registry.observe("probe_peak_bytes", Some(("op", "HashJoin")), Unit::Bytes, &[i * 4096]);
}

#[test]
fn metric_recording_does_not_allocate_after_first_use() {
    // Warm: initialize the global registry, register every handle and
    // label (first enabled use allocates cells — that is the cold
    // path), and touch the thread-local tracking state.
    metrics::set_enabled(true);
    exercise_handles(1);

    // Enabled steady state: pure atomics.
    TRACKING.with(|t| t.set(true));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..10_000 {
        exercise_handles(i);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "enabled steady-state recording allocated {} time(s)",
        after - before
    );

    // Disabled path: one relaxed load and an early return.
    TRACKING.with(|t| t.set(false));
    metrics::set_enabled(false);
    TRACKING.with(|t| t.set(true));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..10_000 {
        exercise_handles(i);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "disabled recording allocated {} time(s)", after - before);

    // Sanity check that the counter itself works.
    let probe = vec![1u8, 2, 3];
    assert!(ALLOCATIONS.load(Ordering::SeqCst) > after, "allocator instrumented");
    drop(probe);
    TRACKING.with(|t| t.set(false));
    metrics::set_enabled(true);

    // The warm-up and the first (enabled) loop recorded 10_001 times.
    let snap = metrics::global().snapshot();
    assert_eq!(snap.counter_total("probe_queries"), 10_001);
    assert_eq!(snap.counter_total("probe_trips"), 20_002);
}
