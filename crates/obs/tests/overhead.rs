//! Disabled-recorder overhead: instrumentation with recording off must
//! not allocate. A counting global allocator wraps the system allocator;
//! only allocations made by the measuring thread are counted (the
//! libtest harness thread can allocate at any time and must not pollute
//! the count).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use aqks_obs::Recorder;

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

#[test]
fn disabled_spans_and_counters_do_not_allocate() {
    let rec = Recorder::disabled();
    // Warm the thread-local ambient stack and any lazy runtime state.
    {
        let s = rec.span("warmup");
        s.add("n", 1);
        aqks_obs::counter("warmup", 1);
        let _ = aqks_obs::current();
    }

    TRACKING.with(|t| t.set(true));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..10_000 {
        let span = rec.span("phase");
        span.add("counter", 1);
        aqks_obs::counter("ambient", 1);
        drop(span);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "disabled instrumentation allocated {} time(s)", after - before);

    // Sanity check that the counter itself works.
    let probe = vec![1u8, 2, 3];
    assert!(ALLOCATIONS.load(Ordering::SeqCst) > after, "allocator instrumented");
    drop(probe);
    TRACKING.with(|t| t.set(false));

    // And an enabled recorder records normally.
    let rec = Recorder::enabled();
    {
        let _s = rec.span("live");
    }
    assert_eq!(rec.take().roots.len(), 1);
}
