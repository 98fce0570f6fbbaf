//! Release-mode skip-path overhead: `verify_in_debug` compiles to a
//! branch in release builds and must not allocate. A counting global
//! allocator wraps the system allocator; only allocations made by the
//! measuring thread are counted. The pinning test is itself gated on
//! release (`cargo test --release`): in debug builds the gate runs the
//! full verifier, which allocates by design.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use aqks_datasets::university;
use aqks_sqlgen::ast::{ColumnRef, SelectItem, SelectStatement, TableExpr};

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

fn student_scan() -> SelectStatement {
    SelectStatement {
        items: vec![SelectItem::Column { col: ColumnRef::new("S", "Sid"), alias: None }],
        from: vec![TableExpr::Relation { name: "Student".into(), alias: "S".into() }],
        ..SelectStatement::new()
    }
}

#[cfg(not(debug_assertions))]
#[test]
fn release_skip_path_does_not_allocate() {
    let db = university::normalized();
    let stmt = student_scan();
    let plan = aqks_sqlgen::plan(&stmt, &db).expect("plans");
    // Warm up once outside the tracked window.
    aqks_plancheck::verify_in_debug(&plan, &db, &stmt).expect("skip path succeeds");

    TRACKING.with(|t| t.set(true));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..10_000 {
        aqks_plancheck::verify_in_debug(&plan, &db, &stmt).expect("skip path succeeds");
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "release skip path allocated {} time(s)", after - before);

    // Sanity check that the counter itself works.
    let probe = vec![1u8, 2, 3];
    assert!(ALLOCATIONS.load(Ordering::SeqCst) > after, "allocator instrumented");
    drop(probe);
    TRACKING.with(|t| t.set(false));
}

/// In debug builds the same gate runs the full verifier (and so must
/// reject a corrupted plan rather than skipping).
#[cfg(debug_assertions)]
#[test]
fn debug_gate_actually_verifies() {
    let db = university::normalized();
    let stmt = student_scan();
    let plan = aqks_sqlgen::plan(&stmt, &db).expect("plans");
    aqks_plancheck::verify_in_debug(&plan, &db, &stmt).expect("clean plan passes");
    let (_, bad) = aqks_plancheck::mutate::all(&plan)
        .into_iter()
        .find(|(m, _)| *m == aqks_plancheck::mutate::Mutation::StaleColumnIndex)
        .expect("projection to corrupt");
    assert!(
        aqks_plancheck::verify_in_debug(&bad, &db, &stmt).is_err(),
        "debug gate skipped verification"
    );
}
