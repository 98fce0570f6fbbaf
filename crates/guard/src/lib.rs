//! Resource governance and deterministic fault injection for the aqks
//! pipeline.
//!
//! A production keyword-search service cannot let one adversarial query
//! monopolize the process: pattern enumeration is combinatorial over the
//! ORM graph and the executor will happily materialize unbounded join
//! state. This crate provides the two pieces that keep a query inside a
//! box:
//!
//! * **Budgets** ([`Budget`], [`Governor`]) — a wall-clock deadline plus
//!   caps on intermediate rows, enumerated patterns, and executed
//!   interpretations. A [`Governor`] is installed ambiently (thread-local,
//!   mirroring `aqks-obs`'s recorder stack) so hot loops deep in the
//!   pipeline can charge work units without any API plumbing:
//!   [`charge_rows`], [`charge_patterns`], [`charge_interpretations`],
//!   and the deadline-only [`checkpoint`]. The first cap to trip wins and
//!   is recorded as a [`Tripped`] naming the budget kind and the site.
//!   Deadline, row, and pattern trips are *hard*: every subsequent charge
//!   fails fast with that same trip so the whole pipeline unwinds
//!   cooperatively — no panics, no torn state. The interpretation cap is
//!   *soft*: it truncates the translation loop while letting the
//!   already-translated interpretations finish executing.
//! * **Failpoints** ([`failpoint!`], [`mod@failpoint`] module) — named
//!   deterministic fault-injection sites, compiled out by default and
//!   enabled per-site via the `failpoints` cargo feature plus either the
//!   `AQKS_FAILPOINTS` environment variable or the programmatic
//!   `failpoint::enable` API. Each armed site surfaces as a typed
//!   [`failpoint::FailpointError`] through the layer's normal error
//!   channel, proving error paths end-to-end without hand-crafting
//!   corrupt inputs.
//!
//! When no governor is installed every helper is a no-op costing one
//! thread-local read — the disabled path allocates nothing (pinned by
//! `tests/overhead.rs`, mirroring the obs overhead test).

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod failpoint;

pub use failpoint::FailpointError;

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which budget dimension was exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// The wall-clock deadline passed.
    Deadline,
    /// The intermediate-row cap was reached.
    Rows,
    /// The enumerated-pattern cap was reached.
    Patterns,
    /// The executed-interpretation cap was reached.
    Interpretations,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetKind::Deadline => "deadline",
            BudgetKind::Rows => "row",
            BudgetKind::Patterns => "pattern",
            BudgetKind::Interpretations => "interpretation",
        })
    }
}

/// A budget was exceeded: which dimension, and at which pipeline site.
///
/// Sites are static strings like `"pattern.enumerate"`,
/// `"ops.HashJoin.build"`, or `"index.verify"` — stable identifiers a
/// caller can assert on and an operator can grep for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tripped {
    /// The dimension that ran out.
    pub kind: BudgetKind,
    /// The pipeline site performing the charge that tripped.
    pub site: &'static str,
}

impl Tripped {
    /// Promote a trip into the user-facing exhaustion report.
    pub fn exhaust(self, partial: bool) -> Exhaustion {
        Exhaustion { kind: self.kind, site: self.site, partial }
    }
}

impl fmt::Display for Tripped {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} budget exhausted at `{}`", self.kind, self.site)
    }
}

impl std::error::Error for Tripped {}

/// Structured report returned alongside partial results when a budget
/// tripped: what ran out, where, and whether any results survived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exhaustion {
    /// The dimension that ran out.
    pub kind: BudgetKind,
    /// The pipeline site performing the charge that tripped.
    pub site: &'static str,
    /// True when results completed before the trip are being returned.
    pub partial: bool,
}

impl fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} budget exhausted at `{}` ({})",
            self.kind,
            self.site,
            if self.partial { "partial results returned" } else { "no results completed" }
        )
    }
}

/// Declarative resource limits for one engine call. All dimensions are
/// optional; [`Budget::unlimited`] (the default) never trips.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock limit from the moment the governor is created.
    pub timeout: Option<Duration>,
    /// Cap on intermediate rows flowing through executor operators and
    /// index verification.
    pub max_rows: Option<u64>,
    /// Cap on query patterns enumerated over the ORM graph.
    pub max_patterns: Option<u64>,
    /// Cap on interpretations translated and executed.
    pub max_interpretations: Option<u64>,
}

impl Budget {
    /// A budget with no limits; charging against it never trips.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Set a wall-clock deadline relative to governor creation.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Cap intermediate rows.
    pub fn with_max_rows(mut self, n: u64) -> Self {
        self.max_rows = Some(n);
        self
    }

    /// Cap enumerated patterns.
    pub fn with_max_patterns(mut self, n: u64) -> Self {
        self.max_patterns = Some(n);
        self
    }

    /// Cap executed interpretations.
    pub fn with_max_interpretations(mut self, n: u64) -> Self {
        self.max_interpretations = Some(n);
        self
    }

    /// True when no dimension is limited.
    pub fn is_unlimited(&self) -> bool {
        self.timeout.is_none()
            && self.max_rows.is_none()
            && self.max_patterns.is_none()
            && self.max_interpretations.is_none()
    }
}

struct Inner {
    deadline: Option<Instant>,
    max_rows: u64,
    max_patterns: u64,
    max_interpretations: u64,
    rows: AtomicU64,
    patterns: AtomicU64,
    interpretations: AtomicU64,
    /// Any trip was recorded (soft or hard); gates [`Governor::trip`].
    recorded: AtomicBool,
    /// Hard-cancel fast path: set exactly once by a *hard* trip, read
    /// (relaxed) by every charge so the whole pipeline unwinds.
    cancelled: AtomicBool,
    /// First trip wins; later hard-cancelled chargers fail with it.
    trip: Mutex<Option<Tripped>>,
}

/// Shared, thread-safe enforcement state for one [`Budget`].
///
/// Cloning is cheap (an `Arc` bump); all clones observe the same
/// counters and the same first trip.
#[derive(Clone)]
pub struct Governor {
    inner: Arc<Inner>,
}

impl fmt::Debug for Governor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Governor")
            .field("tripped", &self.trip())
            .field("rows", &self.rows_used())
            .field("patterns", &self.patterns_used())
            .field("interpretations", &self.interpretations_used())
            .finish()
    }
}

impl Governor {
    /// Start enforcing `budget`; the deadline clock starts now.
    pub fn new(budget: &Budget) -> Self {
        Governor {
            inner: Arc::new(Inner {
                deadline: budget.timeout.map(|t| Instant::now() + t),
                max_rows: budget.max_rows.unwrap_or(u64::MAX),
                max_patterns: budget.max_patterns.unwrap_or(u64::MAX),
                max_interpretations: budget.max_interpretations.unwrap_or(u64::MAX),
                rows: AtomicU64::new(0),
                patterns: AtomicU64::new(0),
                interpretations: AtomicU64::new(0),
                recorded: AtomicBool::new(false),
                cancelled: AtomicBool::new(false),
                trip: Mutex::new(None),
            }),
        }
    }

    /// Has any budget dimension tripped (soft or hard)?
    pub fn is_tripped(&self) -> bool {
        self.inner.recorded.load(Ordering::Relaxed)
    }

    /// The first trip, if any.
    pub fn trip(&self) -> Option<Tripped> {
        if !self.is_tripped() {
            return None;
        }
        *lock(&self.inner.trip)
    }

    /// Record a trip; first writer wins and everyone gets its value.
    ///
    /// Deadline, row, and pattern trips are *hard*: every later charge
    /// on any dimension fails fast so the pipeline cancels end to end.
    /// The interpretation cap is *soft*: it only truncates the
    /// translation loop (the charger breaks on the `Err`), and the
    /// already-translated interpretations still execute — a cap of `n`
    /// means "give me the top `n`", not "abandon the query".
    fn record_trip(&self, kind: BudgetKind, site: &'static str) -> Tripped {
        let mut slot = lock(&self.inner.trip);
        let t = *slot.get_or_insert(Tripped { kind, site });
        self.inner.recorded.store(true, Ordering::Relaxed);
        if kind != BudgetKind::Interpretations {
            self.inner.cancelled.store(true, Ordering::Relaxed);
        }
        t
    }

    fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// Deadline-only check; `Err` once the deadline passed or a hard
    /// trip already happened. A deadline of zero trips immediately.
    pub fn check_deadline(&self, site: &'static str) -> Result<(), Tripped> {
        if self.is_cancelled() {
            return Err(self.trip().unwrap_or(Tripped { kind: BudgetKind::Deadline, site }));
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => Err(self.record_trip(BudgetKind::Deadline, site)),
            _ => Ok(()),
        }
    }

    /// Charge `n` intermediate rows at `site`.
    pub fn charge_rows(&self, site: &'static str, n: u64) -> Result<(), Tripped> {
        self.charge(BudgetKind::Rows, &self.inner.rows, self.inner.max_rows, site, n)
    }

    /// Charge `n` enumerated patterns at `site`.
    pub fn charge_patterns(&self, site: &'static str, n: u64) -> Result<(), Tripped> {
        self.charge(BudgetKind::Patterns, &self.inner.patterns, self.inner.max_patterns, site, n)
    }

    /// Charge `n` executed interpretations at `site`.
    pub fn charge_interpretations(&self, site: &'static str, n: u64) -> Result<(), Tripped> {
        self.charge(
            BudgetKind::Interpretations,
            &self.inner.interpretations,
            self.inner.max_interpretations,
            site,
            n,
        )
    }

    fn charge(
        &self,
        kind: BudgetKind,
        counter: &AtomicU64,
        max: u64,
        site: &'static str,
        n: u64,
    ) -> Result<(), Tripped> {
        if self.is_cancelled() {
            return Err(self.trip().unwrap_or(Tripped { kind, site }));
        }
        let total = counter.fetch_add(n, Ordering::Relaxed).saturating_add(n);
        if total > max {
            return Err(self.record_trip(kind, site));
        }
        Ok(())
    }

    /// Rows charged so far.
    pub fn rows_used(&self) -> u64 {
        self.inner.rows.load(Ordering::Relaxed)
    }

    /// Patterns charged so far.
    pub fn patterns_used(&self) -> u64 {
        self.inner.patterns.load(Ordering::Relaxed)
    }

    /// Interpretations charged so far.
    pub fn interpretations_used(&self) -> u64 {
        self.inner.interpretations.load(Ordering::Relaxed)
    }
}

/// Lock a mutex, recovering the data if a panicking thread poisoned it
/// (the engine catches panics at its boundary, so state must survive).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

thread_local! {
    static ACTIVE: RefCell<Vec<Governor>> = const { RefCell::new(Vec::new()) };
}

/// RAII handle returned by [`install`]; dropping it uninstalls the
/// governor from the ambient stack.
#[must_use = "dropping the guard uninstalls the governor"]
pub struct ActiveGovernor {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ActiveGovernor {
    fn drop(&mut self) {
        ACTIVE.with(|s| s.borrow_mut().pop());
    }
}

/// Make `gov` the thread's current governor until the returned handle
/// drops. Nested installs shadow (innermost wins), mirroring the obs
/// recorder stack.
pub fn install(gov: &Governor) -> ActiveGovernor {
    ACTIVE.with(|s| s.borrow_mut().push(gov.clone()));
    ActiveGovernor { _not_send: std::marker::PhantomData }
}

/// The innermost installed governor, if any.
pub fn current() -> Option<Governor> {
    ACTIVE.with(|s| s.borrow().last().cloned())
}

/// Deadline checkpoint against the ambient governor; no-op `Ok` when
/// none is installed or no deadline is set.
pub fn checkpoint(site: &'static str) -> Result<(), Tripped> {
    ACTIVE.with(|s| s.borrow().last().map_or(Ok(()), |g| g.check_deadline(site)))
}

/// Charge `n` rows against the ambient governor; no-op `Ok` when none.
pub fn charge_rows(site: &'static str, n: u64) -> Result<(), Tripped> {
    ACTIVE.with(|s| s.borrow().last().map_or(Ok(()), |g| g.charge_rows(site, n)))
}

/// Charge `n` patterns against the ambient governor; no-op `Ok` when none.
pub fn charge_patterns(site: &'static str, n: u64) -> Result<(), Tripped> {
    ACTIVE.with(|s| s.borrow().last().map_or(Ok(()), |g| g.charge_patterns(site, n)))
}

/// Charge `n` interpretations against the ambient governor; no-op `Ok`
/// when none.
pub fn charge_interpretations(site: &'static str, n: u64) -> Result<(), Tripped> {
    ACTIVE.with(|s| s.borrow().last().map_or(Ok(()), |g| g.charge_interpretations(site, n)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let gov = Governor::new(&Budget::unlimited());
        for _ in 0..1000 {
            gov.charge_rows("t", 1_000_000).unwrap();
            gov.check_deadline("t").unwrap();
        }
        assert!(!gov.is_tripped());
        assert_eq!(gov.trip(), None);
    }

    #[test]
    fn row_cap_trips_at_site_and_first_trip_wins() {
        let gov = Governor::new(&Budget::unlimited().with_max_rows(10));
        gov.charge_rows("a", 10).unwrap();
        let t = gov.charge_rows("b", 1).unwrap_err();
        assert_eq!(t, Tripped { kind: BudgetKind::Rows, site: "b" });
        // Later charges against other dimensions fail fast with the
        // original trip, not a new one.
        let t2 = gov.charge_patterns("c", 1).unwrap_err();
        assert_eq!(t2, t);
        assert_eq!(gov.trip(), Some(t));
    }

    #[test]
    fn zero_timeout_deadline_trips_immediately() {
        let gov = Governor::new(&Budget::unlimited().with_timeout(Duration::ZERO));
        let t = gov.check_deadline("loop").unwrap_err();
        assert_eq!(t.kind, BudgetKind::Deadline);
        assert_eq!(t.site, "loop");
    }

    #[test]
    fn pattern_and_interpretation_caps_trip() {
        let gov = Governor::new(&Budget::unlimited().with_max_patterns(2));
        gov.charge_patterns("p", 2).unwrap();
        assert_eq!(gov.charge_patterns("p", 1).unwrap_err().kind, BudgetKind::Patterns);

        let gov = Governor::new(&Budget::unlimited().with_max_interpretations(1));
        gov.charge_interpretations("i", 1).unwrap();
        assert_eq!(
            gov.charge_interpretations("i", 1).unwrap_err().kind,
            BudgetKind::Interpretations
        );
    }

    /// The interpretation cap is a soft trip: the charger's loop breaks,
    /// but other dimensions keep working so completed interpretations
    /// can still execute. Hard trips (rows) cancel everything.
    #[test]
    fn interpretation_trip_is_soft_row_trip_is_hard() {
        let gov = Governor::new(&Budget::unlimited().with_max_interpretations(1).with_max_rows(10));
        gov.charge_interpretations("engine.translate", 1).unwrap();
        gov.charge_interpretations("engine.translate", 1).unwrap_err();
        assert!(gov.is_tripped());
        // Downstream execution still passes checkpoints and row charges.
        gov.check_deadline("engine.answer").unwrap();
        gov.charge_rows("ops.Scan", 5).unwrap();
        // A hard trip then cancels everything, but the first (soft) trip
        // remains the reported cause.
        gov.charge_rows("ops.HashJoin.build", 100).unwrap_err();
        gov.check_deadline("engine.answer").unwrap_err();
        assert_eq!(gov.trip().map(|t| t.kind), Some(BudgetKind::Interpretations));
    }

    #[test]
    fn ambient_install_routes_free_functions() {
        assert!(current().is_none());
        assert_eq!(charge_rows("x", u64::MAX), Ok(()));
        let gov = Governor::new(&Budget::unlimited().with_max_rows(5));
        {
            let _g = install(&gov);
            assert!(current().is_some());
            charge_rows("x", 5).unwrap();
            assert_eq!(charge_rows("x", 1).unwrap_err().kind, BudgetKind::Rows);
        }
        assert!(current().is_none());
        // Uninstalled again: free functions are no-ops even though the
        // governor itself is tripped.
        assert_eq!(charge_rows("x", 1), Ok(()));
        assert!(gov.is_tripped());
    }

    #[test]
    fn nested_installs_shadow_innermost() {
        let outer = Governor::new(&Budget::unlimited().with_max_rows(1));
        let inner = Governor::new(&Budget::unlimited());
        let _o = install(&outer);
        {
            let _i = install(&inner);
            charge_rows("x", 100).unwrap(); // inner is unlimited
        }
        assert_eq!(charge_rows("x", 100).unwrap_err().kind, BudgetKind::Rows);
    }

    #[test]
    fn shared_across_threads() {
        let gov = Governor::new(&Budget::unlimited().with_max_rows(1000));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let g = gov.clone();
                std::thread::spawn(move || {
                    let mut trips = 0;
                    for _ in 0..1000 {
                        if g.charge_rows("t", 1).is_err() {
                            trips += 1;
                        }
                    }
                    trips
                })
            })
            .collect();
        let trips: i32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(trips > 0);
        assert_eq!(gov.trip().map(|t| t.kind), Some(BudgetKind::Rows));
    }

    #[test]
    fn exhaustion_report_renders() {
        let t = Tripped { kind: BudgetKind::Rows, site: "ops.HashJoin.build" };
        assert_eq!(t.to_string(), "row budget exhausted at `ops.HashJoin.build`");
        let e = t.exhaust(true);
        assert!(e.partial);
        assert_eq!(
            e.to_string(),
            "row budget exhausted at `ops.HashJoin.build` (partial results returned)"
        );
        assert!(Tripped { kind: BudgetKind::Deadline, site: "s" }
            .exhaust(false)
            .to_string()
            .contains("no results completed"));
    }

    #[test]
    fn budget_builder_and_unlimited_flag() {
        assert!(Budget::unlimited().is_unlimited());
        let b = Budget::unlimited()
            .with_timeout(Duration::from_millis(5))
            .with_max_rows(1)
            .with_max_patterns(2)
            .with_max_interpretations(3);
        assert!(!b.is_unlimited());
        assert_eq!(b.max_rows, Some(1));
        assert_eq!(b.max_patterns, Some(2));
        assert_eq!(b.max_interpretations, Some(3));
    }
}
