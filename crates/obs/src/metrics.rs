//! Always-on cumulative metrics: named counters, gauges, and
//! log-linear-bucket histograms behind a lock-free recording path.
//!
//! The span [`crate::Recorder`] answers "what did *this* call do";
//! this module answers "what has the engine done *so far*" — latency
//! and row-count distributions, per-site trip counts, per-operator
//! byte accounting — without a bench harness rerun.
//!
//! Design constraints, matching the recorder's:
//!
//! 1. **Recording is a few atomic ops.** Every metric handle caches a
//!    reference to its registered cell; a counter bump is one enabled
//!    check plus one `fetch_add`, a histogram observation is five
//!    relaxed atomic RMWs (count, sum, min, max, bucket). No lock is
//!    on the hot path — the registry [`Mutex`] is taken only when a
//!    metric (or a new label of a labeled metric) is seen for the
//!    first time.
//! 2. **Disabled means free.** With the registry disabled the hot path
//!    is a relaxed load and an early return: zero allocations, pinned
//!    by the `metrics_overhead` integration test with a counting
//!    allocator (the same harness that pins the recorder).
//! 3. **Fixed bucket layout.** Every histogram shares one log-linear
//!    layout ([`BUCKETS`] buckets, 4 sub-buckets per power of two), so
//!    merging two histograms is [`BUCKETS`] atomic adds — no
//!    allocation, no bucket-boundary negotiation.
//!
//! The process-wide registry lives behind [`global`] and starts
//! **enabled** — the pipeline is instrumented unconditionally and the
//! overhead budget is part of the contract: the benchmark's traced
//! `exec-large` run over paper-scale TPC-H′ reports it as
//! `obs.overhead_pct`, and CI fails above 5%.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets. The layout is log-linear: values 0–3
/// get their own bucket, then every power of two is split into 4
/// sub-buckets, up to `u64::MAX` (index 251).
pub const BUCKETS: usize = 252;

/// Bucket index of a recorded value (total order, exhaustive over
/// `u64`). Values below 4 map to themselves; above, the index is
/// determined by the position of the most significant bit and the two
/// bits below it.
pub fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as u64;
    let shift = msb - 2;
    ((shift + 1) * 4 + ((v >> shift) & 3)) as usize
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    if i < 4 {
        return i as u64;
    }
    let shift = i / 4 - 1;
    ((4 + (i % 4)) as u64) << shift
}

/// Inclusive upper bound of bucket `i`.
pub fn bucket_upper(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        return u64::MAX;
    }
    bucket_lower(i + 1) - 1
}

/// What a metric's `u64` values mean — drives exposition naming and
/// scaling (`*_ns` histograms are exported in seconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Dimensionless counts (rows, queries, trips).
    Count,
    /// Wall-clock nanoseconds.
    Nanos,
    /// Bytes.
    Bytes,
}

/// A monotonically increasing counter cell.
#[derive(Debug, Default)]
pub struct CounterCell {
    value: AtomicU64,
}

impl CounterCell {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn merge_from(&self, other: &CounterCell) {
        self.value.fetch_add(other.get(), Ordering::Relaxed);
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A gauge cell: a settable signed value (ring occupancy, pool sizes).
#[derive(Debug, Default)]
pub struct GaugeCell {
    value: AtomicI64,
}

impl GaugeCell {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A histogram cell with the fixed log-linear bucket layout plus
/// count/sum/min/max. All operations are relaxed atomics; snapshots
/// taken under concurrent recording are approximate (fields may be a
/// few observations apart), which is fine for telemetry.
pub struct HistogramCell {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl HistogramCell {
    fn new() -> HistogramCell {
        HistogramCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one observation: five relaxed atomic RMWs.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Merges `other` into `self` without allocating — possible because
    /// every histogram shares the same fixed bucket layout.
    pub fn merge_from(&self, other: &HistogramCell) {
        if other.count.load(Ordering::Relaxed) == 0 {
            return;
        }
        self.count.fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min.fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max.fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Immutable snapshot (sparse: only non-empty buckets).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i, n));
            }
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for HistogramCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(f, "HistogramCell(count={}, sum={}, min={}, max={})", s.count, s.sum, s.min, s.max)
    }
}

/// Point-in-time view of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Non-empty buckets as `(bucket index, count)`, ascending index.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Nearest-rank quantile estimate, clamped to the observed
    /// `[min, max]` range. The estimate lands in the same bucket as the
    /// true quantile, so the error is below one bucket width (a quarter
    /// of the value, by the log-linear layout). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Arithmetic mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Clone)]
enum Cell {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<HistogramCell>, Unit),
}

#[derive(Debug, Clone)]
struct Entry {
    name: &'static str,
    label: Option<(&'static str, &'static str)>,
    cell: Cell,
}

/// A named registry of counters, gauges, and histograms.
///
/// Registration (first use of a name, or of a new label value) takes a
/// mutex; recording through the returned [`Arc`] cells never does.
/// Independent registries can be built for tests or scoped collection
/// and merged with [`Registry::merge_from`].
#[derive(Debug)]
pub struct Registry {
    enabled: AtomicBool,
    inner: Mutex<Vec<Entry>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// Recovers the entry list from a poisoned lock — cells are atomic, so
/// the list is structurally sound even if a panic interrupted a
/// registration.
fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl Registry {
    /// Builds an empty, **enabled** registry.
    pub fn new() -> Registry {
        Registry { enabled: AtomicBool::new(true), inner: Mutex::new(Vec::new()) }
    }

    /// Whether recording is on (one relaxed load).
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Handles check this before touching
    /// their cells; existing cell values are kept.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn register(
        &self,
        name: &'static str,
        label: Option<(&'static str, &'static str)>,
        make: impl FnOnce() -> Cell,
    ) -> Cell {
        let mut inner = relock(&self.inner);
        if let Some(e) = inner.iter().find(|e| e.name == name && e.label == label) {
            return e.cell.clone();
        }
        let cell = make();
        inner.push(Entry { name, label, cell: cell.clone() });
        cell
    }

    /// Registers (or finds) the counter `name`.
    pub fn counter(&self, name: &'static str) -> Arc<CounterCell> {
        match self.register(name, None, || Cell::Counter(Arc::new(CounterCell::default()))) {
            Cell::Counter(c) => c,
            other => panic!("metric `{name}` already registered as {other:?}"),
        }
    }

    /// Registers (or finds) the counter `name{key="label"}`.
    pub fn labeled_counter(
        &self,
        name: &'static str,
        key: &'static str,
        label: &'static str,
    ) -> Arc<CounterCell> {
        match self
            .register(name, Some((key, label)), || Cell::Counter(Arc::new(CounterCell::default())))
        {
            Cell::Counter(c) => c,
            other => panic!("metric `{name}` already registered as {other:?}"),
        }
    }

    /// Registers (or finds) the gauge `name`.
    pub fn gauge(&self, name: &'static str) -> Arc<GaugeCell> {
        match self.register(name, None, || Cell::Gauge(Arc::new(GaugeCell::default()))) {
            Cell::Gauge(c) => c,
            other => panic!("metric `{name}` already registered as {other:?}"),
        }
    }

    /// Registers (or finds) the histogram `name` with value unit `unit`.
    pub fn histogram(&self, name: &'static str, unit: Unit) -> Arc<HistogramCell> {
        match self.register(name, None, || Cell::Histogram(Arc::new(HistogramCell::new()), unit)) {
            Cell::Histogram(c, _) => c,
            other => panic!("metric `{name}` already registered as {other:?}"),
        }
    }

    /// Registers (or finds) the histogram `name{key="label"}`.
    pub fn labeled_histogram(
        &self,
        name: &'static str,
        key: &'static str,
        label: &'static str,
        unit: Unit,
    ) -> Arc<HistogramCell> {
        match self.register(name, Some((key, label)), || {
            Cell::Histogram(Arc::new(HistogramCell::new()), unit)
        }) {
            Cell::Histogram(c, _) => c,
            other => panic!("metric `{name}` already registered as {other:?}"),
        }
    }

    /// Snapshots every metric, sorted by name then label value — the
    /// stable order the Prometheus exposition relies on.
    pub fn snapshot(&self) -> Snapshot {
        let entries: Vec<Entry> = relock(&self.inner).clone();
        let mut metrics: Vec<Metric> = entries
            .into_iter()
            .map(|e| {
                let (unit, value) = match &e.cell {
                    Cell::Counter(c) => (Unit::Count, MetricValue::Counter(c.get())),
                    Cell::Gauge(g) => (Unit::Count, MetricValue::Gauge(g.get())),
                    Cell::Histogram(h, u) => (*u, MetricValue::Histogram(h.snapshot())),
                };
                Metric { name: e.name, label: e.label, unit, value }
            })
            .collect();
        metrics.sort_by(|a, b| (a.name, a.label.map(|l| l.1)).cmp(&(b.name, b.label.map(|l| l.1))));
        Snapshot { metrics }
    }

    /// Merges every metric of `other` into `self`: counters and gauges
    /// add, histograms merge bucket-wise (allocation-free per cell;
    /// metrics `self` has never seen are registered first). Disjoint
    /// registries therefore merge into their union.
    pub fn merge_from(&self, other: &Registry) {
        let entries: Vec<Entry> = relock(&other.inner).clone();
        for e in entries {
            match e.cell {
                Cell::Counter(theirs) => {
                    let mine = match e.label {
                        Some((k, v)) => self.labeled_counter(e.name, k, v),
                        None => self.counter(e.name),
                    };
                    mine.merge_from(&theirs);
                }
                Cell::Gauge(theirs) => self.gauge(e.name).add(theirs.get()),
                Cell::Histogram(theirs, unit) => {
                    let mine = match e.label {
                        Some((k, v)) => self.labeled_histogram(e.name, k, v, unit),
                        None => self.histogram(e.name, unit),
                    };
                    mine.merge_from(&theirs);
                }
            }
        }
    }

    /// Zeroes every registered cell (names and labels stay registered).
    pub fn reset(&self) {
        for e in relock(&self.inner).iter() {
            match &e.cell {
                Cell::Counter(c) => c.reset(),
                Cell::Gauge(g) => g.reset(),
                Cell::Histogram(h, _) => h.reset(),
            }
        }
    }
}

/// Point-in-time view of a whole registry, sorted by name then label.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The metrics, in exposition order.
    pub metrics: Vec<Metric>,
}

impl Snapshot {
    /// Finds a metric by name and (optional) label value.
    pub fn find(&self, name: &str, label: Option<&str>) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name && m.label.map(|l| l.1) == label)
    }

    /// Sum over all labels of the counter `name` (0 if absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|m| m.name == name)
            .map(|m| match &m.value {
                MetricValue::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }
}

/// One metric in a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct Metric {
    /// Registered name.
    pub name: &'static str,
    /// Optional `(key, value)` label.
    pub label: Option<(&'static str, &'static str)>,
    /// Value unit (always [`Unit::Count`] for counters and gauges).
    pub unit: Unit,
    /// The value.
    pub value: MetricValue,
}

/// A snapshotted metric value.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry every static metric handle records into.
/// Starts enabled.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Whether the global registry is recording.
pub fn enabled() -> bool {
    global().is_enabled()
}

/// Enables or disables the global registry.
pub fn set_enabled(on: bool) {
    global().set_enabled(on)
}

/// A `static`-friendly counter handle bound to the global registry.
/// The cell reference is resolved (and the name registered) on first
/// enabled use; after that, [`Counter::add`] is two atomic loads and a
/// `fetch_add`.
pub struct Counter {
    name: &'static str,
    cell: OnceLock<Arc<CounterCell>>,
}

impl Counter {
    /// Declares a counter handle (usable in `static` position).
    pub const fn new(name: &'static str) -> Counter {
        Counter { name, cell: OnceLock::new() }
    }

    /// Adds `n` when the global registry is enabled.
    pub fn add(&self, n: u64) {
        if !enabled() {
            return;
        }
        self.cell.get_or_init(|| global().counter(self.name)).add(n);
    }

    /// Current value (registers the name if never recorded).
    pub fn get(&self) -> u64 {
        self.cell.get_or_init(|| global().counter(self.name)).get()
    }
}

/// A `static`-friendly gauge handle bound to the global registry.
pub struct Gauge {
    name: &'static str,
    cell: OnceLock<Arc<GaugeCell>>,
}

impl Gauge {
    /// Declares a gauge handle (usable in `static` position).
    pub const fn new(name: &'static str) -> Gauge {
        Gauge { name, cell: OnceLock::new() }
    }

    /// Sets the gauge when the global registry is enabled.
    pub fn set(&self, v: i64) {
        if !enabled() {
            return;
        }
        self.cell.get_or_init(|| global().gauge(self.name)).set(v);
    }

    /// Adds `d` when the global registry is enabled.
    pub fn add(&self, d: i64) {
        if !enabled() {
            return;
        }
        self.cell.get_or_init(|| global().gauge(self.name)).add(d);
    }

    /// Current value (registers the name if never recorded).
    pub fn get(&self) -> i64 {
        self.cell.get_or_init(|| global().gauge(self.name)).get()
    }
}

/// A `static`-friendly histogram handle bound to the global registry.
pub struct Histogram {
    name: &'static str,
    unit: Unit,
    cell: OnceLock<Arc<HistogramCell>>,
}

impl Histogram {
    /// Declares a histogram handle (usable in `static` position).
    pub const fn new(name: &'static str, unit: Unit) -> Histogram {
        Histogram { name, unit, cell: OnceLock::new() }
    }

    /// Records `v` when the global registry is enabled.
    pub fn observe(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.cell.get_or_init(|| global().histogram(self.name, self.unit)).record(v);
    }
}

/// One published node of a labeled handle's lock-free label chain.
/// Nodes are pushed once and never unlinked before the handle drops,
/// so a `&Node` obtained while the handle is alive stays valid.
struct Node<C> {
    label: &'static str,
    cell: Arc<C>,
    next: *mut Node<C>,
}

/// A lock-free, append-only `label -> cell` map: an atomic singly
/// linked list of heap nodes. Reads walk the chain without locking;
/// inserts CAS-push a new head. Two threads racing to insert the same
/// label may push two nodes, but the registry hands both the same
/// cell, so recording stays correct.
struct Chain<C> {
    head: AtomicPtr<Node<C>>,
}

// SAFETY: nodes are immutable after publication and only freed by
// `Drop` (which has `&mut self`); the cells inside are `Send + Sync`.
unsafe impl<C: Send + Sync> Send for Chain<C> {}
unsafe impl<C: Send + Sync> Sync for Chain<C> {}

impl<C> Chain<C> {
    const fn new() -> Chain<C> {
        Chain { head: AtomicPtr::new(std::ptr::null_mut()) }
    }

    fn find(&self, label: &str) -> Option<&C> {
        let mut p = self.head.load(Ordering::Acquire);
        while !p.is_null() {
            // SAFETY: `p` came from `Box::into_raw` in `push` and is
            // not freed while `&self` is borrowed.
            let node = unsafe { &*p };
            if node.label == label {
                return Some(&node.cell);
            }
            p = node.next;
        }
        None
    }

    fn push(&self, label: &'static str, cell: Arc<C>) -> &C {
        let node = Box::into_raw(Box::new(Node { label, cell, next: std::ptr::null_mut() }));
        loop {
            let head = self.head.load(Ordering::Acquire);
            // SAFETY: `node` is unpublished — this thread owns it.
            unsafe { (*node).next = head };
            if self.head.compare_exchange(head, node, Ordering::Release, Ordering::Acquire).is_ok()
            {
                // SAFETY: now published; nodes live until `Drop`.
                return unsafe { &(*node).cell };
            }
        }
    }
}

impl<C> Drop for Chain<C> {
    fn drop(&mut self) {
        let mut p = *self.head.get_mut();
        while !p.is_null() {
            // SAFETY: exclusive access; each node was a `Box`.
            let node = unsafe { Box::from_raw(p) };
            p = node.next;
        }
    }
}

/// A `static`-friendly counter family keyed by one `&'static str`
/// label (operator names, guard sites, pipeline phases). Lookup of a
/// known label is a lock-free list walk over the handful of labels the
/// family has seen.
pub struct LabeledCounter {
    name: &'static str,
    key: &'static str,
    chain: Chain<CounterCell>,
}

impl LabeledCounter {
    /// Declares a labeled counter handle (usable in `static` position).
    pub const fn new(name: &'static str, key: &'static str) -> LabeledCounter {
        LabeledCounter { name, key, chain: Chain::new() }
    }

    /// Adds `n` to the `label` series when the global registry is
    /// enabled.
    pub fn add(&self, label: &'static str, n: u64) {
        if !enabled() {
            return;
        }
        match self.chain.find(label) {
            Some(cell) => cell.add(n),
            None => {
                self.chain.push(label, global().labeled_counter(self.name, self.key, label)).add(n)
            }
        }
    }
}

/// A `static`-friendly histogram family keyed by one `&'static str`
/// label. Same chain mechanics as [`LabeledCounter`].
pub struct LabeledHistogram {
    name: &'static str,
    key: &'static str,
    unit: Unit,
    chain: Chain<HistogramCell>,
}

impl LabeledHistogram {
    /// Declares a labeled histogram handle (usable in `static` position).
    pub const fn new(name: &'static str, key: &'static str, unit: Unit) -> LabeledHistogram {
        LabeledHistogram { name, key, unit, chain: Chain::new() }
    }

    /// Records `v` in the `label` series when the global registry is
    /// enabled.
    pub fn observe(&self, label: &'static str, v: u64) {
        if !enabled() {
            return;
        }
        match self.chain.find(label) {
            Some(cell) => cell.record(v),
            None => self
                .chain
                .push(label, global().labeled_histogram(self.name, self.key, label, self.unit))
                .record(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_total_and_monotone() {
        // Every bucket's bounds tile u64 without gaps or overlaps.
        assert_eq!(bucket_lower(0), 0);
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_upper(i) + 1, bucket_lower(i + 1), "gap after bucket {i}");
        }
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
        // Round-trip: every bound indexes back to its own bucket.
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_lower(i)), i);
            assert_eq!(bucket_index(bucket_upper(i)), i);
        }
    }

    #[test]
    fn bucket_width_is_below_a_quarter_of_the_value() {
        for i in 8..BUCKETS {
            let lo = bucket_lower(i);
            let width = bucket_upper(i) - lo + 1;
            assert!(width * 4 <= lo, "bucket {i}: width {width} vs lower {lo}");
        }
    }

    #[test]
    fn histogram_with_zero_observations() {
        let h = HistogramCell::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.sum, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert!(s.buckets.is_empty());
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn histogram_with_a_single_observation() {
        let h = HistogramCell::new();
        h.record(1234);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 1234);
        assert_eq!(s.min, 1234);
        assert_eq!(s.max, 1234);
        assert_eq!(s.buckets.len(), 1);
        // With one observation every quantile is that observation —
        // the min/max clamp makes the estimate exact.
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(s.quantile(q), 1234);
        }
    }

    #[test]
    fn histogram_accepts_u64_max() {
        let h = HistogramCell::new();
        h.record(u64::MAX);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.quantile(1.0), u64::MAX);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn merge_of_disjoint_registries_is_their_union() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("only_in_a").add(3);
        a.histogram("shared_hist", Unit::Nanos).record(10);
        b.counter("only_in_b").add(7);
        b.histogram("shared_hist", Unit::Nanos).record(30);
        b.labeled_counter("labeled", "site", "x").add(2);
        a.merge_from(&b);
        let s = a.snapshot();
        assert_eq!(s.counter_total("only_in_a"), 3);
        assert_eq!(s.counter_total("only_in_b"), 7);
        assert_eq!(s.counter_total("labeled"), 2);
        match &s.find("shared_hist", None).expect("merged histogram").value {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 2);
                assert_eq!(h.sum, 40);
                assert_eq!(h.min, 10);
                assert_eq!(h.max, 30);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn quantile_error_is_below_one_bucket_width_on_10k_samples() {
        // Fixed-seed LCG sample spanning ~6 decades.
        let mut x = 0x2545f4914f6cdd1du64;
        let mut sample: Vec<u64> = Vec::with_capacity(10_000);
        let h = HistogramCell::new();
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = (x >> 33) % 1_000_000_007;
            sample.push(v);
            h.record(v);
        }
        sample.sort_unstable();
        let s = h.snapshot();
        assert_eq!(s.count, 10_000);
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99] {
            let rank = ((q * sample.len() as f64).ceil() as usize).clamp(1, sample.len());
            let truth = sample[rank - 1];
            let est = s.quantile(q);
            let i = bucket_index(truth);
            let width = bucket_upper(i) - bucket_lower(i) + 1;
            let err = est.abs_diff(truth);
            assert!(err < width, "q={q}: est {est} vs true {truth}, err {err} >= width {width}");
        }
    }

    #[test]
    fn counters_gauges_and_reset() {
        let r = Registry::new();
        let c = r.counter("c");
        c.add(5);
        c.add(2);
        assert_eq!(c.get(), 7);
        let g = r.gauge("g");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn disabled_registry_keeps_values_and_reenables() {
        // The enabled flag gates the *handles*; direct cell access (as
        // used here) always records — callers check `is_enabled`.
        let r = Registry::new();
        assert!(r.is_enabled());
        r.set_enabled(false);
        assert!(!r.is_enabled());
        r.set_enabled(true);
        assert!(r.is_enabled());
    }

    #[test]
    fn snapshot_orders_by_name_then_label() {
        let r = Registry::new();
        r.labeled_counter("b_metric", "op", "zeta").add(1);
        r.counter("a_metric").add(1);
        r.labeled_counter("b_metric", "op", "alpha").add(1);
        let names: Vec<(&str, Option<&str>)> =
            r.snapshot().metrics.iter().map(|m| (m.name, m.label.map(|l| l.1))).collect();
        assert_eq!(
            names,
            vec![("a_metric", None), ("b_metric", Some("alpha")), ("b_metric", Some("zeta"))]
        );
    }

    #[test]
    fn labeled_handles_share_cells_with_the_global_registry() {
        static C: LabeledCounter = LabeledCounter::new("aqks_test_chain_counter", "site");
        static H: LabeledHistogram =
            LabeledHistogram::new("aqks_test_chain_hist", "site", Unit::Bytes);
        let was = enabled();
        set_enabled(true);
        C.add("s1", 2);
        C.add("s2", 3);
        C.add("s1", 5);
        H.observe("s1", 100);
        let snap = global().snapshot();
        assert_eq!(
            snap.find("aqks_test_chain_counter", Some("s1")).map(|m| match m.value {
                MetricValue::Counter(v) => v,
                _ => 0,
            }),
            Some(7)
        );
        assert_eq!(snap.counter_total("aqks_test_chain_counter"), 10);
        match &snap.find("aqks_test_chain_hist", Some("s1")).expect("registered").value {
            MetricValue::Histogram(h) => assert_eq!(h.count, 1),
            other => panic!("expected histogram, got {other:?}"),
        }
        set_enabled(was);
    }

    #[test]
    fn chain_is_race_free_under_concurrent_inserts() {
        let counter = LabeledCounter::new("race", "t");
        let labels: [&'static str; 4] = ["a", "b", "c", "d"];
        set_enabled(true);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        for l in labels {
                            counter.add(l, 1);
                        }
                    }
                });
            }
        });
        let snap = global().snapshot();
        for l in labels {
            assert_eq!(
                snap.find("race", Some(l)).map(|m| match m.value {
                    MetricValue::Counter(v) => v,
                    _ => 0,
                }),
                Some(8000),
                "label {l}"
            );
        }
    }
}
