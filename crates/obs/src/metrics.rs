//! Always-on cumulative metrics: named counters, gauges, and
//! log-linear-bucket histograms.
//!
//! The span [`crate::Recorder`] answers "what did *this* call do";
//! this module answers "what has the engine done *so far*" — latency
//! and row-count distributions, per-site trip counts, per-operator
//! byte accounting — without a bench harness rerun. The per-query
//! families are not written by the layers that do the work: they
//! write spans and span counters, and the engine folds each metered
//! query's span tree into this registry once, summing every series
//! locally first. The registry is a view of the trace, not a second
//! record of it.
//!
//! Design constraints, matching the recorder's:
//!
//! 1. **Recording is cheap.** A `static` handle ([`Counter`],
//!    [`Gauge`], [`Histogram`]) caches its registered cell; a counter
//!    bump is one enabled check plus one `fetch_add`, a histogram
//!    observation five relaxed atomic RMWs (count, sum, min, max,
//!    bucket). A labeled series ([`Registry::add`],
//!    [`Registry::observe`]) is found by a hash lookup on borrowed
//!    strings under the registry's [`RwLock`] read lock, so concurrent
//!    queries do not block each other and nothing is allocated once the
//!    series exists. Label values are owned strings, so a label can be
//!    any operator, site or phase name a span carries.
//! 2. **Disabled means free.** With the registry disabled every call
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

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

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
}

#[derive(Debug, Clone)]
enum Cell {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<HistogramCell>, Unit),
}

/// Series of one name under one label key (`None`: unlabeled), by
/// label value (`""` when unlabeled). Label values are owned, so any
/// string a span carries can label a series.
type Families = HashMap<(&'static str, Option<&'static str>), HashMap<String, Cell>>;

/// A named registry of counters, gauges, and histograms.
///
/// Finding a series takes a read lock and two hash lookups keyed by
/// borrowed strings, so it allocates nothing and blocks no other reader
/// once the series exists; only registering a new series takes the
/// write lock. Recording through a returned [`Arc`] cell takes no lock
/// at all.
/// Independent registries can be built for tests or scoped collection.
#[derive(Debug)]
pub struct Registry {
    enabled: AtomicBool,
    inner: RwLock<Families>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// Builds an empty, **enabled** registry.
    pub fn new() -> Registry {
        Registry { enabled: AtomicBool::new(true), inner: RwLock::new(HashMap::new()) }
    }

    /// Whether recording is on (one relaxed load).
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Handles, [`Registry::add`] and
    /// [`Registry::observe`] check this before touching their cells;
    /// existing cell values are kept.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The series map, read-locked. Cells are atomic, so the map is
    /// sound even if a panic interrupted a registration: a poisoned lock
    /// is recovered.
    fn read(&self) -> std::sync::RwLockReadGuard<'_, Families> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cell of series `name{label}`, registered with `make` first if
    /// it is new.
    fn register(
        &self,
        name: &'static str,
        label: Option<(&'static str, &str)>,
        make: impl FnOnce() -> Cell,
    ) -> Cell {
        let family = (name, label.map(|l| l.0));
        let value = label.map_or("", |l| l.1);
        if let Some(cell) = self.read().get(&family).and_then(|series| series.get(value)) {
            return cell.clone();
        }
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        inner.entry(family).or_default().entry(value.to_string()).or_insert_with(make).clone()
    }

    fn counter_cell(
        &self,
        name: &'static str,
        label: Option<(&'static str, &str)>,
    ) -> Arc<CounterCell> {
        match self.register(name, label, || Cell::Counter(Arc::new(CounterCell::default()))) {
            Cell::Counter(c) => c,
            other => panic!("metric `{name}` already registered as {other:?}"),
        }
    }

    fn histogram_cell(
        &self,
        name: &'static str,
        label: Option<(&'static str, &str)>,
        unit: Unit,
    ) -> Arc<HistogramCell> {
        match self.register(name, label, || Cell::Histogram(Arc::new(HistogramCell::new()), unit)) {
            Cell::Histogram(h, _) => h,
            other => panic!("metric `{name}` already registered as {other:?}"),
        }
    }

    /// Registers (or finds) the counter `name`.
    pub fn counter(&self, name: &'static str) -> Arc<CounterCell> {
        self.counter_cell(name, None)
    }

    /// Registers (or finds) the counter `name{key="label"}`.
    pub fn labeled_counter(
        &self,
        name: &'static str,
        key: &'static str,
        label: &str,
    ) -> Arc<CounterCell> {
        self.counter_cell(name, Some((key, label)))
    }

    /// Registers (or finds) the gauge `name`.
    pub fn gauge(&self, name: &'static str) -> Arc<GaugeCell> {
        match self.register(name, None, || Cell::Gauge(Arc::new(GaugeCell::default()))) {
            Cell::Gauge(g) => g,
            other => panic!("metric `{name}` already registered as {other:?}"),
        }
    }

    /// Registers (or finds) the histogram `name` with value unit `unit`.
    pub fn histogram(&self, name: &'static str, unit: Unit) -> Arc<HistogramCell> {
        self.histogram_cell(name, None, unit)
    }

    /// Registers (or finds) the histogram `name{key="label"}`.
    pub fn labeled_histogram(
        &self,
        name: &'static str,
        key: &'static str,
        label: &str,
        unit: Unit,
    ) -> Arc<HistogramCell> {
        self.histogram_cell(name, Some((key, label)), unit)
    }

    /// Adds `n` to the counter `name`, or `name{key="value"}` for
    /// `label: Some((key, value))`, when the registry is enabled.
    pub fn add(&self, name: &'static str, label: Option<(&'static str, &str)>, n: u64) {
        if self.is_enabled() {
            self.counter_cell(name, label).add(n);
        }
    }

    /// Records each of `values` in the histogram `name` (or
    /// `name{key="value"}`) with value unit `unit`, when the registry is
    /// enabled: one series lookup for the whole batch.
    pub fn observe(
        &self,
        name: &'static str,
        label: Option<(&'static str, &str)>,
        unit: Unit,
        values: &[u64],
    ) {
        if self.is_enabled() {
            let h = self.histogram_cell(name, label, unit);
            values.iter().for_each(|&v| h.record(v));
        }
    }

    /// Snapshots every metric, sorted by name then label value — the
    /// stable order the Prometheus exposition relies on.
    pub fn snapshot(&self) -> Snapshot {
        let mut metrics: Vec<Metric> = Vec::new();
        for ((name, key), series) in self.read().iter() {
            for (value, cell) in series {
                let (unit, v) = match cell {
                    Cell::Counter(c) => (Unit::Count, MetricValue::Counter(c.get())),
                    Cell::Gauge(g) => (Unit::Count, MetricValue::Gauge(g.get())),
                    Cell::Histogram(h, u) => (*u, MetricValue::Histogram(h.snapshot())),
                };
                let label = key.map(|k| (k, value.clone()));
                metrics.push(Metric { name, label, unit, value: v });
            }
        }
        metrics.sort_by(|a, b| {
            (a.name, a.label.as_ref().map(|l| &l.1)).cmp(&(b.name, b.label.as_ref().map(|l| &l.1)))
        });
        Snapshot { metrics }
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
        self.metrics
            .iter()
            .find(|m| m.name == name && m.label.as_ref().map(|l| l.1.as_str()) == label)
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
    pub label: Option<(&'static str, String)>,
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
    fn counters_and_gauges_find_their_cells() {
        let r = Registry::new();
        let c = r.counter("c");
        c.add(5);
        c.add(2);
        assert_eq!(c.get(), 7);
        let g = r.gauge("g");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        // A second registration finds the same cell.
        assert_eq!(r.counter("c").get(), 7);
        assert_eq!(r.gauge("g").get(), 7);
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
        let snap = r.snapshot();
        let names: Vec<(&str, Option<&str>)> =
            snap.metrics.iter().map(|m| (m.name, m.label.as_ref().map(|l| l.1.as_str()))).collect();
        assert_eq!(
            names,
            vec![("a_metric", None), ("b_metric", Some("alpha")), ("b_metric", Some("zeta"))]
        );
    }

    #[test]
    fn add_and_observe_find_the_series_their_label_names() {
        let r = Registry::new();
        r.add("trips", Some(("site", "s1")), 2);
        r.add("trips", Some(("site", &String::from("s2"))), 3);
        r.add("trips", Some(("site", "s1")), 5);
        r.observe("peak", Some(("op", "Scan")), Unit::Bytes, &[100]);
        let snap = r.snapshot();
        let s1 = snap.find("trips", Some("s1")).map(|m| match m.value {
            MetricValue::Counter(v) => v,
            _ => 0,
        });
        assert_eq!(s1, Some(7));
        assert_eq!(snap.counter_total("trips"), 10);
        assert_eq!(r.labeled_counter("trips", "site", "s2").get(), 3);
        match &snap.find("peak", Some("Scan")).expect("registered").value {
            MetricValue::Histogram(h) => assert_eq!(h.count, 1),
            other => panic!("expected histogram, got {other:?}"),
        }
        // Disabled, the calls record nothing and register nothing.
        r.set_enabled(false);
        r.add("trips", Some(("site", "s1")), 1);
        r.add("untouched", None, 1);
        let snap = r.snapshot();
        assert_eq!(snap.counter_total("trips"), 10);
        assert!(snap.find("untouched", None).is_none());
    }

    #[test]
    fn concurrent_adds_to_new_series_are_exact() {
        let r = Registry::new();
        let labels = ["a", "b", "c", "d"];
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        for l in labels {
                            r.add("race", Some(("t", l)), 1);
                        }
                    }
                });
            }
        });
        let snap = r.snapshot();
        for l in labels {
            let v = snap.find("race", Some(l)).map(|m| match m.value {
                MetricValue::Counter(v) => v,
                _ => 0,
            });
            assert_eq!(v, Some(8000), "label {l}");
        }
    }
}
