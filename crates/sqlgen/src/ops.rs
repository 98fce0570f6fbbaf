//! Volcano-style execution of physical plans over columnar batches.
//!
//! Every operator implements the batch-`next` `Operator` protocol
//! (`open`/`next`/`close`) over [`ColumnBatch`]es; pipeline-friendly
//! operators (scan with pushdown, filter, project, distinct, limit)
//! stream batches, while pipeline breakers (hash-join build,
//! aggregation, sort) drain their input inside `open`. Each operator is
//! wrapped in a `Metered` shim that records rows in/out, batch counts
//! and inclusive wall time into the plan-indexed [`ExecStats`], so
//! `aqks explain --analyze` and the bench harness can attribute cost
//! operator by operator.
//!
//! A scan builds only the columns its consumer reads: under a `Project`
//! it copies just the projected columns out of the base rows, and the
//! projection passes its batches on.
//!
//! A predicate-free `Distinct(Project(Scan R))` — a relation of the
//! normalized view D′ — depends only on the data, so the [`Database`]
//! memoizes it under `(R, projected columns)`: the first run that drains
//! it to end-of-stream and succeeds stores the batches `Distinct`
//! emitted, and later runs replay them through `CachedRows`, reporting
//! the per-operator rows and batches recorded when it was computed
//! (`explain --analyze` notes the subtree `[memo]`). A view relation
//! whose scan carries pushed predicates (Rule 2's `contains`) is the
//! same memo site when the predicates read only projected columns:
//! σ_p(δπ_X R) = δπ_X(σ_p R), so a hit replays the projection filtered
//! by p, and an ungoverned miss computes the predicate-free projection
//! and filters its stream when the memo has room for it (see
//! `memo_site`). The same capture/replay runs a subtree that several
//! plans of one request compute alike once per request ([`Shares`],
//! [`run_plan_sharing`]; the replayed root is noted `[shared]`).
//!
//! Distinct, the hash join and the aggregate key one kind of hash table,
//! `KeyTable`: `key_hash` hashes a row's key straight from the typed
//! columns with a fixed multiplicative hasher, consistent with
//! `Value::hash`, and `keys_eq` verifies every hash hit under `Value`
//! equality in place, so a collision costs time, not correctness.
//!
//! The heavy operators are morsel-driven (Leis et al., SIGMOD 2014):
//! each has one kernel over a 1024-row morsel or an input chunk —
//! `scan_morsel` filters, `build_join_table` radix-partitions and
//! indexes join keys, `probe_batch` probes, `accumulate_batch` folds
//! aggregate partials — and [`ExecOptions::threads`] only decides how
//! many workers run it. One worker runs the kernels inline on the
//! plan's thread, lazily where it can: the scan filters one morsel per
//! `next` (so `LIMIT` short-circuits it) and the join streams its probe
//! side. More workers run the same kernels on a scoped pool.
//! Results, and every operator's `rows_out` and `batches`, are
//! *identical* at every thread count: morsel/chunk results are
//! re-assembled in input order, per-key join match lists stay in global
//! build order, and group output keeps first-appearance order.
//!
//! SQL semantics are inherited unchanged from the original interpreter:
//! aggregates skip NULLs, `SUM`/`MIN`/`MAX`/`AVG` over an empty group
//! yield NULL while `COUNT` yields 0, `AVG` is always a float, a global
//! aggregate returns exactly one row, and NULL join keys never match.
//! When the statement has no ORDER BY, output rows are stably sorted by
//! value so results are reproducible across runs and across plans.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aqks_relational::{contains_ci, AttrType, Database, Row, Value};

use crate::ast::AggFunc;
use crate::batch::{Column, ColumnBatch, ColumnData};
use crate::exec::ExecError;
use crate::par::{self, ExecOptions};
use crate::plan::{PhysAggItem, PhysPred, PlanNode, PlanOp};
use crate::result::ResultTable;

/// Rows per morsel — the unit of kernel work — and per output window of
/// the operators that emit buffered rows (aggregate, sort, cross join).
const MORSEL_SIZE: usize = 1024;

/// Rows between cooperative deadline re-checks inside a kernel (pool
/// workers have no ambient thread-local governor, so every kernel polls
/// a captured handle mid-morsel).
const CHECK_EVERY: usize = 512;

/// Live metrics of one operator (indexed by [`PlanNode::id`]).
#[derive(Debug, Clone, Default)]
pub struct OpMetrics {
    /// Rows received from all inputs.
    pub rows_in: u64,
    /// Rows emitted.
    pub rows_out: u64,
    /// Batches emitted.
    pub batches: u64,
    /// Inclusive wall time (this operator plus its inputs).
    pub wall: Duration,
    /// Worker threads used by this operator's parallel sections
    /// (1 = fully sequential).
    pub threads: u32,
    /// Inclusive wall time spent inside parallel sections.
    pub parallel_wall: Duration,
    /// Estimated peak resident bytes attributable to this operator: the
    /// larger of its retained columnar state (hash-join build side,
    /// sort/aggregate input buffers) and its largest emitted batch.
    /// Exact per [`ColumnBatch::byte_size`] column accounting.
    pub peak_bytes: u64,
    /// Operator-specific annotation (e.g. hash-join build/probe sizes).
    pub note: Option<String>,
}

impl OpMetrics {
    /// Fraction of this operator's inclusive wall time spent in
    /// parallel sections, in `0.0..=1.0`.
    pub fn parallel_fraction(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            (self.parallel_wall.as_secs_f64() / self.wall.as_secs_f64()).clamp(0.0, 1.0)
        }
    }
}

/// Per-operator metrics of one plan execution.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Metrics, indexed by [`PlanNode::id`].
    pub ops: Vec<OpMetrics>,
    /// End-to-end wall time of the plan run.
    pub wall: Duration,
}

impl ExecStats {
    /// Total rows emitted across all operators (a volume proxy: each row
    /// counted once per operator boundary it crosses).
    pub fn rows_flowed(&self) -> u64 {
        self.ops.iter().map(|m| m.rows_out).sum()
    }

    /// The widest worker-pool any operator used (1 = the whole plan ran
    /// sequentially).
    pub fn max_threads(&self) -> u32 {
        self.ops.iter().map(|m| m.threads.max(1)).max().unwrap_or(1)
    }

    /// How many operators actually executed a parallel section.
    pub fn parallel_ops(&self) -> usize {
        self.ops.iter().filter(|m| m.threads > 1).count()
    }
}

impl std::fmt::Display for ExecStats {
    /// One-line summary — the single place execution stats are
    /// formatted for humans (the CLIs print this instead of
    /// hand-assembling the same fields).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} operator(s), {} row(s) flowed, wall {}",
            self.ops.len(),
            self.rows_flowed(),
            crate::plan::fmt_dur(self.wall)
        )?;
        if self.max_threads() > 1 {
            write!(f, ", {} parallel op(s) x{}", self.parallel_ops(), self.max_threads())?;
        }
        Ok(())
    }
}

type StatsCell = Arc<Mutex<Vec<OpMetrics>>>;

/// The Volcano operator protocol: `open` prepares (pipeline breakers do
/// their work here), `next` yields owned column batches until `None`,
/// `close` releases state and finalizes metrics annotations.
trait Operator {
    /// Prepares the operator (and its inputs) for iteration.
    fn open(&mut self) -> Result<(), ExecError>;
    /// The next batch of rows, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError>;
    /// Releases state; called once after iteration.
    fn close(&mut self);
    /// Operator-specific metrics annotation, read at `close`.
    fn note(&self) -> Option<String> {
        None
    }
    /// `(threads, parallel wall)` when a parallel section ran, read at
    /// `close` like [`Operator::note`].
    fn parallel_info(&self) -> Option<(u32, Duration)> {
        None
    }
    /// Bytes of columnar state this operator retained (build sides,
    /// buffered inputs, materialized outputs), read just *before*
    /// `close` while the state is still live. Streaming operators
    /// return 0 and are accounted by their largest emitted batch.
    fn mem_bytes(&self) -> u64 {
        0
    }
}

/// Shim recording metrics around an operator.
struct Metered<'a> {
    id: usize,
    stats: StatsCell,
    inner: Box<dyn Operator + 'a>,
}

impl Metered<'_> {
    fn bump<R>(&self, f: impl FnOnce(&mut OpMetrics) -> R) -> R {
        f(&mut par::relock(&self.stats)[self.id])
    }
}

impl Operator for Metered<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        let t = Instant::now();
        let r = self.inner.open();
        self.bump(|m| m.wall += t.elapsed());
        r
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        let t = Instant::now();
        let r = self.inner.next();
        let elapsed = t.elapsed();
        self.bump(|m| {
            m.wall += elapsed;
            if let Ok(Some(batch)) = &r {
                m.rows_out += batch.len() as u64;
                m.batches += 1;
                m.peak_bytes = m.peak_bytes.max(batch.byte_size());
            }
        });
        r
    }

    fn close(&mut self) {
        let t = Instant::now();
        // Retained-state bytes must be read while the state is live —
        // `close` is where operators drop it.
        let mem = self.inner.mem_bytes();
        self.inner.close();
        let note = self.inner.note();
        let par_info = self.inner.parallel_info();
        self.bump(|m| {
            m.wall += t.elapsed();
            m.note = note;
            m.peak_bytes = m.peak_bytes.max(mem);
            if let Some((threads, pw)) = par_info {
                m.threads = threads;
                m.parallel_wall = pw;
            }
        });
    }
}

/// Shim enforcing the ambient `aqks-guard` budget around an operator,
/// mirroring [`Metered`]: a deadline checkpoint before every `next` call
/// and a row charge for every batch emitted. Only inserted by [`build`]
/// when a governor is installed, so ungoverned plans pay nothing. Row
/// charging always happens here on the plan's thread, never inside
/// worker pools, so budget accounting is byte-identical across thread
/// counts.
struct Guarded<'a> {
    /// Charge site, e.g. `"ops.HashJoin"` — names the operator whose
    /// output crossed the budget.
    site: &'static str,
    inner: Box<dyn Operator + 'a>,
}

impl Operator for Guarded<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        aqks_guard::checkpoint(self.site)?;
        self.inner.open()
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        aqks_guard::checkpoint(self.site)?;
        let r = self.inner.next()?;
        if let Some(batch) = &r {
            aqks_guard::charge_rows(self.site, batch.len() as u64)?;
        }
        Ok(r)
    }

    fn close(&mut self) {
        self.inner.close();
    }

    fn note(&self) -> Option<String> {
        self.inner.note()
    }

    fn parallel_info(&self) -> Option<(u32, Duration)> {
        self.inner.parallel_info()
    }

    fn mem_bytes(&self) -> u64 {
        self.inner.mem_bytes()
    }
}

/// Replays batches a subtree emitted once — materialized by a shared
/// subplan (see `aqks-equiv`), memoized on the database (see
/// [`MemoEntry`]) or captured by an earlier plan of the same request
/// (see [`Shares`]): the consumer site's whole subtree is replaced by
/// this operator, so the shared work executes exactly once. Because
/// batches share their columns behind `Arc`s, re-emitting them is a
/// handful of reference-count bumps per consumer — O(consumers), not
/// O(consumers x rows). The shim stack above (metering, budget
/// checkpoints at the `ops.Cached` site) is preserved, so replayed rows
/// are metered and charged like any other operator output.
struct CachedRows {
    batches: Arc<Vec<ColumnBatch>>,
    rows: u64,
    pos: usize,
    /// A replay of a recorded [`MemoEntry`].
    replay: Option<Replay>,
    /// A filtered memo site's pushed predicates over the replayed
    /// columns: only the rows that pass them are emitted.
    filter: Vec<PhysPred>,
}

/// How a [`MemoEntry`] replay reports the nodes below the replayed one.
struct Replay {
    entry: Arc<MemoEntry>,
    /// Plan ids of the replayed node, then the nodes below it in
    /// pre-order.
    ids: Vec<usize>,
    stats: StatsCell,
    /// A request share (noted `shared`), not a memo site (noted `memo`).
    shared: bool,
}

impl Replay {
    /// Writes back the `(rows_out, batches)` the nodes below had reached
    /// after recorded call `call` (0 is `open`).
    fn report(&self, call: usize) {
        let reached = &self.entry.below[call.min(self.entry.below.len() - 1)];
        let mut ops = par::relock(&self.stats);
        for (&id, &(rows, batches)) in self.ids[1..].iter().zip(reached) {
            (ops[id].rows_out, ops[id].batches) = (rows, batches);
        }
    }
}

impl CachedRows {
    fn new(batches: Arc<Vec<ColumnBatch>>) -> CachedRows {
        let rows = batches.iter().map(|b| b.len() as u64).sum();
        CachedRows { batches, rows, pos: 0, replay: None, filter: Vec::new() }
    }

    fn replaying(entry: Arc<MemoEntry>, node: &PlanNode, cx: &BuildCx<'_>, shared: bool) -> Self {
        let mut cached = CachedRows::new(Arc::clone(&entry.batches));
        let ids = subtree_ids(node);
        cached.replay = Some(Replay { entry, ids, stats: cx.stats.clone(), shared });
        cached
    }
}

impl Operator for CachedRows {
    fn open(&mut self) -> Result<(), ExecError> {
        self.pos = 0;
        if let Some(r) = &self.replay {
            r.report(0);
            let mut ops = par::relock(&r.stats);
            for (i, &id) in r.ids.iter().enumerate().skip(1) {
                // A share's nodes keep the notes they closed with when
                // the subtree ran; a memo site's are all `memo`.
                ops[id].note =
                    if r.shared { r.entry.notes[i].clone() } else { Some("memo".into()) };
            }
        }
        Ok(())
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        while self.pos < self.batches.len() {
            self.pos += 1;
            if let Some(r) = &self.replay {
                // The nodes below report what they had emitted when the
                // computed subtree returned the same call's result.
                r.report(self.pos);
            }
            if let Some(batch) = select(self.batches[self.pos - 1].clone(), &self.filter) {
                return Ok(Some(batch));
            }
        }
        if let Some(r) = &self.replay {
            r.report(self.batches.len() + 1);
        }
        Ok(None)
    }

    fn close(&mut self) {}

    fn note(&self) -> Option<String> {
        Some(match &self.replay {
            None => format!("cached rows={}", self.rows),
            Some(r) if r.shared => match &r.entry.notes[0] {
                Some(note) => format!("shared; {note}"),
                None => "shared".into(),
            },
            Some(_) => "memo".into(),
        })
    }

    fn mem_bytes(&self) -> u64 {
        // A recorded replay holds no state of its own: the database or
        // the request does.
        match self.replay {
            Some(_) => 0,
            None => self.batches.iter().map(ColumnBatch::byte_size).sum(),
        }
    }
}

/// A `Distinct(Project(Scan R))` — a relation of the normalized view
/// D′, or any `SELECT DISTINCT <cols> FROM R [WHERE p]` — whose
/// predicate-free result depends only on the database, which therefore
/// memoizes it under `(R, cols)`.
#[derive(Clone, Copy)]
struct MemoSite<'a> {
    relation: &'a str,
    cols: &'a [usize],
}

/// The memo site `node` heads, with the scan's pushed predicates moved
/// onto the projected columns, unless `shared` replays any node of it.
///
/// A selection that reads only projected columns commutes with
/// duplicate-eliminating projection, σ_p(δπ_X R) = δπ_X(σ_p R), when p
/// agrees on rows the projection keeps as one. `EqLit` and `EqCols`
/// compare under `Value` equality, so they do. `ContainsCi` renders a
/// non-string value to test it, and equal numbers can render apart
/// (`2` and `2.0`, `0` and `-0`), so it qualifies only on a text column.
/// A predicate on a column outside X, or a `contains` on any other
/// column, leaves the scan as it is.
fn memo_site<'a>(node: &'a PlanNode, cx: &BuildCx<'_>) -> Option<(MemoSite<'a>, Vec<PhysPred>)> {
    let (PlanOp::Distinct, [project]) = (&node.op, node.children.as_slice()) else {
        return None;
    };
    let (PlanOp::Project { cols, .. }, [scan]) = (&project.op, project.children.as_slice()) else {
        return None;
    };
    let PlanOp::Scan { relation, pushed, .. } = &scan.op else {
        return None;
    };
    if [node.id, project.id, scan.id].iter().any(|id| cx.shared.contains_key(id)) {
        return None;
    }
    let at = |c: &usize| cols.iter().position(|x| x == c);
    let text = |c: &usize| {
        let attrs = &cx.db.table(relation)?.schema.attrs;
        (attrs.get(*c)?.ty == AttrType::Text).then_some(())
    };
    let filter = pushed
        .iter()
        .map(|p| match p {
            PhysPred::EqCols(l, r) => Some(PhysPred::EqCols(at(l)?, at(r)?)),
            PhysPred::EqLit(c, v) => Some(PhysPred::EqLit(at(c)?, v.clone())),
            PhysPred::ContainsCi(c, needle) => {
                text(c)?;
                Some(PhysPred::ContainsCi(at(c)?, needle.clone()))
            }
        })
        .collect::<Option<Vec<_>>>()?;
    Some((MemoSite { relation, cols }, filter))
}

/// Whether the memo has room for the predicate-free projection of
/// `site`: |R| × |cols| cells bound its size.
fn has_room(site: MemoSite<'_>, db: &Database) -> bool {
    let rows = db.table(site.relation).map_or(0, |t| t.len());
    db.memo_cells() + (rows * site.cols.len()) as u64 <= db.total_cells()
}

/// Plan ids of `node`, then of the nodes below it in pre-order.
fn subtree_ids(node: &PlanNode) -> Vec<usize> {
    let mut ids = Vec::with_capacity(node.node_count());
    node.visit(&mut |n| ids.push(n.id));
    ids
}

/// What a computed subtree recorded for replay — for a [`MemoSite`] in
/// the database's memo, for a request share in [`Shares`]: the batches
/// its root emitted, and after `open` and after each `next` call the
/// `(rows_out, batches)` every node below the root had reached — entry
/// `k + 1` after the call that returned batch `k`, the last after
/// end-of-stream. A replay reports these, so per-operator rows and
/// batches are the same whether a subtree was computed or replayed.
struct MemoEntry {
    batches: Arc<Vec<ColumnBatch>>,
    below: Vec<Vec<(u64, u64)>>,
    /// A share's notes, root first, as its nodes closed (empty for a
    /// memo site).
    notes: Vec<Option<String>>,
}

/// Where a completed capture is kept.
#[derive(Clone, Copy)]
enum Keep<'a> {
    /// The database's projection memo.
    Memo(MemoSite<'a>),
    /// Slot `k` of the request's [`Shares`].
    Share(usize),
}

/// Captures completed during one plan run, with the plan ids of their
/// root and the nodes below it, kept only once the whole run succeeded.
type Captured<'a> = Arc<Mutex<Vec<(Keep<'a>, Vec<usize>, MemoEntry)>>>;

/// What a subtree that missed its memo site or request share records:
/// the `(rows_out, batches)` of the nodes below its root after `open`
/// and after each `next`, and the batches it emits. At end-of-stream the
/// entry goes to the run's [`Captured`] list; a consumer that stops
/// early leaves it incomplete.
struct MemoCapture<'a> {
    keep: Keep<'a>,
    /// The root, then the nodes below it in pre-order.
    ids: Vec<usize>,
    stats: StatsCell,
    below: Vec<Vec<(u64, u64)>>,
    emitted: Vec<ColumnBatch>,
    captured: Captured<'a>,
}

impl MemoCapture<'_> {
    fn record(&mut self) {
        let ops = par::relock(&self.stats);
        self.below
            .push(self.ids[1..].iter().map(|&id| (ops[id].rows_out, ops[id].batches)).collect());
    }

    fn finish(self) {
        let entry =
            MemoEntry { batches: Arc::new(self.emitted), below: self.below, notes: Vec::new() };
        par::relock(&self.captured).push((self.keep, self.ids, entry));
    }
}

/// The shim over a subtree root that records a [`MemoCapture`], and
/// emits only the rows that pass `filter`: the pushed predicates of a
/// filtered memo site whose predicate-free projection it records.
struct Capturing<'a> {
    inner: Box<dyn Operator + 'a>,
    capture: Option<MemoCapture<'a>>,
    filter: Vec<PhysPred>,
}

impl Operator for Capturing<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.inner.open()?;
        if let Some(capture) = &mut self.capture {
            capture.record();
        }
        Ok(())
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        loop {
            let r = self.inner.next()?;
            if let Some(capture) = &mut self.capture {
                capture.record();
                match &r {
                    Some(batch) => capture.emitted.push(batch.clone()),
                    None => self.capture.take().map_or((), MemoCapture::finish),
                }
            }
            let Some(batch) = r else { return Ok(None) };
            if let Some(batch) = select(batch, &self.filter) {
                return Ok(Some(batch));
            }
        }
    }

    fn close(&mut self) {
        self.inner.close();
    }

    fn note(&self) -> Option<String> {
        self.inner.note()
    }

    fn parallel_info(&self) -> Option<(u32, Duration)> {
        self.inner.parallel_info()
    }

    fn mem_bytes(&self) -> u64 {
        self.inner.mem_bytes()
    }
}

/// The batches of the subtrees that several plans of one request compute
/// alike, each executed once per request. The caller elects the shares
/// and maps each plan's consumer sites to share slots
/// ([`run_plan_sharing`]). A site whose slot is empty runs its subtree;
/// when the subtree drains to end-of-stream in a run that succeeds, the
/// slot keeps its batches and per-node `(rows_out, batches)` after each
/// call, stored by pre-order position. A site whose slot is filled
/// replays it and writes those counts into its own nodes, so every
/// plan's [`ExecStats`] rows and batches equal its solo run's.
pub struct Shares {
    slots: Mutex<Vec<Option<Arc<MemoEntry>>>>,
}

impl Shares {
    /// `n` empty share slots.
    pub fn new(n: usize) -> Shares {
        Shares { slots: Mutex::new(vec![None; n]) }
    }

    /// Drops share `k`'s batches, once its last consumer has run.
    pub fn release(&self, k: usize) {
        par::relock(&self.slots)[k] = None;
    }

    fn get(&self, k: usize) -> Option<Arc<MemoEntry>> {
        par::relock(&self.slots)[k].clone()
    }

    /// Keeps the first capture of share `k`.
    fn fill(&self, k: usize, entry: MemoEntry) {
        par::relock(&self.slots)[k].get_or_insert_with(|| Arc::new(entry));
    }
}

/// Budget charge site of an operator (static so [`aqks_guard::Tripped`]
/// can carry it without allocating).
fn guard_site(op: &PlanOp) -> &'static str {
    match op {
        PlanOp::Scan { .. } => "ops.Scan",
        PlanOp::DerivedTable { .. } => "ops.DerivedTable",
        PlanOp::Filter { .. } => "ops.Filter",
        PlanOp::HashJoin { .. } => "ops.HashJoin",
        PlanOp::CrossJoin => "ops.CrossJoin",
        PlanOp::HashAggregate { .. } => "ops.HashAggregate",
        PlanOp::Project { .. } => "ops.Project",
        PlanOp::Distinct => "ops.Distinct",
        PlanOp::Sort { .. } => "ops.Sort",
        PlanOp::Limit { .. } => "ops.Limit",
    }
}

// ---------------------------------------------------------------------------
// Columnar predicate evaluation
// ---------------------------------------------------------------------------

/// Indices of the rows in `batch` satisfying every predicate, with
/// typed fast paths where the column representation makes them exact.
/// Fast paths are restricted to same-typed comparisons: `Value`
/// equality compares `Int`/`Float` numerically, so mixed-type columns
/// go through the generic per-value path.
fn filter_indices(batch: &ColumnBatch, preds: &[PhysPred]) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..batch.len() as u32).collect();
    for p in preds {
        filter_pred(batch, p, &mut idx);
    }
    idx
}

/// The rows of `batch` that pass every predicate of a non-empty `preds`,
/// or `None` when none do; `batch` as it is when `preds` is empty.
fn select(batch: ColumnBatch, preds: &[PhysPred]) -> Option<ColumnBatch> {
    if preds.is_empty() {
        return Some(batch);
    }
    match filter_indices(&batch, preds) {
        keep if keep.is_empty() => None,
        keep if keep.len() == batch.len() => Some(batch),
        keep => Some(batch.gather(&keep)),
    }
}

fn filter_pred(batch: &ColumnBatch, pred: &PhysPred, idx: &mut Vec<u32>) {
    match pred {
        PhysPred::EqCols(l, r) => {
            let (lc, rc) = (batch.column(*l), batch.column(*r));
            match (lc.data(), rc.data()) {
                (ColumnData::Int(a), ColumnData::Int(b)) => idx.retain(|&i| {
                    let i = i as usize;
                    lc.is_valid(i) && rc.is_valid(i) && a[i] == b[i]
                }),
                (ColumnData::Str(a), ColumnData::Str(b)) => idx.retain(|&i| {
                    let i = i as usize;
                    lc.is_valid(i) && rc.is_valid(i) && a[i] == b[i]
                }),
                _ => idx.retain(|&i| {
                    let v = lc.value(i as usize);
                    !v.is_null() && v == rc.value(i as usize)
                }),
            }
        }
        PhysPred::ContainsCi(c, needle) => {
            let col = batch.column(*c);
            match col.data() {
                ColumnData::Str(s) => {
                    idx.retain(|&i| col.is_valid(i as usize) && contains_ci(&s[i as usize], needle))
                }
                _ => idx.retain(|&i| col.value(i as usize).contains_ci(needle)),
            }
        }
        PhysPred::EqLit(c, v) => {
            let col = batch.column(*c);
            match (col.data(), v) {
                (ColumnData::Int(a), Value::Int(want)) => {
                    idx.retain(|&i| col.is_valid(i as usize) && a[i as usize] == *want)
                }
                (ColumnData::Str(a), Value::Str(want)) => {
                    idx.retain(|&i| col.is_valid(i as usize) && a[i as usize] == *want)
                }
                _ => idx.retain(|&i| col.value(i as usize) == *v),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

/// Polls `gov`'s deadline every [`CHECK_EVERY`] rows of a kernel loop.
fn poll_deadline(
    gov: Option<&aqks_guard::Governor>,
    row: usize,
    site: &'static str,
) -> Result<(), ExecError> {
    match gov {
        Some(g) if row % CHECK_EVERY == CHECK_EVERY - 1 => Ok(g.check_deadline(site)?),
        _ => Ok(()),
    }
}

/// Scan kernel: filters morsel `m` of `rows` through `preds` (on the
/// full base row) and builds the survivors' `cols` as one batch, or
/// `None` when none survive.
fn scan_morsel(
    rows: &[Row],
    preds: &[PhysPred],
    cols: &[usize],
    m: usize,
    gov: Option<&aqks_guard::Governor>,
) -> Result<Option<ColumnBatch>, ExecError> {
    let start = m * MORSEL_SIZE;
    let end = (start + MORSEL_SIZE).min(rows.len());
    let mut keep: Vec<&Row> = Vec::new();
    for (off, row) in rows[start..end].iter().enumerate() {
        poll_deadline(gov, off, "ops.Scan")?;
        if preds.iter().all(|p| p.eval(row)) {
            keep.push(row);
        }
    }
    Ok((!keep.is_empty()).then(|| ColumnBatch::from_row_refs(cols, &keep)))
}

/// Scan with scan-time predicate evaluation: one batch per morsel with
/// survivors, in morsel order, holding only the output columns `cols`
/// (every column, or the columns a `Project` directly above reads — see
/// [`build`]). One worker filters one morsel per `next`, so `LIMIT` can
/// short-circuit the scan; more workers filter every morsel on the pool
/// at `open` and replay the batches.
struct Scan<'a> {
    rows: &'a [Row],
    preds: &'a [PhysPred],
    cols: Vec<usize>,
    threads: usize,
    /// Columns of the base relation.
    width: usize,
    gov: Option<aqks_guard::Governor>,
    /// Next morsel to filter (one worker).
    morsel: usize,
    /// Batches filtered at `open` (more workers), and how many emitted.
    batches: Option<Vec<ColumnBatch>>,
    emitted: usize,
    par_threads: u32,
    par_wall: Duration,
}

impl Operator for Scan<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.morsel = 0;
        self.emitted = 0;
        self.gov = aqks_guard::current();
        let workers = par::workers(self.threads, self.rows.len());
        if workers > 1 {
            let (rows, preds, cols, gov) = (self.rows, self.preds, &self.cols, self.gov.as_ref());
            let n_morsels = rows.len().div_ceil(MORSEL_SIZE);
            let t = Instant::now();
            let out = par::run_tasks(workers, n_morsels, "ops.Scan", |m| {
                scan_morsel(rows, preds, cols, m, gov)
            })?;
            self.par_wall = t.elapsed();
            self.par_threads = workers.min(n_morsels) as u32;
            self.batches = Some(out.into_iter().flatten().collect());
        }
        Ok(())
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        if let Some(batches) = &self.batches {
            self.emitted += 1;
            return Ok(batches.get(self.emitted - 1).cloned());
        }
        while self.morsel * MORSEL_SIZE < self.rows.len() {
            self.morsel += 1;
            let out =
                scan_morsel(self.rows, self.preds, &self.cols, self.morsel - 1, self.gov.as_ref())?;
            if out.is_some() {
                return Ok(out);
            }
        }
        Ok(None)
    }

    fn close(&mut self) {
        self.batches = None;
    }

    fn note(&self) -> Option<String> {
        Some(format!("cols={}/{}", self.cols.len(), self.width))
    }

    fn parallel_info(&self) -> Option<(u32, Duration)> {
        (self.par_threads > 1).then_some((self.par_threads, self.par_wall))
    }

    fn mem_bytes(&self) -> u64 {
        // More workers materialize every surviving batch at open.
        self.batches.as_ref().map_or(0, |bs| bs.iter().map(ColumnBatch::byte_size).sum())
    }
}

/// Alias boundary over a planned subquery: forwards batches unchanged
/// (the rename is plan metadata only).
struct Passthrough<'a> {
    child: Metered<'a>,
}

impl Operator for Passthrough<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        self.child.next()
    }

    fn close(&mut self) {
        self.child.close();
    }
}

/// Residual predicate application over columnar batches.
struct Filter<'a> {
    child: Metered<'a>,
    preds: &'a [PhysPred],
}

impl Operator for Filter<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        while let Some(batch) = self.child.next()? {
            if let Some(batch) = select(batch, self.preds) {
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }

    fn close(&mut self) {
        self.child.close();
    }
}

// ---------------------------------------------------------------------------
// Key table
// ---------------------------------------------------------------------------

/// The fixed multiplicative hasher behind [`key_hash`]: one rotate, xor
/// and multiply per 8-byte word, then a final avalanche so both the low
/// bits (bucket) and the high bits (radix partition) are usable. Fixed
/// keys make hashes, and so partition assignment, identical across runs.
struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.add(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }
}

/// Hash of row `i`'s key columns `cols`, read straight from the typed
/// columns. Each slot feeds the hasher exactly the bytes `Value::hash`
/// would, so keys equal as `Value`s hash equal: `Int(2)` and
/// `Float(2.0)`, `0.0` and `-0.0`, NaN and NaN.
fn key_hash(batch: &ColumnBatch, cols: &[usize], i: usize) -> u64 {
    let mut h = KeyHasher(0);
    for &c in cols {
        let col = batch.column(c);
        if !col.is_valid(i) {
            Value::Null.hash(&mut h);
            continue;
        }
        match col.data() {
            ColumnData::Int(v) => Value::Int(v[i]).hash(&mut h),
            ColumnData::Float(v) => Value::Float(v[i]).hash(&mut h),
            ColumnData::Str(v) => {
                // `Value::Str`'s tag, then the string as `str` hashes it.
                h.write_u8(2);
                v[i].hash(&mut h);
            }
            ColumnData::Any(v) => v[i].hash(&mut h),
        }
    }
    h.finish()
}

/// `Value` equality of row `i`'s `acols` in `a` and row `j`'s `bcols` in
/// `b`, column by column; NULL equals NULL (the join drops NULL keys
/// before it hashes). The same-type Int and Str cases compare in place.
fn keys_eq(
    a: &ColumnBatch,
    acols: &[usize],
    i: usize,
    b: &ColumnBatch,
    bcols: &[usize],
    j: usize,
) -> bool {
    acols.iter().zip(bcols).all(|(&ca, &cb)| {
        let (x, y) = (a.column(ca), b.column(cb));
        match (x.is_valid(i), y.is_valid(j)) {
            (true, true) => match (x.data(), y.data()) {
                (ColumnData::Int(p), ColumnData::Int(q)) => p[i] == q[j],
                (ColumnData::Str(p), ColumnData::Str(q)) => p[i] == q[j],
                _ => x.value(i) == y.value(j),
            },
            (vx, vy) => vx == vy,
        }
    })
}

/// True when any of row `i`'s `cols` is NULL (such a key never joins).
fn has_null(batch: &ColumnBatch, cols: &[usize], i: usize) -> bool {
    cols.iter().any(|&c| !batch.column(c).is_valid(i))
}

/// End of a [`KeyTable`] bucket chain.
const NONE: u32 = u32::MAX;

/// Chained hash table of distinct keys, numbered `0..len()` in insertion
/// order. It stores only each entry's hash; the caller keeps a row
/// holding each entry's key and verifies every hash hit with
/// [`keys_eq`], so a collision costs a comparison, never a wrong match.
#[derive(Default)]
struct KeyTable {
    /// Bucket → its most recent entry, or [`NONE`]; a power-of-two length.
    heads: Vec<u32>,
    /// Entry → the next entry in its bucket, or [`NONE`].
    next: Vec<u32>,
    /// Entry → its key hash.
    hashes: Vec<u64>,
}

impl KeyTable {
    fn len(&self) -> usize {
        self.hashes.len()
    }

    fn hash(&self, e: u32) -> u64 {
        self.hashes[e as usize]
    }

    /// The entry with hash `h` whose key `eq` accepts.
    fn find(&self, h: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.heads.is_empty() {
            return None;
        }
        let mut e = self.heads[h as usize & (self.heads.len() - 1)];
        while e != NONE {
            if self.hashes[e as usize] == h && eq(e) {
                return Some(e);
            }
            e = self.next[e as usize];
        }
        None
    }

    /// Adds entry `len()` with hash `h`; the caller has found no equal key.
    fn insert(&mut self, h: u64) -> u32 {
        let e = u32::try_from(self.len())
            .ok()
            .filter(|&e| e != NONE)
            .expect("key table under 2^32-1 entries");
        self.hashes.push(h);
        self.next.push(NONE);
        if self.len() > self.heads.len() {
            // Load factor 1: double and re-chain every entry.
            self.heads = vec![NONE; (2 * self.heads.len()).max(16)];
            for f in 0..=e {
                self.link(f);
            }
        } else {
            self.link(e);
        }
        e
    }

    fn link(&mut self, e: u32) {
        let b = self.hashes[e as usize] as usize & (self.heads.len() - 1);
        self.next[e as usize] = self.heads[b];
        self.heads[b] = e;
    }

    /// Resident bytes of the table (its three arrays).
    fn byte_size(&self) -> u64 {
        (self.heads.len() * 4 + self.next.len() * 4 + self.hashes.len() * 8) as u64
    }
}

/// `(key hash, build-row index)` pairs routed to one radix partition.
type HashedIdx = Vec<(u64, u32)>;

/// One radix partition of a [`JoinTable`]: its distinct keys, and each
/// key's build rows in ascending order (CSR: key `e`'s rows are
/// `rows[offsets[e]..offsets[e + 1]]`, its first row stands for the key).
#[derive(Default)]
struct JoinPart {
    keys: KeyTable,
    offsets: Vec<u32>,
    rows: Vec<u32>,
}

impl JoinPart {
    fn byte_size(&self) -> u64 {
        self.keys.byte_size() + ((self.offsets.len() + self.rows.len()) * 4) as u64
    }
}

/// Partition-indexed hash table over build-side row indices. Per-key
/// row lists are in ascending global build order, which pins the
/// probe-output match order at every worker count.
struct JoinTable {
    parts: Vec<JoinPart>,
    /// log2 of the partition count; partitions take the hash's top bits.
    bits: u32,
}

impl JoinTable {
    fn part_of(&self, h: u64) -> usize {
        if self.bits == 0 {
            0
        } else {
            (h >> (64 - self.bits)) as usize
        }
    }

    /// The build rows whose `bkeys` equal `probe` row `i`'s `pkeys`.
    fn matches(
        &self,
        build: &ColumnBatch,
        bkeys: &[usize],
        probe: &ColumnBatch,
        pkeys: &[usize],
        i: usize,
    ) -> &[u32] {
        let h = key_hash(probe, pkeys, i);
        let part = &self.parts[self.part_of(h)];
        let first = |e: u32| part.rows[part.offsets[e as usize] as usize] as usize;
        match part.keys.find(h, |e| keys_eq(build, bkeys, first(e), probe, pkeys, i)) {
            Some(e) => {
                &part.rows[part.offsets[e as usize] as usize..part.offsets[e as usize + 1] as usize]
            }
            None => &[],
        }
    }

    fn byte_size(&self) -> u64 {
        self.parts.iter().map(JoinPart::byte_size).sum()
    }
}

/// Join-build kernel: indexes `data`'s key columns `keys` into `parts`
/// radix partitions (a power of two) in two phases on `workers` workers.
/// Morsels hash their rows and route `(hash, index)` pairs into
/// per-morsel partition buckets, then one task per partition folds the
/// buckets *in morsel order* into its [`JoinPart`], so every per-key
/// row list comes out in ascending global row order.
fn build_join_table(
    data: &ColumnBatch,
    keys: &[usize],
    workers: usize,
    parts: usize,
) -> Result<JoinTable, ExecError> {
    let n = data.len();
    let table = JoinTable { parts: Vec::new(), bits: parts.trailing_zeros() };
    let gov = aqks_guard::current();
    let morsels = par::run_tasks(workers, n.div_ceil(MORSEL_SIZE), "ops.HashJoin", |mi| {
        let start = mi * MORSEL_SIZE;
        let mut buckets: Vec<HashedIdx> = (0..parts).map(|_| Vec::new()).collect();
        for i in start..(start + MORSEL_SIZE).min(n) {
            poll_deadline(gov.as_ref(), i - start, "ops.HashJoin")?;
            if !has_null(data, keys, i) {
                let h = key_hash(data, keys, i);
                buckets[table.part_of(h)].push((h, i as u32));
            }
        }
        Ok(buckets)
    })?;
    // Route each morsel's buckets to its partition slot (cheap Vec
    // moves), preserving morsel order per partition.
    let slots: Vec<Mutex<Vec<HashedIdx>>> =
        (0..parts).map(|_| Mutex::new(Vec::with_capacity(morsels.len()))).collect();
    for mut morsel in morsels {
        for (p, bucket) in morsel.drain(..).enumerate() {
            par::relock(&slots[p]).push(bucket);
        }
    }
    let parts = par::run_tasks(workers, parts, "ops.HashJoin", |p| {
        let chunks = std::mem::take(&mut *par::relock(&slots[p]));
        let mut part = JoinPart::default();
        // Each row's key entry, then a counting sort by entry: stable, so
        // every entry's rows stay ascending.
        let mut firsts: Vec<u32> = Vec::new();
        let mut entry_of: Vec<(u32, u32)> = Vec::new();
        for &(h, i) in chunks.iter().flatten() {
            let eq =
                |e: u32| keys_eq(data, keys, firsts[e as usize] as usize, data, keys, i as usize);
            let e = match part.keys.find(h, eq) {
                Some(e) => e,
                None => {
                    firsts.push(i);
                    part.keys.insert(h)
                }
            };
            entry_of.push((e, i));
        }
        part.offsets = vec![0; part.keys.len() + 1];
        for &(e, _) in &entry_of {
            part.offsets[e as usize + 1] += 1;
        }
        for e in 0..part.keys.len() {
            part.offsets[e + 1] += part.offsets[e];
        }
        let mut fill = part.offsets.clone();
        part.rows = vec![0; entry_of.len()];
        for (e, i) in entry_of {
            part.rows[fill[e as usize] as usize] = i;
            fill[e as usize] += 1;
        }
        Ok(part)
    })?;
    Ok(JoinTable { parts, ..table })
}

/// Join-probe kernel: every match of `probe`'s rows in `table`, in probe
/// row order and global build order per row, with columns left then
/// right; `None` when nothing matches.
fn probe_batch(
    build: &ColumnBatch,
    bkeys: &[usize],
    table: &JoinTable,
    build_left: bool,
    probe: &ColumnBatch,
    pkeys: &[usize],
    gov: Option<&aqks_guard::Governor>,
) -> Result<Option<ColumnBatch>, ExecError> {
    let mut bidx: Vec<u32> = Vec::new();
    let mut pidx: Vec<u32> = Vec::new();
    for i in 0..probe.len() {
        poll_deadline(gov, i, "ops.HashJoin")?;
        if has_null(probe, pkeys, i) {
            continue;
        }
        for &m in table.matches(build, bkeys, probe, pkeys, i) {
            bidx.push(m);
            pidx.push(i as u32);
        }
    }
    if bidx.is_empty() {
        return Ok(None);
    }
    let (bside, pside) = (build.gather(&bidx), probe.gather(&pidx));
    Ok(Some(if build_left {
        ColumnBatch::hcat(&bside, &pside)
    } else {
        ColumnBatch::hcat(&pside, &bside)
    }))
}

/// Multi-key hash equi-join. The build side (chosen by the planner from
/// cardinality estimates) is drained and indexed at `open` by
/// [`build_join_table`] — one partition at one worker, 32 radix
/// partitions otherwise. [`probe_batch`] probes each probe-side batch:
/// at `threads == 1` the probe side streams, one batch per `next`;
/// otherwise it is drained once and probed batch-parallel. Output
/// columns are always left then right, whichever side built, and NULL
/// keys never match on either side.
struct HashJoin<'a> {
    left: Metered<'a>,
    right: Metered<'a>,
    left_keys: &'a [usize],
    right_keys: &'a [usize],
    build_left: bool,
    threads: usize,
    gov: Option<aqks_guard::Governor>,
    build: Option<(ColumnBatch, JoinTable)>,
    out: Option<Vec<ColumnBatch>>,
    emitted: usize,
    build_rows: u64,
    probe_rows: u64,
    par_threads: u32,
    par_wall: Duration,
}

impl Operator for HashJoin<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        aqks_guard::failpoint!("join.build");
        self.left.open()?;
        self.right.open()?;
        self.gov = aqks_guard::current();
        let (build, keys) = if self.build_left {
            (&mut self.left, self.left_keys)
        } else {
            (&mut self.right, self.right_keys)
        };
        let mut batches = Vec::new();
        while let Some(batch) = build.next()? {
            // Retained hash-table state is charged against the budget on
            // top of the child's streaming charge: materialized rows are
            // the memory hazard a row cap exists to bound. Charged here
            // on the plan's thread, identically at every thread count.
            aqks_guard::charge_rows("ops.HashJoin.build", batch.len() as u64)?;
            self.build_rows += batch.len() as u64;
            if !batch.is_empty() {
                batches.push(batch);
            }
        }
        if !batches.is_empty() {
            let data = ColumnBatch::concat(batches[0].width(), &batches);
            let workers = par::workers(self.threads, data.len());
            // Radix fan-out: enough partitions to keep 8-16 workers busy
            // without fragmenting small builds.
            let parts = if workers > 1 { 32 } else { 1 };
            let t = Instant::now();
            let table = build_join_table(&data, keys, workers, parts)?;
            self.par_wall = if workers > 1 { t.elapsed() } else { Duration::ZERO };
            self.par_threads = workers.min(data.len().div_ceil(MORSEL_SIZE)) as u32;
            self.build = Some((data, table));
        }
        Ok(())
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        let (probe, pkeys, bkeys) = if self.build_left {
            (&mut self.right, self.right_keys, self.left_keys)
        } else {
            (&mut self.left, self.left_keys, self.right_keys)
        };
        let build_left = self.build_left;
        if self.threads <= 1 {
            while let Some(batch) = probe.next()? {
                self.probe_rows += batch.len() as u64;
                let Some((data, table)) = &self.build else { continue };
                let gov = self.gov.as_ref();
                let out = probe_batch(data, bkeys, table, build_left, &batch, pkeys, gov)?;
                if out.is_some() {
                    return Ok(out);
                }
            }
            return Ok(None);
        }
        if self.out.is_none() {
            let mut probe_batches = Vec::new();
            while let Some(batch) = probe.next()? {
                self.probe_rows += batch.len() as u64;
                if !batch.is_empty() {
                    probe_batches.push(batch);
                }
            }
            let mut produced = Vec::new();
            if let Some((data, table)) = &self.build {
                let gov = self.gov.as_ref();
                let t = Instant::now();
                let res =
                    par::run_tasks(self.threads, probe_batches.len(), "ops.HashJoin", |bi| {
                        probe_batch(data, bkeys, table, build_left, &probe_batches[bi], pkeys, gov)
                    })?;
                self.par_wall += t.elapsed();
                self.par_threads =
                    self.par_threads.max(self.threads.min(probe_batches.len()) as u32);
                produced = res.into_iter().flatten().collect();
            }
            self.out = Some(produced);
        }
        let out = self.out.as_deref().unwrap_or_default();
        self.emitted += 1;
        Ok(out.get(self.emitted - 1).cloned())
    }

    fn close(&mut self) {
        self.build = None;
        self.out = None;
        self.left.close();
        self.right.close();
    }

    fn note(&self) -> Option<String> {
        Some(format!("build rows={} probe rows={}", self.build_rows, self.probe_rows))
    }

    fn parallel_info(&self) -> Option<(u32, Duration)> {
        (self.par_threads > 1).then_some((self.par_threads, self.par_wall))
    }

    fn mem_bytes(&self) -> u64 {
        // Build side and its key table, plus (at more workers) the
        // materialized probe output.
        self.build.as_ref().map_or(0, |(data, table)| data.byte_size() + table.byte_size())
            + self.out.as_ref().map_or(0, |o| o.iter().map(ColumnBatch::byte_size).sum())
    }
}

/// Cross product, used only when no equi-join connects the inputs. The
/// right (planner-chosen smallest) side is buffered; the left streams,
/// and each left batch's product with the buffer is emitted in windows
/// of at most [`MORSEL_SIZE`] rows, so a budget's row charge lands
/// before the next window is built.
struct CrossJoin<'a> {
    left: Metered<'a>,
    right: Metered<'a>,
    buffer: Option<ColumnBatch>,
    /// The left batch being crossed, and its next product row.
    current: Option<(ColumnBatch, usize)>,
}

impl Operator for CrossJoin<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.left.open()?;
        self.right.open()?;
        let mut batches = Vec::new();
        while let Some(batch) = self.right.next()? {
            aqks_guard::charge_rows("ops.CrossJoin.build", batch.len() as u64)?;
            if !batch.is_empty() {
                batches.push(batch);
            }
        }
        if !batches.is_empty() {
            self.buffer = Some(ColumnBatch::concat(batches[0].width(), &batches));
        }
        Ok(())
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        let Some(buf) = &self.buffer else { return Ok(None) };
        let nr = buf.len();
        loop {
            if let Some((batch, pos)) = &mut self.current {
                let total = batch.len() * nr;
                if *pos < total {
                    let end = (*pos + MORSEL_SIZE).min(total);
                    let (lidx, ridx): (Vec<u32>, Vec<u32>) =
                        (*pos..end).map(|i| ((i / nr) as u32, (i % nr) as u32)).unzip();
                    *pos = end;
                    return Ok(Some(ColumnBatch::hcat(&batch.gather(&lidx), &buf.gather(&ridx))));
                }
            }
            match self.left.next()? {
                Some(batch) => self.current = Some((batch, 0)),
                None => return Ok(None),
            }
        }
    }

    fn close(&mut self) {
        self.buffer = None;
        self.current = None;
        self.left.close();
        self.right.close();
    }

    fn mem_bytes(&self) -> u64 {
        self.buffer.as_ref().map_or(0, ColumnBatch::byte_size)
    }
}

// ---------------------------------------------------------------------------
// Aggregation states
// ---------------------------------------------------------------------------

/// Mergeable per-group accumulator of one output item. `Vals` collects
/// the non-null input values *in row order* and defers to [`aggregate`]
/// at finalize — `SUM`/`AVG` and all DISTINCT aggregates use it, so
/// float summation order (and hence the bits of the result) is
/// identical at every thread count.
#[derive(Debug, Clone)]
enum AggState {
    /// Non-null count.
    Count(u64),
    /// Current minimum (first minimal element wins, like `Iterator::min`).
    Min(Option<Value>),
    /// Current maximum (last maximal element wins, like `Iterator::max`).
    Max(Option<Value>),
    /// Ordered non-null values, finalized via [`aggregate`].
    Vals(Vec<Value>),
    /// First row's value (group-by column passthrough), NULL included.
    First(Option<Value>),
}

fn new_state(item: &PhysAggItem) -> AggState {
    match item {
        PhysAggItem::Col(_) => AggState::First(None),
        PhysAggItem::Agg { distinct: true, .. } => AggState::Vals(Vec::new()),
        PhysAggItem::Agg { func, .. } => match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Sum | AggFunc::Avg => AggState::Vals(Vec::new()),
        },
    }
}

/// Folds slot `i` of `col` into `state`.
fn acc_state(state: &mut AggState, col: &Column, i: usize) {
    if let AggState::First(f) = state {
        if f.is_none() {
            *f = Some(col.value(i));
        }
        return;
    }
    if !col.is_valid(i) {
        return;
    }
    match state {
        AggState::Count(n) => *n += 1,
        AggState::Min(cur) => {
            let v = col.value(i);
            match cur {
                Some(c) if v >= *c => {}
                _ => *cur = Some(v),
            }
        }
        AggState::Max(cur) => {
            let v = col.value(i);
            match cur {
                Some(c) if v < *c => {}
                _ => *cur = Some(v),
            }
        }
        AggState::Vals(vs) => vs.push(col.value(i)),
        AggState::First(_) => {}
    }
}

/// Merges a later chunk's state `b` into `a` (chunks arrive in input
/// order, so "later" means later rows).
fn merge_state(a: &mut AggState, b: AggState) {
    match (a, b) {
        (AggState::Count(x), AggState::Count(y)) => *x += y,
        (AggState::Min(x), AggState::Min(Some(vy))) => match x {
            // The earlier chunk's minimum wins ties, matching a
            // one-chunk fold's first-among-equals behaviour.
            Some(vx) if vy >= *vx => {}
            _ => *x = Some(vy),
        },
        (AggState::Max(x), AggState::Max(Some(vy))) => match x {
            Some(vx) if vy < *vx => {}
            _ => *x = Some(vy),
        },
        (AggState::Vals(x), AggState::Vals(y)) => x.extend(y),
        (AggState::First(x @ None), AggState::First(y)) => *x = y,
        // States are built per item from the same plan: kinds always line up.
        _ => {}
    }
}

fn finalize_state(state: AggState, item: &PhysAggItem) -> Value {
    match state {
        AggState::Count(n) => Value::Int(n as i64),
        AggState::Min(v) | AggState::Max(v) | AggState::First(v) => v.unwrap_or(Value::Null),
        AggState::Vals(vs) => match item {
            PhysAggItem::Agg { func, distinct, .. } => aggregate(*func, *distinct, vs.iter()),
            PhysAggItem::Col(_) => Value::Null,
        },
    }
}

/// One chunk's grouped partial states, groups numbered in
/// first-appearance order. A group's key lives in the aggregate's
/// buffered input, at the row where the group first appeared.
#[derive(Default)]
struct Partial {
    keys: KeyTable,
    /// Group → `(input batch, row)` of its first appearance.
    firsts: Vec<(u32, u32)>,
    /// Group-major states, one per output item.
    states: Vec<AggState>,
}

impl Partial {
    /// The group of `batches[b]` row `i`'s `group` key, added (with fresh
    /// states) when new.
    fn group_of(
        &mut self,
        batches: &[ColumnBatch],
        group: &[usize],
        h: u64,
        (b, i): (u32, u32),
        items: &[PhysAggItem],
    ) -> u32 {
        let (at, firsts) = (&batches[b as usize], &self.firsts);
        let eq = |e: u32| {
            let (fb, fi) = firsts[e as usize];
            keys_eq(&batches[fb as usize], group, fi as usize, at, group, i as usize)
        };
        self.keys.find(h, eq).unwrap_or_else(|| {
            self.firsts.push((b, i));
            self.states.extend(items.iter().map(new_state));
            self.keys.insert(h)
        })
    }

    /// Merges a later chunk's partial into this one: new groups append
    /// in their first-appearance order, and every group merges state by
    /// state (into fresh states when new).
    fn merge(
        &mut self,
        later: Partial,
        batches: &[ColumnBatch],
        group: &[usize],
        items: &[PhysAggItem],
    ) {
        let mut states = later.states.into_iter();
        for (e, &first) in later.firsts.iter().enumerate() {
            let g = self.group_of(batches, group, later.keys.hash(e as u32), first, items);
            let at = g as usize * items.len();
            for (a, b) in self.states[at..at + items.len()].iter_mut().zip(states.by_ref()) {
                merge_state(a, b);
            }
        }
    }
}

/// Aggregate kernel: folds `batches[b]` into a partial, polling the
/// captured governor's deadline mid-batch when present.
fn accumulate_batch(
    p: &mut Partial,
    batches: &[ColumnBatch],
    b: usize,
    group: &[usize],
    items: &[PhysAggItem],
    gov: Option<&aqks_guard::Governor>,
) -> Result<(), ExecError> {
    let batch = &batches[b];
    for i in 0..batch.len() {
        poll_deadline(gov, i, "ops.HashAggregate")?;
        let h = key_hash(batch, group, i);
        let g = p.group_of(batches, group, h, (b as u32, i as u32), items);
        let states = &mut p.states[g as usize * items.len()..][..items.len()];
        for (state, item) in states.iter_mut().zip(items) {
            let col = match item {
                PhysAggItem::Col(c) => *c,
                PhysAggItem::Agg { arg, .. } => *arg,
            };
            acc_state(state, batch.column(col), i);
        }
    }
    Ok(())
}

/// Splits `batches` into up to `workers` contiguous chunks balanced by
/// row count. Contiguity is what makes the parallel merge trivial to
/// keep deterministic: chunk order *is* input row order.
fn chunk_ranges(batches: &[ColumnBatch], workers: usize) -> Vec<(usize, usize)> {
    let total: usize = batches.iter().map(ColumnBatch::len).sum();
    let target = total.div_ceil(workers).max(1);
    let mut out = Vec::new();
    let (mut start, mut acc) = (0usize, 0usize);
    for (i, b) in batches.iter().enumerate() {
        acc += b.len();
        if acc >= target {
            out.push((start, i + 1));
            start = i + 1;
            acc = 0;
        }
    }
    if start < batches.len() {
        out.push((start, batches.len()));
    }
    out
}

/// Grouped/global aggregation (pipeline breaker), always two-phase:
/// contiguous input chunks (one per worker) fold into per-chunk
/// [`Partial`]s via [`accumulate_batch`], then later partials merge
/// into the first *in chunk order* — group output order (first
/// appearance) and `Vals` row order come out the same at any thread
/// count.
struct HashAggregate<'a> {
    child: Metered<'a>,
    group: &'a [usize],
    items: &'a [PhysAggItem],
    threads: usize,
    output: Vec<Row>,
    emitted: usize,
    in_rows: u64,
    in_bytes: u64,
    key_bytes: u64,
    groups_out: u64,
    par_threads: u32,
    par_wall: Duration,
}

impl Operator for HashAggregate<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.child.open()?;
        let mut batches = Vec::new();
        while let Some(batch) = self.child.next()? {
            // Grouped rows are retained until finalize; charge them like
            // hash-join build state (on the plan's thread, always).
            aqks_guard::charge_rows("ops.HashAggregate.build", batch.len() as u64)?;
            self.in_rows += batch.len() as u64;
            self.in_bytes += batch.byte_size();
            if !batch.is_empty() {
                batches.push(batch);
            }
        }
        aqks_guard::failpoint!("agg.finalize");
        let total: usize = batches.iter().map(ColumnBatch::len).sum();
        let workers = par::workers(self.threads, total);
        let (group, items) = (self.group, self.items);
        let chunks = chunk_ranges(&batches, workers);
        let gov = aqks_guard::current();
        let t = Instant::now();
        let partials = par::run_tasks(workers, chunks.len(), "ops.HashAggregate", |ci| {
            let (s, e) = chunks[ci];
            let mut p = Partial::default();
            for b in s..e {
                accumulate_batch(&mut p, &batches, b, group, items, gov.as_ref())?;
            }
            Ok(p)
        })?;
        self.par_wall = t.elapsed();
        self.par_threads = workers.min(chunks.len()) as u32;
        let mut partials = partials.into_iter();
        let mut acc = partials.next().unwrap_or_default();
        for p in partials {
            acc.merge(p, &batches, group, items);
        }
        self.key_bytes = acc.keys.byte_size();
        // A global aggregate over an empty input still yields one row.
        if acc.firsts.is_empty() && group.is_empty() {
            acc.firsts.push((0, 0));
            acc.states.extend(items.iter().map(new_state));
        }
        self.groups_out = acc.firsts.len() as u64;
        let mut states = acc.states.into_iter();
        for _ in 0..acc.firsts.len() {
            let row: Row = states
                .by_ref()
                .take(items.len())
                .zip(items)
                .map(|(state, item)| finalize_state(state, item))
                .collect();
            self.output.push(row);
        }
        Ok(())
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        if self.emitted >= self.output.len() {
            return Ok(None);
        }
        let end = (self.emitted + MORSEL_SIZE).min(self.output.len());
        let batch = ColumnBatch::from_rows(self.items.len(), &self.output[self.emitted..end]);
        self.emitted = end;
        Ok(Some(batch))
    }

    fn close(&mut self) {
        self.output.clear();
        self.child.close();
    }

    fn note(&self) -> Option<String> {
        Some(format!("groups={} from rows={}", self.groups_out, self.in_rows))
    }

    fn parallel_info(&self) -> Option<(u32, Duration)> {
        (self.par_threads > 1).then_some((self.par_threads, self.par_wall))
    }

    fn mem_bytes(&self) -> u64 {
        // Peak is the buffered input (held until finalize), measured
        // as the batches streamed in, plus the group key table.
        self.in_bytes + self.key_bytes
    }
}

/// Column projection — zero-copy: the output batch shares the selected
/// columns' storage. `cols` is `None` when the scan below already built
/// exactly these columns, and batches pass through unchanged.
struct Project<'a> {
    child: Metered<'a>,
    cols: Option<&'a [usize]>,
}

impl Operator for Project<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        let batch = self.child.next()?;
        Ok(match self.cols {
            Some(cols) => batch.map(|b| b.select(cols)),
            None => batch,
        })
    }

    fn close(&mut self) {
        self.child.close();
    }
}

/// Streaming duplicate elimination: emits each batch's first-seen rows,
/// in input order. It keeps the batches it emitted — exactly the
/// distinct rows — and a [`KeyTable`] over their rows.
struct Distinct<'a> {
    child: Metered<'a>,
    seen: KeyTable,
    /// Distinct row → `(index into kept, row)`.
    rows: Vec<(u32, u32)>,
    kept: Vec<ColumnBatch>,
    kept_bytes: u64,
    /// Every column of the input: the whole row is the key.
    cols: Vec<usize>,
}

impl Operator for Distinct<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        while let Some(batch) = self.child.next()? {
            if self.cols.len() != batch.width() {
                self.cols = (0..batch.width()).collect();
            }
            // Rows first seen in this batch point into the batch itself
            // until it is emitted as `kept[cur]`.
            let cur = self.kept.len() as u32;
            let mut fresh: Vec<u32> = Vec::new();
            for i in 0..batch.len() {
                let h = key_hash(&batch, &self.cols, i);
                let (kept, rows, cols) = (&self.kept, &self.rows, &self.cols);
                let eq = |e: u32| {
                    let (b, r) = rows[e as usize];
                    let at = if b == cur { &batch } else { &kept[b as usize] };
                    keys_eq(at, cols, r as usize, &batch, cols, i)
                };
                if self.seen.find(h, eq).is_none() {
                    self.seen.insert(h);
                    self.rows.push((cur, i as u32));
                    fresh.push(i as u32);
                }
            }
            if fresh.is_empty() {
                continue;
            }
            let start = self.rows.len() - fresh.len();
            for (k, loc) in self.rows[start..].iter_mut().enumerate() {
                loc.1 = k as u32;
            }
            let out = if fresh.len() == batch.len() { batch } else { batch.gather(&fresh) };
            self.kept_bytes += out.byte_size();
            self.kept.push(out.clone());
            return Ok(Some(out));
        }
        Ok(None)
    }

    fn close(&mut self) {
        self.seen = KeyTable::default();
        self.rows = Vec::new();
        self.kept = Vec::new();
        self.child.close();
    }

    fn mem_bytes(&self) -> u64 {
        self.kept_bytes + self.seen.byte_size() + (self.rows.len() * 8) as u64
    }
}

/// ORDER BY over the output columns (pipeline breaker).
struct Sort<'a> {
    child: Metered<'a>,
    keys: &'a [(usize, bool)],
    width: usize,
    buffer: Vec<Row>,
    in_bytes: u64,
    emitted: usize,
}

impl Operator for Sort<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.child.open()?;
        while let Some(batch) = self.child.next()? {
            self.width = self.width.max(batch.width());
            self.in_bytes += batch.byte_size();
            self.buffer.extend(batch.to_rows());
        }
        let keys = self.keys;
        self.buffer.sort_by(|a, b| {
            for &(i, desc) in keys {
                let ord = a[i].cmp(&b[i]);
                let ord = if desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        Ok(())
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        if self.emitted >= self.buffer.len() {
            return Ok(None);
        }
        let end = (self.emitted + MORSEL_SIZE).min(self.buffer.len());
        let batch = ColumnBatch::from_rows(self.width, &self.buffer[self.emitted..end]);
        self.emitted = end;
        Ok(Some(batch))
    }

    fn close(&mut self) {
        self.buffer.clear();
        self.child.close();
    }

    fn mem_bytes(&self) -> u64 {
        // The whole input is buffered until emitted, measured as the
        // batches streamed in.
        self.in_bytes
    }
}

/// LIMIT: stops pulling from its input once satisfied.
struct Limit<'a> {
    child: Metered<'a>,
    remaining: usize,
}

impl Operator for Limit<'_> {
    fn open(&mut self) -> Result<(), ExecError> {
        self.child.open()
    }

    fn next(&mut self) -> Result<Option<ColumnBatch>, ExecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.child.next()? {
            Some(batch) => {
                let batch =
                    if batch.len() > self.remaining { batch.head(self.remaining) } else { batch };
                self.remaining -= batch.len();
                Ok(Some(batch))
            }
            None => Ok(None),
        }
    }

    fn close(&mut self) {
        self.child.close();
    }
}

// ---------------------------------------------------------------------------
// Building and running
// ---------------------------------------------------------------------------

/// Materialized batches substituted for plan subtrees by node id — the
/// executor half of `aqks-equiv`'s shared-subplan DAG. The batch list
/// is `Arc`-shared so every consumer replays the same storage.
pub type SharedRows = HashMap<usize, Arc<Vec<ColumnBatch>>>;

// Everything the parallel executor shares across threads (and the
// future `aqks-server` shares across request handlers) must be
// `Send + Sync`; enforced at compile time so an `Rc`/`RefCell` can't
// creep back in.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<SharedRows>();
    assert_send_sync::<Shares>();
    assert_send_sync::<StatsCell>();
    assert_send_sync::<JoinTable>();
    assert_send_sync::<Partial>();
    assert_send_sync::<ExecStats>();
    assert_send_sync::<OpMetrics>();
};

/// What every node of one plan run is built with.
#[derive(Clone)]
struct BuildCx<'a> {
    db: &'a Database,
    stats: StatsCell,
    /// Whether a budget governor is installed (see [`Guarded`]).
    governed: bool,
    shared: &'a SharedRows,
    /// The request's shares and this plan's sites of them (node id →
    /// share slot).
    shares: Option<(&'a Shares, &'a HashMap<usize, usize>)>,
    opts: ExecOptions,
    captured: Captured<'a>,
    /// Scans drop their pushed predicates: set while building the
    /// predicate-free projection of a filtered memo site that missed.
    bare: bool,
}

fn build<'a>(node: &'a PlanNode, cx: &BuildCx<'a>) -> Result<Metered<'a>, ExecError> {
    let unfiltered;
    let (mut cx, mut filter) = (cx, Vec::new());
    if let Some(batches) = cx.shared.get(&node.id) {
        return Ok(replay(node, CachedRows::new(Arc::clone(batches)), cx));
    }
    let share = cx.shares.and_then(|(shares, sites)| Some((shares, *sites.get(&node.id)?)));
    let keep = if let Some((shares, k)) = share {
        if let Some(entry) = shares.get(k) {
            aqks_obs::counter("exec.share_replays", 1);
            return Ok(replay(node, CachedRows::replaying(entry, node, cx, true), cx));
        }
        aqks_obs::counter("exec.share_misses", 1);
        Some(Keep::Share(k))
    } else if let Some((site, pushed)) = memo_site(node, cx) {
        let hit = cx.db.memoized_projection(site.relation, site.cols);
        if let Some(entry) = hit.and_then(|v| v.downcast::<MemoEntry>().ok()) {
            aqks_obs::counter("exec.memo_hits", 1);
            let mut cached = CachedRows::replaying(entry, node, cx, false);
            cached.filter = pushed;
            return Ok(replay(node, cached, cx));
        }
        aqks_obs::counter("exec.memo_misses", 1);
        if pushed.is_empty() {
            Some(Keep::Memo(site))
        } else if !cx.governed && has_room(site, cx.db) {
            // Compute and keep the predicate-free projection, and emit
            // the rows of it that pass the pushed predicates. A governed
            // run scans as pushed: it is charged, and timed, for the
            // rows that pass, not for the whole relation.
            unfiltered = BuildCx { bare: true, shares: None, ..cx.clone() };
            (cx, filter) = (&unfiltered, pushed);
            Some(Keep::Memo(site))
        } else {
            None
        }
    } else {
        None
    };
    let child = |i: usize| build(&node.children[i], cx);
    let inner: Box<dyn Operator + 'a> = match &node.op {
        PlanOp::Scan { relation, pushed, .. } => scan(relation, pushed, cx, None)?,
        PlanOp::DerivedTable { .. } => Box::new(Passthrough { child: child(0)? }),
        PlanOp::Filter { preds } => Box::new(Filter { child: child(0)?, preds }),
        PlanOp::HashJoin { left_keys, right_keys, build_left } => Box::new(HashJoin {
            left: child(0)?,
            right: child(1)?,
            left_keys,
            right_keys,
            build_left: *build_left,
            threads: cx.opts.threads,
            gov: None,
            build: None,
            out: None,
            emitted: 0,
            build_rows: 0,
            probe_rows: 0,
            par_threads: 0,
            par_wall: Duration::ZERO,
        }),
        PlanOp::CrossJoin => {
            Box::new(CrossJoin { left: child(0)?, right: child(1)?, buffer: None, current: None })
        }
        PlanOp::HashAggregate { group, items, .. } => Box::new(HashAggregate {
            child: child(0)?,
            group,
            items,
            threads: cx.opts.threads,
            output: Vec::new(),
            emitted: 0,
            in_rows: 0,
            in_bytes: 0,
            key_bytes: 0,
            groups_out: 0,
            par_threads: 0,
            par_wall: Duration::ZERO,
        }),
        PlanOp::Project { cols, .. } => {
            let input = &node.children[0];
            // A scan directly below builds only the projected columns and
            // the projection passes its batches on; both nodes stay
            // metered, so their rows and batches are unchanged.
            let (child, cols) = match &input.op {
                PlanOp::Scan { relation, pushed, .. } if !cx.shared.contains_key(&input.id) => {
                    (metered(input, scan(relation, pushed, cx, Some(cols))?, cx), None)
                }
                _ => (child(0)?, Some(cols.as_slice())),
            };
            Box::new(Project { child, cols })
        }
        PlanOp::Distinct => Box::new(Distinct {
            child: child(0)?,
            seen: KeyTable::default(),
            rows: Vec::new(),
            kept: Vec::new(),
            kept_bytes: 0,
            cols: Vec::new(),
        }),
        PlanOp::Sort { keys } => Box::new(Sort {
            child: child(0)?,
            keys,
            width: 0,
            buffer: Vec::new(),
            in_bytes: 0,
            emitted: 0,
        }),
        PlanOp::Limit { n } => Box::new(Limit { child: child(0)?, remaining: *n }),
    };
    let inner: Box<dyn Operator + 'a> = match keep {
        Some(keep) => Box::new(Capturing {
            inner,
            capture: Some(MemoCapture {
                keep,
                ids: subtree_ids(node),
                stats: cx.stats.clone(),
                below: Vec::new(),
                emitted: Vec::new(),
                captured: Arc::clone(&cx.captured),
            }),
            filter,
        }),
        None => inner,
    };
    Ok(metered(node, inner, cx))
}

/// `node` as a replay of cached batches, budgeted at the `ops.Cached`
/// site.
fn replay<'a>(node: &PlanNode, cached: CachedRows, cx: &BuildCx<'a>) -> Metered<'a> {
    let inner: Box<dyn Operator + 'a> = Box::new(cached);
    let inner: Box<dyn Operator + 'a> =
        if cx.governed { Box::new(Guarded { site: "ops.Cached", inner }) } else { inner };
    Metered { id: node.id, stats: cx.stats.clone(), inner }
}

/// Wraps `node`'s operator in its shims. Budget enforcement sits inside
/// the metering shim so governed wall time is attributed to the operator
/// it bounds.
fn metered<'a>(node: &PlanNode, inner: Box<dyn Operator + 'a>, cx: &BuildCx<'a>) -> Metered<'a> {
    let inner: Box<dyn Operator + 'a> =
        if cx.governed { Box::new(Guarded { site: guard_site(&node.op), inner }) } else { inner };
    Metered { id: node.id, stats: cx.stats.clone(), inner }
}

/// The scan of `relation` through its `pushed` predicates (none when
/// `cx.bare`), building output columns `cols` (every column of the
/// relation when `None`).
fn scan<'a>(
    relation: &str,
    pushed: &'a [PhysPred],
    cx: &BuildCx<'a>,
    cols: Option<&[usize]>,
) -> Result<Box<dyn Operator + 'a>, ExecError> {
    let table = cx.db.table(relation).ok_or_else(|| ExecError::UnknownRelation(relation.into()))?;
    let width = table.schema.attrs.len();
    Ok(Box::new(Scan {
        rows: table.rows(),
        preds: if cx.bare { &[] } else { pushed },
        cols: cols.map_or_else(|| (0..width).collect(), <[usize]>::to_vec),
        threads: cx.opts.threads,
        width,
        gov: None,
        morsel: 0,
        batches: None,
        emitted: 0,
        par_threads: 0,
        par_wall: Duration::ZERO,
    }))
}

/// Executes a physical plan against `db`, returning the result table and
/// the per-operator metrics. When the plan carries no ORDER BY the rows
/// are stably sorted by value, so results are reproducible across runs
/// and plan changes.
pub fn run_plan(plan: &PlanNode, db: &Database) -> Result<(ResultTable, ExecStats), ExecError> {
    run_plan_opts(plan, db, &SharedRows::new(), ExecOptions::default())
}

/// [`run_plan`] with shared-subplan substitution and execution options.
/// Any node whose id appears in `shared` runs as a cached-batch replay
/// instead of its subtree (the subtree below it never builds or runs);
/// the `aqks-equiv` shared-subplan DAG materializes each shared subtree
/// once via [`materialize_batches`] and feeds the batches to every
/// consumer through here. Results are identical at every `opts.threads`
/// value; only the wall time changes.
pub fn run_plan_opts(
    plan: &PlanNode,
    db: &Database,
    shared: &SharedRows,
    opts: ExecOptions,
) -> Result<(ResultTable, ExecStats), ExecError> {
    let (batches, stats) = materialize_batches(plan, db, shared, opts)?;
    Ok((result_table(plan, &batches), stats))
}

/// [`run_plan_opts`] for one of the plans of a request that share
/// subtrees: `sites` maps node ids of `plan` to slots of `shares`. A
/// site whose slot is filled replays it, noted `shared`; otherwise its
/// subtree runs, and fills the slot if it drains to end-of-stream and
/// the whole run succeeds. The result and every node's rows and batches
/// equal those of the plan run alone; only the wall time falls.
pub fn run_plan_sharing(
    plan: &PlanNode,
    db: &Database,
    shares: &Shares,
    sites: &HashMap<usize, usize>,
    opts: ExecOptions,
) -> Result<(ResultTable, ExecStats), ExecError> {
    let (batches, stats) = run(plan, db, &SharedRows::new(), Some((shares, sites)), opts)?;
    Ok((result_table(plan, &batches), stats))
}

/// `plan`'s output batches as its result table, stably sorted by value
/// when the plan has no ORDER BY.
fn result_table(plan: &PlanNode, batches: &[ColumnBatch]) -> ResultTable {
    let mut rows: Vec<Row> = Vec::new();
    for b in batches {
        rows.extend(b.to_rows());
    }
    if !plan.is_ordered() {
        rows.sort();
    }
    let mut table = ResultTable::new(plan.output_names());
    table.rows = rows;
    table
}

/// Builds, opens and drains a plan, returning its raw output *batches*
/// in operator output order (no stabilizing sort, no column naming) and
/// the per-operator metrics — the materialization primitive for shared
/// subtrees. Nodes whose ids appear in `shared` replay the supplied
/// batches; because batches are `Arc`-shared column sets, a replay
/// costs reference-count bumps per batch, independent of its row count.
pub fn materialize_batches(
    plan: &PlanNode,
    db: &Database,
    shared: &SharedRows,
    opts: ExecOptions,
) -> Result<(Vec<ColumnBatch>, ExecStats), ExecError> {
    run(plan, db, shared, None, opts)
}

fn run<'a>(
    plan: &'a PlanNode,
    db: &'a Database,
    shared: &'a SharedRows,
    shares: Option<(&'a Shares, &'a HashMap<usize, usize>)>,
    opts: ExecOptions,
) -> Result<(Vec<ColumnBatch>, ExecStats), ExecError> {
    let t0 = Instant::now();
    let cx = BuildCx {
        db,
        stats: Arc::new(Mutex::new(vec![OpMetrics::default(); plan.max_id() + 1])),
        // One ambient probe per plan: ungoverned runs skip the Guarded
        // shims entirely, keeping the default path free.
        governed: aqks_guard::current().is_some(),
        shared,
        shares,
        opts,
        captured: Captured::default(),
        bare: false,
    };
    let mut root = build(plan, &cx)?;
    root.open()?;
    let mut batches: Vec<ColumnBatch> = Vec::new();
    while let Some(batch) = root.next()? {
        if !batch.is_empty() {
            batches.push(batch);
        }
    }
    root.close();
    drop(root);

    // The run succeeded: keep the memo sites and shares it computed to
    // end-of-stream.
    let captured = std::mem::take(&mut *par::relock(&cx.captured));
    for (keep, ids, mut entry) in captured {
        match keep {
            Keep::Memo(site) => {
                let rows: u64 = entry.batches.iter().map(|b| b.len() as u64).sum();
                let cells = rows * site.cols.len() as u64;
                db.memoize_projection(site.relation, site.cols, Arc::new(entry), cells);
            }
            Keep::Share(k) => {
                let ops = par::relock(&cx.stats);
                entry.notes = ids.iter().map(|&id| ops[id].note.clone()).collect();
                drop(ops);
                if let Some((shares, _)) = shares {
                    shares.fill(k, entry);
                }
            }
        }
    }
    let mut ops = Arc::try_unwrap(cx.stats)
        .map(|m| m.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner))
        .unwrap_or_else(|arc| par::relock(&arc).clone());
    // rows-in is the sum of each node's children's rows-out (zero below
    // a cached replay: those subtrees never ran).
    plan.visit(&mut |node| {
        let rows_in: u64 = node.children.iter().map(|c| ops[c.id].rows_out).sum();
        ops[node.id].rows_in = rows_in;
    });
    for m in &mut ops {
        if m.threads == 0 {
            m.threads = 1;
        }
    }
    // When an observability recorder is active on this thread (the
    // engine's `exec` span), graft the per-operator metrics into its
    // span tree so operator costs and pipeline phases land in one trace
    // (the engine folds that trace into the always-on metrics).
    if let Some(rec) = aqks_obs::current() {
        record_op_spans(&rec, plan, &ops, t0, None);
    }
    Ok((batches, ExecStats { ops, wall: t0.elapsed() }))
}

/// Short operator name for trace spans (the EXPLAIN label minus its
/// plan-specific detail, so span names are stable across queries).
fn op_name(op: &PlanOp) -> &'static str {
    match op {
        PlanOp::Scan { .. } => "Scan",
        PlanOp::DerivedTable { .. } => "DerivedTable",
        PlanOp::Filter { .. } => "Filter",
        PlanOp::HashJoin { .. } => "HashJoin",
        PlanOp::CrossJoin => "CrossJoin",
        PlanOp::HashAggregate { .. } => "HashAggregate",
        PlanOp::Project { .. } => "Project",
        PlanOp::Distinct => "Distinct",
        PlanOp::Sort { .. } => "Sort",
        PlanOp::Limit { .. } => "Limit",
    }
}

/// Records one completed span per plan operator, nested by plan
/// structure. Operator wall times are *inclusive* (an operator's clock
/// runs while it pulls from its inputs), so parent/child spans nest like
/// an icicle graph and per-span self time is meaningful. Spans start at
/// the plan run's `t0`: operators execute interleaved, so only the
/// durations — not the offsets — are physical. A `threads` counter is
/// added only when the operator actually went parallel, keeping
/// one-worker traces byte-identical to the pre-parallel executor.
fn record_op_spans(
    rec: &aqks_obs::Recorder,
    node: &PlanNode,
    ops: &[OpMetrics],
    t0: Instant,
    parent: Option<&aqks_obs::SpanHandle>,
) {
    let m = &ops[node.id];
    let mut counters = vec![
        ("rows_in", m.rows_in),
        ("rows_out", m.rows_out),
        ("batches", m.batches),
        ("peak_bytes", m.peak_bytes),
    ];
    if m.threads > 1 {
        counters.push(("threads", u64::from(m.threads)));
    }
    let handle =
        rec.record_span(parent, format!("op:{}", op_name(&node.op)), t0, m.wall, &counters);
    for c in &node.children {
        record_op_spans(rec, c, ops, t0, Some(&handle));
    }
}

/// Evaluates one aggregate over a group's values (NULLs skipped).
pub(crate) fn aggregate<'a, I: Iterator<Item = &'a Value>>(
    func: AggFunc,
    distinct: bool,
    vals: I,
) -> Value {
    let mut non_null: Vec<&Value> = vals.filter(|v| !v.is_null()).collect();
    if distinct {
        let mut seen = HashSet::new();
        non_null.retain(|v| seen.insert((*v).clone()));
    }
    match func {
        AggFunc::Count => Value::Int(non_null.len() as i64),
        AggFunc::Sum => {
            let all_int = non_null.iter().all(|v| matches!(v, Value::Int(_)));
            let nums: Vec<f64> = non_null.iter().filter_map(|v| v.as_f64()).collect();
            if nums.is_empty() {
                // Empty group, or nothing numeric (SUM over text): NULL.
                Value::Null
            } else if all_int {
                Value::Int(nums.iter().map(|&f| f as i64).sum())
            } else {
                Value::Float(nums.iter().sum())
            }
        }
        AggFunc::Avg => {
            let nums: Vec<f64> = non_null.iter().filter_map(|v| v.as_f64()).collect();
            if nums.is_empty() {
                Value::Null
            } else {
                Value::Float(nums.iter().sum::<f64>() / nums.len() as f64)
            }
        }
        AggFunc::Min => non_null.iter().min().map(|v| (*v).clone()).unwrap_or(Value::Null),
        AggFunc::Max => non_null.iter().max().map(|v| (*v).clone()).unwrap_or(Value::Null),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ColumnRef, Predicate, SelectItem, SelectStatement, TableExpr};
    use crate::exec::execute;
    use crate::plan::plan;
    use aqks_relational::{AttrType, RelationSchema};

    fn col(q: &str, c: &str) -> ColumnRef {
        ColumnRef::new(q, c)
    }

    /// Two relations keyed on (a, b) with NULLs in the key columns on
    /// BOTH sides; a NULL on either side of either key must not match,
    /// and NULL = NULL must not match either.
    #[test]
    fn multi_key_hash_join_skips_null_keys_on_both_sides() {
        let mut db = Database::new("nulls");
        let mut l = RelationSchema::new("L");
        l.add_attr("A", AttrType::Text).add_attr("B", AttrType::Int).add_attr("X", AttrType::Text);
        db.add_relation(l).unwrap();
        let mut r = RelationSchema::new("R");
        r.add_attr("A", AttrType::Text).add_attr("B", AttrType::Int).add_attr("Y", AttrType::Text);
        db.add_relation(r).unwrap();
        for (a, b, x) in [
            (Value::str("k1"), Value::Int(1), "l1"),
            (Value::str("k1"), Value::Int(2), "l2"),
            (Value::Null, Value::Int(1), "l-null-a"),
            (Value::str("k2"), Value::Null, "l-null-b"),
            (Value::Null, Value::Null, "l-null-both"),
        ] {
            db.insert("L", vec![a, b, Value::str(x)]).unwrap();
        }
        for (a, b, y) in [
            (Value::str("k1"), Value::Int(1), "r1"),
            (Value::str("k1"), Value::Int(1), "r1bis"),
            (Value::Null, Value::Int(1), "r-null-a"),
            (Value::str("k2"), Value::Null, "r-null-b"),
            (Value::Null, Value::Null, "r-null-both"),
        ] {
            db.insert("R", vec![a, b, Value::str(y)]).unwrap();
        }
        let stmt = SelectStatement {
            items: vec![
                SelectItem::Column { col: col("L", "X"), alias: None },
                SelectItem::Column { col: col("R", "Y"), alias: None },
            ],
            from: vec![
                TableExpr::Relation { name: "L".into(), alias: "L".into() },
                TableExpr::Relation { name: "R".into(), alias: "R".into() },
            ],
            predicates: vec![
                Predicate::JoinEq(col("L", "A"), col("R", "A")),
                Predicate::JoinEq(col("L", "B"), col("R", "B")),
            ],
            ..Default::default()
        };
        let p = plan(&stmt, &db).unwrap();
        let (t, stats) = run_plan(&p, &db).unwrap();
        // Only (k1, 1) matches, twice on the right.
        assert_eq!(t.len(), 2, "{t}");
        for row in &t.rows {
            assert_eq!(row[0], Value::str("l1"));
        }
        // Both join keys were consumed by one multi-key hash join.
        let mut joins = 0;
        p.visit(&mut |n| {
            if let crate::plan::PlanOp::HashJoin { left_keys, .. } = &n.op {
                joins += 1;
                assert_eq!(left_keys.len(), 2);
            }
        });
        assert_eq!(joins, 1);
        assert!(stats.ops.iter().any(|m| m.note.is_some()), "join recorded build/probe note");
    }

    /// Metrics invariants: rows_in of every operator equals the sum of
    /// its children's rows_out, and the root's rows_out matches the
    /// result cardinality.
    #[test]
    fn stats_rows_are_consistent_across_the_tree() {
        let mut db = Database::new("t");
        let mut s = RelationSchema::new("T");
        s.add_attr("K", AttrType::Int).add_attr("V", AttrType::Int);
        db.add_relation(s).unwrap();
        for i in 0..2500i64 {
            db.insert("T", vec![Value::Int(i % 7), Value::Int(i)]).unwrap();
        }
        let stmt = SelectStatement {
            items: vec![
                SelectItem::Column { col: col("T", "K"), alias: None },
                SelectItem::Aggregate {
                    func: crate::ast::AggFunc::Count,
                    arg: col("T", "V"),
                    distinct: false,
                    alias: "n".into(),
                },
            ],
            from: vec![TableExpr::Relation { name: "T".into(), alias: "T".into() }],
            group_by: vec![col("T", "K")],
            ..Default::default()
        };
        let p = plan(&stmt, &db).unwrap();
        let (t, stats) = run_plan(&p, &db).unwrap();
        assert_eq!(t.len(), 7);
        p.visit(&mut |n| {
            let expect: u64 = n.children.iter().map(|c| stats.ops[c.id].rows_out).sum();
            assert_eq!(stats.ops[n.id].rows_in, expect, "node {}", n.label());
        });
        assert_eq!(stats.ops[p.id].rows_out, 7);
        // 2500 rows cross the batch boundary: the scan emitted >1 batch.
        let scan = p.children[0].id;
        assert!(stats.ops[scan].batches >= 3, "batched scan: {}", stats.ops[scan].batches);
        assert_eq!(stats.ops[scan].rows_out, 2500);
        // A sequential run reports threads=1 on every operator.
        assert_eq!(stats.max_threads(), 1);
        assert_eq!(stats.parallel_ops(), 0);
    }

    /// LIMIT stops pulling batches from its input once satisfied.
    #[test]
    fn limit_short_circuits_the_scan() {
        let mut db = Database::new("t");
        let mut s = RelationSchema::new("T");
        s.add_attr("V", AttrType::Int);
        db.add_relation(s).unwrap();
        for i in 0..10_000i64 {
            db.insert("T", vec![Value::Int(i)]).unwrap();
        }
        let stmt = SelectStatement {
            items: vec![SelectItem::Column { col: col("T", "V"), alias: None }],
            from: vec![TableExpr::Relation { name: "T".into(), alias: "T".into() }],
            limit: Some(5),
            ..Default::default()
        };
        let p = plan(&stmt, &db).unwrap();
        let (t, stats) = run_plan(&p, &db).unwrap();
        assert_eq!(t.len(), 5);
        let mut scan_out = 0;
        p.visit(&mut |n| {
            if matches!(n.op, crate::plan::PlanOp::Scan { .. }) {
                scan_out = stats.ops[n.id].rows_out;
            }
        });
        assert!(scan_out <= 1024, "scan stopped after one batch, saw {scan_out}");
    }

    /// Equal results and stable order from repeated runs (the
    /// no-ORDER-BY canonicalization).
    #[test]
    fn repeated_runs_are_identical() {
        let mut db = Database::new("t");
        let mut s = RelationSchema::new("T");
        s.add_attr("K", AttrType::Int).add_attr("V", AttrType::Text);
        db.add_relation(s).unwrap();
        for i in 0..50i64 {
            db.insert("T", vec![Value::Int(i % 11), Value::str(format!("v{i}"))]).unwrap();
        }
        let stmt = SelectStatement {
            items: vec![
                SelectItem::Column { col: col("T", "K"), alias: None },
                SelectItem::Column { col: col("T", "V"), alias: None },
            ],
            from: vec![TableExpr::Relation { name: "T".into(), alias: "T".into() }],
            ..Default::default()
        };
        let first = crate::exec::execute(&stmt, &db).unwrap();
        for _ in 0..5 {
            assert_eq!(crate::exec::execute(&stmt, &db).unwrap().rows, first.rows);
        }
        assert!(first.rows.windows(2).all(|w| w[0] <= w[1]));
    }
    /// Helper: a Student-Enrol join statement over a fresh database with
    /// `n` students and `2n` enrolments (Enrol is the larger side, so
    /// the planner builds the hash table from Student).
    fn join_fixture(n: i64) -> (Database, SelectStatement) {
        let mut db = Database::new("gov");
        let mut s = RelationSchema::new("Student");
        s.add_attr("Sid", AttrType::Int).add_attr("Sname", AttrType::Text);
        db.add_relation(s).unwrap();
        let mut e = RelationSchema::new("Enrol");
        e.add_attr("Sid", AttrType::Int).add_attr("Code", AttrType::Text);
        db.add_relation(e).unwrap();
        for i in 0..n {
            db.insert("Student", vec![Value::Int(i), Value::str(format!("s{i}"))]).unwrap();
            for j in 0..2 {
                db.insert("Enrol", vec![Value::Int(i), Value::str(format!("c{j}"))]).unwrap();
            }
        }
        let stmt = SelectStatement {
            items: vec![
                SelectItem::Column { col: col("S", "Sname"), alias: None },
                SelectItem::Column { col: col("E", "Code"), alias: None },
            ],
            from: vec![
                TableExpr::Relation { name: "Student".into(), alias: "S".into() },
                TableExpr::Relation { name: "Enrol".into(), alias: "E".into() },
            ],
            predicates: vec![Predicate::JoinEq(col("S", "Sid"), col("E", "Sid"))],
            ..Default::default()
        };
        (db, stmt)
    }

    /// The kernels (morsel scan, partitioned join build, two-phase
    /// aggregate) produce byte-identical stabilized results at every
    /// thread count, every operator emits the same rows in the same
    /// number of batches, and the stats record where parallelism
    /// applied.
    #[test]
    fn parallel_execution_matches_sequential() {
        let (db, stmt) = join_fixture(6000);
        let p = plan(&stmt, &db).unwrap();
        let (reference, ref_stats) = run_plan(&p, &db).unwrap();
        let shape =
            |s: &ExecStats| s.ops.iter().map(|m| (m.rows_out, m.batches)).collect::<Vec<_>>();
        for threads in [2, 4, 8] {
            let (t, stats) =
                run_plan_opts(&p, &db, &SharedRows::new(), ExecOptions::with_threads(threads))
                    .unwrap();
            assert_eq!(t.rows, reference.rows, "threads={threads}");
            assert_eq!(shape(&stats), shape(&ref_stats), "(rows_out, batches) at {threads}");
            assert!(stats.max_threads() > 1, "parallel sections ran at threads={threads}");
            assert!(stats.parallel_ops() >= 1);
        }
    }

    /// A cross join emits its product in bounded windows, not one batch
    /// per left batch, so no single batch outgrows a row budget's reach.
    #[test]
    fn cross_join_output_batches_are_bounded() {
        let mut db = Database::new("t");
        for name in ["A", "B"] {
            let mut s = RelationSchema::new(name);
            s.add_attr("X", AttrType::Int);
            db.add_relation(s).unwrap();
            for i in 0..2000i64 {
                db.insert(name, vec![Value::Int(i)]).unwrap();
            }
        }
        let stmt = SelectStatement {
            items: vec![SelectItem::Aggregate {
                func: AggFunc::Count,
                arg: col("A", "X"),
                distinct: false,
                alias: "n".into(),
            }],
            from: vec![
                TableExpr::Relation { name: "A".into(), alias: "A".into() },
                TableExpr::Relation { name: "B".into(), alias: "B".into() },
            ],
            ..Default::default()
        };
        let p = plan(&stmt, &db).unwrap();
        let (t, stats) = run_plan(&p, &db).unwrap();
        assert_eq!(t.scalar(), Some(&Value::Int(4_000_000)));
        let mut cross = None;
        p.visit(&mut |n| {
            if matches!(n.op, PlanOp::CrossJoin) {
                cross = Some(&stats.ops[n.id]);
            }
        });
        let m = cross.expect("plan has a cross join");
        assert_eq!(m.rows_out, 4_000_000);
        assert!(
            m.rows_out <= m.batches * MORSEL_SIZE as u64,
            "{} rows in {} batches",
            m.rows_out,
            m.batches
        );
    }

    /// The two-phase aggregate preserves group order, float summation
    /// order, DISTINCT handling and first-row group columns at every
    /// thread count.
    #[test]
    fn parallel_aggregate_matches_sequential() {
        let mut db = Database::new("t");
        let mut s = RelationSchema::new("T");
        s.add_attr("K", AttrType::Int).add_attr("F", AttrType::Float).add_attr("V", AttrType::Int);
        db.add_relation(s).unwrap();
        for i in 0..9000i64 {
            let f = if i % 13 == 0 { Value::Null } else { Value::Float((i as f64) * 0.37 - 950.0) };
            db.insert("T", vec![Value::Int(i % 97), f, Value::Int(i % 5)]).unwrap();
        }
        let stmt = SelectStatement {
            items: vec![
                SelectItem::Column { col: col("T", "K"), alias: None },
                SelectItem::Aggregate {
                    func: AggFunc::Sum,
                    arg: col("T", "F"),
                    distinct: false,
                    alias: "s".into(),
                },
                SelectItem::Aggregate {
                    func: AggFunc::Avg,
                    arg: col("T", "F"),
                    distinct: false,
                    alias: "a".into(),
                },
                SelectItem::Aggregate {
                    func: AggFunc::Count,
                    arg: col("T", "V"),
                    distinct: true,
                    alias: "d".into(),
                },
                SelectItem::Aggregate {
                    func: AggFunc::Min,
                    arg: col("T", "F"),
                    distinct: false,
                    alias: "lo".into(),
                },
                SelectItem::Aggregate {
                    func: AggFunc::Max,
                    arg: col("T", "F"),
                    distinct: false,
                    alias: "hi".into(),
                },
            ],
            from: vec![TableExpr::Relation { name: "T".into(), alias: "T".into() }],
            group_by: vec![col("T", "K")],
            ..Default::default()
        };
        let p = plan(&stmt, &db).unwrap();
        let (reference, _) = run_plan(&p, &db).unwrap();
        for threads in [2, 3, 4, 8] {
            let (t, _) =
                run_plan_opts(&p, &db, &SharedRows::new(), ExecOptions::with_threads(threads))
                    .unwrap();
            assert_eq!(t.rows, reference.rows, "threads={threads}");
        }
    }

    /// Row cap sized to survive the build-side scan but not the hash
    /// table it feeds: the trip names `ops.HashJoin.build`, the
    /// materialization site, not the streaming scan.
    #[test]
    fn row_cap_trips_inside_hash_join_build() {
        let (db, stmt) = join_fixture(50);
        let gov = aqks_guard::Governor::new(&aqks_guard::Budget::unlimited().with_max_rows(60));
        let _g = aqks_guard::install(&gov);
        let err = execute(&stmt, &db).unwrap_err();
        match err {
            ExecError::Budget(t) => {
                assert_eq!(t.kind, aqks_guard::BudgetKind::Rows);
                assert_eq!(t.site, "ops.HashJoin.build");
            }
            other => panic!("expected budget trip, got {other:?}"),
        }
        assert_eq!(gov.trip().map(|t| t.site), Some("ops.HashJoin.build"));
    }

    /// Row charging happens on the plan's thread at the same sites
    /// regardless of thread count, so the cap trips identically under a
    /// parallel run.
    #[test]
    fn row_cap_trips_identically_when_parallel() {
        let (db, stmt) = join_fixture(50);
        let p = plan(&stmt, &db).unwrap();
        let gov = aqks_guard::Governor::new(&aqks_guard::Budget::unlimited().with_max_rows(60));
        let _g = aqks_guard::install(&gov);
        let err =
            run_plan_opts(&p, &db, &SharedRows::new(), ExecOptions::with_threads(4)).unwrap_err();
        match err {
            ExecError::Budget(t) => {
                assert_eq!(t.kind, aqks_guard::BudgetKind::Rows);
                assert_eq!(t.site, "ops.HashJoin.build");
            }
            other => panic!("expected budget trip, got {other:?}"),
        }
    }

    /// An expired deadline cancels the plan at the next per-batch
    /// checkpoint instead of running to completion.
    #[test]
    fn expired_deadline_cancels_next_batch() {
        let (db, stmt) = join_fixture(50);
        let gov = aqks_guard::Governor::new(
            &aqks_guard::Budget::unlimited().with_timeout(Duration::ZERO),
        );
        let _g = aqks_guard::install(&gov);
        let err = execute(&stmt, &db).unwrap_err();
        match err {
            ExecError::Budget(t) => {
                assert_eq!(t.kind, aqks_guard::BudgetKind::Deadline);
                assert!(t.site.starts_with("ops."), "deadline caught in an operator: {}", t.site);
            }
            other => panic!("expected deadline trip, got {other:?}"),
        }
    }

    /// Workers poll the captured governor mid-morsel: an expired
    /// deadline cancels a parallel run with a structured budget trip —
    /// no panic, and the scoped pool joins all workers before returning.
    #[test]
    fn expired_deadline_cancels_parallel_workers() {
        let (db, stmt) = join_fixture(6000);
        let p = plan(&stmt, &db).unwrap();
        let gov = aqks_guard::Governor::new(
            &aqks_guard::Budget::unlimited().with_timeout(Duration::ZERO),
        );
        let _g = aqks_guard::install(&gov);
        let err =
            run_plan_opts(&p, &db, &SharedRows::new(), ExecOptions::with_threads(4)).unwrap_err();
        match err {
            ExecError::Budget(t) => {
                assert_eq!(t.kind, aqks_guard::BudgetKind::Deadline);
                assert!(t.site.starts_with("ops."), "deadline site: {}", t.site);
            }
            other => panic!("expected deadline trip, got {other:?}"),
        }
    }

    /// Without an installed governor the same query runs to completion —
    /// the Guarded shim is not even constructed.
    #[test]
    fn ungoverned_plans_are_unaffected() {
        let (db, stmt) = join_fixture(50);
        let t = execute(&stmt, &db).unwrap();
        assert_eq!(t.len(), 100);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn join_build_failpoint_surfaces_typed_error() {
        let (db, stmt) = join_fixture(5);
        aqks_guard::failpoint::enable("join.build");
        let err = execute(&stmt, &db).unwrap_err();
        assert_eq!(err, ExecError::Fault("join.build"));
        aqks_guard::failpoint::disable("join.build");
        assert_eq!(execute(&stmt, &db).unwrap().len(), 10);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn agg_finalize_failpoint_surfaces_typed_error() {
        let mut db = Database::new("t");
        let mut s = RelationSchema::new("T");
        s.add_attr("K", AttrType::Int);
        db.add_relation(s).unwrap();
        db.insert("T", vec![Value::Int(1)]).unwrap();
        let stmt = SelectStatement {
            items: vec![SelectItem::Aggregate {
                func: AggFunc::Count,
                arg: col("T", "K"),
                distinct: false,
                alias: "n".into(),
            }],
            from: vec![TableExpr::Relation { name: "T".into(), alias: "T".into() }],
            ..Default::default()
        };
        aqks_guard::failpoint::enable("agg.finalize");
        let err = execute(&stmt, &db).unwrap_err();
        assert_eq!(err, ExecError::Fault("agg.finalize"));
        aqks_guard::failpoint::clear();
        assert_eq!(execute(&stmt, &db).unwrap().scalar(), Some(&Value::Int(1)));
    }

    // -----------------------------------------------------------------
    // Key table: hashing, verification and the operators built on it
    // -----------------------------------------------------------------

    /// A database of `Float`/`Text`/`Date`/`Int` tables `(name, rows)`
    /// with columns K1, K2, D and V. A `Float` attribute also accepts
    /// ints, so K1 can be a mixed Int/Float column.
    fn keyed_db(tables: &[(&str, Vec<Row>)]) -> Database {
        let mut db = Database::new("keys");
        for (name, rows) in tables {
            let mut s = RelationSchema::new(*name);
            s.add_attr("K1", AttrType::Float)
                .add_attr("K2", AttrType::Text)
                .add_attr("D", AttrType::Date)
                .add_attr("V", AttrType::Int);
            db.add_relation(s).unwrap();
            for r in rows {
                db.insert(name, r.clone()).unwrap();
            }
        }
        db
    }

    fn items(cols: &[(&str, &str)]) -> Vec<SelectItem> {
        cols.iter().map(|(q, c)| SelectItem::Column { col: col(q, c), alias: None }).collect()
    }

    fn from(names: &[&str]) -> Vec<TableExpr> {
        names
            .iter()
            .map(|n| TableExpr::Relation { name: n.to_string(), alias: n.to_string() })
            .collect()
    }

    fn agg(func: AggFunc, q: &str, c: &str) -> SelectItem {
        SelectItem::Aggregate {
            func,
            arg: col(q, c),
            distinct: false,
            alias: format!("{func:?}_{c}").to_lowercase(),
        }
    }

    /// `SELECT DISTINCT T.<cols> FROM T`.
    fn distinct_stmt(cols: &[&str]) -> SelectStatement {
        let cols: Vec<(&str, &str)> = cols.iter().map(|c| ("T", *c)).collect();
        SelectStatement {
            distinct: true,
            items: items(&cols),
            from: from(&["T"]),
            ..Default::default()
        }
    }

    /// `L ⋈ R` on every column of `keys`, selecting both sides' K1, K2, V.
    fn join_stmt(keys: &[&str]) -> SelectStatement {
        SelectStatement {
            items: items(&[
                ("L", "K1"),
                ("L", "K2"),
                ("L", "V"),
                ("R", "K1"),
                ("R", "K2"),
                ("R", "V"),
            ]),
            from: from(&["L", "R"]),
            predicates: keys.iter().map(|k| Predicate::JoinEq(col("L", k), col("R", k))).collect(),
            ..Default::default()
        }
    }

    /// `SELECT <keys>, COUNT(V), MIN(V), MAX(V) FROM T GROUP BY <keys>`.
    fn group_stmt(keys: &[&str]) -> SelectStatement {
        let cols: Vec<(&str, &str)> = keys.iter().map(|k| ("T", *k)).collect();
        let mut it = items(&cols);
        it.extend([AggFunc::Count, AggFunc::Min, AggFunc::Max].map(|f| agg(f, "T", "V")));
        SelectStatement {
            items: it,
            from: from(&["T"]),
            group_by: keys.iter().map(|k| col("T", k)).collect(),
            ..Default::default()
        }
    }

    /// Output rows in operator output order (no stabilizing sort).
    fn raw_rows(stmt: &SelectStatement, db: &Database, threads: usize) -> Vec<Row> {
        let p = plan(stmt, db).unwrap();
        let (batches, _) =
            materialize_batches(&p, db, &SharedRows::new(), ExecOptions::with_threads(threads))
                .unwrap();
        batches.iter().flat_map(ColumnBatch::to_rows).collect()
    }

    fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort();
        rows
    }

    fn row(k1: Value, k2: Value, d: Value, v: i64) -> Row {
        vec![k1, k2, d, Value::Int(v)]
    }

    /// Every slot feeds the hasher exactly what `Value::hash` feeds, so
    /// `Value`-equal keys across column representations hash equal.
    #[test]
    fn key_hash_feeds_value_hash_bytes() {
        let date = Value::Date(aqks_relational::Date::new(2020, 2, 29));
        let rows = vec![
            vec![
                Value::Int(2),
                Value::Float(2.0),
                Value::str("ab"),
                Value::Float(2.0),
                date.clone(),
            ],
            vec![Value::Null, Value::Float(-0.0), Value::Null, Value::Int(7), Value::Null],
            vec![Value::Int(-9), Value::Float(f64::NAN), Value::str(""), Value::Null, date],
        ];
        let batch = ColumnBatch::from_rows(5, &rows);
        assert!(matches!(batch.column(0).data(), ColumnData::Int(_)));
        assert!(matches!(batch.column(3).data(), ColumnData::Any(_)));
        let cols = [0, 1, 2, 3, 4];
        for (i, r) in rows.iter().enumerate() {
            let mut h = KeyHasher(0);
            r.iter().for_each(|v| v.hash(&mut h));
            assert_eq!(key_hash(&batch, &cols, i), h.finish(), "row {i}");
        }
        let one = |v: Value| key_hash(&ColumnBatch::from_rows(1, &[vec![v]]), &[0], 0);
        assert_eq!(one(Value::Int(2)), one(Value::Float(2.0)));
        assert_eq!(one(Value::Float(0.0)), one(Value::Float(-0.0)));
        assert_eq!(one(Value::Float(f64::NAN)), one(Value::Float(-f64::NAN)));
        assert_ne!(one(Value::str("ab")), one(Value::str("ba")));
    }

    /// `Value` hashes ints through `f64`, so 2^53 and 2^53 + 1 collide
    /// without being equal: the verify after every hash hit keeps them
    /// apart in DISTINCT, in the join and in GROUP BY.
    #[test]
    fn colliding_keys_stay_apart() {
        let (a, b) = (Value::Int(1 << 53), Value::Int((1 << 53) + 1));
        let batch = ColumnBatch::from_rows(1, &[vec![a.clone()], vec![b.clone()]]);
        assert_eq!(key_hash(&batch, &[0], 0), key_hash(&batch, &[0], 1), "a forced collision");
        assert_ne!(a, b);
        let mut db = Database::new("collide");
        for name in ["L", "R"] {
            let mut s = RelationSchema::new(name);
            s.add_attr("K", AttrType::Int).add_attr("V", AttrType::Int);
            db.add_relation(s).unwrap();
        }
        for (k, v) in [(&a, 1), (&b, 2), (&a, 3)] {
            db.insert("L", vec![k.clone(), Value::Int(v)]).unwrap();
        }
        db.insert("R", vec![b.clone(), Value::Int(9)]).unwrap();
        for threads in [1, 2] {
            let distinct = SelectStatement {
                distinct: true,
                items: items(&[("L", "K")]),
                from: from(&["L"]),
                ..Default::default()
            };
            assert_eq!(raw_rows(&distinct, &db, threads), vec![vec![a.clone()], vec![b.clone()]]);
            let join = SelectStatement {
                items: items(&[("L", "V"), ("R", "V")]),
                from: from(&["L", "R"]),
                predicates: vec![Predicate::JoinEq(col("L", "K"), col("R", "K"))],
                ..Default::default()
            };
            assert_eq!(raw_rows(&join, &db, threads), vec![vec![Value::Int(2), Value::Int(9)]]);
            let groups = SelectStatement {
                items: vec![
                    SelectItem::Column { col: col("L", "K"), alias: None },
                    agg(AggFunc::Count, "L", "V"),
                ],
                from: from(&["L"]),
                group_by: vec![col("L", "K")],
                ..Default::default()
            };
            assert_eq!(
                raw_rows(&groups, &db, threads),
                vec![vec![a.clone(), Value::Int(2)], vec![b.clone(), Value::Int(1)]]
            );
        }
    }

    /// An Int key column joins a Float key column under `Value`
    /// equality: 2 matches 2.0, 3 does not match 3.5.
    #[test]
    fn int_key_column_joins_float_key_column() {
        let mut db = Database::new("mixed");
        let mut s = RelationSchema::new("I");
        s.add_attr("K", AttrType::Int);
        db.add_relation(s).unwrap();
        let mut s = RelationSchema::new("F");
        s.add_attr("K", AttrType::Float).add_attr("W", AttrType::Text);
        db.add_relation(s).unwrap();
        for k in [1, 2, 3] {
            db.insert("I", vec![Value::Int(k)]).unwrap();
        }
        for (k, w) in [(2.0, "two"), (3.5, "three and a half"), (2.0, "two again")] {
            db.insert("F", vec![Value::Float(k), Value::str(w)]).unwrap();
        }
        let stmt = SelectStatement {
            items: items(&[("I", "K"), ("F", "W")]),
            from: from(&["I", "F"]),
            predicates: vec![Predicate::JoinEq(col("I", "K"), col("F", "K"))],
            ..Default::default()
        };
        for threads in [1, 2] {
            assert_eq!(
                sorted(raw_rows(&stmt, &db, threads)),
                vec![
                    vec![Value::Int(2), Value::str("two")],
                    vec![Value::Int(2), Value::str("two again")],
                ]
            );
        }
    }

    /// `0.0`/`-0.0` and NaN/NaN are one key in DISTINCT and GROUP BY;
    /// DISTINCT keeps one all-NULL row, and NULL keys never join.
    #[test]
    fn zero_nan_and_null_keys() {
        let t = vec![
            row(Value::Float(0.0), Value::Null, Value::Null, 1),
            row(Value::Float(f64::NAN), Value::Null, Value::Null, 2),
            row(Value::Float(-0.0), Value::Null, Value::Null, 3),
            row(Value::Float(-f64::NAN), Value::Null, Value::Null, 4),
            row(Value::Null, Value::Null, Value::Null, 5),
            row(Value::Null, Value::Null, Value::Null, 6),
        ];
        let db = keyed_db(&[("T", t.clone()), ("L", t.clone()), ("R", t)]);
        for threads in [1, 2] {
            let got = raw_rows(&distinct_stmt(&["K1", "K2", "D"]), &db, threads);
            let want = vec![
                vec![Value::Float(0.0), Value::Null, Value::Null],
                vec![Value::Float(f64::NAN), Value::Null, Value::Null],
                vec![Value::Null, Value::Null, Value::Null],
            ];
            assert_eq!(got, want);
            let got = raw_rows(&group_stmt(&["K1"]), &db, threads);
            let counts: Vec<Value> = got.iter().map(|r| r[1].clone()).collect();
            assert_eq!(counts, [2, 2, 2].map(Value::Int));
            // Every L row has a NULL K2, so nothing joins on (K1, K2);
            // on K1 alone, 0.0 and NaN each match 2 x 2 rows.
            assert!(raw_rows(&join_stmt(&["K1", "K2"]), &db, threads).is_empty());
            assert_eq!(raw_rows(&join_stmt(&["K1"]), &db, threads).len(), 8);
        }
    }

    /// xorshift64*, for the fixed-seed differential test.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        }

        /// A K1, K2, D, V row: K1 mixes Int, Float, ±0.0, NaN and NULL.
        fn row(&mut self) -> Row {
            let k1 = match self.below(10) {
                0 => Value::Null,
                1 => Value::Float(0.0),
                2 => Value::Float(-0.0),
                3 => Value::Float(f64::NAN),
                4..=6 => Value::Int(self.below(40) as i64),
                _ => Value::Float(self.below(40) as f64),
            };
            let k2 = match self.below(6) {
                0 => Value::Null,
                n => Value::str(["a", "b", "c", "d", "e"][n as usize - 1]),
            };
            let d = match self.below(3) {
                0 => Value::Null,
                n => Value::Date(aqks_relational::Date::new(2020, n as u8, 1)),
            };
            let v = match self.below(8) {
                0 => Value::Null,
                _ => Value::Int(self.below(100) as i64),
            };
            vec![k1, k2, d, v]
        }
    }

    /// Distinct, HashJoin and HashAggregate against naive references
    /// (a hash set of rows, a nested loop, a `BTreeMap` grouping) on mixed
    /// Int/Float/Str/Date/NULL keys at 1 and 2 threads, large enough for
    /// the parallel kernels to run.
    #[test]
    fn key_operators_match_naive_references() {
        use std::collections::BTreeMap;
        let mut rng = Rng(0x5eed_1234_abcd_0042);
        let t: Vec<Row> = (0..5000).map(|_| rng.row()).collect();
        let l: Vec<Row> = (0..4200).map(|_| rng.row()).collect();
        let r: Vec<Row> = (0..4200).map(|_| rng.row()).collect();
        let db = keyed_db(&[("T", t.clone()), ("L", l.clone()), ("R", r.clone())]);

        // DISTINCT: first-seen order.
        let mut seen = HashSet::new();
        let want_distinct: Vec<Row> =
            t.iter().map(|x| x[..3].to_vec()).filter(|k| seen.insert(k.clone())).collect();
        // Join on (K1, K2): NULL never matches.
        let mut want_join = Vec::new();
        for x in &l {
            for y in &r {
                if (0..2).all(|k| !x[k].is_null() && x[k] == y[k]) {
                    let pick = |z: &Row| vec![z[0].clone(), z[1].clone(), z[3].clone()];
                    want_join.push([pick(x), pick(y)].concat());
                }
            }
        }
        // GROUP BY (K1, K2): groups in first-appearance order.
        let mut index: BTreeMap<Row, usize> = BTreeMap::new();
        let mut groups: Vec<(Row, Vec<Value>)> = Vec::new();
        for x in &t {
            let key = vec![x[0].clone(), x[1].clone()];
            let g = *index.entry(key.clone()).or_insert_with(|| {
                groups.push((key, Vec::new()));
                groups.len() - 1
            });
            groups[g].1.push(x[3].clone());
        }
        let want_groups: Vec<Row> = groups
            .into_iter()
            .map(|(mut key, vs)| {
                let vs: Vec<&Value> = vs.iter().filter(|v| !v.is_null()).collect();
                key.push(Value::Int(vs.len() as i64));
                key.push(vs.iter().min().map_or(Value::Null, |v| (*v).clone()));
                key.push(vs.iter().max().map_or(Value::Null, |v| (*v).clone()));
                key
            })
            .collect();
        assert!(want_join.len() > 1000 && want_groups.len() > 50, "a non-trivial fixture");

        for threads in [1, 2] {
            assert_eq!(raw_rows(&distinct_stmt(&["K1", "K2", "D"]), &db, threads), want_distinct);
            assert_eq!(
                sorted(raw_rows(&join_stmt(&["K1", "K2"]), &db, threads)),
                sorted(want_join.clone()),
                "threads={threads}"
            );
            assert_eq!(raw_rows(&group_stmt(&["K1", "K2"]), &db, threads), want_groups);
        }
    }

    /// A scan under a projection builds only the projected columns (the
    /// explain note says how many), and a scan alone builds them all.
    #[test]
    fn scans_build_only_the_columns_their_consumer_reads() {
        let t = vec![row(Value::Int(1), Value::str("a"), Value::Null, 1)];
        let db = keyed_db(&[("T", t)]);
        let note_of_scan = |stmt: &SelectStatement| {
            let p = plan(stmt, &db).unwrap();
            let (_, stats) = run_plan(&p, &db).unwrap();
            let mut note = None;
            p.visit(&mut |n| {
                if matches!(n.op, PlanOp::Scan { .. }) {
                    note = stats.ops[n.id].note.clone();
                }
            });
            note
        };
        assert_eq!(note_of_scan(&distinct_stmt(&["K2"])).as_deref(), Some("cols=1/4"));
        assert_eq!(note_of_scan(&group_stmt(&["K1"])).as_deref(), Some("cols=4/4"));
    }

    // -----------------------------------------------------------------
    // Memoized projections
    // -----------------------------------------------------------------

    /// Per-operator `(rows_in, rows_out, batches)` and notes of one run.
    type OpRows = Vec<(u64, u64, u64)>;

    /// Output rows, per-operator rows and notes of one run of `stmt`.
    fn memo_run(
        stmt: &SelectStatement,
        db: &Database,
        threads: usize,
    ) -> (Vec<Row>, OpRows, Vec<Option<String>>) {
        let p = plan(stmt, db).unwrap();
        let (t, stats) =
            run_plan_opts(&p, db, &SharedRows::new(), ExecOptions::with_threads(threads)).unwrap();
        let rows = stats.ops.iter().map(|m| (m.rows_in, m.rows_out, m.batches)).collect();
        (t.rows, rows, stats.ops.into_iter().map(|m| m.note).collect())
    }

    /// 3000 rows of T with 1100 distinct `(K2, V)` pairs: the scan of
    /// `SELECT DISTINCT T.K2, T.V` emits three batches and the Distinct
    /// two, the last before the scan's third.
    fn memo_db() -> Database {
        let rows = (0..3000)
            .map(|i| row(Value::Int(i), Value::str(format!("k{}", i % 2)), Value::Null, i % 1100))
            .collect();
        keyed_db(&[("T", rows)])
    }

    fn limited(mut stmt: SelectStatement, n: usize) -> SelectStatement {
        stmt.limit = Some(n);
        stmt
    }

    /// A warm run replays the memo at any thread count with the rows,
    /// per-operator rows and batches of a cold run on a fresh copy, and
    /// marks the replayed subtree `memo`.
    #[test]
    fn memo_replays_a_projection_with_the_metrics_it_was_computed_with() {
        let db = memo_db();
        let stmt = distinct_stmt(&["K2", "V"]);
        let cold = memo_run(&stmt, &db, 4);
        assert!(cold.2.iter().all(|n| n.as_deref() != Some("memo")));
        assert_eq!(db.memo_cells(), 1100 * 2);
        for threads in [1, 4] {
            let warm = memo_run(&stmt, &db, threads);
            assert_eq!((&warm.0, &warm.1), (&cold.0, &cold.1), "threads={threads}");
            assert_eq!(warm.2.iter().filter(|n| n.as_deref() == Some("memo")).count(), 3);
        }
        assert_eq!(memo_run(&stmt, &db.clone(), 1).2, cold.2, "a clone starts cold");
        let mut batches: Vec<u64> = cold.1.iter().map(|r| r.2).collect();
        batches.sort();
        assert_eq!(batches, [2, 3, 3], "Distinct, Project and Scan batches");
    }

    /// A consumer that stops early memoizes nothing; once the full
    /// projection is memoized, a stopped replay reports what the stopped
    /// computation reports.
    #[test]
    fn memo_fills_only_at_end_of_stream_and_replays_early_stops() {
        let db = memo_db();
        let stmt = distinct_stmt(&["K2", "V"]);
        assert_eq!(memo_run(&limited(stmt.clone(), 1), &db, 1).0.len(), 1);
        assert_eq!(db.memo_cells(), 0, "LIMIT stopped the Distinct early");
        assert_eq!(memo_run(&stmt, &db, 1).0.len(), 1100, "every distinct value");
        assert_eq!(db.memo_cells(), 1100 * 2);
        for n in [1, 1024, 1100] {
            let warm = memo_run(&limited(stmt.clone(), n), &db, 1);
            let fresh = memo_run(&limited(stmt.clone(), n), &memo_db(), 1);
            assert_eq!((warm.0, warm.1), (fresh.0, fresh.1), "LIMIT {n}");
        }
    }

    /// Inserting into the database drops its memo; the next run sees
    /// the new row.
    #[test]
    fn memo_is_dropped_by_insert() {
        let mut db = memo_db();
        let stmt = distinct_stmt(&["K2", "V"]);
        memo_run(&stmt, &db, 1);
        assert!(db.memo_cells() > 0);
        db.insert("T", row(Value::Int(0), Value::str("new"), Value::Null, 0)).unwrap();
        assert_eq!(db.memo_cells(), 0);
        let (rows, _, notes) = memo_run(&stmt, &db, 1);
        assert_eq!(rows.len(), 1101);
        assert!(notes.iter().all(|n| n.as_deref() != Some("memo")));
    }

    /// A budget trip inside the projection memoizes nothing, and the next
    /// unlimited run answers as a fresh database does.
    #[test]
    fn memo_skips_runs_that_trip_their_budget() {
        let db = memo_db();
        let stmt = distinct_stmt(&["K2", "V"]);
        {
            let gov =
                aqks_guard::Governor::new(&aqks_guard::Budget::unlimited().with_max_rows(2000));
            let _g = aqks_guard::install(&gov);
            assert!(matches!(execute(&stmt, &db), Err(ExecError::Budget(_))));
        }
        assert_eq!(db.memo_cells(), 0);
        let (rows, ops, _) = memo_run(&stmt, &db, 1);
        assert_eq!((rows, ops), {
            let fresh = memo_run(&stmt, &memo_db(), 1);
            (fresh.0, fresh.1)
        });
    }

    /// Projections that together outgrow the base table are computed
    /// per run past the cap, with the same answers.
    #[test]
    fn memo_stays_within_the_cell_cap() {
        let db = memo_db();
        let all = distinct_stmt(&["K1", "K2", "D", "V"]);
        memo_run(&all, &db, 1);
        assert_eq!(db.memo_cells(), db.total_cells(), "every row is distinct");
        let narrow = distinct_stmt(&["V"]);
        for _ in 0..2 {
            let (rows, _, notes) = memo_run(&narrow, &db, 1);
            assert_eq!(rows.len(), 1100);
            assert!(notes.iter().all(|n| n.as_deref() != Some("memo")), "over the cap");
        }
        assert_eq!(db.memo_cells(), db.total_cells());
    }

    /// `stmt` with WHERE clause `preds`.
    fn filtered(mut stmt: SelectStatement, preds: Vec<Predicate>) -> SelectStatement {
        stmt.predicates = preds;
        stmt
    }

    /// Output batches (as rows, in emission order), per-operator rows
    /// and notes of one run, planned with or without pushdown.
    fn batch_run(
        stmt: &SelectStatement,
        db: &Database,
        threads: usize,
        pushdown: bool,
    ) -> (Vec<Vec<Row>>, OpRows, Vec<Option<String>>) {
        let p = crate::plan::plan_with_options(stmt, db, &crate::plan::PlanOptions { pushdown })
            .unwrap();
        let (batches, stats) =
            materialize_batches(&p, db, &SharedRows::new(), ExecOptions::with_threads(threads))
                .unwrap();
        let rows = stats.ops.iter().map(|m| (m.rows_in, m.rows_out, m.batches)).collect();
        let notes = stats.ops.into_iter().map(|m| m.note).collect();
        (batches.iter().map(ColumnBatch::to_rows).collect(), rows, notes)
    }

    fn memo_notes(notes: &[Option<String>]) -> usize {
        notes.iter().filter(|n| n.as_deref() == Some("memo")).count()
    }

    /// A `SELECT DISTINCT` whose pushed `contains` on text, `EqLit` or
    /// `EqCols` reads only projected columns computes and memoizes the
    /// predicate-free projection on its first run and filters the
    /// memoized replay from then on. Cold and warm runs emit the
    /// batches, in order, that the statement planned without pushdown
    /// emits (its residual `Filter` is no memo site), at 1 and 4
    /// threads, and report the same per-operator rows.
    #[test]
    fn filtered_replays_emit_what_the_pushed_scan_emits() {
        let cases = [
            (&["K2", "V"][..], Predicate::Contains(col("T", "K2"), "1".into()), 1100 * 2),
            (&["K2", "V"], Predicate::Eq(col("T", "V"), Value::Int(1099)), 1100 * 2),
            (&["V", "K2"], Predicate::Eq(col("T", "K2"), Value::str("k0")), 1100 * 2),
            (&["K1", "V"], Predicate::JoinEq(col("T", "K1"), col("T", "V")), 3000 * 2),
        ];
        for (cols, pred, cells) in cases {
            let stmt = filtered(distinct_stmt(cols), vec![pred.clone()]);
            let reference = batch_run(&stmt, &memo_db(), 1, false).0;
            assert!(!reference.is_empty(), "{pred:?} keeps rows");
            for threads in [1, 4] {
                let db = memo_db();
                let cold = batch_run(&stmt, &db, threads, true);
                assert_eq!(db.memo_cells(), cells, "{pred:?} memoized the projection");
                assert_eq!(cold.0, reference, "{pred:?} cold, threads={threads}");
                assert_eq!(memo_notes(&cold.2), 0);
                let warm = batch_run(&stmt, &db, threads, true);
                assert_eq!(warm.0, reference, "{pred:?} warm, threads={threads}");
                assert_eq!(warm.1, cold.1, "{pred:?} per-operator rows, threads={threads}");
                assert_eq!(memo_notes(&warm.2), 3);
            }
        }
    }

    /// `contains` renders a float to test it, and `0.0` and `-0.0` are
    /// one value to `DISTINCT` but render apart: a `contains` on a float
    /// column is no memo site, and answers as the unpushed plan does.
    #[test]
    fn a_contains_on_a_float_column_is_no_memo_site() {
        let rows = [0.0, -0.0, 2.0]
            .into_iter()
            .map(|x| row(Value::Float(x), Value::str("k"), Value::Null, 0))
            .collect();
        let db = keyed_db(&[("T", rows)]);
        let stmt =
            filtered(distinct_stmt(&["K1"]), vec![Predicate::Contains(col("T", "K1"), "-".into())]);
        let shown = |batches: Vec<Vec<Row>>| -> Vec<String> {
            batches.iter().flatten().map(|r| r[0].to_string()).collect()
        };
        let unpushed = shown(batch_run(&stmt, &db, 1, false).0);
        assert_eq!(unpushed, ["-0.0"]);
        for _ in 0..2 {
            let (batches, _, notes) = batch_run(&stmt, &db, 1, true);
            assert_eq!(shown(batches), unpushed);
            assert_eq!(memo_notes(&notes), 0);
        }
        assert_eq!(db.memo_cells(), 0);
    }

    /// A pushed predicate on a column the projection drops leaves the
    /// scan as it is.
    #[test]
    fn a_predicate_outside_the_projection_is_no_memo_site() {
        let db = memo_db();
        let stmt =
            filtered(distinct_stmt(&["K2"]), vec![Predicate::Eq(col("T", "V"), Value::Int(7))]);
        for _ in 0..2 {
            let (batches, _, notes) = batch_run(&stmt, &db, 1, true);
            assert_eq!(batches, [[vec![Value::str("k1")]]]);
            assert_eq!(memo_notes(&notes), 0);
        }
        assert_eq!(db.memo_cells(), 0);
    }

    /// A filtered site whose projection the memo has no room for runs
    /// its pushed scan and memoizes nothing.
    #[test]
    fn a_filtered_site_without_memo_room_runs_its_pushed_scan() {
        let db = memo_db();
        batch_run(&distinct_stmt(&["K1", "K2", "D", "V"]), &db, 1, true);
        assert_eq!(db.memo_cells(), db.total_cells(), "the memo is full");
        let pred = Predicate::Eq(col("T", "V"), Value::Int(1099));
        let stmt = filtered(distinct_stmt(&["K2", "V"]), vec![pred]);
        let (batches, rows, notes) = batch_run(&stmt, &db, 1, true);
        assert_eq!(batches, batch_run(&stmt, &memo_db(), 1, false).0);
        assert_eq!(memo_notes(&notes), 0);
        assert!(notes.contains(&Some("cols=2/4".into())), "the narrow pushed scan ran");
        assert!(rows.iter().all(|&(_, out, _)| out <= 2), "the scan kept 2 of 3000 rows");
        assert_eq!(db.memo_cells(), db.total_cells());
    }

    /// A governed miss at a filtered site runs its pushed scan: a row
    /// cap far below |R| answers, charged only for the rows that pass,
    /// and memoizes nothing. A later ungoverned run fills the memo, and
    /// a governed hit replays it at the same cap.
    #[test]
    fn a_governed_filtered_miss_runs_its_pushed_scan() {
        let db = memo_db();
        let pred = Predicate::Eq(col("T", "V"), Value::Int(1099));
        let stmt = filtered(distinct_stmt(&["K2", "V"]), vec![pred]);
        let reference = batch_run(&stmt, &memo_db(), 1, false).0;
        let governed = |db: &Database| {
            let gov = aqks_guard::Governor::new(&aqks_guard::Budget::unlimited().with_max_rows(20));
            let _g = aqks_guard::install(&gov);
            let (batches, rows, notes) = batch_run(&stmt, db, 1, true);
            let emitted: u64 = rows.iter().map(|&(_, out, _)| out).sum();
            (batches, notes, emitted, gov.rows_used())
        };
        let (batches, notes, emitted, charged) = governed(&db);
        assert_eq!(batches, reference);
        assert_eq!(memo_notes(&notes), 0);
        assert!(emitted <= 6 && charged == emitted, "emitted {emitted}, charged {charged}");
        assert_eq!(db.memo_cells(), 0);
        batch_run(&stmt, &db, 1, true);
        assert_eq!(db.memo_cells(), 1100 * 2);
        let (batches, notes, _, charged) = governed(&db);
        assert_eq!(batches, reference);
        assert_eq!(memo_notes(&notes), 3);
        assert!(charged <= 2, "a replay is charged the rows it emits: {charged}");
    }

    // -----------------------------------------------------------------
    // Request shares
    // -----------------------------------------------------------------

    /// 3000 rows each of L and R, joined on V: about 8,200 rows out.
    fn share_db() -> Database {
        let rows: Vec<Row> =
            (0..3000).map(|i| row(Value::Int(i), Value::str("k"), Value::Null, i % 1100)).collect();
        keyed_db(&[("L", rows.clone()), ("R", rows)])
    }

    /// Output rows, per-operator rows and notes of one run.
    type MemoRun = (Vec<Row>, OpRows, Vec<Option<String>>);

    /// [`memo_run`] of `stmt` with its hash join as the site of share 0.
    fn share_run(
        stmt: &SelectStatement,
        db: &Database,
        shares: &Shares,
        threads: usize,
    ) -> Result<MemoRun, ExecError> {
        let p = plan(stmt, db).unwrap();
        let mut join = None;
        p.visit(&mut |n| {
            if matches!(n.op, PlanOp::HashJoin { .. }) {
                join = Some(n.id);
            }
        });
        let sites = HashMap::from([(join.unwrap(), 0)]);
        let (t, stats) =
            run_plan_sharing(&p, db, shares, &sites, ExecOptions::with_threads(threads))?;
        let rows = stats.ops.iter().map(|m| (m.rows_in, m.rows_out, m.batches)).collect();
        Ok((t.rows, rows, stats.ops.into_iter().map(|m| m.note).collect()))
    }

    /// A filled share replays at any thread count, and under a `LIMIT`,
    /// with the rows and per-operator rows and batches of a solo run.
    #[test]
    fn shares_replay_with_the_metrics_they_were_computed_with() {
        let db = share_db();
        let stmt = join_stmt(&["V"]);
        for threads in [1, 4] {
            let shares = Shares::new(1);
            let solo = memo_run(&stmt, &db, threads);
            let computed = share_run(&stmt, &db, &shares, threads).unwrap();
            assert!(shares.get(0).is_some(), "the share was filled");
            assert!(computed.2.iter().flatten().all(|n| !n.starts_with("shared")));
            let replayed = share_run(&stmt, &db, &shares, threads).unwrap();
            assert_eq!((&replayed.0, &replayed.1), (&solo.0, &solo.1), "threads={threads}");
            let shared = replayed.2.iter().flatten().filter(|n| n.starts_with("shared"));
            assert_eq!(shared.count(), 1, "the replayed root");
            for n in [1, 1024, 5000] {
                let warm = share_run(&limited(stmt.clone(), n), &db, &shares, threads).unwrap();
                let solo = memo_run(&limited(stmt.clone(), n), &db, threads);
                assert_eq!((warm.0, warm.1), (solo.0, solo.1), "LIMIT {n}");
            }
            shares.release(0);
            assert!(shares.get(0).is_none());
        }
    }

    /// A consumer that stops early or trips its budget fills nothing;
    /// the next one computes the share.
    #[test]
    fn shares_fill_only_from_runs_that_drain_them_and_succeed() {
        let db = share_db();
        let stmt = join_stmt(&["V"]);
        let shares = Shares::new(1);
        share_run(&limited(stmt.clone(), 1), &db, &shares, 1).unwrap();
        assert!(shares.get(0).is_none(), "LIMIT stopped the join early");
        {
            let gov =
                aqks_guard::Governor::new(&aqks_guard::Budget::unlimited().with_max_rows(7000));
            let _g = aqks_guard::install(&gov);
            let tripped = share_run(&stmt, &db, &shares, 1);
            assert!(matches!(tripped, Err(ExecError::Budget(_))));
        }
        assert!(shares.get(0).is_none(), "the run tripped its budget");
        let computed = share_run(&stmt, &db, &shares, 1).unwrap();
        assert!(computed.2.iter().flatten().all(|n| !n.starts_with("shared")));
        assert!(shares.get(0).is_some());
    }

    /// A node the shared-subplan map replays is never memoized.
    #[test]
    fn shared_rows_win_over_the_memo() {
        let db = memo_db();
        let p = plan(&distinct_stmt(&["K2", "V"]), &db).unwrap();
        let (batches, _) =
            materialize_batches(&p, &memo_db(), &SharedRows::new(), ExecOptions::default())
                .unwrap();
        let shared: SharedRows = [(p.id, Arc::new(batches))].into();
        let (t, stats) = run_plan_opts(&p, &db, &shared, ExecOptions::default()).unwrap();
        assert_eq!(t.rows.len(), 1100);
        assert_eq!(stats.ops[p.id].note.as_deref(), Some("cached rows=1100"));
        assert_eq!(db.memo_cells(), 0);
    }
}
