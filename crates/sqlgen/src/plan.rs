//! Physical planning: lowering a [`SelectStatement`] into an operator tree.
//!
//! The planner is the seam between SQL generation and execution. It
//! resolves every column reference once, pushes `contains`/literal
//! predicates down to the scans that own them, orders joins outward from
//! the most selective source along the statement's equi-join predicates
//! (cross products only as a last resort, smallest source first), and
//! picks each hash join's build side from cardinality estimates. The
//! resulting [`PlanNode`] tree is what [`crate::ops::run_plan`] executes,
//! what [`render_plan`] prints for `aqks explain`, and what the bench
//! harness instruments.
//!
//! Pushdown rules:
//!
//! * `contains` and literal-equality predicates referencing a single base
//!   relation are evaluated *during* the scan (no full materialize);
//! * the same predicates on a derived table become a [`PlanOp::Filter`]
//!   directly above the recursively planned subquery, below any join;
//! * equi-joins whose two sides live in the same source are pushed the
//!   same way; the rest drive join ordering, and any equi-join that never
//!   connects two sources is applied as a residual filter above the joins.
//!
//! Join order is a rule, not a search. Each source is ranked by (has no
//! single-source predicate, estimated rows, FROM position), counted from
//! the statement before any predicate is placed, so the order is the
//! same with pushdown on or off. The join starts at the lowest-ranked
//! source and at each step attaches the lowest-ranked source that an
//! unconsumed equi-join connects to what is already joined. On the
//! keyword workloads this starts from the `contains`-matched relation
//! and walks outward along its foreign keys.
//!
//! Estimates (`filter_estimate`, `join_estimate`) are deliberately
//! crude: a fixed 1/4 selectivity per predicate, and a hash join that
//! keeps the larger input unless one side is a base scan joined on its
//! whole primary key, in which case each row of the other side finds at
//! most one partner. They only have to rank sources and pick build
//! sides.

use aqks_relational::{Database, Value};

use crate::ast::{AggFunc, ColumnRef, Predicate, SelectItem, SelectStatement, TableExpr};
use crate::exec::ExecError;

/// Planner options (ablation/testing switches).
#[derive(Debug, Clone)]
pub struct PlanOptions {
    /// Push single-source `contains`/equality predicates below the joins
    /// (into scans, or a filter directly above a derived table). When
    /// false they are applied as one residual filter after all joins —
    /// the pre-planner behaviour, kept for equivalence testing.
    pub pushdown: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions { pushdown: true }
    }
}

/// A predicate resolved against a node's tuple layout.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysPred {
    /// `row[l] = row[r]`, NULL-rejecting (an equi-join both of whose
    /// sides live in the same input).
    EqCols(usize, usize),
    /// Case-insensitive substring match; the needle is pre-lowercased.
    ContainsCi(usize, String),
    /// Exact equality with a literal.
    EqLit(usize, Value),
}

impl PhysPred {
    /// Evaluates the predicate on one row.
    pub fn eval(&self, row: &[Value]) -> bool {
        match self {
            PhysPred::EqCols(l, r) => !row[*l].is_null() && row[*l] == row[*r],
            PhysPred::ContainsCi(i, needle) => row[*i].contains_ci(needle),
            PhysPred::EqLit(i, v) => row[*i] == *v,
        }
    }

    /// Renders the predicate against the input column layout.
    fn describe(&self, cols: &[(String, String)]) -> String {
        let name = |i: &usize| {
            let (a, c) = &cols[*i];
            if a.is_empty() {
                c.clone()
            } else {
                format!("{a}.{c}")
            }
        };
        match self {
            PhysPred::EqCols(l, r) => format!("{} = {}", name(l), name(r)),
            PhysPred::ContainsCi(i, s) => format!("{} contains '{s}'", name(i)),
            PhysPred::EqLit(i, v) => format!("{} = {v}", name(i)),
        }
    }
}

/// One output item of a [`PlanOp::HashAggregate`].
#[derive(Debug, Clone, PartialEq)]
pub enum PhysAggItem {
    /// A grouping (or group-constant) column: first row of the group.
    Col(usize),
    /// An aggregate over an input column.
    Agg {
        /// Aggregate function.
        func: AggFunc,
        /// Input column index of the argument.
        arg: usize,
        /// Duplicate elimination inside the aggregate.
        distinct: bool,
    },
}

/// The physical operator of a [`PlanNode`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Sequential scan of a base relation; pushed-down predicates are
    /// evaluated on each tuple during the scan.
    Scan {
        /// Relation name in the database.
        relation: String,
        /// FROM alias.
        alias: String,
        /// Predicates evaluated during the scan.
        pushed: Vec<PhysPred>,
    },
    /// A recursively planned derived table (child 0 is the subplan).
    DerivedTable {
        /// FROM alias of the subquery.
        alias: String,
        /// Output column names (original case), captured once from the
        /// subplan when the node is built. This is the single resolution
        /// point for the derived table's columns: the node's `cols`
        /// layout and [`PlanNode::output_names`] both derive from it, so
        /// the rendered plan and the name-based APIs cannot drift.
        names: Vec<String>,
    },
    /// Multi-key hash equi-join of child 0 (left) and child 1 (right).
    /// Output tuples are always left columns then right columns,
    /// regardless of which side builds the hash table.
    HashJoin {
        /// Key column indices into the left child's layout.
        left_keys: Vec<usize>,
        /// Key column indices into the right child's layout.
        right_keys: Vec<usize>,
        /// Build the hash table on the left (estimated-smaller) side.
        build_left: bool,
    },
    /// Cross product of child 0 and child 1 (no connecting equi-join).
    CrossJoin,
    /// Residual predicates above the join tree.
    Filter {
        /// Predicates, all of which must hold.
        preds: Vec<PhysPred>,
    },
    /// Grouped (or global) aggregation producing the SELECT items.
    HashAggregate {
        /// Group-key column indices into the input layout.
        group: Vec<usize>,
        /// Output items, in SELECT order.
        items: Vec<PhysAggItem>,
        /// Output column names, in SELECT order.
        names: Vec<String>,
    },
    /// Column projection producing the SELECT items (no aggregate).
    Project {
        /// Input column indices, in SELECT order.
        cols: Vec<usize>,
        /// Output column names, in SELECT order.
        names: Vec<String>,
    },
    /// Duplicate-row elimination (`SELECT DISTINCT`).
    Distinct,
    /// Sort by output columns (`ORDER BY`).
    Sort {
        /// (output column index, descending) keys.
        keys: Vec<(usize, bool)>,
    },
    /// Row-count cap (`LIMIT`).
    Limit {
        /// Maximum output rows.
        n: usize,
    },
}

/// One node of the physical plan tree.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// Stable node id; also the node's index into
    /// [`crate::ops::ExecStats::ops`].
    pub id: usize,
    /// The operator.
    pub op: PlanOp,
    /// Input plans (0 for scans, 1 for unary operators, 2 for joins).
    pub children: Vec<PlanNode>,
    /// Output tuple layout: lowercased `(alias, column)` pairs.
    pub cols: Vec<(String, String)>,
    /// Planner cardinality estimate (rows out).
    pub est_rows: usize,
}

impl PlanNode {
    /// Largest node id in this subtree.
    pub fn max_id(&self) -> usize {
        self.children.iter().map(PlanNode::max_id).fold(self.id, usize::max)
    }

    /// Number of operators in this subtree.
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(PlanNode::node_count).sum::<usize>()
    }

    /// Pre-order visit of every node in the subtree.
    pub fn visit<'a, F: FnMut(&'a PlanNode)>(&'a self, f: &mut F) {
        f(self);
        for c in &self.children {
            c.visit(f);
        }
    }

    /// Output column names (original case), in SELECT order.
    ///
    /// Every operator resolves through its own layout: name-declaring
    /// operators (`Project`, `HashAggregate`, `DerivedTable`) return the
    /// names they carry, joins concatenate both children (matching their
    /// left-then-right tuple layout), scans expose their `cols`, and the
    /// remaining unary operators are pure passthroughs. The result is
    /// always parallel to [`PlanNode::cols`] — the historical fallback of
    /// recursing into `children.first()` returned only the left side's
    /// names for joins and skipped derived-table re-aliasing.
    pub fn output_names(&self) -> Vec<String> {
        match &self.op {
            PlanOp::Project { names, .. }
            | PlanOp::HashAggregate { names, .. }
            | PlanOp::DerivedTable { names, .. } => names.clone(),
            PlanOp::HashJoin { .. } | PlanOp::CrossJoin => {
                let mut out = self.children[0].output_names();
                out.extend(self.children[1].output_names());
                out
            }
            PlanOp::Scan { .. } => self.cols.iter().map(|(_, c)| c.clone()).collect(),
            PlanOp::Filter { .. }
            | PlanOp::Distinct
            | PlanOp::Sort { .. }
            | PlanOp::Limit { .. } => self.children[0].output_names(),
        }
    }

    /// True when the plan's output carries an ORDER BY (a [`PlanOp::Sort`]
    /// survives to the root through order-preserving operators).
    pub fn is_ordered(&self) -> bool {
        match self.op {
            PlanOp::Sort { .. } => true,
            PlanOp::Limit { .. } | PlanOp::Distinct => self.children[0].is_ordered(),
            _ => false,
        }
    }

    /// One-line description of this operator (the `aqks explain` label).
    pub fn label(&self) -> String {
        let input_cols = |k: usize| -> &[(String, String)] {
            // Joins concatenate children layouts; unary ops see child 0.
            match self.children.get(k) {
                Some(c) => &c.cols,
                None => &[],
            }
        };
        match &self.op {
            PlanOp::Scan { relation, alias, pushed } => {
                let mut s = format!("Scan {relation} AS {alias}");
                if !pushed.is_empty() {
                    let ps: Vec<String> = pushed.iter().map(|p| p.describe(&self.cols)).collect();
                    s.push_str(&format!(" [{}]", ps.join(" AND ")));
                }
                s
            }
            PlanOp::DerivedTable { alias, names } => {
                format!("DerivedTable AS {alias} [{}]", names.join(", "))
            }
            PlanOp::HashJoin { left_keys, right_keys, build_left } => {
                let (lc, rc) = (input_cols(0), input_cols(1));
                // Render key pairs in canonical (left-schema) order, not
                // the planner's accumulation order: the stored order
                // tracks build/probe bookkeeping and would leak the
                // build-side choice into EXPLAIN text for otherwise
                // identical plans.
                let mut pairs: Vec<(usize, usize)> =
                    left_keys.iter().copied().zip(right_keys.iter().copied()).collect();
                pairs.sort_unstable();
                let keys: Vec<String> = pairs
                    .into_iter()
                    .map(|(l, r)| format!("{}.{} = {}.{}", lc[l].0, lc[l].1, rc[r].0, rc[r].1))
                    .collect();
                format!(
                    "HashJoin on [{}] build={}",
                    keys.join(", "),
                    if *build_left { "left" } else { "right" }
                )
            }
            PlanOp::CrossJoin => "CrossJoin".into(),
            PlanOp::Filter { preds } => {
                let ps: Vec<String> = preds.iter().map(|p| p.describe(input_cols(0))).collect();
                format!("Filter [{}]", ps.join(" AND "))
            }
            PlanOp::HashAggregate { group, items, names } => {
                let ic = input_cols(0);
                let gs: Vec<String> =
                    group.iter().map(|&i| format!("{}.{}", ic[i].0, ic[i].1)).collect();
                let is: Vec<String> = items
                    .iter()
                    .zip(names)
                    .map(|(it, name)| match it {
                        PhysAggItem::Col(i) => format!("{}.{}", ic[*i].0, ic[*i].1),
                        PhysAggItem::Agg { func, arg, distinct } => format!(
                            "{}({}{}.{}) AS {name}",
                            func.keyword(),
                            if *distinct { "DISTINCT " } else { "" },
                            ic[*arg].0,
                            ic[*arg].1
                        ),
                    })
                    .collect();
                if gs.is_empty() {
                    format!("HashAggregate global [{}]", is.join(", "))
                } else {
                    format!("HashAggregate group=[{}] [{}]", gs.join(", "), is.join(", "))
                }
            }
            PlanOp::Project { cols, names } => {
                let ic = input_cols(0);
                let is: Vec<String> = cols
                    .iter()
                    .zip(names)
                    .map(|(&i, name)| {
                        if ic[i].1.eq_ignore_ascii_case(name) {
                            format!("{}.{}", ic[i].0, ic[i].1)
                        } else {
                            format!("{}.{} AS {name}", ic[i].0, ic[i].1)
                        }
                    })
                    .collect();
                format!("Project [{}]", is.join(", "))
            }
            PlanOp::Distinct => "Distinct".into(),
            PlanOp::Sort { keys } => {
                let names = self.children[0].output_names();
                let ks: Vec<String> = keys
                    .iter()
                    .map(|&(i, desc)| format!("{}{}", names[i], if desc { " DESC" } else { "" }))
                    .collect();
                format!("Sort by [{}]", ks.join(", "))
            }
            PlanOp::Limit { n } => format!("Limit {n}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

/// Column-layout resolution helper shared by the planning steps.
fn resolve_in(cols: &[(String, String)], c: &ColumnRef) -> Option<usize> {
    let q = c.qualifier.to_lowercase();
    let n = c.column.to_lowercase();
    cols.iter().position(|(a, col)| *a == q && *col == n)
}

/// Monotonic node-id allocator (ids index [`crate::ops::ExecStats::ops`]).
struct IdGen(usize);

impl IdGen {
    fn next(&mut self) -> usize {
        let id = self.0;
        self.0 += 1;
        id
    }
}

/// Cardinality estimate after `npreds` predicates over `rows` input
/// rows: a fixed 1/4 selectivity per predicate (the shift capped at 8
/// predicates), floored at one row.
fn filter_estimate(rows: usize, npreds: usize) -> usize {
    if rows == 0 {
        return 0;
    }
    (rows >> (2 * npreds.min(8))).max(1)
}

/// Cardinality estimate of joining `left` and `right`; `keys` holds the
/// hash join's key indices, `None` for a cross product.
///
/// A hash join in which one input is a base [`PlanOp::Scan`] joined on
/// its relation's whole primary key matches each row of the other input
/// at most once, so it estimates `other × scan / |relation|` rows (the
/// other input thinned by the scan's selectivity, at least one row). If
/// both inputs qualify the smaller estimate wins; every other hash join
/// estimates the larger input.
fn join_estimate(
    left: &PlanNode,
    right: &PlanNode,
    keys: Option<(&[usize], &[usize])>,
    db: &Database,
) -> usize {
    let (l, r) = (left.est_rows, right.est_rows);
    let Some((left_keys, right_keys)) = keys else {
        return l.saturating_mul(r);
    };
    let keyed = |scan: &PlanNode, keys: &[usize], other: usize| -> Option<usize> {
        let PlanOp::Scan { relation, .. } = &scan.op else { return None };
        let table = db.table(relation)?;
        let pk = &table.schema.primary_key;
        let whole_key = !pk.is_empty()
            && pk.iter().all(|a| {
                keys.iter()
                    .any(|&k| scan.cols.get(k).is_some_and(|(_, c)| c.eq_ignore_ascii_case(a)))
            });
        if !whole_key {
            return None;
        }
        if other == 0 || scan.est_rows == 0 {
            return Some(0);
        }
        let est = other as u128 * scan.est_rows as u128 / table.len().max(1) as u128;
        Some(usize::try_from(est).unwrap_or(usize::MAX).clamp(1, other))
    };
    match (keyed(left, left_keys, r), keyed(right, right_keys, l)) {
        (Some(a), Some(b)) => a.min(b),
        (Some(e), None) | (None, Some(e)) => e,
        (None, None) => l.max(r),
    }
}

/// Plans `stmt` against `db` with default options.
pub fn plan(stmt: &SelectStatement, db: &Database) -> Result<PlanNode, ExecError> {
    plan_with_options(stmt, db, &PlanOptions::default())
}

/// Plans `stmt` against `db`.
pub fn plan_with_options(
    stmt: &SelectStatement,
    db: &Database,
    opts: &PlanOptions,
) -> Result<PlanNode, ExecError> {
    let mut ids = IdGen(0);
    plan_stmt(stmt, db, opts, &mut ids)
}

fn plan_stmt(
    stmt: &SelectStatement,
    db: &Database,
    opts: &PlanOptions,
    ids: &mut IdGen,
) -> Result<PlanNode, ExecError> {
    if stmt.items.is_empty() {
        return Err(ExecError::Unsupported("empty SELECT list".into()));
    }
    if stmt.from.is_empty() {
        return Err(ExecError::Unsupported("empty FROM clause".into()));
    }

    // --- Per-source plans: scans and recursively planned derived tables.
    let mut sources: Vec<PlanNode> = Vec::with_capacity(stmt.from.len());
    {
        let mut seen_alias: Vec<String> = Vec::new();
        for item in &stmt.from {
            let alias = item.alias().to_lowercase();
            if seen_alias.contains(&alias) {
                return Err(ExecError::DuplicateAlias(item.alias().to_string()));
            }
            seen_alias.push(alias.clone());
            sources.push(plan_source(item, &alias, db, opts, ids)?);
        }
    }

    // --- Predicate placement --------------------------------------------
    // Single-source predicates are pushed below the joins (scan-time for
    // base relations, a filter above derived tables); everything else is
    // left for join ordering or the residual filter. Each source counts
    // its single-source predicates whether or not they are pushed: the
    // count sets its join rank, so pushdown cannot change the join order.
    let base_est: Vec<usize> = sources.iter().map(|s| s.est_rows).collect();
    let mut local = vec![0usize; sources.len()];
    let mut residual: Vec<&Predicate> = Vec::new();
    let mut join_preds: Vec<(&ColumnRef, &ColumnRef, bool)> = Vec::new(); // (a, b, consumed)
    for p in &stmt.predicates {
        let si = match p {
            // Both sides in one source: a single-source predicate, not a join.
            Predicate::JoinEq(a, b) => match sources
                .iter()
                .position(|s| resolve_in(&s.cols, a).is_some() && resolve_in(&s.cols, b).is_some())
            {
                Some(si) => si,
                None => {
                    join_preds.push((a, b, false));
                    continue;
                }
            },
            Predicate::Contains(c, _) | Predicate::Eq(c, _) => sources
                .iter()
                .position(|s| resolve_in(&s.cols, c).is_some())
                .ok_or_else(|| ExecError::UnknownColumn(c.to_string()))?,
        };
        local[si] += 1;
        if !opts.pushdown {
            residual.push(p);
            continue;
        }
        let cols = &sources[si].cols;
        let at = |c: &ColumnRef| resolve_in(cols, c).expect("the source resolves the column");
        let pred = match p {
            Predicate::JoinEq(a, b) => PhysPred::EqCols(at(a), at(b)),
            Predicate::Contains(c, text) => PhysPred::ContainsCi(at(c), text.to_lowercase()),
            Predicate::Eq(c, v) => PhysPred::EqLit(at(c), v.clone()),
        };
        push_into(&mut sources[si], pred, ids);
    }
    // Join rank: (has no single-source predicate, estimated rows, FROM
    // position). The estimate is what the source yields once its
    // predicates apply, which with pushdown on is its own estimate.
    let mut ranks: Vec<(bool, usize, usize)> = Vec::with_capacity(sources.len());
    for (i, source) in sources.iter_mut().enumerate() {
        let est = filter_estimate(base_est[i], local[i]);
        if opts.pushdown {
            source.est_rows = est;
        }
        ranks.push((local[i] == 0, est, i));
    }

    // --- Join ordering ---------------------------------------------------
    // Selectivity-first greedy: start at the lowest-ranked source, then
    // attach the lowest-ranked source that an unconsumed equi-join links
    // to the accumulated plan. When nothing connects, fall back to a cross
    // product with the smallest estimated remaining source (FROM position
    // breaking ties) so intermediate results stay as small as possible.
    let seed = (0..sources.len()).min_by_key(|&i| ranks[i]).expect("FROM is non-empty");
    ranks.remove(seed);
    let mut acc = sources.remove(seed);
    while !sources.is_empty() {
        let connects = |right: &PlanNode| {
            join_preds.iter().any(|&(a, b, consumed)| {
                !consumed
                    && ((resolve_in(&acc.cols, a).is_some()
                        && resolve_in(&right.cols, b).is_some())
                        || (resolve_in(&acc.cols, b).is_some()
                            && resolve_in(&right.cols, a).is_some()))
            })
        };
        let linked =
            (0..sources.len()).filter(|&i| connects(&sources[i])).min_by_key(|&i| ranks[i]);
        let cross = linked.is_none();
        let pick = linked.unwrap_or_else(|| {
            (0..sources.len())
                .min_by_key(|&i| (ranks[i].1, ranks[i].2))
                .expect("sources is non-empty")
        });
        ranks.remove(pick);
        let right = sources.remove(pick);

        let mut left_keys: Vec<usize> = Vec::new();
        let mut right_keys: Vec<usize> = Vec::new();
        for (a, b, consumed) in join_preds.iter_mut() {
            if *consumed {
                continue;
            }
            let (l, r) = match (resolve_in(&acc.cols, a), resolve_in(&right.cols, b)) {
                (Some(l), Some(r)) => (l, r),
                _ => match (resolve_in(&acc.cols, b), resolve_in(&right.cols, a)) {
                    (Some(l), Some(r)) => (l, r),
                    _ => continue,
                },
            };
            left_keys.push(l);
            right_keys.push(r);
            *consumed = true;
        }

        let mut cols = acc.cols.clone();
        cols.extend(right.cols.iter().cloned());
        let (op, est) = if cross || left_keys.is_empty() {
            (PlanOp::CrossJoin, join_estimate(&acc, &right, None, db))
        } else {
            let est = join_estimate(&acc, &right, Some((&left_keys, &right_keys)), db);
            let build_left = acc.est_rows < right.est_rows;
            (PlanOp::HashJoin { left_keys, right_keys, build_left }, est)
        };
        acc = PlanNode { id: ids.next(), op, children: vec![acc, right], cols, est_rows: est };
    }

    // --- Residual predicates (unconsumed equi-joins; all single-source
    // predicates too when pushdown is off).
    let mut residual_phys: Vec<PhysPred> = Vec::new();
    for (a, b, consumed) in &join_preds {
        if *consumed {
            continue;
        }
        let l = resolve_in(&acc.cols, a).ok_or_else(|| ExecError::UnknownColumn(a.to_string()))?;
        let r = resolve_in(&acc.cols, b).ok_or_else(|| ExecError::UnknownColumn(b.to_string()))?;
        residual_phys.push(PhysPred::EqCols(l, r));
    }
    for p in residual {
        residual_phys.push(match p {
            Predicate::JoinEq(a, b) => PhysPred::EqCols(
                resolve_in(&acc.cols, a).ok_or_else(|| ExecError::UnknownColumn(a.to_string()))?,
                resolve_in(&acc.cols, b).ok_or_else(|| ExecError::UnknownColumn(b.to_string()))?,
            ),
            Predicate::Contains(c, text) => PhysPred::ContainsCi(
                resolve_in(&acc.cols, c).ok_or_else(|| ExecError::UnknownColumn(c.to_string()))?,
                text.to_lowercase(),
            ),
            Predicate::Eq(c, v) => PhysPred::EqLit(
                resolve_in(&acc.cols, c).ok_or_else(|| ExecError::UnknownColumn(c.to_string()))?,
                v.clone(),
            ),
        });
    }
    if !residual_phys.is_empty() {
        let est = filter_estimate(acc.est_rows, residual_phys.len());
        let cols = acc.cols.clone();
        acc = PlanNode {
            id: ids.next(),
            op: PlanOp::Filter { preds: residual_phys },
            children: vec![acc],
            cols,
            est_rows: est,
        };
    }

    // --- Aggregation / projection ----------------------------------------
    let names: Vec<String> = stmt.items.iter().map(|i| i.output_name().to_string()).collect();
    let out_cols: Vec<(String, String)> =
        names.iter().map(|n| (String::new(), n.to_lowercase())).collect();
    if stmt.has_aggregate() || !stmt.group_by.is_empty() {
        let group: Vec<usize> = stmt
            .group_by
            .iter()
            .map(|c| {
                resolve_in(&acc.cols, c).ok_or_else(|| ExecError::UnknownColumn(c.to_string()))
            })
            .collect::<Result<_, _>>()?;
        let items: Vec<PhysAggItem> = stmt
            .items
            .iter()
            .map(|item| match item {
                SelectItem::Column { col, .. } => resolve_in(&acc.cols, col)
                    .map(PhysAggItem::Col)
                    .ok_or_else(|| ExecError::UnknownColumn(col.to_string())),
                SelectItem::Aggregate { func, arg, distinct, .. } => resolve_in(&acc.cols, arg)
                    .map(|i| PhysAggItem::Agg { func: *func, arg: i, distinct: *distinct })
                    .ok_or_else(|| ExecError::UnknownColumn(arg.to_string())),
            })
            .collect::<Result<_, _>>()?;
        let est = if group.is_empty() { 1 } else { acc.est_rows };
        acc = PlanNode {
            id: ids.next(),
            op: PlanOp::HashAggregate { group, items, names },
            children: vec![acc],
            cols: out_cols,
            est_rows: est,
        };
    } else {
        let cols: Vec<usize> = stmt
            .items
            .iter()
            .map(|item| match item {
                SelectItem::Column { col, .. } => resolve_in(&acc.cols, col)
                    .ok_or_else(|| ExecError::UnknownColumn(col.to_string())),
                SelectItem::Aggregate { .. } => unreachable!("guarded by has_aggregate"),
            })
            .collect::<Result<_, _>>()?;
        let est = acc.est_rows;
        acc = PlanNode {
            id: ids.next(),
            op: PlanOp::Project { cols, names },
            children: vec![acc],
            cols: out_cols,
            est_rows: est,
        };
    }

    if stmt.distinct {
        let cols = acc.cols.clone();
        let est = acc.est_rows;
        acc = PlanNode {
            id: ids.next(),
            op: PlanOp::Distinct,
            children: vec![acc],
            cols,
            est_rows: est,
        };
    }

    // --- ORDER BY / LIMIT --------------------------------------------------
    // Keys resolve against the output columns (SELECT aliases); a key that
    // was not projected is an error.
    if !stmt.order_by.is_empty() {
        let names = acc.output_names();
        let keys: Vec<(usize, bool)> = stmt
            .order_by
            .iter()
            .map(|k| {
                names
                    .iter()
                    .position(|n| n.eq_ignore_ascii_case(&k.column.column))
                    .map(|i| (i, k.desc))
                    .ok_or_else(|| ExecError::UnknownColumn(k.column.to_string()))
            })
            .collect::<Result<_, _>>()?;
        let cols = acc.cols.clone();
        let est = acc.est_rows;
        acc = PlanNode {
            id: ids.next(),
            op: PlanOp::Sort { keys },
            children: vec![acc],
            cols,
            est_rows: est,
        };
    }
    if let Some(limit) = stmt.limit {
        let cols = acc.cols.clone();
        let est = acc.est_rows.min(limit);
        acc = PlanNode {
            id: ids.next(),
            op: PlanOp::Limit { n: limit },
            children: vec![acc],
            cols,
            est_rows: est,
        };
    }
    Ok(acc)
}

/// Plans one FROM item.
fn plan_source(
    item: &TableExpr,
    alias_lower: &str,
    db: &Database,
    opts: &PlanOptions,
    ids: &mut IdGen,
) -> Result<PlanNode, ExecError> {
    match item {
        TableExpr::Relation { name, .. } => {
            let table = db.table(name).ok_or_else(|| ExecError::UnknownRelation(name.clone()))?;
            let cols: Vec<(String, String)> = table
                .schema
                .attr_names()
                .map(|a| (alias_lower.to_string(), a.to_lowercase()))
                .collect();
            Ok(PlanNode {
                id: ids.next(),
                op: PlanOp::Scan {
                    relation: name.clone(),
                    alias: alias_lower.to_string(),
                    pushed: Vec::new(),
                },
                children: Vec::new(),
                cols,
                est_rows: table.len(),
            })
        }
        TableExpr::Derived { query, .. } => {
            let sub = plan_stmt(query, db, opts, ids)?;
            // Capture the subplan's output names once; the node's layout
            // is derived from the same vector (see PlanOp::DerivedTable).
            let names = sub.output_names();
            let cols: Vec<(String, String)> =
                names.iter().map(|c| (alias_lower.to_string(), c.to_lowercase())).collect();
            let est = sub.est_rows;
            Ok(PlanNode {
                id: ids.next(),
                op: PlanOp::DerivedTable { alias: alias_lower.to_string(), names },
                children: vec![sub],
                cols,
                est_rows: est,
            })
        }
    }
}

/// Pushes a single-source predicate into a source plan: scan predicates
/// are evaluated during the scan; derived tables (or already-filtered
/// sources) get a [`PlanOp::Filter`] directly above. The caller sets the
/// source's estimate once all of its predicates are placed.
fn push_into(source: &mut PlanNode, pred: PhysPred, ids: &mut IdGen) {
    match &mut source.op {
        PlanOp::Scan { pushed: preds, .. } | PlanOp::Filter { preds } => preds.push(pred),
        _ => {
            let inner = std::mem::replace(
                source,
                PlanNode {
                    id: 0,
                    op: PlanOp::Distinct, // placeholder, overwritten below
                    children: Vec::new(),
                    cols: Vec::new(),
                    est_rows: 0,
                },
            );
            *source = PlanNode {
                id: ids.next(),
                op: PlanOp::Filter { preds: vec![pred] },
                cols: inner.cols.clone(),
                est_rows: inner.est_rows,
                children: vec![inner],
            };
        }
    }
}

// ---------------------------------------------------------------------------
// EXPLAIN rendering
// ---------------------------------------------------------------------------

/// Pretty-prints the plan tree (the `aqks explain` output).
pub fn render_plan(plan: &PlanNode) -> String {
    render(plan, None)
}

/// Pretty-prints the plan tree annotated with live per-operator metrics
/// (the `aqks explain --analyze` output).
pub fn render_plan_with_stats(plan: &PlanNode, stats: &crate::ops::ExecStats) -> String {
    render(plan, Some(stats))
}

fn render(plan: &PlanNode, stats: Option<&crate::ops::ExecStats>) -> String {
    let mut out = String::new();
    fn go(
        node: &PlanNode,
        prefix: &str,
        last: bool,
        root: bool,
        stats: Option<&crate::ops::ExecStats>,
        out: &mut String,
    ) {
        let (branch, child_prefix) = if root {
            (String::new(), String::new())
        } else if last {
            (format!("{prefix}└─ "), format!("{prefix}   "))
        } else {
            (format!("{prefix}├─ "), format!("{prefix}│  "))
        };
        out.push_str(&branch);
        out.push_str(&node.label());
        out.push_str(&format!(" (est={})", node.est_rows));
        if let Some(stats) = stats {
            if let Some(m) = stats.ops.get(node.id) {
                if !node.children.is_empty() {
                    out.push_str(&format!(" in={}", m.rows_in));
                }
                out.push_str(&format!(
                    " rows={} time={} mem={}",
                    m.rows_out,
                    fmt_dur(m.wall),
                    fmt_bytes(m.peak_bytes)
                ));
                if m.threads > 1 {
                    out.push_str(&format!(
                        " threads={} par={}%",
                        m.threads,
                        (m.parallel_fraction() * 100.0).round() as u64
                    ));
                }
                if let Some(note) = &m.note {
                    out.push_str(&format!(" [{note}]"));
                }
            }
        }
        out.push('\n');
        let n = node.children.len();
        for (i, c) in node.children.iter().enumerate() {
            go(c, &child_prefix, i + 1 == n, false, stats, out);
        }
    }
    go(plan, "", true, true, stats, &mut out);
    if let Some(stats) = stats {
        out.push_str(&format!("total: {}\n", fmt_dur(stats.wall)));
    }
    out
}

/// Human-friendly byte count: B below 1 KiB, then KiB/MiB.
pub(crate) fn fmt_bytes(b: u64) -> String {
    if b < 1024 {
        format!("{b}B")
    } else if b < 1024 * 1024 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{:.1}MiB", b as f64 / (1024.0 * 1024.0))
    }
}

/// Human-friendly duration: µs below 1 ms, ms below 1 s.
pub(crate) fn fmt_dur(d: std::time::Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1000.0 {
        format!("{us:.1}µs")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1000.0)
    } else {
        format!("{:.3}s", us / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{OrderKey, SelectItem};
    use crate::ops::run_plan;
    use aqks_relational::{AttrType, RelationSchema};

    /// Student(3) / Course(3) / Enrol(6), as in the exec tests.
    fn db() -> Database {
        let mut db = Database::new("uni");
        let mut s = RelationSchema::new("Student");
        s.add_attr("Sid", AttrType::Text)
            .add_attr("Sname", AttrType::Text)
            .add_attr("Age", AttrType::Int);
        s.set_primary_key(["Sid"]);
        db.add_relation(s).unwrap();
        let mut c = RelationSchema::new("Course");
        c.add_attr("Code", AttrType::Text).add_attr("Credit", AttrType::Float);
        c.set_primary_key(["Code"]);
        db.add_relation(c).unwrap();
        let mut e = RelationSchema::new("Enrol");
        e.add_attr("Sid", AttrType::Text).add_attr("Code", AttrType::Text);
        e.set_primary_key(["Sid", "Code"]);
        db.add_relation(e).unwrap();
        for (sid, name, age) in [("s1", "George", 22), ("s2", "Green", 24), ("s3", "Green", 21)] {
            db.insert("Student", vec![Value::str(sid), Value::str(name), Value::Int(age)]).unwrap();
        }
        for (code, credit) in [("c1", 5.0), ("c2", 4.0), ("c3", 3.0)] {
            db.insert("Course", vec![Value::str(code), Value::Float(credit)]).unwrap();
        }
        for (sid, code) in
            [("s1", "c1"), ("s1", "c2"), ("s1", "c3"), ("s2", "c1"), ("s3", "c1"), ("s3", "c3")]
        {
            db.insert("Enrol", vec![Value::str(sid), Value::str(code)]).unwrap();
        }
        db
    }

    fn col(q: &str, c: &str) -> ColumnRef {
        ColumnRef::new(q, c)
    }

    fn count_item(q: &str, c: &str) -> SelectItem {
        SelectItem::Aggregate {
            func: AggFunc::Count,
            arg: col(q, c),
            distinct: false,
            alias: "n".into(),
        }
    }

    fn find<'a>(node: &'a PlanNode, pred: &dyn Fn(&PlanNode) -> bool) -> Option<&'a PlanNode> {
        let mut found = None;
        node.visit(&mut |n| {
            if found.is_none() && pred(n) {
                found = Some(n);
            }
        });
        found
    }

    /// Regression for the cross-product fallback: with no equi-join
    /// anywhere, the planner must pair the accumulated side with the
    /// *smallest* remaining source, not whichever sits at index 0. Here
    /// FROM is [Student(3), Enrol(6), Course(3)]: the index-0 policy
    /// built Student x Enrol = 18 intermediate rows; smallest-first
    /// builds Student x Course = 9.
    #[test]
    fn cross_product_fallback_picks_smallest_source() {
        let stmt = SelectStatement {
            items: vec![count_item("S", "Sid")],
            from: vec![
                TableExpr::Relation { name: "Student".into(), alias: "S".into() },
                TableExpr::Relation { name: "Enrol".into(), alias: "E".into() },
                TableExpr::Relation { name: "Course".into(), alias: "C".into() },
            ],
            ..Default::default()
        };
        let db = db();
        let p = plan(&stmt, &db).unwrap();
        // The deepest cross join pairs the two 3-row relations.
        let first = find(&p, &|n| {
            matches!(n.op, PlanOp::CrossJoin)
                && n.children.iter().all(|c| matches!(c.op, PlanOp::Scan { .. }))
        })
        .expect("deepest cross join");
        assert_eq!(first.est_rows, 9, "3 x 3, not 3 x 6");
        let (table, stats) = run_plan(&p, &db).unwrap();
        assert_eq!(table.scalar(), Some(&Value::Int(54)), "full product unchanged");
        assert_eq!(stats.ops[first.id].rows_out, 9, "intermediate rows shrank from 18 to 9");
    }

    /// `contains`/literal predicates are evaluated during the scan; the
    /// pushed and post-filter plans return identical rows.
    #[test]
    fn pushdown_is_applied_and_equivalent() {
        let stmt = SelectStatement {
            items: vec![
                SelectItem::Column { col: col("S", "Sid"), alias: None },
                SelectItem::Aggregate {
                    func: AggFunc::Sum,
                    arg: col("C", "Credit"),
                    distinct: false,
                    alias: "sumCredit".into(),
                },
            ],
            from: vec![
                TableExpr::Relation { name: "Student".into(), alias: "S".into() },
                TableExpr::Relation { name: "Enrol".into(), alias: "E".into() },
                TableExpr::Relation { name: "Course".into(), alias: "C".into() },
            ],
            predicates: vec![
                Predicate::JoinEq(col("E", "Sid"), col("S", "Sid")),
                Predicate::JoinEq(col("E", "Code"), col("C", "Code")),
                Predicate::Contains(col("S", "Sname"), "Green".into()),
            ],
            group_by: vec![col("S", "Sid")],
            ..Default::default()
        };
        let db = db();
        let pushed = plan(&stmt, &db).unwrap();
        let scan = find(&pushed, &|n| {
            matches!(&n.op, PlanOp::Scan { relation, pushed, .. }
                if relation == "Student" && !pushed.is_empty())
        });
        assert!(scan.is_some(), "contains pushed into the Student scan:\n{}", render_plan(&pushed));
        assert!(
            find(&pushed, &|n| matches!(n.op, PlanOp::Filter { .. })).is_none(),
            "no residual filter remains"
        );

        let unpushed = plan_with_options(&stmt, &db, &PlanOptions { pushdown: false }).unwrap();
        assert!(
            find(&unpushed, &|n| matches!(n.op, PlanOp::Filter { .. })).is_some(),
            "pushdown off keeps a post-join filter:\n{}",
            render_plan(&unpushed)
        );
        let (a, stats_a) = run_plan(&pushed, &db).unwrap();
        let (b, _) = run_plan(&unpushed, &db).unwrap();
        assert_eq!(a.rows, b.rows);
        // The pushed scan emits only the two Greens.
        assert_eq!(stats_a.ops[scan.unwrap().id].rows_out, 2);
    }

    /// A derived table inside a derived table plans recursively: two
    /// DerivedTable nodes, one aggregation per level, correct answer.
    #[test]
    fn derived_table_inside_derived_table() {
        let innermost = SelectStatement {
            distinct: true,
            items: vec![SelectItem::Column { col: col("E", "Sid"), alias: None }],
            from: vec![TableExpr::Relation { name: "Enrol".into(), alias: "E".into() }],
            ..Default::default()
        };
        let middle = SelectStatement {
            items: vec![SelectItem::Column { col: col("D2", "Sid"), alias: None }],
            from: vec![TableExpr::Derived { query: Box::new(innermost), alias: "D2".into() }],
            ..Default::default()
        };
        let outer = SelectStatement {
            items: vec![count_item("D1", "Sid")],
            from: vec![TableExpr::Derived { query: Box::new(middle), alias: "D1".into() }],
            ..Default::default()
        };
        let db = db();
        let p = plan(&outer, &db).unwrap();
        let mut derived = 0;
        p.visit(&mut |n| {
            if matches!(n.op, PlanOp::DerivedTable { .. }) {
                derived += 1;
            }
        });
        assert_eq!(derived, 2, "{}", render_plan(&p));
        let (table, _) = run_plan(&p, &db).unwrap();
        assert_eq!(table.scalar(), Some(&Value::Int(3)));
    }

    /// The hash join builds on the estimated-smaller side; output column
    /// order (left ++ right) is unaffected.
    #[test]
    fn hash_join_build_side_follows_cardinality() {
        let mk = |from: Vec<TableExpr>| SelectStatement {
            items: vec![count_item("E", "Code")],
            from,
            predicates: vec![Predicate::JoinEq(col("S", "Sid"), col("E", "Sid"))],
            ..Default::default()
        };
        let db = db();
        // Student (3 rows) first: left is smaller, build left.
        let p = plan(
            &mk(vec![
                TableExpr::Relation { name: "Student".into(), alias: "S".into() },
                TableExpr::Relation { name: "Enrol".into(), alias: "E".into() },
            ]),
            &db,
        )
        .unwrap();
        let j = find(&p, &|n| matches!(n.op, PlanOp::HashJoin { .. })).unwrap();
        assert!(matches!(j.op, PlanOp::HashJoin { build_left: true, .. }), "{}", render_plan(&p));
        // Enrol (6 rows) first: the smaller Student still seeds the join,
        // so it is still the left input and still builds.
        let p2 = plan(
            &mk(vec![
                TableExpr::Relation { name: "Enrol".into(), alias: "E".into() },
                TableExpr::Relation { name: "Student".into(), alias: "S".into() },
            ]),
            &db,
        )
        .unwrap();
        let j2 = find(&p2, &|n| matches!(n.op, PlanOp::HashJoin { .. })).unwrap();
        assert!(matches!(j2.op, PlanOp::HashJoin { build_left: true, .. }), "{}", render_plan(&p2));
        let (a, stats) = run_plan(&p, &db).unwrap();
        let (b, _) = run_plan(&p2, &db).unwrap();
        assert_eq!(a.rows, b.rows, "build side never changes answers");
        let note = stats.ops[j.id].note.clone().unwrap_or_default();
        assert!(note.contains("build rows=3") && note.contains("probe rows=6"), "{note}");
    }

    /// Student ⋈ Enrol ⋈ Course joined on both keys, with `preds` added.
    fn chain(from: &[(&str, &str)], preds: Vec<Predicate>) -> SelectStatement {
        let mut predicates = vec![
            Predicate::JoinEq(col("E", "Sid"), col("S", "Sid")),
            Predicate::JoinEq(col("E", "Code"), col("C", "Code")),
        ];
        predicates.extend(preds);
        SelectStatement {
            items: vec![count_item("E", "Code")],
            from: from
                .iter()
                .map(|&(name, alias)| TableExpr::Relation {
                    name: name.into(),
                    alias: alias.into(),
                })
                .collect(),
            predicates,
            ..Default::default()
        }
    }

    /// Source aliases in the order the left-deep join tree attaches them.
    fn join_order(node: &PlanNode) -> Vec<String> {
        let mut out = Vec::new();
        node.visit(&mut |n| {
            if let PlanOp::Scan { alias, .. } | PlanOp::DerivedTable { alias, .. } = &n.op {
                out.push(alias.clone());
            }
        });
        out
    }

    const PERMUTATIONS: [[usize; 3]; 6] =
        [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
    const SOURCES: [(&str, &str); 3] = [("Student", "S"), ("Enrol", "E"), ("Course", "C")];

    /// The source with a single-source predicate seeds the join, and the
    /// join grows along the keys from there, whatever the FROM order.
    #[test]
    fn filtered_source_seeds_the_join_whatever_the_from_order() {
        let db = db();
        for perm in PERMUTATIONS {
            let from: Vec<_> = perm.iter().map(|&i| SOURCES[i]).collect();
            let stmt = chain(&from, vec![Predicate::Contains(col("C", "Code"), "c1".into())]);
            let p = plan(&stmt, &db).unwrap();
            assert_eq!(join_order(&p), ["c", "e", "s"], "FROM {from:?}:\n{}", render_plan(&p));
        }
    }

    /// Among the sources connected to the joined prefix, the lowest-ranked
    /// comes next, not the first in FROM order. Enrol (filtered, FROM
    /// position 0) seeds; Course sits before Student in FROM, but only
    /// Student carries a predicate.
    #[test]
    fn lowest_ranked_connected_source_comes_next() {
        let db = db();
        let stmt = chain(
            &[("Enrol", "E"), ("Course", "C"), ("Student", "S")],
            vec![
                Predicate::Contains(col("E", "Code"), "c".into()),
                Predicate::Contains(col("S", "Sname"), "Green".into()),
            ],
        );
        let p = plan(&stmt, &db).unwrap();
        assert_eq!(join_order(&p), ["e", "s", "c"], "{}", render_plan(&p));
        let (t, _) = run_plan(&p, &db).unwrap();
        assert_eq!(t.scalar(), Some(&Value::Int(3)), "s2·c1, s3·c1, s3·c3");
    }

    /// A scan joined on its whole primary key thins the other input
    /// instead of estimating the larger one, so after the filtered
    /// Student ⋈ Enrol the small prefix builds and Course is probed.
    /// The `max` rule would estimate the prefix at Enrol's 6 rows and
    /// hash Course instead.
    #[test]
    fn key_aware_estimate_picks_the_build_side() {
        let db = db();
        let stmt = chain(
            &[("Course", "C"), ("Enrol", "E"), ("Student", "S")],
            vec![Predicate::Contains(col("S", "Sname"), "Green".into())],
        );
        let p = plan(&stmt, &db).unwrap();
        assert_eq!(join_order(&p), ["s", "e", "c"], "{}", render_plan(&p));
        let top = find(&p, &|n| matches!(n.op, PlanOp::HashJoin { .. })).unwrap();
        let prefix = &top.children[0];
        // Student (3 rows, 1/4 kept: est 1) on its key Sid: 6 × 1 / 3.
        assert_eq!(prefix.est_rows, 2, "{}", render_plan(&p));
        assert!(matches!(top.op, PlanOp::HashJoin { build_left: true, .. }), "{}", render_plan(&p));
        // Course joined on its key Code: 2 × 3 / 3.
        assert_eq!(top.est_rows, 2);

        // Enrol's key is (Sid, Code): joining it on Sid alone keeps `max`.
        let scan = |name: &str, alias: &str| {
            let from = [TableExpr::Relation { name: name.into(), alias: alias.into() }];
            plan_source(&from[0], alias, &db, &PlanOptions::default(), &mut IdGen(0)).unwrap()
        };
        let (s, e) = (scan("Student", "s"), scan("Enrol", "e"));
        assert_eq!(join_estimate(&s, &e, Some((&[0], &[0])), &db), 6, "keyed: 6 × 3 / 3");
        let (e2, e3) = (scan("Enrol", "a"), scan("Enrol", "b"));
        assert_eq!(join_estimate(&e2, &e3, Some((&[0], &[0])), &db), 6, "unkeyed: max(6, 6)");
        assert_eq!(join_estimate(&e2, &e3, Some((&[0, 1], &[0, 1])), &db), 6, "keyed both ways");
        assert_eq!(join_estimate(&s, &e, None, &db), 18, "cross product");
    }

    /// The join order is ranked from the statement, so planning with
    /// pushdown off joins the sources in the same order as with it on.
    #[test]
    fn pushdown_on_and_off_give_the_same_join_order() {
        let db = db();
        for perm in PERMUTATIONS {
            let from: Vec<_> = perm.iter().map(|&i| SOURCES[i]).collect();
            for pred in [
                Predicate::Contains(col("S", "Sname"), "Green".into()),
                Predicate::Eq(col("C", "Code"), Value::str("c2")),
            ] {
                let stmt = chain(&from, vec![pred]);
                let on = plan(&stmt, &db).unwrap();
                let off = plan_with_options(&stmt, &db, &PlanOptions { pushdown: false }).unwrap();
                assert_eq!(
                    join_order(&on),
                    join_order(&off),
                    "on:\n{}\noff:\n{}",
                    render_plan(&on),
                    render_plan(&off)
                );
                assert_eq!(run_plan(&on, &db).unwrap().0, run_plan(&off, &db).unwrap().0);
            }
        }
    }

    /// ORDER BY yields a Sort node and `is_ordered`; without one the
    /// root is unordered and run_plan canonicalizes row order.
    #[test]
    fn sort_node_and_ordering_flag() {
        let mut stmt = SelectStatement {
            items: vec![SelectItem::Column { col: col("E", "Sid"), alias: None }],
            from: vec![TableExpr::Relation { name: "Enrol".into(), alias: "E".into() }],
            ..Default::default()
        };
        let db = db();
        let p = plan(&stmt, &db).unwrap();
        assert!(!p.is_ordered());
        let (t, _) = run_plan(&p, &db).unwrap();
        assert!(t.rows.windows(2).all(|w| w[0] <= w[1]), "stable value order: {t}");

        stmt.order_by = vec![OrderKey { column: col("", "Sid"), desc: true }];
        stmt.limit = Some(3);
        let p = plan(&stmt, &db).unwrap();
        assert!(p.is_ordered(), "{}", render_plan(&p));
        assert!(matches!(p.op, PlanOp::Limit { n: 3 }));
        let (t, _) = run_plan(&p, &db).unwrap();
        assert_eq!(t.len(), 3);
        assert!(t.rows.windows(2).all(|w| w[0] >= w[1]), "descending preserved: {t}");
    }

    /// The EXPLAIN renderer draws every operator with estimates; the
    /// analyzed form adds live row counts and timings.
    #[test]
    fn render_plan_shows_tree_and_metrics() {
        let stmt = SelectStatement {
            items: vec![count_item("E", "Code")],
            from: vec![
                TableExpr::Relation { name: "Student".into(), alias: "S".into() },
                TableExpr::Relation { name: "Enrol".into(), alias: "E".into() },
            ],
            predicates: vec![
                Predicate::JoinEq(col("S", "Sid"), col("E", "Sid")),
                Predicate::Contains(col("S", "Sname"), "Green".into()),
            ],
            ..Default::default()
        };
        let db = db();
        let p = plan(&stmt, &db).unwrap();
        let text = render_plan(&p);
        assert!(text.contains("HashAggregate"), "{text}");
        assert!(text.contains("HashJoin on [s.sid = e.sid]"), "{text}");
        assert!(text.contains("Scan Student AS s [s.sname contains 'green']"), "{text}");
        assert!(text.contains("└─"), "{text}");
        let (_, stats) = run_plan(&p, &db).unwrap();
        let analyzed = render_plan_with_stats(&p, &stats);
        assert!(analyzed.contains("rows="), "{analyzed}");
        assert!(analyzed.contains("time="), "{analyzed}");
        assert!(analyzed.contains("total:"), "{analyzed}");
    }

    /// Regression: join-key pairs render in canonical (left-schema)
    /// order no matter how the planner's accumulation order stored
    /// them, so EXPLAIN text cannot leak the build/probe bookkeeping
    /// into otherwise identical plans.
    #[test]
    fn render_plan_sorts_join_keys_canonically() {
        let stmt = SelectStatement {
            items: vec![
                SelectItem::Column { col: col("S", "Sid"), alias: None },
                SelectItem::Column { col: col("E", "Code"), alias: None },
            ],
            from: vec![
                TableExpr::Relation { name: "Student".into(), alias: "S".into() },
                TableExpr::Relation { name: "Enrol".into(), alias: "E".into() },
            ],
            predicates: vec![Predicate::JoinEq(col("S", "Sid"), col("E", "Sid"))],
            ..Default::default()
        };
        let db = db();
        let p = plan(&stmt, &db).unwrap();
        let mut join = find(&p, &|n| matches!(n.op, PlanOp::HashJoin { .. })).unwrap().clone();
        let canonical = join.label();
        // Storing the key pairs in reverse must not change the label.
        if let PlanOp::HashJoin { left_keys, right_keys, .. } = &mut join.op {
            left_keys.push(0);
            right_keys.push(1);
            left_keys.reverse();
            right_keys.reverse();
            let reversed_pairs = join.label();
            if let PlanOp::HashJoin { left_keys, right_keys, .. } = &mut join.op {
                left_keys.reverse();
                right_keys.reverse();
                assert_eq!(join.label(), reversed_pairs, "pair order leaked into the label");
            }
        }
        assert!(canonical.contains("s.sid = e.sid"), "{canonical}");
    }

    /// Regression: `output_names` must stay parallel to `cols` on every
    /// node of a nested derived plan. The historical implementation
    /// recursed into `children.first()` for all non-name-declaring
    /// operators, so a join inside a derived subplan reported only its
    /// left side's names, and a derived table leaked its inner statement's
    /// names instead of resolving through its own (re-aliased) layout —
    /// drift between [`render_plan`]'s labels and the name-based APIs.
    #[test]
    fn output_names_agree_with_layout_in_nested_derived_plans() {
        // Innermost: a join, so the derived subplan contains a binary
        // node whose output names must cover both sides.
        let innermost = SelectStatement {
            items: vec![
                SelectItem::Column { col: col("E", "Sid"), alias: None },
                SelectItem::Column { col: col("C", "Credit"), alias: Some("Cr".into()) },
            ],
            from: vec![
                TableExpr::Relation { name: "Enrol".into(), alias: "E".into() },
                TableExpr::Relation { name: "Course".into(), alias: "C".into() },
            ],
            predicates: vec![Predicate::JoinEq(col("E", "Code"), col("C", "Code"))],
            ..Default::default()
        };
        let middle = SelectStatement {
            distinct: true,
            items: vec![
                SelectItem::Column { col: col("D2", "Sid"), alias: None },
                SelectItem::Column { col: col("D2", "Cr"), alias: None },
            ],
            from: vec![TableExpr::Derived { query: Box::new(innermost), alias: "D2".into() }],
            ..Default::default()
        };
        let outer = SelectStatement {
            items: vec![count_item("D1", "Sid")],
            from: vec![TableExpr::Derived { query: Box::new(middle), alias: "D1".into() }],
            ..Default::default()
        };
        let db = db();
        let p = plan(&outer, &db).unwrap();
        p.visit(&mut |n| {
            let names = n.output_names();
            assert_eq!(
                names.len(),
                n.cols.len(),
                "node {} `{}`: names {names:?} vs layout {:?}\n{}",
                n.id,
                n.label(),
                n.cols,
                render_plan(&p)
            );
            for (name, (_, c)) in names.iter().zip(&n.cols) {
                assert!(
                    name.eq_ignore_ascii_case(c),
                    "node {} `{}`: name `{name}` vs layout column `{c}`",
                    n.id,
                    n.label()
                );
            }
        });
        // The derived tables resolve through their own captured names
        // (original case preserved), and the labels show them.
        let d2 =
            find(&p, &|n| matches!(&n.op, PlanOp::DerivedTable { alias, .. } if alias == "d2"))
                .expect("inner derived table");
        assert_eq!(d2.output_names(), vec!["Sid".to_string(), "Cr".to_string()]);
        assert!(d2.label().contains("[Sid, Cr]"), "{}", d2.label());
    }

    /// Planning errors mirror the executor's historical error variants.
    #[test]
    fn plan_errors_match_exec_errors() {
        let db = db();
        let stmt = SelectStatement {
            items: vec![SelectItem::Column { col: col("X", "a"), alias: None }],
            from: vec![TableExpr::Relation { name: "Nope".into(), alias: "X".into() }],
            ..Default::default()
        };
        assert!(matches!(plan(&stmt, &db), Err(ExecError::UnknownRelation(_))));
        let stmt = SelectStatement {
            items: vec![SelectItem::Column { col: col("S", "Sid"), alias: None }],
            from: vec![TableExpr::Relation { name: "Student".into(), alias: "S".into() }],
            predicates: vec![Predicate::Contains(col("Z", "zap"), "x".into())],
            ..Default::default()
        };
        assert!(matches!(plan(&stmt, &db), Err(ExecError::UnknownColumn(_))));
    }
}
