//! Translation validation of physical plans.
//!
//! [`verify`] walks the plan bottom-up, inferring [`NodeProps`] per node
//! and checking each operator against the planner's own contract: the
//! catalog, child arity, column layouts, index ranges, the build side
//! and the cardinality bound. It then proves that the plan computes the
//! statement it was lowered from, column by column: sources, equi-joins,
//! `contains`/literal selections, GROUP BY keys, aggregate arguments,
//! select columns, DISTINCT, sort keys and LIMIT. The first violated
//! invariant aborts with a typed [`PlanError`] naming the offending
//! node; a clean walk returns the per-node properties plus the plan
//! fingerprint.
//!
//! Whether the *statement* is right (names, types, join edges, aggregate
//! shape, duplicate inflation) is the SQL analyzer's question
//! (`aqks-analyze`, AQ-P1–P5). The engine refuses analyzer errors
//! before it plans, so a statement that reaches the verifier is
//! analyzer-clean, and a plan that realizes it inherits that verdict.

use std::collections::BTreeSet;

use aqks_relational::{Database, Value};
use aqks_sqlgen::ast::{ColumnRef, Predicate, SelectItem, SelectStatement, TableExpr};
use aqks_sqlgen::{PhysAggItem, PhysPred, PlanNode, PlanOp};

use crate::fingerprint::fingerprint;
use crate::props::{infer, NodeProps};

/// The class of a violated plan invariant. Stable names (see
/// [`PlanErrorKind::name`]) key the `plancheck.rejected.<kind>` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanErrorKind {
    /// A scanned relation does not exist in the catalog.
    Catalog,
    /// A column index does not resolve in its input layout.
    UnresolvedColumn,
    /// A node's layout disagrees with its operator or children.
    SchemaMismatch,
    /// Join key lists are empty or of different lengths.
    JoinKeyArity,
    /// The column pairs a FROM level equates (hash-join keys and
    /// same-source equalities) differ from the statement's equi-joins.
    JoinProvenance,
    /// The hash-join build side contradicts the cardinality estimates.
    BuildSide,
    /// The `contains`/literal selections a FROM level applies, pushed or
    /// residual, differ from the statement's.
    PredicateMismatch,
    /// The planner's row estimate exceeds the provable upper bound.
    CardinalityBound,
    /// `SELECT DISTINCT` and the plan's Distinct operator disagree.
    LostDistinct,
    /// ORDER BY and the plan's Sort operator disagree.
    OrderMismatch,
    /// LIMIT and the plan's Limit operator disagree.
    LimitMismatch,
    /// GROUP BY and the plan's group-key columns disagree.
    GroupMismatch,
    /// The plan's output names or the columns its select items read do
    /// not match the statement's.
    OutputSchema,
}

impl PlanErrorKind {
    /// Stable snake_case name (used as the rejection-counter suffix).
    pub fn name(self) -> &'static str {
        match self {
            PlanErrorKind::Catalog => "catalog",
            PlanErrorKind::UnresolvedColumn => "unresolved_column",
            PlanErrorKind::SchemaMismatch => "schema_mismatch",
            PlanErrorKind::JoinKeyArity => "join_key_arity",
            PlanErrorKind::JoinProvenance => "join_provenance",
            PlanErrorKind::BuildSide => "build_side",
            PlanErrorKind::PredicateMismatch => "predicate_mismatch",
            PlanErrorKind::CardinalityBound => "cardinality_bound",
            PlanErrorKind::LostDistinct => "lost_distinct",
            PlanErrorKind::OrderMismatch => "order_mismatch",
            PlanErrorKind::LimitMismatch => "limit_mismatch",
            PlanErrorKind::GroupMismatch => "group_mismatch",
            PlanErrorKind::OutputSchema => "output_schema",
        }
    }
}

/// A violated plan invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// The violated invariant.
    pub kind: PlanErrorKind,
    /// Id of the offending plan node.
    pub node: usize,
    /// Human-readable specifics.
    pub detail: String,
}

impl PlanError {
    fn new(kind: PlanErrorKind, node: usize, detail: impl Into<String>) -> Self {
        PlanError { kind, node, detail: detail.into() }
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] node {}: {}", self.kind.name(), self.node, self.detail)
    }
}

impl std::error::Error for PlanError {}

/// The result of a clean verification: per-node properties (indexed by
/// node id, like `ExecStats::ops`) and the plan fingerprint.
#[derive(Debug, Clone)]
pub struct Verified {
    props: Vec<Option<NodeProps>>,
    /// Normalized plan fingerprint (see [`crate::fingerprint()`]).
    pub fingerprint: u64,
}

impl Verified {
    /// Properties of the node with the given id.
    pub fn props(&self, id: usize) -> Option<&NodeProps> {
        self.props.get(id).and_then(Option::as_ref)
    }

    /// Properties of the plan root.
    pub fn root<'a>(&'a self, plan: &PlanNode) -> &'a NodeProps {
        self.props(plan.id).expect("root props recorded during verification")
    }
}

/// Verifies `plan` against the catalog and proves that it computes
/// `stmt`, the statement it was lowered from.
pub fn verify(
    plan: &PlanNode,
    db: &Database,
    stmt: &SelectStatement,
) -> Result<Verified, PlanError> {
    let mut props: Vec<Option<NodeProps>> = Vec::new();
    props.resize_with(plan.max_id() + 1, || None);
    check_node(plan, db, &mut props)?;
    check_stmt(plan, stmt)?;
    Ok(Verified { props, fingerprint: fingerprint(plan) })
}

/// Debug-build verification gate: full verification under
/// `debug_assertions`, a branch-only no-op (zero allocations) in release
/// builds — the skip path the counting-allocator test pins.
pub fn verify_in_debug(
    plan: &PlanNode,
    db: &Database,
    stmt: &SelectStatement,
) -> Result<(), PlanError> {
    if cfg!(debug_assertions) {
        verify(plan, db, stmt).map(|_| ())
    } else {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Per-node checks: the planner's contract
// ---------------------------------------------------------------------------

fn check_node(
    node: &PlanNode,
    db: &Database,
    out: &mut Vec<Option<NodeProps>>,
) -> Result<NodeProps, PlanError> {
    let mut child_props: Vec<NodeProps> = Vec::with_capacity(node.children.len());
    for c in &node.children {
        child_props.push(check_node(c, db, out)?);
    }
    check_structure(node, db)?;
    let refs: Vec<&NodeProps> = child_props.iter().collect();
    let props = infer(node, &refs, db);
    check_estimates(node, &props)?;
    if let Some(slot) = out.get_mut(node.id) {
        *slot = Some(props.clone());
    }
    Ok(props)
}

/// Shape checks that need no inferred properties: child arity, index
/// resolution, and layout consistency with the operator and children.
fn check_structure(node: &PlanNode, db: &Database) -> Result<(), PlanError> {
    let err = |kind, detail: String| Err(PlanError::new(kind, node.id, detail));
    let want_children = match node.op {
        PlanOp::Scan { .. } => 0,
        PlanOp::HashJoin { .. } | PlanOp::CrossJoin => 2,
        _ => 1,
    };
    if node.children.len() != want_children {
        return err(
            PlanErrorKind::SchemaMismatch,
            format!("operator expects {want_children} input(s), has {}", node.children.len()),
        );
    }
    let check_pred_indices = |preds: &[PhysPred], arity: usize| -> Result<(), PlanError> {
        for p in preds {
            let idxs: Vec<usize> = match p {
                PhysPred::EqCols(l, r) => vec![*l, *r],
                PhysPred::ContainsCi(i, _) | PhysPred::EqLit(i, _) => vec![*i],
            };
            for i in idxs {
                if i >= arity {
                    return Err(PlanError::new(
                        PlanErrorKind::UnresolvedColumn,
                        node.id,
                        format!("predicate column #{i} out of range (arity {arity})"),
                    ));
                }
            }
        }
        Ok(())
    };
    match &node.op {
        PlanOp::Scan { relation, alias, pushed } => {
            let Some(table) = db.table(relation) else {
                return err(PlanErrorKind::Catalog, format!("unknown relation `{relation}`"));
            };
            let want: Vec<(String, String)> = table
                .schema
                .attrs
                .iter()
                .map(|a| (alias.to_lowercase(), a.name.to_lowercase()))
                .collect();
            if node.cols != want {
                return err(
                    PlanErrorKind::SchemaMismatch,
                    format!("scan layout {:?} does not match `{relation}` schema", node.cols),
                );
            }
            check_pred_indices(pushed, node.cols.len())?;
        }
        PlanOp::DerivedTable { alias, names } => {
            let child = &node.children[0];
            if names.len() != child.cols.len() {
                return err(
                    PlanErrorKind::SchemaMismatch,
                    format!(
                        "derived table carries {} name(s) over a {}-column subplan",
                        names.len(),
                        child.cols.len()
                    ),
                );
            }
            let want: Vec<(String, String)> =
                names.iter().map(|n| (alias.to_lowercase(), n.to_lowercase())).collect();
            if node.cols != want {
                return err(
                    PlanErrorKind::SchemaMismatch,
                    "derived-table layout does not re-alias its captured names".to_string(),
                );
            }
        }
        PlanOp::HashJoin { left_keys, right_keys, .. } => {
            check_join_layout(node)?;
            if left_keys.is_empty() || left_keys.len() != right_keys.len() {
                return err(
                    PlanErrorKind::JoinKeyArity,
                    format!("{} left vs {} right key(s)", left_keys.len(), right_keys.len()),
                );
            }
            let (la, ra) = (node.children[0].cols.len(), node.children[1].cols.len());
            for (&l, &r) in left_keys.iter().zip(right_keys) {
                if l >= la || r >= ra {
                    return err(
                        PlanErrorKind::UnresolvedColumn,
                        format!("join key ({l}, {r}) out of range (arities {la}, {ra})"),
                    );
                }
            }
        }
        PlanOp::CrossJoin => check_join_layout(node)?,
        PlanOp::Filter { preds } => {
            check_passthrough_layout(node)?;
            check_pred_indices(preds, node.children[0].cols.len())?;
        }
        PlanOp::HashAggregate { group, items, names } => {
            if items.len() != names.len() {
                return err(
                    PlanErrorKind::SchemaMismatch,
                    format!("{} item(s) but {} name(s)", items.len(), names.len()),
                );
            }
            check_output_layout(node, names)?;
            let arity = node.children[0].cols.len();
            for &g in group {
                if g >= arity {
                    return err(
                        PlanErrorKind::UnresolvedColumn,
                        format!("group key #{g} out of range (arity {arity})"),
                    );
                }
            }
            for item in items {
                let i = match item {
                    PhysAggItem::Col(i) => *i,
                    PhysAggItem::Agg { arg, .. } => *arg,
                };
                if i >= arity {
                    return err(
                        PlanErrorKind::UnresolvedColumn,
                        format!("aggregate input #{i} out of range (arity {arity})"),
                    );
                }
            }
        }
        PlanOp::Project { cols, names } => {
            if cols.len() != names.len() {
                return err(
                    PlanErrorKind::SchemaMismatch,
                    format!("{} column(s) but {} name(s)", cols.len(), names.len()),
                );
            }
            check_output_layout(node, names)?;
            let arity = node.children[0].cols.len();
            for &i in cols {
                if i >= arity {
                    return err(
                        PlanErrorKind::UnresolvedColumn,
                        format!("projected column #{i} out of range (arity {arity})"),
                    );
                }
            }
        }
        PlanOp::Distinct | PlanOp::Limit { .. } => check_passthrough_layout(node)?,
        PlanOp::Sort { keys } => {
            check_passthrough_layout(node)?;
            let arity = node.cols.len();
            for &(i, _) in keys {
                if i >= arity {
                    return err(
                        PlanErrorKind::UnresolvedColumn,
                        format!("sort key #{i} out of range (arity {arity})"),
                    );
                }
            }
        }
    }
    // output_names() must stay parallel to the layout everywhere (the
    // derived-table aliasing drift the verifier exists to catch).
    let names = node.output_names();
    if names.len() != node.cols.len()
        || names.iter().zip(&node.cols).any(|(n, (_, c))| !n.eq_ignore_ascii_case(c))
    {
        return err(
            PlanErrorKind::SchemaMismatch,
            format!("output names {names:?} not parallel to layout {:?}", node.cols),
        );
    }
    Ok(())
}

fn check_join_layout(node: &PlanNode) -> Result<(), PlanError> {
    let mut want = node.children[0].cols.clone();
    want.extend(node.children[1].cols.iter().cloned());
    if node.cols != want {
        return Err(PlanError::new(
            PlanErrorKind::SchemaMismatch,
            node.id,
            "join layout is not left ++ right".to_string(),
        ));
    }
    Ok(())
}

fn check_passthrough_layout(node: &PlanNode) -> Result<(), PlanError> {
    if node.cols != node.children[0].cols {
        return Err(PlanError::new(
            PlanErrorKind::SchemaMismatch,
            node.id,
            "pass-through operator changed its input layout".to_string(),
        ));
    }
    Ok(())
}

fn check_output_layout(node: &PlanNode, names: &[String]) -> Result<(), PlanError> {
    let want: Vec<(String, String)> =
        names.iter().map(|n| (String::new(), n.to_lowercase())).collect();
    if node.cols != want {
        return Err(PlanError::new(
            PlanErrorKind::SchemaMismatch,
            node.id,
            "output layout does not match declared names".to_string(),
        ));
    }
    Ok(())
}

/// The planner's estimate contract: each hash join builds on its
/// estimated-smaller input, and no estimate exceeds the provable bound.
fn check_estimates(node: &PlanNode, props: &NodeProps) -> Result<(), PlanError> {
    if let PlanOp::HashJoin { build_left, .. } = node.op {
        let (l, r) = (node.children[0].est_rows, node.children[1].est_rows);
        if build_left != (l < r) {
            return Err(PlanError::new(
                PlanErrorKind::BuildSide,
                node.id,
                format!(
                    "build side is {} but estimates are {l} vs {r}",
                    if build_left { "left" } else { "right" }
                ),
            ));
        }
    }
    if node.est_rows > props.max_rows {
        return Err(PlanError::new(
            PlanErrorKind::CardinalityBound,
            node.id,
            format!("estimate {} exceeds provable bound {}", node.est_rows, props.max_rows),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Statement correspondence
// ---------------------------------------------------------------------------

/// A lowercased `(alias, column)` reference.
type Col = (String, String);

/// An equated pair of column references, smaller first.
type ColPair = (Col, Col);

fn col_of(c: &ColumnRef) -> Col {
    (c.qualifier.to_lowercase(), c.column.to_lowercase())
}

fn col_pair(a: Col, b: Col) -> ColPair {
    if b < a {
        (b, a)
    } else {
        (a, b)
    }
}

/// A single-column selection: `contains` (needle lowercased, as the
/// executor matches it) or equality with a literal.
#[derive(PartialEq)]
enum Selection {
    Contains(String),
    Eq(Value),
}

impl Selection {
    fn describe(&self, (alias, col): &Col) -> String {
        match self {
            Selection::Contains(needle) => format!("{alias}.{col} contains '{needle}'"),
            Selection::Eq(v) => format!("{alias}.{col} = {v}"),
        }
    }
}

/// What one FROM level of a plan computes: the region below its
/// aggregate or projection, down to (not into) derived-table subplans.
#[derive(Default)]
struct Level<'a> {
    /// Scans and derived tables, in plan pre-order.
    sources: Vec<&'a PlanNode>,
    /// Column pairs equated by hash-join keys and `EqCols` predicates.
    equated: BTreeSet<ColPair>,
    /// `contains`/literal selections, pushed or residual.
    selections: Vec<(Col, Selection)>,
}

impl<'a> Level<'a> {
    fn collect(node: &'a PlanNode) -> Result<Level<'a>, PlanError> {
        let mut level = Level::default();
        level.walk(node)?;
        Ok(level)
    }

    fn walk(&mut self, node: &'a PlanNode) -> Result<(), PlanError> {
        match &node.op {
            PlanOp::Scan { pushed, .. } => {
                self.sources.push(node);
                self.note(pushed, &node.cols);
            }
            PlanOp::DerivedTable { .. } => {
                self.sources.push(node);
                return Ok(());
            }
            PlanOp::Filter { preds } => self.note(preds, &node.children[0].cols),
            PlanOp::HashJoin { left_keys, right_keys, .. } => {
                let (lc, rc) = (&node.children[0].cols, &node.children[1].cols);
                for (&l, &r) in left_keys.iter().zip(right_keys) {
                    self.equated.insert(col_pair(lc[l].clone(), rc[r].clone()));
                }
            }
            PlanOp::CrossJoin => {}
            _ => {
                return Err(PlanError::new(
                    PlanErrorKind::SchemaMismatch,
                    node.id,
                    format!("`{}` inside a FROM level", node.label()),
                ));
            }
        }
        node.children.iter().try_for_each(|c| self.walk(c))
    }

    /// Records predicates resolved against `cols` (indices are in range:
    /// the per-node checks ran first).
    fn note(&mut self, preds: &[PhysPred], cols: &[Col]) {
        for p in preds {
            match p {
                PhysPred::EqCols(l, r) => {
                    self.equated.insert(col_pair(cols[*l].clone(), cols[*r].clone()));
                }
                PhysPred::ContainsCi(i, needle) => {
                    self.selections.push((cols[*i].clone(), Selection::Contains(needle.clone())));
                }
                PhysPred::EqLit(i, v) => {
                    self.selections.push((cols[*i].clone(), Selection::Eq(v.clone())));
                }
            }
        }
    }
}

/// Proves that the plan computes `stmt`, level by level: LIMIT, ORDER BY
/// keys and DISTINCT present exactly when requested; the aggregate or
/// projection reading the statement's GROUP BY columns, aggregate
/// arguments and select columns under its output names; and each FROM
/// level applying exactly the statement's sources, equi-joins and
/// `contains`/literal selections, recursively through derived tables.
/// Together with the per-node checks, a plan that passes computes the
/// statement it was lowered from, so the SQL analyzer's findings about
/// that statement hold for the plan too.
fn check_stmt(root: &PlanNode, stmt: &SelectStatement) -> Result<(), PlanError> {
    let err = |kind, node: &PlanNode, detail: String| Err(PlanError::new(kind, node.id, detail));
    let want_names: Vec<&str> = stmt.items.iter().map(SelectItem::output_name).collect();
    let mut cur = root;
    match (&cur.op, stmt.limit) {
        (PlanOp::Limit { n }, Some(want)) if *n == want => cur = &cur.children[0],
        (PlanOp::Limit { n }, want) => {
            return err(
                PlanErrorKind::LimitMismatch,
                cur,
                format!("plan limits to {n}, statement wants {want:?}"),
            );
        }
        (_, Some(want)) => {
            return err(
                PlanErrorKind::LimitMismatch,
                cur,
                format!("statement has LIMIT {want} but the plan root does not limit"),
            );
        }
        (_, None) => {}
    }
    match (&cur.op, stmt.order_by.is_empty()) {
        (PlanOp::Sort { keys }, false) => {
            // The planner resolves each key to the first output it names.
            let want: Vec<(Option<usize>, bool)> = stmt
                .order_by
                .iter()
                .map(|k| {
                    let at =
                        want_names.iter().position(|n| n.eq_ignore_ascii_case(&k.column.column));
                    (at, k.desc)
                })
                .collect();
            if !keys.iter().map(|&(i, desc)| (Some(i), desc)).eq(want) {
                return err(
                    PlanErrorKind::OrderMismatch,
                    cur,
                    format!("sort keys {keys:?} do not realize the statement's ORDER BY"),
                );
            }
            cur = &cur.children[0];
        }
        (PlanOp::Sort { .. }, true) => {
            return err(
                PlanErrorKind::OrderMismatch,
                cur,
                "plan sorts but the statement has no ORDER BY".to_string(),
            );
        }
        (_, false) => {
            return err(
                PlanErrorKind::OrderMismatch,
                cur,
                "statement has ORDER BY but the plan root is unordered".to_string(),
            );
        }
        (_, true) => {}
    }
    match (&cur.op, stmt.distinct) {
        (PlanOp::Distinct, true) => cur = &cur.children[0],
        (PlanOp::Distinct, false) => {
            return err(
                PlanErrorKind::LostDistinct,
                cur,
                "plan deduplicates but the statement is not SELECT DISTINCT".to_string(),
            );
        }
        (_, true) => {
            return err(
                PlanErrorKind::LostDistinct,
                cur,
                "SELECT DISTINCT but no Distinct operator above the projection".to_string(),
            );
        }
        (_, false) => {}
    }

    // The output operator: names, then the columns each item reads.
    let grouped = stmt.has_aggregate() || !stmt.group_by.is_empty();
    let input = &cur.children[0].cols;
    let realizes = |item: &SelectItem, got: &PhysAggItem| match (item, got) {
        (SelectItem::Column { col, .. }, PhysAggItem::Col(i)) => input[*i] == col_of(col),
        (
            SelectItem::Aggregate { func, arg, distinct, .. },
            PhysAggItem::Agg { func: f, arg: a, distinct: d },
        ) => func == f && distinct == d && input[*a] == col_of(arg),
        _ => false,
    };
    match &cur.op {
        PlanOp::HashAggregate { group, items, names } if grouped => {
            check_names(cur.id, names, &want_names)?;
            let got: Vec<Col> = group.iter().map(|&g| input[g].clone()).collect();
            let want: Vec<Col> = stmt.group_by.iter().map(col_of).collect();
            if got != want {
                return err(
                    PlanErrorKind::GroupMismatch,
                    cur,
                    format!("plan groups by {got:?}, statement by {want:?}"),
                );
            }
            if !stmt.items.iter().zip(items).all(|(item, got)| realizes(item, got)) {
                return err(
                    PlanErrorKind::OutputSchema,
                    cur,
                    "aggregate items do not realize the statement's select list".to_string(),
                );
            }
        }
        PlanOp::Project { cols, names } if !grouped => {
            check_names(cur.id, names, &want_names)?;
            if !stmt.items.iter().zip(cols).all(|(item, &i)| realizes(item, &PhysAggItem::Col(i))) {
                return err(
                    PlanErrorKind::OutputSchema,
                    cur,
                    "projected columns do not realize the statement's select list".to_string(),
                );
            }
        }
        _ => {
            return err(
                PlanErrorKind::OutputSchema,
                cur,
                format!(
                    "expected {} at the statement's output, found `{}`",
                    if grouped { "HashAggregate" } else { "Project" },
                    cur.label()
                ),
            );
        }
    }

    let level = Level::collect(&cur.children[0])?;

    // Equi-joins: hash-join key pairs and `EqCols` predicates realize
    // exactly the statement's JoinEq set, which catches a key re-pointed
    // at the wrong column of a relation.
    let wanted: BTreeSet<ColPair> = stmt
        .predicates
        .iter()
        .filter_map(|p| match p {
            Predicate::JoinEq(a, b) => Some(col_pair(col_of(a), col_of(b))),
            _ => None,
        })
        .collect();
    let extra = level.equated.difference(&wanted).next().map(|p| (p, "the statement does not"));
    let missing = wanted.difference(&level.equated).next().map(|p| (p, "the plan does not"));
    if let Some((((la, lc), (ra, rc)), absent)) = extra.or(missing) {
        return err(
            PlanErrorKind::JoinProvenance,
            cur,
            format!("{la}.{lc} = {ra}.{rc} is equated but {absent} equate it"),
        );
    }

    // Selections: the pushed and residual `contains`/literal predicates
    // are exactly the statement's, as a multiset.
    let mut unmatched = level.selections;
    for p in &stmt.predicates {
        let want = match p {
            Predicate::Contains(c, text) => (col_of(c), Selection::Contains(text.to_lowercase())),
            Predicate::Eq(c, v) => (col_of(c), Selection::Eq(v.clone())),
            Predicate::JoinEq(..) => continue,
        };
        let Some(i) = unmatched.iter().position(|got| *got == want) else {
            return err(
                PlanErrorKind::PredicateMismatch,
                cur,
                format!("the plan does not apply `{}`", want.1.describe(&want.0)),
            );
        };
        unmatched.swap_remove(i);
    }
    if let Some((col, sel)) = unmatched.first() {
        return err(
            PlanErrorKind::PredicateMismatch,
            cur,
            format!("the plan applies `{}`, which the statement does not", sel.describe(col)),
        );
    }

    // Sources: one per FROM item, scanning the named relation or
    // realizing the derived table's subquery.
    if level.sources.len() != stmt.from.len() {
        return err(
            PlanErrorKind::SchemaMismatch,
            cur,
            format!(
                "{} source(s) realize a FROM clause of {} item(s)",
                level.sources.len(),
                stmt.from.len()
            ),
        );
    }
    for item in &stmt.from {
        let alias = item.alias().to_lowercase();
        let source = level.sources.iter().find(|n| match &n.op {
            PlanOp::Scan { alias: a, .. } | PlanOp::DerivedTable { alias: a, .. } => *a == alias,
            _ => false,
        });
        let realized = source.is_some_and(|n| match (item, &n.op) {
            (TableExpr::Relation { name, .. }, PlanOp::Scan { relation, .. }) => {
                relation.eq_ignore_ascii_case(name)
            }
            (TableExpr::Derived { .. }, PlanOp::DerivedTable { .. }) => true,
            _ => false,
        });
        if !realized {
            return err(
                PlanErrorKind::SchemaMismatch,
                cur,
                format!("no source realizes the FROM item AS {}", item.alias()),
            );
        }
        if let (TableExpr::Derived { query, .. }, Some(n)) = (item, source) {
            check_stmt(&n.children[0], query)?;
        }
    }
    Ok(())
}

fn check_names(id: usize, got: &[String], want: &[&str]) -> Result<(), PlanError> {
    if got.len() != want.len() || got.iter().zip(want).any(|(g, w)| !g.eq_ignore_ascii_case(w)) {
        return Err(PlanError::new(
            PlanErrorKind::OutputSchema,
            id,
            format!("plan outputs {got:?}, rendered SQL selects {want:?}"),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Annotated EXPLAIN rendering
// ---------------------------------------------------------------------------

/// Pretty-prints the plan tree with each operator's inferred properties
/// (`aqks explain`'s property view).
pub fn render_verified(plan: &PlanNode, verified: &Verified) -> String {
    let mut out = String::new();
    fn go(
        node: &PlanNode,
        verified: &Verified,
        prefix: &str,
        last: bool,
        root: bool,
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
        if let Some(p) = verified.props(node.id) {
            out.push_str(&format!(" {{{}}}", p.summary(&node.output_names())));
        }
        out.push('\n');
        let n = node.children.len();
        for (i, c) in node.children.iter().enumerate() {
            go(c, verified, &child_prefix, i + 1 == n, false, out);
        }
    }
    go(plan, verified, "", true, true, &mut out);
    out
}
