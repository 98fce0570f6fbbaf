//! Invariant checking over a property-annotated plan tree.
//!
//! [`verify`] walks the plan bottom-up, inferring [`NodeProps`] per node
//! and checking each operator against the catalog and (optionally) the
//! statement it was lowered from. The first violated invariant aborts
//! with a typed [`PlanError`] naming the offending node; a clean walk
//! returns the per-node properties plus the plan fingerprint.
//!
//! The invariants are the physical-level analogues of the SQL analyzer's
//! passes: name resolution (P1), type compatibility (P2), join
//! provenance (P3), aggregate well-formedness (P4) and duplicate
//! safety (P5) — plus planner-contract checks that have no SQL
//! counterpart (layout consistency, build-side policy, cardinality
//! bounds, statement/plan shape correspondence).

use std::collections::{BTreeSet, HashMap};

use aqks_analyze::fdmodel::lower_fd_set;
use aqks_relational::{AttrType, Database, Value};
use aqks_sqlgen::ast::{AggFunc, Predicate, SelectItem, SelectStatement, TableExpr};
use aqks_sqlgen::{PhysAggItem, PhysPred, PlanNode, PlanOp};

use crate::fingerprint::fingerprint;
use crate::props::{infer, ColProp, NodeProps};

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
    /// Join key sides have incompatible declared types.
    JoinKeyType,
    /// A join key pair matches neither a shared base attribute nor a
    /// declared foreign key.
    JoinProvenance,
    /// The hash-join build side contradicts the cardinality estimates.
    BuildSide,
    /// A pushed or residual predicate has incompatible operand types.
    PredType,
    /// An aggregate function over an argument of the wrong type.
    AggType,
    /// A plain aggregation output not determined by the group keys.
    UngroupedColumn,
    /// A duplicate-sensitive aggregate whose input can inflate counts
    /// through redundant rows (physical analogue of AQ-P5).
    DuplicateRisk,
    /// A contains-matched group key that merges distinct entities.
    MergedGroups,
    /// The planner's row estimate exceeds the provable upper bound.
    CardinalityBound,
    /// `SELECT DISTINCT` and the plan's Distinct operator disagree.
    LostDistinct,
    /// ORDER BY and the plan's Sort operator disagree.
    OrderMismatch,
    /// LIMIT and the plan's Limit operator disagree.
    LimitMismatch,
    /// The plan's output schema does not match the statement's.
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
            PlanErrorKind::JoinKeyType => "join_key_type",
            PlanErrorKind::JoinProvenance => "join_provenance",
            PlanErrorKind::BuildSide => "build_side",
            PlanErrorKind::PredType => "pred_type",
            PlanErrorKind::AggType => "agg_type",
            PlanErrorKind::UngroupedColumn => "ungrouped_column",
            PlanErrorKind::DuplicateRisk => "duplicate_risk",
            PlanErrorKind::MergedGroups => "merged_groups",
            PlanErrorKind::CardinalityBound => "cardinality_bound",
            PlanErrorKind::LostDistinct => "lost_distinct",
            PlanErrorKind::OrderMismatch => "order_mismatch",
            PlanErrorKind::LimitMismatch => "limit_mismatch",
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

/// Verifies `plan` against the catalog, and — when the originating
/// statement is supplied — against the statement's required shape.
pub fn verify(
    plan: &PlanNode,
    db: &Database,
    stmt: Option<&SelectStatement>,
) -> Result<Verified, PlanError> {
    let mut props: Vec<Option<NodeProps>> = Vec::new();
    props.resize_with(plan.max_id() + 1, || None);
    check_node(plan, db, &mut props)?;
    if let Some(stmt) = stmt {
        check_stmt(plan, stmt)?;
    }
    Ok(Verified { props, fingerprint: fingerprint(plan) })
}

/// Debug-build verification gate: full verification under
/// `debug_assertions`, a branch-only no-op (zero allocations) in release
/// builds — the skip path the counting-allocator test pins.
pub fn verify_in_debug(
    plan: &PlanNode,
    db: &Database,
    stmt: Option<&SelectStatement>,
) -> Result<(), PlanError> {
    if cfg!(debug_assertions) {
        verify(plan, db, stmt).map(|_| ())
    } else {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Per-node checks
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
    check_semantics(node, &refs, &props, db)?;
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

/// Checks that need inferred properties: types, provenance, build side,
/// aggregate safety, and cardinality bounds.
fn check_semantics(
    node: &PlanNode,
    children: &[&NodeProps],
    props: &NodeProps,
    db: &Database,
) -> Result<(), PlanError> {
    match &node.op {
        PlanOp::Scan { pushed, .. } => check_pred_types(node.id, pushed, &props.cols)?,
        PlanOp::Filter { preds } => check_pred_types(node.id, preds, &children[0].cols)?,
        PlanOp::HashJoin { left_keys, right_keys, build_left } => {
            let (l, r) = (children[0], children[1]);
            for (&lk, &rk) in left_keys.iter().zip(right_keys) {
                let (lc, rc) = (&l.cols[lk], &r.cols[rk]);
                if let (Some(lt), Some(rt)) = (lc.ty, rc.ty) {
                    if !types_compatible(lt, rt) {
                        return Err(PlanError::new(
                            PlanErrorKind::JoinKeyType,
                            node.id,
                            format!(
                                "{} ({}) joined with {} ({})",
                                lc.token(),
                                lt.name(),
                                rc.token(),
                                rt.name()
                            ),
                        ));
                    }
                }
                check_join_provenance(node.id, lc, rc, db)?;
            }
            let smaller_left = node.children[0].est_rows < node.children[1].est_rows;
            if *build_left != smaller_left {
                return Err(PlanError::new(
                    PlanErrorKind::BuildSide,
                    node.id,
                    format!(
                        "build side is {} but estimates are {} vs {}",
                        if *build_left { "left" } else { "right" },
                        node.children[0].est_rows,
                        node.children[1].est_rows
                    ),
                ));
            }
        }
        PlanOp::HashAggregate { group, items, .. } => {
            check_aggregate(node, group, items, children[0], db)?;
        }
        _ => {}
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

fn check_pred_types(id: usize, preds: &[PhysPred], cols: &[ColProp]) -> Result<(), PlanError> {
    for p in preds {
        match p {
            PhysPred::EqCols(l, r) => {
                if let (Some(lt), Some(rt)) = (cols[*l].ty, cols[*r].ty) {
                    if !types_compatible(lt, rt) {
                        return Err(PlanError::new(
                            PlanErrorKind::PredType,
                            id,
                            format!(
                                "{} ({}) equated with {} ({})",
                                cols[*l].token(),
                                lt.name(),
                                cols[*r].token(),
                                rt.name()
                            ),
                        ));
                    }
                }
            }
            PhysPred::ContainsCi(i, _) => {
                if let Some(ty @ (AttrType::Int | AttrType::Float)) = cols[*i].ty {
                    return Err(PlanError::new(
                        PlanErrorKind::PredType,
                        id,
                        format!(
                            "contains over numeric column {} ({})",
                            cols[*i].token(),
                            ty.name()
                        ),
                    ));
                }
            }
            PhysPred::EqLit(i, v) => {
                if let Some(ty) = cols[*i].ty {
                    if !literal_compatible(v, ty) {
                        return Err(PlanError::new(
                            PlanErrorKind::PredType,
                            id,
                            format!(
                                "literal {v} compared with {} ({})",
                                cols[*i].token(),
                                ty.name()
                            ),
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

fn types_compatible(a: AttrType, b: AttrType) -> bool {
    let numeric = |t| matches!(t, AttrType::Int | AttrType::Float);
    a == b || (numeric(a) && numeric(b))
}

fn literal_compatible(v: &Value, ty: AttrType) -> bool {
    match v {
        Value::Null => true,
        Value::Int(_) | Value::Float(_) => matches!(ty, AttrType::Int | AttrType::Float),
        Value::Str(_) => ty == AttrType::Text,
        Value::Date(_) => ty == AttrType::Date,
    }
}

/// A join key pair must come from the same base attribute (natural
/// unification) or follow a declared foreign key; aggregate outputs and
/// other provenance-free columns are exempt.
fn check_join_provenance(
    id: usize,
    l: &ColProp,
    r: &ColProp,
    db: &Database,
) -> Result<(), PlanError> {
    let (Some((lrel, lattr)), Some((rrel, rattr))) = (&l.base, &r.base) else {
        return Ok(());
    };
    if lattr == rattr
        || fk_links(lrel, lattr, rrel, rattr, db)
        || fk_links(rrel, rattr, lrel, lattr, db)
    {
        return Ok(());
    }
    Err(PlanError::new(
        PlanErrorKind::JoinProvenance,
        id,
        format!(
            "{} ({lrel}.{lattr}) joined with {} ({rrel}.{rattr}): no shared attribute or foreign key",
            l.token(),
            r.token()
        ),
    ))
}

fn fk_links(rel: &str, attr: &str, ref_rel: &str, ref_attr: &str, db: &Database) -> bool {
    let Some(table) = db.table(rel) else { return false };
    table.schema.foreign_keys.iter().any(|fk| {
        fk.ref_relation.eq_ignore_ascii_case(ref_rel)
            && fk
                .attrs
                .iter()
                .zip(&fk.ref_attrs)
                .any(|(a, ra)| a.eq_ignore_ascii_case(attr) && ra.eq_ignore_ascii_case(ref_attr))
    })
}

// ---------------------------------------------------------------------------
// Aggregate safety (the physical-level AQ-P4/P5 analogues)
// ---------------------------------------------------------------------------

fn check_aggregate(
    node: &PlanNode,
    group: &[usize],
    items: &[PhysAggItem],
    input: &NodeProps,
    db: &Database,
) -> Result<(), PlanError> {
    // P2 analogue: SUM/AVG need numeric arguments.
    for item in items {
        if let PhysAggItem::Agg { func: func @ (AggFunc::Sum | AggFunc::Avg), arg, .. } = item {
            if let Some(ty @ (AttrType::Text | AttrType::Date)) = input.cols[*arg].ty {
                return Err(PlanError::new(
                    PlanErrorKind::AggType,
                    node.id,
                    format!(
                        "{}({}) over non-numeric type {}",
                        func.keyword(),
                        input.cols[*arg].token(),
                        ty.name()
                    ),
                ));
            }
        }
    }
    // P4 analogue: a plain output column must be a group key or be
    // functionally determined by the group keys (group-constant).
    let group_tokens: BTreeSet<String> = group.iter().map(|&g| input.cols[g].token()).collect();
    let closure = input.fds.closure(group_tokens.clone());
    for item in items {
        if let PhysAggItem::Col(i) = item {
            let token = input.cols[*i].token();
            if !group.contains(i) && !closure.contains(&token) {
                return Err(PlanError::new(
                    PlanErrorKind::UngroupedColumn,
                    node.id,
                    format!("plain output {token} is neither grouped nor group-determined"),
                ));
            }
        }
    }

    // P5 analogue. Mirrors `aqks_analyze`'s DuplicateInflation pass over
    // the aggregate's own FROM level: base scans reached without crossing
    // a DerivedTable boundary (inner levels are checked at their own
    // aggregates).
    let dup_sensitive = items.iter().any(|i| {
        matches!(
            i,
            PhysAggItem::Agg {
                func: AggFunc::Count | AggFunc::Sum | AggFunc::Avg,
                distinct: false,
                ..
            }
        )
    });
    if !dup_sensitive {
        return Ok(());
    }
    let input_node = &node.children[0];
    let mut scans: Vec<&PlanNode> = Vec::new();
    collect_scans(input_node, &mut scans);
    let mut used: HashMap<String, BTreeSet<String>> = HashMap::new();
    collect_used(input_node, &mut used);
    for &i in group {
        mark_used(&input_node.cols, i, &mut used);
    }
    for item in items {
        let i = match item {
            PhysAggItem::Col(i) => *i,
            PhysAggItem::Agg { arg, .. } => *arg,
        };
        mark_used(&input_node.cols, i, &mut used);
    }
    let contains_matched = collect_contains(input_node);

    for scan in &scans {
        let PlanOp::Scan { relation, alias, .. } = &scan.op else { continue };
        let Some(table) = db.table(relation) else { continue };
        let fds = lower_fd_set(&table.schema);
        let pinned = pinned_for(&closure, alias);
        let empty = BTreeSet::new();
        let used_a = used.get(alias.as_str()).unwrap_or(&empty);
        // Redundant rows: a declared non-key FD whose determinant covers
        // every used column of this relation, while the determinant plus
        // everything the group keys pin still does not identify a row —
        // logically-duplicate rows then multiply the aggregate.
        for fd in &fds.fds {
            if fds.is_superkey(&fd.lhs) {
                continue;
            }
            if !used_a.is_subset(&fds.closure(fd.lhs.clone())) {
                continue;
            }
            let mut pinned_k = fd.lhs.clone();
            pinned_k.extend(pinned.iter().cloned());
            if !fds.is_superkey(&pinned_k) {
                return Err(PlanError::new(
                    PlanErrorKind::DuplicateRisk,
                    node.id,
                    format!(
                        "duplicate-sensitive aggregate over `{relation}` AS {alias}: rows \
                         duplicated along {fd} are not keyed by the group"
                    ),
                ));
            }
        }
        // Merged groups: grouping on a contains-matched column of a
        // relation whose rows the pinned columns do not identify merges
        // distinct entities that share the matched text.
        for &g in group {
            let Some((ga, gc)) = input_node.cols.get(g) else { continue };
            if ga == alias
                && contains_matched.contains(&(ga.clone(), gc.clone()))
                && !fds.is_superkey(&pinned)
            {
                return Err(PlanError::new(
                    PlanErrorKind::MergedGroups,
                    node.id,
                    format!(
                        "group key {ga}.{gc} is contains-matched but does not identify \
                         `{relation}` rows"
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Base scans of one FROM level (stops at DerivedTable boundaries).
fn collect_scans<'a>(node: &'a PlanNode, out: &mut Vec<&'a PlanNode>) {
    match &node.op {
        PlanOp::DerivedTable { .. } => {}
        PlanOp::Scan { .. } => out.push(node),
        _ => {
            for c in &node.children {
                collect_scans(c, out);
            }
        }
    }
}

fn mark_used(cols: &[(String, String)], i: usize, used: &mut HashMap<String, BTreeSet<String>>) {
    if let Some((a, c)) = cols.get(i) {
        used.entry(a.clone()).or_default().insert(c.clone());
    }
}

/// Columns referenced by predicates and join keys within one FROM level.
fn collect_used(node: &PlanNode, used: &mut HashMap<String, BTreeSet<String>>) {
    let mark_preds = |preds: &[PhysPred],
                      cols: &[(String, String)],
                      used: &mut HashMap<String, BTreeSet<String>>| {
        for p in preds {
            match p {
                PhysPred::EqCols(l, r) => {
                    mark_used(cols, *l, used);
                    mark_used(cols, *r, used);
                }
                PhysPred::ContainsCi(i, _) | PhysPred::EqLit(i, _) => mark_used(cols, *i, used),
            }
        }
    };
    match &node.op {
        PlanOp::DerivedTable { .. } => return,
        PlanOp::Scan { pushed, .. } => mark_preds(pushed, &node.cols, used),
        PlanOp::Filter { preds } => mark_preds(preds, &node.cols, used),
        PlanOp::HashJoin { left_keys, right_keys, .. } => {
            for &l in left_keys {
                mark_used(&node.children[0].cols, l, used);
            }
            for &r in right_keys {
                mark_used(&node.children[1].cols, r, used);
            }
        }
        _ => {}
    }
    for c in &node.children {
        collect_used(c, used);
    }
}

/// `(alias, column)` pairs matched by a `contains` predicate within one
/// FROM level.
fn collect_contains(node: &PlanNode) -> BTreeSet<(String, String)> {
    let mut out = BTreeSet::new();
    fn go(node: &PlanNode, out: &mut BTreeSet<(String, String)>) {
        let mark = |preds: &[PhysPred],
                    cols: &[(String, String)],
                    out: &mut BTreeSet<(String, String)>| {
            for p in preds {
                if let PhysPred::ContainsCi(i, _) = p {
                    if let Some((a, c)) = cols.get(*i) {
                        out.insert((a.clone(), c.clone()));
                    }
                }
            }
        };
        match &node.op {
            PlanOp::DerivedTable { .. } => return,
            PlanOp::Scan { pushed, .. } => mark(pushed, &node.cols, out),
            PlanOp::Filter { preds } => mark(preds, &node.cols, out),
            _ => {}
        }
        for c in &node.children {
            go(c, out);
        }
    }
    go(node, &mut out);
    out
}

/// Columns of `alias` in a token closure (the plan-level analogue of
/// `aqks_analyze::fdmodel::pinned_for`).
fn pinned_for(closure: &BTreeSet<String>, alias: &str) -> BTreeSet<String> {
    let prefix = format!("{alias}.");
    closure.iter().filter_map(|t| t.strip_prefix(&prefix)).map(str::to_string).collect()
}

// ---------------------------------------------------------------------------
// Statement correspondence
// ---------------------------------------------------------------------------

/// Checks that the plan realizes the statement's required shape:
/// LIMIT/ORDER BY/DISTINCT present exactly when requested, the output
/// schema matching the rendered SQL's select list, the equated column
/// pairs matching the statement's equi-joins, and every FROM item
/// (recursively through derived tables) realized by a matching source.
fn check_stmt(root: &PlanNode, stmt: &SelectStatement) -> Result<(), PlanError> {
    let mut cur = root;
    match (&cur.op, stmt.limit) {
        (PlanOp::Limit { n }, Some(want)) if *n == want => cur = &cur.children[0],
        (PlanOp::Limit { n }, want) => {
            return Err(PlanError::new(
                PlanErrorKind::LimitMismatch,
                cur.id,
                format!("plan limits to {n}, statement wants {want:?}"),
            ));
        }
        (_, Some(want)) => {
            return Err(PlanError::new(
                PlanErrorKind::LimitMismatch,
                cur.id,
                format!("statement has LIMIT {want} but the plan root does not limit"),
            ));
        }
        (_, None) => {}
    }
    match (&cur.op, stmt.order_by.is_empty()) {
        (PlanOp::Sort { keys }, false) => {
            let agree = keys.len() == stmt.order_by.len()
                && keys.iter().zip(&stmt.order_by).all(|(&(_, desc), k)| desc == k.desc);
            if !agree {
                return Err(PlanError::new(
                    PlanErrorKind::OrderMismatch,
                    cur.id,
                    format!("sort keys {keys:?} do not realize the statement's ORDER BY"),
                ));
            }
            cur = &cur.children[0];
        }
        (PlanOp::Sort { .. }, true) => {
            return Err(PlanError::new(
                PlanErrorKind::OrderMismatch,
                cur.id,
                "plan sorts but the statement has no ORDER BY".to_string(),
            ));
        }
        (_, false) => {
            return Err(PlanError::new(
                PlanErrorKind::OrderMismatch,
                cur.id,
                "statement has ORDER BY but the plan root is unordered".to_string(),
            ));
        }
        (_, true) => {}
    }
    match (&cur.op, stmt.distinct) {
        (PlanOp::Distinct, true) => cur = &cur.children[0],
        (PlanOp::Distinct, false) => {
            return Err(PlanError::new(
                PlanErrorKind::LostDistinct,
                cur.id,
                "plan deduplicates but the statement is not SELECT DISTINCT".to_string(),
            ));
        }
        (_, true) => {
            return Err(PlanError::new(
                PlanErrorKind::LostDistinct,
                cur.id,
                "SELECT DISTINCT but no Distinct operator above the projection".to_string(),
            ));
        }
        (_, false) => {}
    }

    let want_names: Vec<&str> = stmt.items.iter().map(SelectItem::output_name).collect();
    let grouped = stmt.has_aggregate() || !stmt.group_by.is_empty();
    match &cur.op {
        PlanOp::HashAggregate { group, items, names } if grouped => {
            if group.len() != stmt.group_by.len() {
                return Err(PlanError::new(
                    PlanErrorKind::OutputSchema,
                    cur.id,
                    format!(
                        "plan groups by {} key(s), statement by {}",
                        group.len(),
                        stmt.group_by.len()
                    ),
                ));
            }
            check_names(cur.id, names, &want_names)?;
            for (item, want) in items.iter().zip(&stmt.items) {
                let ok = match (item, want) {
                    (PhysAggItem::Col(_), SelectItem::Column { .. }) => true,
                    (
                        PhysAggItem::Agg { func, distinct, .. },
                        SelectItem::Aggregate { func: wf, distinct: wd, .. },
                    ) => func == wf && distinct == wd,
                    _ => false,
                };
                if !ok {
                    return Err(PlanError::new(
                        PlanErrorKind::OutputSchema,
                        cur.id,
                        "aggregate items do not realize the statement's select list".to_string(),
                    ));
                }
            }
        }
        PlanOp::Project { names, .. } if !grouped => check_names(cur.id, names, &want_names)?,
        _ => {
            return Err(PlanError::new(
                PlanErrorKind::OutputSchema,
                cur.id,
                format!(
                    "expected {} at the statement's output, found `{}`",
                    if grouped { "HashAggregate" } else { "Project" },
                    cur.label()
                ),
            ));
        }
    }

    // Equi-joins: the level's hash-join key pairs and `EqCols`
    // predicates realize exactly the statement's JoinEq set. Per-node
    // provenance checks accept any two same-named attributes, so this is
    // what catches a key re-pointed at the wrong column of a relation.
    let region = &cur.children[0];
    let mut realized = BTreeSet::new();
    collect_equi_pairs(region, &mut realized);
    let wanted: BTreeSet<ColPair> = stmt
        .predicates
        .iter()
        .filter_map(|p| match p {
            Predicate::JoinEq(a, b) => Some(col_pair(
                (a.qualifier.to_lowercase(), a.column.to_lowercase()),
                (b.qualifier.to_lowercase(), b.column.to_lowercase()),
            )),
            _ => None,
        })
        .collect();
    let extra = realized.difference(&wanted).next().map(|p| (p, "the statement does not"));
    let missing = wanted.difference(&realized).next().map(|p| (p, "the plan does not"));
    if let Some((((la, lc), (ra, rc)), absent)) = extra.or(missing) {
        return Err(PlanError::new(
            PlanErrorKind::JoinProvenance,
            cur.id,
            format!("{la}.{lc} = {ra}.{rc} is equated but {absent} equate it"),
        ));
    }

    // FROM items: every base relation has its scan, every derived table
    // its recursively checked subplan.
    for item in &stmt.from {
        match item {
            TableExpr::Relation { name, alias } => {
                let found = find_source(region, &alias.to_lowercase()).is_some_and(|n| {
                    matches!(&n.op, PlanOp::Scan { relation, .. }
                        if relation.eq_ignore_ascii_case(name))
                });
                if !found {
                    return Err(PlanError::new(
                        PlanErrorKind::SchemaMismatch,
                        cur.id,
                        format!("no scan of `{name}` AS {alias} realizes the FROM item"),
                    ));
                }
            }
            TableExpr::Derived { query, alias } => {
                let Some(node) = find_source(region, &alias.to_lowercase()) else {
                    return Err(PlanError::new(
                        PlanErrorKind::SchemaMismatch,
                        cur.id,
                        format!("no derived table AS {alias} realizes the FROM item"),
                    ));
                };
                if !matches!(node.op, PlanOp::DerivedTable { .. }) {
                    return Err(PlanError::new(
                        PlanErrorKind::SchemaMismatch,
                        node.id,
                        format!("FROM item {alias} is derived but the plan scans a relation"),
                    ));
                }
                check_stmt(&node.children[0], query)?;
            }
        }
    }
    Ok(())
}

/// An equated pair of `(alias, column)` references, smaller first.
type ColPair = ((String, String), (String, String));

fn col_pair(a: (String, String), b: (String, String)) -> ColPair {
    if b < a {
        (b, a)
    } else {
        (a, b)
    }
}

/// Column pairs equated within one FROM level: hash-join keys and the
/// `EqCols` predicates of scans and filters.
fn collect_equi_pairs(node: &PlanNode, out: &mut BTreeSet<ColPair>) {
    let pair = |lc: &[(String, String)], l: usize, rc: &[(String, String)], r: usize| {
        lc.get(l).zip(rc.get(r)).map(|(a, b)| col_pair(a.clone(), b.clone()))
    };
    let mark = |preds: &[PhysPred], cols: &[(String, String)], out: &mut BTreeSet<ColPair>| {
        for p in preds {
            if let PhysPred::EqCols(l, r) = p {
                out.extend(pair(cols, *l, cols, *r));
            }
        }
    };
    match &node.op {
        PlanOp::DerivedTable { .. } => return,
        PlanOp::Scan { pushed, .. } => mark(pushed, &node.cols, out),
        PlanOp::Filter { preds } => mark(preds, &node.children[0].cols, out),
        PlanOp::HashJoin { left_keys, right_keys, .. } => {
            let (lc, rc) = (&node.children[0].cols, &node.children[1].cols);
            for (&l, &r) in left_keys.iter().zip(right_keys) {
                out.extend(pair(lc, l, rc, r));
            }
        }
        _ => {}
    }
    for c in &node.children {
        collect_equi_pairs(c, out);
    }
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

/// The source node (Scan or DerivedTable) with the given alias in one
/// FROM level.
fn find_source<'a>(node: &'a PlanNode, alias: &str) -> Option<&'a PlanNode> {
    match &node.op {
        PlanOp::Scan { alias: a, .. } | PlanOp::DerivedTable { alias: a, .. } => {
            (a == alias).then_some(node)
        }
        _ => node.children.iter().find_map(|c| find_source(c, alias)),
    }
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
