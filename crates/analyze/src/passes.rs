//! The five lint passes.
//!
//! Each pass inspects one statement (the analyzer applies every pass to
//! the root and to each derived-table subquery) and appends
//! [`Diagnostic`]s. Codes are stable: `AQ-P1` name/scope resolution,
//! `AQ-P2` type checking, `AQ-P3` join validity, `AQ-P4` aggregate
//! well-formedness, `AQ-P5` duplicate inflation. [`PASSES`] is the one
//! fixed pipeline.

use std::collections::BTreeSet;

use aqks_relational::{AttrType, Value};
use aqks_sqlgen::{AggFunc, ColumnRef, Predicate, SelectItem, SpanKind};

use crate::analyzer::StmtContext;
use crate::diagnostics::Diagnostic;
use crate::fdmodel::{self, lower_fd_set};
use crate::scope::{ItemSource, ResolveError};

/// One lint pass over a single statement.
pub(crate) struct Pass {
    /// The diagnostic code this pass emits.
    pub code: &'static str,
    /// Short machine-friendly name (`name-resolution`, …).
    pub name: &'static str,
    /// Checks `cx.stmt` and records findings.
    pub check: fn(&StmtContext<'_>, &mut Findings<'_>),
}

/// The pass pipeline, in execution order.
pub(crate) const PASSES: [Pass; 5] = [
    Pass { code: "AQ-P1", name: "name-resolution", check: name_resolution },
    Pass { code: "AQ-P2", name: "type-check", check: type_check },
    Pass { code: "AQ-P3", name: "join-validity", check: join_validity },
    Pass { code: "AQ-P4", name: "aggregate-form", check: aggregate_form },
    Pass { code: "AQ-P5", name: "duplicate-inflation", check: duplicate_inflation },
];

/// Where one pass appends its findings, stamped with the pass's code,
/// name and the statement's derived-table path.
pub(crate) struct Findings<'a> {
    pub pass: &'a Pass,
    pub path: &'a [usize],
    pub out: &'a mut Vec<Diagnostic>,
}

impl Findings<'_> {
    fn error(&mut self, clause: Option<SpanKind>, message: impl Into<String>) {
        let d = Diagnostic::error(self.pass.code, self.pass.name, self.path, clause, message);
        self.out.push(d);
    }

    fn warning(&mut self, clause: Option<SpanKind>, message: impl Into<String>) {
        let d = Diagnostic::warning(self.pass.code, self.pass.name, self.path, clause, message);
        self.out.push(d);
    }
}

/// Every column reference of a statement with the clause it sits in.
fn column_refs<'a>(cx: &'a StmtContext<'a>) -> Vec<(&'a ColumnRef, SpanKind)> {
    let stmt = cx.stmt;
    let mut out = Vec::new();
    for (i, item) in stmt.items.iter().enumerate() {
        match item {
            SelectItem::Column { col, .. } => out.push((col, SpanKind::SelectItem(i))),
            SelectItem::Aggregate { arg, .. } => out.push((arg, SpanKind::SelectItem(i))),
        }
    }
    for (i, p) in stmt.predicates.iter().enumerate() {
        match p {
            Predicate::JoinEq(a, b) => {
                out.push((a, SpanKind::Predicate(i)));
                out.push((b, SpanKind::Predicate(i)));
            }
            Predicate::Contains(c, _) | Predicate::Eq(c, _) => {
                out.push((c, SpanKind::Predicate(i)));
            }
        }
    }
    for (i, c) in stmt.group_by.iter().enumerate() {
        out.push((c, SpanKind::GroupBy(i)));
    }
    out
}

/// P1 — every qualifier must address exactly one FROM item, every column
/// must exist there, and FROM relations must exist in the schema. An
/// unqualified reference is only legal in ORDER BY, where it names a
/// select-list output.
fn name_resolution(cx: &StmtContext<'_>, out: &mut Findings<'_>) {
    let stmt = cx.stmt;

    // Duplicate aliases and unknown relations.
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for (i, item) in cx.scope.items.iter().enumerate() {
        if !seen.insert(item.alias.to_lowercase()) {
            out.error(
                Some(SpanKind::FromItem(i)),
                format!("duplicate FROM alias `{}`", item.alias),
            );
        }
        if matches!(item.source, ItemSource::Unknown) {
            out.error(
                Some(SpanKind::FromItem(i)),
                format!("unknown relation behind FROM alias `{}`", item.alias),
            );
        }
    }

    for (col, clause) in column_refs(cx) {
        if col.qualifier.is_empty() {
            out.error(
                Some(clause),
                format!("unqualified column `{}` outside ORDER BY", col.column),
            );
            continue;
        }
        match cx.scope.resolve(col) {
            Ok(_) | Err(ResolveError::PoisonedItem) => {}
            Err(ResolveError::UnknownAlias(q)) => {
                out.error(Some(clause), format!("`{col}` references undeclared FROM alias `{q}`"))
            }
            Err(ResolveError::AmbiguousAlias(q)) => out.error(
                Some(clause),
                format!("`{col}` is ambiguous: alias `{q}` is declared twice"),
            ),
            Err(ResolveError::UnknownColumn(q, c)) => {
                out.error(Some(clause), format!("`{q}` exposes no column `{c}`"))
            }
        }
    }

    // ORDER BY: an unqualified key must name a select-list output.
    let outputs: Vec<&str> = stmt.items.iter().map(|i| i.output_name()).collect();
    for (i, key) in stmt.order_by.iter().enumerate() {
        let col = &key.column;
        if col.qualifier.is_empty() {
            if !outputs.iter().any(|o| o.eq_ignore_ascii_case(&col.column)) {
                out.error(
                    Some(SpanKind::OrderBy(i)),
                    format!("ORDER BY `{}` names no select-list output", col.column),
                );
            }
        } else if let Err(ResolveError::UnknownAlias(_) | ResolveError::UnknownColumn(..)) =
            cx.scope.resolve(col)
        {
            out.error(Some(SpanKind::OrderBy(i)), format!("ORDER BY `{col}` does not resolve"));
        }
    }
}

/// P2 — equi-joins must compare compatible types, `SUM`/`AVG` need
/// numeric arguments, `contains` needs text, literal equalities must
/// match the column type. Numeric (`int`/`float`) comparisons mix freely.
fn type_check(cx: &StmtContext<'_>, out: &mut Findings<'_>) {
    let stmt = cx.stmt;
    let ty_of = |col: &ColumnRef| cx.scope.resolve(col).ok().and_then(|o| o.ty);

    for (i, item) in stmt.items.iter().enumerate() {
        let SelectItem::Aggregate { func, arg, .. } = item else { continue };
        if matches!(func, AggFunc::Sum | AggFunc::Avg) {
            if let Some(ty) = ty_of(arg) {
                if !numeric(ty) {
                    out.error(
                        Some(SpanKind::SelectItem(i)),
                        format!(
                            "{} over non-numeric column `{arg}` ({})",
                            func.keyword(),
                            ty.name()
                        ),
                    );
                }
            }
        }
    }

    for (i, p) in stmt.predicates.iter().enumerate() {
        match p {
            Predicate::JoinEq(a, b) => {
                let (Some(ta), Some(tb)) = (ty_of(a), ty_of(b)) else { continue };
                if ta != tb && !(numeric(ta) && numeric(tb)) {
                    out.error(
                        Some(SpanKind::Predicate(i)),
                        format!("join compares `{a}` ({}) with `{b}` ({})", ta.name(), tb.name()),
                    );
                }
            }
            Predicate::Contains(c, _) => {
                let Some(ty) = ty_of(c) else { continue };
                match ty {
                    AttrType::Text => {}
                    // Dates render as text and are searched that way
                    // by the keyword matcher; suspicious, not wrong.
                    AttrType::Date => out.warning(
                        Some(SpanKind::Predicate(i)),
                        format!("`contains` on date column `{c}`"),
                    ),
                    AttrType::Int | AttrType::Float => out.error(
                        Some(SpanKind::Predicate(i)),
                        format!("`contains` on numeric column `{c}` ({})", ty.name()),
                    ),
                }
            }
            Predicate::Eq(c, v) => {
                let Some(ty) = ty_of(c) else { continue };
                let ok = match v {
                    Value::Null => true,
                    Value::Int(_) | Value::Float(_) => numeric(ty),
                    Value::Str(_) => ty == AttrType::Text,
                    Value::Date(_) => ty == AttrType::Date,
                };
                if !ok {
                    out.error(
                        Some(SpanKind::Predicate(i)),
                        format!("literal {v:?} compared with `{c}` ({})", ty.name()),
                    );
                }
            }
        }
    }
}

/// P3 — every equi-join must follow schema structure: a declared
/// foreign-key edge (either direction, including one column pair of a
/// composite key), an ORM-graph edge, the natural-join unification of two
/// projections of the *same* base attribute name (which is how the
/// Section 4 rewrites join a relation with projections of itself).
fn join_validity(cx: &StmtContext<'_>, out: &mut Findings<'_>) {
    for (i, p) in cx.stmt.predicates.iter().enumerate() {
        let Predicate::JoinEq(a, b) = p else { continue };
        // Joins on aggregate results (or unresolvable sides — P1's
        // findings) have no base provenance to validate against.
        let (Some(pa), Some(pb)) = (
            cx.scope.resolve(a).ok().and_then(|o| o.base.clone()),
            cx.scope.resolve(b).ok().and_then(|o| o.base.clone()),
        ) else {
            continue;
        };
        if join_allowed(cx, &pa, &pb) {
            continue;
        }
        out.error(
            Some(SpanKind::Predicate(i)),
            format!(
                "join `{a}`=`{b}` ({}.{} with {}.{}) follows no declared \
                 foreign key",
                pa.0, pa.1, pb.0, pb.1
            ),
        );
    }
}

fn join_allowed(cx: &StmtContext<'_>, a: &(String, String), b: &(String, String)) -> bool {
    // Natural-join unification: both sides project the same-named base
    // attribute (possibly of different relations after 3NF decomposition).
    if a.1.eq_ignore_ascii_case(&b.1) {
        return true;
    }
    let fk_edge = |from: &(String, String), to: &(String, String)| {
        cx.schema.relation(&from.0).is_some_and(|rel| {
            rel.foreign_keys.iter().any(|fk| {
                fk.ref_relation.eq_ignore_ascii_case(&to.0)
                    && fk.attrs.iter().zip(&fk.ref_attrs).any(|(x, y)| {
                        x.eq_ignore_ascii_case(&from.1) && y.eq_ignore_ascii_case(&to.1)
                    })
            })
        })
    };
    if fk_edge(a, b) || fk_edge(b, a) {
        return true;
    }
    if let Some(graph) = cx.graph {
        let on_edge = |x: &(String, String), y: &(String, String)| {
            graph.edges().iter().any(|e| {
                e.a_rel.eq_ignore_ascii_case(&x.0)
                    && e.b_rel.eq_ignore_ascii_case(&y.0)
                    && e.a_attrs
                        .iter()
                        .zip(&e.b_attrs)
                        .any(|(p, q)| p.eq_ignore_ascii_case(&x.1) && q.eq_ignore_ascii_case(&y.1))
            })
        };
        return on_edge(a, b) || on_edge(b, a);
    }
    false
}

/// P4 — aggregate well-formedness: with aggregates (or a GROUP BY)
/// present, every plain select column must be grouped; `SELECT DISTINCT`
/// cannot be combined with aggregates; `DISTINCT` inside `MIN`/`MAX` is
/// pointless. Nested aggregates are structurally confined to derived
/// tables by the AST (an aggregate argument is a column reference, never
/// an aggregate), so the remaining nesting rule needs no check here.
fn aggregate_form(cx: &StmtContext<'_>, out: &mut Findings<'_>) {
    let stmt = cx.stmt;
    let has_agg = stmt.has_aggregate();

    if stmt.distinct && has_agg {
        out.error(None, "SELECT DISTINCT combined with aggregate select items");
    }

    if has_agg || !stmt.group_by.is_empty() {
        for (i, item) in stmt.items.iter().enumerate() {
            let SelectItem::Column { col, .. } = item else { continue };
            let grouped = stmt.group_by.iter().any(|g| {
                g.qualifier.eq_ignore_ascii_case(&col.qualifier)
                    && g.column.eq_ignore_ascii_case(&col.column)
            });
            if !grouped {
                out.error(
                    Some(SpanKind::SelectItem(i)),
                    format!("`{col}` is selected but not in GROUP BY"),
                );
            }
        }
    }

    for (i, item) in stmt.items.iter().enumerate() {
        if let SelectItem::Aggregate {
            func: AggFunc::Min | AggFunc::Max,
            distinct: true,
            arg,
            ..
        } = item
        {
            out.warning(
                Some(SpanKind::SelectItem(i)),
                format!("DISTINCT inside MIN/MAX over `{arg}` has no effect"),
            );
        }
    }
}

/// P5 — duplicate-inflation detection: the paper's Section 4 error class,
/// caught statically. Two findings:
///
/// * **merged groups** — a GROUP BY key that is also a `contains`-matched
///   column does not identify its FROM item's rows (SQAK's `GROUP BY
///   S.Sname` merges the two Greens);
/// * **redundant rows** — with a duplicate-sensitive aggregate (`COUNT`,
///   `SUM`, `AVG` without `DISTINCT`), a base relation joins in rows that
///   are redundant copies with respect to every attribute the statement
///   uses: all used attributes lie in the closure of a declared non-key
///   determinant, and pinning that determinant (plus everything already
///   pinned) still does not reach a superkey. Each copy then contributes
///   an identical row to every group it lands in, inflating the
///   aggregate (SQAK on the unnormalized `Ordering`: `AVG(amount)` per
///   `orderkey` reads one copy per part/supplier of the order).
fn duplicate_inflation(cx: &StmtContext<'_>, out: &mut Findings<'_>) {
    let stmt = cx.stmt;
    let closure = cx.fds.closure(fdmodel::seeds(stmt));

    // Merged groups: contains-matched GROUP BY keys.
    for (i, g) in stmt.group_by.iter().enumerate() {
        let matched = stmt.predicates.iter().any(|p| {
            matches!(p, Predicate::Contains(c, _)
                if c.qualifier.eq_ignore_ascii_case(&g.qualifier)
                    && c.column.eq_ignore_ascii_case(&g.column))
        });
        if !matched {
            continue;
        }
        let Ok(item) = cx.scope.item(&g.qualifier) else { continue };
        if !fdmodel::item_row_unique(item, "", &closure) {
            out.error(
                Some(SpanKind::GroupBy(i)),
                format!(
                    "GROUP BY `{g}` groups by a text-matched column that does not \
                     identify `{}` rows: distinct entities sharing the value are \
                     merged into one group",
                    item.alias
                ),
            );
        }
    }

    // Redundant rows need a duplicate-sensitive aggregate.
    let sensitive: Vec<&SelectItem> = stmt
        .items
        .iter()
        .filter(|i| {
            matches!(
                i,
                SelectItem::Aggregate {
                    func: AggFunc::Count | AggFunc::Sum | AggFunc::Avg,
                    distinct: false,
                    ..
                }
            )
        })
        .collect();
    if sensitive.is_empty() {
        return;
    }

    for (fi, item) in cx.scope.items.iter().enumerate() {
        let ItemSource::Base(rel) = &item.source else { continue };
        let used = used_columns(cx, &item.alias);
        let fds = lower_fd_set(rel);
        let pinned = fdmodel::pinned_for(&closure, &item.alias);
        let flagged = fds.fds.iter().find(|fd| {
            let k = fd.lhs.clone();
            if fds.is_superkey(&k) {
                return false;
            }
            if !used.is_subset(&fds.closure(k.clone())) {
                return false;
            }
            let mut pinned_k: BTreeSet<String> = k;
            pinned_k.extend(pinned.iter().cloned());
            !fds.is_superkey(&pinned_k)
        });
        if let Some(fd) = flagged {
            let det: Vec<&str> = fd.lhs.iter().map(String::as_str).collect();
            let agg = match sensitive[0] {
                SelectItem::Aggregate { func, arg, .. } => {
                    format!("{}({arg})", func.keyword())
                }
                SelectItem::Column { .. } => unreachable!("filtered to aggregates"),
            };
            out.error(
                Some(SpanKind::FromItem(fi)),
                format!(
                    "`{}` repeats `{{{}}}`-entity rows (declared FD on the \
                     unnormalized relation `{}`): every used attribute is a copy, \
                     so {agg} counts duplicates",
                    item.alias,
                    det.join(", "),
                    rel.name
                ),
            );
        }
    }
}

fn numeric(ty: AttrType) -> bool {
    matches!(ty, AttrType::Int | AttrType::Float)
}

/// Lowercase columns of `alias` referenced anywhere in the statement.
fn used_columns(cx: &StmtContext<'_>, alias: &str) -> BTreeSet<String> {
    let mut used = BTreeSet::new();
    {
        let mut note = |c: &ColumnRef| {
            if c.qualifier.eq_ignore_ascii_case(alias) {
                used.insert(c.column.to_lowercase());
            }
        };
        for item in &cx.stmt.items {
            match item {
                SelectItem::Column { col, .. } => note(col),
                SelectItem::Aggregate { arg, .. } => note(arg),
            }
        }
        for p in &cx.stmt.predicates {
            match p {
                Predicate::JoinEq(a, b) => {
                    note(a);
                    note(b);
                }
                Predicate::Contains(c, _) | Predicate::Eq(c, _) => note(c),
            }
        }
        for c in &cx.stmt.group_by {
            note(c);
        }
        for k in &cx.stmt.order_by {
            note(&k.column);
        }
    }
    used
}
