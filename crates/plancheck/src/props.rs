//! Bottom-up property inference over [`PlanNode`] trees.
//!
//! Each operator's output is summarized by a [`NodeProps`]: the column
//! layout, a functional-dependency set over it (the plan-level
//! counterpart of `aqks_analyze::fdmodel::StmtFds`), row-distinctness,
//! carried sort order, and a monotone cardinality upper bound. The FDs
//! exist to derive the minimized keys `aqks explain` prints
//! (`{keys=[…] order=[…] rows<=N}`); the verifier reads only the bound.
//!
//! FD attributes are *tokens*: the lowercase `"alias.column"` string of a
//! layout position (projection/aggregation outputs, which carry no alias,
//! use `".name"`). Tokens make join composition trivial — FROM aliases
//! are unique within a statement, so a join's FD set is the union of its
//! children's plus the key equalities — and they line up with the
//! path-qualified names the SQL-level analyzer reasons over.

use std::collections::{BTreeSet, HashMap};

use aqks_analyze::fdmodel::lower_fd_set;
use aqks_relational::{Database, Fd, FdSet};
use aqks_sqlgen::{PhysAggItem, PhysPred, PlanNode, PlanOp};

/// One output column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColProp {
    /// Lowercased FROM alias ("" for projection/aggregation outputs).
    pub alias: String,
    /// Lowercased column name.
    pub name: String,
}

impl ColProp {
    /// The FD token of this column.
    pub fn token(&self) -> String {
        format!("{}.{}", self.alias, self.name)
    }
}

/// Inferred properties of one plan node's output.
#[derive(Debug, Clone)]
pub struct NodeProps {
    /// Annotated output columns, parallel to [`PlanNode::cols`].
    pub cols: Vec<ColProp>,
    /// Functional dependencies over the column tokens.
    pub fds: FdSet,
    /// Output rows are pairwise distinct.
    pub unique: bool,
    /// Carried sort order: `(column index, descending)` keys, outermost
    /// first; empty when the output order is unspecified.
    pub order: Vec<(usize, bool)>,
    /// Monotone cardinality upper bound (saturating). The planner's
    /// `est_rows` must never exceed it.
    pub max_rows: usize,
}

impl NodeProps {
    /// Tokens of every output column.
    pub fn tokens(&self) -> Vec<String> {
        self.cols.iter().map(ColProp::token).collect()
    }

    /// A minimal unique column set (greedily minimized, deterministic),
    /// or `None` when output rows are not known to be distinct.
    pub fn key(&self) -> Option<Vec<usize>> {
        if !self.unique {
            return None;
        }
        let tokens = self.tokens();
        let mut keep: Vec<usize> = (0..self.cols.len()).collect();
        // Drop columns back-to-front while the rest still determine all.
        let mut i = keep.len();
        while i > 0 {
            i -= 1;
            let trial: BTreeSet<String> =
                keep.iter().filter(|&&k| k != keep[i]).map(|&k| tokens[k].clone()).collect();
            if self.fds.is_superkey(&trial) {
                keep.remove(i);
            }
        }
        Some(keep)
    }

    /// Compact one-line rendering: `keys=[…] order=[…] rows<=N`.
    pub fn summary(&self, names: &[String]) -> String {
        let name = |i: usize| names.get(i).cloned().unwrap_or_else(|| format!("#{i}"));
        let keys = match self.key() {
            None => "-".to_string(),
            Some(k) if k.is_empty() => "()".to_string(),
            Some(k) => k.iter().map(|&i| name(i)).collect::<Vec<_>>().join(","),
        };
        let order = if self.order.is_empty() {
            "-".to_string()
        } else {
            self.order
                .iter()
                .map(|&(i, desc)| format!("{}{}", name(i), if desc { " desc" } else { "" }))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!("keys=[{keys}] order=[{order}] rows<={}", self.max_rows)
    }
}

/// Infers properties for one node given its children's (already inferred)
/// properties. Pure structural inference: resolution and invariant
/// *checking* live in [`mod@crate::verify`]; this function assumes indices
/// are in range (the verifier checks them first).
pub fn infer(node: &PlanNode, children: &[&NodeProps], db: &Database) -> NodeProps {
    match &node.op {
        PlanOp::Scan { relation, alias, pushed } => scan_props(relation, alias, pushed, db),
        PlanOp::DerivedTable { alias, names } => derived_props(alias, names, children[0]),
        PlanOp::HashJoin { left_keys, right_keys, .. } => {
            join_props(children[0], children[1], Some((left_keys, right_keys)))
        }
        PlanOp::CrossJoin => join_props(children[0], children[1], None),
        PlanOp::Filter { preds } => filter_props(preds, children[0]),
        PlanOp::HashAggregate { group, items, names } => {
            aggregate_props(group, items, names, children[0])
        }
        PlanOp::Project { cols, names } => project_props(cols, names, children[0]),
        PlanOp::Distinct => NodeProps { unique: true, ..children[0].clone() },
        PlanOp::Sort { keys } => NodeProps { order: keys.clone(), ..children[0].clone() },
        PlanOp::Limit { n } => {
            NodeProps { max_rows: children[0].max_rows.min(*n), ..children[0].clone() }
        }
    }
}

fn scan_props(relation: &str, alias: &str, pushed: &[PhysPred], db: &Database) -> NodeProps {
    let Some(table) = db.table(relation) else {
        // Unknown relation: the verifier rejects before using these props.
        return NodeProps {
            cols: Vec::new(),
            fds: FdSet::default(),
            unique: false,
            order: Vec::new(),
            max_rows: 0,
        };
    };
    let rel = &table.schema;
    let cols: Vec<ColProp> = rel
        .attrs
        .iter()
        .map(|a| ColProp { alias: alias.to_lowercase(), name: a.name.to_lowercase() })
        .collect();
    let tokens: Vec<String> = cols.iter().map(ColProp::token).collect();
    let mut fds = FdSet::new(tokens.iter().cloned());
    // Declared relation FDs (PK -> all, plus extra_fds), token-qualified.
    let prefix = format!("{}.", alias.to_lowercase());
    for fd in lower_fd_set(rel).fds {
        fds.add(Fd::new(
            fd.lhs.iter().map(|a| format!("{prefix}{a}")),
            fd.rhs.iter().map(|a| format!("{prefix}{a}")),
        ));
    }
    add_pred_fds(&mut fds, pushed, &tokens);
    NodeProps {
        cols,
        fds,
        unique: !rel.primary_key.is_empty(),
        order: Vec::new(),
        max_rows: table.len(),
    }
}

fn derived_props(alias: &str, names: &[String], child: &NodeProps) -> NodeProps {
    let cols: Vec<ColProp> = names
        .iter()
        .map(|n| ColProp { alias: alias.to_lowercase(), name: n.to_lowercase() })
        .collect();
    let map: HashMap<String, String> =
        child.cols.iter().zip(&cols).map(|(c, n)| (c.token(), n.token())).collect();
    let mut fds = FdSet::new(cols.iter().map(ColProp::token));
    for fd in remap_fds(&child.fds, &map) {
        fds.add(fd);
    }
    NodeProps { cols, fds, unique: child.unique, order: Vec::new(), max_rows: child.max_rows }
}

fn join_props(
    left: &NodeProps,
    right: &NodeProps,
    keys: Option<(&[usize], &[usize])>,
) -> NodeProps {
    let mut cols = left.cols.clone();
    cols.extend(right.cols.iter().cloned());
    let mut fds = FdSet::new(cols.iter().map(ColProp::token));
    for fd in left.fds.fds.iter().chain(&right.fds.fds) {
        fds.add(fd.clone());
    }
    if let Some((lk, rk)) = keys {
        for (&l, &r) in lk.iter().zip(rk) {
            if let (Some(lc), Some(rc)) = (left.cols.get(l), right.cols.get(r)) {
                let (lt, rt) = (lc.token(), rc.token());
                fds.add(Fd::new([lt.clone()], [rt.clone()]));
                fds.add(Fd::new([rt], [lt]));
            }
        }
    }
    NodeProps {
        cols,
        fds,
        unique: left.unique && right.unique,
        order: Vec::new(),
        max_rows: left
            .max_rows
            .saturating_mul(right.max_rows)
            .max(left.max_rows)
            .max(right.max_rows),
    }
}

fn filter_props(preds: &[PhysPred], child: &NodeProps) -> NodeProps {
    let tokens = child.tokens();
    let mut out = child.clone();
    add_pred_fds(&mut out.fds, preds, &tokens);
    out
}

fn project_props(cols: &[usize], names: &[String], child: &NodeProps) -> NodeProps {
    let out_cols = output_cols(names);
    let map: HashMap<String, String> = cols
        .iter()
        .zip(&out_cols)
        .filter_map(|(&i, n)| child.cols.get(i).map(|c| (c.token(), n.token())))
        .collect();
    let mut fds = FdSet::new(out_cols.iter().map(ColProp::token));
    for fd in remap_fds(&child.fds, &map) {
        fds.add(fd);
    }
    // Unique rows survive projection only when the retained columns
    // determine every input column (no information is discarded).
    let retained: BTreeSet<String> = map.keys().cloned().collect();
    let unique = child.unique && child.fds.is_superkey(&retained);
    NodeProps { cols: out_cols, fds, unique, order: Vec::new(), max_rows: child.max_rows }
}

fn aggregate_props(
    group: &[usize],
    items: &[PhysAggItem],
    names: &[String],
    child: &NodeProps,
) -> NodeProps {
    let out_cols = output_cols(names);
    // Retained (plain) columns carry their FDs through, like a projection.
    let map: HashMap<String, String> = items
        .iter()
        .zip(&out_cols)
        .filter_map(|(item, n)| match item {
            PhysAggItem::Col(i) => child.cols.get(*i).map(|c| (c.token(), n.token())),
            PhysAggItem::Agg { .. } => None,
        })
        .collect();
    let mut fds = FdSet::new(out_cols.iter().map(ColProp::token));
    for fd in remap_fds(&child.fds, &map) {
        fds.add(fd);
    }
    // One output row per group-key value: projected group columns
    // determine every output. With no GROUP BY the output is one row,
    // expressed as the constant FD {} -> all.
    let group_tokens: BTreeSet<String> =
        group.iter().filter_map(|&g| child.cols.get(g).map(ColProp::token)).collect();
    let mut covered: BTreeSet<String> = BTreeSet::new();
    let mut projected_group: BTreeSet<String> = BTreeSet::new();
    for (item, n) in items.iter().zip(&out_cols) {
        if let PhysAggItem::Col(i) = item {
            if let Some(c) = child.cols.get(*i) {
                if group_tokens.contains(&c.token()) {
                    covered.insert(c.token());
                    projected_group.insert(n.token());
                }
            }
        }
    }
    let all_out: Vec<String> = out_cols.iter().map(ColProp::token).collect();
    if group.is_empty() {
        fds.add(Fd::new(Vec::<String>::new(), all_out));
    } else if covered == group_tokens {
        fds.add(Fd::new(projected_group, all_out));
    }
    NodeProps {
        cols: out_cols,
        fds,
        unique: true,
        order: Vec::new(),
        max_rows: if group.is_empty() { 1 } else { child.max_rows },
    }
}

/// Alias-free output columns of a projection or aggregation.
fn output_cols(names: &[String]) -> Vec<ColProp> {
    names.iter().map(|n| ColProp { alias: String::new(), name: n.to_lowercase() }).collect()
}

/// Adds the FD contributions of resolved predicates: a column equality
/// pins each side to the other, a literal equality makes the column a
/// constant (`{} -> col`), and `contains` pins nothing (it keeps every
/// row whose value matches a substring).
fn add_pred_fds(fds: &mut FdSet, preds: &[PhysPred], tokens: &[String]) {
    for p in preds {
        match p {
            PhysPred::EqCols(l, r) => {
                if let (Some(lt), Some(rt)) = (tokens.get(*l), tokens.get(*r)) {
                    fds.add(Fd::new([lt.clone()], [rt.clone()]));
                    fds.add(Fd::new([rt.clone()], [lt.clone()]));
                }
            }
            PhysPred::EqLit(i, _) => {
                if let Some(t) = tokens.get(*i) {
                    fds.add(Fd::new(Vec::<String>::new(), [t.clone()]));
                }
            }
            PhysPred::ContainsCi(..) => {}
        }
    }
}

/// Maps a child FD set through a (possibly partial) token renaming.
/// Directly-mapped FDs are renamed; dependencies routed through dropped
/// columns are recovered by closing each declared determinant (and the
/// constant set) over the child FDs and intersecting with the mapping.
fn remap_fds(child: &FdSet, map: &HashMap<String, String>) -> Vec<Fd> {
    let mut out = Vec::new();
    let mapped_rhs = |attrs: &BTreeSet<String>| -> Vec<String> {
        attrs.iter().filter_map(|a| map.get(a).cloned()).collect()
    };
    for fd in &child.fds {
        if !fd.lhs.iter().all(|a| map.contains_key(a)) {
            continue;
        }
        let lhs: Vec<String> = fd.lhs.iter().filter_map(|a| map.get(a).cloned()).collect();
        let rhs = mapped_rhs(&child.closure(fd.lhs.clone()));
        if !rhs.is_empty() {
            out.push(Fd::new(lhs, rhs));
        }
    }
    // Constants survive projection: closure of the empty set.
    let consts = mapped_rhs(&child.closure(BTreeSet::new()));
    if !consts.is_empty() {
        out.push(Fd::new(Vec::<String>::new(), consts));
    }
    // Singleton closures recover transitive chains whose intermediate
    // columns were dropped (a -> dropped -> b).
    for (from, to) in map {
        let cl = child.closure([from.clone()].into_iter().collect());
        let rhs = mapped_rhs(&cl);
        if rhs.len() > 1 {
            out.push(Fd::new([to.clone()], rhs));
        }
    }
    out
}
