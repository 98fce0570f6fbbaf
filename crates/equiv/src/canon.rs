//! Certified rule-based canonicalization of physical plans.
//!
//! The canonicalizer rewrites a [`PlanNode`] tree into a normal form in
//! which semantically equivalent plans become structurally identical,
//! so the structural fingerprint from `aqks-plancheck` doubles as a
//! semantic-equivalence key. The rules:
//!
//! - **Predicate normalization** — `EqCols` operands ordered low/high
//!   (column equality is symmetric), predicate lists sorted and
//!   deduplicated.
//! - **Filter pushdown normal form** — filter predicates are pushed as
//!   far down as their column block allows: through joins into the
//!   matching input, into `Scan.pushed`, and to a Filter directly above
//!   a derived table. Plans produced with pushdown disabled converge to
//!   the same form as plans produced with it enabled.
//! - **Commutative join-input ordering** — hash- and cross-join inputs
//!   ordered by the canonical fingerprint of the input subtrees (inner
//!   joins commute); join key pairs sorted and deduplicated.
//! - **Project collapsing** — `Project` over `Project` composes into
//!   one.
//! - **Estimate recomputation** — `est_rows` and hash-join build sides
//!   are recomputed bottom-up from canonical structure alone, with the
//!   planner's own estimate functions, so two structurally identical
//!   canonical trees always agree on the build-side bit the fingerprint
//!   includes.
//!
//! Every rewrite is *certified*: the rewritten subtree's inferred
//! properties (output schema and provenance, functional dependencies,
//! uniqueness, sortedness, cardinality bound — see
//! [`aqks_plancheck::props`]) are compared against the original
//! subtree's, modulo the rewrite's declared output-column permutation.
//! Any divergence rejects the rewrite with
//! [`EquivError::Certificate`]; the final canonical plan must
//! additionally pass [`aqks_plancheck::verify()`].

use aqks_plancheck::props::{infer, NodeProps};
use aqks_plancheck::{fingerprint, verify};
use aqks_relational::Database;
use aqks_sqlgen::{
    filter_estimate, join_estimate, scan_estimate, PhysAggItem, PhysPred, PlanNode, PlanOp,
};

use crate::EquivError;

/// A canonicalized plan with its canonical fingerprint.
#[derive(Debug, Clone)]
pub struct Canonical {
    /// The plan in canonical normal form (fresh pre-order node ids).
    pub plan: PlanNode,
    /// `aqks_plancheck::fingerprint` of the canonical plan — the
    /// semantic-equivalence key.
    pub fingerprint: u64,
    /// Output-column permutation: original output column `i` is
    /// canonical output column `perm[i]`. Identity for statement-level
    /// plans (their root Project/Aggregate pins the layout); subtree
    /// canonicalization (e.g. of a bare join) may permute.
    pub perm: Vec<usize>,
}

/// Canonicalization runs to a fixpoint; two passes settle every plan
/// the planner emits (pushdown moves predicates, the next pass
/// re-orders joins over the settled children). The cap is a safety
/// net, not a budget.
const MAX_PASSES: usize = 5;

/// Canonicalizes `plan`, certifying every rewrite against the
/// properties `aqks_plancheck::props` infers for the original subtree.
pub fn canonicalize(plan: &PlanNode, db: &Database) -> Result<Canonical, EquivError> {
    let mut cur = plan.clone();
    let mut perm: Vec<usize> = (0..plan.cols.len()).collect();
    let mut fp = fingerprint(&cur);
    for _ in 0..MAX_PASSES {
        let (mut next, pass_perm) = canon_node(&cur, db)?;
        let mut n = 0;
        assign_ids(&mut next, &mut n);
        perm = perm.iter().map(|&i| pass_perm[i]).collect();
        let next_fp = fingerprint(&next);
        cur = next;
        if next_fp == fp {
            break;
        }
        fp = next_fp;
    }
    verify(&cur, db, None).map_err(EquivError::Verify)?;
    Ok(Canonical { plan: cur, fingerprint: fp, perm })
}

/// One bottom-up canonicalization pass over a subtree. Returns the
/// rewritten subtree and the output-column permutation (original
/// column `i` → rewritten column `perm[i]`).
fn canon_node(node: &PlanNode, db: &Database) -> Result<(PlanNode, Vec<usize>), EquivError> {
    let mut kids = Vec::with_capacity(node.children.len());
    let mut perms = Vec::with_capacity(node.children.len());
    for c in &node.children {
        let (k, p) = canon_node(c, db)?;
        kids.push(k);
        perms.push(p);
    }
    let (new, perm, rule) = rebuild(node, kids, &perms, db);
    certify_rewrite(rule, node, &new, &perm, db)?;
    Ok((new, perm))
}

/// Checks the certificate for one rewrite: `after` (a rewrite of
/// `before` whose output column `i` moved to `perm[i]`) must preserve
/// every property [`aqks_plancheck::props::infer`] derives — column
/// provenance and types, functional dependencies (mutual implication),
/// uniqueness, sortedness, and the cardinality bound. Exposed so tests
/// can feed a deliberately unsound rewrite and watch it bounce.
pub fn certify_rewrite(
    rule: &'static str,
    before: &PlanNode,
    after: &PlanNode,
    perm: &[usize],
    db: &Database,
) -> Result<(), EquivError> {
    let a = infer_tree(before, db);
    let b = infer_tree(after, db);
    let reject = |detail: String| EquivError::Certificate { rule, node: before.id, detail };
    if perm.len() != a.cols.len() || a.cols.len() != b.cols.len() {
        return Err(reject(format!(
            "arity changed: {} columns with a {}-entry permutation onto {}",
            a.cols.len(),
            perm.len(),
            b.cols.len()
        )));
    }
    for (i, col) in a.cols.iter().enumerate() {
        let moved = &b.cols[perm[i]];
        if col != moved {
            return Err(reject(format!(
                "output column {i} changed provenance: {} is now {}",
                col.token(),
                moved.token()
            )));
        }
    }
    for fd in &a.fds.fds {
        if !b.fds.implies(&fd.lhs, &fd.rhs) {
            return Err(reject(format!("functional dependency lost: {fd}")));
        }
    }
    for fd in &b.fds.fds {
        if !a.fds.implies(&fd.lhs, &fd.rhs) {
            return Err(reject(format!("functional dependency invented: {fd}")));
        }
    }
    if a.unique != b.unique {
        return Err(reject(format!("uniqueness changed: {} -> {}", a.unique, b.unique)));
    }
    if a.max_rows != b.max_rows {
        return Err(reject(format!("cardinality bound changed: {} -> {}", a.max_rows, b.max_rows)));
    }
    let moved_order: Vec<(usize, bool)> = a.order.iter().map(|&(i, d)| (perm[i], d)).collect();
    if moved_order != b.order {
        return Err(reject(format!("sortedness changed: {:?} -> {:?}", a.order, b.order)));
    }
    Ok(())
}

/// Infers the properties of a whole subtree (bottom-up, pure).
fn infer_tree(node: &PlanNode, db: &Database) -> NodeProps {
    let children: Vec<NodeProps> = node.children.iter().map(|c| infer_tree(c, db)).collect();
    let refs: Vec<&NodeProps> = children.iter().collect();
    infer(node, &refs, db)
}

/// Rebuilds one node over already-canonical children, applying the
/// local rules. Returns the new node, the output permutation, and the
/// name of the governing rule (for certificate diagnostics).
fn rebuild(
    node: &PlanNode,
    mut kids: Vec<PlanNode>,
    perms: &[Vec<usize>],
    db: &Database,
) -> (PlanNode, Vec<usize>, &'static str) {
    match &node.op {
        PlanOp::Scan { relation, alias, pushed } => {
            let mut preds = pushed.clone();
            normalize_preds(&mut preds);
            let est = scan_estimate(relation, preds.len(), db).unwrap_or(node.est_rows);
            let op =
                PlanOp::Scan { relation: relation.clone(), alias: alias.clone(), pushed: preds };
            let n = node.cols.len();
            (mk(op, Vec::new(), node.cols.clone(), est), identity(n), "pred-normalize")
        }
        PlanOp::DerivedTable { alias, names } => {
            let pc = perms[0].clone();
            let child = kids.remove(0);
            let mut new_names = names.clone();
            let mut new_cols = node.cols.clone();
            for (i, &t) in pc.iter().enumerate() {
                new_names[t] = names[i].clone();
                new_cols[t] = node.cols[i].clone();
            }
            let est = child.est_rows;
            let op = PlanOp::DerivedTable { alias: alias.clone(), names: new_names };
            (mk(op, vec![child], new_cols, est), pc, "canon")
        }
        PlanOp::HashJoin { left_keys, right_keys, .. } => {
            let mapped: Vec<(usize, usize)> = left_keys
                .iter()
                .zip(right_keys)
                .map(|(&l, &r)| (perms[0][l], perms[1][r]))
                .collect();
            let right = kids.pop().expect("join has two children");
            let left = kids.pop().expect("join has two children");
            let swap = fingerprint(&right) < fingerprint(&left);
            let (a, b) = if swap { (right, left) } else { (left, right) };
            let mut pairs: Vec<(usize, usize)> =
                if swap { mapped.iter().map(|&(l, r)| (r, l)).collect() } else { mapped };
            pairs.sort_unstable();
            pairs.dedup();
            let (lk, rk): (Vec<usize>, Vec<usize>) = pairs.into_iter().unzip();
            let perm = join_perm(swap, a.cols.len(), perms);
            let mut cols = a.cols.clone();
            cols.extend(b.cols.iter().cloned());
            let est = join_estimate(&a, &b, Some((&lk, &rk)), db);
            let build_left = a.est_rows < b.est_rows;
            let op = PlanOp::HashJoin { left_keys: lk, right_keys: rk, build_left };
            (
                mk(op, vec![a, b], cols, est),
                perm,
                if swap { "join-commute" } else { "join-key-sort" },
            )
        }
        PlanOp::CrossJoin => {
            let right = kids.pop().expect("join has two children");
            let left = kids.pop().expect("join has two children");
            let swap = fingerprint(&right) < fingerprint(&left);
            let (a, b) = if swap { (right, left) } else { (left, right) };
            let perm = join_perm(swap, a.cols.len(), perms);
            let mut cols = a.cols.clone();
            cols.extend(b.cols.iter().cloned());
            let est = join_estimate(&a, &b, None, db);
            (
                mk(PlanOp::CrossJoin, vec![a, b], cols, est),
                perm,
                if swap { "join-commute" } else { "canon" },
            )
        }
        PlanOp::Filter { preds } => {
            let pc = perms[0].clone();
            let mut child = kids.remove(0);
            let mut mapped: Vec<PhysPred> = preds.iter().map(|p| remap_pred(p, &pc)).collect();
            normalize_preds(&mut mapped);
            let mut remaining = Vec::new();
            for p in mapped {
                if !try_push(&mut child, &p, db) {
                    remaining.push(p);
                }
            }
            if remaining.is_empty() {
                (child, pc, "filter-pushdown")
            } else {
                normalize_preds(&mut remaining);
                let est = filter_estimate(child.est_rows, remaining.len());
                let cols = child.cols.clone();
                let op = PlanOp::Filter { preds: remaining };
                (mk(op, vec![child], cols, est), pc, "filter-pushdown")
            }
        }
        PlanOp::HashAggregate { group, items, names } => {
            let pc = &perms[0];
            let child = kids.remove(0);
            let mut g: Vec<usize> = group.iter().map(|&i| pc[i]).collect();
            g.sort_unstable();
            g.dedup();
            let its: Vec<PhysAggItem> = items
                .iter()
                .map(|it| match it {
                    PhysAggItem::Col(i) => PhysAggItem::Col(pc[*i]),
                    PhysAggItem::Agg { func, arg, distinct } => {
                        PhysAggItem::Agg { func: *func, arg: pc[*arg], distinct: *distinct }
                    }
                })
                .collect();
            let est = if g.is_empty() { 1 } else { child.est_rows };
            let n = node.cols.len();
            let op = PlanOp::HashAggregate { group: g, items: its, names: names.clone() };
            (mk(op, vec![child], node.cols.clone(), est), identity(n), "group-sort")
        }
        PlanOp::Project { cols, names } => {
            let pc = &perms[0];
            let mut child = kids.remove(0);
            let mut idx: Vec<usize> = cols.iter().map(|&i| pc[i]).collect();
            let mut rule = "canon";
            while let PlanOp::Project { cols: inner, .. } = &child.op {
                idx = idx.iter().map(|&i| inner[i]).collect();
                let grand = child.children.remove(0);
                child = grand;
                rule = "project-collapse";
            }
            let est = child.est_rows;
            let n = node.cols.len();
            let op = PlanOp::Project { cols: idx, names: names.clone() };
            (mk(op, vec![child], node.cols.clone(), est), identity(n), rule)
        }
        PlanOp::Distinct => {
            let pc = perms[0].clone();
            let child = kids.remove(0);
            let cols = child.cols.clone();
            let est = child.est_rows;
            (mk(PlanOp::Distinct, vec![child], cols, est), pc, "canon")
        }
        PlanOp::Sort { keys } => {
            let pc = perms[0].clone();
            let child = kids.remove(0);
            let ks: Vec<(usize, bool)> = keys.iter().map(|&(i, d)| (pc[i], d)).collect();
            let cols = child.cols.clone();
            let est = child.est_rows;
            (mk(PlanOp::Sort { keys: ks }, vec![child], cols, est), pc, "canon")
        }
        PlanOp::Limit { n } => {
            let pc = perms[0].clone();
            let child = kids.remove(0);
            let cols = child.cols.clone();
            let est = child.est_rows.min(*n);
            (mk(PlanOp::Limit { n: *n }, vec![child], cols, est), pc, "canon")
        }
    }
}

/// Output permutation of a (possibly swapped) binary join: the old
/// left block had `perms[0].len()` columns, the old right block
/// `perms[1].len()`; `na` is the arity of the *new* left input.
fn join_perm(swap: bool, na: usize, perms: &[Vec<usize>]) -> Vec<usize> {
    let (pl, pr) = (&perms[0], &perms[1]);
    if swap {
        pl.iter().map(|&i| na + i).chain(pr.iter().copied()).collect()
    } else {
        pl.iter().copied().chain(pr.iter().map(|&j| na + j)).collect()
    }
}

/// Pushes one (already remapped, normalized) predicate as far down the
/// subtree as its column block allows. Returns false when the
/// predicate must stay in the enclosing Filter (e.g. it straddles both
/// join inputs). Estimates along the touched spine are recomputed.
fn try_push(node: &mut PlanNode, pred: &PhysPred, db: &Database) -> bool {
    if matches!(node.op, PlanOp::Scan { .. }) {
        if let PlanOp::Scan { relation, pushed, .. } = &mut node.op {
            pushed.push(pred.clone());
            normalize_preds(pushed);
            node.est_rows = scan_estimate(relation, pushed.len(), db).unwrap_or(node.est_rows);
        }
        return true;
    }
    if matches!(node.op, PlanOp::Filter { .. }) {
        let child_est = node.children[0].est_rows;
        if let PlanOp::Filter { preds } = &mut node.op {
            preds.push(pred.clone());
            normalize_preds(preds);
            let n = preds.len();
            node.est_rows = filter_estimate(child_est, n);
        }
        return true;
    }
    if matches!(node.op, PlanOp::HashJoin { .. } | PlanOp::CrossJoin) {
        let nl = node.children[0].cols.len();
        let idx = pred_indices(pred);
        let pushed = if idx.iter().all(|&i| i < nl) {
            try_push(&mut node.children[0], pred, db)
        } else if idx.iter().all(|&i| i >= nl) {
            try_push(&mut node.children[1], &shift_pred(pred, nl), db)
        } else {
            false
        };
        if pushed {
            let (l, r) = (&node.children[0], &node.children[1]);
            node.est_rows = match &node.op {
                PlanOp::HashJoin { left_keys, right_keys, .. } => {
                    join_estimate(l, r, Some((left_keys, right_keys)), db)
                }
                _ => join_estimate(l, r, None, db),
            };
            let smaller_left = l.est_rows < r.est_rows;
            if let PlanOp::HashJoin { build_left, .. } = &mut node.op {
                *build_left = smaller_left;
            }
        }
        return pushed;
    }
    if matches!(node.op, PlanOp::DerivedTable { .. }) {
        // Planner normal form: a Filter directly above the derived
        // table (predicates never sink into the inner statement).
        let placeholder = PlanNode {
            id: 0,
            op: PlanOp::Distinct,
            children: Vec::new(),
            cols: Vec::new(),
            est_rows: 0,
        };
        let inner = std::mem::replace(node, placeholder);
        let est = filter_estimate(inner.est_rows, 1);
        let cols = inner.cols.clone();
        *node = mk(PlanOp::Filter { preds: vec![pred.clone()] }, vec![inner], cols, est);
        return true;
    }
    false
}

/// Builds a node with a placeholder id; [`canonicalize`] re-ids the
/// whole tree in pre-order once the pass completes.
fn mk(
    op: PlanOp,
    children: Vec<PlanNode>,
    cols: Vec<(String, String)>,
    est_rows: usize,
) -> PlanNode {
    PlanNode { id: 0, op, children, cols, est_rows }
}

fn assign_ids(node: &mut PlanNode, next: &mut usize) {
    node.id = *next;
    *next += 1;
    for c in &mut node.children {
        assign_ids(c, next);
    }
}

fn identity(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// Orders `EqCols` operands low/high: column equality is symmetric, so
/// both spellings are one predicate.
fn normalize_pred(p: PhysPred) -> PhysPred {
    match p {
        PhysPred::EqCols(l, r) if r < l => PhysPred::EqCols(r, l),
        other => other,
    }
}

fn pred_key(p: &PhysPred) -> (u8, usize, usize, String) {
    match p {
        PhysPred::EqCols(l, r) => (0, *l, *r, String::new()),
        PhysPred::ContainsCi(i, s) => (1, *i, 0, s.clone()),
        PhysPred::EqLit(i, v) => (2, *i, 0, v.to_string()),
    }
}

fn normalize_preds(preds: &mut Vec<PhysPred>) {
    for p in preds.iter_mut() {
        *p = normalize_pred(p.clone());
    }
    preds.sort_by_key(pred_key);
    preds.dedup();
}

fn remap_pred(p: &PhysPred, perm: &[usize]) -> PhysPred {
    match p {
        PhysPred::EqCols(l, r) => normalize_pred(PhysPred::EqCols(perm[*l], perm[*r])),
        PhysPred::ContainsCi(i, s) => PhysPred::ContainsCi(perm[*i], s.clone()),
        PhysPred::EqLit(i, v) => PhysPred::EqLit(perm[*i], v.clone()),
    }
}

fn pred_indices(p: &PhysPred) -> Vec<usize> {
    match p {
        PhysPred::EqCols(l, r) => vec![*l, *r],
        PhysPred::ContainsCi(i, _) | PhysPred::EqLit(i, _) => vec![*i],
    }
}

/// Rebases a predicate from a join's output layout onto its right
/// input (subtracting the left arity).
fn shift_pred(p: &PhysPred, by: usize) -> PhysPred {
    match p {
        PhysPred::EqCols(l, r) => normalize_pred(PhysPred::EqCols(l - by, r - by)),
        PhysPred::ContainsCi(i, s) => PhysPred::ContainsCi(i - by, s.clone()),
        PhysPred::EqLit(i, v) => PhysPred::EqLit(i - by, v.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqks_relational::{AttrType, RelationSchema, Value};
    use aqks_sqlgen::ast::{ColumnRef, Predicate, SelectItem, SelectStatement, TableExpr};
    use aqks_sqlgen::{plan_with_options, PlanOptions};

    /// Nine predicates on one relation, pushed by the planner or left in
    /// a filter for canonicalization to push: both canonical scans carry
    /// the planner's estimate, whose per-predicate shift stops at eight
    /// (2^17 rows >> 16 = 2, where nine further quarterings would give 1).
    #[test]
    fn nine_pushed_predicates_keep_the_planner_estimate() {
        const ROWS: usize = 1 << 17;
        let mut db = Database::new("nine");
        let mut t = RelationSchema::new("T");
        t.add_attr("Id", AttrType::Int).add_attr("V", AttrType::Int);
        t.set_primary_key(["Id"]);
        db.add_relation(t).unwrap();
        for i in 0..ROWS as i64 {
            db.insert("T", vec![Value::Int(i), Value::Int(i % 16)]).unwrap();
        }
        let stmt = SelectStatement {
            items: vec![SelectItem::Column { col: ColumnRef::new("T", "Id"), alias: None }],
            from: vec![TableExpr::Relation { name: "T".into(), alias: "T".into() }],
            predicates: (0..9)
                .map(|v| Predicate::Eq(ColumnRef::new("T", "V"), Value::Int(v)))
                .collect(),
            ..Default::default()
        };
        let scan_est = |p: &PlanNode| {
            let mut est = None;
            p.visit(&mut |n| {
                if matches!(n.op, PlanOp::Scan { .. }) {
                    est = Some(n.est_rows);
                }
            });
            est.expect("plan scans T")
        };
        let want = filter_estimate(ROWS, 9);
        assert_eq!(want, 2);
        for pushdown in [true, false] {
            let p = plan_with_options(&stmt, &db, &PlanOptions { pushdown }).unwrap();
            let c = canonicalize(&p, &db).unwrap();
            assert_eq!(scan_est(&c.plan), want, "pushdown {pushdown}");
            if pushdown {
                assert_eq!(scan_est(&p), want, "planner scan estimate");
            }
        }
    }
}
