//! Plan-corruption seeding for verifier tests.
//!
//! Each [`Mutation`] applies one realistic planner-bug shape to a copy
//! of a plan — the verifier must reject every applicable mutation with
//! the matching diagnostic kind. This module is a test harness, not an
//! execution feature; it lives in the library (rather than under
//! `#[cfg(test)]`) so downstream crates' property tests can seed the
//! same corruptions.

use aqks_sqlgen::{PhysPred, PlanNode, PlanOp};

/// A seedable plan corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Re-points one hash-join key at a neighboring column, so the join
    /// pairs columns the interpretation never related.
    SwapJoinKeys,
    /// Splices the first Distinct operator out of the tree.
    DropDistinct,
    /// Flips a hash join's build side against the estimates.
    FlipBuildSide,
    /// Replaces a projected column index with one past the input arity
    /// (a stale index surviving a layout change).
    StaleColumnIndex,
    /// Drops one pushed or residual `contains`/literal-equality
    /// predicate, so the plan selects rows the statement excludes.
    DropPredicate,
    /// Re-points one group key at a neighboring input column, so the
    /// plan groups by a column the statement does not.
    RepointGroupKey,
    /// Swaps a hash join's inputs *soundly*: keys, build side, output
    /// layout, and every ancestor's column references are remapped.
    /// Unlike the corruptions above, this mutation is semantics
    /// preserving — the verifier must accept it, and the structural
    /// fingerprint moves.
    SwapJoinInputs,
}

impl Mutation {
    /// All *corrupting* mutation kinds, in a stable order. The verifier
    /// must reject every one of these.
    pub const ALL: [Mutation; 6] = [
        Mutation::SwapJoinKeys,
        Mutation::DropDistinct,
        Mutation::FlipBuildSide,
        Mutation::StaleColumnIndex,
        Mutation::DropPredicate,
        Mutation::RepointGroupKey,
    ];

    /// Semantics-preserving mutations: the verifier must accept them.
    pub const BENIGN: [Mutation; 1] = [Mutation::SwapJoinInputs];
}

/// Applies `m` to a copy of `plan`. Returns `None` when the plan has no
/// applicable site (e.g. `DropDistinct` on a plan without Distinct).
pub fn apply(plan: &PlanNode, m: Mutation) -> Option<PlanNode> {
    let mut out = plan.clone();
    let hit = match m {
        Mutation::SwapJoinKeys => swap_join_keys(&mut out),
        Mutation::DropDistinct => drop_distinct(&mut out),
        Mutation::FlipBuildSide => flip_build_side(&mut out),
        Mutation::StaleColumnIndex => stale_column_index(&mut out),
        Mutation::DropPredicate => drop_predicate(&mut out),
        Mutation::RepointGroupKey => repoint_group_key(&mut out),
        Mutation::SwapJoinInputs => swap_join_inputs(&mut out).is_some(),
    };
    hit.then_some(out)
}

/// Every applicable mutation of `plan`, paired with its kind.
pub fn all(plan: &PlanNode) -> Vec<(Mutation, PlanNode)> {
    Mutation::ALL.iter().filter_map(|&m| apply(plan, m).map(|p| (m, p))).collect()
}

fn swap_join_keys(node: &mut PlanNode) -> bool {
    if let PlanOp::HashJoin { left_keys, right_keys, .. } = &mut node.op {
        // Rotate one key within its side so the pair no longer lines up;
        // a single-column side falls back to an out-of-range index.
        let right_arity = node.children[1].cols.len();
        let left_arity = node.children[0].cols.len();
        if right_arity > 1 {
            right_keys[0] = (right_keys[0] + 1) % right_arity;
        } else if left_arity > 1 {
            left_keys[0] = (left_keys[0] + 1) % left_arity;
        } else {
            right_keys[0] = right_arity;
        }
        return true;
    }
    node.children.iter_mut().any(swap_join_keys)
}

fn drop_distinct(node: &mut PlanNode) -> bool {
    if matches!(node.op, PlanOp::Distinct) {
        let child = node.children.remove(0);
        *node = child;
        return true;
    }
    node.children.iter_mut().any(drop_distinct)
}

fn drop_predicate(node: &mut PlanNode) -> bool {
    if let PlanOp::Scan { pushed: preds, .. } | PlanOp::Filter { preds } = &mut node.op {
        let selection =
            preds.iter().position(|p| matches!(p, PhysPred::ContainsCi(..) | PhysPred::EqLit(..)));
        if let Some(i) = selection {
            preds.remove(i);
            return true;
        }
    }
    node.children.iter_mut().any(drop_predicate)
}

fn repoint_group_key(node: &mut PlanNode) -> bool {
    let arity = node.children.first().map_or(0, |c| c.cols.len());
    if let PlanOp::HashAggregate { group, .. } = &mut node.op {
        if let Some(g) = group.first_mut().filter(|_| arity > 1) {
            *g = (*g + 1) % arity;
            return true;
        }
    }
    node.children.iter_mut().any(repoint_group_key)
}

fn flip_build_side(node: &mut PlanNode) -> bool {
    if let PlanOp::HashJoin { build_left, .. } = &mut node.op {
        // Only a decisive flip contradicts the planner's policy: with
        // equal estimates either side verifies.
        if node.children[0].est_rows != node.children[1].est_rows {
            *build_left = !*build_left;
            return true;
        }
    }
    node.children.iter_mut().any(flip_build_side)
}

/// Soundly swaps the inputs of the first hash join found in pre-order.
/// Returns the output-column permutation of the rewritten subtree (old
/// column `i` is now column `perm[i]`); ancestors on the way back up
/// remap their own column references through it and rebuild their
/// layouts, so the whole plan stays consistent.
fn swap_join_inputs(node: &mut PlanNode) -> Option<Vec<usize>> {
    if matches!(node.op, PlanOp::HashJoin { .. }) {
        let nl = node.children[0].cols.len();
        let nr = node.children[1].cols.len();
        node.children.swap(0, 1);
        let (l_est, r_est) = (node.children[0].est_rows, node.children[1].est_rows);
        if let PlanOp::HashJoin { left_keys, right_keys, build_left } = &mut node.op {
            std::mem::swap(left_keys, right_keys);
            *build_left = l_est < r_est;
        }
        let mut cols = node.children[0].cols.clone();
        cols.extend(node.children[1].cols.iter().cloned());
        node.cols = cols;
        // Old left block lands after the (nr-wide) new left block.
        let perm: Vec<usize> = (0..nl).map(|i| nr + i).chain(0..nr).collect();
        return Some(perm);
    }
    for ci in 0..node.children.len() {
        if let Some(p) = swap_join_inputs(&mut node.children[ci]) {
            return Some(remap_through(node, ci, &p));
        }
    }
    None
}

/// Remaps `node`'s references into child `ci` through that child's
/// output permutation `p`, rebuilds `node.cols`, and returns `node`'s
/// own output permutation for its parent to apply in turn.
fn remap_through(node: &mut PlanNode, ci: usize, p: &[usize]) -> Vec<usize> {
    let identity = |n: usize| (0..n).collect::<Vec<usize>>();
    match &mut node.op {
        PlanOp::Filter { preds } => {
            for pred in preds.iter_mut() {
                *pred = match pred {
                    PhysPred::EqCols(l, r) => PhysPred::EqCols(p[*l], p[*r]),
                    PhysPred::ContainsCi(i, s) => PhysPred::ContainsCi(p[*i], s.clone()),
                    PhysPred::EqLit(i, v) => PhysPred::EqLit(p[*i], v.clone()),
                };
            }
            node.cols = node.children[0].cols.clone();
            p.to_vec()
        }
        PlanOp::Project { cols, .. } => {
            for i in cols.iter_mut() {
                *i = p[*i];
            }
            identity(node.cols.len())
        }
        PlanOp::HashAggregate { group, items, .. } => {
            for g in group.iter_mut() {
                *g = p[*g];
            }
            for item in items.iter_mut() {
                match item {
                    aqks_sqlgen::PhysAggItem::Col(i) => *i = p[*i],
                    aqks_sqlgen::PhysAggItem::Agg { arg, .. } => *arg = p[*arg],
                }
            }
            identity(node.cols.len())
        }
        PlanOp::HashJoin { left_keys, right_keys, .. } => {
            let keys = if ci == 0 { left_keys } else { right_keys };
            for k in keys.iter_mut() {
                *k = p[*k];
            }
            let nl = node.children[0].cols.len();
            let nr = node.children[1].cols.len();
            let mut cols = node.children[0].cols.clone();
            cols.extend(node.children[1].cols.iter().cloned());
            node.cols = cols;
            if ci == 0 {
                p.iter().copied().chain(nl..nl + nr).collect()
            } else {
                (0..nl).chain(p.iter().map(|&j| nl + j)).collect()
            }
        }
        PlanOp::CrossJoin => {
            let nl = node.children[0].cols.len();
            let nr = node.children[1].cols.len();
            let mut cols = node.children[0].cols.clone();
            cols.extend(node.children[1].cols.iter().cloned());
            node.cols = cols;
            if ci == 0 {
                p.iter().copied().chain(nl..nl + nr).collect()
            } else {
                (0..nl).chain(p.iter().map(|&j| nl + j)).collect()
            }
        }
        PlanOp::DerivedTable { names, .. } => {
            let old_names = names.clone();
            let old_cols = node.cols.clone();
            for (i, &t) in p.iter().enumerate() {
                names[t] = old_names[i].clone();
                node.cols[t] = old_cols[i].clone();
            }
            p.to_vec()
        }
        PlanOp::Sort { keys } => {
            for (i, _) in keys.iter_mut() {
                *i = p[*i];
            }
            node.cols = node.children[0].cols.clone();
            p.to_vec()
        }
        PlanOp::Distinct | PlanOp::Limit { .. } => {
            node.cols = node.children[0].cols.clone();
            p.to_vec()
        }
        PlanOp::Scan { .. } => identity(node.cols.len()),
    }
}

fn stale_column_index(node: &mut PlanNode) -> bool {
    let arity = node.children.first().map_or(0, |c| c.cols.len());
    match &mut node.op {
        PlanOp::Project { cols, .. } if !cols.is_empty() => {
            cols[0] = arity;
            true
        }
        PlanOp::HashAggregate { group, items, .. } => {
            if let Some(g) = group.first_mut() {
                *g = arity;
            } else if let Some(item) = items.first_mut() {
                match item {
                    aqks_sqlgen::PhysAggItem::Col(i) => *i = arity,
                    aqks_sqlgen::PhysAggItem::Agg { arg, .. } => *arg = arity,
                }
            } else {
                return false;
            }
            true
        }
        _ => node.children.iter_mut().any(stale_column_index),
    }
}
