//! Which subtrees of a plan set compute alike.
//!
//! Two subtrees are the same plan when [`same_plan`] holds: the same
//! operators with the same operands, layouts and estimates, node ids
//! ignored. Such subtrees run the same operators over the same data and
//! emit the same batches. [`equal_classes`] partitions plans by it,
//! bucketing by a hash ([`crate::fingerprint()`]) and confirming every
//! match structurally, never by the hash alone.
//!
//! The top-k interpretations of one keyword query often differ only in
//! SELECT and GROUP BY, so their plans repeat one join tree, and the
//! planner is deterministic in the statement, so equal FROM/WHERE
//! clauses plan to equal subtrees. [`Election::elect`] finds them: every
//! subtree that contains a `HashJoin` or `CrossJoin` is classed by
//! [`same_plan`]. The largest repeated subtrees are kept first, each
//! with the occurrences no kept subtree overlaps, found by walking the
//! subtrees (planner ids are assigned bottom-up, so a subtree's ids are
//! not an interval). A subtree is kept only while those occurrences lie
//! in two or more plans: a share is filled when the run that computed it
//! succeeds, so repeats within one plan never replay each other.
//!
//! Subtrees without a join are left alone: replaying a scan moves as
//! many rows as rescanning it, and electing part of a D′ memo site
//! (`Distinct(Project(Scan))`) would stop the executor's projection
//! memo from replaying it.
//!
//! `Engine::run` executes each elected subtree once per request, and
//! `aqks-equiv` renders and replays the same election, so both agree on
//! what is shared.

use std::collections::HashMap;

use aqks_sqlgen::{PlanNode, PlanOp};

/// Structural equality with node ids ignored: two such subtrees run the
/// same operators over the same data and emit the same batches.
pub fn same_plan(a: &PlanNode, b: &PlanNode) -> bool {
    a.op == b.op
        && a.cols == b.cols
        && a.est_rows == b.est_rows
        && a.children.len() == b.children.len()
        && a.children.iter().zip(&b.children).all(|(x, y)| same_plan(x, y))
}

/// Partitions `nodes` into classes of [`same_plan`]-equal trees: each
/// class lists indices into `nodes`, classes and members in order of
/// first appearance. `hash` only buckets candidates, so two trees that
/// collide on it still land apart unless they are the same plan.
pub fn equal_classes<'a>(
    nodes: impl IntoIterator<Item = &'a PlanNode>,
    hash: impl Fn(&PlanNode) -> u64,
) -> Vec<Vec<usize>> {
    let mut classes: Vec<(&PlanNode, Vec<usize>)> = Vec::new();
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, node) in nodes.into_iter().enumerate() {
        let bucket = buckets.entry(hash(node)).or_default();
        match bucket.iter().find(|&&c| same_plan(classes[c].0, node)) {
            Some(&c) => classes[c].1.push(i),
            None => {
                bucket.push(classes.len());
                classes.push((node, vec![i]));
            }
        }
    }
    classes.into_iter().map(|c| c.1).collect()
}

/// The shares of one plan set: for each, its consumer sites as
/// `(plan index, node id)`, largest subtree first.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Election {
    /// Consumer sites of each share.
    pub shares: Vec<Vec<(usize, usize)>>,
}

impl Election {
    /// Elects the maximal repeated join subtrees of `plans`.
    pub fn elect(plans: &[PlanNode]) -> Election {
        Election::elect_by(plans, crate::fingerprint)
    }

    /// [`Election::elect`] with the bucketing hash as a parameter, so a
    /// test can make every subtree collide.
    fn elect_by(plans: &[PlanNode], hash: impl Fn(&PlanNode) -> u64) -> Election {
        let mut sites: Vec<(usize, &PlanNode)> = Vec::new();
        for (pi, plan) in plans.iter().enumerate() {
            joins_below(plan, &mut |node| sites.push((pi, node)));
        }
        let mut classes: Vec<Vec<(usize, &PlanNode)>> =
            equal_classes(sites.iter().map(|s| s.1), hash)
                .into_iter()
                .filter(|c| c.len() > 1)
                .map(|c| c.into_iter().map(|i| sites[i]).collect())
                .collect();
        // Largest first; a stable sort keeps first appearance on ties.
        classes.sort_by_key(|c| std::cmp::Reverse(c[0].1.node_count()));

        let mut covered: Vec<Vec<bool>> =
            plans.iter().map(|p| vec![false; p.max_id() + 1]).collect();
        let mut shares = Vec::new();
        for occurrences in classes {
            let clear: Vec<(usize, &PlanNode)> = occurrences
                .into_iter()
                .filter(|&(pi, node)| {
                    let mut hit = false;
                    node.visit(&mut |n| hit |= covered[pi][n.id]);
                    !hit
                })
                .collect();
            let first = clear.first().map(|c| c.0);
            if clear.iter().all(|c| Some(c.0) == first) {
                continue;
            }
            for &(pi, node) in &clear {
                node.visit(&mut |n| covered[pi][n.id] = true);
            }
            shares.push(clear.iter().map(|&(pi, node)| (pi, node.id)).collect());
        }
        Election { shares }
    }

    /// Plan `plan`'s share sites: node id → share index.
    pub fn sites(&self, plan: usize) -> HashMap<usize, usize> {
        let mut sites = HashMap::new();
        for (k, share) in self.shares.iter().enumerate() {
            for &(pi, id) in share {
                if pi == plan {
                    sites.insert(id, k);
                }
            }
        }
        sites
    }

    /// The shares whose last consumer is plan `plan`.
    pub fn last_used_by(&self, plan: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.shares.len())
            .filter(move |&k| self.shares[k].iter().map(|s| s.0).max() == Some(plan))
    }
}

/// Calls `f` on every node of `node` that contains a join, children
/// before parents; returns whether `node` contains one.
fn joins_below<'a>(node: &'a PlanNode, f: &mut impl FnMut(&'a PlanNode)) -> bool {
    let mut joins = matches!(node.op, PlanOp::HashJoin { .. } | PlanOp::CrossJoin);
    for c in &node.children {
        joins |= joins_below(c, f);
    }
    if joins {
        f(node);
    }
    joins
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqks_relational::Value;
    use aqks_sqlgen::PhysPred;

    fn node(id: usize, op: PlanOp, children: Vec<PlanNode>) -> PlanNode {
        PlanNode { id, op, children, cols: Vec::new(), est_rows: 1 }
    }

    fn scan(id: usize, relation: &str, pushed: Vec<PhysPred>) -> PlanNode {
        let op = PlanOp::Scan { relation: relation.into(), alias: relation.into(), pushed };
        node(id, op, Vec::new())
    }

    /// `Project(HashJoin(Scan A [a.0 = name], Scan B))` with ids from
    /// `base`, bottom-up as the planner assigns them.
    fn plan(base: usize, name: &str, build_left: bool) -> PlanNode {
        let a = scan(base, "A", vec![PhysPred::EqLit(0, Value::str(name))]);
        let b = scan(base + 1, "B", Vec::new());
        let join = PlanOp::HashJoin { left_keys: vec![1], right_keys: vec![0], build_left };
        let join = node(base + 2, join, vec![a, b]);
        node(base + 3, PlanOp::Project { cols: vec![0], names: vec!["x".into()] }, vec![join])
    }

    #[test]
    fn equal_join_subtrees_under_different_ids_share_one() {
        let plans = [plan(0, "green", true), plan(10, "green", true)];
        // The whole plans are equal, so the share is their roots.
        assert_eq!(Election::elect(&plans).shares, vec![vec![(0, 3), (1, 13)]]);
        let mut second = plan(10, "green", true);
        second.op = PlanOp::Project { cols: vec![1], names: vec!["y".into()] };
        let plans = [plan(0, "green", true), second];
        assert_eq!(Election::elect(&plans).shares, vec![vec![(0, 2), (1, 12)]]);
    }

    #[test]
    fn a_pushed_constant_or_a_build_side_apart_shares_nothing() {
        for other in [plan(10, "george", true), plan(10, "green", false)] {
            let plans = [plan(0, "green", true), other];
            assert!(Election::elect(&plans).shares.is_empty());
            // Every subtree colliding on one hash changes nothing:
            // structural equality decides.
            assert!(Election::elect_by(&plans, |_| 0).shares.is_empty());
        }
        let plans = [plan(0, "green", true), plan(10, "green", true)];
        assert_eq!(Election::elect_by(&plans, |_| 0), Election::elect(&plans));
    }

    #[test]
    fn join_free_and_single_plan_repeats_are_not_elected() {
        // A D′ view relation, `Distinct(Project(Scan))`, is the
        // executor's memo site: a share must not replace it.
        let view = |base: usize| {
            let project = PlanOp::Project { cols: vec![0], names: vec!["x".into()] };
            let project = node(base + 1, project, vec![scan(base, "A", Vec::new())]);
            node(base + 2, PlanOp::Distinct, vec![project])
        };
        let plans = [view(0), view(5)];
        assert!(Election::elect(&plans).shares.is_empty());
        let twice =
            node(20, PlanOp::CrossJoin, vec![plan(0, "green", true), plan(10, "green", true)]);
        assert!(Election::elect(&[twice]).shares.is_empty());
    }

    /// A kept subtree covers its occurrences; a smaller repeat inside it
    /// is kept only with the occurrences outside, in two or more plans.
    #[test]
    fn smaller_repeats_keep_only_uncovered_occurrences() {
        let p0 = plan(0, "green", true);
        let p1 = plan(10, "green", true);
        let mut p2 = plan(20, "green", true);
        p2.op = PlanOp::Distinct;
        let mut p3 = plan(30, "green", true);
        p3.op = PlanOp::Distinct;
        let e = Election::elect(&[p0, p1, p2, p3]);
        assert_eq!(e.shares, vec![vec![(0, 3), (1, 13)], vec![(2, 23), (3, 33)]]);
        assert_eq!(e.sites(1), HashMap::from([(13, 0)]));
        assert_eq!(e.last_used_by(1).collect::<Vec<_>>(), [0]);
        assert_eq!(e.last_used_by(3).collect::<Vec<_>>(), [1]);
        let e = Election::elect(&[plan(0, "green", true), plan(10, "green", true), {
            let mut p = plan(20, "green", true);
            p.op = PlanOp::Distinct;
            p
        }]);
        // The join under plan 2's Distinct is alone outside the kept
        // roots, so it is not elected.
        assert_eq!(e.shares, vec![vec![(0, 3), (1, 13)]]);
    }
}
