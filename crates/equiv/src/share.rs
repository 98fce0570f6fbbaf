//! Shared-subplan sets and their execution.
//!
//! [`shared_set`] runs [`Election::elect`] over one plan per class: each
//! maximal join subtree that two or more of those plans compute alike
//! becomes a *share point*. [`run_shared`] executes each shared subtree
//! once; its materialized rows feed every consumer through the
//! executor's cached-rows operator, with guard checkpoints and
//! per-operator metering preserved.

use std::collections::HashMap;
use std::sync::Arc;

use aqks_plancheck::{fingerprint, Election};
use aqks_relational::Database;
use aqks_sqlgen::{
    materialize_batches, run_plan_opts, ColumnBatch, ExecError, ExecOptions, ExecStats, PlanNode,
    ResultTable, SharedRows,
};

use crate::ClassAnalysis;

/// A shared subtree: executed once, consumed at every listed site.
#[derive(Debug, Clone)]
pub struct SharePoint {
    /// Fingerprint of the shared subtree.
    pub fingerprint: u64,
    /// The subtree itself (fresh pre-order ids, rooted at 0).
    pub subtree: PlanNode,
    /// Consumer sites as `(plan index, node id)` into
    /// [`SharedSet::plans`].
    pub consumers: Vec<(usize, usize)>,
}

/// A deduplicated interpretation set with its share points: one plan
/// per class, plus the shared-subplan DAG connecting them.
#[derive(Debug, Clone)]
pub struct SharedSet {
    /// One representative per class, in class order.
    pub plans: Vec<PlanNode>,
    /// Elected subtrees, largest first.
    pub shares: Vec<SharePoint>,
}

/// The result of executing a [`SharedSet`].
#[derive(Debug)]
pub struct SharedRun {
    /// Result of each representative plan, in [`SharedSet::plans`]
    /// order (stabilized exactly as `run_plan` would).
    pub tables: Vec<ResultTable>,
    /// Executor stats of each representative plan run.
    pub plan_stats: Vec<ExecStats>,
    /// Executor stats of each shared-subtree materialization, in
    /// [`SharedSet::shares`] order.
    pub share_stats: Vec<ExecStats>,
}

/// Builds the shared-subplan DAG over the class representatives of
/// `analysis` with the engine's own [`Election`], so the share points
/// are exactly the subtrees `Engine::run` executes once. Emits the
/// `equiv.shared_subtrees` counter when an ambient span is active.
pub fn shared_set(analysis: &ClassAnalysis) -> SharedSet {
    let plans: Vec<PlanNode> = analysis.classes.iter().map(|c| c.plan.clone()).collect();
    let shares: Vec<SharePoint> = Election::elect(&plans)
        .shares
        .into_iter()
        .map(|consumers| {
            let (pi, id) = consumers[0];
            let mut subtree = find(&plans[pi], id).clone();
            reassign_ids(&mut subtree, &mut 0);
            SharePoint { fingerprint: fingerprint(&subtree), subtree, consumers }
        })
        .collect();
    aqks_obs::counter("equiv.shared_subtrees", shares.len() as u64);
    SharedSet { plans, shares }
}

/// Executes a shared set: each shared subtree is materialized once,
/// then every representative plan runs with the materialized batches
/// substituted at its consumer sites.
pub fn run_shared(set: &SharedSet, db: &Database) -> Result<SharedRun, ExecError> {
    run_shared_opts(set, db, ExecOptions::default())
}

/// [`run_shared`] with execution options: both the shared-subtree
/// materializations and the consumer plans run with `opts` (worker
/// thread count). The materialized batches are `Arc`-shared, so feeding
/// them to N consumers costs N reference-count bumps, not N deep
/// copies.
pub fn run_shared_opts(
    set: &SharedSet,
    db: &Database,
    opts: ExecOptions,
) -> Result<SharedRun, ExecError> {
    let mut share_batches: Vec<Arc<Vec<ColumnBatch>>> = Vec::with_capacity(set.shares.len());
    let mut share_stats = Vec::with_capacity(set.shares.len());
    for sp in &set.shares {
        let (batches, stats) = materialize_batches(&sp.subtree, db, &SharedRows::new(), opts)?;
        share_batches.push(Arc::new(batches));
        share_stats.push(stats);
    }
    let mut tables = Vec::with_capacity(set.plans.len());
    let mut plan_stats = Vec::with_capacity(set.plans.len());
    for (pi, plan) in set.plans.iter().enumerate() {
        let mut cached = SharedRows::new();
        for (k, sp) in set.shares.iter().enumerate() {
            for &(p, id) in &sp.consumers {
                if p == pi {
                    cached.insert(id, Arc::clone(&share_batches[k]));
                }
            }
        }
        let (table, stats) = run_plan_opts(plan, db, &cached, opts)?;
        tables.push(table);
        plan_stats.push(stats);
    }
    Ok(SharedRun { tables, plan_stats, share_stats })
}

/// Pretty-prints the shared-subplan DAG: every share point's subtree
/// once, then each representative plan with `⇒ shared #k` markers at
/// its consumer sites (subtrees below a marker are elided — they run
/// as cached-row replays).
pub fn render_shared(set: &SharedSet) -> String {
    let mut out = String::new();
    for (k, sp) in set.shares.iter().enumerate() {
        out.push_str(&format!(
            "shared subplan #{k} [{:016x}] used {} times:\n",
            sp.fingerprint,
            sp.consumers.len()
        ));
        render_tree(&sp.subtree, "", true, true, &HashMap::new(), &mut out);
    }
    if set.shares.is_empty() {
        out.push_str("no shared subplans\n");
    }
    for (pi, plan) in set.plans.iter().enumerate() {
        let mut marks: HashMap<usize, usize> = HashMap::new();
        for (k, sp) in set.shares.iter().enumerate() {
            for &(p, id) in &sp.consumers {
                if p == pi {
                    marks.insert(id, k);
                }
            }
        }
        out.push_str(&format!("plan #{pi}:\n"));
        render_tree(plan, "", true, true, &marks, &mut out);
    }
    out
}

fn render_tree(
    node: &PlanNode,
    prefix: &str,
    last: bool,
    root: bool,
    marks: &HashMap<usize, usize>,
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
    if let Some(&k) = marks.get(&node.id) {
        out.push_str(&format!("⇒ shared #{k}: {} (est={})\n", node.label(), node.est_rows));
        return;
    }
    out.push_str(&format!("{} (est={})\n", node.label(), node.est_rows));
    let n = node.children.len();
    for (i, c) in node.children.iter().enumerate() {
        render_tree(c, &child_prefix, i + 1 == n, false, marks, out);
    }
}

/// The node of `plan` with id `id`; the election only names ids it
/// found in `plan`.
fn find(plan: &PlanNode, id: usize) -> &PlanNode {
    let mut hit = None;
    plan.visit(&mut |n| {
        if n.id == id {
            hit = Some(n);
        }
    });
    hit.expect("elected node id is in its plan")
}

fn reassign_ids(node: &mut PlanNode, next: &mut usize) {
    node.id = *next;
    *next += 1;
    for c in &mut node.children {
        reassign_ids(c, next);
    }
}
