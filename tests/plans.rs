//! Integration tests of the planner/executor pipeline over the full
//! evaluation workloads: every generated statement is statically clean,
//! every plan verifies and fingerprints deterministically, predicate
//! pushdown is a pure optimization (identical answers with it on or
//! off), and `run_plan` agrees with the `execute` facade.

use std::collections::HashMap;

use aqks_core::Engine;
use aqks_eval::{acmdl_queries, tpch_queries, university_queries, EvalQuery};
use aqks_relational::Database;
use aqks_sqlgen::{
    execute, plan_with_options, render_plan, run_plan, PlanNode, PlanOp, PlanOptions,
    SelectStatement,
};

fn tpch_prime() -> Database {
    aqks_datasets::denormalize_tpch(&aqks_datasets::generate_tpch(
        &aqks_datasets::TpchConfig::small(),
    ))
}

fn count_op(plan: &PlanNode, pred: impl Fn(&PlanOp) -> bool) -> usize {
    let mut n = 0;
    plan.visit(&mut |node| {
        if pred(&node.op) {
            n += 1;
        }
    });
    n
}

/// Every statement the engine generates for the workload, paired with
/// the database it runs on. Every query must generate (some have fewer
/// than k interpretations), and no statement may carry an analyzer
/// error finding: debug builds refuse such statements inside
/// `generate`, release builds record them in `diagnostics`.
fn generated(db: Database, queries: &[EvalQuery], k: usize) -> (Database, Vec<SelectStatement>) {
    let engine = Engine::new(db.clone()).expect("engine builds");
    let mut stmts = Vec::new();
    for q in queries {
        let gen = engine
            .generate(q.text, k)
            .unwrap_or_else(|e| panic!("{}/{}: generate failed: {e}", db.name, q.id));
        for g in gen {
            assert_eq!(
                g.diagnostics.error_count(),
                0,
                "{}/{}: analyzer errors in\n{}\n{:?}",
                db.name,
                q.id,
                g.sql,
                g.diagnostics
            );
            stmts.push(g.sql);
        }
    }
    assert!(stmts.len() >= queries.len(), "workload produced {} statements", stmts.len());
    (db, stmts)
}

/// Pushdown equivalence on unnormalized TPC-H′ and on every other
/// bundled workload: for every generated statement, planning with
/// scan-time predicate evaluation and planning with a post-join Filter
/// both pass the plan verifier and return identical answers — and in
/// each workload at least one statement actually exercises a pushed
/// scan. The default plan's fingerprint is deterministic (a second
/// `plan()` gives the same value) and, within a workload, the
/// fingerprints and renderings of all subplans correspond one to one:
/// equal subtrees at different positions (so with different node ids)
/// share a fingerprint, and distinct ones never do.
#[test]
fn pushdown_is_equivalent_on_tpch_prime_workload() {
    let tpch = aqks_datasets::generate_tpch(&aqks_datasets::TpchConfig::small());
    let acmdl = aqks_datasets::generate_acmdl(&aqks_datasets::AcmdlConfig::small());
    let workloads = [
        ("tpch-prime", tpch_prime(), tpch_queries()),
        ("university", aqks_datasets::university::normalized(), university_queries()),
        ("tpch", tpch, tpch_queries()),
        ("acmdl-prime", aqks_datasets::denormalize_acmdl(&acmdl), acmdl_queries()),
        ("acmdl", acmdl, acmdl_queries()),
    ];
    let mut planned = 0;
    for (name, db, queries) in workloads {
        let (db, stmts) = generated(db, &queries, 3);
        planned += stmts.len();
        let mut pushed_scans = 0;
        let mut rendered_by_fp: HashMap<u64, String> = HashMap::new();
        let mut fp_by_rendered: HashMap<String, u64> = HashMap::new();
        for stmt in &stmts {
            let on = plan_with_options(stmt, &db, &PlanOptions { pushdown: true }).unwrap();
            let off = plan_with_options(stmt, &db, &PlanOptions { pushdown: false }).unwrap();
            for plan in [&on, &off] {
                aqks_plancheck::verify(plan, &db, stmt).unwrap_or_else(|e| {
                    panic!("{name}: verifier rejected\n{}for\n{stmt}\n{e}", render_plan(plan))
                });
            }
            let replanned = aqks_sqlgen::plan(stmt, &db).unwrap();
            assert_eq!(
                aqks_plancheck::fingerprint(&replanned),
                aqks_plancheck::fingerprint(&on),
                "{name}: nondeterministic fingerprint for\n{stmt}"
            );
            on.visit(&mut |node| {
                let (fp, rendered) = (aqks_plancheck::fingerprint(node), render_plan(node));
                let prev = rendered_by_fp.entry(fp).or_insert_with(|| rendered.clone());
                assert_eq!(*prev, rendered, "{name}: fingerprint {fp:#018x} collides");
                let prev = fp_by_rendered.entry(rendered).or_insert(fp);
                assert_eq!(*prev, fp, "{name}: one subplan has two fingerprints");
            });
            pushed_scans +=
                count_op(&on, |op| matches!(op, PlanOp::Scan { pushed, .. } if !pushed.is_empty()));
            assert_eq!(
                count_op(
                    &off,
                    |op| matches!(op, PlanOp::Scan { pushed, .. } if !pushed.is_empty())
                ),
                0,
                "{name}: pushdown=false must not push predicates into scans:\n{stmt}"
            );
            let (a, _) = run_plan(&on, &db).unwrap();
            let (b, _) = run_plan(&off, &db).unwrap();
            assert_eq!(a, b, "{name}: pushdown changed the answer of:\n{stmt}");
        }
        assert!(pushed_scans > 0, "{name}: no workload statement exercised a pushed scan");
    }
    assert!(planned >= 72, "only {planned} statements planned");
}

/// The plan pipeline agrees with the `execute` facade on both normalized
/// workloads (TPC-H T1–T8 and ACMDL A1–A8, top-3 interpretations each).
#[test]
fn run_plan_matches_execute_on_normalized_workloads() {
    for (db, queries) in [
        (aqks_datasets::generate_tpch(&aqks_datasets::TpchConfig::small()), tpch_queries()),
        (aqks_datasets::generate_acmdl(&aqks_datasets::AcmdlConfig::small()), acmdl_queries()),
    ] {
        let (db, stmts) = generated(db, &queries, 3);
        for stmt in &stmts {
            let via_facade = execute(stmt, &db).unwrap();
            let plan = plan_with_options(stmt, &db, &PlanOptions::default()).unwrap();
            let (via_plan, stats) = run_plan(&plan, &db).unwrap();
            assert_eq!(via_facade, via_plan, "{stmt}");
            assert_eq!(stats.ops.len(), plan.max_id() + 1);
        }
    }
}

/// Cross products, when unavoidable, start from the smallest source: no
/// workload statement plans a CrossJoin whose left subtree is estimated
/// larger than another available source (regression for the old
/// `pick.unwrap_or(0)` fallback is in `sqlgen::plan::tests`; this checks
/// the invariant holds over real generated SQL too).
#[test]
fn workload_plans_prefer_hash_joins() {
    let (db, stmts) = generated(tpch_prime(), &tpch_queries(), 3);
    let mut hash = 0;
    let mut cross = 0;
    for stmt in &stmts {
        let plan = plan_with_options(stmt, &db, &PlanOptions::default()).unwrap();
        hash += count_op(&plan, |op| matches!(op, PlanOp::HashJoin { .. }));
        cross += count_op(&plan, |op| matches!(op, PlanOp::CrossJoin));
    }
    assert!(hash > 0, "workload contains equi-joins");
    assert_eq!(cross, 0, "connected join graphs must never fall back to cross products");
}
