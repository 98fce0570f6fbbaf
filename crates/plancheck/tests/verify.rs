//! End-to-end verifier tests: planner-produced plans verify clean (and
//! execute), seeded mutations are rejected with the right diagnostic
//! kind, and fingerprints behave like cache keys.

use aqks_core::Engine;
use aqks_datasets::university;
use aqks_plancheck::{fingerprint, mutate, render_verified, verify, PlanErrorKind};
use aqks_relational::Database;
use aqks_sqlgen::ast::{
    AggFunc, ColumnRef, OrderKey, Predicate, SelectItem, SelectStatement, TableExpr,
};
use aqks_sqlgen::{
    plan, plan_with_options, render_plan, run_plan, PhysAggItem, PhysPred, PlanNode, PlanOp,
    PlanOptions,
};

/// Plans every interpretation the engine generates for `queries`.
fn engine_plans(db: &Database, queries: &[&str]) -> Vec<(SelectStatement, PlanNode)> {
    let engine = Engine::new(db.clone()).expect("engine builds");
    let mut out = Vec::new();
    for q in queries {
        for g in engine.generate(q, 3).expect("interpretations generated") {
            let p = plan(&g.sql, db).expect("statement plans");
            out.push((g.sql, p));
        }
    }
    assert!(!out.is_empty(), "query set produced no plans");
    out
}

const UNIVERSITY_QUERIES: &[&str] = &[
    "Green SUM Credit",
    "Green George COUNT Code",
    "Java SUM Price",
    "Engineering COUNT Department",
    "AVG COUNT Lecturer GROUPBY Course",
    "Green Green COUNT Code",
];

#[test]
fn planner_produced_plans_verify_clean_and_execute() {
    let db = university::normalized();
    for (stmt, p) in engine_plans(&db, UNIVERSITY_QUERIES) {
        let verified = verify(&p, &db, &stmt)
            .unwrap_or_else(|e| panic!("clean plan rejected: {e}\n{}", render_plan(&p)));
        run_plan(&p, &db).expect("verified plan executes");
        // The annotated rendering surfaces properties for every node.
        let text = render_verified(&p, &verified);
        assert!(text.contains("rows<="), "no row bounds in:\n{text}");
    }
}

#[test]
fn root_properties_reflect_the_statement() {
    let db = university::normalized();
    // Global aggregate: single row, trivially unique.
    let (stmt, p) = engine_plans(&db, &["Green SUM Credit"]).remove(0);
    let verified = verify(&p, &db, &stmt).expect("verifies");
    let root = verified.root(&p);
    assert!(root.unique);
    assert!(root.max_rows >= 1);
    // A base scan keeps its primary key and full row bound.
    let stmt = select(vec![col("S", "Sid"), col("S", "Sname")], vec![rel("Student", "S")], vec![]);
    let scan = plan(&stmt, &db).expect("plans");
    let v = verify(&scan, &db, &stmt).expect("verifies");
    let leaf = v.props(find_scan_id(&scan)).expect("scan props");
    assert!(leaf.unique, "base relation with a PK is row-unique");
    assert_eq!(leaf.key(), Some(vec![0]), "Sid alone is the key");
    assert_eq!(leaf.max_rows, db.table("Student").unwrap().len());
}

fn find_scan_id(p: &PlanNode) -> usize {
    if p.children.is_empty() {
        p.id
    } else {
        find_scan_id(&p.children[0])
    }
}

#[test]
fn every_seeded_mutation_is_rejected_with_a_typed_diagnostic() {
    let db = university::normalized();
    let mut applied = 0usize;
    let mut kinds = Vec::new();
    for (stmt, p) in engine_plans(&db, UNIVERSITY_QUERIES) {
        for (m, bad) in mutate::all(&p) {
            applied += 1;
            if !kinds.contains(&m) {
                kinds.push(m);
            }
            let Err(err) = verify(&bad, &db, &stmt) else {
                panic!("{m:?} accepted on:\n{}", render_plan(&p));
            };
            let allowed: &[PlanErrorKind] = match m {
                mutate::Mutation::SwapJoinKeys => {
                    &[PlanErrorKind::JoinProvenance, PlanErrorKind::UnresolvedColumn]
                }
                mutate::Mutation::DropDistinct => &[PlanErrorKind::LostDistinct],
                mutate::Mutation::FlipBuildSide => &[PlanErrorKind::BuildSide],
                mutate::Mutation::StaleColumnIndex => &[PlanErrorKind::UnresolvedColumn],
                mutate::Mutation::DropPredicate => &[PlanErrorKind::PredicateMismatch],
                mutate::Mutation::RepointGroupKey => &[PlanErrorKind::GroupMismatch],
                mutate::Mutation::SwapJoinInputs => {
                    panic!("benign mutation yielded by mutate::all()")
                }
            };
            assert!(
                allowed.contains(&err.kind),
                "{m:?} rejected as {:?} (wanted one of {allowed:?}): {err}",
                err.kind
            );
        }
    }
    assert!(applied >= 8, "mutation corpus too small ({applied} applications)");
    for m in mutate::Mutation::ALL {
        assert!(kinds.contains(&m), "{m:?} never applied to a university plan");
    }
}

#[test]
fn benign_input_swap_verifies_clean_but_moves_the_fingerprint() {
    let db = university::normalized();
    let mut swapped = 0usize;
    for (stmt, p) in engine_plans(&db, UNIVERSITY_QUERIES) {
        let Some(good) = mutate::apply(&p, mutate::Mutation::SwapJoinInputs) else {
            continue; // no hash join in this plan
        };
        swapped += 1;
        verify(&good, &db, &stmt).unwrap_or_else(|e| {
            panic!(
                "sound input swap rejected: {e}\noriginal:\n{}\nswapped:\n{}",
                render_plan(&p),
                render_plan(&good)
            )
        });
        // The fingerprint hashes structure, so the swap moves it even
        // though both plans compute the same rows.
        assert_ne!(fingerprint(&p), fingerprint(&good), "input swap left fingerprint unchanged");
        // Same rows out: the swap must not change results.
        let (a, _) = run_plan(&p, &db).expect("original executes");
        let (b, _) = run_plan(&good, &db).expect("mutant executes");
        assert_eq!(a.sorted().rows, b.sorted().rows, "rows changed by input swap");
    }
    assert!(swapped >= 3, "too few joins exercised ({swapped})");
}

#[test]
fn dropped_distinct_is_caught_against_the_statement() {
    let db = university::normalized();
    let mut stmt = select(vec![col("E", "Grade")], vec![rel("Enrol", "E")], vec![]);
    stmt.distinct = true;
    let p = plan(&stmt, &db).expect("plans");
    verify(&p, &db, &stmt).expect("distinct plan verifies");
    let (m, bad) = mutate::all(&p)
        .into_iter()
        .find(|(m, _)| *m == mutate::Mutation::DropDistinct)
        .expect("plan has a Distinct to drop");
    let err = verify(&bad, &db, &stmt).expect_err("dropped Distinct accepted");
    assert_eq!(err.kind, PlanErrorKind::LostDistinct, "{m:?}: {err}");
}

/// With pushdown off every selection sits in one residual Filter above
/// the joins. A plan whose Filter lost its `contains` predicates still
/// has valid layouts and indices; only the statement shows what is
/// missing.
#[test]
fn residual_filter_that_drops_contains_is_rejected() {
    let db = university::normalized();
    let mut stmt = select(
        vec![col("S", "Sid"), agg(AggFunc::Count, "E", "Code", "numcode")],
        vec![rel("Student", "S"), rel("Enrol", "E")],
        vec![
            Predicate::JoinEq(ColumnRef::new("S", "Sid"), ColumnRef::new("E", "Sid")),
            Predicate::Contains(ColumnRef::new("S", "Sname"), "Green".into()),
        ],
    );
    stmt.group_by = vec![ColumnRef::new("S", "Sid")];
    let p = plan_with_options(&stmt, &db, &PlanOptions { pushdown: false }).expect("plans");
    verify(&p, &db, &stmt).expect("pushdown-off plan verifies");

    let mut bad = p.clone();
    let mut dropped = 0usize;
    edit_nodes(&mut bad, &mut |n| {
        if let PlanOp::Filter { preds } = &mut n.op {
            let before = preds.len();
            preds.retain(|p| !matches!(p, PhysPred::ContainsCi(..)));
            dropped += before - preds.len();
        }
    });
    assert_eq!(dropped, 1, "residual filter holds the contains:\n{}", render_plan(&p));
    let err = verify(&bad, &db, &stmt).expect_err("plan without its contains accepted");
    assert_eq!(err.kind, PlanErrorKind::PredicateMismatch, "{err}");
    assert!(err.detail.contains("s.sname contains 'green'"), "{err}");
}

/// Each select item, group key and sort key must read the statement's
/// column, not just have the right count and function.
#[test]
fn column_level_mismatches_are_rejected() {
    let db = university::normalized();
    let mut stmt = select(
        vec![col("S", "Sid"), agg(AggFunc::Sum, "S", "Age", "sumage")],
        vec![rel("Student", "S")],
        vec![],
    );
    stmt.group_by = vec![ColumnRef::new("S", "Sid")];
    stmt.order_by = vec![OrderKey { column: ColumnRef::new("", "sumage"), desc: true }];
    let p = plan(&stmt, &db).expect("plans");
    verify(&p, &db, &stmt).expect("clean plan verifies");
    let student = &db.table("Student").expect("Student exists").schema;
    let sname = student.attr_index("Sname").expect("Student has Sname");

    // Re-point the aggregate argument, the plain column, the group key
    // and the sort key in turn; each yields a well-formed plan.
    let rejected_as = |edit: &dyn Fn(&mut PlanNode)| {
        let mut bad = p.clone();
        edit_nodes(&mut bad, &mut |n| edit(n));
        assert_ne!(bad, p, "edit did not apply");
        verify(&bad, &db, &stmt).expect_err("re-pointed plan accepted").kind
    };
    let aggregate_argument = rejected_as(&|n| {
        if let PlanOp::HashAggregate { items, .. } = &mut n.op {
            items[1] = PhysAggItem::Agg { func: AggFunc::Sum, arg: sname, distinct: false };
        }
    });
    assert_eq!(aggregate_argument, PlanErrorKind::OutputSchema);
    let plain_column = rejected_as(&|n| {
        if let PlanOp::HashAggregate { items, .. } = &mut n.op {
            items[0] = PhysAggItem::Col(sname);
        }
    });
    assert_eq!(plain_column, PlanErrorKind::OutputSchema);
    let group_key = rejected_as(&|n| {
        if let PlanOp::HashAggregate { group, .. } = &mut n.op {
            group[0] = sname;
        }
    });
    assert_eq!(group_key, PlanErrorKind::GroupMismatch);
    let sort_key = rejected_as(&|n| {
        if let PlanOp::Sort { keys } = &mut n.op {
            keys[0].0 = 0;
        }
    });
    assert_eq!(sort_key, PlanErrorKind::OrderMismatch);
}

#[test]
fn fingerprints_are_deterministic_and_mutation_sensitive() {
    let db = university::normalized();
    let mut roots = Vec::new();
    for (stmt, p) in engine_plans(&db, UNIVERSITY_QUERIES) {
        let again = plan(&stmt, &db).expect("plans again");
        assert_eq!(
            fingerprint(&p),
            fingerprint(&again),
            "fingerprint unstable across plan() calls for:\n{}",
            render_plan(&p)
        );
        for (m, bad) in mutate::all(&p) {
            assert_ne!(fingerprint(&p), fingerprint(&bad), "{m:?} left the fingerprint unchanged");
        }
        roots.push(fingerprint(&p));
    }
    // Distinct interpretations hash apart (collision check).
    let mut sorted = roots.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), roots.len(), "fingerprint collision across interpretations");
}

// ---------------------------------------------------------------------------
// Small AST builders
// ---------------------------------------------------------------------------

fn select(
    items: Vec<SelectItem>,
    from: Vec<TableExpr>,
    predicates: Vec<Predicate>,
) -> SelectStatement {
    SelectStatement { items, from, predicates, ..SelectStatement::new() }
}

fn col(q: &str, c: &str) -> SelectItem {
    SelectItem::Column { col: ColumnRef::new(q, c), alias: None }
}

fn rel(name: &str, alias: &str) -> TableExpr {
    TableExpr::Relation { name: name.into(), alias: alias.into() }
}

/// Applies `f` to every node of the tree.
fn edit_nodes(node: &mut PlanNode, f: &mut dyn FnMut(&mut PlanNode)) {
    f(node);
    for c in &mut node.children {
        edit_nodes(c, f);
    }
}

fn agg(func: AggFunc, q: &str, c: &str, alias: &str) -> SelectItem {
    SelectItem::Aggregate { func, arg: ColumnRef::new(q, c), distinct: false, alias: alias.into() }
}
