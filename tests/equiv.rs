//! The shared-subplan view (`aqks-equiv`) against the engine: on every
//! bundled workload its shared set is exactly the election `Engine::run`
//! executes, and each plan's shared run returns its solo run's table.
//! On randomized schemas, plans with and without predicate pushdown
//! both verify and return the same rows.

use std::collections::BTreeSet;

use aqks::core::{AnswerRequest, Engine};
use aqks::equiv::{analyze, run_shared, shared_set};
use aqks::plancheck::{verify, Election};
use aqks::relational::{AttrType, Database, RelationSchema, Value};
use aqks::sqlgen::ast::OrderKey;
use aqks::sqlgen::{
    plan_with_options, run_plan, AggFunc, ColumnRef, PlanNode, PlanOptions, Predicate, SelectItem,
    SelectStatement, TableExpr,
};
use aqks_eval::{EvalQuery, Scale};

/// For each query at k=5, checks that:
/// - the shared set's share points, mapped back to the input plans, are
///   the engine's election over the same plans;
/// - every operator `Engine::run` notes `shared` is one of those
///   consumer sites;
/// - the shared run returns every class member its solo run's table.
///
/// Returns the number of shares elected.
fn assert_shared_set_is_the_engines(db: &Database, queries: &[EvalQuery], workload: &str) -> usize {
    let engine = Engine::new(db.clone()).expect("engine builds");
    let mut elected = 0;
    for q in queries {
        let at = format!("{workload} {}", q.id);
        let plans: Vec<PlanNode> = engine
            .interpretation_plans(q.text, 5)
            .unwrap_or_else(|e| panic!("{at}: {e}"))
            .into_iter()
            .map(|(_, p)| p)
            .collect();
        let Ok(analysis) = analyze(&plans, db);
        let set = shared_set(&analysis);
        let rep = |ci: usize| analysis.classes[ci].members[0];
        let consumers: Vec<Vec<(usize, usize)>> = set
            .shares
            .iter()
            .map(|sp| sp.consumers.iter().map(|&(ci, id)| (rep(ci), id)).collect())
            .collect();
        assert_eq!(
            consumers,
            Election::elect(&plans).shares,
            "{at}: shares differ from the engine's"
        );
        elected += consumers.len();

        let sites: BTreeSet<(usize, usize)> = consumers.iter().flatten().copied().collect();
        let answered =
            engine.run(q.text, &AnswerRequest::new(5)).unwrap_or_else(|e| panic!("{at}: {e}"));
        assert_eq!(answered.interpretations.len(), plans.len(), "{at}: interpretations");
        for (i, a) in answered.interpretations.iter().enumerate() {
            for (id, m) in a.stats.ops.iter().enumerate() {
                if m.note.as_deref().is_some_and(|n| n.starts_with("shared")) {
                    assert!(
                        sites.contains(&(i, id)),
                        "{at}: #{} replayed node {id}, no share site",
                        i + 1
                    );
                }
            }
        }

        let run =
            run_shared(&set, db).unwrap_or_else(|e| panic!("{at}: shared execution fails: {e}"));
        for (ci, (class, table)) in analysis.classes.iter().zip(run.tables).enumerate() {
            let shared = table.sorted().rows;
            for &m in &class.members {
                let (solo, _) =
                    run_plan(&plans[m], db).unwrap_or_else(|e| panic!("{at}: plan {m}: {e}"));
                assert_eq!(
                    shared,
                    solo.sorted().rows,
                    "{at}: class {ci} plan {m} differs from its solo run"
                );
            }
        }
    }
    elected
}

#[test]
fn university_equivalence_classes_execute_identically() {
    let queries = aqks_eval::university_queries();
    let db = aqks::datasets::university::normalized();
    assert!(assert_shared_set_is_the_engines(&db, &queries, "university") > 0);
}

#[test]
fn tpch_equivalence_classes_execute_identically() {
    let queries = aqks_eval::tpch_queries();
    let normalized = aqks_eval::workload::tpch_database(Scale::Small);
    assert!(assert_shared_set_is_the_engines(&normalized, &queries, "tpch") > 0);
    let prime = aqks_eval::workload::tpch_prime_database(Scale::Small);
    assert!(assert_shared_set_is_the_engines(&prime, &queries, "tpch-prime") > 0);
}

#[test]
fn acmdl_equivalence_classes_execute_identically() {
    let queries = aqks_eval::acmdl_queries();
    let normalized = aqks_eval::workload::acmdl_database(Scale::Small);
    assert!(assert_shared_set_is_the_engines(&normalized, &queries, "acmdl") > 0);
    let prime = aqks_eval::workload::acmdl_prime_database(Scale::Small);
    assert!(assert_shared_set_is_the_engines(&prime, &queries, "acmdl-prime") > 0);
}

// ---------------------------------------------------------------------
// Randomized pushdown property
// ---------------------------------------------------------------------

/// SplitMix64: deterministic across platforms.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, pct: usize) -> bool {
        self.below(100) < pct
    }
}

/// A small random FK-chain schema with populated tables.
fn random_database(rng: &mut Rng) -> Database {
    let payload_types = [AttrType::Int, AttrType::Float, AttrType::Text];
    let mut db = Database::new("prop");
    let n_rels = 2 + rng.below(3);
    let mut schemas: Vec<(Vec<AttrType>, Option<usize>)> = Vec::new();
    for i in 0..n_rels {
        let mut r = RelationSchema::new(format!("R{i}"));
        r.add_attr("Id", AttrType::Int);
        let mut tys = Vec::new();
        for j in 0..1 + rng.below(3) {
            let ty = payload_types[rng.below(payload_types.len())];
            r.add_attr(format!("P{j}"), ty);
            tys.push(ty);
        }
        r.set_primary_key(["Id"]);
        let parent = if i > 0 { Some(rng.below(i)) } else { None };
        if let Some(p) = parent {
            r.add_attr("Ref", AttrType::Int);
            r.add_foreign_key(["Ref"], format!("R{p}"), ["Id"]);
        }
        schemas.push((tys, parent));
        db.add_relation(r).expect("schema is valid");
    }
    let mut sizes: Vec<usize> = Vec::new();
    for (i, (tys, parent)) in schemas.iter().enumerate() {
        let rows = 2 + rng.below(6);
        for id in 0..rows {
            let mut row = vec![Value::Int(id as i64)];
            for ty in tys {
                row.push(match ty {
                    AttrType::Int => Value::Int(rng.below(50) as i64),
                    AttrType::Float => Value::Float(rng.below(50) as f64 / 2.0),
                    _ => Value::str(format!("t{}", rng.below(6))),
                });
            }
            if let Some(p) = parent {
                row.push(Value::Int(rng.below(sizes[*p]) as i64));
            }
            db.insert(&format!("R{i}"), row).expect("row matches schema");
        }
        sizes.push(rows);
    }
    db
}

/// A random interpretation-shaped statement over an FK chain: a plain
/// (optionally DISTINCT/ordered) projection or a key-grouped aggregate,
/// with optional literal and contains predicates for pushdown to chew on.
fn random_statement(rng: &mut Rng, db: &Database) -> SelectStatement {
    let rels: Vec<&RelationSchema> = db.tables().iter().map(|t| &t.schema).collect();
    let mut chain = vec![rng.below(rels.len())];
    loop {
        let rel = rels[*chain.last().expect("chain is non-empty")];
        let Some(fk) = rel.foreign_keys.first() else { break };
        let parent = rels.iter().position(|r| r.is_named(&fk.ref_relation)).expect("fk target");
        chain.push(parent);
        if rng.chance(40) {
            break;
        }
    }
    let alias = |i: usize| format!("X{i}");
    let mut stmt = SelectStatement::new();
    stmt.from = chain
        .iter()
        .enumerate()
        .map(|(i, &r)| TableExpr::Relation { name: rels[r].name.clone(), alias: alias(i) })
        .collect();
    stmt.predicates = (1..chain.len())
        .map(|i| {
            Predicate::JoinEq(ColumnRef::new(alias(i - 1), "Ref"), ColumnRef::new(alias(i), "Id"))
        })
        .collect();
    if rng.chance(60) {
        let i = rng.below(chain.len());
        let rel = rels[chain[i]];
        let a = &rel.attrs[1 + rng.below(rel.attrs.len() - 1)];
        let pred = match a.ty {
            AttrType::Int => Predicate::Eq(
                ColumnRef::new(alias(i), a.name.clone()),
                Value::Int(rng.below(50) as i64),
            ),
            AttrType::Float => Predicate::Eq(
                ColumnRef::new(alias(i), a.name.clone()),
                Value::Float(rng.below(50) as f64 / 2.0),
            ),
            _ => Predicate::Contains(
                ColumnRef::new(alias(i), a.name.clone()),
                format!("t{}", rng.below(6)),
            ),
        };
        stmt.predicates.push(pred);
    }
    if rng.chance(50) {
        let g = ColumnRef::new(alias(0), "Id");
        let tail = rels[*chain.last().expect("chain is non-empty")];
        let func =
            [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max][rng.below(5)];
        let numeric: Vec<&str> = tail
            .attrs
            .iter()
            .filter(|a| matches!(a.ty, AttrType::Int | AttrType::Float))
            .map(|a| a.name.as_str())
            .collect();
        let arg = numeric[rng.below(numeric.len())];
        stmt.items = vec![
            SelectItem::Column { col: g.clone(), alias: None },
            SelectItem::Aggregate {
                func,
                arg: ColumnRef::new(alias(chain.len() - 1), arg),
                distinct: rng.chance(25),
                alias: "aggval".into(),
            },
        ];
        stmt.group_by = vec![g];
        if rng.chance(40) {
            stmt.order_by =
                vec![OrderKey { column: ColumnRef::new("", "aggval"), desc: rng.chance(50) }];
        }
    } else {
        let rel = rels[chain[0]];
        let n_items = 1 + rng.below(rel.attrs.len());
        stmt.items = (0..n_items)
            .map(|j| SelectItem::Column {
                col: ColumnRef::new(alias(0), rel.attrs[j].name.clone()),
                alias: None,
            })
            .collect();
        stmt.distinct = rng.chance(30);
    }
    stmt
}

/// 200 random schema/statement rounds: the plans with and without
/// predicate pushdown both verify against the statement and execute to
/// the same rows. Fixed seed — every run exercises the same cases.
#[test]
fn pushdown_on_and_off_verify_and_execute_alike() {
    let mut rng = Rng(0xE9B1);
    for round in 0..200 {
        let db = random_database(&mut rng);
        let stmt = random_statement(&mut rng, &db);
        let rows = |pushdown: bool| {
            let p = plan_with_options(&stmt, &db, &PlanOptions { pushdown })
                .unwrap_or_else(|e| panic!("round {round} pushdown={pushdown}: plan: {e}"));
            verify(&p, &db, &stmt)
                .unwrap_or_else(|e| panic!("round {round} pushdown={pushdown}: rejected: {e}"));
            let (t, _) = run_plan(&p, &db)
                .unwrap_or_else(|e| panic!("round {round} pushdown={pushdown}: exec: {e}"));
            t.sorted().rows
        };
        assert_eq!(rows(true), rows(false), "round {round}: pushdown changed the result");
    }
}
