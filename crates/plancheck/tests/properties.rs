//! Fixed-seed property tests: over randomly generated schemas and
//! interpretations, plan → verify → execute never trips an invariant,
//! fingerprints are stable across two `plan()` calls, and every seeded
//! mutation moves the fingerprint and fails verification.

use aqks_plancheck::{fingerprint, mutate, verify};
use aqks_relational::{AttrType, Database, RelationSchema, Value};
use aqks_sqlgen::ast::{
    AggFunc, ColumnRef, OrderKey, Predicate, SelectItem, SelectStatement, TableExpr,
};
use aqks_sqlgen::{plan, render_plan, run_plan};

/// SplitMix64: deterministic, dependency-free PRNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// A random acyclic schema `R0..Rn`: each relation has an Int primary
/// key `Id`, a few typed payload attributes, and (past `R0`) a foreign
/// key into an earlier relation — plus a handful of FK-consistent rows.
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
        db.add_relation(r).unwrap();
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
            db.insert(&format!("R{i}"), row).unwrap();
        }
        sizes.push(rows);
    }
    db
}

/// A random interpretation over a FK chain of the schema: either a
/// plain (optionally DISTINCT/ordered/limited) projection or a
/// key-grouped aggregation — the statement shapes the keyword engine
/// produces.
fn random_statement(rng: &mut Rng, db: &Database) -> SelectStatement {
    let rels: Vec<&RelationSchema> = db.tables().iter().map(|t| &t.schema).collect();
    // Walk FKs upward from a random start to build a connected chain.
    let mut chain = vec![rng.below(rels.len())];
    loop {
        let rel = rels[*chain.last().unwrap()];
        let Some(fk) = rel.foreign_keys.first() else { break };
        let parent = rels.iter().position(|r| r.is_named(&fk.ref_relation)).expect("fk target");
        chain.push(parent);
        if rng.chance(40) {
            break;
        }
    }
    let alias = |i: usize| format!("t{i}");
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
    // Maybe pin a payload column to a type-correct literal.
    if rng.chance(50) {
        let i = rng.below(chain.len());
        let rel = rels[chain[i]];
        let a = &rel.attrs[1 + rng.below(rel.attrs.len() - 1)];
        let lit = match a.ty {
            AttrType::Int => Value::Int(rng.below(50) as i64),
            AttrType::Float => Value::Float(rng.below(50) as f64 / 2.0),
            _ => Value::str(format!("t{}", rng.below(6))),
        };
        stmt.predicates.push(Predicate::Eq(ColumnRef::new(alias(i), a.name.clone()), lit));
    }

    if rng.chance(50) {
        // Key-grouped aggregation over the chain's last relation.
        let g = ColumnRef::new(alias(0), "Id");
        let tail = rels[*chain.last().unwrap()];
        let func =
            [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max][rng.below(5)];
        // SUM/AVG need a numeric argument; Id always qualifies.
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
        if rng.chance(40) {
            let j = rng.below(n_items);
            stmt.order_by = vec![OrderKey {
                column: ColumnRef::new(alias(0), rel.attrs[j].name.clone()),
                desc: rng.chance(50),
            }];
        }
    }
    if rng.chance(30) {
        stmt.limit = Some(1 + rng.below(10));
    }
    stmt
}

#[test]
fn random_interpretations_plan_verify_and_execute() {
    let mut rng = Rng(0x5eed_2026_0807);
    let mut applied = Vec::new();
    for round in 0..60 {
        let db = random_database(&mut rng);
        for case in 0..4 {
            let stmt = random_statement(&mut rng, &db);
            let p = plan(&stmt, &db)
                .unwrap_or_else(|e| panic!("round {round} case {case}: plan failed: {e}"));
            verify(&p, &db, &stmt).unwrap_or_else(|e| {
                panic!(
                    "round {round} case {case}: verifier tripped on a clean plan: {e}\n{}",
                    render_plan(&p)
                )
            });
            run_plan(&p, &db)
                .unwrap_or_else(|e| panic!("round {round} case {case}: execution failed: {e}"));

            let again = plan(&stmt, &db).expect("plans again");
            assert_eq!(
                fingerprint(&p),
                fingerprint(&again),
                "round {round} case {case}: fingerprint unstable"
            );
            for (m, bad) in mutate::all(&p) {
                if !applied.contains(&m) {
                    applied.push(m);
                }
                assert_ne!(
                    fingerprint(&p),
                    fingerprint(&bad),
                    "round {round} case {case}: {m:?} kept the fingerprint"
                );
                assert!(
                    verify(&bad, &db, &stmt).is_err(),
                    "round {round} case {case}: {m:?} passed verification"
                );
            }
        }
    }
    for m in mutate::Mutation::ALL {
        assert!(applied.contains(&m), "{m:?} never applied to a random plan");
    }
}

#[test]
fn fingerprints_are_collision_free_across_random_interpretations() {
    let mut rng = Rng(0x0dd_ba11);
    let mut seen: std::collections::HashMap<u64, String> = std::collections::HashMap::new();
    for _ in 0..40 {
        let db = random_database(&mut rng);
        for _ in 0..4 {
            let stmt = random_statement(&mut rng, &db);
            let p = plan(&stmt, &db).expect("plans");
            // Structurally identical plans legitimately share a
            // fingerprint (estimates are excluded by design); plans
            // that differ beyond estimates must not.
            let text = strip_estimates(&render_plan(&p));
            if let Some(prev) = seen.insert(fingerprint(&p), text.clone()) {
                assert_eq!(
                    prev,
                    text,
                    "two structurally different plans share fingerprint {:016x}",
                    fingerprint(&p)
                );
            }
        }
    }
    assert!(seen.len() > 40, "generator produced too few distinct plans ({})", seen.len());
}

fn strip_estimates(rendered: &str) -> String {
    rendered.lines().map(|l| l.split(" (est=").next().unwrap_or(l)).collect::<Vec<_>>().join("\n")
}
