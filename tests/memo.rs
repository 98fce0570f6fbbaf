//! The executor's projection memo, end to end on the paper's TPC-H′ and
//! ACMDL′ workloads (small configs).
//!
//! On unnormalized data every relation of the normalized view D′ is a
//! `SELECT DISTINCT <cols> FROM <relation>` subquery. The database
//! memoizes those on first use and the executor replays them, so a
//! warm answer must be indistinguishable from a cold one: the same
//! result tables and the same per-operator `rows_in/rows_out/batches`.

use std::sync::Arc;

use aqks::core::{AnswerRequest, Budget, Engine};
use aqks::datasets::{
    denormalize_acmdl, denormalize_tpch, generate_acmdl, generate_tpch, AcmdlConfig, TpchConfig,
};
use aqks::relational::{Database, Value};
use aqks::sqlgen::{execute, ColumnRef, SelectItem, SelectStatement, TableExpr};

fn tpch_prime() -> Database {
    denormalize_tpch(&generate_tpch(&TpchConfig::small()))
}

/// Every interpretation of `query` (top 2) rendered to one comparable
/// string — SQL, result table and each operator's
/// `rows_in/rows_out/batches` in plan-node order — and how many
/// operators replayed the memo.
fn answers(engine: &Engine, query: &str) -> (String, usize) {
    let answered = engine.run(query, &AnswerRequest::new(2)).unwrap_or_else(|e| panic!("{e}"));
    assert!(answered.exhaustion.is_none(), "`{query}` ran within no budget");
    let mut out = String::new();
    let mut replayed = 0;
    for a in &answered.interpretations {
        out.push_str(&format!("{}\n{}\n", a.sql_text, a.result));
        for m in &a.stats.ops {
            out.push_str(&format!("{}/{}/{} ", m.rows_in, m.rows_out, m.batches));
            replayed += usize::from(m.note.as_deref() == Some("memo"));
        }
        out.push('\n');
    }
    (out, replayed)
}

/// For every T1–T8 on TPC-H′ and A1–A8 on ACMDL′, the first answer on
/// an engine, a repeat on the same engine and an answer on a fresh
/// engine are identical, and the repeats do replay the memo.
#[test]
fn warm_answers_equal_cold_and_fresh_ones() {
    let workloads = [
        ("tpch-prime", tpch_prime(), aqks_eval::tpch_queries()),
        (
            "acmdl-prime",
            denormalize_acmdl(&generate_acmdl(&AcmdlConfig::small())),
            aqks_eval::acmdl_queries(),
        ),
    ];
    for (label, db, queries) in workloads {
        let engine = Engine::new(db.clone()).expect("engine builds");
        let mut replayed = 0;
        for q in &queries {
            let (cold, _) = answers(&engine, q.text);
            let (warm, memo_ops) = answers(&engine, q.text);
            let (fresh, _) = answers(&Engine::new(db.clone()).expect("engine builds"), q.text);
            assert_eq!(cold, warm, "{label} {}: warm repeat differs", q.id);
            assert_eq!(cold, fresh, "{label} {}: fresh engine differs", q.id);
            replayed += memo_ops;
        }
        assert!(replayed > 0, "{label}: no operator replayed the memo");
        let db = engine.database();
        assert!(db.memo_cells() > 0 && db.memo_cells() <= db.total_cells(), "{label}");
    }
}

/// A row budget that trips inside a view relation's scan memoizes
/// nothing, and the next unlimited answer equals a fresh engine's.
#[test]
fn budget_trip_inside_a_view_relation_memoizes_nothing() {
    let engine = Engine::new(tpch_prime()).expect("engine builds");
    let query = "COUNT order \"royal olive\"";
    let req = AnswerRequest { k: 1, budget: Budget::unlimited().with_max_rows(1000), trace: false };
    let answered = engine.run(query, &req).expect("a trip is a structured answer");
    let trip = answered.exhaustion.expect("1000 rows trip the first 1259-row scan");
    assert!(["ops.Scan", "ops.Project", "ops.Distinct"].contains(&trip.site), "{}", trip.site);
    assert_eq!(engine.database().memo_cells(), 0);
    let fresh = Engine::new(tpch_prime()).expect("engine builds");
    assert_eq!(answers(&engine, query).0, answers(&fresh, query).0);
}

/// `Database::insert` after a run drops the memo, and the next run sees
/// the new row.
#[test]
fn insert_after_a_run_invalidates_the_memo() {
    let mut db = tpch_prime();
    let stmt = SelectStatement {
        distinct: true,
        items: vec![SelectItem::Column {
            col: ColumnRef::new("Ordering", "orderkey"),
            alias: None,
        }],
        from: vec![TableExpr::Relation { name: "Ordering".into(), alias: "Ordering".into() }],
        ..Default::default()
    };
    let before = execute(&stmt, &db).expect("runs").rows.len();
    assert!(db.memo_cells() > 0, "the projection was memoized");
    let mut row = db.table("Ordering").expect("Ordering").rows()[0].clone();
    row[2] = Value::Int(1_000_000);
    db.insert("Ordering", row).expect("insert");
    assert_eq!(db.memo_cells(), 0);
    let after = execute(&stmt, &db).expect("runs");
    assert_eq!(after.rows.len(), before + 1);
    assert!(after.rows.contains(&vec![Value::Int(1_000_000)]));
}

/// Two threads answering T1–T8 on one shared engine for the first time
/// race to fill the memo; both get a fresh engine's answers.
#[test]
fn concurrent_first_answers_agree() {
    let engine = Arc::new(Engine::new(tpch_prime()).expect("engine builds"));
    let queries = aqks_eval::tpch_queries();
    let run = |engine: &Engine| -> Vec<String> {
        queries.iter().map(|q| answers(engine, q.text).0).collect()
    };
    let runs: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let engine = Arc::clone(&engine);
                s.spawn(move || run(&engine))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panic")).collect()
    });
    let fresh = run(&Engine::new(tpch_prime()).expect("engine builds"));
    assert_eq!(runs[0], fresh);
    assert_eq!(runs[1], fresh);
}
