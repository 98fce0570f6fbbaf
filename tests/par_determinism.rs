//! Cross-thread-count determinism of the parallel executor.
//!
//! The columnar executor's contract is that the worker thread count is
//! invisible in every output: stabilized result tables, generated SQL,
//! and budget-exhaustion reports are byte-identical whether a plan runs
//! single-threaded or morsel-parallel. These tests pin that contract on
//! the bundled workloads, on randomized plans (fixed-seed, so every run
//! exercises the same cases), and on budget trips mid-parallel-work.

use std::time::Duration;

use aqks::core::{AnswerRequest, Budget, BudgetKind, Engine};
use aqks::datasets::{
    denormalize_acmdl, denormalize_tpch, generate_acmdl, generate_tpch, university, AcmdlConfig,
    TpchConfig,
};
use aqks::relational::{AttrType, Database, RelationSchema, Value};
use aqks::sqlgen::{
    execute, plan, run_plan_opts, AggFunc, ColumnRef, ExecOptions, Predicate, SelectItem,
    SelectStatement, SharedRows, TableExpr,
};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Renders every answer of one engine run to a single comparable string:
/// SQL text, stabilized result table, and executor stats summary (each
/// operator's `rows_out/batches`, in plan-node order).
fn rendered_answers(engine: &Engine, query: &str, k: usize) -> String {
    let answers = engine.answer(query, k).unwrap_or_else(|e| panic!("`{query}`: {e}"));
    let mut out = String::new();
    for a in &answers {
        out.push_str(&a.sql_text);
        out.push('\n');
        out.push_str(&format!("{}\n", a.result));
        for m in &a.stats.ops {
            out.push_str(&format!("{}/{} ", m.rows_out, m.batches));
        }
        out.push('\n');
    }
    out
}

fn assert_workload_deterministic(db: Database, queries: &[&str], label: &str) {
    let mut engine = Engine::new(db).expect("engine builds");
    let mut baseline: Vec<String> = Vec::new();
    for &t in &THREAD_COUNTS {
        engine.set_threads(t);
        assert_eq!(engine.threads(), t);
        for (i, q) in queries.iter().enumerate() {
            let got = rendered_answers(&engine, q, 2);
            if t == 1 {
                baseline.push(got);
            } else {
                assert_eq!(
                    baseline[i], got,
                    "{label} `{q}` diverges at {t} thread(s) from single-threaded run"
                );
            }
        }
    }
}

/// Every bundled workload answers byte-identically at 1/2/4/8 threads:
/// the normalized university dataset, the normalized TPC-H and ACMDL
/// instances, and their denormalized primed variants.
#[test]
fn bundled_workloads_answer_identically_at_every_thread_count() {
    assert_workload_deterministic(
        university::normalized(),
        &["Green SUM Credit", "COUNT Student GROUPBY Course", "Engineering COUNT Department"],
        "university",
    );
    let tpch_queries: Vec<&str> = aqks_eval::tpch_queries().iter().map(|q| q.text).collect();
    let tpch = generate_tpch(&TpchConfig::small());
    assert_workload_deterministic(tpch.clone(), &tpch_queries, "tpch");
    assert_workload_deterministic(denormalize_tpch(&tpch), &tpch_queries, "tpch-prime");
    let acmdl_queries: Vec<&str> = aqks_eval::acmdl_queries().iter().map(|q| q.text).collect();
    let acmdl = generate_acmdl(&AcmdlConfig::small());
    assert_workload_deterministic(acmdl.clone(), &acmdl_queries, "acmdl");
    assert_workload_deterministic(denormalize_acmdl(&acmdl), &acmdl_queries, "acmdl-prime");
}

/// SplitMix64 (same generator as `tests/properties.rs`): deterministic
/// across platforms, so the property test below replays the identical
/// case set on every run.
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
}

/// A random two-table instance. Small rounds stress edge cases (empty
/// inputs, all-NULL columns); every 20th round is sized past the
/// executor's parallel threshold so the morsel-driven scan, partitioned
/// join build, and two-phase aggregate actually engage.
fn arb_db(rng: &mut Rng, big: bool) -> Database {
    let mut db = Database::new("prop");
    let mut r = RelationSchema::new("R");
    r.add_attr("k", AttrType::Int).add_attr("v", AttrType::Int).add_attr("s", AttrType::Text);
    db.add_relation(r).expect("schema");
    let mut s = RelationSchema::new("S");
    s.add_attr("k", AttrType::Int).add_attr("w", AttrType::Int);
    db.add_relation(s).expect("schema");
    let (r_rows, s_rows, keys) = if big {
        (5000 + rng.below(2000), 4000 + rng.below(1000), 1500)
    } else {
        (rng.below(30), rng.below(30), 6)
    };
    const WORDS: [&str; 5] = ["alpha", "Beta", "gamma", "DELTA", "alpha beta"];
    for _ in 0..r_rows {
        let k = Value::Int(rng.below(keys) as i64);
        let v = if rng.below(5) == 0 { Value::Null } else { Value::Int(rng.below(9) as i64) };
        let s =
            if rng.below(7) == 0 { Value::Null } else { Value::str(WORDS[rng.below(WORDS.len())]) };
        db.insert("R", vec![k, v, s]).expect("insert");
    }
    for _ in 0..s_rows {
        let k = Value::Int(rng.below(keys) as i64);
        db.insert("S", vec![k, Value::Int(rng.below(9) as i64)]).expect("insert");
    }
    db
}

fn arb_stmt(rng: &mut Rng) -> SelectStatement {
    let agg_funcs = [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max];
    let mut predicates =
        vec![Predicate::JoinEq(ColumnRef::new("R", "k"), ColumnRef::new("S", "k"))];
    match rng.below(4) {
        0 => predicates.push(Predicate::Contains(ColumnRef::new("R", "s"), "alpha".into())),
        1 => predicates.push(Predicate::Eq(ColumnRef::new("R", "v"), Value::Int(3))),
        _ => {}
    }
    if rng.below(3) == 0 {
        // Ungrouped projection, possibly DISTINCT.
        return SelectStatement {
            distinct: rng.below(2) == 0,
            items: vec![
                SelectItem::Column { col: ColumnRef::new("R", "k"), alias: None },
                SelectItem::Column { col: ColumnRef::new("S", "w"), alias: None },
            ],
            from: vec![
                TableExpr::Relation { name: "R".into(), alias: "R".into() },
                TableExpr::Relation { name: "S".into(), alias: "S".into() },
            ],
            predicates,
            group_by: vec![],
            ..Default::default()
        };
    }
    SelectStatement {
        distinct: false,
        items: vec![
            SelectItem::Column { col: ColumnRef::new("R", "k"), alias: None },
            SelectItem::Aggregate {
                func: agg_funcs[rng.below(agg_funcs.len())],
                arg: ColumnRef::new("S", "w"),
                distinct: rng.below(3) == 0,
                alias: "a".into(),
            },
            SelectItem::Aggregate {
                func: agg_funcs[rng.below(agg_funcs.len())],
                arg: ColumnRef::new("R", "v"),
                distinct: false,
                alias: "b".into(),
            },
        ],
        from: vec![
            TableExpr::Relation { name: "R".into(), alias: "R".into() },
            TableExpr::Relation { name: "S".into(), alias: "S".into() },
        ],
        predicates,
        group_by: vec![ColumnRef::new("R", "k")],
        ..Default::default()
    }
}

/// 200 fixed-seed rounds of random join/filter/aggregate statements:
/// the multi-threaded executor returns exactly the single-threaded
/// table, row for row and value for value.
#[test]
fn random_plans_execute_identically_sequential_and_parallel() {
    let mut rng = Rng(0xA96C_2026);
    for round in 0..200 {
        let big = round % 20 == 19;
        let db = arb_db(&mut rng, big);
        let stmt = arb_stmt(&mut rng);
        let sequential = execute(&stmt, &db).expect("sequential run");
        for threads in [2, 8] {
            let p = plan(&stmt, &db).expect("plan builds");
            let (parallel, stats) =
                run_plan_opts(&p, &db, &SharedRows::new(), ExecOptions::with_threads(threads))
                    .expect("parallel run");
            assert_eq!(
                sequential, parallel,
                "round {round} (big={big}) diverges at {threads} thread(s)"
            );
            if big {
                assert!(
                    stats.max_threads() > 1,
                    "round {round}: large input never took a parallel path"
                );
            }
        }
    }
}

/// A budget that trips while parallel workers are active degrades
/// exactly like the sequential engine: `Engine::run` returns a
/// structured exhaustion report (never a panic), scoped workers are
/// joined before the call returns, and the engine stays usable.
#[test]
fn parallel_budget_trip_returns_structured_exhaustion() {
    let db = denormalize_tpch(&generate_tpch(&TpchConfig::small()));
    let mut engine = Engine::new(db).expect("engine builds");
    engine.set_threads(4);

    // Pre-expired deadline: workers observe the shared governor at the
    // first checkpoint and cancel mid-morsel.
    let run = |budget: Budget| {
        let answered =
            engine.run("order AVG amount", &AnswerRequest { k: 1, budget, trace: false });
        answered.expect("governed answer").exhaustion
    };
    let ex = run(Budget::unlimited().with_timeout(Duration::ZERO)).expect("expired deadline trips");
    assert_eq!(ex.kind, BudgetKind::Deadline);

    // Row cap: charges happen on the plan's thread regardless of worker
    // count, so the trip site and kind match the sequential engine.
    let ex = run(Budget::unlimited().with_max_rows(1)).expect("row cap trips");
    assert_eq!(ex.kind, BudgetKind::Rows);

    // The engine is not poisoned: the same query then answers in full.
    let answers = engine.answer("order AVG amount", 1).expect("ungoverned answer");
    assert!(!answers.is_empty());
}
