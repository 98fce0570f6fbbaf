//! Subtrees shared across one request's plans.
//!
//! `Engine::run` plans all top-k interpretations first and executes each
//! join subtree that two or more plans compute alike once per request;
//! later plans replay its batches. A replay must be invisible in every
//! output but wall time: each interpretation's result and every
//! operator's `rows_in/rows_out/batches` equal those of its plan run
//! alone.

use aqks::core::{AnswerRequest, Engine, Interpretation};
use aqks::datasets::{
    denormalize_acmdl, denormalize_tpch, generate_acmdl, generate_tpch, university, AcmdlConfig,
    TpchConfig,
};
use aqks::relational::Database;
use aqks::sqlgen::{plan, run_plan_opts, ExecOptions, ExecStats, SharedRows};

/// Each operator's `(rows_in, rows_out, batches)`, in plan-node order.
fn op_rows(stats: &ExecStats) -> Vec<(u64, u64, u64)> {
    stats.ops.iter().map(|m| (m.rows_in, m.rows_out, m.batches)).collect()
}

/// How many of `stats`' operators carry a note starting with `prefix`.
fn noted(stats: &ExecStats, prefix: &str) -> usize {
    stats.ops.iter().filter(|m| m.note.as_deref().is_some_and(|n| n.starts_with(prefix))).count()
}

/// `a`'s plan run alone on `engine`'s database with no shared rows.
fn solo(engine: &Engine, a: &Interpretation) -> (aqks::sqlgen::ResultTable, ExecStats) {
    let db = engine.database();
    let p = plan(&a.sql, db).expect("plans");
    let opts = ExecOptions::with_threads(engine.threads());
    let (table, stats) = run_plan_opts(&p, db, &SharedRows::new(), opts).expect("runs alone");
    (table.sorted(), stats)
}

/// Answers `query` at k=5 and checks every interpretation against its
/// solo run; returns the interpretations and how many shares replayed.
fn answer_and_check(engine: &Engine, query: &str, label: &str) -> (Vec<Interpretation>, usize) {
    let answered = engine.run(query, &AnswerRequest::new(5)).unwrap_or_else(|e| panic!("{e}"));
    assert!(answered.exhaustion.is_none(), "{label} `{query}` ran within no budget");
    let mut replays = 0;
    for (rank, a) in answered.interpretations.iter().enumerate() {
        let (table, stats) = solo(engine, a);
        let at = format!("{label} `{query}` #{} at {} thread(s)", rank + 1, engine.threads());
        assert_eq!(a.result, table, "{at}: result differs from the solo run");
        assert_eq!(op_rows(&a.stats), op_rows(&stats), "{at}: operator rows differ");
        replays += noted(&a.stats, "shared");
    }
    (answered.interpretations, replays)
}

/// Checks `queries` on `db` at 1 and 2 executor threads; returns the
/// share replays seen.
fn assert_shared_equals_solo(db: Database, queries: &[&str], label: &str) -> usize {
    let mut engine = Engine::new(db).expect("engine builds");
    let mut replays = 0;
    for threads in [1, 2] {
        engine.set_threads(threads);
        for q in queries {
            replays += answer_and_check(&engine, q, label).1;
        }
    }
    replays
}

/// Every bundled workload (small configs) at k=5: each interpretation
/// equals its solo run, and the workloads with repeated joins replay
/// them.
#[test]
fn shared_runs_equal_solo_runs_on_every_bundled_workload() {
    assert_shared_equals_solo(
        university::normalized(),
        &["Green SUM Credit", "COUNT Student GROUPBY Course", "Engineering COUNT Department"],
        "university",
    );
    let tpch_queries: Vec<&str> = aqks_eval::tpch_queries().iter().map(|q| q.text).collect();
    let tpch = generate_tpch(&TpchConfig::small());
    let acmdl_queries: Vec<&str> = aqks_eval::acmdl_queries().iter().map(|q| q.text).collect();
    let acmdl = generate_acmdl(&AcmdlConfig::small());
    let mut replays = 0;
    replays += assert_shared_equals_solo(tpch.clone(), &tpch_queries, "tpch");
    replays += assert_shared_equals_solo(denormalize_tpch(&tpch), &tpch_queries, "tpch-prime");
    replays += assert_shared_equals_solo(acmdl.clone(), &acmdl_queries, "acmdl");
    replays += assert_shared_equals_solo(denormalize_acmdl(&acmdl), &acmdl_queries, "acmdl-prime");
    assert!(replays > 0, "no interpretation replayed a share");
}

/// On paper-scale ACMDL the interpretations of A4, A6 and A7 repeat one
/// join tree, and each query replays at least one share.
#[test]
fn paper_scale_acmdl_replays_a_share_for_a4_a6_a7() {
    let engine = Engine::new(generate_acmdl(&AcmdlConfig::paper_scale())).expect("engine builds");
    let queries = aqks_eval::acmdl_queries();
    for id in ["A4", "A6", "A7"] {
        let q = queries.iter().find(|q| q.id == id).expect("workload query");
        let (_, replays) = answer_and_check(&engine, q.text, "acmdl paper-scale");
        assert!(replays > 0, "{id}: no share replayed");
    }
}

/// Shares never split a D′ memo site: on ACMDL′ at k=5 (memo warm), the
/// nodes noted `memo` are as many with sharing as in solo runs.
#[test]
fn sharing_keeps_every_memo_replay() {
    let engine = Engine::new(denormalize_acmdl(&generate_acmdl(&AcmdlConfig::small())))
        .expect("engine builds");
    let (mut with_sharing, mut solo_runs, mut replays) = (0, 0, 0);
    for q in aqks_eval::acmdl_queries() {
        engine.answer(q.text, 5).expect("warms the memo");
        let (interpretations, r) = answer_and_check(&engine, q.text, "acmdl-prime");
        replays += r;
        for a in &interpretations {
            with_sharing += noted(&a.stats, "memo");
            solo_runs += noted(&solo(&engine, a).1, "memo");
        }
    }
    assert!(solo_runs > 0, "no memo replay to compare");
    assert!(replays > 0, "no share replayed");
    assert_eq!(with_sharing, solo_runs, "nodes noted `memo` with sharing and without it");
}
