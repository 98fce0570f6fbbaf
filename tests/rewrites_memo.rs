//! Answers do not depend on the Section 4.1 rewrites or on the
//! projection memo (a metamorphic test on the paper's unnormalized
//! workloads: T1–T8 on TPC-H′, A1–A8 on ACMDL′ and Figure 8's
//! `Green George COUNT Code`, small configs).
//!
//! Rule 2 pushes `contains` into a view relation's `SELECT DISTINCT`,
//! and the executor answers such a relation by filtering the memoized
//! predicate-free projection once the memo holds it. So every
//! combination of rewrites on or off, a cold engine (the first call) or
//! a warm one (the third call), and k=1 or k=5 must give the same
//! answers: each interpretation at k=5 alike across rewrites and memo
//! state, and k=1 the top interpretation of k=5.

use aqks::core::{AnswerRequest, Engine, EngineOptions};
use aqks::datasets::{
    denormalize_acmdl, denormalize_tpch, generate_acmdl, generate_tpch, university, AcmdlConfig,
    TpchConfig,
};
use aqks::relational::{Database, Row, Value};

/// Each interpretation's rows, sorted, in rank order.
type Answers = Vec<Vec<Row>>;

/// The first and the third answer to `query` at top-`k` on one fresh
/// engine over `db`, with or without the rewrites.
fn cold_and_warm(db: &Database, query: &str, k: usize, rewrites: bool) -> (Answers, Answers) {
    let options = EngineOptions { skip_rewrites: !rewrites, ..EngineOptions::default() };
    let engine = Engine::with_options(db.clone(), options).expect("engine builds");
    let answer = || -> Answers {
        let answered = engine.run(query, &AnswerRequest::new(k)).unwrap_or_else(|e| panic!("{e}"));
        assert!(answered.exhaustion.is_none(), "`{query}` ran within no budget");
        answered
            .interpretations
            .into_iter()
            .map(|a| {
                let mut rows = a.result.rows;
                rows.sort();
                rows
            })
            .collect()
    };
    let cold = answer();
    answer();
    (cold, answer())
}

/// Numbers equal to a relative 1e-9 (a float sum may add in another
/// order); any other values equal under `Value` equality.
fn same_value(a: &Value, b: &Value) -> bool {
    let num = |v: &Value| match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    };
    match (a, b, num(a), num(b)) {
        (Value::Float(_), _, Some(x), Some(y)) | (_, Value::Float(_), Some(x), Some(y)) => {
            x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

fn same_rows(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(r, s)| r.len() == s.len() && r.iter().zip(s).all(|(x, y)| same_value(x, y)))
}

/// Every combination answers `query` over `db` as the cold k=5 run with
/// the rewrites does, interpretation by interpretation.
fn check(label: &str, db: &Database, query: &str) {
    let mut reference = None;
    for rewrites in [true, false] {
        let (cold5, warm5) = cold_and_warm(db, query, 5, rewrites);
        let reference: &Answers = reference.get_or_insert_with(|| cold5.clone());
        assert!(!reference.is_empty(), "{label} `{query}` has interpretations");
        let (cold1, warm1) = cold_and_warm(db, query, 1, rewrites);
        let runs = [("k=5 cold", &cold5), ("k=5 warm", &warm5)];
        for (run, answers) in runs {
            assert_eq!(
                answers.len(),
                reference.len(),
                "{label} `{query}` rewrites={rewrites} {run}"
            );
            for (i, (got, want)) in answers.iter().zip(reference).enumerate() {
                assert!(
                    same_rows(got, want),
                    "{label} `{query}` rewrites={rewrites} {run}, interpretation #{}:\n\
                     {got:?}\nvs\n{want:?}",
                    i + 1
                );
            }
        }
        for (run, answers) in [("k=1 cold", &cold1), ("k=1 warm", &warm1)] {
            assert_eq!(answers.len(), 1, "{label} `{query}` rewrites={rewrites} {run}");
            assert!(
                same_rows(&answers[0], &reference[0]),
                "{label} `{query}` rewrites={rewrites} {run} differs from the top of k=5:\n\
                 {:?}\nvs\n{:?}",
                answers[0],
                reference[0]
            );
        }
    }
}

#[test]
fn tpch_prime_answers_do_not_depend_on_rewrites_or_memo() {
    let db = denormalize_tpch(&generate_tpch(&TpchConfig::small()));
    for q in aqks_eval::tpch_queries() {
        check(q.id, &db, q.text);
    }
}

#[test]
fn acmdl_prime_answers_do_not_depend_on_rewrites_or_memo() {
    let db = denormalize_acmdl(&generate_acmdl(&AcmdlConfig::small()));
    for q in aqks_eval::acmdl_queries() {
        check(q.id, &db, q.text);
    }
}

#[test]
fn figure8_answers_do_not_depend_on_rewrites_or_memo() {
    check("Fig 8", &university::enrolment_fig8(), "Green George COUNT Code");
}
