//! Smoke tests for the harness itself (the substantive shape assertions
//! live in the workspace-level `tests/table_shapes.rs`).

use crate::tables::{render_markdown, run_table5};
use crate::workload::{
    acmdl_database, acmdl_prime_database, acmdl_queries, tpch_database, tpch_prime_database,
    tpch_queries, Scale,
};
use crate::{fig11, run_fig11};

#[test]
fn table5_renders_all_rows() {
    let rows = run_table5(Scale::Small);
    assert_eq!(rows.len(), 8);
    let md = render_markdown("Table 5", &rows);
    for id in ["T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8"] {
        assert!(md.contains(&format!("| {id} |")), "{md}");
    }
    assert!(md.contains("N.A."), "T7/T8 unsupported rows render: {md}");
}

#[test]
fn fig11_produces_positive_ordered_timings() {
    let (tpch, acmdl) = run_fig11(Scale::Small, 3);
    assert_eq!((tpch.len(), acmdl.len()), (8, 8));
    for r in tpch.iter().chain(&acmdl) {
        assert!(r.ours.median_us > 0.0, "{}", r.id);
        assert!(r.ours.min_us <= r.ours.median_us, "{}", r.id);
        assert!(r.ours.median_us <= r.ours.p95_us, "{}", r.id);
        assert!(r.sqak.median_us >= 0.0, "{}", r.id);
    }
    let md = fig11::render_markdown("Fig 11", &tpch);
    assert!(md.contains("| T1 |"), "{md}");
    assert!(md.contains("min/med/p95"), "{md}");
}

/// Satellite of the observability PR: every pipeline phase shows up
/// exactly once in the trace of each answerable workload query, across
/// all four evaluation databases (the Tables 5/6/8/9 sweep). Guards
/// against phases silently losing their spans as the pipeline evolves.
#[test]
fn every_answer_phase_traced_once_per_workload_query() {
    use aqks_core::{AnswerRequest, Engine};
    let sweeps = [
        (tpch_database(Scale::Small), tpch_queries()),
        (acmdl_database(Scale::Small), acmdl_queries()),
        (tpch_prime_database(Scale::Small), tpch_queries()),
        (acmdl_prime_database(Scale::Small), acmdl_queries()),
    ];
    for (db, queries) in sweeps {
        let name = db.name.clone();
        let engine = Engine::new(db).expect("engine builds");
        let mut traced = 0;
        for q in queries {
            // T7/T8-style unsupported queries error out before tracing
            // matters; the sweep covers every query that answers.
            let req = AnswerRequest { trace: true, ..AnswerRequest::new(1) };
            let Ok(answered) = engine.run(q.text, &req) else { continue };
            let (answers, trace) = (answered.interpretations, answered.trace.expect("traced"));
            traced += 1;
            assert_eq!(trace.roots.len(), 1, "{name}/{}", q.id);
            assert_eq!(trace.roots[0].name, "answer", "{name}/{}", q.id);
            for phase in ["parse", "match", "pattern", "annotate", "rank", "translate", "analyze"] {
                assert_eq!(
                    trace.span_count(phase),
                    1,
                    "{name}/{}: phase `{phase}` not traced exactly once",
                    q.id
                );
            }
            // One plan and one exec span per executed interpretation.
            assert_eq!(trace.span_count("plan"), answers.len(), "{name}/{}", q.id);
            assert_eq!(trace.span_count("exec"), answers.len(), "{name}/{}", q.id);
        }
        assert!(traced >= 6, "{name}: only {traced} queries answered");
    }
}

#[test]
fn outcome_cell_truncates_long_answer_lists() {
    use crate::tables::EngineOutcome;
    let o = EngineOutcome::Answers {
        count: 10,
        values: (0..10).map(|i| i.to_string()).collect(),
        sql: String::new(),
    };
    let cell = o.cell();
    assert!(cell.starts_with("10 answer(s):"), "{cell}");
    assert!(cell.ends_with(", ..."), "{cell}");
    let u = EngineOutcome::Unsupported("self join".into());
    assert_eq!(u.cell(), "N.A. (self join)");
}
