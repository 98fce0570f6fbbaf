//! Smoke tests for the harness itself (the substantive shape assertions
//! live in the workspace-level `tests/table_shapes.rs`).

use crate::analysis::{analyze_workload, PlanVerdict};
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

/// The paper engine's statements carry zero error-severity findings on
/// every workload query, normalized and unnormalized alike.
#[test]
fn engine_plans_are_statically_clean() {
    let sweeps = [
        analyze_workload(&tpch_database(Scale::Small), &tpch_queries(), 3),
        analyze_workload(&acmdl_database(Scale::Small), &acmdl_queries(), 3),
        analyze_workload(&tpch_prime_database(Scale::Small), &tpch_queries(), 3),
        analyze_workload(&acmdl_prime_database(Scale::Small), &acmdl_queries(), 3),
    ];
    for rows in &sweeps {
        assert_eq!(rows.len(), 8);
        for row in rows {
            assert!(
                matches!(row.ours, PlanVerdict::Analyzed { .. }),
                "{}: engine produced nothing to analyze: {:?}",
                row.id,
                row.ours
            );
            assert_eq!(row.ours.errors(), 0, "{}: {:?}", row.id, row.ours);
        }
    }
}

/// Tentpole acceptance bar: 100% of the plans the planner produces for
/// the bundled workloads — university, TPC-H/ACMDL and their
/// unnormalized primes — pass the static plan verifier.
#[test]
fn every_planner_plan_verifies_clean_across_all_workloads() {
    let sweeps = crate::plans::run_plan_sweep(Scale::Small, 3);
    assert_eq!(sweeps.len(), 5);
    let mut total = 0;
    for sweep in &sweeps {
        assert!(
            sweep.rejections().is_empty(),
            "{}: plan verifier rejected planner output: {:?}",
            sweep.workload,
            sweep.rejections()
        );
        total += sweep.plans();
    }
    assert!(total >= 40, "only {total} plans swept");
    let md = crate::plans::render_markdown(&sweeps);
    for w in ["university", "tpch", "acmdl", "tpch-prime", "acmdl-prime"] {
        assert!(md.contains(&format!("| {w} |")), "{md}");
    }
}

/// Plan fingerprints are deterministic across re-planning (checked
/// inside the sweep) and collision-free across the TPC-H′ interpretation
/// sets: two interpretations that render differently must never share a
/// fingerprint.
#[test]
fn fingerprints_distinguish_tpch_prime_interpretations() {
    use std::collections::HashMap;
    let db = tpch_prime_database(Scale::Small);
    let engine = aqks_core::Engine::new(db.clone()).expect("engine builds");
    let mut by_fp: HashMap<u64, String> = HashMap::new();
    let mut plans = 0;
    for q in tpch_queries() {
        let Ok(generated) = engine.generate(q.text, 3) else { continue };
        for g in &generated {
            let plan = aqks_sqlgen::plan(&g.sql, &db).expect("plannable");
            plans += 1;
            let fp = aqks_plancheck::fingerprint(&plan);
            let rendered = aqks_sqlgen::render_plan(&plan);
            match by_fp.get(&fp) {
                Some(prev) => assert_eq!(
                    prev, &rendered,
                    "fingerprint {fp:#018x} collides across distinct plans"
                ),
                None => {
                    by_fp.insert(fp, rendered);
                }
            }
        }
    }
    assert!(plans >= 10, "only {plans} interpretations planned");
    assert!(by_fp.len() >= 8, "only {} distinct fingerprints", by_fp.len());
}

/// SQAK's statements over the unnormalized datasets trip the
/// duplicate-inflation pass — the static counterpart of the wrong
/// answers Tables 8 and 9 report.
#[test]
fn sqak_plans_trip_duplicate_inflation_on_unnormalized_data() {
    for (db, queries) in [
        (tpch_prime_database(Scale::Small), tpch_queries()),
        (acmdl_prime_database(Scale::Small), acmdl_queries()),
    ] {
        let rows = analyze_workload(&db, &queries, 3);
        let flagged = rows.iter().filter(|r| r.sqak.has_code("AQ-P5")).count();
        assert!(flagged >= 1, "no AQ-P5 on {}: {rows:?}", db.name);
        // And every flag is an error, not a warning.
        for r in rows.iter().filter(|r| r.sqak.has_code("AQ-P5")) {
            assert!(r.sqak.errors() >= 1, "{}: {:?}", r.id, r.sqak);
        }
    }
}
