//! End-to-end resource-governance tests through the `aqks` facade: the
//! acceptance scenario of the guard layer. A TPC-H′ (denormalized)
//! workload under starvation budgets must come back as a *structured*
//! [`Exhaustion`] report — never a panic, never a stringly error — with
//! whatever interpretations completed before the trip.

use std::time::Duration;

use aqks::core::{AnswerRequest, Budget, BudgetKind, Engine};
use aqks::datasets::{denormalize_tpch, generate_tpch, university, TpchConfig};

fn tpch_prime() -> Engine {
    Engine::new(denormalize_tpch(&generate_tpch(&TpchConfig::small()))).expect("TPC-H' builds")
}

/// The paper's T1–T8 workload on TPC-H′ under a 1-row / 1-pattern / 1 ms
/// starvation budget: every query must return `Ok` with a structured
/// exhaustion report whose `partial` flag matches the returned value.
#[test]
fn tpch_prime_workload_survives_starvation_budget() {
    let engine = tpch_prime();
    let budget = Budget::unlimited()
        .with_timeout(Duration::from_millis(1))
        .with_max_rows(1)
        .with_max_patterns(1);
    let req = AnswerRequest { k: 3, budget, trace: false };
    let mut trips = 0;
    for q in aqks_eval::tpch_queries() {
        let answered = match engine.run(q.text, &req) {
            Ok(g) => g,
            // A term the small dataset cannot match is a legitimate typed
            // error; anything else (especially Internal) is a bug.
            Err(aqks::core::CoreError::NoMatch(_)) => continue,
            Err(e) => panic!("{}: unexpected error {e}", q.id),
        };
        if let Some(ex) = answered.exhaustion {
            trips += 1;
            assert!(
                matches!(ex.kind, BudgetKind::Deadline | BudgetKind::Rows | BudgetKind::Patterns),
                "{}: {ex:?}",
                q.id
            );
            assert!(!ex.site.is_empty(), "{}: trip site recorded", q.id);
            assert_eq!(ex.partial, !answered.interpretations.is_empty(), "{}: {ex:?}", q.id);
        }
    }
    assert!(trips > 0, "the starvation budget tripped on at least one workload query");
}

/// A query worth answering under a merely *tight* (not starving) budget
/// returns its full answer and no exhaustion: budgets only bite when
/// exceeded.
#[test]
fn tpch_prime_generous_budget_is_invisible() {
    let engine = tpch_prime();
    let budget = Budget::unlimited()
        .with_timeout(Duration::from_secs(30))
        .with_max_rows(1_000_000)
        .with_max_patterns(10_000);
    let q = "COUNT order \"royal olive\"";
    let plain = engine.answer(q, 1).expect("query answers");
    let answered =
        engine.run(q, &AnswerRequest { k: 1, budget, trace: false }).expect("query answers");
    assert!(answered.exhaustion.is_none());
    assert_eq!(plain.len(), answered.interpretations.len());
    assert_eq!(plain[0].result, answered.interpretations[0].result);
}

/// The interpretation cap is a soft trip: on a multi-interpretation
/// query it returns exactly the top-k-capped prefix as partial results.
#[test]
fn interpretation_cap_yields_partial_results() {
    let engine = Engine::new(university::normalized()).unwrap();
    let budget = Budget::unlimited().with_max_interpretations(1);
    let answered = engine
        .run("Green George COUNT Code", &AnswerRequest { k: 3, budget, trace: false })
        .unwrap();
    assert_eq!(answered.interpretations.len(), 1);
    let ex = answered.exhaustion.expect("cap trips");
    assert_eq!(ex.kind, BudgetKind::Interpretations);
    assert_eq!(ex.site, "engine.translate");
    assert!(ex.partial);
    // The report renders as the one-liner the CLI prints.
    assert!(ex.to_string().ends_with("(partial results returned)"), "{ex}");
}

/// Each budget dimension trips at its own pipeline layer: rows inside
/// the executor or index, patterns inside enumeration, the deadline at
/// whichever checkpoint runs first.
#[test]
fn trip_sites_name_their_layer() {
    let engine = Engine::new(university::normalized()).unwrap();
    let trip = |q: &str, k: usize, budget: Budget| {
        let answered = engine.run(q, &AnswerRequest { k, budget, trace: false }).unwrap();
        answered.exhaustion
    };

    let ex =
        trip("Green SUM Credit", 1, Budget::unlimited().with_max_rows(1)).expect("row cap trips");
    assert_eq!(ex.kind, BudgetKind::Rows);
    assert!(ex.site.starts_with("ops.") || ex.site.starts_with("index."), "{}", ex.site);

    let ex = trip("Green George COUNT Code", 3, Budget::unlimited().with_max_patterns(1))
        .expect("pattern cap trips");
    assert_eq!(ex.kind, BudgetKind::Patterns);
    assert_eq!(ex.site, "pattern.enumerate");

    let ex = trip("Green SUM Credit", 1, Budget::unlimited().with_timeout(Duration::ZERO))
        .expect("deadline trips");
    assert_eq!(ex.kind, BudgetKind::Deadline);
    assert!(!ex.partial);
}

/// Governed calls do not disturb each other or later ungoverned calls:
/// the governor is installed per call, not per engine.
#[test]
fn governance_is_per_call() {
    let engine = Engine::new(university::normalized()).unwrap();
    let starved =
        AnswerRequest { budget: Budget::unlimited().with_max_rows(1), ..AnswerRequest::new(1) };
    assert!(engine.run("Green SUM Credit", &starved).unwrap().exhaustion.is_some());
    // Ungoverned and unlimited-governed calls run to completion.
    assert_eq!(engine.answer("Green SUM Credit", 1).unwrap().len(), 1);
    let a = engine.run("Green SUM Credit", &AnswerRequest::new(1)).unwrap();
    assert!(a.exhaustion.is_none());
    assert_eq!(a.interpretations.len(), 1);
}
