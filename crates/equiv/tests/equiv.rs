//! End-to-end shared execution: the shared set built from the engine's
//! own plans returns exactly the per-plan results while moving fewer
//! rows.

use aqks_core::Engine;
use aqks_datasets::university;
use aqks_equiv::{analyze, run_shared, shared_set};
use aqks_sqlgen::run_plan;

const QUERIES: &[&str] = &[
    "Green SUM Credit",
    "Green George COUNT Code",
    "Java SUM Price",
    "Engineering COUNT Department",
    "AVG COUNT Lecturer GROUPBY Course",
];

#[test]
fn shared_execution_matches_per_plan_results_and_saves_rows() {
    let db = university::normalized();
    let engine = Engine::new(db.clone()).expect("engine builds");
    let (mut baseline_rows, mut shared_rows, mut shares) = (0u64, 0u64, 0usize);
    for q in QUERIES {
        let plans: Vec<_> =
            engine.interpretation_plans(q, 3).expect("plans").into_iter().map(|(_, p)| p).collect();
        let Ok(analysis) = analyze(&plans, &db);
        let set = shared_set(&analysis);
        assert_eq!(set.plans.len(), analysis.classes.len());
        shares += set.shares.len();
        let run = run_shared(&set, &db).expect("shared set executes");
        // Every class member's own execution matches the shared run of
        // its representative.
        for (ci, class) in analysis.classes.iter().enumerate() {
            for &m in &class.members {
                let (t, stats) = run_plan(&plans[m], &db).expect("member executes");
                baseline_rows += stats.rows_flowed();
                assert_eq!(
                    t.sorted().rows,
                    run.tables[ci].clone().sorted().rows,
                    "`{q}`: shared execution changed results for class {ci} member {m}"
                );
            }
        }
        shared_rows +=
            run.plan_stats.iter().chain(&run.share_stats).map(|s| s.rows_flowed()).sum::<u64>();
    }
    assert!(shares > 0, "no query shared a subtree");
    assert!(
        shared_rows < baseline_rows,
        "shared execution moved no fewer rows ({shared_rows} vs {baseline_rows})"
    );
}
