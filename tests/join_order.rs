//! Join order on paper-scale normalized ACMDL: the planner starts each
//! join at the keyword-matched (`contains`-filtered) relation and walks
//! outward along its keys, so hash joins emit few rows.
//!
//! The ceilings below are the totals this planner produces. Joining in
//! FROM order instead, every interpretation first built `Paper ⋈ Write`
//! (18,835 rows) or `Paper ⋈ Proceeding` (7,657 rows) and only then
//! joined the 8–36-row `contains` scan; the summed HashJoin output rows
//! at k=5 were then 90,946 (A4), 37,702 (A5), 33,440 (A6) and 78,268
//! (A7).

use aqks::core::{AnswerRequest, Engine};
use aqks::datasets::{generate_acmdl, AcmdlConfig};
use aqks::sqlgen::{plan, PlanOp};
use aqks_eval::acmdl_queries;

/// (query id, ceiling on HashJoin `rows_out` summed over the top five
/// interpretations).
const CEILINGS: [(&str, u64); 4] = [("A4", 730), ("A5", 64), ("A6", 2_844), ("A7", 3_660)];

#[test]
fn keyword_matched_relation_seeds_the_join_on_paper_scale_acmdl() {
    let db = generate_acmdl(&AcmdlConfig::paper_scale());
    let engine = Engine::new(db.clone()).expect("engine builds");
    let queries = acmdl_queries();
    for (id, ceiling) in CEILINGS {
        let q = queries.iter().find(|q| q.id == id).expect("workload query");
        let answered = engine.run(q.text, &AnswerRequest::new(5)).expect("answers");
        assert!(!answered.interpretations.is_empty(), "{id} has interpretations");
        let mut rows = 0u64;
        for a in &answered.interpretations {
            let p = plan(&a.sql, &db).expect("plans");
            p.visit(&mut |n| {
                if matches!(n.op, PlanOp::HashJoin { .. }) {
                    rows += a.stats.ops[n.id].rows_out;
                }
            });
        }
        assert!(rows <= ceiling, "{id}: HashJoin rows_out {rows} above {ceiling}");
    }
}
