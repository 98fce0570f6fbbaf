//! Plan-verification sweep over the evaluation workloads.
//!
//! Where [`crate::analysis`] checks the *SQL* both engines generate,
//! this sweep checks the *physical plans* the engine actually executes:
//! every interpretation of every workload query — across TPC-H, ACMDL,
//! their unnormalized primes, and the paper's university example — is
//! lowered to a `PlanNode` tree and run through `aqks-plancheck`. The
//! acceptance bar is 100%: a single rejection means the planner emitted
//! a plan whose execution could silently disagree with its statement.
//!
//! The sweep also exercises the fingerprint contract the plan-caching
//! roadmap item depends on: fingerprints must be identical across two
//! `plan()` calls for the same statement (determinism) and must not
//! collide across structurally different plans of a workload
//! (injectivity up to cardinality estimates).

use aqks_core::Engine;
use aqks_datasets::university;
use aqks_relational::Database;

use crate::workload::{
    acmdl_database, acmdl_prime_database, acmdl_queries, tpch_database, tpch_prime_database,
    tpch_queries, EvalQuery, Scale,
};

/// Outcome of verifying every interpretation of one workload query.
#[derive(Debug, Clone)]
pub struct PlanCheckRow {
    /// Workload query id (T1…T8, A1…A8, U1…).
    pub id: String,
    /// Interpretations planned and verified.
    pub plans: usize,
    /// Rendered verifier rejections (empty on a clean row).
    pub rejections: Vec<String>,
    /// Normalized fingerprint of each interpretation's plan.
    pub fingerprints: Vec<u64>,
}

impl PlanCheckRow {
    /// True when every plan of this query verified clean.
    pub fn is_clean(&self) -> bool {
        self.rejections.is_empty()
    }
}

/// Verifies every plan the engine produces for `queries` over `db`.
///
/// Each statement is planned twice to assert fingerprint determinism;
/// a nondeterministic fingerprint is reported as a rejection (it would
/// silently disable plan caching).
pub fn verify_workload_plans(db: &Database, queries: &[EvalQuery], k: usize) -> Vec<PlanCheckRow> {
    let engine = Engine::new(db.clone()).expect("engine construction");
    queries
        .iter()
        .map(|q| {
            let mut row = PlanCheckRow {
                id: q.id.to_string(),
                plans: 0,
                rejections: Vec::new(),
                fingerprints: Vec::new(),
            };
            let generated = match engine.generate(q.text, k) {
                Ok(g) => g,
                Err(e) => {
                    row.rejections.push(format!("{}: generate failed: {e}", q.id));
                    return row;
                }
            };
            for g in &generated {
                let plan = match aqks_sqlgen::plan(&g.sql, db) {
                    Ok(p) => p,
                    Err(e) => {
                        row.rejections.push(format!("{}: plan failed: {e}", q.id));
                        continue;
                    }
                };
                row.plans += 1;
                if let Err(e) = aqks_plancheck::verify(&plan, db, &g.sql) {
                    row.rejections.push(format!("{}: {e}", q.id));
                }
                let fp = aqks_plancheck::fingerprint(&plan);
                let replanned = aqks_sqlgen::plan(&g.sql, db).expect("replan succeeds");
                if aqks_plancheck::fingerprint(&replanned) != fp {
                    row.rejections.push(format!("{}: nondeterministic fingerprint", q.id));
                }
                row.fingerprints.push(fp);
            }
            row
        })
        .collect()
}

/// The university workload: the paper's running examples (Sections 1-3)
/// as keyword queries.
pub fn university_queries() -> Vec<EvalQuery> {
    vec![
        EvalQuery { id: "U1", text: "Green SUM Credit", description: "Example 1" },
        EvalQuery { id: "U2", text: "Green George COUNT Code", description: "Example 2" },
        EvalQuery { id: "U3", text: "Java SUM Price", description: "textbook price total" },
        EvalQuery { id: "U4", text: "Engineering COUNT Department", description: "faculty size" },
        EvalQuery {
            id: "U5",
            text: "AVG COUNT Lecturer GROUPBY Course",
            description: "nested aggregate",
        },
    ]
}

/// One workload's sweep results.
#[derive(Debug, Clone)]
pub struct PlanSweep {
    /// Workload name (`university`, `tpch`, `acmdl`, `tpch-prime`, …).
    pub workload: &'static str,
    /// Per-query outcomes.
    pub rows: Vec<PlanCheckRow>,
}

impl PlanSweep {
    /// Total plans verified in this workload.
    pub fn plans(&self) -> usize {
        self.rows.iter().map(|r| r.plans).sum()
    }

    /// All rejection messages in this workload.
    pub fn rejections(&self) -> Vec<&str> {
        self.rows.iter().flat_map(|r| r.rejections.iter().map(String::as_str)).collect()
    }
}

/// Runs the plan-verification sweep over all bundled workloads:
/// university plus TPC-H/ACMDL in their normalized and unnormalized
/// (prime) forms.
pub fn run_plan_sweep(scale: Scale, k: usize) -> Vec<PlanSweep> {
    vec![
        PlanSweep {
            workload: "university",
            rows: verify_workload_plans(&university::normalized(), &university_queries(), k),
        },
        PlanSweep {
            workload: "tpch",
            rows: verify_workload_plans(&tpch_database(scale), &tpch_queries(), k),
        },
        PlanSweep {
            workload: "acmdl",
            rows: verify_workload_plans(&acmdl_database(scale), &acmdl_queries(), k),
        },
        PlanSweep {
            workload: "tpch-prime",
            rows: verify_workload_plans(&tpch_prime_database(scale), &tpch_queries(), k),
        },
        PlanSweep {
            workload: "acmdl-prime",
            rows: verify_workload_plans(&acmdl_prime_database(scale), &acmdl_queries(), k),
        },
    ]
}

/// Renders the sweep as a markdown table.
pub fn render_markdown(sweeps: &[PlanSweep]) -> String {
    let mut out = String::from("## Plan verification sweep\n\n");
    out.push_str("| workload | queries | plans | rejected |\n");
    out.push_str("|---|---:|---:|---:|\n");
    for s in sweeps {
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            s.workload,
            s.rows.len(),
            s.plans(),
            s.rejections().len()
        ));
    }
    out
}
