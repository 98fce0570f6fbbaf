//! Figure 11: time to *generate* SQL statements (not execute them), per
//! query, ours vs SQAK.
//!
//! The paper reports milliseconds on a 3.4 GHz JVM; absolute numbers
//! differ here, but the shape — both engines within the same order of
//! magnitude, the semantic engine consistently a bit slower because it
//! enumerates interpretations, disambiguates, and detects duplicates —
//! is the claim under test. The benchmark's `gen` workload (`perfbench/`)
//! measures the same work at paper scale with percentiles and per-phase
//! attribution; this module produces the quick paper-style series for
//! EXPERIMENTS.md.
//!
//! One engine (and one SQAK instance) is built per query set and warmed
//! on the *whole* set before any timing starts, so no rep pays
//! first-touch costs; each query then reports min/median/p95 over the
//! repetitions rather than a bare mean.

use aqks_core::Engine;
use aqks_relational::Database;
use aqks_sqak::Sqak;

use crate::timing::{measure, TimingSummary};
use crate::workload::{acmdl_queries, tpch_queries, EvalQuery, Scale};

/// One timing row of Figure 11.
#[derive(Debug, Clone)]
pub struct TimingRow {
    /// Query id.
    pub id: &'static str,
    /// SQL-generation time of the semantic engine.
    pub ours: TimingSummary,
    /// SQL-generation time of SQAK.
    pub sqak: TimingSummary,
}

fn time_queries(db: Database, queries: Vec<EvalQuery>, reps: usize) -> Vec<TimingRow> {
    let engine = Engine::new(db.clone()).expect("engine builds");
    let sqak = Sqak::new(db);
    // Warm both engines on the full query set up front (caches, the
    // allocator, branch predictors) so the first timed query of the set
    // is not penalized relative to the rest.
    for q in &queries {
        let _ = engine.generate(q.text, 1);
        let _ = sqak.generate(q.text);
    }
    queries
        .into_iter()
        .map(|q| {
            let ours = measure(
                || {
                    let _ = std::hint::black_box(engine.generate(q.text, 1));
                },
                reps,
            );
            let sqak_t = measure(
                || {
                    let _ = std::hint::black_box(sqak.generate(q.text));
                },
                reps,
            );
            TimingRow { id: q.id, ours, sqak: sqak_t }
        })
        .collect()
}

/// Runs both Figure 11 series: (a) TPCH T1–T8, (b) ACMDL A1–A8.
pub fn run_fig11(scale: Scale, reps: usize) -> (Vec<TimingRow>, Vec<TimingRow>) {
    let tpch = time_queries(crate::workload::tpch_database(scale), tpch_queries(), reps);
    let acmdl = time_queries(crate::workload::acmdl_database(scale), acmdl_queries(), reps);
    (tpch, acmdl)
}

/// Renders one series as markdown.
pub fn render_markdown(title: &str, rows: &[TimingRow]) -> String {
    let mut s = format!("## {title}\n\n");
    s.push_str("| # | Proposed min/med/p95 (µs) | SQAK min/med/p95 (µs) | median ratio |\n");
    s.push_str("|---|---------------------------|-----------------------|--------------|\n");
    for r in rows {
        let ratio =
            if r.sqak.median_us > 0.0 { r.ours.median_us / r.sqak.median_us } else { f64::NAN };
        s.push_str(&format!(
            "| {} | {:.1} / {:.1} / {:.1} | {:.1} / {:.1} / {:.1} | {:.2}x |\n",
            r.id,
            r.ours.min_us,
            r.ours.median_us,
            r.ours.p95_us,
            r.sqak.min_us,
            r.sqak.median_us,
            r.sqak.p95_us,
            ratio
        ));
    }
    s
}
