#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]
//! # aqks-eval
//!
//! The evaluation harness reproducing Section 6 of the paper:
//!
//! * [`workload`] — the sixteen queries of Tables 3 and 4 (T1–T8 on
//!   TPC-H, A1–A8 on ACMDL) with their search intentions, the paper's
//!   running examples (U1–U5 on the university database), and the
//!   datasets at two scales;
//! * [`tables`] — runs both engines and renders the answer-comparison
//!   rows of Tables 5, 6 (normalized) and 8, 9 (unnormalized);
//! * [`fig11`] — times SQL *generation* (not execution) for both engines,
//!   reproducing Figure 11's two series.
//!
//! The static-analysis, plan-verification and fault-injection sweeps
//! over these workloads are workspace tests (`tests/analysis.rs`,
//! `tests/plans.rs`, `tests/governance.rs`), and `aqks check
//! --sqak|--plans|--equiv` runs the first two on demand. Executor,
//! server and metrics-overhead timings are measured by the benchmark in
//! `perfbench/`.
//!
//! The `repro` binary drives everything:
//!
//! ```text
//! repro table5|table6|table8|table9|fig11|all [--paper-scale] [--reps N]
//! ```
//!
//! `--paper-scale` switches from the fast test-sized datasets to
//! generators with the paper's cardinalities (1000 suppliers, 61 Smiths,
//! 36 SIGMOD proceedings, …).

pub mod fig11;
pub mod tables;
#[cfg(test)]
mod tests;
pub mod timing;
pub mod workload;

pub use fig11::{run_fig11, TimingRow};
pub use tables::{run_table5, run_table6, run_table8, run_table9, ComparisonRow, EngineOutcome};
pub use timing::TimingSummary;
pub use workload::{acmdl_queries, tpch_queries, university_queries, EvalQuery, Scale};
