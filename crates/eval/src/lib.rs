#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]
//! # aqks-eval
//!
//! The evaluation harness reproducing Section 6 of the paper:
//!
//! * [`workload`] — the sixteen queries of Tables 3 and 4 (T1–T8 on
//!   TPC-H, A1–A8 on ACMDL) with their search intentions;
//! * [`tables`] — runs both engines and renders the answer-comparison
//!   rows of Tables 5, 6 (normalized) and 8, 9 (unnormalized);
//! * [`fig11`] — times SQL *generation* (not execution) for both engines,
//!   reproducing Figure 11's two series;
//! * [`analysis`] — runs the `aqks-analyze` static analyzer over every
//!   statement both engines generate for the workloads: the paper engine
//!   must come back with zero error findings, SQAK trips `AQ-P5` where
//!   Section 4 predicts duplicate-inflated answers;
//! * [`plans`] — runs the `aqks-plancheck` physical-plan verifier over
//!   every plan the engine produces for the workloads (100% must verify
//!   clean) and checks the plan-fingerprint determinism/injectivity
//!   contract that plan caching will rely on;
//! * `faults` (`failpoints` builds only) — arms every fault-injection
//!   site and checks that each fault surfaces typed and the engine
//!   recovers.
//!
//! Executor, server and metrics-overhead timings are not measured here:
//! the benchmark in `perfbench/` measures them end to end, layer by
//! layer.
//!
//! The `repro` binary drives everything:
//!
//! ```text
//! repro table5|table6|table8|table9|fig11|plans|all [--paper-scale] [--reps N]
//! repro faults       # fault-injection sweep; needs --features failpoints
//! ```
//!
//! `--paper-scale` switches from the fast test-sized datasets to
//! generators with the paper's cardinalities (1000 suppliers, 61 Smiths,
//! 36 SIGMOD proceedings, …).

pub mod analysis;
#[cfg(feature = "failpoints")]
pub mod faults;
pub mod fig11;
pub mod plans;
pub mod tables;
#[cfg(test)]
mod tests;
pub mod timing;
pub mod workload;

pub use analysis::{analyze_workload, run_analysis, AnalysisRow, PlanVerdict};
#[cfg(feature = "failpoints")]
pub use faults::{run_fault_sweep, FaultOutcome};
pub use fig11::{run_fig11, TimingRow};
pub use plans::{run_plan_sweep, verify_workload_plans, PlanCheckRow, PlanSweep};
pub use tables::{run_table5, run_table6, run_table8, run_table9, ComparisonRow, EngineOutcome};
pub use timing::TimingSummary;
pub use workload::{acmdl_queries, tpch_queries, EvalQuery, Scale};
