#![warn(missing_docs)]
//! # aqks-perfbench
//!
//! One seeded benchmark for the `aqks` keyword-query engine: four
//! workloads ([`workload`]), each measured end to end with tracing off,
//! and a separate traced run ([`trace`]) that splits the cost by layer —
//! set-up, the paper's query phases, planning, execution per operator,
//! the service, and the SQAK baseline of Figure 11.
//!
//! The workload seed drives the data generators and the request order;
//! the program under test only ever sees the generated inputs.

pub mod data;
pub mod mix;
pub mod openloop;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
