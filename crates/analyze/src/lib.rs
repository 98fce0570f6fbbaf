#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
//! # aqks-analyze
//!
//! A static semantic analyzer for the `SELECT` statements the keyword
//! engine and the SQAK baseline generate. It checks a
//! [`SelectStatement`](aqks_sqlgen::SelectStatement) against the
//! [`DatabaseSchema`](aqks_relational::DatabaseSchema), its declared
//! functional dependencies, and (optionally) the ORM graph — without
//! executing anything.
//!
//! One fixed pipeline of five lint passes with stable diagnostic codes:
//!
//! | code    | pass                  | what it proves                         |
//! |---------|-----------------------|----------------------------------------|
//! | `AQ-P1` | `name-resolution`     | every name resolves, no duplicates     |
//! | `AQ-P2` | `type-check`          | joins/aggregates/`contains` type-check |
//! | `AQ-P3` | `join-validity`       | equi-joins follow schema structure     |
//! | `AQ-P4` | `aggregate-form`      | GROUP BY covers plain select items     |
//! | `AQ-P5` | `duplicate-inflation` | no duplicate-inflated aggregates       |
//!
//! `AQ-P5` is the static counterpart of the paper's Section 4 analysis:
//! it reproduces the error class SQAK's translation falls into on
//! unnormalized schemas (merged groups when grouping by a text-matched
//! non-key, redundant rows inflating `COUNT`/`SUM`/`AVG`), using
//! attribute closures over the statement's flattened FD model. It is
//! the workspace's one duplicate analysis: `aqks-plancheck` proves that
//! each physical plan computes its analyzed statement rather than
//! re-deriving these passes over the plan.
//!
//! ```
//! use aqks_analyze::analyze;
//! use aqks_sqlgen::{ColumnRef, SelectItem, SelectStatement, TableExpr};
//! # use aqks_relational::{AttrType, DatabaseSchema, RelationSchema};
//! # let mut r = RelationSchema::new("Student");
//! # r.add_attr("Sid", AttrType::Text);
//! # r.set_primary_key(["Sid"]);
//! # let schema = DatabaseSchema { relations: vec![r] };
//! let stmt = SelectStatement {
//!     items: vec![SelectItem::Column { col: ColumnRef::new("S", "Sid"), alias: None }],
//!     from: vec![TableExpr::Relation { name: "Student".into(), alias: "S".into() }],
//!     ..Default::default()
//! };
//! assert!(analyze(&stmt, &schema).is_clean());
//! ```

pub mod analyzer;
pub mod diagnostics;
pub mod fdmodel;
mod passes;
pub mod scope;

pub use analyzer::{analyze, Analyzer};
pub use diagnostics::{Diagnostic, Report, Severity};
