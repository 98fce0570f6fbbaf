//! Static verification of physical plans.
//!
//! The planner in `aqks-sqlgen` lowers every generated SQL statement to
//! a [`PlanNode`](aqks_sqlgen::PlanNode) tree that the executor runs
//! directly. `aqks-analyze` proves the *statement* right (AQ-P1–P5,
//! including the duplicate-inflation class of the paper's Section 4); a
//! planner bug could still execute something else. `aqks-plancheck` is
//! the translation validator that closes that gap:
//!
//! - [`props`] infers, per operator, the output columns, functional
//!   dependencies carried across joins, row-uniqueness and minimized
//!   keys, sortedness, and a monotone cardinality upper bound;
//! - [`mod@verify`] checks each operator against the planner's contract
//!   (catalog, layouts, index ranges, build side, row bound) and proves,
//!   column by column, that the plan computes the statement it was
//!   lowered from, failing with a typed [`PlanError`] on the first
//!   violated invariant;
//! - [`mod@fingerprint`] hashes a canonical, estimate-free encoding of the
//!   tree into the stable cache key the plan/result-caching roadmap
//!   item consumes;
//! - [`share`] decides which subtrees of a plan set are the same plan
//!   (structural equality, ids ignored) and elects the repeated join
//!   subtrees one request runs once;
//! - [`mutate`] seeds realistic plan corruptions for tests, which the
//!   verifier must reject with the matching diagnostic kind.
//!
//! Debug builds of the engine verify every plan before execution via
//! [`verify_in_debug`]; release builds skip in a branch (pinned at zero
//! allocations by a counting-allocator test).

#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod fingerprint;
pub mod mutate;
pub mod props;
pub mod share;
pub mod verify;

pub use fingerprint::{fingerprint, fingerprint_hex};
pub use props::{ColProp, NodeProps};
pub use share::{equal_classes, same_plan, Election};
pub use verify::{render_verified, verify, verify_in_debug, PlanError, PlanErrorKind, Verified};
