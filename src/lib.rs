#![warn(missing_docs)]
//! # aqks — Aggregate Keyword Search over Relational Databases
//!
//! A from-scratch Rust reproduction of *"Answering Keyword Queries
//! involving Aggregates and GROUPBY on Relational Databases"* (Zeng, Lee,
//! Ling — EDBT 2016).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`relational`] — in-memory relational engine, FD theory, 3NF synthesis
//! * [`sqlgen`] — SQL AST, renderer, executor
//! * [`orm`] — ORM schema graph (object/relationship/mixed/component)
//! * [`core`] — the paper's semantic keyword-search engine
//! * [`sqak`] — the SQAK baseline the paper compares against
//! * [`datasets`] — university / TPC-H / ACM-DL datasets and denormalizers
//! * [`analyze`] — static semantic analyzer for generated SQL plans
//! * [`plancheck`] — static verifier for physical plans (properties,
//!   invariants, fingerprints)
//! * [`equiv`] — the engine's shared subtrees, rendered and replayed
//!   outside the engine
//! * [`guard`] — resource budgets, cooperative cancellation, failpoints
//! * [`obs`] — pipeline tracing, always-on metrics + flight recorder,
//!   Prometheus/JSON exposition
//!
//! ## Quickstart
//!
//! ```
//! use aqks::datasets::university;
//! use aqks::core::Engine;
//!
//! let db = university::normalized();
//! let engine = Engine::new(db).unwrap();
//! let answers = engine.answer("Green SUM Credit", 1).unwrap();
//! assert!(!answers.is_empty());
//! println!("{}", answers[0].sql_text);
//! ```
//!
//! To keep an adversarial query inside a box, answer it through
//! [`core::Engine::run`] with a [`guard::Budget`] in its
//! [`core::AnswerRequest`]: exhaustion degrades gracefully into the
//! completed interpretations plus a structured report instead of an
//! error.
//!
//! ```
//! use aqks::core::{AnswerRequest, Budget, Engine};
//! use aqks::datasets::university;
//! use std::time::Duration;
//!
//! let engine = Engine::new(university::normalized()).unwrap();
//! let budget = Budget::unlimited()
//!     .with_timeout(Duration::from_millis(250))
//!     .with_max_rows(100_000);
//! let req = AnswerRequest { k: 1, budget, trace: false };
//! let answered = engine.run("Green SUM Credit", &req).unwrap();
//! match answered.exhaustion {
//!     None => println!("{} answer(s) within budget", answered.interpretations.len()),
//!     Some(ex) => println!("stopped early: {ex}"),
//! }
//! ```

pub use aqks_analyze as analyze;
pub use aqks_core as core;
pub use aqks_datasets as datasets;
pub use aqks_equiv as equiv;
pub use aqks_guard as guard;
pub use aqks_obs as obs;
pub use aqks_orm as orm;
pub use aqks_plancheck as plancheck;
pub use aqks_relational as relational;
pub use aqks_sqak as sqak;
pub use aqks_sqlgen as sqlgen;
