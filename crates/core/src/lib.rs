#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
//! # aqks-core
//!
//! The paper's contribution: a *semantic* engine answering keyword
//! queries involving aggregates and GROUPBY over relational databases
//! (Zeng, Lee, Ling — EDBT 2016).
//!
//! Pipeline (Algorithm 2):
//!
//! 1. [`query`] — parse the extended keyword language (Definition 1);
//! 2. [`matching`] — find each basic term's relation/attribute/value
//!    matches (over the normalized view `D'` when the database is
//!    unnormalized);
//! 3. [`pattern`] — generate annotated query patterns: minimal connected
//!    instantiations of the ORM schema graph, one per interpretation;
//! 4. [`annotate`] — fork per-object variants (`GROUPBY(id)`) for
//!    conditions matching several objects;
//! 5. [`rank`] — rank interpretations;
//! 6. [`mod@translate`] — emit SQL with the two ORA-semantics rules
//!    (relationship FK-projection dedup, object-id grouping);
//! 7. [`unnormalized`] — map the SQL back onto unnormalized relations and
//!    simplify it (rewrite Rules 1-3);
//! 8. [`engine`] — tie it together and execute.
//!
//! ```
//! use aqks_core::Engine;
//! use aqks_datasets::university;
//!
//! let engine = Engine::new(university::normalized()).unwrap();
//! let answers = engine.answer("Green SUM Credit", 1).unwrap();
//! // One row per student named Green — 5.0 and 8.0, not SQAK's 13.
//! assert_eq!(answers[0].result.len(), 2);
//! ```

pub mod annotate;
pub mod engine;
pub mod error;
pub mod matching;
pub mod pattern;
pub mod query;
pub mod rank;
pub mod translate;
pub mod unnormalized;

pub use aqks_guard::{Budget, BudgetKind, Exhaustion, Tripped};
pub use engine::{
    AnswerRequest, Answered, Engine, EngineOptions, Explanation, GeneratedSql, Interpretation,
    PatternReport, TermReport,
};
pub use error::CoreError;
pub use matching::{Matcher, TermMatch, TermRole};
pub use pattern::{NodeAnnotation, PatternNode, QueryPattern};
pub use query::{KeywordQuery, Operator, Term};
pub use rank::{rank_key, rank_patterns, RankKey};
pub use translate::{translate, TranslateOptions};
pub use unnormalized::{rewrite, RewriteOptions};
