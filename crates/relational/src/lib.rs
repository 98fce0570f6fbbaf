#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
//! # aqks-relational
//!
//! The relational substrate for the `aqks` keyword-search system: an
//! in-memory relational database with typed values, declared primary and
//! foreign keys, declared functional dependencies, a term-match index, a
//! memo of predicate-free projections derived from the data, and
//! the normalization theory (attribute closures, candidate keys, 2NF/3NF
//! tests, Bernstein-style 3NF synthesis) needed to handle *unnormalized*
//! databases per Section 4 of the paper.
//!
//! The paper evaluates on a commercial RDBMS; this crate is the faithful
//! substitute: it stores relations, enforces keys, and exposes exactly the
//! metadata (schema graph inputs, FDs) the keyword engine consumes. SQL
//! execution over these tables lives in `aqks-sqlgen`.
//!
//! ## Quick tour
//!
//! ```
//! use aqks_relational::{Database, RelationSchema, AttrType, Value};
//!
//! let mut schema = RelationSchema::new("Student");
//! schema.add_attr("Sid", AttrType::Text);
//! schema.add_attr("Sname", AttrType::Text);
//! schema.add_attr("Age", AttrType::Int);
//! schema.set_primary_key(["Sid"]);
//!
//! let mut db = Database::new("uni");
//! db.add_relation(schema).unwrap();
//! db.insert("Student", vec![Value::str("s1"), Value::str("George"), Value::Int(22)]).unwrap();
//! assert_eq!(db.table("Student").unwrap().len(), 1);
//! ```

pub mod database;
pub mod discover;
pub mod error;
pub mod fd;
pub mod index;
pub mod io;
pub mod normalize;
pub mod schema;
pub mod table;
pub mod value;

pub use database::{Database, Memoized};
pub use discover::{discover_fds, DiscoveryOptions};
pub use error::{Error, Result};
pub use fd::{Fd, FdSet};
pub use index::{MatchIndex, MetaMatch, ValueMatch};
pub use io::{export_dir, import_dir, load_csv, schema_from_text, schema_to_text, table_to_csv};
pub use normalize::{DerivedRelation, NormalizedView};
pub use schema::{AttrType, Attribute, DatabaseSchema, ForeignKey, RelationSchema};
pub use table::{Row, Table};
pub use value::{contains_ci, Date, Value};
