//! A database: a set of named tables plus whole-database integrity checks.

use std::any::Any;
use std::collections::HashSet;
use std::sync::{Arc, PoisonError, RwLock};

use crate::error::{Error, Result};
use crate::schema::{DatabaseSchema, RelationSchema};
use crate::table::{Row, Table};
use crate::value::Value;

/// A value derived from a database's contents, type-erased so that a
/// layer above this crate (the executor's column batches) can keep it.
pub type Memoized = Arc<dyn Any + Send + Sync>;

/// An in-memory relational database.
///
/// It also carries a memo of *projections*: values a caller derived
/// from one relation projected onto some of its columns, with no
/// predicate, such as the executor's `SELECT DISTINCT <cols> FROM R`
/// relations of the normalized view D′. They depend only on the stored
/// data, so every `&mut self` method clears the memo, a clone starts
/// with an empty one, and `Debug` leaves it out. Its size is capped at
/// [`Database::total_cells`].
pub struct Database {
    /// Human-readable database name (used in logs and dumps).
    pub name: String,
    tables: Vec<Table>,
    memo: RwLock<Memo>,
}

/// The projection memo: entries keyed by `(table index, columns)`, and
/// the cells (rows × columns) they hold.
#[derive(Default)]
struct Memo {
    entries: Vec<(usize, Vec<usize>, Memoized)>,
    cells: u64,
}

impl Clone for Database {
    fn clone(&self) -> Self {
        Database { name: self.name.clone(), tables: self.tables.clone(), memo: RwLock::default() }
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("name", &self.name)
            .field("tables", &self.tables)
            .finish_non_exhaustive()
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new(name: impl Into<String>) -> Self {
        Database { name: name.into(), tables: Vec::new(), memo: RwLock::default() }
    }

    /// Adds a relation. The schema is validated in isolation here;
    /// cross-relation FK targets are validated by [`Database::validate`]
    /// once all relations are present.
    pub fn add_relation(&mut self, schema: RelationSchema) -> Result<()> {
        self.forget();
        schema.validate()?;
        if self.table(&schema.name).is_some() {
            return Err(Error::DuplicateRelation(schema.name));
        }
        self.tables.push(Table::new(schema));
        Ok(())
    }

    /// The table for `relation` (case-insensitive), if any.
    pub fn table(&self, relation: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.schema.is_named(relation))
    }

    fn table_mut(&mut self, relation: &str) -> Option<&mut Table> {
        self.tables.iter_mut().find(|t| t.schema.is_named(relation))
    }

    /// All tables in declaration order.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// The database schema (cloned view over all relations).
    pub fn schema(&self) -> DatabaseSchema {
        DatabaseSchema { relations: self.tables.iter().map(|t| t.schema.clone()).collect() }
    }

    /// Inserts one tuple into `relation`.
    pub fn insert(&mut self, relation: &str, row: Row) -> Result<()> {
        self.forget();
        self.table_mut(relation)
            .ok_or_else(|| Error::UnknownRelation(relation.to_string()))?
            .insert(row)
    }

    /// Inserts many tuples into `relation`.
    pub fn insert_all<I: IntoIterator<Item = Row>>(
        &mut self,
        relation: &str,
        rows: I,
    ) -> Result<()> {
        for row in rows {
            self.insert(relation, row)?;
        }
        Ok(())
    }

    /// Validates schema consistency and referential integrity of the data:
    /// every non-NULL foreign-key value must have a referenced tuple.
    pub fn validate(&self) -> Result<()> {
        self.schema().validate()?;
        for t in &self.tables {
            for fk in &t.schema.foreign_keys {
                let target = self
                    .table(&fk.ref_relation)
                    .ok_or_else(|| Error::UnknownRelation(fk.ref_relation.clone()))?;
                let ref_idx: Vec<usize> = fk
                    .ref_attrs
                    .iter()
                    .map(|a| target.schema.attr_index(a).expect("validated"))
                    .collect();
                let mut keys: HashSet<Vec<&Value>> = HashSet::with_capacity(target.len());
                for row in target.rows() {
                    keys.insert(ref_idx.iter().map(|&i| &row[i]).collect());
                }
                let src_idx: Vec<usize> =
                    fk.attrs.iter().map(|a| t.schema.attr_index(a).expect("validated")).collect();
                for row in t.rows() {
                    let key: Vec<&Value> = src_idx.iter().map(|&i| &row[i]).collect();
                    if key.iter().any(|v| v.is_null()) {
                        continue;
                    }
                    if !keys.contains(&key) {
                        return Err(Error::ForeignKeyViolation {
                            relation: t.schema.name.clone(),
                            fk: format!(
                                "({}) -> {}({})",
                                fk.attrs.join(", "),
                                fk.ref_relation,
                                fk.ref_attrs.join(", ")
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Total tuple count across all relations.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(Table::len).sum()
    }

    /// Runs FD discovery ([`crate::discover`]) on every relation and
    /// declares each discovered dependency that the relation's current FD
    /// set does not already imply. Returns the number of FDs added.
    ///
    /// Discovered FDs are *instance-level*: they hold on the stored data
    /// and therefore keep the normalized view lossless for that data, but
    /// they may be accidental (see `discover::tests`). Intended for
    /// unnormalized databases whose schema declares no FDs.
    pub fn discover_and_declare_fds(&mut self, opts: &crate::discover::DiscoveryOptions) -> usize {
        self.forget();
        let mut added = 0;
        for table in &mut self.tables {
            let discovered = crate::discover::discover_fds(table, opts);
            for fd in discovered {
                let current = table.schema.fd_set();
                if !current.implies(&fd.lhs, &fd.rhs) {
                    table.schema.extra_fds.push(fd);
                    added += 1;
                }
            }
        }
        added
    }

    /// Cells (rows × columns) over all base tables: the cap on the
    /// projection memo.
    pub fn total_cells(&self) -> u64 {
        self.tables.iter().map(|t| (t.len() * t.schema.attrs.len()) as u64).sum()
    }

    /// The value memoized for `relation` projected onto `cols` by
    /// [`Database::memoize_projection`], if any.
    pub fn memoized_projection(&self, relation: &str, cols: &[usize]) -> Option<Memoized> {
        let rel = self.tables.iter().position(|t| t.schema.is_named(relation))?;
        let memo = self.memo.read().unwrap_or_else(PoisonError::into_inner);
        memo.entries.iter().find(|(r, c, _)| *r == rel && c == cols).map(|(_, _, v)| Arc::clone(v))
    }

    /// Memoizes `value`, derived from `relation` projected onto `cols`
    /// and holding `cells` cells. Nothing is kept when the key already
    /// has a value (it derives from the same data) or when the memo
    /// would outgrow [`Database::total_cells`]. Returns whether `value`
    /// was kept.
    pub fn memoize_projection(
        &self,
        relation: &str,
        cols: &[usize],
        value: Memoized,
        cells: u64,
    ) -> bool {
        let Some(rel) = self.tables.iter().position(|t| t.schema.is_named(relation)) else {
            return false;
        };
        let cap = self.total_cells();
        let mut memo = self.memo.write().unwrap_or_else(PoisonError::into_inner);
        if memo.cells + cells > cap || memo.entries.iter().any(|(r, c, _)| *r == rel && c == cols) {
            return false;
        }
        memo.entries.push((rel, cols.to_vec(), value));
        memo.cells += cells;
        true
    }

    /// Cells held by the projection memo.
    pub fn memo_cells(&self) -> u64 {
        self.memo.read().unwrap_or_else(PoisonError::into_inner).cells
    }

    /// Clears the projection memo: the data it derives from may change.
    fn forget(&mut self) {
        *self.memo.get_mut().unwrap_or_else(PoisonError::into_inner) = Memo::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrType;

    fn two_relation_db() -> Database {
        let mut db = Database::new("t");
        let mut s = RelationSchema::new("Student");
        s.add_attr("Sid", AttrType::Text).add_attr("Sname", AttrType::Text);
        s.set_primary_key(["Sid"]);
        db.add_relation(s).unwrap();
        let mut e = RelationSchema::new("Enrol");
        e.add_attr("Sid", AttrType::Text).add_attr("Code", AttrType::Text);
        e.set_primary_key(["Sid", "Code"]);
        e.add_foreign_key(["Sid"], "Student", ["Sid"]);
        db.add_relation(e).unwrap();
        db
    }

    #[test]
    fn fk_validation_catches_dangling_reference() {
        let mut db = two_relation_db();
        db.insert("Student", vec![Value::str("s1"), Value::str("George")]).unwrap();
        db.insert("Enrol", vec![Value::str("s1"), Value::str("c1")]).unwrap();
        assert!(db.validate().is_ok());
        db.insert("Enrol", vec![Value::str("s9"), Value::str("c1")]).unwrap();
        assert!(matches!(db.validate(), Err(Error::ForeignKeyViolation { .. })));
    }

    #[test]
    fn null_fk_values_are_allowed() {
        let mut db = two_relation_db();
        db.insert("Enrol", vec![Value::Null, Value::str("c1")]).unwrap();
        assert!(db.validate().is_ok());
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut db = two_relation_db();
        let err = db.add_relation(RelationSchema::new("student")).unwrap_err();
        assert!(matches!(err, Error::DuplicateRelation(_)));
    }

    #[test]
    fn insert_all_loads_batches() {
        let mut db = two_relation_db();
        db.insert_all(
            "Student",
            (1..=5).map(|i| vec![Value::str(format!("s{i}")), Value::str("X")]),
        )
        .unwrap();
        assert_eq!(db.table("Student").unwrap().len(), 5);
        // A failing row aborts mid-batch with the typed error.
        let err = db.insert_all("Student", vec![vec![Value::str("s9")], vec![]]).unwrap_err();
        assert!(matches!(err, Error::ArityMismatch { .. }));
    }

    #[test]
    fn unknown_relation_on_insert() {
        let mut db = two_relation_db();
        assert!(matches!(db.insert("Nope", vec![]), Err(Error::UnknownRelation(_))));
    }

    /// Every `&mut self` method drops the projection memo; a clone starts
    /// without it; the memo never outgrows the base tables' cells.
    #[test]
    fn projection_memo_lives_with_the_data() {
        let mut db = two_relation_db();
        db.insert("Student", vec![Value::str("s1"), Value::str("George")]).unwrap();
        assert_eq!(db.total_cells(), 2);
        let memo =
            |db: &Database, cells| db.memoize_projection("student", &[0], Arc::new(()), cells);
        assert!(!memo(&db, 3), "over the cap");
        assert!(memo(&db, 1));
        assert!(!memo(&db, 1), "one value per key");
        assert!(db.memoized_projection("Student", &[0]).is_some());
        assert!(db.memoized_projection("Student", &[1]).is_none());
        assert_eq!((db.memo_cells(), db.clone().memo_cells()), (1, 0));
        assert!(!format!("{db:?}").contains("memo"));
        let mutations: [fn(&mut Database); 4] = [
            |db| db.insert("Student", vec![Value::str("s2"), Value::str("Anna")]).unwrap(),
            |db| db.insert_all("Enrol", [vec![Value::str("s1"), Value::str("c1")]]).unwrap(),
            |db| db.add_relation(RelationSchema::new("Course")).unwrap(),
            |db| {
                db.discover_and_declare_fds(&crate::discover::DiscoveryOptions::default());
            },
        ];
        for mutate in mutations {
            memo(&db, 1);
            assert_eq!(db.memo_cells(), 1);
            mutate(&mut db);
            assert_eq!(db.memo_cells(), 0);
            assert!(db.memoized_projection("Student", &[0]).is_none());
        }
    }
}
