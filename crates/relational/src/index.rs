//! Term-match index.
//!
//! The first step of both engines (Algorithm 2, line 5: `findMatch(t, D)`)
//! locates every relation name, attribute name, and tuple value a keyword
//! matches. This module pre-builds:
//!
//! * a metadata index over relation and attribute names;
//! * a dictionary per column: every distinct stored value gets a `u32`
//!   code (in order of first occurrence), every row stores its code, and
//!   the rows of each code lie contiguously in one array (CSR: code `c`
//!   owns `rows[offsets[c]..offsets[c + 1]]`);
//! * an inverted index `token -> column -> sorted value codes` over the
//!   textual form of every distinct value.
//!
//! A probe intersects the term's token postings per column, verifies
//! phrase containment (quoted terms such as `"royal olive"` need the
//! literal phrase) once per surviving distinct value on one row holding
//! it, and reports row counts as sums of CSR lengths. Its cost grows with
//! the number of distinct values a term touches, not with the rows
//! holding them — on unnormalized data (Section 4) a value repeats in
//! every row of its object.
//!
//! Two values share a code only when they are the same variant with the
//! same contents, so every row of a code displays the same text and
//! verification per code is exact. Object counting
//! ([`MatchIndex::count_objects`]) needs `Value` equality instead — the
//! equality of `SELECT DISTINCT` — under which `Int(2)` and `Float(2.0)`
//! are one value; a column maps its codes to these equality classes where
//! they differ. The encoding stays private to this module.

use std::collections::{HashMap, HashSet};

use crate::database::Database;
use crate::error::Result;
use crate::table::Table;
use crate::value::{Date, Value};

/// A keyword match against metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaMatch {
    /// The term equals a relation's name.
    Relation {
        /// Matched relation (canonical name).
        relation: String,
    },
    /// The term equals an attribute's name.
    Attribute {
        /// Owning relation (canonical name).
        relation: String,
        /// Matched attribute (canonical name).
        attribute: String,
    },
}

/// A keyword match against tuple values of one column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueMatch {
    /// Relation containing the matching tuples (canonical name).
    pub relation: String,
    /// Attribute whose values contain the term (canonical name).
    pub attribute: String,
    /// Number of *distinct tuples* whose value contains the term. The
    /// disambiguation step (Section 3.1.2) forks a pattern exactly when
    /// this is greater than one.
    pub tuple_count: usize,
    /// Matched column as (relation, attribute) positions.
    column: (u32, u32),
    /// Codes of the matching values in that column, ascending.
    codes: Vec<u32>,
}

/// Why a row id or count must fit in `u32`: codes, CSR offsets and row
/// ids are stored as `u32`.
const ROW_LIMIT: &str = "MatchIndex supports fewer than 2^32 rows per relation";

/// Identity of a stored value for dictionary encoding: variant plus exact
/// contents. Finer than `Value` equality (`Int(2)` vs `Float(2.0)`, `0.0`
/// vs `-0.0`), so all values of one code display the same text.
#[derive(PartialEq, Eq, Hash)]
enum Exact<'a> {
    Null,
    Int(i64),
    Float(u64),
    Str(&'a str),
    Date(Date),
}

impl<'a> Exact<'a> {
    fn of(v: &'a Value) -> Exact<'a> {
        match v {
            Value::Null => Exact::Null,
            Value::Int(i) => Exact::Int(*i),
            Value::Float(f) => Exact::Float(f.to_bits()),
            Value::Str(s) => Exact::Str(s),
            Value::Date(d) => Exact::Date(*d),
        }
    }
}

/// One dictionary-encoded column.
#[derive(Debug)]
struct Column {
    /// Value code of each row.
    codes: Vec<u32>,
    /// Rows of code `c` are `rows[offsets[c]..offsets[c + 1]]`, ascending.
    offsets: Vec<u32>,
    rows: Vec<u32>,
    /// `Value`-equality class of each code where two codes share one
    /// (possible only with `Float` values); `None` means class = code.
    classes: Option<Vec<u32>>,
    /// Number of equality classes.
    n_classes: u32,
}

impl Column {
    fn build(table: &Table, ai: usize) -> Column {
        let n = u32::try_from(table.len()).expect(ROW_LIMIT);
        let mut dict: HashMap<Exact<'_>, u32> = HashMap::new();
        let mut codes = Vec::with_capacity(table.len());
        let mut has_float = false;
        for row in table.rows() {
            let v = &row[ai];
            has_float |= matches!(v, Value::Float(_));
            let next = u32::try_from(dict.len()).expect(ROW_LIMIT);
            codes.push(*dict.entry(Exact::of(v)).or_insert(next));
        }
        let n_codes = dict.len();
        // Free the map before the CSR arrays are allocated.
        drop(dict);

        // Counting sort of row ids by code.
        let mut offsets = vec![0u32; n_codes + 1];
        for &c in &codes {
            offsets[c as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets[..n_codes].to_vec();
        let mut rows = vec![0u32; table.len()];
        for (rowid, &c) in (0..n).zip(&codes) {
            let slot = &mut cursor[c as usize];
            rows[*slot as usize] = rowid;
            *slot += 1;
        }

        let mut column = Column {
            codes,
            offsets,
            rows,
            classes: None,
            n_classes: u32::try_from(n_codes).expect(ROW_LIMIT),
        };
        if has_float {
            let mut by_value: HashMap<&Value, u32> = HashMap::new();
            let classes = (0..column.n_classes)
                .map(|c| {
                    let next = u32::try_from(by_value.len()).expect(ROW_LIMIT);
                    *by_value.entry(column.value(table, ai, c)).or_insert(next)
                })
                .collect();
            column.n_classes = u32::try_from(by_value.len()).expect(ROW_LIMIT);
            column.classes = Some(classes);
        }
        column
    }

    fn n_codes(&self) -> u32 {
        u32::try_from(self.offsets.len() - 1).expect(ROW_LIMIT)
    }

    fn rows_of(&self, code: u32) -> &[u32] {
        &self.rows[self.offsets[code as usize] as usize..self.offsets[code as usize + 1] as usize]
    }

    /// The value of `code`, read from the first row holding it.
    fn value<'t>(&self, table: &'t Table, ai: usize, code: u32) -> &'t Value {
        &table.rows()[self.rows_of(code)[0] as usize][ai]
    }

    /// Total rows holding any of `codes`.
    fn row_count(&self, codes: &[u32]) -> usize {
        codes.iter().map(|&c| self.rows_of(c).len()).sum()
    }

    fn class(&self, code: u32) -> u32 {
        self.classes.as_ref().map_or(code, |cl| cl[code as usize])
    }
}

#[derive(Debug, Default)]
struct Postings {
    /// (relation idx, attribute idx) -> sorted value codes.
    by_column: HashMap<(u32, u32), Vec<u32>>,
}

/// Pre-built index answering metadata and value matches for query terms.
#[derive(Debug)]
pub struct MatchIndex {
    relations: Vec<String>,
    attributes: Vec<Vec<String>>,
    /// Per relation, per attribute. Values themselves are not stored:
    /// verification re-reads the database, which the caller passes in.
    columns: Vec<Vec<Column>>,
    token_postings: HashMap<String, Postings>,
}

fn tokenize(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_alphanumeric()).filter(|t| !t.is_empty())
}

impl MatchIndex {
    /// Builds the index: one pass over the rows per column, then one
    /// tokenization per distinct value.
    ///
    /// # Panics
    ///
    /// If a relation holds 2^32 rows or more.
    pub fn build(db: &Database) -> Self {
        let mut relations = Vec::new();
        let mut attributes = Vec::new();
        let mut columns = Vec::new();
        let mut token_postings: HashMap<String, Postings> = HashMap::new();

        for (ri, table) in (0u32..).zip(db.tables()) {
            relations.push(table.schema.name.clone());
            attributes.push(table.schema.attr_names().map(str::to_string).collect::<Vec<_>>());
            let mut cols = Vec::with_capacity(table.schema.attrs.len());
            for (ai, col) in (0..table.schema.attrs.len()).zip(0u32..) {
                let column = Column::build(table, ai);
                for code in 0..column.n_codes() {
                    let v = column.value(table, ai, code);
                    if v.is_null() {
                        continue;
                    }
                    let text = v.to_string().to_lowercase();
                    let mut seen_tokens: Vec<&str> = Vec::new();
                    for tok in tokenize(&text) {
                        if seen_tokens.contains(&tok) {
                            continue;
                        }
                        seen_tokens.push(tok);
                        let p = match token_postings.get_mut(tok) {
                            Some(p) => p,
                            None => token_postings.entry(tok.to_string()).or_default(),
                        };
                        p.by_column.entry((ri, col)).or_default().push(code);
                    }
                }
                cols.push(column);
            }
            columns.push(cols);
        }
        MatchIndex { relations, attributes, columns, token_postings }
    }

    /// Metadata matches of a term: relation names first, then attributes.
    pub fn match_metadata(&self, term: &str) -> Vec<MetaMatch> {
        aqks_obs::counter("index.meta_probes", 1);
        let mut out = Vec::new();
        for r in &self.relations {
            if r.eq_ignore_ascii_case(term) {
                out.push(MetaMatch::Relation { relation: r.clone() });
            }
        }
        for (ri, attrs) in self.attributes.iter().enumerate() {
            for a in attrs {
                if a.eq_ignore_ascii_case(term) {
                    out.push(MetaMatch::Attribute {
                        relation: self.relations[ri].clone(),
                        attribute: a.clone(),
                    });
                }
            }
        }
        out
    }

    /// Value matches of a (possibly multi-word) term, with per-column
    /// matching-tuple counts, sorted by (relation, attribute). `db` must
    /// be the database the index was built from.
    ///
    /// Fallible: probe loops observe the ambient `aqks-guard` budget
    /// (deadline + row cap), and the `index.lookup` failpoint can inject
    /// a fault in instrumented builds.
    pub fn match_values(&self, db: &Database, term: &str) -> Result<Vec<ValueMatch>> {
        aqks_guard::failpoint!("index.lookup");
        aqks_guard::checkpoint("index.lookup")?;
        let lower = term.to_lowercase();
        let tokens: Vec<&str> = tokenize(&lower).collect();
        if tokens.is_empty() {
            return Ok(Vec::new());
        }

        // Candidate columns: intersection of the tokens' column sets.
        // Probes and hit ratios land on the ambient trace span (if any):
        // one probe per token lookup, one hit per token found.
        aqks_obs::counter("index.probes", tokens.len() as u64);
        let mut postings: Vec<&Postings> = Vec::with_capacity(tokens.len());
        for t in &tokens {
            match self.token_postings.get(*t) {
                Some(p) => postings.push(p),
                None => {
                    aqks_obs::counter("index.token_hits", postings.len() as u64);
                    return Ok(Vec::new());
                }
            }
        }
        aqks_obs::counter("index.token_hits", postings.len() as u64);
        postings.sort_by_key(|p| p.by_column.len());
        let mut out = Vec::new();
        let (mut verified, mut matched) = (0u64, 0u64);
        'col: for (&col, codes0) in &postings[0].by_column {
            aqks_guard::checkpoint("index.verify")?;
            let mut candidates: Vec<u32> = codes0.clone();
            for p in &postings[1..] {
                let Some(codes) = p.by_column.get(&col) else { continue 'col };
                candidates = intersect_sorted(&candidates, codes);
                if candidates.is_empty() {
                    continue 'col;
                }
            }
            // Verify phrase containment (tokens may be non-adjacent in the
            // value; `contains` semantics require the literal phrase),
            // once per distinct value. Each row holding a candidate value
            // is an intermediate row the budget pays for.
            let (ri, ai) = (col.0 as usize, col.1 as usize);
            let column = &self.columns[ri][ai];
            let candidate_rows = column.row_count(&candidates);
            aqks_guard::charge_rows("index.verify", candidate_rows as u64)?;
            verified += candidate_rows as u64;
            let table = &db.tables()[ri];
            candidates.retain(|&code| column.value(table, ai, code).contains_ci(&lower));
            let rows = column.row_count(&candidates);
            matched += rows as u64;
            if rows > 0 {
                out.push(ValueMatch {
                    relation: self.relations[ri].clone(),
                    attribute: self.attributes[ri][ai].clone(),
                    tuple_count: rows,
                    column: col,
                    codes: candidates,
                });
            }
        }
        aqks_obs::counter("index.rows_verified", verified);
        aqks_obs::counter("index.tuples_matched", matched);
        out.sort_by(|a, b| (&a.relation, &a.attribute).cmp(&(&b.relation, &b.attribute)));
        Ok(out)
    }

    /// Number of distinct objects among the matching rows of `m`: distinct
    /// projections of those rows onto the attributes at positions `key`
    /// of the matched relation, under `Value` equality (the equality
    /// `SELECT DISTINCT` uses). The unnormalized pipeline counts objects
    /// of a derived relation this way rather than raw rows.
    ///
    /// `m` must come from this index.
    ///
    /// # Panics
    ///
    /// If a position in `key` is not an attribute of the relation.
    pub fn count_objects(&self, m: &ValueMatch, key: &[usize]) -> usize {
        let columns = &self.columns[m.column.0 as usize];
        let matched = &columns[m.column.1 as usize];
        let rows = m.codes.iter().flat_map(|&c| matched.rows_of(c)).map(|&r| r as usize);
        if let [k] = key {
            let kc = &columns[*k];
            let mut seen = vec![0u64; (kc.n_classes as usize).div_ceil(64)];
            let mut n = 0;
            for r in rows {
                let class = kc.class(kc.codes[r]) as usize;
                let (word, bit) = (class / 64, 1u64 << (class % 64));
                if seen[word] & bit == 0 {
                    seen[word] |= bit;
                    n += 1;
                }
            }
            return n;
        }
        let kcs: Vec<&Column> = key.iter().map(|&k| &columns[k]).collect();
        let mut seen: HashSet<Vec<u32>> = HashSet::new();
        let mut tuple = Vec::with_capacity(kcs.len());
        for r in rows {
            tuple.clear();
            tuple.extend(kcs.iter().map(|kc| kc.class(kc.codes[r])));
            if !seen.contains(&tuple) {
                seen.insert(tuple.clone());
            }
        }
        seen.len()
    }
}

fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, RelationSchema};
    use crate::value::Value;

    fn db() -> Database {
        let mut db = Database::new("t");
        let mut s = RelationSchema::new("Student");
        s.add_attr("Sid", AttrType::Text).add_attr("Sname", AttrType::Text);
        s.set_primary_key(["Sid"]);
        db.add_relation(s).unwrap();
        let mut p = RelationSchema::new("Part");
        p.add_attr("partkey", AttrType::Int).add_attr("pname", AttrType::Text);
        p.set_primary_key(["partkey"]);
        db.add_relation(p).unwrap();
        db.insert("Student", vec![Value::str("s1"), Value::str("George")]).unwrap();
        db.insert("Student", vec![Value::str("s2"), Value::str("Green")]).unwrap();
        db.insert("Student", vec![Value::str("s3"), Value::str("Green")]).unwrap();
        db.insert("Part", vec![Value::Int(1), Value::str("small royal olive")]).unwrap();
        db.insert("Part", vec![Value::Int(2), Value::str("large royal olive")]).unwrap();
        db.insert("Part", vec![Value::Int(3), Value::str("royal green peach")]).unwrap();
        db
    }

    #[test]
    fn metadata_matches() {
        let db = db();
        let idx = MatchIndex::build(&db);
        let m = idx.match_metadata("student");
        assert_eq!(m, vec![MetaMatch::Relation { relation: "Student".into() }]);
        let m = idx.match_metadata("sname");
        assert_eq!(
            m,
            vec![MetaMatch::Attribute { relation: "Student".into(), attribute: "Sname".into() }]
        );
        assert!(idx.match_metadata("nothing").is_empty());
    }

    #[test]
    fn value_match_counts_tuples() {
        let db = db();
        let idx = MatchIndex::build(&db);
        let m = idx.match_values(&db, "Green").unwrap();
        assert_eq!(m.len(), 2, "Green appears in Student.Sname and Part.pname: {m:?}");
        let sname = m.iter().find(|v| v.relation == "Student").unwrap();
        assert_eq!(sname.tuple_count, 2);
    }

    #[test]
    fn phrase_match_requires_contiguity() {
        let db = db();
        let idx = MatchIndex::build(&db);
        let m = idx.match_values(&db, "royal olive").unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].tuple_count, 2, "'royal green peach' has both tokens but not the phrase");
    }

    #[test]
    fn no_match_returns_empty() {
        let db = db();
        let idx = MatchIndex::build(&db);
        assert!(idx.match_values(&db, "zebra").unwrap().is_empty());
        assert!(idx.match_values(&db, "").unwrap().is_empty());
    }

    #[test]
    fn match_is_case_insensitive() {
        let db = db();
        let idx = MatchIndex::build(&db);
        assert_eq!(idx.match_values(&db, "GEORGE").unwrap().len(), 1);
    }

    #[test]
    fn equal_values_with_different_display_text() {
        // A Float column accepts ints: `Int(2) == Float(2.0)` and
        // `Float(0.0) == Float(-0.0)`, but each pair displays differently.
        let mut db = Database::new("t");
        let mut s = RelationSchema::new("Reading");
        s.add_attr("id", AttrType::Int).add_attr("level", AttrType::Float);
        s.set_primary_key(["id"]);
        db.add_relation(s).unwrap();
        for (id, level) in [(1, Value::Int(2)), (2, Value::Float(2.0))]
            .into_iter()
            .chain([(3, Value::Float(-0.0)), (4, Value::Float(0.0))])
        {
            db.insert("Reading", vec![Value::Int(id), level]).unwrap();
        }
        let idx = MatchIndex::build(&db);
        let level = |term: &str| {
            let m = idx.match_values(&db, term).unwrap();
            m.into_iter().find(|v| v.attribute == "level").unwrap()
        };

        // Phrase verification reads each row's own display text.
        assert_eq!(level("2.0").tuple_count, 1, "only the float row displays 2.0");
        assert_eq!(level("-0.0").tuple_count, 1);
        // Object counting uses `Value` equality, as DISTINCT does.
        let two = level("2");
        assert_eq!(two.tuple_count, 2);
        assert_eq!(idx.count_objects(&two, &[1]), 1);
        assert_eq!(idx.count_objects(&two, &[0]), 2);
        assert_eq!(idx.count_objects(&two, &[1, 0]), 2);
        let zero = level("0.0");
        assert_eq!(zero.tuple_count, 2);
        assert_eq!(idx.count_objects(&zero, &[1]), 1);
    }

    #[test]
    fn probe_respects_ambient_row_budget() {
        let db = db();
        let idx = MatchIndex::build(&db);
        let gov = aqks_guard::Governor::new(&aqks_guard::Budget::unlimited().with_max_rows(1));
        let _g = aqks_guard::install(&gov);
        let err = idx.match_values(&db, "Green").unwrap_err();
        match err {
            crate::Error::Budget(t) => {
                assert_eq!(t.kind, aqks_guard::BudgetKind::Rows);
                assert_eq!(t.site, "index.verify");
            }
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn probe_respects_expired_deadline() {
        let db = db();
        let idx = MatchIndex::build(&db);
        let gov = aqks_guard::Governor::new(
            &aqks_guard::Budget::unlimited().with_timeout(std::time::Duration::ZERO),
        );
        let _g = aqks_guard::install(&gov);
        let err = idx.match_values(&db, "Green").unwrap_err();
        assert!(
            matches!(err, crate::Error::Budget(t) if t.kind == aqks_guard::BudgetKind::Deadline)
        );
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn lookup_failpoint_surfaces_typed_error() {
        let db = db();
        let idx = MatchIndex::build(&db);
        aqks_guard::failpoint::enable("index.lookup");
        let err = idx.match_values(&db, "Green").unwrap_err();
        assert_eq!(err, crate::Error::Fault("index.lookup"));
        aqks_guard::failpoint::disable("index.lookup");
        assert!(idx.match_values(&db, "Green").is_ok());
    }
}
