//! Term matching (Algorithm 2, `findMatch`).
//!
//! Each basic term is matched against relation names, attribute names,
//! and tuple values, yielding a set of [`TermMatch`] interpretations.
//! Names live in the *pattern namespace* — the database schema itself for
//! a normalized database, or the normalized view `D'` for an unnormalized
//! one (Section 4 maps matches on `D` into `D'` before pattern
//! generation; tuple values are always matched against the stored data).
//!
//! Operands are constrained (Section 2): the operand of `MIN`, `MAX`,
//! `AVG`, or `SUM` must match an attribute name; the operand of `COUNT`
//! or `GROUPBY` a relation or attribute name.

use aqks_relational::{Database, MatchIndex, NormalizedView};

/// How the term is used, which restricts the admissible match types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermRole {
    /// A free basic term.
    Free,
    /// Operand of `MIN`/`MAX`/`AVG`/`SUM`: attribute names only.
    AggOperand,
    /// Operand of `COUNT`/`GROUPBY`: relation or attribute names.
    CountGroupByOperand,
}

/// One interpretation of a basic term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TermMatch {
    /// The term names a relation.
    RelationName {
        /// Relation (pattern-namespace canonical name).
        relation: String,
    },
    /// The term names an attribute.
    AttributeName {
        /// Owning relation.
        relation: String,
        /// Attribute.
        attribute: String,
    },
    /// The term occurs in stored values of one column.
    Value {
        /// Owning relation (pattern namespace).
        relation: String,
        /// Matched attribute.
        attribute: String,
        /// Number of distinct matched *objects* (distinct key values of
        /// the pattern-namespace relation) — drives disambiguation.
        tuple_count: usize,
    },
}

impl TermMatch {
    /// The pattern-namespace relation this match refers to.
    pub fn relation(&self) -> &str {
        match self {
            TermMatch::RelationName { relation }
            | TermMatch::AttributeName { relation, .. }
            | TermMatch::Value { relation, .. } => relation,
        }
    }

    /// True for relation-name / attribute-name matches.
    pub fn is_metadata(&self) -> bool {
        !matches!(self, TermMatch::Value { .. })
    }
}

/// Pre-built matcher over one database (normalized or not).
pub struct Matcher {
    index: MatchIndex,
    /// Pattern-namespace schema (db schema, or the normalized view's).
    namespace: aqks_relational::DatabaseSchema,
    /// For unnormalized databases: the view used to map value matches.
    view: Option<NormalizedView>,
}

impl Matcher {
    /// Matcher for a normalized database: the pattern namespace is the
    /// schema itself.
    pub fn normalized(db: &Database) -> Self {
        Matcher { index: MatchIndex::build(db), namespace: db.schema(), view: None }
    }

    /// Matcher for an unnormalized database: metadata matches against the
    /// normalized view `D'`; value matches against the stored data of `D`
    /// and mapped into `D'`.
    pub fn unnormalized(db: &Database, view: NormalizedView) -> Self {
        Matcher { index: MatchIndex::build(db), namespace: view.schema(), view: Some(view) }
    }

    /// All admissible matches of `term` under `role`, metadata first.
    ///
    /// Fallible because value matching probes the term index, which
    /// observes the ambient `aqks-guard` budget and the `index.lookup`
    /// failpoint.
    pub fn matches(
        &self,
        db: &Database,
        term: &str,
        role: TermRole,
    ) -> Result<Vec<TermMatch>, aqks_relational::Error> {
        let mut out = Vec::new();
        for m in self.metadata_matches(term) {
            match (&m, role) {
                (_, TermRole::Free) | (_, TermRole::CountGroupByOperand) => out.push(m),
                (TermMatch::AttributeName { .. }, TermRole::AggOperand) => out.push(m),
                _ => {}
            }
        }
        if role == TermRole::Free {
            out.extend(self.value_matches(db, term)?);
        }
        Ok(out)
    }

    fn metadata_matches(&self, term: &str) -> Vec<TermMatch> {
        let mut out = Vec::new();
        for rel in &self.namespace.relations {
            if rel.is_named(term) {
                out.push(TermMatch::RelationName { relation: rel.name.clone() });
            }
        }
        for rel in &self.namespace.relations {
            if let Some(attr) = rel.canonical_attr(term) {
                // A foreign-key attribute is a *reference* to another
                // object, not an attribute of this relation in the ORA
                // sense: `Enrol.Code` denotes the course, whose attribute
                // match is `Course.Code`. Skipping it avoids duplicate
                // (and mis-ranked) interpretations.
                if is_foreign_key_attr(rel, attr) {
                    continue;
                }
                out.push(TermMatch::AttributeName {
                    relation: rel.name.clone(),
                    attribute: attr.to_string(),
                });
            }
        }
        out
    }

    fn value_matches(
        &self,
        db: &Database,
        term: &str,
    ) -> Result<Vec<TermMatch>, aqks_relational::Error> {
        let hits = self.index.match_values(db, term)?;
        let mut out = Vec::new();
        match &self.view {
            None => {
                for m in hits {
                    // Values of foreign-key columns denote the referenced
                    // object; the referenced relation's own key column
                    // already produces that interpretation.
                    if self
                        .namespace
                        .relation(&m.relation)
                        .is_some_and(|r| is_foreign_key_attr(r, &m.attribute))
                    {
                        continue;
                    }
                    out.push(TermMatch::Value {
                        relation: m.relation,
                        attribute: m.attribute,
                        tuple_count: m.tuple_count,
                    });
                }
            }
            Some(view) => {
                for m in hits {
                    if db
                        .table(&m.relation)
                        .is_some_and(|t| is_foreign_key_attr(&t.schema, &m.attribute))
                    {
                        continue;
                    }
                    let Some(derived) = pick_derived(view, &m.relation, &m.attribute) else {
                        continue;
                    };
                    // Count distinct objects: project matching rows onto
                    // the derived relation's key.
                    let table = db.table(&m.relation).expect("indexed relation exists");
                    let key_idx: Option<Vec<usize>> = derived
                        .schema
                        .primary_key
                        .iter()
                        .map(|k| table.schema.attr_index(k))
                        .collect();
                    let count = match key_idx {
                        Some(idx) if !idx.is_empty() => self.index.count_objects(&m, &idx),
                        _ => m.tuple_count,
                    };
                    let attr = derived
                        .schema
                        .canonical_attr(&m.attribute)
                        .unwrap_or(m.attribute.as_str())
                        .to_string();
                    out.push(TermMatch::Value {
                        relation: derived.schema.name.clone(),
                        attribute: attr,
                        tuple_count: count,
                    });
                }
            }
        }
        Ok(out)
    }
}

/// True if `attr` participates in any foreign key of `rel`.
fn is_foreign_key_attr(rel: &aqks_relational::RelationSchema, attr: &str) -> bool {
    rel.foreign_keys.iter().any(|fk| fk.attrs.iter().any(|a| a.eq_ignore_ascii_case(attr)))
}

/// Chooses the derived relation a value/attribute match on
/// `original.attribute` belongs to: the relation where the attribute is a
/// non-key attribute if one exists (its FD group), otherwise the one with
/// the smallest key containing it (its object), deterministically.
pub fn pick_derived<'v>(
    view: &'v NormalizedView,
    original: &str,
    attribute: &str,
) -> Option<&'v aqks_relational::DerivedRelation> {
    let mut candidates: Vec<&aqks_relational::DerivedRelation> = view
        .derived_from(original)
        .into_iter()
        .filter(|d| d.schema.attr_index(attribute).is_some())
        .collect();
    candidates.sort_by_key(|d| {
        let in_key = d.schema.primary_key.iter().any(|k| k.eq_ignore_ascii_case(attribute));
        (in_key, d.schema.primary_key.len(), d.schema.name.clone())
    });
    candidates.into_iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqks_datasets::university;

    #[test]
    fn metadata_before_values() {
        let db = university::normalized();
        let m = Matcher::normalized(&db);
        // "Lecturer" names a relation; "George" is a value in two columns.
        let ms = m.matches(&db, "Lecturer", TermRole::Free).unwrap();
        assert!(matches!(ms[0], TermMatch::RelationName { .. }));
        let ms = m.matches(&db, "George", TermRole::Free).unwrap();
        assert_eq!(ms.len(), 2, "{ms:?}");
        assert!(ms.iter().all(|x| !x.is_metadata()));
    }

    #[test]
    fn roles_restrict_match_types() {
        let db = university::normalized();
        let m = Matcher::normalized(&db);
        // "Credit" as aggregate operand: attribute name only.
        let ms = m.matches(&db, "Credit", TermRole::AggOperand).unwrap();
        assert_eq!(ms.len(), 1);
        assert!(
            matches!(&ms[0], TermMatch::AttributeName { relation, .. } if relation == "Course")
        );
        // "Green" cannot be an aggregate operand.
        assert!(m.matches(&db, "Green", TermRole::AggOperand).unwrap().is_empty());
        // "Course" as COUNT operand: relation name.
        let ms = m.matches(&db, "Course", TermRole::CountGroupByOperand).unwrap();
        assert!(matches!(&ms[0], TermMatch::RelationName { relation } if relation == "Course"));
    }

    #[test]
    fn green_counts_two_students() {
        let db = university::normalized();
        let m = Matcher::normalized(&db);
        let ms = m.matches(&db, "Green", TermRole::Free).unwrap();
        let student = ms
            .iter()
            .find_map(|x| match x {
                TermMatch::Value { relation, tuple_count, .. } if relation == "Student" => {
                    Some(*tuple_count)
                }
                _ => None,
            })
            .unwrap();
        assert_eq!(student, 2);
    }

    #[test]
    fn unnormalized_counts_objects_not_rows() {
        // Figure 8: "Green" occurs in 3 Enrolment rows but names only 2
        // distinct students; "George" occurs in 3 rows, 1 student.
        let db = university::enrolment_fig8();
        let view = NormalizedView::build(&db.schema());
        let m = Matcher::unnormalized(&db, view);
        let count_of = |term: &str| {
            m.matches(&db, term, TermRole::Free)
                .unwrap()
                .into_iter()
                .find_map(|x| match x {
                    TermMatch::Value { relation, tuple_count, .. } if relation == "Student" => {
                        Some(tuple_count)
                    }
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(count_of("Green"), 2);
        assert_eq!(count_of("George"), 1);
    }

    #[test]
    fn unnormalized_metadata_uses_view_names() {
        let db = university::enrolment_fig8();
        let view = NormalizedView::build(&db.schema());
        let m = Matcher::unnormalized(&db, view);
        let ms = m.matches(&db, "Student", TermRole::CountGroupByOperand).unwrap();
        assert!(
            matches!(&ms[0], TermMatch::RelationName { relation } if relation == "Student"),
            "{ms:?}"
        );
        // Attribute of the original maps to the derived relation.
        let ms = m.matches(&db, "Code", TermRole::AggOperand).unwrap();
        assert!(
            ms.iter().any(
                |x| matches!(x, TermMatch::AttributeName { relation, .. } if relation == "Course")
            ),
            "{ms:?}"
        );
    }

    #[test]
    fn unmatched_term_is_empty() {
        let db = university::normalized();
        let m = Matcher::normalized(&db);
        assert!(m.matches(&db, "zebra", TermRole::Free).unwrap().is_empty());
    }
}
