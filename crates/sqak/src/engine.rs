//! SQAK's query pipeline: resolve terms to relations, grow the SQN,
//! translate naively.

use aqks_core::{KeywordQuery, Operator, Term};
use aqks_relational::{Database, DatabaseSchema, MatchIndex};
use aqks_sqlgen::{
    execute, AggFunc, ColumnRef, Predicate, ResultTable, SelectItem, SelectStatement, TableExpr,
};

use crate::graph::SchemaGraph;

/// SQAK failure modes. `Unsupported` covers the restrictions the paper
/// reports as "N.A." in Tables 5/6/8/9.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqakError {
    /// Query text failed to parse.
    Parse(String),
    /// A term matched nothing.
    NoMatch(String),
    /// Query needs a capability SQAK lacks (second aggregate, self join,
    /// aggregate over a tuple value, disconnected SQN).
    Unsupported(String),
}

impl std::fmt::Display for SqakError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqakError::Parse(m) => write!(f, "parse error: {m}"),
            SqakError::NoMatch(t) => write!(f, "term `{t}` matches nothing"),
            SqakError::Unsupported(m) => write!(f, "unsupported by SQAK: {m}"),
        }
    }
}

impl std::error::Error for SqakError {}

/// A generated SQAK statement.
#[derive(Debug, Clone)]
pub struct SqakSql {
    /// The statement.
    pub sql: SelectStatement,
    /// Rendered text.
    pub sql_text: String,
}

#[derive(Debug, Clone)]
enum Resolved {
    /// Term named the relation.
    Relation,
    /// Term named an attribute (canonical name).
    Attribute(String),
    /// Term occurred in tuple values of an attribute.
    Value(String),
}

/// The SQAK engine.
pub struct Sqak {
    db: Database,
    schema: DatabaseSchema,
    graph: SchemaGraph,
    index: MatchIndex,
}

impl Sqak {
    /// Builds the engine (schema graph + value index).
    pub fn new(db: Database) -> Sqak {
        let schema = db.schema();
        let graph = SchemaGraph::build(&schema);
        let index = MatchIndex::build(&db);
        Sqak { db, schema, graph, index }
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Generates SQAK's SQL for the query (what Figure 11 times).
    pub fn generate(&self, query: &str) -> Result<SqakSql, SqakError> {
        let query = KeywordQuery::parse(query).map_err(|e| SqakError::Parse(e.to_string()))?;

        // SQAK restriction: exactly one aggregate in the SELECT clause.
        // (An aggregate whose operand is another aggregate nests instead.)
        let node_aggs: Vec<usize> = query
            .terms
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                matches!(t, Term::Op(Operator::Agg(_)))
                    && matches!(query.terms.get(i + 1), Some(Term::Basic(_)))
            })
            .map(|(i, _)| i)
            .collect();
        if node_aggs.len() > 1 {
            return Err(SqakError::Unsupported(
                "more than one aggregate function in the SELECT clause".into(),
            ));
        }

        // Resolve basic terms to (relation, kind).
        let mut resolved: Vec<Option<(usize, Resolved)>> = vec![None; query.terms.len()];
        for (i, text) in query.basic_terms() {
            resolved[i] = Some(self.resolve(text)?);
        }

        // SQAK restriction: no self joins — two value conditions landing
        // in the same relation cannot be told apart.
        let value_rels: Vec<usize> = resolved
            .iter()
            .flatten()
            .filter(|(_, k)| matches!(k, Resolved::Value(_)))
            .map(|(r, _)| *r)
            .collect();
        for (i, &r) in value_rels.iter().enumerate() {
            if value_rels[..i].contains(&r) {
                return Err(SqakError::Unsupported(format!(
                    "two terms match tuples of relation `{}` (self join required)",
                    self.graph.relations[r]
                )));
            }
        }

        // Simple query network over all matched relations.
        let required: Vec<usize> = resolved.iter().flatten().map(|(r, _)| *r).collect();
        let (rels, used_edges) = self
            .graph
            .simple_query_network(&required)
            .ok_or_else(|| SqakError::Unsupported("matched relations are not connected".into()))?;

        // Aliases: first letter, numbered within collisions.
        let aliases = assign_aliases(&rels, &self.graph);
        let alias_of =
            |rel: usize| -> &str { &aliases[rels.iter().position(|&r| r == rel).expect("in SQN")] };

        let mut stmt = SelectStatement::new();
        for (k, &r) in rels.iter().enumerate() {
            stmt.from.push(TableExpr::Relation {
                name: self.graph.relations[r].clone(),
                alias: aliases[k].clone(),
            });
        }
        for &ei in &used_edges {
            let e = &self.graph.edges[ei];
            for (a, b) in e.from_attrs.iter().zip(&e.to_attrs) {
                stmt.predicates.push(Predicate::JoinEq(
                    ColumnRef::new(alias_of(e.from), a.clone()),
                    ColumnRef::new(alias_of(e.to), b.clone()),
                ));
            }
        }

        // Value conditions: WHERE + SELECT + GROUP BY on the matched
        // attribute — merging every object that shares the value.
        let mut group_cols: Vec<ColumnRef> = Vec::new();
        for (i, term) in query.terms.iter().enumerate() {
            let (Some((r, Resolved::Value(attr))), Some(text)) = (&resolved[i], term.as_basic())
            else {
                continue;
            };
            let c = ColumnRef::new(alias_of(*r), attr.clone());
            stmt.predicates.push(Predicate::Contains(c.clone(), text.to_string()));
            if !group_cols.contains(&c) {
                group_cols.push(c);
            }
        }

        // Explicit GROUPBY operands.
        for (i, term) in query.terms.iter().enumerate() {
            if !matches!(term, Term::Op(Operator::GroupBy)) {
                continue;
            }
            let Some((r, kind)) = &resolved[i + 1] else { continue };
            let operand_text = query.terms[i + 1].as_basic().unwrap_or_default();
            let attrs: Vec<String> = match kind {
                Resolved::Relation => self.relation_operand_attrs(*r, operand_text),
                Resolved::Attribute(a) => vec![a.clone()],
                Resolved::Value(_) => {
                    return Err(SqakError::Unsupported(
                        "GROUPBY operand matches tuple values".into(),
                    ))
                }
            };
            for a in attrs {
                let c = ColumnRef::new(alias_of(*r), a);
                if !group_cols.contains(&c) {
                    group_cols.push(c);
                }
            }
        }

        for c in &group_cols {
            stmt.items.push(SelectItem::Column { col: c.clone(), alias: None });
            stmt.group_by.push(c.clone());
        }

        // The single aggregate.
        let mut inner_agg_alias: Option<String> = None;
        if let Some(&op_i) = node_aggs.first() {
            let Term::Op(Operator::Agg(func)) = query.terms[op_i] else { unreachable!() };
            let Some((r, kind)) = &resolved[op_i + 1] else { unreachable!("validated") };
            let operand_text = query.terms[op_i + 1].as_basic().unwrap_or_default();
            let attr = match kind {
                Resolved::Attribute(a) => a.clone(),
                Resolved::Relation => {
                    self.relation_operand_attrs(*r, operand_text).first().cloned().ok_or_else(
                        || SqakError::Unsupported("aggregated relation has no key".into()),
                    )?
                }
                Resolved::Value(_) => {
                    return Err(SqakError::Unsupported(
                        "aggregate operand matches tuple values".into(),
                    ))
                }
            };
            let alias = format!("{}{}", func.alias_prefix(), attr);
            inner_agg_alias = Some(alias.clone());
            stmt.items.push(SelectItem::Aggregate {
                func,
                arg: ColumnRef::new(alias_of(*r), attr),
                distinct: false,
                alias,
            });
        }

        if stmt.items.is_empty() {
            return Err(SqakError::Unsupported("no aggregate and no conditions".into()));
        }

        // Nested aggregates (MAX COUNT ... — SQAK supports the chain).
        let nested: Vec<AggFunc> = query
            .terms
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match t {
                Term::Op(Operator::Agg(f))
                    if matches!(query.terms.get(i + 1), Some(Term::Op(_))) =>
                {
                    Some(*f)
                }
                _ => None,
            })
            .collect();
        let mut out = stmt;
        for func in nested.iter().rev() {
            let inner_alias = inner_agg_alias.clone().ok_or_else(|| {
                SqakError::Unsupported("nested aggregate without inner aggregate".into())
            })?;
            let alias = format!("{}{}", func.alias_prefix(), inner_alias);
            out = SelectStatement {
                distinct: false,
                items: vec![SelectItem::Aggregate {
                    func: *func,
                    arg: ColumnRef::new("R", inner_alias.clone()),
                    distinct: false,
                    alias: alias.clone(),
                }],
                from: vec![TableExpr::Derived { query: Box::new(out), alias: "R".into() }],
                predicates: vec![],
                group_by: vec![],
                ..Default::default()
            };
            inner_agg_alias = Some(alias);
        }

        let sql_text = out.to_string();
        Ok(SqakSql { sql: out, sql_text })
    }

    /// Generates and executes.
    pub fn answer(&self, query: &str) -> Result<ResultTable, SqakError> {
        let g = self.generate(query)?;
        execute(&g.sql, &self.db)
            .map(ResultTable::sorted)
            .map_err(|e| SqakError::Unsupported(format!("execution failed: {e}")))
    }

    /// Resolves a term, in priority order: relation name (exact, then
    /// containment) > attribute name (exact, then containment) > tuple
    /// value, relations in schema order. A term matching the majority of
    /// a column's values (dbgen's `Supplier#000000001` names make
    /// "supplier" match *every* sname) degrades to a plain attribute
    /// match: the condition would be vacuous.
    fn resolve(&self, term: &str) -> Result<(usize, Resolved), SqakError> {
        if let Some(r) = self.graph.relation_by_name(term) {
            return Ok((r, Resolved::Relation));
        }
        for (ri, rel) in self.schema.relations.iter().enumerate() {
            if let Some(attr) = rel.canonical_attr(term) {
                return Ok((ri, Resolved::Attribute(attr.to_string())));
            }
        }
        let lower = term.to_lowercase();
        for (ri, rel) in self.schema.relations.iter().enumerate() {
            if let Some(attr) = rel.attr_names().find(|a| a.to_lowercase().contains(&lower)) {
                return Ok((ri, Resolved::Attribute(attr.to_string())));
            }
        }
        let hits = self
            .index
            .match_values(&self.db, term)
            .map_err(|e| SqakError::Unsupported(format!("index probe failed: {e}")))?;
        let best = hits
            .into_iter()
            .filter_map(|m| {
                self.schema.relation_index(&m.relation).map(|ri| (ri, m.attribute, m.tuple_count))
            })
            .min_by_key(|(ri, attr, _)| (*ri, attr.clone()));
        match best {
            Some((ri, attr, matched)) => {
                let total = self.db.table(&self.graph.relations[ri]).map(|t| t.len()).unwrap_or(0);
                if total >= 10 && matched * 10 >= total * 9 {
                    Ok((ri, Resolved::Attribute(attr)))
                } else {
                    Ok((ri, Resolved::Value(attr)))
                }
            }
            None => Err(SqakError::NoMatch(term.to_string())),
        }
    }

    /// For an operand that matched a relation by containment, SQAK binds
    /// the operator to the primary-key attribute sharing the longest
    /// common prefix (≥ 4) with the term — "proceeding" binds to
    /// `procid` of EditorProceeding, not to the whole compound key.
    fn relation_operand_attrs(&self, rel_idx: usize, term: &str) -> Vec<String> {
        let Some(schema) = self.schema.relation(&self.graph.relations[rel_idx]) else {
            return Vec::new();
        };
        let lower = term.to_lowercase();
        let prefix_len = |a: &str| {
            a.to_lowercase().chars().zip(lower.chars()).take_while(|(x, y)| x == y).count()
        };
        if let Some(best) = schema
            .primary_key
            .iter()
            .map(|k| (prefix_len(k), k))
            .filter(|(l, _)| *l >= 4)
            .max_by_key(|(l, _)| *l)
            .map(|(_, k)| k.clone())
        {
            return vec![best];
        }
        schema.primary_key.clone()
    }
}

/// First-letter aliases, numbered within collisions.
fn assign_aliases(rels: &[usize], graph: &SchemaGraph) -> Vec<String> {
    let initial = |s: &str| -> char {
        s.chars().find(|c| c.is_ascii_alphabetic()).unwrap_or('X').to_ascii_uppercase()
    };
    let mut counts = std::collections::HashMap::new();
    for &r in rels {
        *counts.entry(initial(&graph.relations[r])).or_insert(0usize) += 1;
    }
    let mut seen = std::collections::HashMap::new();
    rels.iter()
        .map(|&r| {
            let c = initial(&graph.relations[r]);
            let k = seen.entry(c).or_insert(0usize);
            *k += 1;
            if counts[&c] == 1 {
                c.to_string()
            } else {
                format!("{c}{k}")
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqks_datasets::university;
    use aqks_relational::Value;

    fn sqak() -> Sqak {
        Sqak::new(university::normalized())
    }

    /// Q1: SQAK merges the two Greens into one answer of 13 — the paper's
    /// opening example of an incorrect aggregate.
    #[test]
    fn q1_merges_greens() {
        let r = sqak().answer("Green SUM Credit").unwrap();
        assert_eq!(r.len(), 1, "{r}");
        assert_eq!(r.rows[0].last().unwrap(), &Value::Float(13.0));
    }

    /// Q2: SQAK counts textbook b1 twice for Java (no FK dedup): 35.
    #[test]
    fn q2_overcounts_textbooks() {
        let r = sqak().answer("Java SUM Price").unwrap();
        assert_eq!(r.rows[0].last().unwrap(), &Value::Int(35), "{r}");
    }

    /// Q3 on Figure 2: SQAK joins the duplicated Lecturer rows and counts
    /// the CS department twice.
    #[test]
    fn q3_counts_duplicated_departments() {
        let sqak = Sqak::new(university::unnormalized_fig2());
        let r = sqak.answer("Engineering COUNT Department").unwrap();
        assert_eq!(r.rows[0].last().unwrap(), &Value::Int(2), "{r}");
    }

    /// The paper's first SQL listing: Q1's statement shape.
    #[test]
    fn q1_sql_shape() {
        let g = sqak().generate("Green SUM Credit").unwrap();
        assert!(g.sql_text.contains("SUM(C.Credit)"), "{}", g.sql_text);
        assert!(g.sql_text.contains("GROUP BY S.Sname"), "{}", g.sql_text);
        assert!(!g.sql_text.contains("DISTINCT"), "{}", g.sql_text);
    }

    #[test]
    fn two_aggregates_unsupported() {
        let err = sqak().generate("COUNT Student SUM Credit").unwrap_err();
        assert!(matches!(err, SqakError::Unsupported(_)));
    }

    #[test]
    fn self_join_unsupported() {
        let err = sqak().generate("COUNT Course Green George").unwrap_err();
        assert!(matches!(&err, SqakError::Unsupported(m) if m.contains("self join")), "{err:?}");
    }

    #[test]
    fn nested_aggregate_supported() {
        let s = sqak();
        let r = s.answer("MAX COUNT Student GROUPBY Course").unwrap();
        // c1 has 3 students, the maximum.
        assert_eq!(r.scalar(), Some(&Value::Int(3)), "{r}");
    }

    #[test]
    fn no_match_is_reported() {
        assert!(matches!(sqak().generate("zebra COUNT Course"), Err(SqakError::NoMatch(_))));
    }

    /// A3's failure mode, mechanically: SQAK groups by the matched
    /// attribute (lname), merging every editor named Smith.
    #[test]
    fn a3_groups_by_lname() {
        let db = aqks_datasets::generate_acmdl(&aqks_datasets::AcmdlConfig::small());
        let s = Sqak::new(db);
        let g = s.generate("COUNT proceeding editor Smith").unwrap();
        assert!(g.sql_text.contains("GROUP BY E2.lname"), "{}", g.sql_text);
        let r = s.answer("COUNT proceeding editor Smith").unwrap();
        assert_eq!(r.len(), 1, "{r}");
        // 9 Smiths, one of whom edits two proceedings.
        assert_eq!(r.rows[0].last().unwrap(), &Value::Int(10));
    }

    /// A5's failure mode: grouping by ptitle merges papers sharing a
    /// title into [2, 4, 4, 6].
    #[test]
    fn a5_merges_same_titles() {
        let db = aqks_datasets::generate_acmdl(&aqks_datasets::AcmdlConfig::small());
        let s = Sqak::new(db);
        let r = s.answer(r#"COUNT author "database tuning""#).unwrap();
        let mut counts: Vec<i64> = r
            .rows
            .iter()
            .map(|row| match row.last().unwrap() {
                Value::Int(n) => *n,
                other => panic!("{other:?}"),
            })
            .collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![2, 4, 4, 6]);
    }

    /// Containment matching lets "order" reach "Ordering" — exercised for
    /// real in the unnormalized TPCH' experiments.
    #[test]
    fn relation_containment_resolution() {
        let db = aqks_datasets::denorm::denormalize_tpch(&aqks_datasets::generate_tpch(
            &aqks_datasets::TpchConfig::small(),
        ));
        let s = Sqak::new(db);
        let g = s.generate("order AVG amount").unwrap();
        assert!(g.sql_text.contains("Ordering"), "{}", g.sql_text);
    }
}
