//! In-memory execution of [`SelectStatement`]s.
//!
//! Since the planner/operator split, this module is the stable facade
//! over the two-layer pipeline: [`execute`] lowers the statement into a
//! physical operator tree via [`crate::plan::plan`] and runs it with
//! [`crate::ops::run_plan`], keeping the exact signature and SQL
//! semantics of the original single-pass interpreter.
//!
//! Semantics follow SQL: aggregates skip NULLs; `SUM`/`MIN`/`MAX`/`AVG`
//! over an empty group yield NULL while `COUNT` yields 0; `AVG` is always
//! a float; an aggregate query without GROUP BY returns exactly one row.
//! Additionally, results without an ORDER BY are stably sorted by row
//! value, so answers are reproducible across runs and plan revisions.

use aqks_relational::Database;
// The test suite predates the planner split and reaches these via
// `use super::*`; they are not needed by the facade itself.
#[cfg(test)]
use aqks_relational::Value;

use crate::ast::SelectStatement;
#[cfg(test)]
use crate::ast::{AggFunc, ColumnRef, Predicate, SelectItem, TableExpr};
use crate::result::ResultTable;

/// Errors raised during planning or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A FROM item names a relation that is not in the database.
    UnknownRelation(String),
    /// A column reference does not resolve against the FROM items.
    UnknownColumn(String),
    /// Two FROM items share an alias.
    DuplicateAlias(String),
    /// Statement shape not supported (e.g. empty SELECT list).
    Unsupported(String),
    /// A resource budget tripped while the plan was running (cooperative
    /// cancellation; see `aqks-guard`).
    Budget(aqks_guard::Tripped),
    /// A deterministic failpoint fired (fault-injection builds only).
    Fault(&'static str),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            ExecError::UnknownColumn(c) => write!(f, "unresolved column `{c}`"),
            ExecError::DuplicateAlias(a) => write!(f, "duplicate FROM alias `{a}`"),
            ExecError::Unsupported(m) => write!(f, "unsupported statement: {m}"),
            ExecError::Budget(t) => write!(f, "{t}"),
            ExecError::Fault(site) => write!(f, "injected fault at `{site}`"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<aqks_guard::Tripped> for ExecError {
    fn from(t: aqks_guard::Tripped) -> Self {
        ExecError::Budget(t)
    }
}

impl From<aqks_guard::FailpointError> for ExecError {
    fn from(f: aqks_guard::FailpointError) -> Self {
        ExecError::Fault(f.site)
    }
}

/// Executes `stmt` against `db`. Callers that want the per-operator
/// metrics or more worker threads plan the statement with
/// [`crate::plan::plan`] and run it with [`crate::ops::run_plan_opts`].
pub fn execute(stmt: &SelectStatement, db: &Database) -> Result<ResultTable, ExecError> {
    let plan = crate::plan::plan(stmt, db)?;
    crate::ops::run_plan(&plan, db).map(|(table, _)| table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqks_relational::{AttrType, RelationSchema};

    /// Small Student/Enrol/Course database mirroring Figure 1's left side.
    fn db() -> Database {
        let mut db = Database::new("uni");
        let mut s = RelationSchema::new("Student");
        s.add_attr("Sid", AttrType::Text)
            .add_attr("Sname", AttrType::Text)
            .add_attr("Age", AttrType::Int);
        s.set_primary_key(["Sid"]);
        db.add_relation(s).unwrap();
        let mut c = RelationSchema::new("Course");
        c.add_attr("Code", AttrType::Text)
            .add_attr("Title", AttrType::Text)
            .add_attr("Credit", AttrType::Float);
        c.set_primary_key(["Code"]);
        db.add_relation(c).unwrap();
        let mut e = RelationSchema::new("Enrol");
        e.add_attr("Sid", AttrType::Text)
            .add_attr("Code", AttrType::Text)
            .add_attr("Grade", AttrType::Text);
        e.set_primary_key(["Sid", "Code"]);
        e.add_foreign_key(["Sid"], "Student", ["Sid"]);
        e.add_foreign_key(["Code"], "Course", ["Code"]);
        db.add_relation(e).unwrap();

        for (sid, name, age) in [("s1", "George", 22), ("s2", "Green", 24), ("s3", "Green", 21)] {
            db.insert("Student", vec![Value::str(sid), Value::str(name), Value::Int(age)]).unwrap();
        }
        for (code, title, credit) in
            [("c1", "Java", 5.0), ("c2", "Database", 4.0), ("c3", "Multimedia", 3.0)]
        {
            db.insert("Course", vec![Value::str(code), Value::str(title), Value::Float(credit)])
                .unwrap();
        }
        for (sid, code, g) in [
            ("s1", "c1", "A"),
            ("s1", "c2", "B"),
            ("s1", "c3", "B"),
            ("s2", "c1", "A"),
            ("s3", "c1", "A"),
            ("s3", "c3", "B"),
        ] {
            db.insert("Enrol", vec![Value::str(sid), Value::str(code), Value::str(g)]).unwrap();
        }
        db
    }

    fn col(q: &str, c: &str) -> ColumnRef {
        ColumnRef::new(q, c)
    }

    /// Q1 as SQAK would issue it (paper's first listing): one merged row.
    #[test]
    fn q1_sqak_style_merges_greens() {
        let stmt = SelectStatement {
            items: vec![
                SelectItem::Column { col: col("S", "Sname"), alias: None },
                SelectItem::Aggregate {
                    func: AggFunc::Sum,
                    arg: col("C", "Credit"),
                    distinct: false,
                    alias: "sumCredit".into(),
                },
            ],
            from: vec![
                TableExpr::Relation { name: "Student".into(), alias: "S".into() },
                TableExpr::Relation { name: "Enrol".into(), alias: "E".into() },
                TableExpr::Relation { name: "Course".into(), alias: "C".into() },
            ],
            predicates: vec![
                Predicate::JoinEq(col("E", "Sid"), col("S", "Sid")),
                Predicate::JoinEq(col("E", "Code"), col("C", "Code")),
                Predicate::Contains(col("S", "Sname"), "Green".into()),
            ],
            group_by: vec![col("S", "Sname")],
            ..Default::default()
        };
        let r = execute(&stmt, &db()).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][1], Value::Float(13.0), "5 + (5+3) merged into 13");
    }

    /// The corrected Q1: grouping by Sid separates the two Greens.
    #[test]
    fn q1_semantic_style_distinguishes_greens() {
        let stmt = SelectStatement {
            items: vec![
                SelectItem::Column { col: col("S", "Sid"), alias: None },
                SelectItem::Aggregate {
                    func: AggFunc::Sum,
                    arg: col("C", "Credit"),
                    distinct: false,
                    alias: "sumCredit".into(),
                },
            ],
            from: vec![
                TableExpr::Relation { name: "Student".into(), alias: "S".into() },
                TableExpr::Relation { name: "Enrol".into(), alias: "E".into() },
                TableExpr::Relation { name: "Course".into(), alias: "C".into() },
            ],
            predicates: vec![
                Predicate::JoinEq(col("E", "Sid"), col("S", "Sid")),
                Predicate::JoinEq(col("E", "Code"), col("C", "Code")),
                Predicate::Contains(col("S", "Sname"), "Green".into()),
            ],
            group_by: vec![col("S", "Sid")],
            ..Default::default()
        };
        let r = execute(&stmt, &db()).unwrap().sorted();
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0], vec![Value::str("s2"), Value::Float(5.0)]);
        assert_eq!(r.rows[1], vec![Value::str("s3"), Value::Float(8.0)]);
    }

    #[test]
    fn global_aggregate_without_groupby_returns_one_row() {
        let stmt = SelectStatement {
            items: vec![SelectItem::Aggregate {
                func: AggFunc::Avg,
                arg: col("S", "Age"),
                distinct: false,
                alias: "avgAge".into(),
            }],
            from: vec![TableExpr::Relation { name: "Student".into(), alias: "S".into() }],
            ..Default::default()
        };
        let r = execute(&stmt, &db()).unwrap();
        assert_eq!(r.scalar(), Some(&Value::Float((22.0 + 24.0 + 21.0) / 3.0)));
    }

    #[test]
    fn aggregate_over_empty_input() {
        let stmt = SelectStatement {
            items: vec![
                SelectItem::Aggregate {
                    func: AggFunc::Count,
                    arg: col("S", "Sid"),
                    distinct: false,
                    alias: "n".into(),
                },
                SelectItem::Aggregate {
                    func: AggFunc::Sum,
                    arg: col("S", "Age"),
                    distinct: false,
                    alias: "s".into(),
                },
            ],
            from: vec![TableExpr::Relation { name: "Student".into(), alias: "S".into() }],
            predicates: vec![Predicate::Contains(col("S", "Sname"), "nobody".into())],
            ..Default::default()
        };
        let r = execute(&stmt, &db()).unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn derived_table_in_from() {
        let inner = SelectStatement {
            distinct: true,
            items: vec![SelectItem::Column { col: col("E", "Sid"), alias: None }],
            from: vec![TableExpr::Relation { name: "Enrol".into(), alias: "E".into() }],
            ..Default::default()
        };
        let stmt = SelectStatement {
            items: vec![SelectItem::Aggregate {
                func: AggFunc::Count,
                arg: col("D", "Sid"),
                distinct: false,
                alias: "n".into(),
            }],
            from: vec![TableExpr::Derived { query: Box::new(inner), alias: "D".into() }],
            ..Default::default()
        };
        let r = execute(&stmt, &db()).unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(3)));
    }

    #[test]
    fn self_join_counts_common_courses() {
        // Courses taken by both s1 (George) and s3 (a Green).
        let stmt = SelectStatement {
            items: vec![SelectItem::Aggregate {
                func: AggFunc::Count,
                arg: col("C", "Code"),
                distinct: false,
                alias: "n".into(),
            }],
            from: vec![
                TableExpr::Relation { name: "Course".into(), alias: "C".into() },
                TableExpr::Relation { name: "Enrol".into(), alias: "E1".into() },
                TableExpr::Relation { name: "Enrol".into(), alias: "E2".into() },
            ],
            predicates: vec![
                Predicate::JoinEq(col("C", "Code"), col("E1", "Code")),
                Predicate::JoinEq(col("C", "Code"), col("E2", "Code")),
                Predicate::Eq(col("E1", "Sid"), Value::str("s1")),
                Predicate::Eq(col("E2", "Sid"), Value::str("s3")),
            ],
            ..Default::default()
        };
        let r = execute(&stmt, &db()).unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(2)), "c1 and c3 shared");
    }

    #[test]
    fn count_distinct() {
        let stmt = SelectStatement {
            items: vec![SelectItem::Aggregate {
                func: AggFunc::Count,
                arg: col("E", "Sid"),
                distinct: true,
                alias: "n".into(),
            }],
            from: vec![TableExpr::Relation { name: "Enrol".into(), alias: "E".into() }],
            ..Default::default()
        };
        let r = execute(&stmt, &db()).unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(3)));
    }

    #[test]
    fn min_max_on_strings_and_dates() {
        let stmt = SelectStatement {
            items: vec![
                SelectItem::Aggregate {
                    func: AggFunc::Min,
                    arg: col("S", "Sname"),
                    distinct: false,
                    alias: "lo".into(),
                },
                SelectItem::Aggregate {
                    func: AggFunc::Max,
                    arg: col("S", "Sname"),
                    distinct: false,
                    alias: "hi".into(),
                },
            ],
            from: vec![TableExpr::Relation { name: "Student".into(), alias: "S".into() }],
            ..Default::default()
        };
        let r = execute(&stmt, &db()).unwrap();
        assert_eq!(r.rows[0], vec![Value::str("George"), Value::str("Green")]);
    }

    #[test]
    fn error_on_unknown_relation_and_column() {
        let stmt = SelectStatement {
            items: vec![SelectItem::Column { col: col("X", "a"), alias: None }],
            from: vec![TableExpr::Relation { name: "Nope".into(), alias: "X".into() }],
            ..Default::default()
        };
        assert!(matches!(execute(&stmt, &db()), Err(ExecError::UnknownRelation(_))));

        let stmt = SelectStatement {
            items: vec![SelectItem::Column { col: col("S", "missing"), alias: None }],
            from: vec![TableExpr::Relation { name: "Student".into(), alias: "S".into() }],
            ..Default::default()
        };
        assert!(matches!(execute(&stmt, &db()), Err(ExecError::UnknownColumn(_))));
    }

    #[test]
    fn duplicate_alias_rejected() {
        let stmt = SelectStatement {
            items: vec![SelectItem::Column { col: col("S", "Sid"), alias: None }],
            from: vec![
                TableExpr::Relation { name: "Student".into(), alias: "S".into() },
                TableExpr::Relation { name: "Enrol".into(), alias: "s".into() },
            ],
            ..Default::default()
        };
        assert!(matches!(execute(&stmt, &db()), Err(ExecError::DuplicateAlias(_))));
    }

    #[test]
    fn nested_aggregate_example7_shape() {
        // AVG over a grouped COUNT, paper Example 7 shape on Enrol:
        // average number of students per course = 6 enrolments / 3 courses.
        let inner = SelectStatement {
            items: vec![
                SelectItem::Column { col: col("E", "Code"), alias: None },
                SelectItem::Aggregate {
                    func: AggFunc::Count,
                    arg: col("E", "Sid"),
                    distinct: false,
                    alias: "numSid".into(),
                },
            ],
            from: vec![TableExpr::Relation { name: "Enrol".into(), alias: "E".into() }],
            group_by: vec![col("E", "Code")],
            ..Default::default()
        };
        let outer = SelectStatement {
            items: vec![SelectItem::Aggregate {
                func: AggFunc::Avg,
                arg: col("R", "numSid"),
                distinct: false,
                alias: "avgnumSid".into(),
            }],
            from: vec![TableExpr::Derived { query: Box::new(inner), alias: "R".into() }],
            ..Default::default()
        };
        let r = execute(&outer, &db()).unwrap();
        assert_eq!(r.scalar(), Some(&Value::Float(2.0)));
    }

    /// The greedy join order makes FROM-clause order irrelevant to the
    /// result (and avoids the Part x Supplier cross product a naive
    /// left-to-right fold would build for chain joins).
    #[test]
    fn from_order_does_not_change_results() {
        let base = SelectStatement {
            items: vec![
                SelectItem::Column { col: col("S", "Sid"), alias: None },
                SelectItem::Aggregate {
                    func: AggFunc::Count,
                    arg: col("C", "Code"),
                    distinct: false,
                    alias: "n".into(),
                },
            ],
            from: vec![
                TableExpr::Relation { name: "Student".into(), alias: "S".into() },
                TableExpr::Relation { name: "Course".into(), alias: "C".into() },
                TableExpr::Relation { name: "Enrol".into(), alias: "E".into() },
            ],
            predicates: vec![
                Predicate::JoinEq(col("E", "Sid"), col("S", "Sid")),
                Predicate::JoinEq(col("E", "Code"), col("C", "Code")),
            ],
            group_by: vec![col("S", "Sid")],
            ..Default::default()
        };
        let db = db();
        let reference = execute(&base, &db).unwrap().sorted();
        // Student and Course are not directly joined: with left-to-right
        // folding this order would cross-join them first.
        let mut permuted = base.clone();
        permuted.from.rotate_left(1);
        assert_eq!(execute(&permuted, &db).unwrap().sorted().rows, reference.rows);
        let mut permuted = base;
        permuted.from.swap(0, 2);
        assert_eq!(execute(&permuted, &db).unwrap().sorted().rows, reference.rows);
    }

    #[test]
    fn order_by_and_limit() {
        use crate::ast::OrderKey;
        // Top-2 students by enrolment count, descending.
        let stmt = SelectStatement {
            items: vec![
                SelectItem::Column { col: col("E", "Sid"), alias: None },
                SelectItem::Aggregate {
                    func: AggFunc::Count,
                    arg: col("E", "Code"),
                    distinct: false,
                    alias: "n".into(),
                },
            ],
            from: vec![TableExpr::Relation { name: "Enrol".into(), alias: "E".into() }],
            group_by: vec![col("E", "Sid")],
            order_by: vec![
                OrderKey { column: col("", "n"), desc: true },
                OrderKey { column: col("", "Sid"), desc: false },
            ],
            limit: Some(2),
            ..Default::default()
        };
        let r = execute(&stmt, &db()).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0], vec![Value::str("s1"), Value::Int(3)]);
        assert_eq!(r.rows[1], vec![Value::str("s3"), Value::Int(2)]);
        // Rendering includes the clauses.
        let text = stmt.to_string();
        assert!(text.contains("ORDER BY .n DESC, .Sid") || text.contains("ORDER BY"), "{text}");
        assert!(text.contains("LIMIT 2"), "{text}");
    }

    #[test]
    fn order_by_unknown_column_errors() {
        use crate::ast::OrderKey;
        let stmt = SelectStatement {
            items: vec![SelectItem::Column { col: col("S", "Sid"), alias: None }],
            from: vec![TableExpr::Relation { name: "Student".into(), alias: "S".into() }],
            order_by: vec![OrderKey { column: col("S", "nope"), desc: false }],
            ..Default::default()
        };
        assert!(matches!(execute(&stmt, &db()), Err(ExecError::UnknownColumn(_))));
    }

    #[test]
    fn sum_over_text_is_null() {
        let stmt = SelectStatement {
            items: vec![SelectItem::Aggregate {
                func: AggFunc::Sum,
                arg: col("S", "Sname"),
                distinct: false,
                alias: "s".into(),
            }],
            from: vec![TableExpr::Relation { name: "Student".into(), alias: "S".into() }],
            ..Default::default()
        };
        let r = execute(&stmt, &db()).unwrap();
        assert_eq!(r.scalar(), Some(&Value::Null));
    }

    #[test]
    fn null_join_keys_never_match() {
        let mut db = db();
        db.insert("Enrol", vec![Value::Null, Value::str("c2"), Value::str("C")]).unwrap();
        let stmt = SelectStatement {
            items: vec![SelectItem::Aggregate {
                func: AggFunc::Count,
                arg: col("E", "Code"),
                distinct: false,
                alias: "n".into(),
            }],
            from: vec![
                TableExpr::Relation { name: "Student".into(), alias: "S".into() },
                TableExpr::Relation { name: "Enrol".into(), alias: "E".into() },
            ],
            predicates: vec![Predicate::JoinEq(col("S", "Sid"), col("E", "Sid"))],
            ..Default::default()
        };
        let r = execute(&stmt, &db).unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(6)), "NULL Sid row must not join");
    }
}
