//! Workspace-level tests of the `aqks-analyze` static analyzer: one
//! positive and one negative case per pass on the university schema, and
//! the regression the analyzer exists for — SQAK's duplicate-inflated
//! aggregate on the Figure 2 database is flagged `AQ-P5` while the paper
//! engine's translation of the same query is clean.

use aqks::analyze::{analyze, Severity};
use aqks::datasets::university;
use aqks::relational::{AttrType, DatabaseSchema, RelationSchema};
use aqks::sqlgen::{AggFunc, ColumnRef, Predicate, SelectItem, SelectStatement, TableExpr};

fn schema() -> DatabaseSchema {
    university::normalized().schema()
}

fn rel(name: &str, alias: &str) -> TableExpr {
    TableExpr::Relation { name: name.into(), alias: alias.into() }
}

fn col(q: &str, c: &str) -> SelectItem {
    SelectItem::Column { col: ColumnRef::new(q, c), alias: None }
}

fn agg(func: AggFunc, q: &str, c: &str, alias: &str) -> SelectItem {
    SelectItem::Aggregate { func, arg: ColumnRef::new(q, c), distinct: false, alias: alias.into() }
}

/// The paper's Example 5 shape: a correct grouped aggregate over
/// Student–Enrol–Course. Every pass comes back clean.
fn example5() -> SelectStatement {
    SelectStatement {
        items: vec![col("S", "Sid"), agg(AggFunc::Count, "C", "Code", "numCode")],
        from: vec![rel("Course", "C"), rel("Enrol", "E"), rel("Student", "S")],
        predicates: vec![
            Predicate::JoinEq(ColumnRef::new("C", "Code"), ColumnRef::new("E", "Code")),
            Predicate::JoinEq(ColumnRef::new("S", "Sid"), ColumnRef::new("E", "Sid")),
            Predicate::Contains(ColumnRef::new("S", "Sname"), "Green".into()),
        ],
        group_by: vec![ColumnRef::new("S", "Sid")],
        ..Default::default()
    }
}

#[test]
fn well_formed_statement_is_clean() {
    let report = analyze(&example5(), &schema());
    assert!(report.is_clean(), "{report:?}");
}

// ── AQ-P1: name resolution ───────────────────────────────────────────

#[test]
fn p1_flags_unknown_names() {
    let mut stmt = example5();
    stmt.items[0] = col("S", "Nickname"); // no such column
    stmt.predicates.push(Predicate::Contains(ColumnRef::new("Z", "Sname"), "x".into()));
    let report = analyze(&stmt, &schema());
    assert!(report.has_code("AQ-P1"), "{report:?}");
    assert!(report.has_errors());

    let mut stmt = example5();
    stmt.from.push(rel("Dormitory", "D")); // no such relation
    assert!(analyze(&stmt, &schema()).has_code("AQ-P1"));
}

#[test]
fn p1_accepts_output_names_in_order_by_only() {
    let mut stmt = example5();
    stmt.order_by =
        vec![aqks::sqlgen::ast::OrderKey { column: ColumnRef::new("", "numCode"), desc: true }];
    assert!(analyze(&stmt, &schema()).is_clean());

    // The same unqualified name in GROUP BY is an error.
    let mut stmt = example5();
    stmt.group_by.push(ColumnRef::new("", "numCode"));
    assert!(analyze(&stmt, &schema()).has_code("AQ-P1"));
}

// ── AQ-P2: type checking ─────────────────────────────────────────────

#[test]
fn p2_flags_numeric_aggregates_over_text() {
    let mut stmt = example5();
    stmt.items[1] = agg(AggFunc::Sum, "C", "Title", "sumTitle"); // text column
    let report = analyze(&stmt, &schema());
    assert!(report.has_code("AQ-P2"), "{report:?}");

    // MIN over text is fine (lexicographic), as is SUM over a numeric.
    let mut stmt = example5();
    stmt.items[1] = agg(AggFunc::Min, "C", "Title", "minTitle");
    assert!(analyze(&stmt, &schema()).is_clean());
    let mut stmt = example5();
    stmt.items[1] = agg(AggFunc::Sum, "C", "Credit", "sumCredit");
    assert!(analyze(&stmt, &schema()).is_clean());
}

#[test]
fn p2_flags_contains_on_numeric_columns() {
    let mut stmt = example5();
    stmt.predicates[2] = Predicate::Contains(ColumnRef::new("S", "Age"), "12".into());
    let report = analyze(&stmt, &schema());
    assert!(report.has_code("AQ-P2"), "{report:?}");
    assert!(report.has_errors());
}

// ── AQ-P3: join validity ─────────────────────────────────────────────

#[test]
fn p3_flags_joins_off_the_schema_structure() {
    let mut stmt = example5();
    // Student.Sname = Course.Title: same types, no FK, different names.
    stmt.predicates[0] =
        Predicate::JoinEq(ColumnRef::new("S", "Sname"), ColumnRef::new("C", "Title"));
    let report = analyze(&stmt, &schema());
    assert!(report.has_code("AQ-P3"), "{report:?}");
}

#[test]
fn p3_accepts_declared_foreign_keys_both_ways() {
    // example5 joins along Enrol->Course and Enrol->Student FKs, written
    // with the referenced side on the left.
    assert!(!analyze(&example5(), &schema()).has_code("AQ-P3"));
}

// ── AQ-P4: aggregate well-formedness ─────────────────────────────────

#[test]
fn p4_flags_ungrouped_select_columns() {
    let mut stmt = example5();
    stmt.items.insert(1, col("S", "Sname")); // selected, not grouped
    let report = analyze(&stmt, &schema());
    assert!(report.has_code("AQ-P4"), "{report:?}");

    // Adding it to GROUP BY fixes the statement.
    let mut stmt = example5();
    stmt.items.insert(1, col("S", "Sname"));
    stmt.group_by.push(ColumnRef::new("S", "Sname"));
    assert!(analyze(&stmt, &schema()).is_clean());
}

#[test]
fn p4_flags_distinct_with_aggregates() {
    let mut stmt = example5();
    stmt.distinct = true;
    assert!(analyze(&stmt, &schema()).has_code("AQ-P4"));
}

// ── AQ-P5: duplicate inflation ───────────────────────────────────────

/// SQAK's Q1 shape: grouping by the text-matched Sname merges the two
/// students named Green (Section 2's motivating wrong answer).
#[test]
fn p5_flags_grouping_by_matched_non_key() {
    let mut stmt = example5();
    stmt.items[0] = col("S", "Sname");
    stmt.group_by = vec![ColumnRef::new("S", "Sname")];
    let report = analyze(&stmt, &schema());
    assert!(report.has_code("AQ-P5"), "{report:?}");
    assert!(report.errors().all(|d| d.severity == Severity::Error));
}

/// R(A, B, C) with key A and the declared non-key FD B -> C: grouped by
/// B, SUM(C) reads one copy of C per A, so rows duplicated along B -> C
/// inflate it. Grouping by the key A reads each row once.
#[test]
fn p5_flags_sum_over_rows_duplicated_along_a_non_key_fd() {
    let mut r = RelationSchema::new("R");
    r.add_attr("A", AttrType::Int).add_attr("B", AttrType::Text).add_attr("C", AttrType::Int);
    r.set_primary_key(["A"]);
    r.add_fd(["B"], ["C"]);
    let schema = DatabaseSchema { relations: vec![r] };
    let by = |key: &str| SelectStatement {
        items: vec![col("R", key), agg(AggFunc::Sum, "R", "C", "sumc")],
        from: vec![rel("R", "R")],
        group_by: vec![ColumnRef::new("R", key)],
        ..Default::default()
    };
    let report = analyze(&by("B"), &schema);
    assert!(report.has_code("AQ-P5"), "{report:?}");
    assert!(analyze(&by("A"), &schema).is_clean());
}

/// Regression: on the Figure 2 unnormalized database, SQAK's translation
/// of "Engineering COUNT Department" joins duplicated Lecturer rows and
/// counts 2 departments where there is 1. The analyzer must flag the
/// SQAK statement `AQ-P5` and keep the paper engine's statement clean.
#[test]
fn p5_regression_fig2_sqak_vs_engine() {
    let db = university::unnormalized_fig2();
    let schema = db.schema();

    let sqak = aqks::sqak::Sqak::new(db.clone());
    let bad = sqak.generate("Engineering COUNT Department").unwrap();
    let report = analyze(&bad.sql, &schema);
    assert!(report.has_code("AQ-P5"), "{}\n{report:?}", bad.sql_text);
    assert!(report.has_errors());

    let engine = aqks::core::Engine::new(db).unwrap();
    let good = engine.generate("Engineering COUNT Department", 1).unwrap();
    assert!(!good.is_empty());
    for g in &good {
        assert_eq!(g.diagnostics.error_count(), 0, "{}\n{:?}", g.sql_text, g.diagnostics);
    }
}

/// The Figure 8 database end to end: the engine's rewritten statement
/// (raw Enrolment self-join after the Section 4.1 rules) stays clean even
/// though it scans an unnormalized relation.
#[test]
fn p5_accepts_lossless_rewrites_over_unnormalized_relations() {
    let db = university::enrolment_fig8();
    let engine = aqks::core::Engine::new(db).unwrap();
    let generated = engine.generate("Green George COUNT Code", 1).unwrap();
    assert!(generated[0].sql_text.contains("Enrolment"), "{}", generated[0].sql_text);
    assert!(generated[0].diagnostics.is_clean(), "{:?}", generated[0].diagnostics);
}
