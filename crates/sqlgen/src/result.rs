//! Query results: a small column-named row set with deterministic
//! ordering helpers and pretty printing for the evaluation harness.

use std::collections::HashSet;
use std::fmt;

use aqks_relational::{Row, Value};

/// The result of executing a [`crate::SelectStatement`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResultTable {
    /// Output column names, in SELECT order.
    pub columns: Vec<String>,
    /// Result tuples.
    pub rows: Vec<Row>,
}

impl ResultTable {
    /// Creates an empty result with the given columns.
    pub fn new(columns: Vec<String>) -> Self {
        ResultTable { columns, rows: Vec::new() }
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Number of result rows — the explicit-name alias of
    /// [`ResultTable::len`], for call sites where `len` reads as byte or
    /// column count.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of an output column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.eq_ignore_ascii_case(name))
    }

    /// All values of one column.
    pub fn column(&self, name: &str) -> Option<Vec<&Value>> {
        let i = self.column_index(name)?;
        Some(self.rows.iter().map(|r| &r[i]).collect())
    }

    /// The single value of a 1x1 result, if it is one.
    pub fn scalar(&self) -> Option<&Value> {
        if self.rows.len() == 1 && self.columns.len() == 1 {
            Some(&self.rows[0][0])
        } else {
            None
        }
    }

    /// Returns the rows sorted lexicographically — the deterministic
    /// presentation used in tests and in EXPERIMENTS.md.
    pub fn sorted(mut self) -> Self {
        self.rows.sort();
        self
    }

    /// Removes duplicate rows in place (used for `SELECT DISTINCT`).
    pub fn dedup_rows(&mut self) {
        let mut seen = HashSet::new();
        self.rows.retain(|r| seen.insert(r.clone()));
    }
}

impl fmt::Display for ResultTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> =
            self.rows.iter().map(|r| r.iter().map(Value::to_string).collect()).collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect();
            writeln!(f, "| {} |", padded.join(" | "))
        };
        line(f, &self.columns.to_vec())?;
        let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(f, "|-{}-|", dashes.join("-|-"))?;
        for row in &rendered {
            line(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ResultTable {
        ResultTable {
            columns: vec!["Sid".into(), "numCode".into()],
            rows: vec![
                vec![Value::str("s3"), Value::Int(2)],
                vec![Value::str("s2"), Value::Int(1)],
            ],
        }
    }

    #[test]
    fn sorted_orders_rows() {
        let t = table().sorted();
        assert_eq!(t.rows[0][0], Value::str("s2"));
    }

    #[test]
    fn scalar_only_for_1x1() {
        assert!(table().scalar().is_none());
        let t = ResultTable { columns: vec!["n".into()], rows: vec![vec![Value::Int(4)]] };
        assert_eq!(t.scalar(), Some(&Value::Int(4)));
    }

    #[test]
    fn column_lookup_case_insensitive() {
        let t = table();
        assert_eq!(t.column("NUMCODE").unwrap().len(), 2);
        assert!(t.column("missing").is_none());
    }

    #[test]
    fn dedup_rows_removes_exact_duplicates() {
        let mut t = table();
        t.rows.push(vec![Value::str("s2"), Value::Int(1)]);
        t.dedup_rows();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn display_renders_markdown_style() {
        let s = table().sorted().to_string();
        assert!(s.starts_with("| Sid | numCode |"), "{s}");
        assert!(s.contains("| s2  | 1"), "{s}");
    }
}
