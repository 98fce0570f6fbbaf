//! The analyzer driver: walks a statement tree and runs every pass.

use aqks_orm::OrmGraph;
use aqks_relational::DatabaseSchema;
use aqks_sqlgen::SelectStatement;

use crate::diagnostics::Report;
use crate::fdmodel::StmtFds;
use crate::passes::{Findings, PASSES};
use crate::scope::Scope;

/// Everything a pass may look at while checking one statement.
pub(crate) struct StmtContext<'a> {
    /// The statement under scrutiny (root or a derived-table subquery).
    pub stmt: &'a SelectStatement,
    /// Resolved FROM items of this statement.
    pub scope: &'a Scope<'a>,
    /// The database schema the statement runs against.
    pub schema: &'a DatabaseSchema,
    /// ORM graph over the schema, when the caller has one.
    pub graph: Option<&'a OrmGraph>,
    /// Flattened FD model of this statement.
    pub fds: &'a StmtFds,
}

/// Static semantic analyzer for generated `SELECT` statements.
pub struct Analyzer<'a> {
    schema: &'a DatabaseSchema,
    graph: Option<&'a OrmGraph>,
}

impl<'a> Analyzer<'a> {
    /// Creates an analyzer for `schema`.
    pub fn new(schema: &'a DatabaseSchema) -> Analyzer<'a> {
        Analyzer { schema, graph: None }
    }

    /// Additionally consults an ORM graph when validating joins (P3).
    pub fn with_graph(mut self, graph: &'a OrmGraph) -> Analyzer<'a> {
        self.graph = Some(graph);
        self
    }

    /// Analyzes `stmt` and every derived-table subquery; returns all
    /// findings, root statement first.
    pub fn analyze(&self, stmt: &SelectStatement) -> Report {
        let mut report = Report::default();
        stmt.walk(&mut |path, sub| {
            let scope = Scope::build(sub, self.schema);
            let fds = StmtFds::build(sub, &scope);
            let cx = StmtContext {
                stmt: sub,
                scope: &scope,
                schema: self.schema,
                graph: self.graph,
                fds: &fds,
            };
            for pass in &PASSES {
                // Per-pass timing and finding counts, recorded only when
                // a trace span is ambient (the engine's `analyze` phase).
                let span = aqks_obs::current().map(|r| r.span(format!("pass:{}", pass.name)));
                let before = report.diagnostics.len();
                (pass.check)(&cx, &mut Findings { pass, path, out: &mut report.diagnostics });
                if let Some(span) = &span {
                    span.add("findings", (report.diagnostics.len() - before) as u64);
                }
            }
        });
        report
    }
}

/// Analyzes one statement against a schema.
pub fn analyze(stmt: &SelectStatement, schema: &DatabaseSchema) -> Report {
    Analyzer::new(schema).analyze(stmt)
}
