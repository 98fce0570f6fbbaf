//! The end-to-end engine (Algorithm 2).
//!
//! [`Engine::new`] inspects the database: if every relation is in 3NF
//! (under its declared FDs) the ORM schema graph is built directly on the
//! schema; otherwise Algorithm 1 builds the normalized view `D'` first
//! and everything — matching, pattern generation, translation — runs over
//! `D'`, with the final SQL mapped back to the original relations and
//! simplified by the Section 4.1 rewrite rules.
//!
//! [`Engine::generate`] produces the ranked SQL statements (what
//! Figure 11 times); [`Engine::run`] additionally executes them, under
//! the budget and trace setting of an [`AnswerRequest`] —
//! [`Engine::answer`] is its unlimited, untraced case.

use std::time::Instant;

use aqks_analyze::{Analyzer, Report};
use aqks_guard::{Budget, Exhaustion, Governor};
use aqks_obs::metrics::{Counter, Gauge, Histogram, Registry, Unit};
use aqks_obs::{PipelineTrace, Recorder, SpanNode};
use aqks_orm::OrmGraph;
use aqks_plancheck::Election;
use aqks_relational::{Database, DatabaseSchema, NormalizedView};
use aqks_sqlgen::{ExecStats, ResultTable, SelectStatement};

use crate::annotate::disambiguate;
use crate::error::CoreError;
use crate::matching::{Matcher, TermMatch, TermRole};
use crate::pattern::{generate_patterns, QueryPattern};
use crate::query::{KeywordQuery, Operator, Term};
use crate::rank::rank_patterns;
use crate::translate::{translate_ex, TranslateOptions};
use crate::unnormalized::{rewrite, RewriteOptions};

/// Answered keyword queries (every metered [`Engine::run`] call).
static QUERIES: Counter = Counter::new("aqks_engine_queries");

/// End-to-end `answer` latency.
static ANSWER_NS: Histogram = Histogram::new("aqks_engine_answer_ns", Unit::Nanos);

/// Total result rows per answered query, summed over interpretations.
static RESULT_ROWS: Histogram = Histogram::new("aqks_engine_result_rows", Unit::Count);

/// Cells held by the projection memo of the database a metered run last
/// filled.
static MEMO_CELLS: Gauge = Gauge::new("aqks_exec_memo_cells");

/// The top-level pipeline phases `aqks_engine_phase_ns{phase}` times.
/// The set is closed so the histogram's cardinality is bounded by the
/// pipeline's shape.
const PHASES: [&str; 11] = [
    "parse",
    "match",
    "pattern",
    "annotate",
    "rank",
    "translate",
    "analyze",
    "plan",
    "plancheck",
    "exec",
    "guard",
];

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Translation rules (ablation switches).
    pub translate: TranslateOptions,
    /// Rewrite rules for unnormalized databases (ablation switches).
    pub rewrite: RewriteOptions,
    /// Skip the Section 4.1 rewriting entirely when true.
    pub skip_rewrites: bool,
    /// Run instance-level FD discovery before deciding whether the
    /// database is normalized — for unnormalized databases whose schema
    /// declares no FDs (the paper assumes FDs are given; a deployed
    /// system has to mine them).
    pub discover_fds: bool,
}

/// A generated (not yet executed) interpretation.
#[derive(Debug, Clone)]
pub struct GeneratedSql {
    /// The annotated query pattern.
    pub pattern: QueryPattern,
    /// The SQL statement.
    pub sql: SelectStatement,
    /// Rendered SQL text.
    pub sql_text: String,
    /// The pattern's rank key (smaller ranks first); interpretations are
    /// returned in rank order.
    pub score: crate::rank::RankKey,
    /// Findings of the static analyzer (`aqks-analyze`) on `sql`. Debug
    /// builds refuse to return statements with error-severity findings;
    /// release builds record them here.
    pub diagnostics: Report,
}

/// An executed interpretation.
#[derive(Debug, Clone)]
pub struct Interpretation {
    /// Human-readable pattern description.
    pub pattern_description: String,
    /// The SQL statement.
    pub sql: SelectStatement,
    /// Rendered SQL text.
    pub sql_text: String,
    /// The answer rows (deterministically sorted).
    pub result: ResultTable,
    /// Per-operator execution metrics of the physical plan that produced
    /// [`Interpretation::result`] (see [`aqks_sqlgen::render_plan_with_stats`]).
    pub stats: ExecStats,
}

/// One [`Engine::run`] call: how many interpretations to answer, under
/// which [`Budget`], and whether to return the [`PipelineTrace`].
#[derive(Debug, Clone)]
pub struct AnswerRequest {
    /// Top-`k` interpretations to translate and execute.
    pub k: usize,
    /// Resource limits; [`Budget::unlimited`] installs no governor.
    pub budget: Budget,
    /// Return the pipeline trace in [`Answered::trace`].
    pub trace: bool,
}

impl AnswerRequest {
    /// The top-`k` answers, unlimited and untraced.
    pub fn new(k: usize) -> AnswerRequest {
        AnswerRequest { k, budget: Budget::unlimited(), trace: false }
    }
}

/// The outcome of [`Engine::run`]. `exhaustion` is `None` when the call
/// completed within its budget; when set, `interpretations` holds
/// whatever completed before the trip (possibly nothing — see
/// [`Exhaustion::partial`]).
#[derive(Debug, Clone)]
pub struct Answered {
    /// The executed interpretations, in rank order.
    pub interpretations: Vec<Interpretation>,
    /// Which budget tripped, where, and whether results are partial.
    pub exhaustion: Option<Exhaustion>,
    /// The pipeline trace, present exactly when the request asked.
    pub trace: Option<PipelineTrace>,
}

/// How one query term matched the database (see [`Engine::explain`]).
#[derive(Debug, Clone)]
pub struct TermReport {
    /// The term's text (operators in their keyword form).
    pub term: String,
    /// True for aggregate/GROUPBY operators.
    pub is_operator: bool,
    /// Human-readable descriptions of each match.
    pub matches: Vec<String>,
}

/// One ranked interpretation in an [`Explanation`].
#[derive(Debug, Clone)]
pub struct PatternReport {
    /// One-line pattern description.
    pub description: String,
    /// Graphviz rendering of the pattern.
    pub dot: String,
    /// The rank key (smaller ranks first).
    pub score: crate::rank::RankKey,
}

/// The interpretation trace of a query (see [`Engine::explain`]).
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Per-term match reports, in query order.
    pub terms: Vec<TermReport>,
    /// All generated patterns, ranked best-first.
    pub patterns: Vec<PatternReport>,
}

/// The front end's output: the parsed query, each term's matches (in
/// query order), and the annotated patterns ranked best-first.
struct FrontEnd {
    query: KeywordQuery,
    matches: Vec<Vec<TermMatch>>,
    ranked: Vec<QueryPattern>,
}

/// The semantic keyword-search engine.
///
/// `Engine` is `Send + Sync`: after construction every field is
/// immutable (schema, ORM graph, inverted index), and each call's
/// telemetry lives in a recorder of its own, so one engine can be
/// shared across a worker pool via `Arc` — the query server does
/// exactly that.
pub struct Engine {
    db: Database,
    original_schema: DatabaseSchema,
    namespace: DatabaseSchema,
    graph: OrmGraph,
    matcher: Matcher,
    view: Option<NormalizedView>,
    options: EngineOptions,
    /// Worker threads for parallel plan execution (1 = sequential).
    threads: usize,
}

/// Compile-time proof that a shared engine can cross a worker-pool
/// boundary: a future non-`Sync` interior cache is a build error here,
/// not a data race in production (mirrors `sqlgen::par`'s asserts).
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<Engine>();
const _: () = assert_send_sync::<std::sync::Arc<Engine>>();
const _: () = assert_send_sync::<AnswerRequest>();
const _: () = assert_send_sync::<Answered>();
const _: () = assert_send_sync::<Interpretation>();
const _: () = assert_send_sync::<CoreError>();

impl Engine {
    /// Builds an engine with default options.
    pub fn new(db: Database) -> Result<Engine, CoreError> {
        Engine::with_options(db, EngineOptions::default())
    }

    /// Builds an engine with explicit options.
    pub fn with_options(mut db: Database, options: EngineOptions) -> Result<Engine, CoreError> {
        if options.discover_fds {
            db.discover_and_declare_fds(&aqks_relational::DiscoveryOptions::default());
        }
        let schema = db.schema();
        if NormalizedView::is_normalized(&schema) {
            let graph = OrmGraph::build(&schema)?;
            let matcher = Matcher::normalized(&db);
            Ok(Engine {
                db,
                original_schema: schema.clone(),
                namespace: schema,
                graph,
                matcher,
                view: None,
                options,
                threads: 1,
            })
        } else {
            let view = NormalizedView::build(&schema);
            let namespace = view.schema();
            let graph = OrmGraph::build(&namespace)?;
            let matcher = Matcher::unnormalized(&db, view.clone());
            Ok(Engine {
                db,
                original_schema: schema,
                namespace,
                graph,
                matcher,
                view: Some(view),
                options,
                threads: 1,
            })
        }
    }

    /// Sets the worker thread count for plan execution. Results are
    /// identical at every value (the executor's merge orders are
    /// deterministic); only wall time changes. Clamped to at least 1.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The configured worker thread count for plan execution.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when the database required a normalized view (Section 4).
    pub fn is_unnormalized(&self) -> bool {
        self.view.is_some()
    }

    /// The ORM schema graph the engine works over.
    pub fn orm_graph(&self) -> &OrmGraph {
        &self.graph
    }

    /// The pattern-namespace schema (`D` or `D'`).
    pub fn namespace(&self) -> &DatabaseSchema {
        &self.namespace
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Parses, matches, generates, ranks, and translates — everything but
    /// execution. This is the work Figure 11 measures.
    ///
    /// Library panics are caught at this boundary and surface as
    /// [`CoreError::Internal`].
    pub fn generate(&self, query: &str, k: usize) -> Result<Vec<GeneratedSql>, CoreError> {
        shielded(|| self.generate_inner(&Recorder::disabled(), query, k))
    }

    /// [`Engine::generate`] with each interpretation lowered to its
    /// physical plan — the input shape the shared-subplan view
    /// (`aqks-equiv`) and the CLI's `--equiv`/`--shared` surfaces
    /// consume: one `(statement, plan)` pair per interpretation.
    pub fn interpretation_plans(
        &self,
        query: &str,
        k: usize,
    ) -> Result<Vec<(GeneratedSql, aqks_sqlgen::PlanNode)>, CoreError> {
        let generated = self.generate(query, k)?;
        let mut out = Vec::with_capacity(generated.len());
        for g in generated {
            let plan = aqks_sqlgen::plan(&g.sql, &self.db)?;
            out.push((g, plan));
        }
        Ok(out)
    }

    /// The front end [`Engine::generate`] and [`Engine::explain`] share:
    /// parse, match, pattern, annotate, rank — one span per phase.
    fn front_end(&self, rec: &Recorder, query: &str) -> Result<FrontEnd, CoreError> {
        let query = {
            let _s = rec.span("parse");
            KeywordQuery::parse(query)?
        };
        let matches = {
            let s = rec.span("match");
            let matches = self.term_matches(&query)?;
            s.add("matches.total", matches.iter().map(Vec::len).sum::<usize>() as u64);
            matches
        };
        let patterns = {
            let s = rec.span("pattern");
            let patterns = generate_patterns(&query, &matches, &self.graph, &self.namespace)?;
            s.add("patterns.generated", patterns.len() as u64);
            patterns
        };
        let patterns = {
            let _s = rec.span("annotate");
            disambiguate(patterns, &self.namespace)
        };
        let ranked = {
            let s = rec.span("rank");
            let ranked = rank_patterns(patterns);
            s.add("patterns.ranked", ranked.len() as u64);
            ranked
        };
        Ok(FrontEnd { query, matches, ranked })
    }

    fn generate_inner(
        &self,
        rec: &Recorder,
        query: &str,
        k: usize,
    ) -> Result<Vec<GeneratedSql>, CoreError> {
        let patterns = self.front_end(rec, query)?.ranked;

        // Translate all top-k patterns, then analyze all statements, so a
        // trace shows exactly one `translate` and one `analyze` phase.
        let translated = {
            let s = rec.span("translate");
            let mut translated = Vec::new();
            for p in patterns.into_iter().take(k) {
                // Each translated pattern is one interpretation charged
                // against the budget; on a trip the interpretations
                // finished so far are kept as partials.
                if aqks_guard::charge_interpretations("engine.translate", 1).is_err()
                    || aqks_guard::checkpoint("engine.translate").is_err()
                {
                    break;
                }
                let t = translate_ex(
                    &p,
                    &self.graph,
                    &self.namespace,
                    self.view.as_ref(),
                    &self.options.translate,
                )?;
                let sql = if self.view.is_some() && !self.options.skip_rewrites {
                    rewrite(&t.stmt, &t.derived_keys, &self.original_schema, &self.options.rewrite)
                } else {
                    t.stmt
                };
                let sql_text = sql.to_string();
                translated.push((p, sql, sql_text));
            }
            s.add("patterns.translated", translated.len() as u64);
            translated
        };

        let _s = rec.span("analyze");
        let mut out = Vec::with_capacity(translated.len());
        for (p, sql, sql_text) in translated {
            let diagnostics = self.analyze(&sql);
            if cfg!(debug_assertions) && diagnostics.has_errors() {
                return Err(CoreError::Analysis(format!(
                    "{}\n{sql_text}",
                    diagnostics.render(&sql).trim_end()
                )));
            }
            let score = crate::rank::rank_key(&p);
            out.push(GeneratedSql { pattern: p, sql, sql_text, score, diagnostics });
        }
        Ok(out)
    }

    /// Statically analyzes a generated statement. Base relations in the
    /// final SQL always come from the original schema — normalized-view
    /// relations only ever appear as derived projections *over* original
    /// relations — so the analysis resolves against it. The ORM graph
    /// describes the namespace, so pass P3 consults it only when the two
    /// schemas coincide (no view).
    fn analyze(&self, sql: &SelectStatement) -> Report {
        let analyzer = Analyzer::new(&self.original_schema);
        if self.view.is_none() {
            analyzer.with_graph(&self.graph).analyze(sql)
        } else {
            analyzer.analyze(sql)
        }
    }

    /// Full Algorithm 2: generate the top-`k` interpretations and execute
    /// them against the database — [`Engine::run`] with an unlimited,
    /// untraced request.
    pub fn answer(&self, query: &str, k: usize) -> Result<Vec<Interpretation>, CoreError> {
        self.run(query, &AnswerRequest::new(k)).map(|a| a.interpretations)
    }

    /// Answers `query` as `req` asks — the one entry point behind
    /// [`Engine::answer`], the CLI, the query server, and the harnesses.
    ///
    /// Under a limited budget the engine degrades gracefully: it returns
    /// the interpretations that completed before a trip plus the
    /// structured [`Exhaustion`] report naming the budget and site that
    /// tripped. Only genuine errors surface as `Err`; library panics are
    /// caught and surface as [`CoreError::Internal`].
    ///
    /// Each call records into a recorder of its own, enabled only when
    /// the request traces or metrics are globally enabled, so concurrent
    /// callers on a shared engine never see each other's spans. The one
    /// trace it collects feeds the always-on metrics and the flight
    /// recorder when metrics are enabled, and is returned in
    /// [`Answered::trace`] when requested.
    pub fn run(&self, query: &str, req: &AnswerRequest) -> Result<Answered, CoreError> {
        let metered = aqks_obs::metrics::enabled();
        if !(req.trace || metered) {
            return self.governed(&Recorder::disabled(), query, req);
        }
        let rec = Recorder::enabled();
        let t0 = Instant::now();
        let result = {
            let _root = rec.span("answer");
            self.governed(&rec, query, req)
        };
        let trace = rec.take();
        if metered {
            observe(&self.db, query, t0, &result, &trace);
        }
        result.map(|a| Answered { trace: req.trace.then_some(trace), ..a })
    }

    /// Runs the pipeline behind the panic shield, with a [`Governor`]
    /// for the request's budget installed ambiently, and converts a trip
    /// into [`Answered::exhaustion`], recording it on the trace (a
    /// `guard` span + counters). The governor is only installed when the
    /// budget actually limits something, so unlimited calls stay on the
    /// zero-cost path.
    fn governed(
        &self,
        rec: &Recorder,
        query: &str,
        req: &AnswerRequest,
    ) -> Result<Answered, CoreError> {
        let gov = (!req.budget.is_unlimited()).then(|| Governor::new(&req.budget));
        let result = {
            let _installed = gov.as_ref().map(aqks_guard::install);
            shielded(|| self.answer_inner(rec, query, req.k))
        };
        let interpretations = match result {
            Ok(v) => v,
            // A trip that unwound the whole pipeline: no partials exist.
            Err(CoreError::Budget(_)) if gov.is_some() => Vec::new(),
            Err(e) => return Err(e),
        };
        let exhaustion = gov.as_ref().and_then(Governor::trip).map(|t| {
            let s = rec.span("guard");
            s.add("guard.trips", 1);
            s.add(format!("guard.trip.{}", t.site), 1);
            t.exhaust(!interpretations.is_empty())
        });
        Ok(Answered { interpretations, exhaustion, trace: None })
    }

    /// Generates the top-`k` interpretations, plans and checks them all,
    /// then executes them in rank order. Subtrees that two or more plans
    /// compute alike (see [`aqks_plancheck::share`]) run once per
    /// request: the first plan that drains one to end-of-stream in a run
    /// that succeeds keeps its batches, and later plans replay them with
    /// the same per-operator rows and batches. A share is dropped once
    /// its last consumer has run.
    fn answer_inner(
        &self,
        rec: &Recorder,
        query: &str,
        k: usize,
    ) -> Result<Vec<Interpretation>, CoreError> {
        let generated = self.generate_inner(rec, query, k)?;
        let mut plans = Vec::with_capacity(generated.len());
        for g in &generated {
            plans.push(self.plan_checked(rec, g)?);
        }
        // One plan has nothing to share with.
        let election = if plans.len() > 1 { Election::elect(&plans) } else { Election::default() };
        let shares = aqks_sqlgen::Shares::new(election.shares.len());
        let mut out = Vec::with_capacity(generated.len());
        for (i, (g, plan)) in generated.into_iter().zip(&plans).enumerate() {
            // Between interpretations is the natural cancellation point:
            // answers already executed are kept as partials.
            if aqks_guard::checkpoint("engine.answer").is_err() {
                break;
            }
            let run = {
                let s = rec.span("exec");
                let run = aqks_sqlgen::run_plan_sharing(
                    plan,
                    &self.db,
                    &shares,
                    &election.sites(i),
                    aqks_sqlgen::ExecOptions::with_threads(self.threads),
                );
                if let Ok((result, _)) = &run {
                    s.add("exec.rows_out", result.row_count() as u64);
                }
                run
            };
            for done in election.last_used_by(i) {
                shares.release(done);
            }
            let (result, stats) = match run {
                Ok(r) => r,
                // A budget trip mid-plan cancels this interpretation but
                // keeps the completed ones; the governor records the site.
                Err(aqks_sqlgen::ExecError::Budget(_)) => break,
                Err(e) => return Err(e.into()),
            };
            out.push(Interpretation {
                pattern_description: g.pattern.describe(),
                sql: g.sql,
                sql_text: g.sql_text,
                result: result.sorted(),
                stats,
            });
        }
        Ok(out)
    }

    /// Plans `g` and, in debug builds, statically verifies the plan.
    fn plan_checked(
        &self,
        rec: &Recorder,
        g: &GeneratedSql,
    ) -> Result<aqks_sqlgen::PlanNode, CoreError> {
        let plan = {
            let _s = rec.span("plan");
            aqks_sqlgen::plan(&g.sql, &self.db).map_err(CoreError::from)?
        };
        // Debug builds statically verify every plan before it runs;
        // release builds skip in a branch (the span keeps traces
        // shape-stable across profiles).
        let s = rec.span("plancheck");
        if cfg!(debug_assertions) {
            s.add("plancheck.checked", 1);
        }
        if let Err(e) = aqks_plancheck::verify_in_debug(&plan, &self.db, &g.sql) {
            s.add(format!("plancheck.rejected.{}", e.kind.name()), 1);
            return Err(CoreError::Analysis(format!(
                "plan verification failed: {e}\n{}",
                g.sql_text
            )));
        }
        Ok(plan)
    }

    /// Explains how a query is interpreted: each term's matches and the
    /// ranked patterns with their scores — the front end behind
    /// [`Engine::generate`], for debugging and the CLI's `--explain`.
    ///
    /// Library panics are caught at this boundary and surface as
    /// [`CoreError::Internal`].
    pub fn explain(&self, query: &str) -> Result<Explanation, CoreError> {
        shielded(|| {
            let fe = self.front_end(&Recorder::disabled(), query)?;
            let terms =
                fe.query.terms.iter().zip(&fe.matches).map(|(t, ms)| term_report(t, ms)).collect();
            let patterns = fe
                .ranked
                .iter()
                .map(|p| PatternReport {
                    description: p.describe(),
                    dot: p.to_dot(),
                    score: crate::rank::rank_key(p),
                })
                .collect();
            Ok(Explanation { terms, patterns })
        })
    }

    fn term_matches(&self, query: &KeywordQuery) -> Result<Vec<Vec<TermMatch>>, CoreError> {
        let mut out = Vec::with_capacity(query.terms.len());
        for (i, t) in query.terms.iter().enumerate() {
            out.push(match t {
                Term::Basic(text) => {
                    let role = if query.is_operand(i) {
                        match query.terms[i - 1] {
                            Term::Op(Operator::Agg(aqks_sqlgen::AggFunc::Count))
                            | Term::Op(Operator::GroupBy) => TermRole::CountGroupByOperand,
                            Term::Op(Operator::Agg(_)) => TermRole::AggOperand,
                            Term::Basic(_) => TermRole::Free,
                        }
                    } else {
                        TermRole::Free
                    };
                    self.matcher.matches(&self.db, text, role)?
                }
                Term::Op(_) => Vec::new(),
            });
        }
        Ok(out)
    }
}

/// Folds one metered [`Engine::run`] into the always-on metrics and
/// files its trace with the flight recorder. Besides the query counter
/// and the end-to-end latency and result-row histograms, every
/// per-query family is read off the trace (see [`Fold`]), so the
/// registry is a view of the span tree rather than a second record.
fn observe(
    db: &Database,
    query: &str,
    t0: Instant,
    result: &Result<Answered, CoreError>,
    trace: &PipelineTrace,
) {
    let total_ns = t0.elapsed().as_nanos() as u64;
    let (rows, tripped) = match result {
        Ok(a) => (
            a.interpretations.iter().map(|i| i.result.row_count() as u64).sum(),
            a.exhaustion.as_ref().map(|e| e.to_string()),
        ),
        Err(_) => (0, None),
    };
    QUERIES.add(1);
    ANSWER_NS.observe(total_ns);
    RESULT_ROWS.observe(rows);
    if let Some(root) = trace.roots.iter().find(|r| r.name == "answer") {
        let mut fold = Fold::default();
        for phase in root.children.iter().filter(|c| PHASES.contains(&c.name.as_str())) {
            entry(&mut fold.phases, phase.name.as_str()).push(phase.total_ns);
        }
        root.visit(&mut |span| fold.span(span));
        // A memo site missed, so the run may have filled the memo.
        if fold.counters.iter().any(|((name, _), _)| *name == "aqks_exec_memo_misses") {
            MEMO_CELLS.set(db.memo_cells() as i64);
        }
        fold.flush(aqks_obs::metrics::global());
    }
    aqks_obs::flight::global().record(query, total_ns, tripped, trace);
}

/// A registry counter: family name and optional `(key, value)` label.
type Series<'t> = (&'static str, Option<(&'static str, &'t str)>);

/// One operator kind's `op:` spans in a query.
#[derive(Default)]
struct OpTally {
    rows: u64,
    batches: u64,
    wall_ns: Vec<u64>,
    peak_bytes: Vec<u64>,
}

/// One query's registry updates, read off its span tree and gathered
/// per series before any of them touches the registry — counters summed,
/// histogram samples listed — so each series costs one registry lookup.
/// Each `op:{Kind}` span feeds `aqks_ops_*{op}` (its wall time is
/// `total_ns`); the other families come from span counters.
#[derive(Default)]
struct Fold<'t> {
    ops: Vec<(&'t str, OpTally)>,
    phases: Vec<(&'t str, Vec<u64>)>,
    counters: Vec<(Series<'t>, u64)>,
}

/// The value kept for `key` in `entries`, added as `V::default()` when
/// new: the handful of series one query feeds is searched faster than
/// hashed.
fn entry<K: PartialEq, V: Default>(entries: &mut Vec<(K, V)>, key: K) -> &mut V {
    let i = match entries.iter().position(|(k, _)| *k == key) {
        Some(i) => i,
        None => {
            entries.push((key, V::default()));
            entries.len() - 1
        }
    };
    &mut entries[i].1
}

impl<'t> Fold<'t> {
    fn span(&mut self, span: &'t SpanNode) {
        let count = |name| span.counter(name).unwrap_or(0);
        if let Some(op) = span.name.strip_prefix("op:") {
            let t = entry(&mut self.ops, op);
            t.rows += count("rows_out");
            t.batches += count("batches");
            t.wall_ns.push(span.total_ns);
            t.peak_bytes.push(count("peak_bytes"));
            return;
        }
        for (name, n) in &span.counters {
            let series = if let Some(site) = name.strip_prefix("guard.trip.") {
                ("aqks_guard_trips", Some(("site", site)))
            } else if let Some(site) = name.strip_prefix("par.tasks.") {
                ("aqks_par_tasks", Some(("site", site)))
            } else {
                let family = match name.as_str() {
                    "par.pools" => "aqks_par_pools",
                    "exec.memo_hits" => "aqks_exec_memo_hits",
                    "exec.memo_misses" => "aqks_exec_memo_misses",
                    "exec.share_replays" => "aqks_exec_share_hits",
                    "exec.share_misses" => "aqks_exec_share_misses",
                    _ => continue,
                };
                (family, None)
            };
            *entry(&mut self.counters, series) += n;
        }
    }

    fn flush(self, registry: &Registry) {
        for (phase, samples) in &self.phases {
            registry.observe("aqks_engine_phase_ns", Some(("phase", phase)), Unit::Nanos, samples);
        }
        for (op, t) in &self.ops {
            let label = Some(("op", *op));
            registry.add("aqks_ops_rows", label, t.rows);
            registry.add("aqks_ops_batches", label, t.batches);
            registry.observe("aqks_ops_wall_ns", label, Unit::Nanos, &t.wall_ns);
            registry.observe("aqks_ops_peak_bytes", label, Unit::Bytes, &t.peak_bytes);
        }
        for ((name, label), n) in self.counters {
            registry.add(name, label, n);
        }
    }
}

/// How one query term matched, in words (see [`Engine::explain`]).
fn term_report(term: &Term, matches: &[TermMatch]) -> TermReport {
    let text = match term {
        Term::Basic(s) => s.clone(),
        Term::Op(Operator::GroupBy) => "GROUPBY".to_string(),
        Term::Op(Operator::Agg(f)) => f.keyword().to_string(),
    };
    let matches = matches
        .iter()
        .map(|m| match m {
            TermMatch::RelationName { relation } => format!("relation `{relation}`"),
            TermMatch::AttributeName { relation, attribute } => {
                format!("attribute `{relation}.{attribute}`")
            }
            TermMatch::Value { relation, attribute, tuple_count } => {
                format!("value of `{relation}.{attribute}` ({tuple_count} object(s))")
            }
        })
        .collect();
    TermReport { term: text, is_operator: matches!(term, Term::Op(_)), matches }
}

/// Runs `f` behind a panic shield: a panic anywhere in the pipeline is
/// caught and surfaced as [`CoreError::Internal`] instead of unwinding
/// through the caller. The engine owns no interior mutability that a
/// mid-panic unwind could corrupt, so `AssertUnwindSafe` is sound here.
fn shielded<T>(f: impl FnOnce() -> Result<T, CoreError>) -> Result<T, CoreError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(CoreError::Internal(msg))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqks_datasets::university;
    use aqks_relational::Value;

    #[test]
    fn q1_end_to_end() {
        let engine = Engine::new(university::normalized()).unwrap();
        let answers = engine.answer("Green SUM Credit", 1).unwrap();
        let r = &answers[0].result;
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0].last().unwrap(), &Value::Float(5.0));
        assert_eq!(r.rows[1].last().unwrap(), &Value::Float(8.0));
    }

    #[test]
    fn q2_end_to_end() {
        let engine = Engine::new(university::normalized()).unwrap();
        let answers = engine.answer("Java SUM Price", 3).unwrap();
        let textbook = answers
            .iter()
            .find(|a| a.result.column_index("sumPrice").is_some())
            .expect("textbook interpretation");
        assert_eq!(textbook.result.rows[0].last().unwrap(), &Value::Int(25));
    }

    /// Q3 on Figure 2: the unnormalized engine counts 1 department in
    /// Engineering (SQAK's join over duplicated Lecturer rows says 2).
    #[test]
    fn q3_unnormalized_fig2() {
        let engine = Engine::new(university::unnormalized_fig2()).unwrap();
        assert!(engine.is_unnormalized());
        let answers = engine.answer("Engineering COUNT Department", 1).unwrap();
        let r = &answers[0].result;
        assert_eq!(r.rows[0].last().unwrap(), &Value::Int(1), "{}\n{r}", answers[0].sql_text);
    }

    /// Example 9/10 end to end on the Figure-8 database.
    #[test]
    fn fig8_green_george_count_code() {
        let engine = Engine::new(university::enrolment_fig8()).unwrap();
        assert!(engine.is_unnormalized());
        let answers = engine.answer("Green George COUNT Code", 1).unwrap();
        let r = &answers[0].result;
        assert_eq!(r.len(), 2, "{}\n{r}", answers[0].sql_text);
        assert_eq!(r.rows[0].last().unwrap(), &Value::Int(1));
        assert_eq!(r.rows[1].last().unwrap(), &Value::Int(2));
        // The rewritten SQL runs on the original Enrolment relation.
        assert!(answers[0].sql_text.contains("Enrolment"));
    }

    /// FD discovery substitutes for declared FDs: an Enrolment database
    /// with *no* declared dependencies still gets decomposed, and every
    /// discovered dependency holds on the instance, so the answers match
    /// the declared-FD engine.
    #[test]
    fn discovery_substitutes_for_declared_fds() {
        let declared = Engine::new(university::enrolment_fig8()).unwrap();

        let mut undeclared = university::enrolment_fig8();
        // Strip the declared FDs (and naming hints) from the schema.
        let mut bare = aqks_relational::Database::new("fig8-bare");
        let mut schema = undeclared.table("Enrolment").unwrap().schema.clone();
        schema.extra_fds.clear();
        schema.entity_names.clear();
        bare.add_relation(schema).unwrap();
        for row in undeclared.table("Enrolment").unwrap().rows() {
            bare.insert("Enrolment", row.clone()).unwrap();
        }
        undeclared = bare;

        // Without discovery the engine treats the relation as normalized.
        let naive = Engine::new(undeclared.clone()).unwrap();
        assert!(!naive.is_unnormalized());

        let discovering = Engine::with_options(
            undeclared,
            EngineOptions { discover_fds: true, ..Default::default() },
        )
        .unwrap();
        assert!(discovering.is_unnormalized());

        let a = &declared.answer("Green George COUNT Code", 1).unwrap()[0];
        let b = &discovering.answer("Green George COUNT Code", 1).unwrap()[0];
        let left: Vec<&Value> = a.result.rows.iter().map(|r| r.last().unwrap()).collect();
        let right: Vec<&Value> = b.result.rows.iter().map(|r| r.last().unwrap()).collect();
        assert_eq!(left, right, "{}\nvs\n{}", a.sql_text, b.sql_text);
    }

    #[test]
    fn nonexistent_term_errors() {
        let engine = Engine::new(university::normalized()).unwrap();
        assert!(matches!(engine.answer("zebra COUNT Code", 1), Err(CoreError::NoMatch(_))));
    }

    #[test]
    fn explain_reports_matches_and_patterns() {
        let engine = Engine::new(university::normalized()).unwrap();
        let ex = engine.explain("Green SUM Credit").unwrap();
        assert_eq!(ex.terms.len(), 3);
        assert!(ex.terms[0].matches[0].contains("Student.Sname"), "{:?}", ex.terms);
        assert!(ex.terms[1].is_operator);
        assert!(ex.patterns.len() >= 2, "merged + per-Green");
        // Ranked: scores are non-decreasing.
        for w in ex.patterns.windows(2) {
            assert!(w[0].score <= w[1].score);
        }
        assert!(ex.patterns[0].dot.starts_with("graph pattern {"));
    }

    #[test]
    fn answer_carries_execution_stats() {
        let engine = Engine::new(university::normalized()).unwrap();
        let answers = engine.answer("Green SUM Credit", 1).unwrap();
        let s = &answers[0].stats;
        assert!(!s.ops.is_empty());
        assert!(s.ops.iter().any(|m| m.rows_out > 0), "{s:?}");
        // The plan and the stats vector index the same node ids.
        let plan = aqks_sqlgen::plan(&answers[0].sql, engine.database()).unwrap();
        assert_eq!(s.ops.len(), plan.max_id() + 1);
    }

    #[test]
    fn generate_does_not_execute() {
        let engine = Engine::new(university::normalized()).unwrap();
        let gen = engine.generate("COUNT Lecturer GROUPBY Course", 2).unwrap();
        assert!(!gen.is_empty());
        assert!(gen[0].sql_text.contains("COUNT"));
    }

    fn request(k: usize, budget: Budget, trace: bool) -> AnswerRequest {
        AnswerRequest { k, budget, trace }
    }

    /// The one entry point across (unlimited | tripped budget) × (trace
    /// off | on): interpretations are `answer`'s (a prefix of them when
    /// the budget trips), `exhaustion` is set exactly when the budget
    /// trips, and `trace` is present exactly when requested.
    #[test]
    fn run_covers_budget_and_trace_combinations() {
        let engine = Engine::new(university::normalized()).unwrap();
        // "Green SUM Credit" has 2 interpretations; the cap keeps the top one.
        let plain = engine.answer("Green SUM Credit", 3).unwrap();
        assert!(plain.len() >= 2, "fixture needs >=2 interpretations");
        for tripped in [false, true] {
            for trace in [false, true] {
                let budget = if tripped {
                    Budget::unlimited().with_max_interpretations(1)
                } else {
                    Budget::unlimited()
                };
                let a = engine.run("Green SUM Credit", &request(3, budget, trace)).unwrap();
                let case = format!("tripped={tripped} trace={trace}");
                assert_eq!(a.exhaustion.is_some(), tripped, "{case}");
                assert_eq!(a.trace.is_some(), trace, "{case}");
                let n = if tripped { 1 } else { plain.len() };
                assert_eq!(a.interpretations.len(), n, "{case}");
                for (x, y) in a.interpretations.iter().zip(&plain) {
                    assert_eq!(x.sql_text, y.sql_text, "{case}");
                    assert_eq!(x.result, y.result, "{case}");
                }
                if let Some(t) = &a.trace {
                    assert_eq!(t.roots.len(), 1, "{case}: {t:?}");
                    assert_eq!(t.roots[0].name, "answer", "{case}");
                    assert_eq!(t.span_count("guard"), usize::from(tripped), "{case}");
                }
            }
        }
    }

    /// Every pipeline phase appears exactly once under the `answer` root
    /// (k=1), operator spans graft under `exec`, analyzer pass spans
    /// under `analyze`, and index counters flow up via the ambient stack.
    #[test]
    fn traced_run_covers_every_phase_once() {
        let engine = Engine::new(university::normalized()).unwrap();
        let a = engine.run("Green SUM Credit", &request(1, Budget::unlimited(), true)).unwrap();
        assert_eq!(a.interpretations.len(), 1);
        let trace = a.trace.expect("trace requested");
        assert_eq!(trace.roots.len(), 1, "{trace:?}");
        let root = &trace.roots[0];
        assert_eq!(root.name, "answer");
        for phase in [
            "parse",
            "match",
            "pattern",
            "annotate",
            "rank",
            "translate",
            "analyze",
            "plan",
            "exec",
        ] {
            let n = root.children.iter().filter(|c| c.name == phase).count();
            assert_eq!(n, 1, "phase `{phase}` appeared {n} times");
        }
        let exec = root.children.iter().find(|c| c.name == "exec").unwrap();
        assert!(exec.children.iter().all(|c| c.name.starts_with("op:")), "{exec:?}");
        assert!(!exec.children.is_empty());
        let analyze = root.children.iter().find(|c| c.name == "analyze").unwrap();
        assert!(analyze.children.iter().any(|c| c.name.starts_with("pass:")), "{analyze:?}");
        // Leaf-layer counters reached the trace without API plumbing.
        assert!(trace.counters.contains_key("index.probes"), "{:?}", trace.counters);
        assert!(trace.counters.contains_key("exec.rows_out"), "{:?}", trace.counters);
    }

    /// Untraced calls leave nothing behind: a later traced call sees
    /// only its own spans.
    #[test]
    fn untraced_answer_records_nothing() {
        let engine = Engine::new(university::normalized()).unwrap();
        engine.answer("Green SUM Credit", 1).unwrap();
        let a = engine.run("Java SUM Price", &request(1, Budget::unlimited(), true)).unwrap();
        assert_eq!(a.trace.expect("trace requested").roots.len(), 1);
    }

    /// Plain `answer` feeds the always-on metrics and files its trace
    /// with the flight recorder; a governed trip lands there too, as
    /// the most recent tripped exemplar. Assertions are delta-based
    /// because the registry and flight recorder are process-global and
    /// tests run concurrently.
    #[test]
    fn answer_feeds_metrics_and_flight() {
        aqks_obs::metrics::set_enabled(true);
        let engine = Engine::new(university::normalized()).unwrap();
        let snap = || aqks_obs::metrics::global().snapshot();
        let flight = aqks_obs::flight::global();

        let queries_before = snap().counter_total("aqks_engine_queries");
        let recorded_before = flight.recorded();
        engine.answer("Green SUM Credit", 1).unwrap();
        assert!(snap().counter_total("aqks_engine_queries") > queries_before);
        assert!(flight.recorded() > recorded_before);
        let phases = snap();
        for phase in ["parse", "exec"] {
            let m = phases
                .find("aqks_engine_phase_ns", Some(phase))
                .unwrap_or_else(|| panic!("phase `{phase}` histogram missing"));
            match &m.value {
                aqks_obs::metrics::MetricValue::Histogram(h) => assert!(h.count > 0),
                other => panic!("expected histogram, got {other:?}"),
            }
        }

        // A governed trip files a tripped exemplar.
        let budget = Budget::unlimited().with_max_patterns(1);
        let a = engine.run("Green George COUNT Code", &request(3, budget, false)).unwrap();
        assert!(a.exhaustion.is_some());
        let tripped = flight.last_tripped().expect("tripped exemplar retained");
        assert!(tripped.tripped.is_some());
    }

    /// A traced call is metered like any other: the trace it returns is
    /// the same one the registry and the flight recorder consume.
    #[test]
    fn traced_run_feeds_metrics_and_flight() {
        aqks_obs::metrics::set_enabled(true);
        let engine = Engine::new(university::normalized()).unwrap();
        let snap = || aqks_obs::metrics::global().snapshot();
        let flight = aqks_obs::flight::global();

        let queries_before = snap().counter_total("aqks_engine_queries");
        let recorded_before = flight.recorded();
        let a = engine.run("Green SUM Credit", &request(1, Budget::unlimited(), true)).unwrap();
        assert_eq!(a.trace.expect("trace requested").roots.len(), 1);
        assert!(snap().counter_total("aqks_engine_queries") > queries_before);
        assert!(flight.recorded() > recorded_before);
    }

    #[test]
    fn pattern_cap_trips_enumeration_with_structured_report() {
        let engine = Engine::new(university::normalized()).unwrap();
        // "Green George COUNT Code" enumerates 2 interpretation combos.
        let budget = Budget::unlimited().with_max_patterns(1);
        let a = engine.run("Green George COUNT Code", &request(3, budget, false)).unwrap();
        let ex = a.exhaustion.expect("pattern budget should trip");
        assert_eq!(ex.kind, aqks_guard::BudgetKind::Patterns);
        assert_eq!(ex.site, "pattern.enumerate");
        assert_eq!(ex.partial, !a.interpretations.is_empty());
    }

    #[test]
    fn interpretation_cap_keeps_completed_answers() {
        let engine = Engine::new(university::normalized()).unwrap();
        let budget = Budget::unlimited().with_max_interpretations(1);
        let a = engine.run("Green SUM Credit", &request(3, budget, false)).unwrap();
        let ex = a.exhaustion.expect("interpretation budget should trip");
        assert_eq!(ex.kind, aqks_guard::BudgetKind::Interpretations);
        assert_eq!(ex.site, "engine.translate");
        assert!(ex.partial);
    }

    #[test]
    fn expired_deadline_reports_exhaustion_not_error() {
        let engine = Engine::new(university::normalized()).unwrap();
        let budget = Budget::unlimited().with_timeout(std::time::Duration::ZERO);
        let a = engine.run("Green SUM Credit", &request(1, budget, false)).unwrap();
        let ex = a.exhaustion.expect("deadline should trip");
        assert_eq!(ex.kind, aqks_guard::BudgetKind::Deadline);
        assert!(a.interpretations.is_empty());
        assert!(!ex.partial);
        // Exhaustion renders a one-line human-readable report.
        let msg = ex.to_string();
        assert!(msg.contains("deadline budget exhausted"), "{msg}");
    }

    #[test]
    fn row_cap_returns_partial_results_through_engine() {
        let engine = Engine::new(university::normalized()).unwrap();
        // Generous pattern allowance, tiny row allowance: generation
        // succeeds, execution trips inside an operator.
        let budget = Budget::unlimited().with_max_rows(1);
        let a = engine.run("Java SUM Price", &request(3, budget, false)).unwrap();
        let ex = a.exhaustion.expect("row budget should trip");
        assert_eq!(ex.kind, aqks_guard::BudgetKind::Rows);
        assert!(ex.site.starts_with("ops.") || ex.site.starts_with("index."), "{}", ex.site);
    }

    /// Governance is scoped to the call: after a governed call trips,
    /// plain `answer` on the same engine runs unrestricted.
    #[test]
    fn governor_does_not_leak_past_the_call() {
        let engine = Engine::new(university::normalized()).unwrap();
        let budget = Budget::unlimited().with_max_rows(1);
        let a = engine.run("Green SUM Credit", &request(1, budget, false)).unwrap();
        assert!(a.exhaustion.is_some());
        let plain = engine.answer("Green SUM Credit", 1).unwrap();
        assert_eq!(plain.len(), 1);
    }

    /// Budget trips show up in the pipeline trace as a `guard` span with
    /// per-site counters.
    #[test]
    fn governed_trip_is_visible_in_trace() {
        let engine = Engine::new(university::normalized()).unwrap();
        let budget = Budget::unlimited().with_max_patterns(1);
        let a = engine.run("Green George COUNT Code", &request(3, budget, true)).unwrap();
        assert!(a.exhaustion.is_some());
        let trace = a.trace.expect("trace requested");
        let root = &trace.roots[0];
        assert_eq!(root.name, "answer");
        assert!(root.children.iter().any(|c| c.name == "guard"), "{trace:?}");
        assert_eq!(trace.counters.get("guard.trips"), Some(&1));
        assert_eq!(trace.counters.get("guard.trip.pattern.enumerate"), Some(&1));
    }

    /// The shield converts library panics into `CoreError::Internal`
    /// instead of unwinding through the caller.
    #[test]
    fn shield_converts_panics_to_internal_error() {
        let r = shielded::<()>(|| panic!("boom at {}", "site"));
        match r {
            Err(CoreError::Internal(m)) => assert!(m.contains("boom"), "{m}"),
            other => panic!("expected Internal, got {other:?}"),
        }
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn translate_failpoint_surfaces_typed_fault() {
        let engine = Engine::new(university::normalized()).unwrap();
        aqks_guard::failpoint::enable("translate");
        let r = engine.answer("Green SUM Credit", 1);
        aqks_guard::failpoint::disable("translate");
        assert!(matches!(r, Err(CoreError::Fault("translate"))), "{r:?}");
        // With the failpoint disarmed the same query succeeds.
        assert_eq!(engine.answer("Green SUM Credit", 1).unwrap().len(), 1);
    }
}
