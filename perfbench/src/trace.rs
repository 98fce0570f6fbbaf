//! The traced run: splits a workload's cost by layer.
//!
//! Every layer is timed from outside, by calling the public functions
//! the engine itself calls, in the engine's order:
//!
//! * set-up: `NormalizedView` (3NF check and build), `OrmGraph::build`,
//!   `Matcher::normalized`/`unnormalized`, against `Engine::new`;
//! * per request: `KeywordQuery::parse`, `Matcher::matches`,
//!   `generate_patterns`, `disambiguate`, `rank_patterns`,
//!   `translate_ex` + `rewrite`, `Analyzer`, then `aqks_sqlgen::plan` and
//!   `run_plan_opts`, whose `ExecStats` supply the operator spans;
//! * around the engine: the untraced `Engine::generate`/`answer` with
//!   metrics on and off, `aqks_server` over loopback, and SQAK.
//!
//! Spans go to a [`Recorder`] the benchmark owns, as completed spans
//! (`record_span`), one root per request; per-layer numbers are read
//! back from that span tree. The re-driven SQL and results must equal
//! what the engine returned, or the run fails: the mirror cannot drift
//! from the engine unnoticed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use aqks_analyze::Analyzer;
use aqks_core::annotate::disambiguate;
use aqks_core::pattern::generate_patterns;
use aqks_core::rank::{rank_key, rank_patterns};
use aqks_core::translate::translate_ex;
use aqks_core::{
    rewrite, Engine, KeywordQuery, Matcher, Operator, RewriteOptions, Term, TermMatch, TermRole,
    TranslateOptions,
};
use aqks_obs::{PipelineTrace, Recorder, SpanHandle, SpanNode};
use aqks_orm::OrmGraph;
use aqks_relational::{Database, DatabaseSchema, NormalizedView};
use aqks_server::Server;
use aqks_sqlgen::{
    run_plan_opts, AggFunc, ExecOptions, ExecStats, PlanNode, PlanOp, ResultTable, SharedRows,
};

use crate::report::{self, Metric};
use crate::stats::{median, percentile};
use crate::workload::{self, Config, Prepared, Workload};

/// The engine's pipeline stages in order; `plan` and `exec` run once per
/// interpretation.
pub const STAGES: [&str; 9] =
    ["parse", "match", "pattern", "annotate", "rank", "translate", "analyze", "plan", "exec"];

/// Operator kinds whose metrics every workload reports; other kinds go
/// to the layers file only.
pub const OP_KINDS: [&str; 3] = ["Scan", "HashJoin", "HashAggregate"];

/// Repetitions of each set-up component; like `setup_s`, each
/// component counts its median.
const SETUP_REPS: usize = 3;
/// Rounds of traced requests: at least the minimum, more while they fit
/// in 60% of the run's seconds, at most the maximum.
const MIN_ROUNDS: usize = 2;
const MAX_ROUNDS: usize = 100;
/// Interleaved repetitions of each query for the SQAK comparison.
const SQAK_REPS: usize = 10;

/// What the engine builds at construction, rebuilt outside it.
struct Components {
    view: Option<NormalizedView>,
    namespace: DatabaseSchema,
    original: DatabaseSchema,
    graph: OrmGraph,
    matcher: Matcher,
}

/// Builds the engine's components for `db` and times each step the
/// way `Engine::new` takes it: view (3NF check, and `D′` when needed),
/// ORM graph, term index.
fn build_components(db: &Database) -> Result<(Components, [Duration; 3]), String> {
    let t = Instant::now();
    let original = db.schema();
    let view =
        (!NormalizedView::is_normalized(&original)).then(|| NormalizedView::build(&original));
    let namespace = view.as_ref().map_or_else(|| original.clone(), NormalizedView::schema);
    let view_t = t.elapsed();
    let t = Instant::now();
    let graph = OrmGraph::build(&namespace).map_err(|e| format!("OrmGraph::build: {e}"))?;
    let orm_t = t.elapsed();
    let t = Instant::now();
    let matcher = match &view {
        None => Matcher::normalized(db),
        Some(v) => Matcher::unnormalized(db, v.clone()),
    };
    let index_t = t.elapsed();
    Ok((Components { view, namespace, original, graph, matcher }, [view_t, orm_t, index_t]))
}

/// The term roles `Engine` assigns before matching (its private
/// `term_matches`): an operand of COUNT/GROUPBY may name a relation or
/// attribute, an operand of another aggregate only an attribute, and a
/// free term also matches values.
fn term_matches(
    c: &Components,
    db: &Database,
    query: &KeywordQuery,
) -> Result<Vec<Vec<TermMatch>>, String> {
    let mut out = Vec::with_capacity(query.terms.len());
    for (i, t) in query.terms.iter().enumerate() {
        out.push(match t {
            Term::Basic(text) => {
                let role = if query.is_operand(i) {
                    match query.terms[i - 1] {
                        Term::Op(Operator::Agg(AggFunc::Count)) | Term::Op(Operator::GroupBy) => {
                            TermRole::CountGroupByOperand
                        }
                        Term::Op(Operator::Agg(_)) => TermRole::AggOperand,
                        Term::Basic(_) => TermRole::Free,
                    }
                } else {
                    TermRole::Free
                };
                c.matcher.matches(db, text, role).map_err(|e| format!("match: {e}"))?
            }
            Term::Op(_) => Vec::new(),
        });
    }
    Ok(out)
}

/// One timed step of a re-driven request.
struct Step {
    stage: &'static str,
    start: Instant,
    dur: Duration,
    counters: Vec<(&'static str, u64)>,
    /// For `exec`: the plan and its stats, grafted as operator spans.
    exec: Option<(PlanNode, ExecStats)>,
}

/// A re-driven request: its steps, and the SQL and results it produced.
struct Redriven {
    start: Instant,
    total: Duration,
    steps: Vec<Step>,
    sql: Vec<String>,
    results: Vec<ResultTable>,
}

impl Redriven {
    /// Each executed plan with the rows it moved.
    fn executed_plans(&self) -> Vec<(PlanNode, u64)> {
        self.steps
            .iter()
            .filter_map(|s| s.exec.as_ref())
            .map(|(plan, stats)| (plan.clone(), stats.rows_flowed()))
            .collect()
    }
}

fn step(stage: &'static str, start: Instant, counters: Vec<(&'static str, u64)>) -> Step {
    Step { stage, start, dur: start.elapsed(), counters, exec: None }
}

/// Runs one request stage by stage through the public functions, as
/// `Engine::generate` (and, with `execute`, `Engine::answer`) does.
fn redrive(
    c: &Components,
    db: &Database,
    text: &str,
    k: usize,
    threads: usize,
    execute: bool,
) -> Result<Redriven, String> {
    let err = |stage: &str, e: &dyn std::fmt::Display| format!("{stage}: {e}");
    let start = Instant::now();
    let mut steps = Vec::new();

    let t = Instant::now();
    let query = KeywordQuery::parse(text).map_err(|e| err("parse", &e))?;
    steps.push(step("parse", t, vec![]));

    let t = Instant::now();
    let matches = term_matches(c, db, &query)?;
    let n = matches.iter().map(Vec::len).sum::<usize>() as u64;
    steps.push(step("match", t, vec![("term_matches", n)]));

    let t = Instant::now();
    let patterns = generate_patterns(&query, &matches, &c.graph, &c.namespace)
        .map_err(|e| err("pattern", &e))?;
    steps.push(step("pattern", t, vec![("patterns_generated", patterns.len() as u64)]));

    let t = Instant::now();
    let patterns = disambiguate(patterns, &c.namespace);
    steps.push(step("annotate", t, vec![]));

    let t = Instant::now();
    let patterns = rank_patterns(patterns);
    steps.push(step("rank", t, vec![]));

    let t = Instant::now();
    let mut translated = Vec::new();
    for p in patterns.into_iter().take(k) {
        let tr =
            translate_ex(&p, &c.graph, &c.namespace, c.view.as_ref(), &TranslateOptions::default())
                .map_err(|e| err("translate", &e))?;
        let sql = if c.view.is_some() {
            rewrite(&tr.stmt, &tr.derived_keys, &db.schema(), &RewriteOptions::default())
        } else {
            tr.stmt
        };
        let text = sql.to_string();
        translated.push((p, sql, text));
    }
    steps.push(step("translate", t, vec![("interpretations", translated.len() as u64)]));

    let t = Instant::now();
    for (p, sql, _) in &translated {
        let analyzer = Analyzer::new(&c.original);
        let report = if c.view.is_none() {
            analyzer.with_graph(&c.graph).analyze(sql)
        } else {
            analyzer.analyze(sql)
        };
        std::hint::black_box((report, rank_key(p)));
    }
    steps.push(step("analyze", t, vec![]));

    let mut results = Vec::new();
    if execute {
        for (_, sql, _) in &translated {
            let t = Instant::now();
            let plan = aqks_sqlgen::plan(sql, db).map_err(|e| err("plan", &e))?;
            steps.push(step("plan", t, vec![]));
            let t = Instant::now();
            let (result, stats) =
                run_plan_opts(&plan, db, &SharedRows::new(), ExecOptions::with_threads(threads))
                    .map_err(|e| err("exec", &e))?;
            let result = result.sorted();
            let mut s = step("exec", t, vec![("result_rows", result.len() as u64)]);
            s.exec = Some((plan, stats));
            steps.push(s);
            results.push(result);
        }
    }
    Ok(Redriven {
        start,
        total: start.elapsed(),
        steps,
        sql: translated.into_iter().map(|(_, _, text)| text).collect(),
        results,
    })
}

/// The executor's name for an operator kind.
pub fn op_kind(op: &PlanOp) -> &'static str {
    match op {
        PlanOp::Scan { .. } => "Scan",
        PlanOp::DerivedTable { .. } => "DerivedTable",
        PlanOp::Filter { .. } => "Filter",
        PlanOp::HashJoin { .. } => "HashJoin",
        PlanOp::CrossJoin => "CrossJoin",
        PlanOp::HashAggregate { .. } => "HashAggregate",
        PlanOp::Project { .. } => "Project",
        PlanOp::Distinct => "Distinct",
        PlanOp::Sort { .. } => "Sort",
        PlanOp::Limit { .. } => "Limit",
    }
}

/// Grafts one completed span per operator under `parent`, nested like
/// the plan. Operator wall times are inclusive of their inputs, so a
/// span's self time is its own work.
pub fn graft_ops(
    rec: &Recorder,
    parent: &SpanHandle,
    node: &PlanNode,
    stats: &ExecStats,
    start: Instant,
) {
    let m = &stats.ops[node.id];
    let counters =
        [("rows_out", m.rows_out), ("peak_bytes", m.peak_bytes), ("threads", u64::from(m.threads))];
    let h = rec.record_span(
        Some(parent),
        format!("op:{}", op_kind(&node.op)),
        start,
        m.wall,
        &counters,
    );
    for c in &node.children {
        graft_ops(rec, &h, c, stats, start);
    }
}

/// Records a re-driven request as one root span with a child per step.
fn record(rec: &Recorder, id: usize, label: &str, r: &Redriven) {
    let root = rec.record_span(None, format!("req:{id} {label}"), r.start, r.total, &[]);
    for s in &r.steps {
        let h = rec.record_span(Some(&root), s.stage, s.start, s.dur, &s.counters);
        if let Some((plan, stats)) = &s.exec {
            graft_ops(rec, &h, plan, stats, s.start);
        }
    }
}

/// One operator span read back from the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct OpObs {
    /// Operator kind, e.g. `HashJoin`.
    pub kind: String,
    /// Self time (span minus child spans), microseconds.
    pub self_us: f64,
    /// Rows the operator emitted.
    pub rows_out: u64,
    /// The operator's peak resident bytes.
    pub peak_bytes: u64,
    /// Executor threads the operator used.
    pub threads: u64,
}

/// One request's layers, read back from its root span.
#[derive(Debug, Clone, Default)]
pub struct RequestLayers {
    /// Total microseconds per stage (plan and exec summed over
    /// interpretations).
    pub stage_us: BTreeMap<String, f64>,
    /// Span counters summed over the request.
    pub counters: BTreeMap<String, u64>,
    /// Every operator span under the request's `exec` spans.
    pub ops: Vec<OpObs>,
}

fn collect_ops(node: &SpanNode, out: &mut Vec<OpObs>) {
    if let Some(kind) = node.name.strip_prefix("op:") {
        out.push(OpObs {
            kind: kind.to_string(),
            self_us: node.self_us(),
            rows_out: node.counter("rows_out").unwrap_or(0),
            peak_bytes: node.counter("peak_bytes").unwrap_or(0),
            threads: node.counter("threads").unwrap_or(1),
        });
    }
    for c in &node.children {
        collect_ops(c, out);
    }
}

/// Reads each root span of `trace` back as one request's layers.
pub fn request_layers(trace: &PipelineTrace) -> Vec<RequestLayers> {
    trace
        .roots
        .iter()
        .map(|root| {
            let mut r = RequestLayers::default();
            for s in &root.children {
                *r.stage_us.entry(s.name.clone()).or_default() += s.total_us();
                for (k, v) in &s.counters {
                    *r.counters.entry(k.clone()).or_default() += v;
                }
                collect_ops(s, &mut r.ops);
            }
            r
        })
        .collect()
}

/// Per-layer totals of the operator spans of some requests, by kind:
/// (self µs, rows out, peak bytes), with self time and rows summed and
/// peak bytes maximized.
pub fn by_kind(requests: &[RequestLayers]) -> BTreeMap<String, (f64, u64, u64)> {
    let mut out: BTreeMap<String, (f64, u64, u64)> = BTreeMap::new();
    for op in requests.iter().flat_map(|r| &r.ops) {
        let e = out.entry(op.kind.clone()).or_default();
        e.0 += op.self_us;
        e.1 += op.rows_out;
        e.2 = e.2.max(op.peak_bytes);
    }
    out
}

/// Per-query attribution: the untraced call's median against the sum of
/// its stage medians.
#[derive(Debug, Clone)]
pub struct QueryAttribution {
    /// Pair label, e.g. `T4@tpch-prime`.
    pub label: String,
    /// Median of the untraced call with metrics on, µs.
    pub untraced_us: f64,
    /// Median of the untraced call with metrics off, µs.
    pub metrics_off_us: f64,
    /// Median per stage, µs, in [`STAGES`] order (stages the call does
    /// not run are left out).
    pub stages: Vec<(&'static str, f64)>,
}

impl QueryAttribution {
    /// The untraced median minus the stage medians: time in the engine
    /// no stage accounts for. Can be negative when stages are noisy.
    pub fn unattributed_us(&self) -> f64 {
        self.untraced_us - self.stages.iter().map(|s| s.1).sum::<f64>()
    }
}

/// Everything a traced run produced.
pub struct TraceOutcome {
    /// Every per-layer metric in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Metrics of the operator kinds outside [`OP_KINDS`].
    pub extra: Vec<Metric>,
    /// Per-query attribution.
    pub queries: Vec<QueryAttribution>,
    /// The span tree, one root per request.
    pub trace: PipelineTrace,
    /// Re-driven requests recorded.
    pub requests: u64,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times each set-up layer of every database; what `setup_s` spends
/// beyond them is the unattributed remainder. Returns the components of
/// the last repetition, for re-driving.
fn attribute_setup(prep: &Prepared) -> Result<(Vec<Components>, Vec<Metric>), String> {
    let mut parts = [0.0f64; 3];
    let mut components = Vec::new();
    for engine in &prep.engines {
        let mut samples: [Vec<f64>; 3] = Default::default();
        let mut last = None;
        for _ in 0..SETUP_REPS {
            // One set of components alive at a time.
            drop(last.take());
            let (c, t) = build_components(engine.database())?;
            for (s, d) in samples.iter_mut().zip(t) {
                s.push(d.as_secs_f64() * 1e3);
            }
            last = Some(c);
        }
        for (p, s) in parts.iter_mut().zip(&samples) {
            *p += median(s);
        }
        components.push(last.expect("at least one repetition"));
    }
    let n = SETUP_REPS;
    let rest = prep.setup.value * 1e3 - parts.iter().sum::<f64>();
    let metrics = vec![
        Metric::new("setup.view_ms", "ms", parts[0], n),
        Metric::new("setup.orm_ms", "ms", parts[1], n),
        Metric::new("setup.index_ms", "ms", parts[2], n),
        Metric::new("setup.unattributed_ms", "ms", rest, n),
    ];
    Ok((components, metrics))
}

/// Times the workload's own untraced call.
fn untraced(engine: &Engine, w: Workload, text: &str) -> Result<f64, String> {
    let t = Instant::now();
    let ok = if w == Workload::Gen {
        engine.generate(text, w.k()).map(|_| ())
    } else {
        engine.answer(text, w.k()).map(|_| ())
    };
    let d = t.elapsed();
    ok.map_err(|e| e.to_string())?;
    Ok(us(d))
}

/// What the service layer added to the workload's queries.
struct Probe {
    /// (client round trip µs, server µs) per request.
    samples: Vec<(f64, f64)>,
    /// Requests the server shed.
    shed: u64,
    /// Error frames the server sent.
    errors: u64,
}

impl Probe {
    /// Server time and what the client saw beyond it, as p50 and p90,
    /// plus sheds and errors.
    fn metrics(&self) -> Vec<Metric> {
        let mut engine_us: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        let mut overhead_us: Vec<f64> = self.samples.iter().map(|s| s.0 - s.1).collect();
        engine_us.sort_by(f64::total_cmp);
        overhead_us.sort_by(f64::total_cmp);
        let n = self.samples.len();
        vec![
            Metric::new("server.engine_us_p50", "us", percentile(&engine_us, 50.0), n),
            Metric::new("server.engine_us_p90", "us", percentile(&engine_us, 90.0), n),
            Metric::new("server.overhead_us_p50", "us", percentile(&overhead_us, 50.0), n),
            Metric::new("server.overhead_us_p90", "us", percentile(&overhead_us, 90.0), n),
            Metric::new("server.shed", "count", self.shed as f64, n),
            Metric::new("server.errors", "count", self.errors as f64, n),
        ]
    }
}

/// Sends every query through `aqks-server` on one connection, for at
/// least one pass and until `budget` is spent.
fn server_probe(prep: &Prepared, budget: Duration) -> Result<Probe, String> {
    let mut probe = Probe { samples: Vec::new(), shed: 0, errors: 0 };
    for (ei, engine) in prep.engines.iter().enumerate() {
        // `serve` probes its own server; the others start one per engine.
        let own = prep.server.as_ref();
        let temp = match own {
            Some(_) => None,
            None => Some(
                Server::start(std::sync::Arc::clone(engine), workload::server_config())
                    .map_err(|e| format!("Server::start: {e}"))?,
            ),
        };
        let server = own.or(temp.as_ref()).expect("a server is running");
        let mut client = workload::connected_client(server, 0)?;
        let share = budget.mul_f64(1.0 / prep.engines.len() as f64);
        let started = Instant::now();
        loop {
            for (i, p) in prep.pairs.iter().enumerate().filter(|(_, p)| p.engine == ei) {
                let mut req = aqks_server::Request::new(p.query.text);
                req.k = prep.workload.k();
                let t = Instant::now();
                let answer = client.query(&req).map_err(|e| format!("{}: {e}", prep.label(i)))?;
                let rtt = us(t.elapsed());
                let got = answer.interpretations.iter().map(|x| &x.rows);
                if !got.eq(p.results.iter().map(workload::wire_rows).collect::<Vec<_>>().iter()) {
                    return Err(format!(
                        "{}: wire answer differs from in-process answer",
                        prep.label(i)
                    ));
                }
                probe.samples.push((rtt, answer.server_us as f64));
            }
            if started.elapsed() >= share {
                break;
            }
        }
        client.quit();
        let stats = server.stats();
        probe.shed += stats.shed();
        probe.errors += stats.errors;
        if let Some(s) = temp {
            s.shutdown();
        }
    }
    Ok(probe)
}

/// SQL-generation time of SQAK against ours, per query (Figure 11):
/// SQAK's median µs over the queries it supports, and the median over
/// those queries of ours / SQAK.
fn fig11(prep: &Prepared) -> (f64, f64, usize) {
    let mut sqak_us = Vec::new();
    let mut ratios = Vec::new();
    for (ei, engine) in prep.engines.iter().enumerate() {
        let sqak = aqks_sqak::Sqak::new(engine.database().clone());
        for p in prep.pairs.iter().filter(|p| p.engine == ei) {
            if sqak.generate(p.query.text).is_err() {
                continue; // SQAK's "N.A." queries (Tables 5/6)
            }
            let (mut ours, mut theirs) = (Vec::new(), Vec::new());
            for _ in 0..SQAK_REPS {
                let t = Instant::now();
                let _ = std::hint::black_box(engine.generate(p.query.text, 1));
                ours.push(us(t.elapsed()));
                let t = Instant::now();
                let _ = std::hint::black_box(sqak.generate(p.query.text));
                theirs.push(us(t.elapsed()));
            }
            let (o, s) = (median(&ours), median(&theirs));
            sqak_us.push(s);
            ratios.push(o / s);
        }
    }
    if sqak_us.is_empty() {
        return (f64::NAN, f64::NAN, 0);
    }
    (median(&sqak_us), median(&ratios), sqak_us.len())
}

/// Rows the interpretations of each query move when executed one by one
/// against rows they move when equivalent plans run once and shared
/// subtrees are materialized once (`aqks-equiv`).
fn shared_rows(prep: &Prepared, plans: &[Vec<(PlanNode, u64)>]) -> Result<(u64, u64), String> {
    let (mut each, mut shared) = (0, 0);
    let opts = ExecOptions::with_threads(prep.workload.threads());
    for (i, p) in prep.pairs.iter().enumerate() {
        let db = prep.engines[p.engine].database();
        let nodes: Vec<PlanNode> = plans[i].iter().map(|(n, _)| n.clone()).collect();
        let analysis = aqks_equiv::analyze(&nodes, db)
            .map_err(|e| format!("{}: equiv: {e}", prep.label(i)))?;
        let set = aqks_equiv::shared_set(&analysis);
        let run = aqks_equiv::run_shared_opts(&set, db, opts)
            .map_err(|e| format!("{}: shared run: {e}", prep.label(i)))?;
        each += plans[i].iter().map(|(_, rows)| rows).sum::<u64>();
        shared +=
            run.plan_stats.iter().chain(&run.share_stats).map(ExecStats::rows_flowed).sum::<u64>();
    }
    Ok((each, shared))
}

/// The paper's query phases: per-request medians of each stage, and the
/// work counts behind them (means per request).
fn core_layers(requests: &[RequestLayers]) -> Vec<Metric> {
    let n = requests.len();
    let mut out: Vec<Metric> = STAGES[..7]
        .iter()
        .map(|stage| {
            let v: Vec<f64> =
                requests.iter().map(|r| r.stage_us.get(*stage).copied().unwrap_or(0.0)).collect();
            Metric::new(format!("core.{stage}_us"), "us", median(&v), n)
        })
        .collect();
    let mean = |name: &str| {
        requests.iter().map(|r| r.counters.get(name).copied().unwrap_or(0)).sum::<u64>() as f64
            / n as f64
    };
    let (generated, interps) = (mean("patterns_generated"), mean("interpretations"));
    out.push(Metric::new("core.term_matches", "count", mean("term_matches"), n));
    out.push(Metric::new("core.patterns_generated", "count", generated, n));
    out.push(Metric::new("core.interpretations", "count", interps, n));
    out.push(Metric::new("core.pattern_yield", "ratio", interps / generated, n));
    out
}

/// Planning and execution of the requests that executed: stage medians,
/// per-operator-kind self time and rows (means per request) and peak
/// bytes, the parallel share of exec time, and rows moved per result
/// row. Kinds outside [`OP_KINDS`] come back separately.
fn sqlgen_layers(executed: &[RequestLayers]) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let n = executed.len();
    let mut out: Vec<Metric> = ["plan", "exec"]
        .iter()
        .map(|stage| {
            let v: Vec<f64> = executed.iter().map(|r| r.stage_us[*stage]).collect();
            Metric::new(format!("sqlgen.{stage}_us"), "us", median(&v), n)
        })
        .collect();
    let kinds = by_kind(executed);
    if let Some(missing) = OP_KINDS.iter().find(|k| !kinds.contains_key(**k)) {
        return Err(format!("no {missing} operator ran in the traced requests"));
    }
    let mut extra = Vec::new();
    for (kind, (self_us, rows, peak)) in &kinds {
        let target = if OP_KINDS.contains(&kind.as_str()) { &mut out } else { &mut extra };
        let per_request = |v: f64| v / n as f64;
        target.push(Metric::new(
            format!("sqlgen.op.{kind}.self_us"),
            "us",
            per_request(*self_us),
            n,
        ));
        target.push(Metric::new(
            format!("sqlgen.op.{kind}.rows_out"),
            "count",
            per_request(*rows as f64),
            n,
        ));
        target.push(Metric::new(format!("sqlgen.op.{kind}.peak_bytes"), "bytes", *peak as f64, n));
    }
    let ops = || executed.iter().flat_map(|r| &r.ops);
    let exec_us: f64 = executed.iter().map(|r| r.stage_us["exec"]).sum();
    let parallel_us: f64 = ops().filter(|o| o.threads > 1).map(|o| o.self_us).sum();
    out.push(Metric::new("sqlgen.parallel_fraction", "ratio", parallel_us / exec_us, n));
    let rows_flowed: u64 = ops().map(|o| o.rows_out).sum();
    let result_rows: u64 =
        executed.iter().map(|r| r.counters.get("result_rows").copied().unwrap_or(0)).sum();
    out.push(Metric::new(
        "sqlgen.rows_per_result",
        "ratio",
        rows_flowed as f64 / result_rows as f64,
        n,
    ));
    Ok((out, extra))
}

/// Runs the traced attribution of a prepared workload.
pub fn run(prep: &Prepared, cfg: &Config) -> Result<TraceOutcome, String> {
    let w = prep.workload;
    let (components, mut metrics) = attribute_setup(prep)?;
    let rec = Recorder::enabled();
    let n = prep.pairs.len();
    let mut on = vec![Vec::new(); n];
    let mut off = vec![Vec::new(); n];
    let mut pair_of_request = Vec::new();
    let mut plans: Vec<Vec<(PlanNode, u64)>> = vec![Vec::new(); n];
    let executes = w != Workload::Gen;

    let check = |i: usize, r: &Redriven| -> Result<(), String> {
        let p = &prep.pairs[i];
        if r.sql != p.sql {
            return Err(format!("{}: re-driven SQL differs from Engine::generate", prep.label(i)));
        }
        if !r.results.is_empty() && r.results != p.results {
            return Err(format!("{}: re-driven results differ from Engine::answer", prep.label(i)));
        }
        Ok(())
    };
    let mut redrive_pair = |i: usize, execute: bool| -> Result<Redriven, String> {
        let p = &prep.pairs[i];
        let db = prep.engines[p.engine].database();
        let r = redrive(&components[p.engine], db, p.query.text, w.k(), w.threads(), execute)?;
        check(i, &r)?;
        record(&rec, pair_of_request.len(), &prep.label(i), &r);
        pair_of_request.push(i);
        Ok(r)
    };

    // Interleave the untraced call (metrics on, metrics off, alternating
    // which goes first) with the re-driven one, query by query, so drift
    // in machine speed hits all three alike.
    let budget = Duration::from_secs_f64(cfg.seconds * 0.6);
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || (t0.elapsed() < budget && rounds < MAX_ROUNDS) {
        for i in 0..n {
            let p = &prep.pairs[i];
            let engine = &prep.engines[p.engine];
            for metrics_on in if rounds % 2 == 0 { [true, false] } else { [false, true] } {
                aqks_obs::metrics::set_enabled(metrics_on);
                let t = untraced(engine, w, p.query.text);
                aqks_obs::metrics::set_enabled(true);
                let t = t.map_err(|e| format!("{}: {e}", prep.label(i)))?;
                if metrics_on {
                    on[i].push(t)
                } else {
                    off[i].push(t)
                }
            }
            let r = redrive_pair(i, executes)?;
            if rounds == 0 {
                plans[i] = r.executed_plans();
            }
        }
        rounds += 1;
    }
    let traced_requests = rounds * n;
    // `gen` never executes; one executed pass gives its plan and exec
    // layers, reported for the same queries but outside its timed path.
    if !executes {
        for (i, slot) in plans.iter_mut().enumerate() {
            *slot = redrive_pair(i, true)?.executed_plans();
        }
    }

    let trace = rec.take();
    let layers = request_layers(&trace);
    let front = &layers[..traced_requests];
    metrics.extend(core_layers(front));
    // Executor layers: over the requests that executed.
    let executed: Vec<RequestLayers> =
        layers.iter().filter(|r| r.stage_us.contains_key("exec")).cloned().collect();
    let (sqlgen, extra) = sqlgen_layers(&executed)?;
    metrics.extend(sqlgen);
    let (each, shared) = shared_rows(prep, &plans)?;
    metrics.push(Metric::new(
        "sqlgen.shared_rows_fraction",
        "ratio",
        1.0 - shared as f64 / each as f64,
        n,
    ));

    // Engine glue and the always-on metrics.
    let call_stages: &[&'static str] = if executes { &STAGES } else { &STAGES[..7] };
    let mut queries = Vec::with_capacity(n);
    for i in 0..n {
        let mine: Vec<&RequestLayers> = pair_of_request[..traced_requests]
            .iter()
            .zip(front)
            .filter(|(p, _)| **p == i)
            .map(|(_, r)| r)
            .collect();
        let stages = call_stages
            .iter()
            .map(|s| {
                let v: Vec<f64> =
                    mine.iter().map(|r| r.stage_us.get(*s).copied().unwrap_or(0.0)).collect();
                (*s, median(&v))
            })
            .collect();
        queries.push(QueryAttribution {
            label: prep.label(i),
            untraced_us: median(&on[i]),
            metrics_off_us: median(&off[i]),
            stages,
        });
    }
    let untraced_total: f64 = queries.iter().map(|q| q.untraced_us).sum();
    let off_total: f64 = queries.iter().map(|q| q.metrics_off_us).sum();
    let unattributed: f64 = queries.iter().map(QueryAttribution::unattributed_us).sum();
    metrics.push(Metric::new("engine.unattributed_us", "us", unattributed / n as f64, n));
    metrics.push(Metric::new(
        "engine.unattributed_pct",
        "%",
        100.0 * unattributed / untraced_total,
        n,
    ));
    metrics.push(Metric::new(
        "obs.overhead_pct",
        "%",
        100.0 * (untraced_total - off_total) / off_total,
        n,
    ));

    metrics.extend(server_probe(prep, Duration::from_secs_f64(cfg.seconds / 10.0))?.metrics());

    // The baseline (Figure 11).
    let (sqak_us, ratio, ns) = fig11(prep);
    metrics.push(Metric::new("sqak.generate_us", "us", sqak_us, ns));
    metrics.push(Metric::new("fig11.ratio", "ratio", ratio, ns));

    Ok(TraceOutcome { metrics, extra, queries, trace, requests: layers.len() as u64 })
}

impl TraceOutcome {
    /// The layers file: every per-layer metric, extra operator kinds and
    /// the per-query attribution.
    pub fn layers_json(&self, w: Workload, cfg: &Config) -> String {
        let metric = |m: &Metric| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"value\": {}, \"n\": {}}}",
                report::escape(&m.name),
                m.unit,
                report::number(m.value),
                m.n
            )
        };
        let metrics: Vec<String> = self.metrics.iter().chain(&self.extra).map(metric).collect();
        let queries: Vec<String> = self
            .queries
            .iter()
            .map(|q| {
                let stages: Vec<String> = q
                    .stages
                    .iter()
                    .map(|(s, v)| format!("\"{s}\": {}", report::number(*v)))
                    .collect();
                format!(
                    "    {{\"query\": \"{}\", \"untraced_us\": {}, \"metrics_off_us\": {}, \"stages_us\": {{{}}}, \"unattributed_us\": {}}}",
                    report::escape(&q.label),
                    report::number(q.untraced_us),
                    report::number(q.metrics_off_us),
                    stages.join(", "),
                    report::number(q.unattributed_us())
                )
            })
            .collect();
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"host_cpus\": {},\n  \"git_rev\": \"{}\",\n  \"requests\": {},\n  \"metrics\": [\n{}\n  ],\n  \"queries\": [\n{}\n  ]\n}}\n",
            w.name(),
            cfg.seed,
            report::host_cpus(),
            report::escape(&report::git_rev()),
            self.requests,
            metrics.join(",\n"),
            queries.join(",\n")
        )
    }

    /// Per-query lines: untraced median, stage medians and the
    /// unattributed remainder, which add up to the untraced median.
    pub fn render_queries(&self) -> String {
        let mut out = String::new();
        for q in &self.queries {
            let stages: Vec<String> = q.stages.iter().map(|(s, v)| format!("{s} {v:.1}")).collect();
            out.push_str(&format!(
                "{:<18} untraced {:>10.1} us = {} + unattributed {:.1}\n",
                q.label,
                q.untraced_us,
                stages.join(" + "),
                q.unattributed_us()
            ));
        }
        out
    }
}
