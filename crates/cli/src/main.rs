#![cfg_attr(not(test), warn(clippy::unwrap_used))]

//! `aqks` — an interactive keyword-query shell over the bundled datasets.
//!
//! ```text
//! aqks --dataset tpch 'COUNT order "royal olive"'     # one-shot
//! aqks --dataset university                           # REPL
//! ```
//!
//! Options:
//!
//! * `--dataset NAME` — `university` (default), `fig2`, `fig8`, `tpch`,
//!   `acmdl`, `tpch-prime`, `acmdl-prime`
//! * `--paper-scale` — full-cardinality synthetic data
//! * `--k N` — show the top-N interpretations (default 1)
//! * `--sqak` — also run the SQAK baseline for contrast
//! * `--explain` — print the ORM schema graph and the query pattern
//! * `--threads N` — executor worker threads (default 1); results are
//!   identical at every thread count, only wall time changes
//! * `--timeout-ms N`, `--max-rows N`, `--max-patterns N`,
//!   `--max-interpretations N` — resource budget for the query; on
//!   exhaustion the completed interpretations are printed, a one-line
//!   `budget exhausted: …` diagnostic goes to stderr, and the process
//!   exits with code 3
//!
//! When stdout is closed before the output is written (piped into
//! `head`, say), `aqks` stops without a message and exits with code 141,
//! the status a shell reports for a process killed by SIGPIPE.
//!
//! Subcommand `aqks check [--dataset NAME] [--sqak] [--plans] [QUERY]`
//! runs the static analyzer (`aqks-analyze`) over the SQL both engines
//! generate — for one query, or for the dataset's whole built-in
//! workload when no query is given — and exits non-zero on
//! error-severity findings. `--plans` additionally lowers every
//! interpretation to its physical plan and runs the plan verifier
//! (`aqks-plancheck`) on it, printing each plan's fingerprint. `--equiv`
//! plans each interpretation with and without predicate pushdown, and
//! both plans must verify and execute to the same rows; interpretations
//! that plan identically are reported as duplicate work (`aqks-equiv`).
//!
//! Subcommand `aqks explain [--analyze] [--shared] [--dataset NAME]
//! [QUERY]` prints the physical operator tree of each generated
//! statement with its statically inferred properties (keys, ordering,
//! row bounds) and its normalized fingerprint; `--analyze` additionally
//! executes the plan and annotates every operator with rows in/out and
//! wall time. `--shared` instead prints each query's execution set: one
//! plan per class of equal plans, with the join subtrees `Engine::run`
//! executes once elided to numbered shared-subplan references.
//!
//! Subcommand `aqks trace [--dataset NAME] [QUERY]` answers the query
//! with the `aqks-obs` recorder enabled and prints the pipeline span
//! tree (per-phase self/total wall times plus counters). The global
//! `--trace[=text|json|chrome]` flag does the same for ordinary one-shot
//! and REPL queries; `chrome` additionally writes a `trace_event` JSON
//! file (`--trace-out FILE`, default `aqks-trace.json`) loadable in
//! `chrome://tracing` or Perfetto. `trace --slow` instead answers the
//! queries through the ordinary (untraced) path — which files every
//! query with the always-on flight recorder — and prints the retained
//! slowest-query exemplar's span tree.
//!
//! Subcommand `aqks metrics [--prom|--json] [--dataset NAME] [QUERY]`
//! answers the query (or the dataset's built-in workload) and prints
//! the always-on metrics registry — engine phase/latency histograms,
//! per-operator rows and peak memory, guard trips — in Prometheus text
//! format v0.0.4 (the default) or as a JSON snapshot.
//!
//! Subcommand `aqks serve [--dataset NAME] [--addr HOST:PORT]
//! [--workers N] [--queue-depth N]` loads the dataset once and serves
//! it as a concurrent TCP query service (`aqks-server`): bounded
//! admission queue, per-request deadlines clamped by the budget flags,
//! typed wire errors, graceful drain on stdin EOF or `quit`.
//!
//! Subcommand `aqks client --addr HOST:PORT [--k N] [--timeout-ms N]
//! QUERY` sends one keyword query to a running server through the
//! retrying client (exponential backoff with jitter on retryable
//! errors) and prints the interpretations; a budget-degraded answer
//! exits with code 3 like a local exhausted query.
//!
//! REPL commands: `\schema` (relations), `\graph` (ORM graph), `\q`.

use std::io::{BufRead, Write};

use aqks_analyze::Analyzer;
use aqks_core::{AnswerRequest, Budget, Engine};
use aqks_datasets::{
    denormalize_acmdl, denormalize_tpch, generate_acmdl, generate_tpch, university, AcmdlConfig,
    TpchConfig,
};
use aqks_obs::PipelineTrace;
use aqks_relational::Database;
use aqks_sqak::Sqak;

/// Rendering of a collected [`PipelineTrace`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum TraceFormat {
    /// Span tree as text (the default).
    Text,
    /// Structured JSON on stdout.
    Json,
    /// Text tree on stdout plus a Chrome `trace_event` file.
    Chrome,
}

impl TraceFormat {
    fn parse(v: &str) -> Result<TraceFormat, String> {
        match v {
            "text" => Ok(TraceFormat::Text),
            "json" => Ok(TraceFormat::Json),
            "chrome" => Ok(TraceFormat::Chrome),
            other => Err(format!("unknown trace format `{other}` (text|json|chrome)")),
        }
    }
}

struct Options {
    dataset: String,
    paper_scale: bool,
    k: usize,
    sqak: bool,
    explain: bool,
    check: bool,
    plans: bool,
    equiv: bool,
    shared: bool,
    explain_plan: bool,
    trace_cmd: bool,
    metrics_cmd: bool,
    serve_cmd: bool,
    client_cmd: bool,
    addr: String,
    workers: usize,
    queue_depth: usize,
    metrics_json: bool,
    slow: bool,
    analyze: bool,
    trace: Option<TraceFormat>,
    trace_out: String,
    export: Option<String>,
    timeout_ms: Option<u64>,
    max_rows: Option<u64>,
    max_patterns: Option<u64>,
    max_interpretations: Option<u64>,
    threads: usize,
    query: Option<String>,
}

impl Options {
    /// True once one of the `check`/`explain`/`trace`/`metrics`/
    /// `serve`/`client` subcommands is set.
    fn subcommand(&self) -> bool {
        self.check
            || self.explain_plan
            || self.trace_cmd
            || self.metrics_cmd
            || self.serve_cmd
            || self.client_cmd
    }

    /// The resource budget assembled from the `--timeout-ms`/`--max-*`
    /// flags; unlimited when none were given.
    fn budget(&self) -> Budget {
        let mut b = Budget::unlimited();
        if let Some(ms) = self.timeout_ms {
            b = b.with_timeout(std::time::Duration::from_millis(ms));
        }
        if let Some(n) = self.max_rows {
            b = b.with_max_rows(n);
        }
        if let Some(n) = self.max_patterns {
            b = b.with_max_patterns(n);
        }
        if let Some(n) = self.max_interpretations {
            b = b.with_max_interpretations(n);
        }
        b
    }
}

/// Exit code for a budget-exhausted query (distinct from usage errors
/// `2` and ordinary failures `1`).
const EXIT_EXHAUSTED: i32 = 3;

/// Exit code when stdout is closed before the output is written: 128 +
/// SIGPIPE, as a shell reports for a process the signal killed.
const EXIT_CLOSED_STDOUT: i32 = 141;

/// Writes the command's output to stdout; a closed stdout (the reader
/// went away, as in `aqks … | head`) ends the process quietly with
/// [`EXIT_CLOSED_STDOUT`].
fn emit(args: std::fmt::Arguments) {
    match std::io::stdout().write_fmt(args) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            std::process::exit(EXIT_CLOSED_STDOUT)
        }
        written => written.expect("stdout accepts the command's output"),
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        dataset: "university".into(),
        paper_scale: false,
        k: 1,
        sqak: false,
        explain: false,
        check: false,
        plans: false,
        equiv: false,
        shared: false,
        explain_plan: false,
        trace_cmd: false,
        metrics_cmd: false,
        serve_cmd: false,
        client_cmd: false,
        addr: "127.0.0.1:7878".into(),
        workers: 4,
        queue_depth: 64,
        metrics_json: false,
        slow: false,
        analyze: false,
        trace: None,
        trace_out: "aqks-trace.json".into(),
        export: None,
        timeout_ms: None,
        max_rows: None,
        max_patterns: None,
        max_interpretations: None,
        threads: 1,
        query: None,
    };
    fn num(args: &[String], i: usize, flag: &str) -> Result<u64, String> {
        args.get(i)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a non-negative number"))
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let mut positional: Vec<String> = Vec::new();
    while i < args.len() {
        match args[i].as_str() {
            "--dataset" | "-d" => {
                i += 1;
                opts.dataset = args.get(i).ok_or("--dataset needs a value")?.to_lowercase();
            }
            "--paper-scale" => opts.paper_scale = true,
            "--sqak" => opts.sqak = true,
            "--explain" => opts.explain = true,
            "--analyze" => opts.analyze = true,
            "--plans" => opts.plans = true,
            "--equiv" => opts.equiv = true,
            "--shared" => opts.shared = true,
            "--json" => opts.metrics_json = true,
            "--prom" => opts.metrics_json = false,
            "--slow" => opts.slow = true,
            "--trace" => opts.trace = Some(TraceFormat::Text),
            flag if flag.starts_with("--trace=") => {
                opts.trace = Some(TraceFormat::parse(&flag["--trace=".len()..])?);
            }
            "--trace-out" => {
                i += 1;
                opts.trace_out = args.get(i).ok_or("--trace-out needs a file")?.to_string();
            }
            "--export" => {
                i += 1;
                opts.export = Some(args.get(i).ok_or("--export needs a directory")?.to_string());
            }
            "--k" => {
                i += 1;
                opts.k = args.get(i).and_then(|v| v.parse().ok()).ok_or("--k needs a number")?;
            }
            "--timeout-ms" => {
                i += 1;
                opts.timeout_ms = Some(num(&args, i, "--timeout-ms")?);
            }
            "--max-rows" => {
                i += 1;
                opts.max_rows = Some(num(&args, i, "--max-rows")?);
            }
            "--max-patterns" => {
                i += 1;
                opts.max_patterns = Some(num(&args, i, "--max-patterns")?);
            }
            "--max-interpretations" => {
                i += 1;
                opts.max_interpretations = Some(num(&args, i, "--max-interpretations")?);
            }
            "--threads" => {
                i += 1;
                opts.threads = (num(&args, i, "--threads")? as usize).max(1);
            }
            "--addr" => {
                i += 1;
                opts.addr = args.get(i).ok_or("--addr needs HOST:PORT")?.to_string();
            }
            "--workers" => {
                i += 1;
                opts.workers = (num(&args, i, "--workers")? as usize).max(1);
            }
            "--queue-depth" => {
                i += 1;
                opts.queue_depth = num(&args, i, "--queue-depth")? as usize;
            }
            "--help" | "-h" => {
                outln!("usage: aqks [check|explain|trace|metrics|serve|client] [--dataset NAME|DIR] [--paper-scale] [--k N] [--sqak] [--explain] [--analyze] [--plans] [--equiv] [--shared] [--slow] [--prom|--json] [--trace[=text|json|chrome]] [--trace-out FILE] [--export DIR] [--timeout-ms N] [--max-rows N] [--max-patterns N] [--max-interpretations N] [--threads N] [--addr HOST:PORT] [--workers N] [--queue-depth N] [QUERY]");
                std::process::exit(0);
            }
            "check" if positional.is_empty() && !opts.subcommand() => opts.check = true,
            "explain" if positional.is_empty() && !opts.subcommand() => opts.explain_plan = true,
            "trace" if positional.is_empty() && !opts.subcommand() => opts.trace_cmd = true,
            "metrics" if positional.is_empty() && !opts.subcommand() => opts.metrics_cmd = true,
            "serve" if positional.is_empty() && !opts.subcommand() => opts.serve_cmd = true,
            "client" if positional.is_empty() && !opts.subcommand() => opts.client_cmd = true,
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => positional.push(other.to_string()),
        }
        i += 1;
    }
    if !positional.is_empty() {
        opts.query = Some(positional.join(" "));
    }
    Ok(opts)
}

fn load_dataset(name: &str, paper_scale: bool) -> Result<Database, String> {
    let tpch_cfg = if paper_scale { TpchConfig::paper_scale() } else { TpchConfig::small() };
    let acmdl_cfg = if paper_scale { AcmdlConfig::paper_scale() } else { AcmdlConfig::small() };
    Ok(match name {
        "university" | "uni" => university::normalized(),
        "fig2" => university::unnormalized_fig2(),
        "fig8" | "enrolment" => university::enrolment_fig8(),
        "hobbies" => university::with_hobbies(),
        "tpch" => generate_tpch(&tpch_cfg),
        "acmdl" => generate_acmdl(&acmdl_cfg),
        "tpch-prime" | "tpch'" => denormalize_tpch(&generate_tpch(&tpch_cfg)),
        "acmdl-prime" | "acmdl'" => denormalize_acmdl(&generate_acmdl(&acmdl_cfg)),
        // Anything path-like imports a schema.txt + CSV directory.
        other if other.contains('/') || std::path::Path::new(other).is_dir() => {
            aqks_relational::import_dir(std::path::Path::new(other))
                .map_err(|e| format!("import `{other}`: {e}"))?
        }
        other => return Err(format!("unknown dataset `{other}`")),
    })
}

/// Prints a collected trace in the requested format; `Chrome` also
/// writes the `trace_event` file to `out`.
fn emit_trace(trace: &PipelineTrace, fmt: TraceFormat, out: &str) {
    match fmt {
        TraceFormat::Text => out!("{}", trace.render_text()),
        TraceFormat::Json => out!("{}", trace.to_json()),
        TraceFormat::Chrome => {
            out!("{}", trace.render_text());
            match std::fs::write(out, trace.to_chrome_json()) {
                Ok(()) => {
                    eprintln!("wrote Chrome trace to {out} (open in chrome://tracing or Perfetto)")
                }
                Err(e) => eprintln!("cannot write {out}: {e}"),
            }
        }
    }
}

/// Answers one query, printing interpretations (and optionally the
/// trace and the SQAK baseline). Returns the process exit code: `0` on
/// success, `1` on error, [`EXIT_EXHAUSTED`] when the budget tripped.
fn run_query(
    engine: &Engine,
    sqak: Option<&Sqak>,
    query: &str,
    req: &AnswerRequest,
    explain: bool,
    trace: Option<TraceFormat>,
    trace_out: &str,
) -> i32 {
    if explain {
        match engine.explain(query) {
            Ok(ex) => {
                outln!("── interpretation trace");
                for t in &ex.terms {
                    let kind = if t.is_operator { "operator" } else { "term" };
                    if t.matches.is_empty() {
                        outln!("  {kind} {:<12}", t.term);
                    } else {
                        outln!("  {kind} {:<12} -> {}", t.term, t.matches.join(" | "));
                    }
                }
                outln!("  {} pattern(s) generated", ex.patterns.len());
            }
            Err(e) => outln!("explain error: {e}"),
        }
    }
    let mut code = 0;
    match engine.run(query, req) {
        Ok(answered) => {
            for (rank, a) in answered.interpretations.iter().enumerate() {
                outln!("── interpretation #{}", rank + 1);
                if explain {
                    outln!("pattern: {}", a.pattern_description);
                }
                outln!("{}", a.sql_text);
                outln!("{}", a.result);
                outln!("({})", a.stats);
            }
            if let (Some(fmt), Some(t)) = (trace, &answered.trace) {
                outln!("── pipeline trace");
                emit_trace(t, fmt, trace_out);
            }
            if let Some(ex) = answered.exhaustion {
                eprintln!("budget exhausted: {ex}");
                code = EXIT_EXHAUSTED;
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            code = 1;
        }
    }
    if let Some(sqak) = sqak {
        outln!("── SQAK baseline");
        match sqak.generate(query) {
            Ok(g) => {
                outln!("{}", g.sql_text);
                match sqak.answer(query) {
                    Ok(r) => outln!("{r}"),
                    Err(e) => outln!("execution error: {e}"),
                }
            }
            Err(e) => outln!("N.A.: {e}"),
        }
    }
    code
}

/// The built-in workload `aqks check` sweeps when no query is given.
fn check_workload(dataset: &str) -> Vec<String> {
    match dataset {
        "tpch" | "tpch-prime" | "tpch'" => {
            aqks_eval::tpch_queries().iter().map(|q| q.text.to_string()).collect()
        }
        "acmdl" | "acmdl-prime" | "acmdl'" => {
            aqks_eval::acmdl_queries().iter().map(|q| q.text.to_string()).collect()
        }
        "fig2" => vec!["Engineering COUNT Department".into()],
        "fig8" | "enrolment" => vec!["Green George COUNT Code".into()],
        _ => vec![
            "Green SUM Credit".into(),
            "Java SUM Price".into(),
            "COUNT Lecturer GROUPBY Course".into(),
        ],
    }
}

/// Prints the physical plan of every interpretation of `queries`; with
/// `analyze`, answers each query through `Engine::run` and annotates
/// operators with the row counts and wall time its execution measured
/// (subtrees replayed from an earlier interpretation are noted
/// `shared`). Returns the number of failed queries.
fn run_explain(engine: &Engine, queries: &[String], k: usize, analyze: bool) -> usize {
    let db = engine.database();
    let mut failures = 0;
    for q in queries {
        outln!("── explain `{q}`");
        let statements = if analyze {
            engine.run(q, &AnswerRequest::new(k)).map(|a| {
                a.interpretations.into_iter().map(|a| (a.sql, a.sql_text, Some(a.stats))).collect()
            })
        } else {
            engine
                .generate(q, k)
                .map(|g| g.into_iter().map(|g| (g.sql, g.sql_text, None)).collect::<Vec<_>>())
        };
        let statements = match statements {
            Ok(s) => s,
            Err(e) => {
                outln!("  error: {e}");
                failures += 1;
                continue;
            }
        };
        for (rank, (sql, sql_text, stats)) in statements.iter().enumerate() {
            outln!("interpretation #{}", rank + 1);
            outln!("{sql_text}");
            // The planner is deterministic in the statement, so this is
            // the plan the engine ran, with the same node ids.
            let plan = match aqks_sqlgen::plan(sql, db) {
                Ok(p) => p,
                Err(e) => {
                    outln!("  plan error: {e}");
                    failures += 1;
                    continue;
                }
            };
            // Verify first: explain output shows each operator's
            // statically inferred keys, ordering, and row bounds.
            let verified = match aqks_plancheck::verify(&plan, db, sql) {
                Ok(v) => v,
                Err(e) => {
                    outln!("  plan verification error: {e}");
                    failures += 1;
                    continue;
                }
            };
            outln!("plan fingerprint: {}", aqks_plancheck::fingerprint_hex(&plan));
            let rendered = match stats {
                Some(stats) => aqks_sqlgen::render_plan_with_stats(&plan, stats),
                None => aqks_plancheck::render_verified(&plan, &verified),
            };
            outln!("{rendered}");
        }
    }
    failures
}

/// Plans every interpretation of each query, groups equal plans, and
/// prints the execution set `Engine::run` would use: each class
/// representative's tree, with the join subtrees the engine's election
/// shares elided to numbered shared-subplan references. Returns the
/// number of failures.
fn run_explain_shared(engine: &Engine, queries: &[String], k: usize) -> usize {
    let db = engine.database();
    let mut failures = 0;
    for q in queries {
        outln!("── explain --shared `{q}`");
        let plans: Vec<aqks_sqlgen::PlanNode> = match engine.interpretation_plans(q, k) {
            Ok(pairs) => pairs
                .into_iter()
                .enumerate()
                .map(|(rank, (g, p))| {
                    outln!("interpretation #{} (plan #{rank}): {}", rank + 1, g.sql_text);
                    p
                })
                .collect(),
            Err(e) => {
                outln!("  error: {e}");
                failures += 1;
                continue;
            }
        };
        let Ok(analysis) = aqks_equiv::analyze(&plans, db);
        outln!(
            "── shared execution set: {} plan(s) -> {} class(es), {} duplicate(s) elided",
            plans.len(),
            analysis.classes.len(),
            analysis.duplicates()
        );
        for (ci, class) in analysis.classes.iter().enumerate() {
            if class.members.len() > 1 {
                let members: Vec<String> = class.members.iter().map(|m| format!("#{m}")).collect();
                outln!("class {ci} [{:016x}]: plans {}", class.fingerprint, members.join(", "));
            }
        }
        out!("{}", aqks_equiv::render_shared(&aqks_equiv::shared_set(&analysis)));
    }
    failures
}

/// Answers each query with tracing enabled and prints the pipeline span
/// tree. Returns the number of failures (errors or empty span trees —
/// the latter would mean the pipeline silently lost its instrumentation,
/// which CI guards against).
fn run_trace(
    engine: &Engine,
    queries: &[String],
    k: usize,
    fmt: TraceFormat,
    trace_out: &str,
) -> usize {
    let mut failures = 0;
    for q in queries {
        outln!("── trace `{q}`");
        match engine.run(q, &AnswerRequest { trace: true, ..AnswerRequest::new(k) }) {
            Ok(answered) => {
                let trace = answered.trace.unwrap_or_default();
                if trace.is_empty() {
                    outln!("  error: empty span tree");
                    failures += 1;
                    continue;
                }
                for (rank, a) in answered.interpretations.iter().enumerate() {
                    outln!("interpretation #{}: {}", rank + 1, a.sql_text);
                    outln!("({})", a.stats);
                }
                emit_trace(&trace, fmt, trace_out);
            }
            Err(e) => {
                outln!("  error: {e}");
                failures += 1;
            }
        }
    }
    failures
}

/// Answers each query through the ordinary (untraced) path — every call
/// is metered by the always-on registry and filed with the flight
/// recorder — then prints the retained slowest-query exemplar's span
/// tree. Returns the number of failures.
fn run_trace_slow(
    engine: &Engine,
    queries: &[String],
    k: usize,
    fmt: TraceFormat,
    trace_out: &str,
) -> usize {
    let mut failures = 0;
    for q in queries {
        if let Err(e) = engine.answer(q, k) {
            outln!("── trace --slow `{q}`");
            outln!("  error: {e}");
            failures += 1;
        }
    }
    match aqks_obs::flight::global().slowest() {
        Some(entry) => {
            outln!(
                "── slowest query `{}` ({} µs total{})",
                entry.query,
                entry.total_ns / 1_000,
                if entry.tripped.is_some() { ", budget tripped" } else { "" }
            );
            if let Some(t) = &entry.tripped {
                outln!("tripped: {t}");
            }
            emit_trace(&entry.trace, fmt, trace_out);
        }
        None => {
            outln!("  error: flight recorder is empty (metrics disabled?)");
            failures += 1;
        }
    }
    failures
}

/// Answers each query (feeding the always-on registry), then prints the
/// registry exposition: Prometheus text format v0.0.4, or a JSON
/// snapshot with `--json`. Returns the number of failures.
fn run_metrics(engine: &Engine, queries: &[String], k: usize, json: bool) -> usize {
    let mut failures = 0;
    for q in queries {
        if let Err(e) = engine.answer(q, k) {
            eprintln!("error answering `{q}`: {e}");
            failures += 1;
        }
    }
    let snapshot = aqks_obs::metrics::global().snapshot();
    if json {
        out!("{}", aqks_obs::expo::render_json(&snapshot));
    } else {
        out!("{}", aqks_obs::expo::render_prometheus(&snapshot));
    }
    failures
}

/// Pushdown check for one query's interpretation set: each
/// interpretation is planned with and without predicate pushdown, and
/// both plans must verify and execute to the same sorted rows.
/// Interpretations whose plans are the same plan (`aqks-equiv`) are
/// reported as duplicate execution work. Returns the error count.
fn check_equiv(generated: &[aqks_core::GeneratedSql], db: &Database) -> usize {
    let mut errors = 0usize;
    let mut plans: Vec<aqks_sqlgen::PlanNode> = Vec::new();
    let mut owner: Vec<usize> = Vec::new(); // plan index -> interpretation rank
    for (rank, g) in generated.iter().enumerate() {
        match pushdown_agrees(&g.sql, db) {
            Ok(p) => {
                plans.push(p);
                owner.push(rank);
            }
            Err(e) => {
                errors += 1;
                outln!("  equiv #{}: {e}", rank + 1);
            }
        }
    }
    let Ok(analysis) = aqks_equiv::analyze(&plans, db);
    outln!(
        "  equiv: {} interpretation(s) -> {} class(es){}",
        generated.len(),
        analysis.classes.len(),
        if errors == 0 { "; pushdown variants agree" } else { "" }
    );
    for (ci, class) in analysis.classes.iter().enumerate().filter(|(_, c)| c.members.len() > 1) {
        let names: Vec<String> =
            class.members.iter().map(|&m| format!("#{}", owner[m] + 1)).collect();
        outln!(
            "    class {ci} [{:016x}]: interpretations {} plan identically",
            class.fingerprint,
            names.join(", ")
        );
    }
    errors
}

/// Plans `sql` with and without predicate pushdown, verifies and
/// executes both, and returns the pushdown plan when the two agree on
/// the sorted rows.
fn pushdown_agrees(
    sql: &aqks_sqlgen::SelectStatement,
    db: &Database,
) -> Result<aqks_sqlgen::PlanNode, String> {
    let variant = |pushdown: bool| {
        let opts = aqks_sqlgen::PlanOptions { pushdown };
        let p = aqks_sqlgen::plan_with_options(sql, db, &opts)
            .map_err(|e| format!("plan error (pushdown={pushdown}): {e}"))?;
        aqks_plancheck::verify(&p, db, sql)
            .map_err(|e| format!("REJECTED (pushdown={pushdown}) {e}"))?;
        let (table, _) = aqks_sqlgen::run_plan(&p, db)
            .map_err(|e| format!("exec error (pushdown={pushdown}): {e}"))?;
        Ok::<_, String>((p, table.sorted().rows))
    };
    let (on, on_rows) = variant(true)?;
    let (_, off_rows) = variant(false)?;
    if on_rows != off_rows {
        return Err(format!(
            "pushdown changed the answer: {} row(s) with it, {} without",
            on_rows.len(),
            off_rows.len()
        ));
    }
    Ok(on)
}

/// Statically analyzes the SQL both engines generate for `queries`;
/// with `plans`, additionally lowers each interpretation to a physical
/// plan and runs the plan verifier on it. Returns the number of
/// error-severity findings.
fn run_check(
    engine: &Engine,
    sqak: Option<&Sqak>,
    queries: &[String],
    k: usize,
    plans: bool,
    equiv: bool,
) -> usize {
    let schema = engine.database().schema();
    let db = engine.database();
    let mut errors = 0;
    for q in queries {
        outln!("── check `{q}`");
        match engine.generate(q, k) {
            Ok(generated) => {
                for (rank, g) in generated.iter().enumerate() {
                    let verdict = if g.diagnostics.is_clean() {
                        "clean".to_string()
                    } else {
                        g.diagnostics.summary()
                    };
                    outln!("  engine #{}: {verdict}", rank + 1);
                    errors += g.diagnostics.error_count();
                    if !g.diagnostics.is_clean() {
                        for line in g.diagnostics.render(&g.sql).lines() {
                            outln!("    {line}");
                        }
                    }
                    if plans {
                        match aqks_sqlgen::plan(&g.sql, db) {
                            Ok(p) => match aqks_plancheck::verify(&p, db, &g.sql) {
                                Ok(_) => outln!(
                                    "  plan #{}: verified (fingerprint {})",
                                    rank + 1,
                                    aqks_plancheck::fingerprint_hex(&p)
                                ),
                                Err(e) => {
                                    errors += 1;
                                    outln!("  plan #{}: REJECTED {e}", rank + 1);
                                }
                            },
                            Err(e) => {
                                errors += 1;
                                outln!("  plan #{}: plan error: {e}", rank + 1);
                            }
                        }
                    }
                }
                // Pushdown check: each interpretation's plans with and
                // without predicate pushdown must return the same rows.
                // Interpretations that plan identically are flagged as
                // duplicate execution work.
                if equiv {
                    errors += check_equiv(&generated, db);
                }
            }
            // Debug builds reject error findings inside `generate`.
            Err(aqks_core::CoreError::Analysis(m)) => {
                errors += 1;
                outln!("  engine: rejected\n    {}", m.replace('\n', "\n    "));
            }
            // A query the engine cannot interpret at all (parse error,
            // unmatched term) is a check failure, not a shrug — malformed
            // input must not exit 0.
            Err(e) => {
                errors += 1;
                outln!("  engine: error ({e})");
            }
        }
        if let Some(sqak) = sqak {
            match sqak.generate(q) {
                Ok(g) => {
                    let report = Analyzer::new(&schema).analyze(&g.sql);
                    let verdict =
                        if report.is_clean() { "clean".to_string() } else { report.summary() };
                    outln!("  sqak: {verdict}");
                    errors += report.error_count();
                    if !report.is_clean() {
                        for line in report.render(&g.sql).lines() {
                            outln!("    {line}");
                        }
                    }
                }
                Err(e) => outln!("  sqak: N.A. ({e})"),
            }
        }
    }
    errors
}

/// `aqks serve`: loads the dataset once and serves it over TCP until
/// stdin reaches EOF (or `quit` is typed), then drains cleanly. The
/// budget flags become server policy: `--timeout-ms` is the default
/// per-request deadline, `--max-rows`/`--max-patterns` are hard caps
/// client hints cannot exceed.
fn run_serve(engine: Engine, opts: &Options) -> i32 {
    let mut cfg = aqks_server::ServerConfig {
        addr: opts.addr.clone(),
        workers: opts.workers,
        queue_depth: opts.queue_depth,
        ..aqks_server::ServerConfig::default()
    };
    if let Some(ms) = opts.timeout_ms {
        cfg.default_deadline = std::time::Duration::from_millis(ms);
    }
    cfg.max_rows = opts.max_rows;
    cfg.max_patterns = opts.max_patterns;
    let server = match aqks_server::Server::start(std::sync::Arc::new(engine), cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind `{}`: {e}", opts.addr);
            return 1;
        }
    };
    eprintln!(
        "serving on {} ({} worker(s), queue depth {}); EOF or `quit` to drain",
        server.addr(),
        opts.workers,
        opts.queue_depth
    );
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.trim() == "quit" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    let stats = server.stats();
    server.shutdown();
    eprintln!(
        "drained: {} accepted, {} ok ({} degraded), {} error(s), {} shed",
        stats.accepted,
        stats.ok,
        stats.degraded,
        stats.errors,
        stats.shed()
    );
    0
}

/// `aqks client`: sends one keyword query to a running `aqks serve`
/// with the shipped retrying client and prints the interpretations.
/// Exit codes: 0 ok, 1 typed server/transport error, 2 usage,
/// [`EXIT_EXHAUSTED`] when the answer degraded under its budget.
fn run_client(opts: &Options) -> i32 {
    use std::net::ToSocketAddrs;
    let Some(query) = &opts.query else {
        eprintln!(
            "error: `aqks client` needs a query, e.g. aqks client --addr {} 'Green SUM Credit'",
            opts.addr
        );
        return 2;
    };
    let addr = match opts.addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(a) => a,
        None => {
            eprintln!("error: cannot resolve `{}`", opts.addr);
            return 2;
        }
    };
    let mut client = aqks_server::Client::connect(addr, aqks_server::ClientConfig::default());
    let mut request = aqks_server::Request::new(query.clone());
    request.k = opts.k;
    request.timeout_ms = opts.timeout_ms;
    request.max_rows = opts.max_rows;
    request.max_patterns = opts.max_patterns;
    request.max_interps = opts.max_interpretations;
    match client.query(&request) {
        Ok(answer) => {
            for (rank, interp) in answer.interpretations.iter().enumerate() {
                outln!("── interpretation #{}", rank + 1);
                outln!("{}", interp.sql);
                outln!("{}", interp.columns.join(" | "));
                for row in &interp.rows {
                    outln!("{}", row.join(" | "));
                }
            }
            eprintln!("({} µs server time)", answer.server_us);
            client.quit();
            if let Some(d) = &answer.degraded {
                eprintln!("budget exhausted: {d} (partial={})", answer.partial);
                return EXIT_EXHAUSTED;
            }
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            client.quit();
            1
        }
    }
}

fn main() {
    // One-line diagnostics instead of a backtrace dump if anything gets
    // past the engine's panic shield; the process still exits non-zero.
    std::panic::set_hook(Box::new(|info| {
        let msg = if let Some(s) = info.payload().downcast_ref::<&str>() {
            s
        } else if let Some(s) = info.payload().downcast_ref::<String>() {
            s.as_str()
        } else {
            "unknown panic"
        };
        eprintln!("error: internal panic: {msg}");
    }));
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    // `client` talks to a running server; it needs no local dataset.
    if opts.client_cmd {
        std::process::exit(run_client(&opts));
    }

    let db = match load_dataset(&opts.dataset, opts.paper_scale) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    eprintln!("dataset `{}`: {} tuples", opts.dataset, db.total_rows());
    if let Some(dir) = &opts.export {
        if let Err(e) = aqks_relational::export_dir(&db, std::path::Path::new(dir)) {
            eprintln!("export failed: {e}");
            std::process::exit(1);
        }
        eprintln!("exported schema.txt + CSVs to {dir}");
    }

    let sqak = opts.sqak.then(|| Sqak::new(db.clone()));
    let mut engine = match Engine::new(db) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    engine.set_threads(opts.threads);
    if engine.is_unnormalized() {
        eprintln!("(unnormalized database: querying through the normalized view)");
    }

    if opts.serve_cmd {
        std::process::exit(run_serve(engine, &opts));
    }

    if opts.explain_plan {
        let queries = opts
            .query
            .as_ref()
            .map(|q| vec![q.clone()])
            .unwrap_or_else(|| check_workload(&opts.dataset));
        let failures = if opts.shared {
            run_explain_shared(&engine, &queries, opts.k.max(3))
        } else {
            run_explain(&engine, &queries, opts.k, opts.analyze)
        };
        if failures > 0 {
            eprintln!("explain failed for {failures} quer(y/ies)");
            std::process::exit(1);
        }
        return;
    }

    if opts.trace_cmd {
        let queries = opts
            .query
            .as_ref()
            .map(|q| vec![q.clone()])
            .unwrap_or_else(|| check_workload(&opts.dataset));
        let fmt = opts.trace.unwrap_or(TraceFormat::Text);
        let failures = if opts.slow {
            run_trace_slow(&engine, &queries, opts.k, fmt, &opts.trace_out)
        } else {
            run_trace(&engine, &queries, opts.k, fmt, &opts.trace_out)
        };
        if failures > 0 {
            eprintln!("trace failed for {failures} quer(y/ies)");
            std::process::exit(1);
        }
        return;
    }

    if opts.metrics_cmd {
        let queries = opts
            .query
            .as_ref()
            .map(|q| vec![q.clone()])
            .unwrap_or_else(|| check_workload(&opts.dataset));
        let failures = run_metrics(&engine, &queries, opts.k, opts.metrics_json);
        if failures > 0 {
            eprintln!("metrics failed for {failures} quer(y/ies)");
            std::process::exit(1);
        }
        return;
    }

    if opts.check {
        let queries = opts
            .query
            .as_ref()
            .map(|q| vec![q.clone()])
            .unwrap_or_else(|| check_workload(&opts.dataset));
        let errors =
            run_check(&engine, sqak.as_ref(), &queries, opts.k.max(3), opts.plans, opts.equiv);
        if errors > 0 {
            eprintln!("check failed: {errors} error finding(s)");
            std::process::exit(1);
        }
        eprintln!("check passed: no error findings");
        return;
    }

    let req = AnswerRequest { k: opts.k, budget: opts.budget(), trace: opts.trace.is_some() };
    if let Some(q) = &opts.query {
        let code =
            run_query(&engine, sqak.as_ref(), q, &req, opts.explain, opts.trace, &opts.trace_out);
        std::process::exit(code);
    }

    // REPL.
    eprintln!("enter keyword queries; \\schema, \\graph, \\q to quit");
    let stdin = std::io::stdin();
    loop {
        eprint!("aqks> ");
        std::io::stderr().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        match line {
            "" => continue,
            "\\q" | "\\quit" | "exit" => break,
            "\\schema" => {
                for rel in &engine.database().schema().relations {
                    let attrs: Vec<&str> = rel.attr_names().collect();
                    outln!("{}({})", rel.name, attrs.join(", "));
                }
            }
            "\\graph" => outln!("{}", engine.orm_graph().describe()),
            q => {
                // The REPL reports errors/exhaustion inline and carries on.
                run_query(
                    &engine,
                    sqak.as_ref(),
                    q,
                    &req,
                    opts.explain,
                    opts.trace,
                    &opts.trace_out,
                );
            }
        }
    }
}
