//! Executor micro-benchmark: plans and runs the Tables 5/6 workloads
//! (T1–T8 on TPC-H, A1–A8 on ACMDL) through the physical-operator
//! pipeline and reports per-query min/median/p95 wall time, a per-phase
//! pipeline breakdown (from an `aqks-obs` trace), and per-operator rows
//! and timings, serialized as `BENCH_exec.json`.
//!
//! Unlike [`crate::fig11`], which times SQL *generation*, this measures
//! *execution* of the generated plans — the cost the Volcano operators
//! (`aqks_sqlgen::ops`) add or save. One engine is built and warmed per
//! query set; every generated plan is prepared before any timing starts.
//! CI runs the `--smoke` variant (few repetitions, small data) to catch
//! regressions that break planning or execution of any workload query.

use std::time::Instant;

use aqks_core::{AnswerRequest, Engine};
use aqks_sqlgen::{plan, run_plan, run_plan_opts, ExecOptions, ExecStats, PlanNode, SharedRows};

use crate::timing::TimingSummary;
use crate::workload::{acmdl_queries, tpch_queries, EvalQuery, Scale};

/// The engine phases reported in the per-query breakdown, in pipeline
/// order. `plan`/`exec` come from this harness; the rest are the
/// [`Engine::answer`] generation phases.
pub const PHASES: [&str; 7] = ["match", "pattern", "annotate", "rank", "translate", "plan", "exec"];

/// Measured metrics of one operator in one benchmarked plan.
#[derive(Debug, Clone)]
pub struct OpBenchRow {
    /// Plan node id (stable across the run).
    pub id: usize,
    /// Operator label as rendered by EXPLAIN.
    pub label: String,
    /// Rows received from all inputs (median run).
    pub rows_in: u64,
    /// Rows emitted (median run).
    pub rows_out: u64,
    /// Inclusive wall time of the operator, microseconds (median run).
    pub wall_us: f64,
}

/// Execution benchmark of one workload query.
#[derive(Debug, Clone)]
pub struct QueryExecBench {
    /// Paper query id (T1…T8, A1…A8).
    pub id: &'static str,
    /// Workload name (`tpch` or `acmdl`).
    pub workload: &'static str,
    /// The generated SQL text that was executed.
    pub sql: String,
    /// Result cardinality.
    pub result_rows: usize,
    /// End-to-end plan execution time over the repetitions.
    pub wall: TimingSummary,
    /// Per-phase wall times (microseconds) of one traced end-to-end
    /// `answer` run, keyed by [`PHASES`] names.
    pub phases: Vec<(String, f64)>,
    /// Per-operator metrics from the median-time run.
    pub ops: Vec<OpBenchRow>,
    /// Failure message when the query could not be planned or run.
    pub error: Option<String>,
}

fn failed(q: &EvalQuery, workload: &'static str, msg: String) -> QueryExecBench {
    QueryExecBench {
        id: q.id,
        workload,
        sql: String::new(),
        result_rows: 0,
        wall: TimingSummary::zero(),
        phases: Vec::new(),
        ops: Vec::new(),
        error: Some(msg),
    }
}

/// One query prepared for timing: its generated SQL text and plan.
struct Prepared {
    query: EvalQuery,
    sql_text: String,
    plan: PlanNode,
}

/// Extracts per-phase wall times from a traced `answer` run. Phases that
/// occur more than once (`plan`/`exec` with k > 1) are summed.
fn phase_breakdown(trace: &aqks_obs::PipelineTrace, out: &mut Vec<(String, f64)>) {
    let Some(root) = trace.roots.iter().find(|r| r.name == "answer") else { return };
    for phase in PHASES {
        let us: f64 = root.children.iter().filter(|c| c.name == phase).map(|c| c.total_us()).sum();
        out.push((phase.to_string(), us));
    }
}

/// Runs every query of one workload `reps` times and keeps the median.
fn bench_workload(
    db: aqks_relational::Database,
    queries: Vec<EvalQuery>,
    workload: &'static str,
    reps: usize,
) -> Vec<QueryExecBench> {
    let engine = match Engine::new(db) {
        Ok(e) => e,
        Err(e) => {
            return queries.iter().map(|q| failed(q, workload, format!("engine: {e}"))).collect()
        }
    };
    // Prepare (generate + plan) the whole set on the shared warmed
    // engine before any timing, so no timed rep pays first-touch costs.
    let prepared: Vec<Result<Prepared, Box<QueryExecBench>>> = queries
        .into_iter()
        .map(|q| {
            let generated = match engine.generate(q.text, 1) {
                Ok(g) if !g.is_empty() => g,
                Ok(_) => return Err(Box::new(failed(&q, workload, "no interpretation".into()))),
                Err(e) => return Err(Box::new(failed(&q, workload, format!("generate: {e}")))),
            };
            let g = generated
                .into_iter()
                .next()
                .expect("generate returned at least one interpretation");
            let p = match plan(&g.sql, engine.database()) {
                Ok(p) => p,
                Err(e) => return Err(Box::new(failed(&q, workload, format!("plan: {e}")))),
            };
            Ok(Prepared { query: q, sql_text: g.sql_text, plan: p })
        })
        .collect();
    prepared
        .into_iter()
        .map(|r| {
            let prep = match r {
                Ok(p) => p,
                Err(row) => return *row,
            };
            let q = &prep.query;
            // One traced end-to-end run attributes wall time to pipeline
            // phases; the timed repetitions below then run untraced.
            let mut phases = Vec::with_capacity(PHASES.len());
            match engine.run(q.text, &AnswerRequest { trace: true, ..AnswerRequest::new(1) }) {
                Ok(a) => phase_breakdown(&a.trace.unwrap_or_default(), &mut phases),
                Err(e) => return failed(q, workload, format!("answer: {e}")),
            }
            // Warm-up, then `reps` timed runs; keep the stats of the
            // median-time run so operator timings sum to the reported
            // median wall time.
            if let Err(e) = run_plan(&prep.plan, engine.database()) {
                return failed(q, workload, format!("execute: {e}"));
            }
            let mut samples: Vec<(f64, usize, ExecStats)> = Vec::with_capacity(reps);
            for _ in 0..reps.max(1) {
                let t = Instant::now();
                match run_plan(&prep.plan, engine.database()) {
                    Ok((table, stats)) => {
                        samples.push((t.elapsed().as_secs_f64() * 1e6, table.row_count(), stats))
                    }
                    Err(e) => return failed(q, workload, format!("execute: {e}")),
                }
            }
            let wall =
                TimingSummary::from_samples(&samples.iter().map(|s| s.0).collect::<Vec<f64>>());
            samples.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("timing samples are finite"));
            let (_, result_rows, stats) = samples.swap_remove(samples.len() / 2);
            QueryExecBench {
                id: q.id,
                workload,
                sql: prep.sql_text.clone(),
                result_rows,
                wall,
                phases,
                ops: op_rows(&prep.plan, &stats),
                error: None,
            }
        })
        .collect()
}

/// Flattens a plan and its stats into per-operator rows, in node-id order.
fn op_rows(p: &PlanNode, stats: &ExecStats) -> Vec<OpBenchRow> {
    let mut rows = Vec::with_capacity(p.node_count());
    p.visit(&mut |n| {
        let m = &stats.ops[n.id];
        rows.push(OpBenchRow {
            id: n.id,
            label: n.label(),
            rows_in: m.rows_in,
            rows_out: m.rows_out,
            wall_us: m.wall.as_secs_f64() * 1e6,
        });
    });
    rows.sort_by_key(|r| r.id);
    rows
}

/// Runs the full benchmark: T1–T8 on TPC-H and A1–A8 on ACMDL.
pub fn run_exec_bench(scale: Scale, reps: usize) -> Vec<QueryExecBench> {
    let mut out =
        bench_workload(crate::workload::tpch_database(scale), tpch_queries(), "tpch", reps);
    out.extend(bench_workload(
        crate::workload::acmdl_database(scale),
        acmdl_queries(),
        "acmdl",
        reps,
    ));
    out
}

/// One thread count's timing of one sweep query.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Executor worker threads used for this measurement.
    pub threads: usize,
    /// Wall time over the repetitions at this thread count.
    pub wall: TimingSummary,
}

/// The thread-scaling measurement of one aggregate workload query.
#[derive(Debug, Clone)]
pub struct ThreadSweepRow {
    /// Paper query id (T1…T8).
    pub id: &'static str,
    /// The generated SQL text that was executed.
    pub sql: String,
    /// Result cardinality (identical at every thread count, or the row
    /// carries a divergence error).
    pub result_rows: usize,
    /// Median wall times per thread count, ascending thread order.
    pub points: Vec<SweepPoint>,
    /// Speedup of the highest thread count over single-threaded
    /// execution (median over median).
    pub speedup: f64,
    /// Planning failure or cross-thread-count result divergence.
    pub error: Option<String>,
}

/// The full thread-scaling sweep: per-query scaling rows plus the
/// median speedup across queries at the highest thread count.
#[derive(Debug, Clone)]
pub struct ThreadSweep {
    /// Thread counts measured, ascending (always starts at 1).
    pub threads: Vec<usize>,
    /// CPUs available to this process — on a single-CPU host the sweep
    /// still verifies determinism, but no wall-clock speedup is
    /// physically possible and `median_speedup` reflects pure overhead.
    pub host_cpus: usize,
    /// Per-query scaling measurements.
    pub rows: Vec<ThreadSweepRow>,
    /// Median across queries of each query's `speedup`.
    pub median_speedup: f64,
}

/// Power-of-two thread counts up to `max`, always including 1 and
/// `max` itself: `thread_counts(4)` is `[1, 2, 4]`, `thread_counts(6)`
/// is `[1, 2, 4, 6]`.
pub fn thread_counts(max: usize) -> Vec<usize> {
    let max = max.max(1);
    let mut out = vec![1];
    let mut n = 2;
    while n < max {
        out.push(n);
        n *= 2;
    }
    if max > 1 {
        out.push(max);
    }
    out
}

/// A denormalized TPC-H' instance sized so the aggregate workload
/// queries move tens of thousands of wide rows per plan — enough for
/// the executor's parallel scan/join/aggregate paths to engage.
pub(crate) fn sweep_database() -> aqks_relational::Database {
    let cfg = aqks_datasets::TpchConfig {
        seed: 42,
        parts: 400,
        suppliers: 300,
        customers: 200,
        orders: 20_000,
        parts_per_supplier: 80,
        max_orders_per_pair: 3,
    };
    aqks_datasets::denormalize_tpch(&aqks_datasets::generate_tpch(&cfg))
}

/// Runs the TPC-H' aggregate workload at every thread count in
/// `thread_counts(max_threads)` and reports per-query scaling. Each
/// query's stabilized result at every thread count is compared against
/// the single-threaded result; any divergence is recorded as the row's
/// `error` (the determinism contract is part of the benchmark).
pub fn run_thread_sweep(max_threads: usize, reps: usize) -> ThreadSweep {
    let threads = thread_counts(max_threads);
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let engine = match Engine::new(sweep_database()) {
        Ok(e) => e,
        Err(e) => {
            let rows = tpch_queries()
                .iter()
                .map(|q| ThreadSweepRow {
                    id: q.id,
                    sql: String::new(),
                    result_rows: 0,
                    points: Vec::new(),
                    speedup: 0.0,
                    error: Some(format!("engine: {e}")),
                })
                .collect();
            return ThreadSweep { threads, host_cpus, rows, median_speedup: 0.0 };
        }
    };
    let db = engine.database();
    let none = SharedRows::new();
    let rows: Vec<ThreadSweepRow> = tpch_queries()
        .into_iter()
        .map(|q| {
            let fail = |msg: String| ThreadSweepRow {
                id: q.id,
                sql: String::new(),
                result_rows: 0,
                points: Vec::new(),
                speedup: 0.0,
                error: Some(msg),
            };
            let generated = match engine.generate(q.text, 1) {
                Ok(g) if !g.is_empty() => g,
                Ok(_) => return fail("no interpretation".into()),
                Err(e) => return fail(format!("generate: {e}")),
            };
            let g = generated.into_iter().next().expect("non-empty");
            let p = match plan(&g.sql, db) {
                Ok(p) => p,
                Err(e) => return fail(format!("plan: {e}")),
            };
            let mut baseline = None;
            let mut points = Vec::with_capacity(threads.len());
            let mut result_rows = 0;
            for &t in &threads {
                let opts = ExecOptions::with_threads(t);
                // Warm-up run doubles as the determinism check.
                let table = match run_plan_opts(&p, db, &none, opts) {
                    Ok((table, _)) => table,
                    Err(e) => return fail(format!("execute (threads={t}): {e}")),
                };
                result_rows = table.row_count();
                match &baseline {
                    None => baseline = Some(table),
                    Some(b) if *b != table => {
                        return fail(format!("result at threads={t} diverges from threads=1"))
                    }
                    Some(_) => {}
                }
                let mut samples = Vec::with_capacity(reps.max(1));
                for _ in 0..reps.max(1) {
                    let start = Instant::now();
                    if let Err(e) = run_plan_opts(&p, db, &none, opts) {
                        return fail(format!("execute (threads={t}): {e}"));
                    }
                    samples.push(start.elapsed().as_secs_f64() * 1e6);
                }
                points.push(SweepPoint { threads: t, wall: TimingSummary::from_samples(&samples) });
            }
            let speedup = match (points.first(), points.last()) {
                (Some(a), Some(b)) if b.wall.median_us > 0.0 => a.wall.median_us / b.wall.median_us,
                _ => 0.0,
            };
            ThreadSweepRow { id: q.id, sql: g.sql_text, result_rows, points, speedup, error: None }
        })
        .collect();
    let mut speedups: Vec<f64> =
        rows.iter().filter(|r| r.error.is_none()).map(|r| r.speedup).collect();
    speedups.sort_by(|a, b| a.partial_cmp(b).expect("speedups are finite"));
    let median_speedup = if speedups.is_empty() { 0.0 } else { speedups[speedups.len() / 2] };
    ThreadSweep { threads, host_cpus, rows, median_speedup }
}

/// Serializes a thread sweep as the `threads_sweep` JSON object.
pub fn render_sweep_json(sweep: &ThreadSweep) -> String {
    let mut s = String::from("{\n");
    let counts: Vec<String> = sweep.threads.iter().map(|t| t.to_string()).collect();
    s.push_str(&format!("    \"threads\": [{}],\n", counts.join(", ")));
    s.push_str(&format!("    \"host_cpus\": {},\n", sweep.host_cpus));
    s.push_str(&format!("    \"median_speedup\": {:.3},\n", sweep.median_speedup));
    s.push_str("    \"queries\": [\n");
    for (i, r) in sweep.rows.iter().enumerate() {
        s.push_str("      {");
        s.push_str(&format!("\"id\": \"{}\", ", r.id));
        if let Some(err) = &r.error {
            s.push_str(&format!("\"error\": \"{}\"", json_escape(err)));
        } else {
            s.push_str(&format!("\"result_rows\": {}, ", r.result_rows));
            s.push_str(&format!("\"speedup\": {:.3}, ", r.speedup));
            let walls: Vec<String> = r
                .points
                .iter()
                .map(|p| format!("\"{}\": {:.1}", p.threads, p.wall.median_us))
                .collect();
            s.push_str(&format!("\"wall_us\": {{{}}}", walls.join(", ")));
        }
        s.push_str(&format!("}}{}\n", if i + 1 < sweep.rows.len() { "," } else { "" }));
    }
    s.push_str("    ]\n  }");
    s
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes benchmark rows as the `BENCH_exec.json` document; a
/// thread sweep, when run, lands under the `threads_sweep` key.
pub fn render_json(
    rows: &[QueryExecBench],
    scale: Scale,
    reps: usize,
    sweep: Option<&ThreadSweep>,
) -> String {
    let scale_name = match scale {
        Scale::Small => "small",
        Scale::Paper => "paper-scale",
    };
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"scale\": \"{scale_name}\",\n  \"reps\": {reps},\n"));
    s.push_str("  \"queries\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"id\": \"{}\",\n", r.id));
        s.push_str(&format!("      \"workload\": \"{}\",\n", r.workload));
        if let Some(err) = &r.error {
            s.push_str(&format!("      \"error\": \"{}\"\n", json_escape(err)));
        } else {
            s.push_str(&format!("      \"sql\": \"{}\",\n", json_escape(&r.sql)));
            s.push_str(&format!("      \"result_rows\": {},\n", r.result_rows));
            s.push_str(&format!("      \"wall_min_us\": {:.1},\n", r.wall.min_us));
            s.push_str(&format!("      \"wall_us\": {:.1},\n", r.wall.median_us));
            s.push_str(&format!("      \"wall_p95_us\": {:.1},\n", r.wall.p95_us));
            let phases: Vec<String> = r
                .phases
                .iter()
                .map(|(name, us)| format!("\"{}\": {:.1}", json_escape(name), us))
                .collect();
            s.push_str(&format!("      \"phases_us\": {{{}}},\n", phases.join(", ")));
            s.push_str("      \"operators\": [\n");
            for (j, op) in r.ops.iter().enumerate() {
                s.push_str(&format!(
                    "        {{\"id\": {}, \"label\": \"{}\", \"rows_in\": {}, \"rows_out\": {}, \"wall_us\": {:.1}}}{}\n",
                    op.id,
                    json_escape(&op.label),
                    op.rows_in,
                    op.rows_out,
                    op.wall_us,
                    if j + 1 < r.ops.len() { "," } else { "" }
                ));
            }
            s.push_str("      ]\n");
        }
        s.push_str(&format!("    }}{}\n", if i + 1 < rows.len() { "," } else { "" }));
    }
    s.push_str("  ]");
    if let Some(sweep) = sweep {
        s.push_str(&format!(",\n  \"threads_sweep\": {}", render_sweep_json(sweep)));
    }
    s.push_str("\n}\n");
    s
}
