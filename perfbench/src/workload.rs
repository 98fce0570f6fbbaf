//! The four workloads: set-up, the timed loop with its correctness
//! checks, and the end-to-end metrics.
//!
//! | workload | calls | data | load |
//! |---|---|---|---|
//! | `gen` | `Engine::generate(q, 1)` | paper-scale TPC-H, TPC-H′, ACMDL, ACMDL′ | closed loop, 1 thread |
//! | `exec-large` | `Engine::answer(q, 1)`, executor threads = 2 | paper-scale TPC-H′ | closed loop, 1 thread |
//! | `topk` | `Engine::answer(q, 5)`, executor threads = 1 | paper-scale ACMDL, ACMDL′ | closed loop, 1 thread |
//! | `serve` | `aqks-server`, 2 workers, over TCP | small TPC-H | open loop at 400/s and closed loop in alternating blocks, 2 clients |

use std::sync::Arc;
use std::time::{Duration, Instant};

use aqks_core::Engine;
use aqks_eval::workload::EvalQuery;
use aqks_relational::Value;
use aqks_server::{Client, ClientConfig, Request, Server, ServerConfig};
use aqks_sqlgen::ResultTable;

use crate::data::{self, Dataset, Scale};
use crate::mix::{Rounds, Zipf};
use crate::openloop;
use crate::report::{self, Metric};
use crate::stats::{self, Summary};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SQL generation only (Figure 11).
    Gen,
    /// Execution over data far larger than the last-level cache.
    ExecLarge,
    /// Top-5 interpretations, each translated, planned and executed.
    Topk,
    /// The query service under open- and closed-loop load.
    Serve,
}

/// Requests per second the `serve` open loop offers.
const SERVE_RATE: f64 = 400.0;
/// `serve` alternates the open loop and the closed loop in blocks of
/// this many seconds, the open loop taking [`SERVE_OPEN_SHARE`] of each.
/// The host's speed drifts over seconds (see [`FAST_PERCENTILE`]); short
/// blocks give both loops a share of every stretch of the run.
const SERVE_BLOCK_S: f64 = 1.0;
const SERVE_OPEN_SHARE: f64 = 0.5;
/// The percentile of a query's latencies that counts as its latency,
/// and (as 100 minus it) of the windows' throughputs that counts as
/// `qps`, in the in-process closed loops. The benchmark host is shared:
/// for stretches of milliseconds to minutes another tenant slows one or
/// both CPUs by up to about 1.7x. A request that runs on one thread can
/// only be slowed by that, so the fast tenth of the samples tracks the
/// program's own speed. `serve` uses medians instead (see
/// [`Workload::percentile`]).
const FAST_PERCENTILE: f64 = 10.0;
/// Server workers, client threads and connections of `serve`; the
/// benchmark host has two CPUs and load stays within them.
const SERVE_WIDTH: usize = 2;
/// Cold set-ups per run: at least this many, more while they fit in
/// [`SETUP_BUDGET`], and never more than [`SETUP_MAX_REPS`]. Their median
/// is `setup_s`. The host's slow stretches come and go, so the set-ups
/// are spread over seconds: short ones by the budget, long ones (about a
/// second each) by the count.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 2000;
const SETUP_BUDGET: Duration = Duration::from_secs(3);

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::Gen, Workload::ExecLarge, Workload::Topk, Workload::Serve];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Gen => "gen",
            Workload::ExecLarge => "exec-large",
            Workload::Topk => "topk",
            Workload::Serve => "serve",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The databases the workload queries, one engine each.
    pub fn datasets(self) -> &'static [Dataset] {
        match self {
            Workload::Gen => {
                &[Dataset::Tpch, Dataset::TpchPrime, Dataset::Acmdl, Dataset::AcmdlPrime]
            }
            Workload::ExecLarge => &[Dataset::TpchPrime],
            Workload::Topk => &[Dataset::Acmdl, Dataset::AcmdlPrime],
            Workload::Serve => &[Dataset::Tpch],
        }
    }

    /// Interpretations requested per query.
    pub fn k(self) -> usize {
        match self {
            Workload::Topk => 5,
            _ => 1,
        }
    }

    /// Executor worker threads per query.
    pub fn threads(self) -> usize {
        match self {
            Workload::ExecLarge => 2,
            _ => 1,
        }
    }

    /// The percentile of each query's latencies that counts as its
    /// latency, and (as 100 minus it) of the throughput windows that
    /// counts as `qps`. A `serve` request crosses three threads and the
    /// loopback, and how they happen to be scheduled spreads its
    /// latencies more than the host's speed does; their median moved
    /// less from run to run than their fast tenth.
    fn percentile(self) -> f64 {
        match self {
            Workload::Serve => 50.0,
            _ => FAST_PERCENTILE,
        }
    }

    /// The data size the workload runs at: `serve` always uses the small
    /// generators, so its data fits in cache.
    pub fn scale(self, requested: Scale) -> Scale {
        match self {
            Workload::Serve => Scale::Small,
            _ => requested,
        }
    }
}

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seeds the data generators and the request order.
    pub seed: u64,
    /// Length of the timed part of the run.
    pub seconds: f64,
    /// Data size of the paper-scale workloads; tests use
    /// [`Scale::Small`].
    pub scale: Scale,
}

/// One (database, query) pair a workload issues, with the answers every
/// timed request is checked against.
#[derive(Debug, Clone)]
pub struct Pair {
    /// Index into [`Prepared::engines`].
    pub engine: usize,
    /// The keyword query.
    pub query: EvalQuery,
    /// SQL text of each interpretation `Engine::generate` returned
    /// during set-up.
    pub sql: Vec<String>,
    /// Result of each interpretation `Engine::answer` returned during
    /// set-up, with the executor on one thread.
    pub results: Vec<ResultTable>,
}

/// A workload after set-up.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// The databases, parallel to `engines`.
    pub datasets: Vec<Dataset>,
    /// One engine per database.
    pub engines: Vec<Arc<Engine>>,
    /// Everything the workload issues, in a fixed order.
    pub pairs: Vec<Pair>,
    /// Cold set-up time (`setup_s`).
    pub setup: Metric,
    /// The service `serve` drives, started as part of set-up.
    pub server: Option<Server>,
    /// Correctness checks that failed during set-up.
    pub failures: Vec<String>,
}

impl Prepared {
    /// Stops the workload's server, if any, and waits for its threads.
    pub fn shutdown(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }

    /// A short label for pair `i`, such as `T4@tpch-prime`.
    pub fn label(&self, i: usize) -> String {
        let p = &self.pairs[i];
        format!("{}@{}", p.query.id, self.datasets[p.engine].name())
    }
}

/// Engines, and for `serve` the running server, built by one cold
/// set-up.
struct Built {
    engines: Vec<Arc<Engine>>,
    server: Option<Server>,
}

impl Built {
    fn shutdown(self) {
        if let Some(server) = self.server {
            server.shutdown();
        }
    }
}

pub(crate) fn server_config() -> ServerConfig {
    ServerConfig { workers: SERVE_WIDTH, ..ServerConfig::default() }
}

/// Generates the workload's databases from the seed, times repeated
/// cold set-ups (every `Engine::new`, plus `Server::start` for `serve`;
/// input generation and copying excluded), keeps the last one, and
/// computes and checks the reference answers.
pub fn prepare(workload: Workload, cfg: &Config) -> Result<Prepared, String> {
    let scale = workload.scale(cfg.scale);
    let datasets = workload.datasets().to_vec();
    let inputs = data::generate(&datasets, scale, cfg.seed);

    let mut samples = Vec::new();
    let mut built: Option<Built> = None;
    let started = Instant::now();
    while samples.len() < SETUP_MIN_REPS
        || (started.elapsed() < SETUP_BUDGET && samples.len() < SETUP_MAX_REPS)
    {
        // Tear the previous set-up down first, so at most one copy of
        // the engines is alive at a time.
        if let Some(b) = built.take() {
            b.shutdown();
        }
        let dbs = inputs.clone();
        let t = Instant::now();
        let engines = dbs
            .into_iter()
            .map(|db| Engine::new(db).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("Engine::new: {e}"))?;
        let server = match workload {
            Workload::Serve => Some(
                Server::start(Arc::clone(&engines[0]), server_config())
                    .map_err(|e| format!("Server::start: {e}"))?,
            ),
            _ => None,
        };
        samples.push(t.elapsed().as_secs_f64());
        built = Some(Built { engines, server });
    }
    // `peak_rss_mb` measures the engine and executor from here on, not
    // the inputs and the set-ups that are gone.
    drop(inputs);
    report::reset_peak_rss()?;
    let Built { mut engines, server } = built.expect("at least one set-up ran");
    let setup = Metric::new("setup_s", "s", stats::median(&samples), samples.len());

    let (pairs, failures) = references(workload, scale, &datasets, &engines)?;
    if workload.threads() > 1 {
        for e in &mut engines {
            Arc::get_mut(e).expect("engine not shared yet").set_threads(workload.threads());
        }
    }
    Ok(Prepared { workload, datasets, engines, pairs, setup, server, failures })
}

/// Reference answers for every pair, computed with the executor on one
/// thread, and the checks that need no timing: each top answer has the
/// row count the generators plant (Tables 5/6), and D and D′ answer
/// alike (Section 4).
fn references(
    workload: Workload,
    scale: Scale,
    datasets: &[Dataset],
    engines: &[Arc<Engine>],
) -> Result<(Vec<Pair>, Vec<String>), String> {
    let k = workload.k();
    let mut pairs = Vec::new();
    let mut failures = Vec::new();
    for (ei, ds) in datasets.iter().enumerate() {
        for query in ds.queries() {
            let engine = &engines[ei];
            let fail = |what: &str, e: &dyn std::fmt::Display| {
                format!("{}@{}: {what}: {e}", query.id, ds.name())
            };
            let sql = engine
                .generate(query.text, k)
                .map_err(|e| fail("generate", &e))?
                .into_iter()
                .map(|g| g.sql_text)
                .collect();
            let results: Vec<ResultTable> = engine
                .answer(query.text, k)
                .map_err(|e| fail("answer", &e))?
                .into_iter()
                .map(|a| a.result)
                .collect();
            let rows = results.first().map(ResultTable::len);
            let expected = data::expected_rows(*ds, scale, query.id);
            if rows != expected {
                failures.push(format!(
                    "{}@{}: top answer has {rows:?} rows, expected {expected:?}",
                    query.id,
                    ds.name()
                ));
            }
            pairs.push(Pair { engine: ei, query, sql, results });
        }
    }
    for p in &pairs {
        let ds = datasets[p.engine];
        if ds.normalized() == ds {
            continue;
        }
        let Some(base) = pairs
            .iter()
            .find(|b| datasets[b.engine] == ds.normalized() && b.query.id == p.query.id)
        else {
            continue;
        };
        if !same_answers(&base.results, &p.results) {
            failures.push(format!(
                "{}: {} and {} answer differently",
                p.query.id,
                ds.normalized().name(),
                ds.name()
            ));
        }
    }
    Ok((pairs, failures))
}

/// True when two interpretation lists have equal sorted rows, position
/// by position, with floats equal to a relative 1e-9: AVG and SUM over D
/// and D′ add the same values in different orders.
pub fn same_answers(a: &[ResultTable], b: &[ResultTable]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            let (x, y) = (x.clone().sorted(), y.clone().sorted());
            x.rows.len() == y.rows.len()
                && x.rows
                    .iter()
                    .zip(&y.rows)
                    .all(|(r, s)| r.len() == s.len() && r.iter().zip(s).all(|(u, v)| close(u, v)))
        })
}

fn close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(_), _) | (_, Value::Float(_)) => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
            _ => false,
        },
        _ => a == b,
    }
}

/// What the timed part of a run measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Latency samples in milliseconds, per pair.
    pub latencies_ms: Vec<Vec<f64>>,
    /// Requests completed per second in each of the run's windows:
    /// rounds, or the closed-loop blocks of `serve`.
    pub rates: Vec<f64>,
    /// Requests issued.
    pub attempted: u64,
    /// Requests that errored, were shed, or returned a wrong answer.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Extra run facts for the record (e.g. how late the open loop ran).
    pub notes: Vec<(String, f64)>,
}

impl Timed {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(msg);
        }
    }
}

/// Runs the timed part of a prepared workload.
pub fn measure(prep: &Prepared, cfg: &Config) -> Timed {
    match prep.workload {
        Workload::Serve => serve_loop(prep, cfg),
        _ => closed_loop(prep, cfg),
    }
}

/// One thread issues whole seeded rounds (every pair once per round)
/// until `cfg.seconds` have passed, so every pair keeps its share of the
/// samples whatever the seed.
fn closed_loop(prep: &Prepared, cfg: &Config) -> Timed {
    let k = prep.workload.k();
    let mut out = Timed { latencies_ms: vec![Vec::new(); prep.pairs.len()], ..Timed::default() };
    let mut rounds = Rounds::new(prep.pairs.len(), cfg.seed);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < cfg.seconds {
        let round_start = Instant::now();
        let mut completed = 0;
        for i in rounds.next_round().to_vec() {
            let p = &prep.pairs[i];
            let engine = &prep.engines[p.engine];
            out.attempted += 1;
            let verdict = if prep.workload == Workload::Gen {
                let t = Instant::now();
                let r = engine.generate(p.query.text, k);
                out.latencies_ms[i].push(ms(t.elapsed()));
                r.map_err(|e| e.to_string()).and_then(|g| {
                    let sql: Vec<&str> = g.iter().map(|g| g.sql_text.as_str()).collect();
                    if sql == p.sql {
                        Ok(())
                    } else {
                        Err("generated SQL differs from the reference".to_string())
                    }
                })
            } else {
                let t = Instant::now();
                let r = engine.answer(p.query.text, k);
                out.latencies_ms[i].push(ms(t.elapsed()));
                r.map_err(|e| e.to_string()).and_then(|a| {
                    if a.len() == p.results.len()
                        && a.iter().zip(&p.results).all(|(x, y)| x.result == *y)
                    {
                        Ok(())
                    } else {
                        Err("answer differs from the one-thread reference".to_string())
                    }
                })
            };
            match verdict {
                Ok(()) => completed += 1,
                Err(e) => out.fail(format!("{}: {e}", prep.label(i))),
            }
        }
        out.rates.push(completed as f64 / round_start.elapsed().as_secs_f64());
    }
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Answer rows as the wire renders them.
pub fn wire_rows(t: &ResultTable) -> Vec<Vec<String>> {
    t.rows.iter().map(|r| r.iter().map(Value::to_string).collect()).collect()
}

/// A client with retries off, so every shed or failed request counts,
/// already connected so no request pays the connect.
pub(crate) fn connected_client(server: &Server, c: usize) -> Result<Client, String> {
    let cfg =
        ClientConfig { max_attempts: 1, jitter_seed: 1 + c as u64, ..ClientConfig::default() };
    let mut client = Client::connect(server.addr(), cfg);
    client.ping().map_err(|e| format!("connecting client {c}: {e}"))?;
    Ok(client)
}

/// The outcome of one request over the wire: the pair, whether it was
/// answered correctly, and the server's own time for it.
struct Wire {
    pair: usize,
    verdict: Result<(), String>,
    server_us: u64,
}

fn wire_query(
    client: &mut Client,
    prep: &Prepared,
    expected: &[Vec<Vec<String>>],
    pair: usize,
) -> Wire {
    let mut req = Request::new(prep.pairs[pair].query.text);
    req.k = prep.workload.k();
    match client.query(&req) {
        Ok(answer) => {
            let ok = answer.degraded.is_none()
                && answer.interpretations.len() == 1
                && answer.interpretations[0].rows == expected[pair];
            let verdict =
                if ok { Ok(()) } else { Err("wire answer differs from in-process answer".into()) };
            Wire { pair, verdict, server_us: answer.server_us }
        }
        Err(e) => Wire { pair, verdict: Err(e.to_string()), server_us: 0 },
    }
}

/// Each block of [`SERVE_BLOCK_S`] runs an open loop at [`SERVE_RATE`]
/// over every connection, each request timed from its due time, then a
/// closed loop of every client, whose rate is one throughput window.
/// Both issue a seeded Zipf mix with T1 most popular.
fn serve_loop(prep: &Prepared, cfg: &Config) -> Timed {
    let mut out = Timed { latencies_ms: vec![Vec::new(); prep.pairs.len()], ..Timed::default() };
    let server = prep.server.as_ref().expect("serve starts its server in set-up");
    let expected: Vec<Vec<Vec<String>>> =
        prep.pairs.iter().map(|p| wire_rows(&p.results[0])).collect();

    let clients: Result<Vec<Client>, String> =
        (0..SERVE_WIDTH).map(|c| connected_client(server, c)).collect();
    let mut clients = match clients {
        Ok(c) => c,
        Err(e) => {
            out.attempted = 1;
            out.fail(e);
            return out;
        }
    };
    let open_s = SERVE_BLOCK_S * SERVE_OPEN_SHARE;
    let closed_s = SERVE_BLOCK_S - open_s;
    let blocks = (cfg.seconds / SERVE_BLOCK_S).round().max(1.0) as usize;
    let per_block = (SERVE_RATE * open_s).round().max(1.0) as usize;
    let interval = Duration::from_secs_f64(1.0 / SERVE_RATE);
    let mut open_mix = Zipf::new(prep.pairs.len(), cfg.seed);
    let mut closed_mix: Vec<Zipf> = (0..clients.len())
        .map(|c| Zipf::new(prep.pairs.len(), cfg.seed ^ (0x5eed + c as u64)))
        .collect();
    let mut late = Vec::new();
    let mut server_us = Vec::new();
    for _ in 0..blocks {
        let mix: Vec<usize> = (0..per_block).map(|_| open_mix.next_rank()).collect();
        let samples = openloop::run(per_block, interval, &mut clients, |client: &mut Client, i| {
            wire_query(client, prep, &expected, mix[i])
        });
        for s in &samples {
            out.attempted += 1;
            out.latencies_ms[s.result.pair].push(ms(s.latency()));
            late.push(ms(s.late()));
            match &s.result.verdict {
                Ok(()) => server_us.push(s.result.server_us as f64),
                Err(e) => out.fail(format!("{}: {e}", prep.label(s.result.pair))),
            }
        }

        let t0 = Instant::now();
        let done: Vec<Vec<Wire>> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(&mut closed_mix)
                .map(|(client, zipf)| {
                    let expected = &expected;
                    s.spawn(move || {
                        let mut done = Vec::new();
                        while t0.elapsed().as_secs_f64() < closed_s {
                            done.push(wire_query(client, prep, expected, zipf.next_rank()));
                        }
                        done
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("closed-loop client panicked")).collect()
        });
        let elapsed = t0.elapsed().as_secs_f64();
        let mut completed = 0;
        for w in done.into_iter().flatten() {
            out.attempted += 1;
            match w.verdict {
                Ok(()) => completed += 1,
                Err(e) => out.fail(format!("{}: {e}", prep.label(w.pair))),
            }
        }
        out.rates.push(completed as f64 / elapsed);
    }
    for mut c in clients {
        c.quit();
    }
    if let Some(l) = Summary::of(&late) {
        out.notes.push(("loadgen_late_p90_ms".into(), l.p90));
    }
    if let Some(s) = Summary::of(&server_us) {
        out.notes.push(("server_us_p50".into(), s.p50));
    }
    let stats = server.stats();
    out.notes.push(("server_shed".into(), stats.shed() as f64));
    out.notes.push(("server_errors".into(), stats.errors as f64));
    out
}

/// Everything one untraced run of a workload produced.
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Requests issued.
    pub attempted: u64,
    /// Requests that failed, plus failed set-up checks.
    pub failed: u64,
    /// True when every check passed.
    pub correct: bool,
    /// Failure messages (set-up checks first).
    pub failures: Vec<String>,
    /// Per-pair latency summaries, labelled like `T4@tpch-prime`.
    pub queries: Vec<(String, Summary)>,
    /// Extra run facts.
    pub notes: Vec<(String, f64)>,
}

/// Sets up, measures and checks one workload, then stops everything it
/// started.
pub fn run(workload: Workload, cfg: &Config) -> Result<Outcome, String> {
    let prep = prepare(workload, cfg)?;
    let timed = measure(&prep, cfg);
    let queries: Vec<(String, Summary)> = timed
        .latencies_ms
        .iter()
        .enumerate()
        .filter_map(|(i, l)| Summary::of(l).map(|s| (prep.label(i), s)))
        .collect();
    let all: Vec<f64> = timed.latencies_ms.iter().flatten().copied().collect();
    let setup = prep.setup.clone();
    let mut failures = prep.failures.clone();
    prep.shutdown();
    let pooled = Summary::of(&all).ok_or("the timed loop completed no request")?;
    // Each request counts with its query's latency.
    let p = workload.percentile();
    let typical: Vec<(f64, usize)> = timed
        .latencies_ms
        .iter()
        .filter(|l| !l.is_empty())
        .map(|l| (stats::quantile(l, p), l.len()))
        .collect();
    let mut notes = timed.notes;
    notes.push(("error_rate".into(), timed.failed as f64 / timed.attempted.max(1) as f64));
    notes.push(("pooled_latency_p50_ms".into(), pooled.p50));
    notes.push(("pooled_latency_p90_ms".into(), pooled.p90));
    notes.push(("qps_median".into(), stats::median(&timed.rates)));
    if let Some(p) = stats::highest_supported(pooled.n) {
        notes.push(("highest_supported_percentile".into(), p));
    }
    let metrics = vec![
        setup,
        Metric::new("latency_p50_ms", "ms", stats::weighted_percentile(&typical, 50.0), pooled.n),
        Metric::new("latency_p90_ms", "ms", stats::weighted_percentile(&typical, 90.0), pooled.n),
        Metric::new("qps", "1/s", stats::quantile(&timed.rates, 100.0 - p), timed.rates.len()),
        Metric::new("peak_rss_mb", "MB", report::peak_rss_mb()?, 1),
    ];
    let failed = timed.failed + failures.len() as u64;
    failures.extend(timed.failures);
    Ok(Outcome {
        workload,
        metrics,
        attempted: timed.attempted,
        failed,
        correct: failed == 0,
        failures,
        queries,
        notes,
    })
}

impl Outcome {
    /// The per-workload record: metrics with sample counts, per-query
    /// latency summaries, host CPUs, git revision and seed.
    pub fn record_json(&self, cfg: &Config) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"value\": {}, \"n\": {}}}",
                    m.name,
                    m.unit,
                    report::number(m.value),
                    m.n
                )
            })
            .collect();
        let queries: Vec<String> = self
            .queries
            .iter()
            .map(|(label, s)| {
                format!(
                    "    {{\"query\": \"{}\", \"n\": {}, \"min_ms\": {}, \"p10_ms\": {}, \"p50_ms\": {}, \"p90_ms\": {}, \"p99_ms\": {}}}",
                    report::escape(label),
                    s.n,
                    report::number(s.min),
                    report::number(s.p10),
                    report::number(s.p50),
                    report::number(s.p90),
                    report::number(s.p99)
                )
            })
            .collect();
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("\"{}\": {}", report::escape(k), report::number(*v)))
            .collect();
        let failures: Vec<String> =
            self.failures.iter().map(|f| format!("\"{}\"", report::escape(f))).collect();
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"host_cpus\": {},\n  \"git_rev\": \"{}\",\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": [\n{}\n  ],\n  \"notes\": {{{}}},\n  \"queries\": [\n{}\n  ],\n  \"failures\": [{}]\n}}\n",
            self.workload.name(),
            cfg.seed,
            report::number(cfg.seconds),
            report::host_cpus(),
            report::escape(&report::git_rev()),
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",\n"),
            notes.join(", "),
            queries.join(",\n"),
            failures.join(", ")
        )
    }
}
