//! The long-running concurrent query service.
//!
//! One [`Server`] owns a TCP listener, an acceptor thread, a bounded
//! admission queue, and a fixed pool of query workers sharing a single
//! immutable [`Engine`] via `Arc`. The robustness contract, in order of
//! importance:
//!
//! 1. **Typed rejection, never a dropped connection.** Every failure a
//!    client can observe mid-protocol is a one-line `ERR` frame with a
//!    closed taxonomy code and an explicit retry class — queue overflow
//!    and queue aging are `overloaded`, drain is `shutdown`, malformed
//!    frames are `protocol`, engine bugs and caught panics are
//!    `internal`. Connections are only closed by `QUIT`, idle reaping,
//!    or unrecoverable socket errors.
//! 2. **Graceful degradation.** Per-request deadlines (client hints
//!    clamped by server policy) become a guard [`Budget`]; exhaustion
//!    surfaces as an `OK … degraded=<kind>@<site>` answer carrying
//!    whatever completed before the trip — the request *succeeds* with
//!    less, it does not fail.
//! 3. **Bounded everything.** The admission queue has a depth cap
//!    (reject at enqueue) and an age cap (shed at dequeue); connections
//!    have a count cap, read/write timeouts, an idle reaper, and a
//!    maximum frame length with skip-to-newline recovery.
//! 4. **Clean drain.** Shutdown stops accepting, lets queued and
//!    in-flight requests finish, answers late arrivals with `shutdown`,
//!    and joins every pool thread.

use std::collections::VecDeque;
use std::io::{BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aqks_core::{AnswerRequest, CoreError, Engine};
use aqks_guard::Budget;
use aqks_obs::metrics::{Counter, Gauge, Histogram, Unit};

use crate::protocol::{
    parse_frame, Answer, ClientFrame, ErrorCode, Request, Response, WireError, WireInterp,
};

/// Accepted connections.
static M_ACCEPTED: Counter = Counter::new("aqks_server_accepted");
/// Connections currently open.
static M_CONNS: Gauge = Gauge::new("aqks_server_connections");
/// Query frames admitted to the queue.
static M_REQUESTS: Counter = Counter::new("aqks_server_requests");
/// Answers that degraded under their budget.
static M_DEGRADED: Counter = Counter::new("aqks_server_degraded");
/// Admission-queue depth sampled at enqueue.
static M_QUEUE_DEPTH: Gauge = Gauge::new("aqks_server_queue_depth");
/// Time spent waiting in the admission queue.
static M_QUEUE_WAIT_NS: Histogram = Histogram::new("aqks_server_queue_wait_ns", Unit::Nanos);
/// Worker execution time per request.
static M_EXEC_NS: Histogram = Histogram::new("aqks_server_exec_ns", Unit::Nanos);

/// Counts an error frame sent, labeled by taxonomy code.
fn count_error(code: ErrorCode) {
    aqks_obs::metrics::global().add("aqks_server_errors", Some(("code", code.name())), 1);
}

/// Counts a request shed by admission control, labeled by reason.
fn count_shed(reason: &str) {
    aqks_obs::metrics::global().add("aqks_server_shed", Some(("reason", reason)), 1);
}

/// Server policy: listener address, pool sizing, admission control,
/// deadline clamps, and connection-lifecycle hardening knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Query worker threads sharing the engine.
    pub workers: usize,
    /// Admission queue depth; a query arriving at a full queue is
    /// rejected with `overloaded` without executing.
    pub queue_depth: usize,
    /// Maximum time a request may wait in the queue; older requests are
    /// shed with `overloaded` at dequeue (their client has likely given
    /// up — executing them wastes a worker on a dead request).
    pub max_queue_wait: Duration,
    /// Deadline applied when the client sends no `timeout_ms` hint.
    pub default_deadline: Duration,
    /// Hard ceiling on any per-request deadline; client hints are
    /// clamped here, so no request can hold a worker longer.
    pub max_deadline: Duration,
    /// Policy cap on intermediate rows per request (`None` = unlimited);
    /// client hints are clamped to at most this.
    pub max_rows: Option<u64>,
    /// Policy cap on enumerated patterns per request.
    pub max_patterns: Option<u64>,
    /// Ceiling on the `k` (top-k interpretations) a client may request.
    pub max_k: usize,
    /// Maximum concurrently open connections; excess connects receive
    /// one `overloaded` frame and are closed.
    pub max_connections: usize,
    /// Socket read poll granularity; also bounds how fast drain and
    /// idle reaping are noticed.
    pub read_timeout: Duration,
    /// Socket write timeout; a client that stops reading its responses
    /// is disconnected rather than blocking a connection thread forever.
    pub write_timeout: Duration,
    /// Connections idle longer than this are reaped.
    pub idle_timeout: Duration,
    /// Maximum request-line length in bytes; longer frames get a
    /// `protocol` error and the read recovers at the next newline.
    pub max_line_bytes: usize,
    /// How long [`Server::shutdown`] waits for connection threads to
    /// notice the drain and exit.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            max_queue_wait: Duration::from_secs(2),
            default_deadline: Duration::from_secs(2),
            max_deadline: Duration::from_secs(10),
            max_rows: None,
            max_patterns: None,
            max_k: 16,
            max_connections: 256,
            read_timeout: Duration::from_millis(50),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(300),
            max_line_bytes: 64 * 1024,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// Cumulative serving statistics (authoritative, independent of the
/// metrics registry's enabled flag — the bench gates on these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections refused at the connection cap.
    pub refused: u64,
    /// Query frames admitted to the queue.
    pub admitted: u64,
    /// Queries rejected because the queue was full.
    pub shed_depth: u64,
    /// Queries shed because they aged out in the queue.
    pub shed_age: u64,
    /// Successful answers (including degraded ones).
    pub ok: u64,
    /// Answers that degraded under their budget.
    pub degraded: u64,
    /// `ERR` frames sent (all codes, including sheds).
    pub errors: u64,
}

impl ServerStats {
    /// Total shed requests (depth + age).
    pub fn shed(&self) -> u64 {
        self.shed_depth + self.shed_age
    }
}

#[derive(Default)]
struct StatsCells {
    accepted: AtomicU64,
    refused: AtomicU64,
    admitted: AtomicU64,
    shed_depth: AtomicU64,
    shed_age: AtomicU64,
    ok: AtomicU64,
    degraded: AtomicU64,
    errors: AtomicU64,
}

impl StatsCells {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            shed_depth: self.shed_depth.load(Ordering::Relaxed),
            shed_age: self.shed_age.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

/// One admitted query waiting for a worker.
struct Job {
    request: Request,
    enqueued: Instant,
    reply: mpsc::SyncSender<Response>,
}

struct Shared {
    engine: Arc<Engine>,
    cfg: ServerConfig,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    /// Set once by [`Server::shutdown`]; acceptor, workers, and
    /// connection threads all poll it.
    draining: AtomicBool,
    /// Open connection threads (for the cap and the drain wait).
    conns: AtomicUsize,
    stats: StatsCells,
}

/// Compile-time proof that everything crossing the worker-pool boundary
/// is thread-safe (mirrors `sqlgen::par`): the shared state, the queued
/// jobs, and the reply payloads.
const fn assert_send_sync<T: Send + Sync>() {}
const fn assert_send<T: Send>() {}
const _: () = assert_send_sync::<Shared>();
const _: () = assert_send_sync::<Arc<Engine>>();
const _: () = assert_send_sync::<ServerConfig>();
const _: () = assert_send_sync::<Response>();
const _: () = assert_send_sync::<Budget>();
const _: () = assert_send::<Job>();

/// A running query service. Dropping the handle without calling
/// [`Server::shutdown`] aborts ungracefully (threads are detached);
/// call `shutdown` for a clean drain.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and starts the acceptor and worker pool. The
    /// engine is shared immutably across every worker.
    pub fn start(engine: Arc<Engine>, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        // The acceptor polls so it can notice drain without a wakeup
        // connection; granularity is the accept loop's sleep below.
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            engine,
            cfg,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            stats: StatsCells::default(),
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("aqks-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("aqks-acceptor".to_string())
                .spawn(move || accept_loop(listener, &shared))
                .expect("spawn acceptor thread")
        };
        Ok(Server { shared, addr, acceptor: Some(acceptor), workers })
    }

    /// The bound listen address (resolves `:0` to the chosen port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the cumulative serving statistics.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot()
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.queue).len()
    }

    /// Drains and stops the service: stop accepting, finish queued and
    /// in-flight requests, answer late arrivals with `shutdown`, join
    /// the acceptor and every worker, and wait (up to the configured
    /// drain timeout) for connection threads to close.
    pub fn shutdown(mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let deadline = Instant::now() + self.shared.cfg.drain_timeout;
        while self.shared.conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    while !shared.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                M_ACCEPTED.add(1);
                shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                if aqks_guard::failpoint::should_fire("server.accept") {
                    // Injected accept fault: the connection still gets a
                    // typed frame before the close, never a silent drop.
                    refuse(stream, ErrorCode::Fault, "injected fault at `server.accept`", shared);
                    continue;
                }
                let open = shared.conns.load(Ordering::SeqCst);
                if open >= shared.cfg.max_connections {
                    shared.stats.refused.fetch_add(1, Ordering::Relaxed);
                    refuse(
                        stream,
                        ErrorCode::Overloaded,
                        format!("connection limit reached ({open} open)"),
                        shared,
                    );
                    continue;
                }
                shared.conns.fetch_add(1, Ordering::SeqCst);
                M_CONNS.add(1);
                let conn_shared = Arc::clone(shared);
                let spawned =
                    std::thread::Builder::new().name("aqks-conn".to_string()).spawn(move || {
                        connection_loop(stream, &conn_shared);
                        conn_shared.conns.fetch_sub(1, Ordering::SeqCst);
                        M_CONNS.add(-1);
                    });
                if spawned.is_err() {
                    shared.conns.fetch_sub(1, Ordering::SeqCst);
                    M_CONNS.add(-1);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Sends one `ERR` frame and closes — the polite version of refusing a
/// connection the server cannot serve.
fn refuse(stream: TcpStream, code: ErrorCode, msg: impl Into<String>, shared: &Shared) {
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let mut w = BufWriter::new(stream);
    let _ = writeln!(w, "{}", WireError::new(code, msg).render());
    let _ = w.flush();
    shared.stats.errors.fetch_add(1, Ordering::Relaxed);
    count_error(code);
}

/// Outcome of reading one frame line off the socket.
enum FrameRead {
    /// A complete line (without the trailing LF).
    Line(String),
    /// The poll tick elapsed with no data — check drain/idle and retry.
    Tick,
    /// The line exceeded the length cap; the reader skipped to the next
    /// newline so the stream is re-synchronized.
    TooLong,
    /// EOF or an unrecoverable socket error.
    Closed,
}

/// A bounded, timeout-aware line reader. `BufRead::read_line` would
/// buffer an attacker-length line; this reader refuses past the cap and
/// then discards until the next newline, so one bad frame never kills
/// the connection or the process. The socket is read in chunks into
/// `buf`, which keeps the bytes after a returned line (the next frames
/// of a pipelining client, or a partial line across read ticks).
struct FrameReader {
    stream: TcpStream,
    /// Bytes read off the socket and not yet returned as a frame.
    buf: Vec<u8>,
    /// `buf[..scanned]` holds no newline.
    scanned: usize,
    max: usize,
    /// When set, the current line already overflowed and bytes are
    /// being discarded until the next newline.
    discarding: bool,
}

/// Bytes asked of the socket per `read` call.
const READ_CHUNK: usize = 4096;

impl FrameReader {
    fn new(stream: TcpStream, max: usize) -> FrameReader {
        FrameReader { stream, buf: Vec::new(), scanned: 0, max, discarding: false }
    }

    fn read(&mut self) -> FrameRead {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            if let Some(i) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + i;
                let frame = if self.discarding || end > self.max {
                    FrameRead::TooLong
                } else {
                    FrameRead::Line(String::from_utf8_lossy(&self.buf[..end]).into_owned())
                };
                self.buf.drain(..=end);
                self.scanned = 0;
                self.discarding = false;
                return frame;
            }
            self.scanned = self.buf.len();
            if self.discarding || self.buf.len() > self.max {
                self.discarding = true;
                self.buf.clear();
                self.scanned = 0;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return FrameRead::Closed,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return FrameRead::Tick;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return FrameRead::Closed,
            }
        }
    }
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let _ = stream.set_nodelay(true);
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = BufWriter::new(write_half);
    let mut reader = FrameReader::new(stream, shared.cfg.max_line_bytes);
    let mut last_activity = Instant::now();

    loop {
        match reader.read() {
            FrameRead::Tick => {
                if shared.draining.load(Ordering::SeqCst) {
                    return; // drain: close idle connections promptly
                }
                if last_activity.elapsed() >= shared.cfg.idle_timeout {
                    return; // idle reaper
                }
            }
            FrameRead::Closed => return,
            FrameRead::TooLong => {
                last_activity = Instant::now();
                let err = WireError::new(
                    ErrorCode::Protocol,
                    format!("request line exceeds {} bytes", shared.cfg.max_line_bytes),
                );
                if send_error(&mut writer, shared, &err).is_err() {
                    return;
                }
            }
            FrameRead::Line(line) => {
                last_activity = Instant::now();
                if line.trim().is_empty() {
                    continue; // blank keep-alive lines are free
                }
                match parse_frame(&line) {
                    Ok(ClientFrame::Ping) => {
                        if write_line(&mut writer, "PONG").is_err() {
                            return;
                        }
                    }
                    Ok(ClientFrame::Quit) => {
                        let _ = write_line(&mut writer, "BYE");
                        return;
                    }
                    Ok(ClientFrame::Query(request)) => {
                        let response = admit_and_wait(request, shared);
                        let sent = match response {
                            Response::Ok(answer) => {
                                if aqks_guard::failpoint::should_fire("server.respond") {
                                    let err = WireError::new(
                                        ErrorCode::Fault,
                                        "injected fault at `server.respond`",
                                    );
                                    send_error(&mut writer, shared, &err)
                                } else {
                                    shared.stats.ok.fetch_add(1, Ordering::Relaxed);
                                    if answer.degraded.is_some() {
                                        shared.stats.degraded.fetch_add(1, Ordering::Relaxed);
                                        M_DEGRADED.add(1);
                                    }
                                    write_line(&mut writer, &answer.render())
                                }
                            }
                            Response::Err(err) => send_error(&mut writer, shared, &err),
                        };
                        if sent.is_err() {
                            return;
                        }
                    }
                    Err(reason) => {
                        let err = WireError::new(ErrorCode::Protocol, reason);
                        if send_error(&mut writer, shared, &err).is_err() {
                            return;
                        }
                    }
                }
            }
        }
    }
}

fn write_line(w: &mut BufWriter<TcpStream>, line: &str) -> std::io::Result<()> {
    writeln!(w, "{line}")?;
    w.flush()
}

fn send_error(
    w: &mut BufWriter<TcpStream>,
    shared: &Shared,
    err: &WireError,
) -> std::io::Result<()> {
    shared.stats.errors.fetch_add(1, Ordering::Relaxed);
    count_error(err.code);
    write_line(w, &err.render())
}

/// Admission control: reject during drain, inject the enqueue fault,
/// enforce the depth cap, then enqueue and block (with a generous
/// upper bound) for the worker's reply.
fn admit_and_wait(request: Request, shared: &Shared) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        return Response::Err(WireError::new(ErrorCode::Shutdown, "server is draining"));
    }
    if aqks_guard::failpoint::should_fire("server.enqueue") {
        return Response::Err(WireError::new(
            ErrorCode::Fault,
            "injected fault at `server.enqueue`",
        ));
    }
    let (tx, rx) = mpsc::sync_channel(1);
    {
        let mut queue = lock(&shared.queue);
        if queue.len() >= shared.cfg.queue_depth {
            shared.stats.shed_depth.fetch_add(1, Ordering::Relaxed);
            count_shed("depth");
            return Response::Err(WireError::new(
                ErrorCode::Overloaded,
                format!("admission queue full (depth {})", shared.cfg.queue_depth),
            ));
        }
        queue.push_back(Job { request, enqueued: Instant::now(), reply: tx });
        M_QUEUE_DEPTH.set(queue.len() as i64);
        shared.stats.admitted.fetch_add(1, Ordering::Relaxed);
        M_REQUESTS.add(1);
    }
    shared.queue_cv.notify_one();
    // Upper bound: worst-case queue wait + the clamped execution
    // deadline + slack. The budget's deadline fires long before this;
    // hitting it means a worker died mid-request.
    let bound = shared.cfg.max_queue_wait + shared.cfg.max_deadline + Duration::from_secs(5);
    match rx.recv_timeout(bound) {
        Ok(response) => response,
        Err(_) => Response::Err(WireError::new(
            ErrorCode::Internal,
            "worker did not produce a response (request lost)",
        )),
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    M_QUEUE_DEPTH.set(queue.len() as i64);
                    break Some(job);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None; // queue drained and no more will arrive
                }
                let (q, _) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                queue = q;
            }
        };
        let Some(job) = job else { return };
        let waited = job.enqueued.elapsed();
        M_QUEUE_WAIT_NS.observe(waited.as_nanos() as u64);
        let response = if waited > shared.cfg.max_queue_wait {
            shared.stats.shed_age.fetch_add(1, Ordering::Relaxed);
            count_shed("age");
            Response::Err(WireError::new(
                ErrorCode::Overloaded,
                format!("request aged out in queue ({} ms)", waited.as_millis()),
            ))
        } else {
            execute(&job.request, shared)
        };
        // The connection thread may have given up (bounded wait) or the
        // client disconnected; a failed send is not an error.
        let _ = job.reply.send(response);
    }
}

/// Builds the effective budget for one request: client hints clamped by
/// server policy. Deadlines are always set (the server never runs an
/// unbounded query); caps combine by minimum.
fn effective_budget(request: &Request, cfg: &ServerConfig) -> Budget {
    let deadline = request
        .timeout_ms
        .map(Duration::from_millis)
        .unwrap_or(cfg.default_deadline)
        .min(cfg.max_deadline);
    let mut budget = Budget::unlimited().with_timeout(deadline);
    if let Some(rows) = min_opt(request.max_rows, cfg.max_rows) {
        budget = budget.with_max_rows(rows);
    }
    if let Some(patterns) = min_opt(request.max_patterns, cfg.max_patterns) {
        budget = budget.with_max_patterns(patterns);
    }
    if let Some(interps) = request.max_interps {
        budget = budget.with_max_interpretations(interps);
    }
    budget
}

fn min_opt(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (v, None) | (None, v) => v,
    }
}

/// Executes one admitted request on the shared engine. The whole body
/// runs behind `catch_unwind`: the engine shields its own pipeline, but
/// server-side code (and the injected worker panic used by the
/// regression test) must not poison the pool either — a panicking query
/// becomes a typed `internal` error and the worker keeps serving.
fn execute(request: &Request, shared: &Shared) -> Response {
    let t0 = Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if aqks_guard::failpoint::should_fire("server.execute") {
            return Response::Err(WireError::new(
                ErrorCode::Fault,
                "injected fault at `server.execute`",
            ));
        }
        if aqks_guard::failpoint::should_fire("server.worker.panic") {
            panic!("injected panic at `server.worker.panic`");
        }
        let budget = effective_budget(request, &shared.cfg);
        let k = request.k.min(shared.cfg.max_k);
        match shared.engine.run(&request.text, &AnswerRequest { k, budget, trace: false }) {
            Ok(answered) => {
                let interpretations = answered
                    .interpretations
                    .iter()
                    .map(|i| WireInterp {
                        sql: i.sql_text.clone(),
                        columns: i.result.columns.clone(),
                        rows: i
                            .result
                            .rows
                            .iter()
                            .map(|r| r.iter().map(|v| v.to_string()).collect())
                            .collect(),
                    })
                    .collect();
                let degraded = answered.exhaustion.map(|e| format!("{}@{}", e.kind, e.site));
                let partial = answered.exhaustion.is_some_and(|e| e.partial);
                Response::Ok(Answer { interpretations, degraded, partial, server_us: 0 })
            }
            Err(e) => Response::Err(map_core_error(&e)),
        }
    }));
    let elapsed = t0.elapsed();
    M_EXEC_NS.observe(elapsed.as_nanos() as u64);
    match result {
        Ok(Response::Ok(mut answer)) => {
            answer.server_us = elapsed.as_micros() as u64;
            Response::Ok(answer)
        }
        Ok(err) => err,
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Response::Err(WireError::new(ErrorCode::Internal, format!("caught panic: {msg}")))
        }
    }
}

/// Maps engine errors onto the wire taxonomy. Budget trips do not reach
/// here in the normal path (`Engine::run` degrades them); a
/// `CoreError::Budget` leaking through is treated as degradation-shaped
/// but empty, i.e. an OK answer with a degraded flag and no rows.
fn map_core_error(e: &CoreError) -> WireError {
    match e {
        CoreError::Parse(m) => WireError::new(ErrorCode::Parse, m.clone()),
        CoreError::NoMatch(t) => {
            WireError::new(ErrorCode::NoMatch, format!("term `{t}` matches nothing"))
        }
        CoreError::BadOperand(m) => WireError::new(ErrorCode::Semantic, m.clone()),
        CoreError::NoPattern => {
            WireError::new(ErrorCode::Semantic, "no connected query pattern exists")
        }
        CoreError::Analysis(m) | CoreError::Exec(m) | CoreError::Schema(m) => {
            WireError::new(ErrorCode::Semantic, m.clone())
        }
        CoreError::Budget(t) => WireError::new(ErrorCode::Timeout, t.to_string()),
        CoreError::Fault(site) => {
            WireError::new(ErrorCode::Fault, format!("injected fault at `{site}`"))
        }
        CoreError::Internal(m) => WireError::new(ErrorCode::Internal, m.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_clamping_enforces_policy() {
        let cfg = ServerConfig {
            default_deadline: Duration::from_millis(500),
            max_deadline: Duration::from_secs(1),
            max_rows: Some(1000),
            ..ServerConfig::default()
        };
        // No hints: server defaults apply.
        let b = effective_budget(&Request::new("x"), &cfg);
        assert_eq!(b.timeout, Some(Duration::from_millis(500)));
        assert_eq!(b.max_rows, Some(1000));
        // Hints above policy are clamped down.
        let mut req = Request::new("x");
        req.timeout_ms = Some(60_000);
        req.max_rows = Some(1_000_000);
        let b = effective_budget(&req, &cfg);
        assert_eq!(b.timeout, Some(Duration::from_secs(1)));
        assert_eq!(b.max_rows, Some(1000));
        // Hints below policy are honored.
        req.timeout_ms = Some(10);
        req.max_rows = Some(5);
        req.max_patterns = Some(7);
        let b = effective_budget(&req, &cfg);
        assert_eq!(b.timeout, Some(Duration::from_millis(10)));
        assert_eq!(b.max_rows, Some(5));
        assert_eq!(b.max_patterns, Some(7));
    }

    #[test]
    fn core_errors_map_to_closed_taxonomy() {
        let cases = [
            (CoreError::Parse("p".into()), ErrorCode::Parse),
            (CoreError::NoMatch("zebra".into()), ErrorCode::NoMatch),
            (CoreError::BadOperand("b".into()), ErrorCode::Semantic),
            (CoreError::NoPattern, ErrorCode::Semantic),
            (CoreError::Analysis("a".into()), ErrorCode::Semantic),
            (CoreError::Internal("i".into()), ErrorCode::Internal),
            (CoreError::Fault("site"), ErrorCode::Fault),
        ];
        for (err, code) in cases {
            assert_eq!(map_core_error(&err).code, code, "{err:?}");
        }
    }
}
