//! Chaos sweep: with the `failpoints` feature, every injected fault —
//! at the accept, enqueue, execute, and respond sites, inside the
//! engine, and a worker panic — must surface as a *typed* wire error
//! while the server keeps serving. Failpoint arming is process-global,
//! so every test here holds [`FAILPOINTS`] for its whole body.

#![cfg(feature = "failpoints")]

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use aqks_core::Engine;
use aqks_datasets::university;
use aqks_guard::failpoint;
use aqks_server::{Client, ClientConfig, ClientError, ErrorCode, Request, Server, ServerConfig};

/// Serializes the tests in this file: each arms process-global
/// failpoints that would fire inside the other's server.
static FAILPOINTS: Mutex<()> = Mutex::new(());

/// Takes [`FAILPOINTS`], recovering it if another test panicked while
/// holding it (that test's failure is reported on its own).
fn exclusive() -> MutexGuard<'static, ()> {
    FAILPOINTS.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn every_injected_fault_surfaces_typed_and_server_survives() {
    let _serial = exclusive();
    let engine = Arc::new(Engine::new(university::normalized()).expect("dataset builds"));
    let server = Server::start(engine, ServerConfig::default()).expect("server binds");
    let cfg = ClientConfig { max_attempts: 1, ..ClientConfig::default() };

    // --- server.accept: the connection gets a typed frame, not a slam.
    failpoint::enable_global("server.accept");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("read fault frame");
    assert!(line.starts_with("ERR code=fault"), "accept fault is typed: {line}");
    assert!(line.contains("server.accept"), "{line}");
    failpoint::disable_global("server.accept");

    // --- queue/worker/respond sites and an engine-internal site: each
    // yields its own typed error on an otherwise healthy connection.
    let mut c = Client::connect(server.addr(), cfg.clone());
    for (site, code) in [
        ("server.enqueue", ErrorCode::Fault),
        ("server.execute", ErrorCode::Fault),
        ("server.respond", ErrorCode::Fault),
        ("index.lookup", ErrorCode::Fault),
        ("server.worker.panic", ErrorCode::Internal),
    ] {
        failpoint::enable_global(site);
        let err = c
            .query(&Request::new("Green SUM Credit"))
            .expect_err(&format!("site {site} must fail"));
        match err {
            ClientError::Server(w) => {
                assert_eq!(w.code, code, "site {site}: {}", w.message);
                if w.code == ErrorCode::Fault {
                    assert!(w.message.contains(site), "names the site: {}", w.message);
                } else {
                    assert!(w.message.contains("panic"), "panic is reported: {}", w.message);
                }
            }
            other => panic!("site {site}: expected typed server error, got {other}"),
        }
        failpoint::disable_global(site);
        // Recovery on the SAME connection: the fault poisoned nothing.
        let ok = c.query(&Request::new("Green SUM Credit")).expect("server recovered");
        assert_eq!(ok.interpretations.len(), 1, "post-{site} answer intact");
        assert!(!ok.interpretations[0].rows.is_empty());
    }
    failpoint::clear_global();

    // Post-sweep: a fresh connection answers correctly and no error
    // ever killed a worker (every query above got a response).
    let mut fresh = Client::connect(server.addr(), cfg);
    let answer = fresh.query(&Request::new("Java SUM Price")).expect("post-sweep query");
    assert!(!answer.interpretations.is_empty());
    let stats = server.stats();
    assert_eq!(stats.ok as usize, 5 + 1, "one recovery per site plus the post-sweep query");
    server.shutdown();
}

#[test]
fn worker_panic_does_not_poison_the_pool() {
    let _serial = exclusive();
    // Satellite regression: a panicking query on the worker path becomes
    // a typed `internal` error and the same worker keeps serving. Use a
    // single-worker pool so the recovery query provably runs on the
    // thread that caught the panic.
    let engine = Arc::new(Engine::new(university::normalized()).expect("dataset builds"));
    let cfg = ServerConfig { workers: 1, ..ServerConfig::default() };
    let server = Server::start(engine, cfg).expect("server binds");
    let mut c =
        Client::connect(server.addr(), ClientConfig { max_attempts: 1, ..ClientConfig::default() });

    failpoint::enable_global("server.worker.panic");
    for _ in 0..3 {
        let err = c.query(&Request::new("Green SUM Credit")).expect_err("panic injected");
        match err {
            ClientError::Server(w) => {
                assert_eq!(w.code, ErrorCode::Internal);
                assert!(!w.code.retryable());
                assert!(w.message.contains("server.worker.panic"), "{}", w.message);
            }
            other => panic!("expected internal error, got {other}"),
        }
    }
    failpoint::disable_global("server.worker.panic");

    let answer = c.query(&Request::new("Green SUM Credit")).expect("sole worker survived");
    assert_eq!(answer.interpretations.len(), 1);
    let stats = server.stats();
    assert_eq!(stats.errors, 3);
    assert_eq!(stats.ok, 1);
    server.shutdown();
}
