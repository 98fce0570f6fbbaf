//! End-to-end service tests: a real listener, real sockets, and the
//! shipped client against the university dataset.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use aqks_core::Engine;
use aqks_datasets::university;
use aqks_server::{Client, ClientConfig, ClientError, ErrorCode, Request, Server, ServerConfig};

fn engine() -> Arc<Engine> {
    Arc::new(Engine::new(university::normalized()).expect("university dataset builds"))
}

fn start(cfg: ServerConfig) -> Server {
    Server::start(engine(), cfg).expect("server binds")
}

fn client(server: &Server) -> Client {
    Client::connect(server.addr(), ClientConfig::default())
}

#[test]
fn answers_queries_end_to_end() {
    let server = start(ServerConfig::default());
    let mut c = client(&server);
    c.ping().expect("ping round-trips");

    let answer = c.query(&Request::new("Green SUM Credit")).expect("query succeeds");
    assert_eq!(answer.interpretations.len(), 1);
    let interp = &answer.interpretations[0];
    assert!(interp.sql.to_uppercase().contains("SUM"), "{}", interp.sql);
    assert!(!interp.columns.is_empty());
    assert!(!interp.rows.is_empty());
    assert!(answer.degraded.is_none());

    // Top-k returns multiple interpretations when they exist.
    let mut req = Request::new("Green George COUNT Code");
    req.k = 3;
    let multi = c.query(&req).expect("top-k query succeeds");
    assert!(multi.interpretations.len() > 1, "expected several interpretations");

    c.quit();
    let stats = server.stats();
    assert_eq!(stats.ok, 2);
    assert_eq!(stats.errors, 0);
    server.shutdown();
}

#[test]
fn semantic_errors_are_typed_and_final() {
    let server = start(ServerConfig::default());
    let mut c = client(&server);

    let err = c.query(&Request::new("zzzznotaword")).expect_err("no match");
    match err {
        ClientError::Server(w) => {
            assert_eq!(w.code, ErrorCode::NoMatch);
            assert!(!w.code.retryable());
        }
        other => panic!("expected typed server error, got {other}"),
    }
    // The connection survived the error: the next query still answers.
    let ok = c.query(&Request::new("Java SUM Price")).expect("connection still serves");
    assert!(!ok.interpretations.is_empty());
    server.shutdown();
}

#[test]
fn malformed_frames_recover_without_dropping_the_connection() {
    let cfg = ServerConfig { max_line_bytes: 128, ..ServerConfig::default() };
    let server = start(cfg);

    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let send = |line: &str| {
        let mut s = &stream;
        writeln!(s, "{line}").expect("write");
    };
    let mut recv = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        line.trim_end().to_string()
    };

    // Unknown verb: typed protocol error, connection stays open.
    send("FROB nonsense");
    let reply = recv();
    assert!(reply.starts_with("ERR code=protocol retryable=false"), "{reply}");

    // Bad option on a query frame: same story.
    send("Q sideways=1 |Green");
    assert!(recv().starts_with("ERR code=protocol"), "malformed option");

    // A line over the cap: refused, stream re-synchronizes at newline.
    let huge = format!("Q |{}", "x".repeat(4096));
    send(&huge);
    let reply = recv();
    assert!(reply.starts_with("ERR code=protocol"), "{reply}");
    assert!(reply.contains("128"), "mentions the cap: {reply}");

    // After all that abuse the very same connection still answers.
    send("Q |Green SUM Credit");
    let reply = recv();
    assert!(reply.starts_with("OK n=1"), "{reply}");
    loop {
        if recv() == "." {
            break;
        }
    }
    send("QUIT");
    assert_eq!(recv(), "BYE");
    server.shutdown();
}

/// The reader keeps what one socket read returns past a frame: two
/// frames in one write are both answered, in order, a frame split by a
/// pause longer than the read tick still parses, and an over-cap line
/// that arrives whole in one read is refused without losing the frame
/// after it.
#[test]
fn pipelined_split_and_overlong_frames_parse() {
    let cfg = ServerConfig { max_line_bytes: 128, ..ServerConfig::default() };
    let pause = cfg.read_timeout * 3;
    let server = start(cfg);

    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let send = |bytes: &[u8]| {
        let mut s = &stream;
        s.write_all(bytes).expect("write");
    };
    let mut recv = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        line.trim_end().to_string()
    };

    send(b"PING\nQ |Green SUM Credit\n");
    assert_eq!(recv(), "PONG");
    let reply = recv();
    assert!(reply.starts_with("OK n=1"), "{reply}");
    while recv() != "." {}

    send(b"Q |Green SU");
    std::thread::sleep(pause);
    send(b"M Credit\n");
    let reply = recv();
    assert!(reply.starts_with("OK n=1"), "{reply}");
    while recv() != "." {}

    send(format!("Q |{}\nPING\n", "x".repeat(200)).as_bytes());
    let reply = recv();
    assert!(reply.starts_with("ERR code=protocol"), "{reply}");
    assert_eq!(recv(), "PONG");

    send(b"QUIT\n");
    assert_eq!(recv(), "BYE");
    server.shutdown();
}

#[test]
fn starvation_deadline_degrades_to_partial_answer() {
    let server = start(ServerConfig::default());
    let mut c = client(&server);

    // A pattern budget of 1 trips mid-enumeration; the server must turn
    // that into an OK answer with the degraded flag, not an error.
    let mut req = Request::new("Green George COUNT Code");
    req.k = 3;
    req.max_patterns = Some(1);
    let answer = c.query(&req).expect("degraded answers are still OK frames");
    let degraded = answer.degraded.expect("degraded flag present");
    assert!(degraded.contains('@'), "kind@site form: {degraded}");
    assert!(degraded.starts_with("pattern"), "{degraded}");

    let stats = server.stats();
    assert_eq!(stats.ok, 1);
    assert_eq!(stats.degraded, 1);
    assert_eq!(stats.errors, 0);
    server.shutdown();
}

#[test]
fn full_queue_sheds_with_typed_overload() {
    // Depth 0: every admission attempt finds a full queue.
    let cfg = ServerConfig { queue_depth: 0, ..ServerConfig::default() };
    let server = start(cfg);

    let mut c =
        Client::connect(server.addr(), ClientConfig { max_attempts: 1, ..ClientConfig::default() });
    let err = c.query(&Request::new("Green SUM Credit")).expect_err("must shed");
    match err {
        ClientError::Server(w) => {
            assert_eq!(w.code, ErrorCode::Overloaded);
            assert!(w.code.retryable());
            assert!(w.message.contains("queue full"), "{}", w.message);
        }
        other => panic!("expected overload, got {other}"),
    }
    let stats = server.stats();
    assert_eq!(stats.shed_depth, 1);
    assert_eq!(stats.ok, 0);
    server.shutdown();
}

#[test]
fn aged_requests_shed_at_dequeue() {
    // A zero wait bound: every dequeued job has aged out.
    let cfg = ServerConfig { max_queue_wait: Duration::ZERO, ..ServerConfig::default() };
    let server = start(cfg);

    let mut c =
        Client::connect(server.addr(), ClientConfig { max_attempts: 1, ..ClientConfig::default() });
    let err = c.query(&Request::new("Green SUM Credit")).expect_err("must shed");
    match err {
        ClientError::Server(w) => {
            assert_eq!(w.code, ErrorCode::Overloaded);
            assert!(w.message.contains("aged out"), "{}", w.message);
        }
        other => panic!("expected overload, got {other}"),
    }
    assert_eq!(server.stats().shed_age, 1);
    server.shutdown();
}

#[test]
fn retry_with_backoff_rides_out_transient_overload() {
    // Depth-0 queue server: always overloaded. The client's retry loop
    // must classify it retryable and spend its whole budget.
    let cfg = ServerConfig { queue_depth: 0, ..ServerConfig::default() };
    let server = start(cfg);
    let mut c = Client::connect(
        server.addr(),
        ClientConfig {
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(5),
            ..ClientConfig::default()
        },
    );
    let err = c.query(&Request::new("Green SUM Credit")).expect_err("always overloaded");
    assert!(err.retryable());
    // Three attempts were really made (each one shed).
    assert_eq!(server.stats().shed_depth, 3);
    server.shutdown();

    // Against a healthy server a parse error is NOT retried.
    let server = start(ServerConfig::default());
    let mut c = client(&server);
    let err = c.query(&Request::new("SUM SUM SUM")).expect_err("bad query");
    assert!(!err.retryable());
    assert_eq!(server.stats().errors, 1, "exactly one attempt for a final error");
    server.shutdown();
}

#[test]
fn shutdown_drains_cleanly() {
    let server = start(ServerConfig::default());
    let addr = server.addr();

    // An idle connection is open while the server drains.
    let mut c = client(&server);
    c.ping().expect("live before drain");
    let before = server.stats();
    server.shutdown();
    assert_eq!(before.accepted, 1);

    // The listener is gone: a fresh connect is refused (or an
    // accepted-then-reset socket fails on first use).
    match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
        Err(_) => {}
        Ok(s) => {
            s.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
            let mut line = String::new();
            let r = BufReader::new(s).read_line(&mut line);
            assert!(r.is_err() || line.is_empty(), "no one is serving: {line:?}");
        }
    }
}

#[test]
fn connection_limit_refuses_politely() {
    // Zero connection slots: every connection is one too many.
    let cfg = ServerConfig { max_connections: 0, ..ServerConfig::default() };
    let server = start(cfg);

    let stream = TcpStream::connect(server.addr()).expect("TCP connect still accepted");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("read refusal");
    assert!(line.starts_with("ERR code=overloaded retryable=true"), "{line}");
    assert_eq!(server.stats().refused, 1);
    server.shutdown();
}

/// Closed-loop load at a trivial level: 2 client threads each send 5
/// queries of the university mix to 2 workers. Admission control must
/// not fire, and every request must come back answered.
#[test]
fn trivial_load_runs_clean() {
    const MIX: [&str; 4] = [
        "Green SUM Credit",
        "Java SUM Price",
        "COUNT Lecturer GROUPBY Course",
        "Green George COUNT Code",
    ];
    let server = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let addr = server.addr();
    let clients: Vec<_> = (0..2)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, ClientConfig::default());
                let (mut ok, mut server_errors, mut protocol_errors) = (0, 0, 0);
                for step in 0..5 {
                    let mut req = Request::new(MIX[(c + step) % MIX.len()]);
                    req.k = 1;
                    match client.query(&req) {
                        Ok(_) => ok += 1,
                        Err(ClientError::Server(_)) => server_errors += 1,
                        Err(_) => protocol_errors += 1,
                    }
                }
                client.quit();
                (ok, server_errors, protocol_errors)
            })
        })
        .collect();
    let (mut ok, mut server_errors, mut protocol_errors) = (0, 0, 0);
    for h in clients {
        let (o, s, p) = h.join().expect("client thread panicked");
        (ok, server_errors, protocol_errors) = (ok + o, server_errors + s, protocol_errors + p);
    }
    let stats = server.stats();
    server.shutdown();
    assert_eq!(ok, 10);
    assert_eq!(protocol_errors, 0, "protocol errors at trivial load");
    assert_eq!(server_errors, 0, "typed server errors at trivial load");
    assert_eq!(stats.shed(), 0, "admission control shed at trivial load");
}
