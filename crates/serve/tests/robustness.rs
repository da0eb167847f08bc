//! In-process server robustness: wire-level status goldens, backpressure
//! (the worker pool and its bounded queue are the server's one
//! concurrency limit: a queued request waits, an overflowing one gets
//! `503`), cancel-on-disconnect, drain force-cancel, and keep-alive load
//! with reconnects — each against a `Server::start`ed pool whose metrics
//! we can read directly. Writes: a rejected document is the client's
//! `400`, a log failure the server's `500`, and every write answer names
//! its trace.

mod common;

use common::{article_sgml, SLOW_QUERY};
use docql::durable::TempDir;
use docql_serve::server::{Server, ServerConfig, ServerHandle};
use docql_serve::HttpClient;
use docql_store::{DocStore, SharedStore};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn article_serve_store(n_docs: usize) -> SharedStore {
    let mut store = DocStore::new(
        docql_sgml::fixtures::ARTICLE_DTD,
        &["my_article", "my_old_article"],
    )
    .unwrap();
    let texts: Vec<String> = (0..n_docs as u64).map(article_sgml).collect();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let roots = store.ingest_batch(&refs).unwrap();
    store.bind("my_article", roots[1]).unwrap();
    store.bind("my_old_article", roots[0]).unwrap();
    SharedStore::new(store)
}

fn start(config: ServerConfig, n_docs: usize) -> ServerHandle {
    Server::start(config, article_serve_store(n_docs)).unwrap()
}

/// Write raw bytes, read whatever comes back until the server closes.
fn raw_exchange(addr: std::net::SocketAddr, wire: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let _ = s.write_all(wire); // the server may close mid-write (431)
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    out
}

#[test]
fn raw_wire_status_goldens() {
    let handle = start(ServerConfig::default(), 2);
    let addr = handle.addr();

    for (wire, status) in [
        (&b"GARBAGE\r\n\r\n"[..], "400 Bad Request"),
        (b"GET /no/such HTTP/1.1\r\n\r\n", "404 Not Found"),
        (b"DELETE /query HTTP/1.1\r\n\r\n", "405 Method Not Allowed"),
        (
            b"POST /query HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n",
            "413 Payload Too Large",
        ),
    ] {
        let got = raw_exchange(addr, wire);
        assert!(
            got.starts_with(&format!("HTTP/1.1 {status}\r\n")),
            "{:?} -> {got:?}",
            String::from_utf8_lossy(wire)
        );
    }

    // An oversized head is refused while it is still arriving.
    let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64 * 1024));
    let got = raw_exchange(addr, long.as_bytes());
    assert!(
        got.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
        "{got:?}"
    );

    let report = handle.shutdown();
    assert!(report.drained_in_time);
}

#[test]
fn slow_loris_gets_408_and_frees_the_worker() {
    let config = ServerConfig {
        read_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let handle = start(config, 2);
    let addr = handle.addr();

    // Dribble a request head one byte at a time, then stall: the next
    // server-side read blocks past the deadline and the request is cut.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    for b in b"GET / HT" {
        s.write_all(&[*b]).unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut out = String::new();
    let _ = s.read_to_string(&mut out);
    assert!(
        out.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
        "{out:?}"
    );
    assert!(handle.metrics().read_timeouts.get() >= 1);

    // The worker it occupied is already serving others.
    let mut client = HttpClient::connect(addr, Duration::from_secs(5)).unwrap();
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    handle.shutdown();
}

#[test]
fn full_queue_answers_503_with_retry_after() {
    // One worker, queue of one: occupy the worker with a slow-loris
    // connection, fill the queue, and the next arrival must bounce. The
    // queued connection is not dropped: it waits for the worker.
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        read_timeout: Duration::from_millis(800),
        ..ServerConfig::default()
    };
    let handle = start(config, 2);
    let addr = handle.addr();

    let occupier = TcpStream::connect(addr).unwrap(); // never writes
    let occupied_at = Instant::now();
    std::thread::sleep(Duration::from_millis(100)); // let a worker pick it up
    let mut queued = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(50));

    let mut rejected = TcpStream::connect(addr).unwrap();
    rejected
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut out = String::new();
    let _ = rejected.read_to_string(&mut out);
    assert!(
        out.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
        "{out:?}"
    );
    assert!(out.contains("Retry-After: 1\r\n"), "{out:?}");
    assert!(handle.metrics().connections_rejected_busy.get() >= 1);

    // A query on the queued connection is answered once the occupier's
    // read deadline frees the worker.
    let query = b"select t from my_article PATH_p.title(t)";
    let head = format!(
        "POST /query HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        query.len()
    );
    queued
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    queued.write_all(head.as_bytes()).unwrap();
    queued.write_all(query).unwrap();
    let mut out = String::new();
    let _ = queued.read_to_string(&mut out);
    assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out:?}");
    assert!(
        occupied_at.elapsed() >= Duration::from_millis(800),
        "answered before the occupier's read deadline"
    );

    drop(occupier);
    handle.shutdown();
}

#[test]
fn disconnect_mid_query_cancels_it() {
    // A corpus big enough that SLOW_QUERY (|Articles|^4) runs for a long
    // time, and a client that hangs up shortly after asking.
    let handle = start(ServerConfig::default(), 60);
    let store = handle.store().read();
    let cancelled_before = store.metrics().queries_cancelled.get();

    let client = HttpClient::connect(handle.addr(), Duration::from_secs(5)).unwrap();
    let head = format!(
        "POST /query HTTP/1.1\r\nHost: docql\r\nContent-Length: {}\r\n\r\n",
        SLOW_QUERY.len()
    );
    client
        .stream()
        .try_clone()
        .unwrap()
        .write_all(head.as_bytes())
        .unwrap();
    client
        .stream()
        .try_clone()
        .unwrap()
        .write_all(SLOW_QUERY.as_bytes())
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    drop(client); // vanish mid-query

    // The disconnect probe fires at a guard boundary and the query stops
    // well before it could have finished.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let cancelled = handle.store().read().metrics().queries_cancelled.get();
        if cancelled > cancelled_before {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "query was not cancelled after disconnect"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(handle.metrics().client_disconnects.get() >= 1);
    let report = handle.shutdown();
    assert_eq!(report.force_cancelled, 0);
}

#[test]
fn drain_deadline_force_cancels_stragglers() {
    let config = ServerConfig {
        drain_deadline: Duration::from_millis(120),
        ..ServerConfig::default()
    };
    let handle = start(config, 60);
    let addr = handle.addr();

    // A well-behaved client stuck in a very long query...
    let runner = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr, Duration::from_secs(30)).unwrap();
        client.post("/query", &[], SLOW_QUERY.as_bytes())
    });
    std::thread::sleep(Duration::from_millis(150)); // let it get going

    // ...is force-cancelled when the drain deadline passes.
    let report = handle.shutdown();
    assert!(!report.drained_in_time);
    assert!(report.force_cancelled >= 1, "{report:?}");

    // The client sees the cancellation as a 499, not a hang or a panic.
    let resp = runner.join().unwrap().unwrap();
    assert_eq!(resp.status, 499, "{}", resp.text());
}

#[test]
fn draining_healthz_and_routes_say_503() {
    // Drain with a connection already held open: requests on it observe
    // the draining state before the pool exits.
    let config = ServerConfig {
        drain_deadline: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let handle = start(config, 2);
    let addr = handle.addr();
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
    let b2 = std::sync::Arc::clone(&barrier);
    let probe = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr, Duration::from_secs(5)).unwrap();
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        b2.wait(); // shutdown starts now
        std::thread::sleep(Duration::from_millis(60));
        // The keep-alive connection is still served, but answers 503.
        client.get("/healthz").map(|r| r.status)
    });
    barrier.wait();
    let shutdown = std::thread::spawn(move || handle.shutdown());
    let status = probe.join().unwrap();
    assert!(
        matches!(status, Ok(503)) || status.is_err(),
        "expected 503 or a closed connection, got {status:?}"
    );
    shutdown.join().unwrap();
}

#[test]
fn last_permitted_request_on_a_connection_says_close() {
    let config = ServerConfig {
        max_requests_per_conn: 3,
        ..ServerConfig::default()
    };
    let handle = start(config, 2);
    let mut client = HttpClient::connect(handle.addr(), Duration::from_secs(5)).unwrap();
    let q = b"select t from my_article PATH_p.title(t)";
    for n in 1..=3 {
        let resp = client.post("/query", &[], q).unwrap();
        assert_eq!(resp.status, 200);
        let close = resp
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        assert_eq!(close, n == 3, "response {n} of 3");
    }
    assert!(
        client.get("/healthz").is_err(),
        "the server closed after the third response"
    );
    handle.shutdown();
}

#[test]
fn keep_alive_load_at_1_8_and_64_connections_answers_every_request() {
    // Each connection loops Q3 a fixed number of times and reconnects
    // whenever a response says `Connection: close`. Every answer must be a
    // 200 carrying the in-process table, and the server must still drain
    // in time after the load.
    const REQUESTS_PER_CONN: usize = 10;
    const MAX_PER_CONN: usize = 3;
    let shared = article_serve_store(10);
    let q = "select t from my_article PATH_p.title(t)";
    let expected = shared.query(q).unwrap().to_table();
    let config = ServerConfig {
        workers: 64,
        queue_depth: 128,
        max_requests_per_conn: MAX_PER_CONN,
        ..ServerConfig::default()
    };
    let handle = Server::start(config, shared).unwrap();
    let addr = handle.addr();

    for conns in [1, 8, 64] {
        let threads: Vec<_> = (0..conns)
            .map(|_| {
                let expected = expected.clone();
                std::thread::spawn(move || {
                    let connect = || HttpClient::connect(addr, Duration::from_secs(10)).unwrap();
                    let mut client = connect();
                    let mut reconnects = 0;
                    for n in 0..REQUESTS_PER_CONN {
                        let resp = client.post("/query", &[], q.as_bytes()).unwrap();
                        assert_eq!(resp.status, 200, "request {n}: {}", resp.text());
                        assert_eq!(resp.text(), expected, "request {n}");
                        if resp
                            .header("connection")
                            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                        {
                            client = connect();
                            reconnects += 1;
                        }
                    }
                    reconnects
                })
            })
            .collect();
        let reconnects: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(
            reconnects,
            conns * (REQUESTS_PER_CONN / MAX_PER_CONN),
            "{conns} connections"
        );
    }

    let report = handle.shutdown();
    assert!(report.drained_in_time, "{report:?}");
}

#[test]
fn malformed_ingest_is_400_and_publishes_no_snapshot() {
    let handle = start(ServerConfig::default(), 2);
    let mut client = HttpClient::connect(handle.addr(), Duration::from_secs(5)).unwrap();
    let published = |client: &mut HttpClient| {
        let scrape = client.get("/metrics").unwrap().text();
        scrape
            .lines()
            .find_map(|l| l.strip_prefix("docql_store_snapshots_published_total "))
            .map(|v| v.trim().parse::<u64>().unwrap())
            .unwrap_or_else(|| panic!("scrape missing the publish counter:\n{scrape}"))
    };

    let before = published(&mut client);
    let resp = client
        .post("/ingest", &[], b"<article><title>unterminated")
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert_eq!(published(&mut client), before, "a failed ingest published");

    // A well-formed ingest on the same server does publish.
    let resp = client
        .post("/ingest", &[], article_sgml(7).as_bytes())
        .unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    assert_eq!(published(&mut client), before + 1);
    drop(client);
    handle.shutdown();
}

#[test]
fn ingest_log_failures_are_500_while_malformed_documents_stay_400() {
    let dir = TempDir::new("docql-serve-log-fault").unwrap();
    let (store, _) = SharedStore::open(
        dir.path(),
        docql_sgml::fixtures::ARTICLE_DTD,
        &["my_article", "my_old_article"],
    )
    .unwrap();
    store.set_io_fault_seed(Some(0xD0C4_1994));
    let handle = Server::start(ServerConfig::default(), store).unwrap();
    let mut client = HttpClient::connect(handle.addr(), Duration::from_secs(5)).unwrap();

    let health = |client: &mut HttpClient| client.get("/healthz").unwrap();
    assert_eq!(health(&mut client).status, 200);

    // Ingest until the log faults (a simulated crash at that record);
    // every failure from then on is the log's, so the server's fault.
    let mut failures = 0;
    let mut loaded = None;
    for seed in 0..64u64 {
        let resp = client
            .post("/ingest", &[], article_sgml(seed).as_bytes())
            .unwrap();
        if resp.status == 201 {
            assert_eq!(failures, 0, "a crashed log accepted a write");
            loaded = Some(resp.text().trim().to_string());
            continue;
        }
        assert_eq!(resp.status, 500, "seed {seed}: {}", resp.text());
        assert!(resp.text().contains("wal"), "{}", resp.text());
        failures += 1;
    }
    assert!(failures > 0, "the fault stream never fired");

    // The crashed log shows on the health check.
    let resp = health(&mut client);
    assert_eq!((resp.status, resp.text().as_str()), (503, "wal crashed\n"));

    // A bind that applies but cannot be logged is the server's fault too.
    let oid = loaded.expect("an ingest before the fault");
    let resp = client
        .post("/bind", &[], format!("my_article {oid}").as_bytes())
        .unwrap();
    assert_eq!(resp.status, 500, "{}", resp.text());
    assert!(resp.text().contains("wal"), "{}", resp.text());

    // An unknown root and a document that does not parse are still the
    // client's fault.
    let resp = client
        .post("/bind", &[], format!("no_such_root {oid}").as_bytes())
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    let resp = client
        .post("/ingest", &[], b"<article><title>unterminated")
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    drop(client);
    let report = handle.shutdown();
    assert!(
        matches!(report.checkpoint, Some(Err(_))),
        "a crashed log refuses the shutdown checkpoint: {report:?}"
    );
}

#[test]
fn ingest_and_bind_echo_a_trace_id_that_traces_lists() {
    let handle = start(ServerConfig::default(), 2);
    let mut client = HttpClient::connect(handle.addr(), Duration::from_secs(5)).unwrap();
    let trace_id = |resp: &docql_serve::HttpResponse| {
        let id = resp
            .header("X-Docql-Trace-Id")
            .unwrap_or_else(|| panic!("no X-Docql-Trace-Id: {}", resp.text()))
            .to_string();
        assert_eq!(id.len(), 16, "trace id {id:?}");
        id
    };

    let ingest = client
        .post("/ingest", &[], article_sgml(9).as_bytes())
        .unwrap();
    assert_eq!(ingest.status, 201, "{}", ingest.text());
    let oid = ingest
        .header("X-Docql-Oid")
        .unwrap()
        .trim_start_matches('o');
    let bind = client
        .post("/bind", &[], format!("my_article {oid}").as_bytes())
        .unwrap();
    assert_eq!(bind.status, 204, "{}", bind.text());
    // A failed write names its trace too.
    let refused = client.post("/bind", &[], b"no_such_root 0").unwrap();
    assert_eq!(refused.status, 400, "{}", refused.text());

    let traces = client.get("/traces").unwrap().text();
    for resp in [&ingest, &bind, &refused] {
        let id = trace_id(resp);
        assert!(
            traces.contains(&format!("\"trace_id\":\"{id}\"")),
            "trace {id} is not listed:\n{traces}"
        );
    }
    drop(client);
    handle.shutdown();
}

#[test]
fn server_default_limits_govern_queries_and_headers_override_them() {
    // `default_limits` (`--row-budget` and friends) is the one layer of
    // default query limits; per-request headers override it field-wise.
    let shared = article_serve_store(8);
    let q = "select t from Articles PATH_p.title(t)";
    let expected = shared.query(q).unwrap();
    assert!(expected.rows.len() > 2, "the default budget must bite");
    let config = ServerConfig {
        default_limits: docql_guard::QueryLimits::none().with_row_budget(2),
        ..ServerConfig::default()
    };
    let handle = Server::start(config, shared).unwrap();
    let mut client = HttpClient::connect(handle.addr(), Duration::from_secs(5)).unwrap();

    let resp = client.post("/query", &[], q.as_bytes()).unwrap();
    assert_eq!(resp.status, 422, "{}", resp.text());

    let resp = client
        .post("/query", &[("X-Docql-Row-Budget", "1000000")], q.as_bytes())
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.text(), expected.to_table());
    assert_eq!(resp.header("X-Docql-Partial"), Some("none"));
    drop(client);
    handle.shutdown();
}
