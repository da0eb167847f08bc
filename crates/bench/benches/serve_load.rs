//! B16 — serving-tier load: a wrk-style multi-threaded HTTP client
//! hammering an in-process `docql-serve` pool with the cached Q3
//! workload, reporting throughput and latency percentiles at 1, 8, and
//! 64 keep-alive connections.
//!
//! The pool is sized to the largest connection count so the measurement
//! captures serving-tier overhead (socket + parse + stream) rather than
//! queueing; the `DOCQL_BENCH_MS` window keeps CI smoke runs to a few
//! milliseconds per point. A connection the server closes after its
//! `max_requests_per_conn` responses (the last one says `Connection:
//! close`) is reopened, and each point reports how many reopens it made.

use docql::store::{DocStore, SharedStore};
use docql_bench::article_store;
use docql_serve::server::{ServeStore, Server, ServerConfig};
use docql_serve::HttpClient;
use std::time::{Duration, Instant};

const Q3: &str = "select t from my_article PATH_p.title(t)";
const CONNECTIONS: &[usize] = &[1, 8, 64];

fn window() -> Duration {
    let ms = std::env::var("DOCQL_BENCH_MS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(300);
    Duration::from_millis(ms.max(1))
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn serve_store() -> ServeStore {
    let mut store: DocStore = article_store(10, 5);
    store.bind("my_article", store.documents()[0]).unwrap();
    ServeStore::Shared(SharedStore::new(store))
}

fn main() {
    let config = ServerConfig {
        workers: *CONNECTIONS.iter().max().unwrap(),
        queue_depth: 2 * CONNECTIONS.iter().max().unwrap(),
        ..ServerConfig::default()
    };
    let handle = Server::start(config, serve_store()).unwrap();
    let addr = handle.addr();
    let window = window();

    for &conns in CONNECTIONS {
        let started = Instant::now();
        let threads: Vec<_> = (0..conns)
            .map(|_| {
                std::thread::spawn(move || -> (u64, u64, Vec<u64>) {
                    let connect =
                        || HttpClient::connect(addr, Duration::from_secs(10)).expect("connect");
                    let mut client = connect();
                    let mut latencies = Vec::new();
                    let (mut errors, mut reconnects) = (0u64, 0u64);
                    let deadline = Instant::now() + window;
                    while Instant::now() < deadline {
                        let t0 = Instant::now();
                        match client.post("/query", &[], Q3.as_bytes()) {
                            Ok(resp) if resp.status == 200 => {
                                let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                                latencies.push(ns);
                                if resp
                                    .header("connection")
                                    .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                                {
                                    client = connect();
                                    reconnects += 1;
                                }
                            }
                            Ok(_) | Err(_) => errors += 1,
                        }
                    }
                    (errors, reconnects, latencies)
                })
            })
            .collect();
        let mut latencies: Vec<u64> = Vec::new();
        let (mut errors, mut reconnects) = (0u64, 0u64);
        for t in threads {
            let (e, r, mut l) = t.join().expect("load thread");
            errors += e;
            reconnects += r;
            latencies.append(&mut l);
        }
        let elapsed = started.elapsed().as_secs_f64();
        latencies.sort_unstable();
        let qps = latencies.len() as f64 / elapsed.max(1e-9);
        let us = |p| percentile(&latencies, p) as f64 / 1_000.0;
        println!(
            "B16 serve_load: conns={conns:>2} — {qps:>9.0} req/s, \
             p50 {:.1} us, p95 {:.1} us, p99 {:.1} us \
             ({} requests, {errors} errors, {reconnects} reconnects)",
            us(0.50),
            us(0.95),
            us(0.99),
            latencies.len(),
        );
        assert_eq!(errors, 0, "well-formed load saw non-200 responses");
    }

    let report = handle.shutdown();
    assert!(report.drained_in_time, "{report:?}");
    println!("B16 serve_load: drained clean after load");
}
