//! The chaos-client battery (the tentpole's acceptance proof): a seeded
//! sweep of hostile peers — torn requests, garbage, oversized heads,
//! slow-loris stalls, mid-stream disconnects, connection floods — against
//! a small worker pool, while a well-formed client keeps getting
//! byte-identical answers. Afterwards: zero worker panics, zero leaked
//! connections, and the server still serves. Plus `kill -9` under ingest
//! load: everything acknowledged with `201` survives a restart.

mod common;

use common::{article_sgml, fault_base_seed, ServerProc, ARTICLE_QUERIES, FAULT_CASES};
use docql::durable::TempDir;
use docql_prop::SeededRng;
use docql_serve::http::ParseLimits;
use docql_serve::server::{Server, ServerConfig};
use docql_serve::HttpClient;
use docql_store::{DocStore, SharedStore};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N_DOCS: usize = 6;

fn article_store(n_docs: usize) -> DocStore {
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
    store
}

/// One hostile connection, shaped by `case`.
fn chaos_case(addr: std::net::SocketAddr, case: u64, rng: &mut SeededRng) {
    let Ok(mut s) = TcpStream::connect(addr) else {
        return; // connect refused under load still must not wedge the pool
    };
    let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
    match case % 5 {
        // Random garbage, then hang up.
        0 => {
            let len = rng.gen_range(1..300);
            let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
            let _ = s.write_all(&bytes);
        }
        // A valid request torn off mid-wire.
        1 => {
            let q = ARTICLE_QUERIES[case as usize % ARTICLE_QUERIES.len()];
            let wire = format!(
                "POST /query HTTP/1.1\r\nHost: docql\r\nContent-Length: {}\r\n\r\n{q}",
                q.len()
            );
            let cut = rng.gen_range(1..wire.len());
            let _ = s.write_all(&wire.as_bytes()[..cut]);
        }
        // A head that blows the configured ceiling.
        2 => {
            let _ = s.write_all(b"GET / HTTP/1.1\r\n");
            for i in 0..64 {
                let v = "v".repeat(rng.gen_range(16..200));
                if s.write_all(format!("X-Flood-{i}: {v}\r\n").as_bytes())
                    .is_err()
                {
                    break; // server already answered 431 and closed
                }
            }
        }
        // Slow loris: a few bytes, then a stall past the read deadline.
        3 => {
            for b in b"POST /query HTT" {
                if s.write_all(&[*b]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            // Hold the socket open without sending; drop after the
            // server's deadline has certainly fired.
            std::thread::sleep(Duration::from_millis(120));
        }
        // A full request whose sender vanishes without reading the answer.
        _ => {
            let q = ARTICLE_QUERIES[case as usize % ARTICLE_QUERIES.len()];
            let wire = format!(
                "POST /query HTTP/1.1\r\nHost: docql\r\nContent-Length: {}\r\n\r\n{q}",
                q.len()
            );
            let _ = s.write_all(wire.as_bytes());
        }
    }
    // Every connection ends in an abrupt drop (no graceful FIN dance).
}

#[test]
fn chaos_battery_leaves_the_server_standing() {
    let config = ServerConfig {
        workers: 4,
        queue_depth: 8,
        read_timeout: Duration::from_millis(100),
        write_timeout: Duration::from_millis(500),
        parse: ParseLimits {
            max_head_bytes: 2048,
            max_headers: 16,
            max_body_bytes: 64 * 1024,
        },
        ..ServerConfig::default()
    };
    let reference = article_store(N_DOCS);
    let expected = reference.query(ARTICLE_QUERIES[2]).unwrap().to_table();
    let handle = Server::start(config, SharedStore::new(article_store(N_DOCS))).unwrap();
    let addr = handle.addr();

    // The well-formed peer: keeps asking Q3 throughout the storm. Backoff
    // statuses (503 under flood) are legal; wrong bytes never are.
    let stop = Arc::new(AtomicBool::new(false));
    let ok_count = Arc::new(AtomicU64::new(0));
    let prober = {
        let stop = Arc::clone(&stop);
        let ok_count = Arc::clone(&ok_count);
        let expected = expected.clone();
        std::thread::spawn(move || -> Result<(), String> {
            while !stop.load(Ordering::Relaxed) {
                let Ok(mut client) = HttpClient::connect(addr, Duration::from_secs(5)) else {
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                };
                match client.post("/query", &[], ARTICLE_QUERIES[2].as_bytes()) {
                    Ok(resp) if resp.status == 200 => {
                        if resp.text() != expected {
                            return Err(format!("byte mismatch under chaos: {}", resp.text()));
                        }
                        ok_count.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(resp) if resp.status == 503 => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Ok(resp) => return Err(format!("unexpected status {}", resp.status)),
                    Err(_) => std::thread::sleep(Duration::from_millis(5)), // flooded out
                }
            }
            Ok(())
        })
    };

    let base = fault_base_seed();
    for case in 0..FAULT_CASES {
        let mut rng = SeededRng::seed_from_u64(base.wrapping_add(case));
        chaos_case(addr, case, &mut rng);
        if case % 8 == 7 {
            // A connection flood: open a pile of silent sockets at once
            // and drop them all on the floor.
            let flood: Vec<_> = (0..16)
                .filter_map(|_| TcpStream::connect(addr).ok())
                .collect();
            drop(flood);
        }
    }

    stop.store(true, Ordering::Relaxed);
    prober
        .join()
        .unwrap()
        .expect("well-formed peer stayed correct");
    assert!(
        ok_count.load(Ordering::Relaxed) > 0,
        "the well-formed peer should have been served during the battery"
    );

    // No worker died, and every connection is released once the hostile
    // peers' sockets run out their deadlines.
    assert_eq!(handle.metrics().worker_panics.get(), 0);
    let deadline = Instant::now() + Duration::from_secs(5);
    while (handle.active_connections() > 0 || handle.metrics().connections_active.get() != 0)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(handle.active_connections(), 0, "leaked connection slots");
    assert_eq!(
        handle.metrics().connections_active.get(),
        0,
        "leaked active-connection gauge"
    );

    // Still standing: a fresh client gets the exact same bytes.
    let mut client = HttpClient::connect(addr, Duration::from_secs(5)).unwrap();
    let resp = client
        .post("/query", &[], ARTICLE_QUERIES[2].as_bytes())
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.text(), expected);
    drop(client);

    let report = handle.shutdown();
    assert!(report.drained_in_time, "{report:?}");
}

#[test]
fn kill_9_under_ingest_load_recovers_every_acked_document() {
    let base = fault_base_seed();
    for round in 0..3u64 {
        let mut rng = SeededRng::seed_from_u64(base.wrapping_add(round));
        let kill_at = 1 + rng.gen_range(0..7);

        let dir = TempDir::new("serve-kill9").unwrap();
        let dir_arg = dir.path().to_str().unwrap().to_string();
        let mut server = ServerProc::spawn(&["--dir", &dir_arg]);
        let mut client = server.client();
        let mut acked = 0usize;
        for seed in 0..(kill_at + 4) as u64 {
            if acked == kill_at {
                break;
            }
            let resp = client
                .post("/ingest", &[], article_sgml(seed).as_bytes())
                .unwrap();
            assert_eq!(resp.status, 201, "{}", resp.text());
            acked += 1;
        }
        // SIGKILL: no drain, no checkpoint — recovery must come from the
        // WAL alone.
        server.child.kill().unwrap();
        let _ = server.child.wait();
        drop(client);

        // Everything the dead server acknowledged is still there.
        let reference = {
            let mut store = DocStore::new(
                docql_sgml::fixtures::ARTICLE_DTD,
                &["my_article", "my_old_article"],
            )
            .unwrap();
            for seed in 0..acked as u64 {
                store.ingest(&article_sgml(seed)).unwrap();
            }
            store
        };
        let q = "select a.title from a in Articles";
        let expected = reference.query(q).unwrap().to_table();

        let restarted = ServerProc::spawn(&["--dir", &dir_arg]);
        let mut client = restarted.client();
        let resp = client.post("/query", &[], q.as_bytes()).unwrap();
        assert_eq!(resp.status, 200, "round {round}: {}", resp.text());
        assert_eq!(
            resp.text(),
            expected,
            "round {round}: kill -9 after {acked} acks lost data"
        );
    }
}
