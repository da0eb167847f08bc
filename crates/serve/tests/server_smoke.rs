//! End-to-end smoke over the spawned `docql-serve` binary: the paper's
//! queries answered over HTTP must be byte-identical to the in-process
//! store, governance headers must map onto the documented statuses, the
//! observability endpoints must serve, and an admin shutdown must
//! checkpoint so a restart recovers everything that was acknowledged.

mod common;

use common::{
    populate_articles_over_http, reference_article_store, ServerProc, ARTICLE_QUERIES, Q6,
    SLOW_QUERY,
};
use docql::durable::TempDir;
use docql::store::DocStore;
use docql_corpus::{generate_letter, LetterParams};

const N_DOCS: usize = 6;

#[test]
fn article_queries_over_http_are_byte_identical() {
    let server = ServerProc::spawn(&[]);
    let mut client = server.client();
    populate_articles_over_http(&mut client, N_DOCS);
    let reference = reference_article_store(N_DOCS);

    for (i, q) in ARTICLE_QUERIES.iter().enumerate() {
        let expected = reference
            .query(q)
            .unwrap_or_else(|e| panic!("Q{}: {e}", i + 1));
        let resp = client.post("/query", &[], q.as_bytes()).unwrap();
        assert_eq!(resp.status, 200, "Q{}: {}", i + 1, resp.text());
        assert_eq!(resp.text(), expected.to_table(), "Q{} body differs", i + 1);
        let trace = resp
            .header("X-Docql-Trace-Id")
            .unwrap_or_else(|| panic!("Q{}: no X-Docql-Trace-Id", i + 1));
        assert_eq!(trace.len(), 16, "trace id {trace:?}");
        assert!(trace.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(
            resp.header("X-Docql-Rows")
                .and_then(|v| v.parse::<usize>().ok()),
            Some(expected.rows.len()),
            "Q{} row count header",
            i + 1
        );
        assert_eq!(resp.header("X-Docql-Partial"), Some("none"));
        // One fixed-length framing: no chunked body, and the governance
        // outcome arrives in the head rather than in trailers.
        assert_eq!(resp.header("Transfer-Encoding"), None, "Q{}", i + 1);
        assert_eq!(
            resp.header("Content-Length"),
            Some(resp.body.len().to_string().as_str()),
            "Q{} Content-Length",
            i + 1
        );
        for name in ["X-Docql-Rows", "X-Docql-Partial"] {
            assert!(
                resp.headers
                    .iter()
                    .any(|(n, _)| n.eq_ignore_ascii_case(name)),
                "Q{}: {name} is not a response header",
                i + 1
            );
        }
    }

    // The algebraic engine must agree over the wire too.
    for (i, q) in ARTICLE_QUERIES.iter().enumerate() {
        let expected = reference.query_algebraic(q).unwrap();
        let resp = client
            .post("/query", &[("X-Docql-Mode", "algebraic")], q.as_bytes())
            .unwrap();
        assert_eq!(resp.status, 200, "algebraic Q{}: {}", i + 1, resp.text());
        assert_eq!(
            resp.text(),
            expected.to_table(),
            "algebraic Q{} body",
            i + 1
        );
    }
}

#[test]
fn q6_over_http_matches_the_letters_reference() {
    // A letters server: custom DTD via --dtd, no named roots.
    let dir = TempDir::new("serve-letters-dtd").unwrap();
    let dtd_path = dir.path().join("letter.dtd");
    std::fs::write(&dtd_path, docql::fixtures::LETTER_DTD).unwrap();
    let server = ServerProc::spawn(&["--dtd", dtd_path.to_str().unwrap(), "--roots", ""]);
    let mut client = server.client();

    let mut reference = DocStore::new(docql::fixtures::LETTER_DTD, &[]).unwrap();
    for seed in 0..8u64 {
        let sgml = generate_letter(&LetterParams {
            seed,
            sender_first: Some(seed.is_multiple_of(2)),
            paras: 2,
        })
        .to_sgml();
        let resp = client.post("/ingest", &[], sgml.as_bytes()).unwrap();
        assert_eq!(resp.status, 201, "letter {seed}: {}", resp.text());
        reference.ingest(&sgml).unwrap();
    }

    let expected = reference.query(Q6).unwrap();
    assert!(
        !expected.rows.is_empty(),
        "Q6 reference should match letters"
    );
    let resp = client.post("/query", &[], Q6.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.text(), expected.to_table());
}

#[test]
fn governance_headers_map_onto_statuses() {
    let server = ServerProc::spawn(&[]);
    let mut client = server.client();
    populate_articles_over_http(&mut client, N_DOCS);

    // An already-expired deadline trips at the first guard check: 504.
    let resp = client
        .post(
            "/query",
            &[("X-Docql-Deadline-Ms", "0")],
            SLOW_QUERY.as_bytes(),
        )
        .unwrap();
    assert_eq!(resp.status, 504, "{}", resp.text());
    assert!(resp.header("X-Docql-Trace-Id").is_some());

    // A strict row budget on a multi-row result: 422. Q2 matches the
    // planted "complex object" markers in the even-seeded documents.
    let multi_row = ARTICLE_QUERIES[1];
    let resp = client
        .post(
            "/query",
            &[("X-Docql-Row-Budget", "1")],
            multi_row.as_bytes(),
        )
        .unwrap();
    assert_eq!(resp.status, 422, "{}", resp.text());

    // The same budget with degrade: a 200 partial prefix, flagged in the
    // response headers ahead of the rows.
    let resp = client
        .post(
            "/query",
            &[("X-Docql-Row-Budget", "1"), ("X-Docql-Degrade", "1")],
            multi_row.as_bytes(),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let full = client.post("/query", &[], multi_row.as_bytes()).unwrap();
    assert_eq!(full.status, 200);
    let full_rows: usize = full.header("X-Docql-Rows").unwrap().parse().unwrap();
    let got_rows: usize = resp.header("X-Docql-Rows").unwrap().parse().unwrap();
    assert!(
        got_rows < full_rows,
        "partial {got_rows} vs full {full_rows}"
    );
    assert_eq!(
        resp.header("X-Docql-Partial"),
        Some("row budget exhausted"),
        "expected a degraded result"
    );
    // The partial body is a prefix-shaped table: same header, fewer rows.
    assert!(full.text().starts_with(resp.text().lines().next().unwrap()));

    // Unparsable governance headers are client errors, named precisely.
    for (name, value) in [
        ("X-Docql-Deadline-Ms", "soon"),
        ("X-Docql-Row-Budget", "-3"),
        ("X-Docql-Path-Fuel", "lots"),
        ("X-Docql-Degrade", "maybe"),
        ("X-Docql-Mode", "quantum"),
    ] {
        let resp = client
            .post("/query", &[(name, value)], ARTICLE_QUERIES[2].as_bytes())
            .unwrap();
        assert_eq!(resp.status, 400, "{name}: {}", resp.text());
        assert!(resp.text().contains(name), "{name}: {}", resp.text());
    }

    // A malformed query is a 400 that still carries its trace id.
    let resp = client.post("/query", &[], b"select nonsense ((").unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.header("X-Docql-Trace-Id").is_some());
}

#[test]
fn observability_and_admin_routes_serve() {
    let server = ServerProc::spawn(&[]);
    let mut client = server.client();
    populate_articles_over_http(&mut client, 2);
    let _ = client
        .post("/query", &[], ARTICLE_QUERIES[2].as_bytes())
        .unwrap();

    let resp = client.get("/healthz").unwrap();
    assert_eq!((resp.status, resp.text().as_str()), (200, "ok\n"));

    let resp = client.get("/metrics").unwrap();
    assert_eq!(resp.status, 200);
    let scrape = resp.text();
    for name in [
        "docql_serve_connections_total",
        "docql_serve_responses_2xx_total",
        "docql_serve_request_ns",
        "docql_queries_total",
    ] {
        assert!(scrape.contains(name), "scrape missing {name}:\n{scrape}");
    }

    let resp = client.get("/metrics.json").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("docql_serve_connections_total"));

    let resp = client.get("/traces").unwrap();
    assert_eq!(resp.status, 200);

    // Wrong methods are 405, unknown routes 404.
    assert_eq!(client.post("/metrics", &[], b"").unwrap().status, 405);
    assert_eq!(client.get("/query").unwrap().status, 405);
    assert_eq!(client.get("/no/such/route").unwrap().status, 404);
}

#[test]
fn admin_shutdown_checkpoints_and_restart_recovers() {
    let dir = TempDir::new("serve-restart").unwrap();
    let dir_arg = dir.path().to_str().unwrap().to_string();
    let expected = {
        let mut server = ServerProc::spawn(&["--dir", &dir_arg]);
        let mut client = server.client();
        populate_articles_over_http(&mut client, N_DOCS);
        let expected = client
            .post("/query", &[], ARTICLE_QUERIES[3].as_bytes())
            .unwrap();
        assert_eq!(expected.status, 200);

        let resp = client.post("/admin/shutdown", &[], b"").unwrap();
        assert_eq!((resp.status, resp.text().as_str()), (202, "draining\n"));
        assert!(server.wait_for_exit(std::time::Duration::from_secs(10)));
        expected.text()
    };

    // A fresh process over the same directory serves the same answers
    // without any re-ingest: the shutdown checkpoint captured the store.
    let server = ServerProc::spawn(&["--dir", &dir_arg]);
    let mut client = server.client();
    let resp = client
        .post("/query", &[], ARTICLE_QUERIES[3].as_bytes())
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.text(), expected);
}
