//! Shared plumbing for the serve-crate integration suites: corpus
//! builders mirroring the root `tests/util` shapes, a spawned-binary
//! harness, and the seed plumbing for the chaos battery.
//!
//! Each test binary compiles this module independently and uses a
//! different subset of it, so unused-item lints are suppressed at the
//! module level rather than per item.
#![allow(dead_code)]

use docql::store::DocStore;
use docql_corpus::{generate_article, ArticleParams};
use docql_serve::HttpClient;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Q1–Q5 from the paper (the B6 suite), same as the root `tests/util`.
pub const ARTICLE_QUERIES: &[&str] = &[
    "select tuple (t: a.title, f_author: first(a.authors)) \
     from a in Articles, s in a.sections \
     where s.title contains (\"SGML\" and \"OODBMS\")",
    "select ss from a in Articles, s in a.sections, ss in s.subsectns \
     where text(ss) contains (\"complex object\")",
    "select t from my_article PATH_p.title(t)",
    "my_article PATH_p - my_old_article PATH_p",
    "select name(ATT_a) from my_article PATH_p.ATT_a(val) \
     where val contains (\"draft\")",
];

/// Q6 (the letters corpus).
pub const Q6: &str = "select letter from letter in Letters, \
                  i in positions(letter.preamble, \"from\"), \
                  j in positions(letter.preamble, \"to\") \
                  where i < j";

/// A four-way cross-product over `Articles` — work grows as |Articles|⁴,
/// so on a large-enough corpus it is reliably in flight when a drain or a
/// disconnect arrives. (A triple product over 60 articles answers in about
/// 50 ms in a release build, before a disconnect 50 ms in is seen.)
pub const SLOW_QUERY: &str = "select tuple (x: a.title, y: b.title) \
     from a in Articles, b in Articles, c in Articles, d in Articles \
     where a.title contains (\"SGML\")";

/// One synthetic article (4 sections × 2 subsections; even seeds carry the
/// planted "draft"/"complex object" markers) as SGML text.
pub fn article_sgml(seed: u64) -> String {
    generate_article(&ArticleParams {
        seed,
        sections: 4,
        subsections: 2,
        plant_every: if seed.is_multiple_of(2) { 2 } else { 0 },
        ..ArticleParams::default()
    })
    .to_sgml()
}

/// The in-process reference store the HTTP answers must match
/// byte-for-byte: `my_article` = the second document, `my_old_article` =
/// the first (the root suite's `article_store` shape).
pub fn reference_article_store(n_docs: usize) -> DocStore {
    let mut store = DocStore::new(
        docql::fixtures::ARTICLE_DTD,
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

/// Ingest the same `n_docs` articles over HTTP and bind the paper roots,
/// returning the server-assigned oids. The resulting server store answers
/// queries byte-identically to [`reference_article_store`]`(n_docs)`.
pub fn populate_articles_over_http(client: &mut HttpClient, n_docs: usize) -> Vec<u32> {
    let mut oids = Vec::with_capacity(n_docs);
    for seed in 0..n_docs as u64 {
        let resp = client
            .post("/ingest", &[], article_sgml(seed).as_bytes())
            .unwrap();
        assert_eq!(resp.status, 201, "ingest seed {seed}: {}", resp.text());
        let oid: u32 = resp.text().trim().parse().unwrap();
        assert_eq!(
            resp.header("X-Docql-Oid"),
            Some(format!("o{oid}")).as_deref()
        );
        oids.push(oid);
    }
    for (name, oid) in [("my_article", oids[1]), ("my_old_article", oids[0])] {
        let body = format!("{name} {oid}");
        let resp = client.post("/bind", &[], body.as_bytes()).unwrap();
        assert_eq!(resp.status, 204, "bind {name}: {}", resp.text());
    }
    oids
}

/// Base seed for the chaos sweeps: `DOCQL_FAULT` (decimal or `0x`-hex),
/// defaulting to a fixed constant so plain `cargo test` is deterministic.
pub fn fault_base_seed() -> u64 {
    match std::env::var("DOCQL_FAULT") {
        Ok(s) => {
            let s = s.trim();
            let parsed = match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("DOCQL_FAULT must be a u64, got {s:?}"))
        }
        Err(_) => 0xD0C4_1994,
    }
}

/// Cases per seed-driven chaos sweep.
pub const FAULT_CASES: u64 = 64;

/// A `docql-serve` process spawned from the built binary, killed on drop.
pub struct ServerProc {
    pub child: Child,
    /// The bound address, parsed from the binary's `listening on` line.
    pub addr: String,
}

impl ServerProc {
    /// Spawn `docql-serve --addr 127.0.0.1:0 <extra>` and wait for it to
    /// report its ephemeral port.
    pub fn spawn(extra: &[&str]) -> ServerProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_docql-serve"))
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn docql-serve");
        let stdout = child.stdout.take().expect("child stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read listening line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
            .to_string();
        ServerProc { child, addr }
    }

    /// A fresh keep-alive client for this server.
    pub fn client(&self) -> HttpClient {
        HttpClient::connect(self.addr.as_str(), Duration::from_secs(10)).expect("connect")
    }

    /// Wait (bounded) for the process to exit and return its success flag.
    pub fn wait_for_exit(&mut self, deadline: Duration) -> bool {
        let start = std::time::Instant::now();
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => return status.success(),
                None if start.elapsed() > deadline => panic!("server did not exit in {deadline:?}"),
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
