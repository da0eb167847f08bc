//! Concurrency and plan-cache behaviour of the store layer:
//!
//! * N reader threads over one `DocStore` (and over a `SharedStore` with a
//!   writer interleaved) must see results byte-identical to single-threaded
//!   execution;
//! * the plan cache must hit on repeats without changing any result;
//! * batch ingest must be indistinguishable from per-document ingest;
//! * index-backed and scan text search must agree over the synthetic
//!   corpus.
//!
//! Deliberately loom-free: plain `std::thread::scope` stress, as the store
//! promises data-race freedom through `&self` access and `Sync`.

use docql::prelude::*;
use docql::store::{DocStore, StoreError};
use docql_corpus::{generate_article, ArticleParams};
use std::thread;
use std::time::Duration;

const READERS: usize = 8;
const ROUNDS: usize = 4;

fn corpus_store(n_docs: usize) -> DocStore {
    let mut store = DocStore::new(docql::fixtures::ARTICLE_DTD, &["my_article"]).unwrap();
    let texts: Vec<String> = (0..n_docs as u64)
        .map(|seed| {
            generate_article(&ArticleParams {
                seed,
                sections: 4,
                subsections: 2,
                plant_every: if seed % 2 == 0 { 2 } else { 0 },
                ..ArticleParams::default()
            })
            .to_sgml()
        })
        .collect();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let roots = store.ingest_batch(&refs).unwrap();
    store.bind("my_article", roots[0]).unwrap();
    store
}

const QUERIES: &[&str] = &[
    "select t from my_article PATH_p.title(t)",
    "select tuple (t: a.title, f_author: first(a.authors)) \
     from a in Articles, s in a.sections \
     where s.title contains (\"SGML\" and \"OODBMS\")",
    "select name(ATT_a) from my_article PATH_p.ATT_a(val) \
     where val contains (\"draft\")",
];

/// Render a result deterministically for byte-for-byte comparison.
fn rendered(r: &QueryResult) -> String {
    r.to_table()
}

#[test]
fn concurrent_readers_match_single_threaded_results() {
    let store = corpus_store(8);
    // Reference: single-threaded, uncached (the seed's original path).
    let reference: Vec<String> = QUERIES
        .iter()
        .map(|q| rendered(&store.engine().run(q).unwrap()))
        .collect();

    thread::scope(|s| {
        for reader in 0..READERS {
            let store = &store;
            let reference = &reference;
            s.spawn(move || {
                for round in 0..ROUNDS {
                    for (i, q) in QUERIES.iter().enumerate() {
                        let got = rendered(&store.query(q).unwrap());
                        assert_eq!(
                            got, reference[i],
                            "reader {reader} round {round} diverged on {q}"
                        );
                    }
                }
            });
        }
    });

    // Readers racing on a cold entry may each compile it once before any
    // insert lands, so up to READERS misses per query are legitimate; every
    // other run must hit.
    let stats = store.plan_cache_stats();
    let total = (READERS * ROUNDS * QUERIES.len()) as u64;
    assert_eq!(
        stats.hits + stats.misses,
        total,
        "every run counted: {stats:?}"
    );
    assert!(
        stats.hits >= total - (READERS * QUERIES.len()) as u64,
        "almost every concurrent run should hit the plan cache: {stats:?}"
    );
}

#[test]
fn concurrent_algebraic_readers_agree_with_interpreter() {
    let store = corpus_store(4);
    let q = QUERIES[0];
    let reference = rendered(&store.engine().run(q).unwrap());
    thread::scope(|s| {
        for _ in 0..READERS {
            let store = &store;
            let reference = &reference;
            s.spawn(move || {
                for _ in 0..ROUNDS {
                    assert_eq!(rendered(&store.query_algebraic(q).unwrap()), *reference);
                }
            });
        }
    });
}

#[test]
fn shared_store_serves_readers_while_writer_ingests() {
    let shared = SharedStore::new(corpus_store(4));
    let extra: Vec<String> = (100..104u64)
        .map(|seed| {
            generate_article(&ArticleParams {
                seed,
                sections: 3,
                ..ArticleParams::default()
            })
            .to_sgml()
        })
        .collect();
    let q = QUERIES[0];
    let reference = rendered(&shared.query(q).unwrap());

    thread::scope(|s| {
        for _ in 0..READERS {
            let shared = shared.clone();
            let reference = reference.clone();
            s.spawn(move || {
                for _ in 0..ROUNDS {
                    // my_article is stable across ingests, so this query's
                    // answer must not change while the writer works.
                    assert_eq!(rendered(&shared.query(q).unwrap()), reference);
                }
            });
        }
        let writer = shared.clone();
        let extra = &extra;
        s.spawn(move || {
            for text in extra {
                writer.ingest(text).unwrap();
            }
        });
    });

    let store = shared.read();
    assert_eq!(store.documents().len(), 4 + extra.len());
    assert!(store.check().is_empty());
}

/// Work grows as |Articles|³, so on a large corpus this runs far past any
/// millisecond-scale deadline — the designated victim for governance tests.
const DOOMED_QUERY: &str = "select tuple (x: a.title, y: b.title) \
     from a in Articles, b in Articles, c in Articles \
     where a.title contains (\"SGML\")";

#[test]
fn doomed_deadline_reader_never_perturbs_others_or_starves_writer() {
    // Governance of one query must never leak into another.
    let shared = SharedStore::new(corpus_store(8));
    let extra: Vec<String> = (200..204u64)
        .map(|seed| {
            generate_article(&ArticleParams {
                seed,
                sections: 3,
                ..ArticleParams::default()
            })
            .to_sgml()
        })
        .collect();
    // my_article-scoped queries: stable while the writer ingests.
    let stable = [QUERIES[0], QUERIES[2]];
    let reference: Vec<String> = stable
        .iter()
        .map(|q| rendered(&shared.query(q).unwrap()))
        .collect();

    thread::scope(|s| {
        // Reader 0 is doomed: an already-expired deadline on a heavy query.
        {
            let shared = shared.clone();
            s.spawn(move || {
                let limits = QueryLimits::none().with_deadline(Duration::ZERO);
                for round in 0..ROUNDS {
                    match shared
                        .query_traced(DOOMED_QUERY, Mode::Interpret, &limits)
                        .0
                    {
                        Err(StoreError::Interrupted(ExecError::DeadlineExceeded)) => {}
                        other => panic!(
                            "doomed reader round {round}: expected DeadlineExceeded, got {:?}",
                            other.map(|r| r.len())
                        ),
                    }
                }
            });
        }
        for reader in 1..READERS {
            let shared = shared.clone();
            let reference = reference.clone();
            s.spawn(move || {
                for round in 0..ROUNDS {
                    for (i, q) in stable.iter().enumerate() {
                        assert_eq!(
                            rendered(&shared.query(q).unwrap()),
                            reference[i],
                            "reader {reader} round {round} diverged on {q}"
                        );
                    }
                }
            });
        }
        // The writer must make progress throughout: readers never take
        // the write lock.
        let writer = shared.clone();
        let extra = &extra;
        s.spawn(move || {
            for text in extra {
                writer.ingest(text).unwrap();
            }
        });
    });

    let store = shared.read();
    assert_eq!(store.documents().len(), 8 + extra.len());
    assert!(store.check().is_empty());
}

#[test]
fn plan_cache_second_run_hits_with_identical_result() {
    let store = corpus_store(2);
    let q = QUERIES[0];
    let before = store.plan_cache_stats();
    let first = store.query(q).unwrap();
    let second = store.query(q).unwrap();
    let after = store.plan_cache_stats();
    assert_eq!(first, second);
    assert_eq!(after.misses, before.misses + 1, "first run compiles");
    assert_eq!(after.hits, before.hits + 1, "second run hits");
}

#[test]
fn index_and_scan_agree_over_synthetic_corpus() {
    let store = corpus_store(10);
    let exprs = [
        ContainsExpr::all_of(["SGML", "OODBMS"]).unwrap(),
        ContainsExpr::all_of(["zanzibar"]).unwrap(),
        ContainsExpr::pattern("(s|S)GML").unwrap(),
        ContainsExpr::Not(Box::new(ContainsExpr::pattern("zanzibar").unwrap())),
        ContainsExpr::Or(vec![
            ContainsExpr::pattern("database").unwrap(),
            ContainsExpr::pattern("no-such-token-anywhere").unwrap(),
        ]),
    ];
    for e in &exprs {
        assert_eq!(
            store.find_documents(e),
            store.find_documents_scan(e),
            "index/scan parity for {e:?}"
        );
    }
}
