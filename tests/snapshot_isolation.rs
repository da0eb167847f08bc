//! Snapshot isolation of [`SharedStore`]'s MVCC serving path:
//!
//! * a reader that pins a snapshot **before** an ingest keeps seeing
//!   byte-identical pre-ingest results for the paper's Q1–Q6 while the
//!   writer publishes new versions;
//! * a reader that pins **after** publication sees the new documents;
//! * the paper's `text` mapping is isolated like the values it describes:
//!   a pinned snapshot keeps answering with the text it was published
//!   with after a writer retitles the article;
//! * the same holds under the seeded fault-injection sweep (64 cases,
//!   base seed from `DOCQL_FAULT` as in `tests/governance.rs`);
//! * a bounded stress run (readers racing a continuously publishing
//!   writer, fixed corpus seeds) exercises the publication protocol on
//!   every CI run.

use docql::prelude::*;
use docql::store::{StoreError, WalOp};
use docql_corpus::{generate_letter, LetterParams};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

mod util;
use util::{
    article_sgml, article_store, fault_base_seed, letter_store, rendered, ARTICLE_QUERIES,
    FAULT_CASES, Q6,
};

const BASE_DOCS: usize = 6;

#[test]
fn pinned_snapshot_serves_pre_ingest_results_while_writer_publishes() {
    let shared = SharedStore::new(article_store(BASE_DOCS));
    let reference: Vec<String> = ARTICLE_QUERIES
        .iter()
        .map(|q| rendered(&shared.query(q).unwrap()))
        .collect();
    let v0 = shared.snapshot_version();

    // Pin *before* any ingest: this Arc is the pre-ingest version.
    let pinned = shared.read();
    let writer_done = AtomicBool::new(false);

    thread::scope(|s| {
        let writer = shared.clone();
        let done = &writer_done;
        s.spawn(move || {
            for seed in 100..108u64 {
                writer.ingest(&article_sgml(seed)).unwrap();
            }
            done.store(true, Ordering::Release);
        });
        // Re-query the pinned snapshot throughout publication: every
        // result must be byte-identical to the pre-ingest reference, in
        // both engine modes.
        let pinned = &pinned;
        let reference = &reference;
        let done = &writer_done;
        for reader in 0..4 {
            s.spawn(move || {
                let mut rounds = 0usize;
                while rounds < 4 || !done.load(Ordering::Acquire) {
                    for (i, q) in ARTICLE_QUERIES.iter().enumerate() {
                        assert_eq!(
                            rendered(&pinned.query(q).unwrap()),
                            reference[i],
                            "reader {reader}: pinned snapshot diverged on {q}"
                        );
                        assert_eq!(
                            rendered(&pinned.query_algebraic(q).unwrap()),
                            reference[i],
                            "reader {reader}: pinned snapshot (algebraic) diverged on {q}"
                        );
                    }
                    rounds += 1;
                }
            });
        }
    });

    // The pinned version still holds the old corpus …
    assert_eq!(pinned.documents().len(), BASE_DOCS);
    // … while a fresh pin sees everything the writer published.
    let fresh = shared.read();
    assert_eq!(fresh.documents().len(), BASE_DOCS + 8);
    assert!(fresh.check().is_empty());
    assert_eq!(shared.snapshot_version(), v0 + 8, "one version per ingest");
    // my_article-scoped answers are stable across versions (the binding
    // did not move); Articles-wide answers may legitimately grow.
    for q in &ARTICLE_QUERIES[2..] {
        assert_eq!(
            rendered(&fresh.query(q).unwrap()),
            rendered(&pinned.query(q).unwrap()),
            "my_article-scoped {q} must not change"
        );
    }
}

#[test]
fn q6_letters_pinned_snapshot_is_isolated() {
    let shared = SharedStore::new(letter_store(10));
    let reference = rendered(&shared.query(Q6).unwrap());
    let pinned = shared.read();

    thread::scope(|s| {
        let writer = shared.clone();
        s.spawn(move || {
            for seed in 50..56u64 {
                let doc = generate_letter(&LetterParams {
                    seed,
                    sender_first: Some(true),
                    paras: 2,
                });
                writer.ingest(&doc.to_sgml()).unwrap();
            }
        });
        let pinned = &pinned;
        let reference = &reference;
        s.spawn(move || {
            for _ in 0..6 {
                assert_eq!(rendered(&pinned.query(Q6).unwrap()), *reference);
            }
        });
    });

    assert_eq!(pinned.documents().len(), 10);
    let fresh = shared.read();
    assert_eq!(fresh.documents().len(), 16);
    // Every added letter is sender-first, so Q6 (from-before-to) matches
    // strictly more letters in the new version.
    let fresh_rows = fresh.query(Q6).unwrap().len();
    let pinned_rows = pinned.query(Q6).unwrap().len();
    assert!(
        fresh_rows > pinned_rows,
        "fresh reader sees the new documents: {fresh_rows} vs {pinned_rows}"
    );
}

#[test]
fn pinned_snapshot_keeps_its_text_after_an_update() {
    let shared = SharedStore::new(article_store(BASE_DOCS));
    let root = match shared.read().instance().root(sym("my_article")).unwrap() {
        Value::Oid(o) => *o,
        other => panic!("my_article is bound to an object, got {other:?}"),
    };
    let title = match shared
        .read()
        .instance()
        .value_of(root)
        .unwrap()
        .attr(sym("title"))
    {
        Some(Value::Oid(o)) => *o,
        other => panic!("the article has a title object, got {other:?}"),
    };
    let retitled = "select t from my_article PATH_p.title(t) where text(t) contains (\"Retitled\")";
    let pinned = shared.read();
    let old_text = pinned.text_of(title).unwrap();
    assert!(!old_text.contains("Retitled"));

    let retitle = WalOp::Update {
        oid: title.0,
        value: Value::tuple([("contents", Value::str("Retitled in a write transaction"))]),
    };
    shared.apply(vec![retitle]).0.unwrap(); // a successful write publishes

    assert_eq!(pinned.text_of(title).as_deref(), Some(old_text.as_str()));
    assert_eq!(pinned.query(retitled).unwrap().len(), 0);
    let fresh = shared.read();
    assert_eq!(
        fresh.text_of(title).as_deref(),
        Some("Retitled in a write transaction")
    );
    assert_eq!(fresh.query(retitled).unwrap().len(), 1);
}

#[test]
fn pinned_snapshot_differential_holds_under_fault_injection() {
    let shared = SharedStore::new(article_store(BASE_DOCS));
    let reference: Vec<String> = ARTICLE_QUERIES
        .iter()
        .map(|q| rendered(&shared.query_algebraic(q).unwrap()))
        .collect();
    let pinned = shared.read();
    let base = fault_base_seed();

    thread::scope(|s| {
        let writer = shared.clone();
        s.spawn(move || {
            for seed in 200..206u64 {
                writer.ingest(&article_sgml(seed)).unwrap();
            }
        });
        let pinned = &pinned;
        let reference = &reference;
        s.spawn(move || {
            let (mut oks, mut interrupted) = (0u64, 0u64);
            for case in 0..FAULT_CASES {
                let seed = base.wrapping_add(case);
                let qi = (case % ARTICLE_QUERIES.len() as u64) as usize;
                let mut limits = QueryLimits::none().with_fault_seed(seed);
                if case % 2 == 1 {
                    limits = limits.with_degrade();
                }
                match pinned
                    .query_traced(ARTICLE_QUERIES[qi], Mode::Algebraic, &limits)
                    .0
                {
                    Ok(r) if r.is_partial() => {} // degraded: legitimately partial
                    Ok(r) => {
                        assert_eq!(
                            rendered(&r),
                            reference[qi],
                            "seed {seed:#x}: unflagged result diverged from the \
                             pre-ingest reference on {}",
                            ARTICLE_QUERIES[qi]
                        );
                        oks += 1;
                    }
                    Err(e) => {
                        assert!(
                            e.exec_error().is_some() || matches!(e, StoreError::QueryPanic(_)),
                            "seed {seed:#x}: unexpected error class {e}"
                        );
                        interrupted += 1;
                    }
                }
            }
            assert!(oks > 0, "some cases must complete clean");
            assert!(interrupted > 0, "some cases must trip (sweep is live)");
        });
    });

    // Both the pinned version and the store as a whole stay serviceable.
    assert_eq!(
        rendered(&pinned.query_algebraic(ARTICLE_QUERIES[0]).unwrap()),
        reference[0]
    );
    let fresh = shared.read();
    assert_eq!(fresh.documents().len(), BASE_DOCS + 6);
    assert!(fresh.check().is_empty());
}

/// Bounded-iteration stress of the publication protocol (the ci.sh
/// snapshot-stress step): readers continuously pin fresh snapshots and
/// check my_article-scoped invariants while one writer publishes a fixed
/// number of versions. Corpus seeds are fixed, so a failure replays.
#[test]
fn readers_racing_publisher_bounded_stress() {
    const READERS: usize = 4;
    const WRITES: u64 = 12;
    let shared = SharedStore::new(article_store(BASE_DOCS));
    let q = ARTICLE_QUERIES[2]; // my_article-scoped: stable across ingests
    let reference = rendered(&shared.query(q).unwrap());
    let v0 = shared.snapshot_version();
    let writer_done = AtomicBool::new(false);

    thread::scope(|s| {
        let writer = shared.clone();
        let done = &writer_done;
        s.spawn(move || {
            for seed in 300..300 + WRITES {
                writer.ingest(&article_sgml(seed)).unwrap();
            }
            done.store(true, Ordering::Release);
        });
        for reader in 0..READERS {
            let shared = shared.clone();
            let reference = reference.clone();
            let done = &writer_done;
            s.spawn(move || {
                let mut last_version = 0u64;
                let mut last_docs = BASE_DOCS;
                let mut rounds = 0usize;
                while rounds < 8 || !done.load(Ordering::Acquire) {
                    let snap = shared.read();
                    let version = shared.snapshot_version();
                    // Versions and document counts only move forward.
                    assert!(
                        version >= last_version,
                        "reader {reader}: version went back"
                    );
                    let docs = snap.documents().len();
                    assert!(docs >= last_docs, "reader {reader}: documents went back");
                    // Every published version answers the stable query
                    // identically — indexes and object store travel
                    // together, so no torn snapshot is ever observable.
                    assert_eq!(
                        rendered(&snap.query(q).unwrap()),
                        reference,
                        "reader {reader}: diverged at version {version}"
                    );
                    last_version = version;
                    last_docs = docs;
                    rounds += 1;
                }
            });
        }
    });

    assert_eq!(shared.snapshot_version(), v0 + WRITES);
    let fin = shared.read();
    assert_eq!(fin.documents().len(), BASE_DOCS + WRITES as usize);
    assert!(fin.check().is_empty());
}
