//! Whole-pipeline integration: generate → ingest → query (both engines) →
//! export → re-ingest → agree.

use docql::prelude::*;
use docql_corpus::{generate_article, ArticleParams};
use std::collections::BTreeSet;

fn corpus_db(n: usize) -> DocStore {
    let mut db = DocStore::new(docql::fixtures::ARTICLE_DTD, &["my_article"]).unwrap();
    for seed in 0..n as u64 {
        let doc = generate_article(&ArticleParams {
            seed,
            sections: 4,
            subsections: 2,
            plant_every: 2,
            ..ArticleParams::default()
        });
        db.ingest_document(&doc).unwrap();
    }
    db
}

#[test]
fn ingest_preserves_type_and_constraint_invariants() {
    let db = corpus_db(5);
    assert!(db.check().is_empty());
    assert_eq!(db.documents().len(), 5);
}

#[test]
fn both_engines_agree_on_a_query_battery() {
    let mut db = corpus_db(4);
    let root = db.documents()[0];
    db.bind("my_article", root).unwrap();
    let queries = [
        "select t from my_article PATH_p.title(t)",
        "select t from my_article .. title(t)",
        "select x from Articles PATH_p.abstract(x)",
        "select a from a in Articles where a.status = \"draft\"",
        "select s from a in Articles, s in a.sections",
        "select b from a in Articles, s in a.sections, b in s.bodies",
    ];
    for q in queries {
        let interp: BTreeSet<_> = db.query(q).unwrap().rows.into_iter().collect();
        let alg: BTreeSet<_> = db.query_algebraic(q).unwrap().rows.into_iter().collect();
        assert_eq!(interp, alg, "modes disagree on {q}");
    }
}

#[test]
fn export_reingest_fixpoint() {
    let db = corpus_db(3);
    let mut db2 = DocStore::new(docql::fixtures::ARTICLE_DTD, &[]).unwrap();
    for &root in db.documents() {
        let doc = db.export(root).unwrap();
        db2.ingest_document(&doc).unwrap();
    }
    assert!(db2.check().is_empty());
    assert_eq!(
        db.instance().object_count(),
        db2.instance().object_count(),
        "object-for-object round trip"
    );
    // Query equivalence across the round trip.
    let q = "select t from Articles PATH_p.title(t)";
    let texts = |d: &DocStore| -> BTreeSet<String> {
        d.query(q)
            .unwrap()
            .rows
            .iter()
            .filter_map(|r| match &r[0] {
                CalcValue::Data(Value::Oid(o)) => d.text_of(*o),
                _ => None,
            })
            .collect()
    };
    assert_eq!(texts(&db), texts(&db2));
}

#[test]
fn query_results_are_sets() {
    // Re-running a query returns identical results; duplicates eliminated.
    let db = corpus_db(3);
    let q = "select a.status from a in Articles";
    let r1 = db.query(q).unwrap();
    let r2 = db.query(q).unwrap();
    assert_eq!(r1.rows.len(), r2.rows.len());
    let distinct: BTreeSet<_> = r1.rows.iter().collect();
    assert_eq!(distinct.len(), r1.rows.len(), "no duplicates");
    assert!(r1.len() <= 2, "only final/draft possible, got {}", r1.len());
}

#[test]
fn error_paths_are_reported_not_panicked() {
    let db = corpus_db(1);
    // Unknown identifier.
    assert!(db.query("select x from x in Nonexistent").is_err());
    // Syntax error.
    assert!(db.query("select from where").is_err());
    // Unknown function at evaluation time.
    assert!(db.query("select frobnicate(a) from a in Articles").is_err());
    // Impossible pattern: runs fine, zero rows (false-not-error, §5.3).
    let r = db
        .query("select t from Articles PATH_p.zzz_not_an_attribute(t)")
        .unwrap();
    assert!(r.is_empty());
}

#[test]
fn scale_smoke_thousandish_objects() {
    let db = corpus_db(25);
    assert!(db.instance().object_count() > 1000);
    let r = db
        .query(
            "select tuple (t: a.title, f: first(a.authors)) \
             from a in Articles, s in a.sections \
             where s.title contains (\"SGML\" and \"OODBMS\")",
        )
        .unwrap();
    assert!(!r.is_empty());
}
