//! Shared workload builders for the benchmarks and the `repro` binary,
//! plus the std-only [`harness`] the bench targets run on.

pub mod harness;

use docql::model::{ClassDef, Instance, Schema, Type, Value};
use docql::prelude::*;
use docql_corpus::{
    adversarial_sgml, generate_article, generate_letter, AdversarialParams, ArticleParams,
    LetterParams,
};
use std::sync::Arc;

/// The overhead benches' workload (B10, B11, B15): a text-predicate join
/// (Q1), a cached point lookup (Q3), and a generalized-path query (Q5),
/// over [`article_store`]`(10, 5)` with `my_article` bound.
pub const OVERHEAD_QUERIES: &[(&str, &str)] = &[
    (
        "Q1",
        "select tuple (t: a.title, f_author: first(a.authors)) \
         from a in Articles, s in a.sections \
         where s.title contains (\"SGML\" and \"OODBMS\")",
    ),
    ("Q3", "select t from my_article PATH_p.title(t)"),
    (
        "Q5",
        "select name(ATT_a) from my_article PATH_p.ATT_a(val) \
         where val contains (\"draft\")",
    ),
];

/// One way of running a query on a store, returning the row count.
pub type QueryPath = fn(&DocStore, &str) -> usize;

/// The two cached execution paths the overhead benches time: the default
/// one (`query()`, the cached interpreter the server runs) and the cached
/// algebra (`query_algebraic()`).
pub const CACHED_PATHS: &[(&str, QueryPath)] = &[
    ("interp", |s, q| s.query(q).unwrap().len()),
    ("algebraic", |s, q| s.query_algebraic(q).unwrap().len()),
];

/// Interleaved rounds per query for the overhead benches: fewer for the
/// generalized-path Q5, whose single run costs ~10× a Q1/Q3 run.
pub fn overhead_iters(name: &str) -> u64 {
    if name == "Q5" {
        200
    } else {
        2000
    }
}

/// A store of `n_docs` generated articles with `sections` sections each.
pub fn article_store(n_docs: usize, sections: usize) -> DocStore {
    let mut store = DocStore::new(
        docql::fixtures::ARTICLE_DTD,
        &["my_article", "my_old_article"],
    )
    .expect("store");
    for seed in 0..n_docs as u64 {
        let doc = generate_article(&ArticleParams {
            seed,
            sections,
            subsections: 2,
            plant_every: if seed % 2 == 0 { 3 } else { 0 },
            ..ArticleParams::default()
        });
        store.ingest_document(&doc).expect("ingest");
    }
    store
}

/// A store over the adversarial planner corpus (skewed posting lengths,
/// hot/cold path extents, deep nesting — see `docql_corpus::adversarial`),
/// batch-ingested. Workload for B14.
pub fn adversarial_store(params: &AdversarialParams) -> DocStore {
    let mut store = DocStore::new(docql::fixtures::ARTICLE_DTD, &[]).expect("store");
    let texts = adversarial_sgml(params);
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    store.ingest_batch(&refs).expect("ingest");
    store
}

/// A store of `n` letters (mixed preamble orders).
pub fn letter_store(n: usize) -> DocStore {
    let mut store = DocStore::new(docql::fixtures::LETTER_DTD, &[]).expect("store");
    for seed in 0..n as u64 {
        let doc = generate_letter(&LetterParams {
            seed,
            sender_first: Some(seed % 2 == 0),
            paras: 2,
        });
        store.ingest_document(&doc).expect("ingest");
    }
    store
}

/// A hand-built object graph with a spouse-style cycle, scaled: `n` people
/// each married to the next (cyclically), each with `friends` distinct
/// acquaintance objects. Exercises the restricted-vs-liberal path-semantics
/// trade-off (B1).
pub fn people_instance(n: usize) -> Instance {
    let schema = Arc::new(
        Schema::builder()
            .class(ClassDef::new(
                "Person",
                Type::tuple([("name", Type::String), ("spouse", Type::class("Person"))]),
            ))
            .root("People", Type::list(Type::class("Person")))
            .build()
            .expect("schema"),
    );
    let mut inst = Instance::new(schema);
    let oids: Vec<_> = (0..n)
        .map(|_| inst.new_object("Person", Value::Nil).expect("oid"))
        .collect();
    for (i, &o) in oids.iter().enumerate() {
        let next = oids[(i + 1) % n];
        inst.set_value(
            o,
            Value::tuple([
                ("name", Value::str(format!("P{i}"))),
                ("spouse", Value::Oid(next)),
            ]),
        )
        .expect("set");
    }
    inst.set_root(
        "People",
        Value::List(oids.into_iter().map(Value::Oid).collect()),
    )
    .expect("root");
    inst
}

/// A wide marked-union type of arity `n` (for the §4.2 rule-2 "combinatorial
/// explosion" bench, B5).
pub fn wide_union(n: usize, offset: usize) -> Type {
    Type::union((0..n).map(|i| (format!("m{}", i + offset), Type::Integer)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_build() {
        let s = article_store(2, 3);
        assert_eq!(s.documents().len(), 2);
        assert!(s.check().is_empty());
        let l = letter_store(3);
        assert_eq!(l.documents().len(), 3);
        let p = people_instance(4);
        assert_eq!(p.object_count(), 4);
        assert!(matches!(wide_union(3, 0), Type::Union(fs) if fs.len() == 3));
    }
}
