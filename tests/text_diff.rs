//! Differential suite for the §3 `text` mapping the IRS predicates read:
//! an object contains exactly what its `text` contains, and the inverted
//! index, a full scan and a query agree on which documents match.
//!
//! Over a generated article corpus and random `contains` combinations
//! (`and`/`or`/`not` over words of its vocabulary, attribute values
//! included), in both engines:
//!
//! * `select o … where o contains (e)` and `… where text(o) contains (e)`
//!   answer byte-identically, for roots, sections, subsections and section
//!   titles;
//! * for document roots, `find_documents(e)`, `find_documents_scan(e)` and
//!   the rows of `select a from a in Articles where a contains (e)` are the
//!   same set of objects.
//!
//! `DOCQL_PROP_SEED` / `DOCQL_PROP_CASES` replay and resize the run.

use docql::prelude::*;
use docql_corpus::{generate_article, ArticleParams};
use docql_prop::{
    check, element, one_of, prop_assert, prop_assert_eq, recursive, vec_of, zip, Gen,
};
use std::collections::BTreeSet;

/// Words and phrases of the corpus: planted phrases, prose words, the
/// generated titles' and labels' fragments, a pattern with operators, and
/// the `status` values, which sit in an attribute and never in any text.
const VOCABULARY: &[&str] = &[
    "SGML",
    "OODBMS",
    "complex object",
    "HyTime",
    "zanzibar",
    "database",
    "query",
    "object",
    "Section 2",
    "Subsection",
    "Article",
    "(SGML|HyTime)",
    "final",
    "draft",
];

/// Each object kind as a query prefix (range variables up to `where`) and
/// the selected object.
const OBJECTS: &[(&str, &str)] = &[
    ("select a from a in Articles", "a"),
    ("select s from a in Articles, s in a.sections", "s"),
    (
        "select ss from a in Articles, s in a.sections, ss in s.subsectns",
        "ss",
    ),
    (
        "select s.title from a in Articles, s in a.sections",
        "s.title",
    ),
];

/// A `contains` argument, kept as a tree so it renders both as O₂SQL and
/// as a [`ContainsExpr`].
#[derive(Debug, Clone)]
enum Expr {
    Pat(&'static str),
    And(Vec<Expr>),
    Or(Vec<Expr>),
    Not(Box<Expr>),
}

impl Expr {
    fn o2sql(&self) -> String {
        let join = |items: &[Expr], op: &str| {
            let parts: Vec<String> = items.iter().map(Expr::o2sql).collect();
            format!("({})", parts.join(op))
        };
        match self {
            Expr::Pat(p) => format!("\"{p}\""),
            Expr::And(items) => join(items, " and "),
            Expr::Or(items) => join(items, " or "),
            Expr::Not(inner) => format!("not {}", inner.o2sql()),
        }
    }

    fn contains_expr(&self) -> ContainsExpr {
        let all = |items: &[Expr]| items.iter().map(Expr::contains_expr).collect();
        match self {
            Expr::Pat(p) => ContainsExpr::pattern(p).unwrap(),
            Expr::And(items) => ContainsExpr::And(all(items)),
            Expr::Or(items) => ContainsExpr::Or(all(items)),
            Expr::Not(inner) => ContainsExpr::Not(Box::new(inner.contains_expr())),
        }
    }
}

fn arb_expr() -> Gen<Expr> {
    recursive(
        element(VOCABULARY.to_vec()).map(|p| Expr::Pat(p)),
        2,
        |inner| {
            one_of(vec![
                vec_of(inner.clone(), 2..4).map(|items| Expr::And(items.clone())),
                vec_of(inner.clone(), 2..4).map(|items| Expr::Or(items.clone())),
                inner.map(|e| Expr::Not(Box::new(e.clone()))),
            ])
        },
    )
}

/// Eight articles: even seeds plant "SGML"/"OODBMS" section titles, every
/// third section has subsections, seed 0 carries "zanzibar", and the
/// generator marks about one in four `status="final"`.
fn corpus() -> DocStore {
    let mut store = DocStore::new(docql::fixtures::ARTICLE_DTD, &[]).unwrap();
    for seed in 0..8 {
        let doc = generate_article(&ArticleParams {
            seed,
            sections: 4,
            subsections: 2,
            plant_every: if seed % 2 == 0 { 3 } else { 0 },
            ..ArticleParams::default()
        });
        store.ingest_document(&doc).unwrap();
    }
    store
}

type Engine = fn(&DocStore, &str) -> Result<QueryResult, docql::store::StoreError>;

const ENGINES: &[(&str, Engine)] = &[
    ("interpreter", DocStore::query),
    ("algebra", DocStore::query_algebraic),
];

#[test]
fn object_contains_reads_the_objects_text() {
    let store = corpus();
    let gen = zip(element(OBJECTS.to_vec()), arb_expr());
    check(
        "object_contains_reads_the_objects_text",
        64,
        &gen,
        |((prefix, o), e)| {
            let e = e.o2sql();
            for (engine, run) in ENGINES {
                let on_object = format!("{prefix} where {o} contains ({e})");
                let on_text = format!("{prefix} where text({o}) contains ({e})");
                let on_object = run(&store, &on_object).map(|r| r.to_table());
                let on_text = run(&store, &on_text).map(|r| r.to_table());
                prop_assert!(on_object.is_ok(), "{engine}: {on_object:?}");
                prop_assert_eq!(on_object.ok(), on_text.ok(), "{engine}: {e}");
            }
            Ok(())
        },
    );
}

#[test]
fn document_search_index_scan_and_query_agree() {
    let store = corpus();
    check(
        "document_search_index_scan_and_query_agree",
        64,
        &arb_expr(),
        |e| {
            let expr = e.contains_expr();
            let indexed: BTreeSet<Oid> = store.find_documents(&expr).into_iter().collect();
            let scanned: BTreeSet<Oid> = store.find_documents_scan(&expr).into_iter().collect();
            prop_assert_eq!(&indexed, &scanned, "{e:?}");
            let q = format!(
                "select a from a in Articles where a contains ({})",
                e.o2sql()
            );
            for (engine, run) in ENGINES {
                let rows: BTreeSet<Oid> = run(&store, &q)
                    .map_err(|err| format!("{engine}: {err}"))?
                    .values()
                    .into_iter()
                    .filter_map(|v| match v {
                        CalcValue::Data(Value::Oid(o)) => Some(o),
                        _ => None,
                    })
                    .collect();
                prop_assert_eq!(&rows, &indexed, "{engine}: {q}");
            }
            Ok(())
        },
    );
}

#[test]
fn the_corpus_exercises_both_outcomes() {
    // Guards the suite against a vocabulary that drifts away from the
    // corpus: some words match documents, and attribute values never do.
    let store = corpus();
    let hits = |p: &str| store.find_documents_scan(&ContainsExpr::pattern(p).unwrap());
    assert!(!hits("SGML").is_empty());
    assert!(!hits("zanzibar").is_empty());
    assert!(hits("final").is_empty() && hits("draft").is_empty());
    let finals = store
        .query("select a from a in Articles where a.status = \"final\"")
        .unwrap();
    assert!(!finals.rows.is_empty(), "no generated article is final");
}
