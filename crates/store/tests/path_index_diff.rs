//! Differential suite for the path-extent index: with the index enabled
//! and disabled, algebraic-mode evaluation must be *byte-identical* —
//! same rows, same order, same rendered table — for the paper's Q1–Q6,
//! for randomized path queries over mutated corpora, after incremental
//! `ingest_batch` updates, and under reader concurrency.
//!
//! The index and the walk share one-step semantics (`docql_paths::select`),
//! and the extent is built by the same trie-guided DFS order the walk
//! uses, so any divergence here is a real bug, not an ordering artifact.

use docql_corpus::{
    generate_article, generate_letter, mutate, ArticleParams, LetterParams, Mutation,
};
use docql_prop::{check, element, just, one_of, prop_assert_eq, usize_in, vec_of, zip3, Gen};
use docql_sgml::fixtures::{ARTICLE_DTD, LETTER_DTD};
use docql_store::DocStore;
use std::thread;

fn article_store(n_docs: usize) -> DocStore {
    let mut store = DocStore::new(ARTICLE_DTD, &["my_article", "my_old_article"]).unwrap();
    for seed in 0..n_docs as u64 {
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

/// Run `q` in algebraic mode twice — extent index on, then off — and
/// return both outcomes rendered for byte comparison.
fn both_modes(store: &mut DocStore, q: &str) -> (Result<String, String>, Result<String, String>) {
    store.set_path_extents_enabled(true);
    let indexed = store
        .query_algebraic(q)
        .map(|r| r.to_table())
        .map_err(|e| e.to_string());
    store.set_path_extents_enabled(false);
    let walked = store
        .query_algebraic(q)
        .map(|r| r.to_table())
        .map_err(|e| e.to_string());
    store.set_path_extents_enabled(true);
    (indexed, walked)
}

fn assert_agree(store: &mut DocStore, q: &str) {
    let (indexed, walked) = both_modes(store, q);
    assert_eq!(indexed, walked, "index/walk divergence on: {q}");
}

/// The paper's §4 queries (Q1–Q6) in the exact form the end-to-end suite
/// runs them, plus the `..` sugar variant of Q3.
const ARTICLE_QUERIES: &[&str] = &[
    // Q1
    "select tuple (t: a.title, f_author: first(a.authors)) \
     from a in Articles, s in a.sections \
     where s.title contains (\"SGML\" and \"OODBMS\")",
    // Q2
    "select ss from a in Articles, s in a.sections, ss in s.subsectns \
     where text(ss) contains (\"complex object\")",
    // Q3 (and its anonymous-path sugar)
    "select t from my_article PATH_p.title(t)",
    "select t from my_article .. title(t)",
    // Q4
    "my_article PATH_p - my_old_article PATH_p",
    // Q5
    "select name(ATT_a) from my_article PATH_p.ATT_a(val) \
     where val contains (\"final\")",
];

// Q6 runs over the letter DTD.
const LETTER_QUERY: &str = "select letter from letter in Letters, \
     i in positions(letter.preamble, \"from\"), \
     j in positions(letter.preamble, \"to\") \
     where i < j";

#[test]
fn q1_to_q5_identical_with_and_without_extent_index() {
    let mut store = article_store(6);
    let old = generate_article(&ArticleParams {
        seed: 7,
        sections: 3,
        ..ArticleParams::default()
    });
    let new = mutate(&old, &Mutation::AddSection("Fresh results".to_string()));
    let old_root = store.ingest_document(&old).unwrap();
    let new_root = store.ingest_document(&new).unwrap();
    store.bind("my_old_article", old_root).unwrap();
    store.bind("my_article", new_root).unwrap();

    for q in ARTICLE_QUERIES {
        assert_agree(&mut store, q);
    }
    // At least the pure path queries must actually produce rows, so the
    // agreement above is not vacuous.
    let r = store
        .query_algebraic("select t from my_article PATH_p.title(t)")
        .unwrap();
    assert!(!r.is_empty());
}

#[test]
fn q6_letters_identical_with_and_without_extent_index() {
    let mut store = DocStore::new(LETTER_DTD, &[]).unwrap();
    for seed in 0..10u64 {
        let doc = generate_letter(&LetterParams {
            seed,
            sender_first: Some(seed % 3 == 0),
            paras: 1,
        });
        store.ingest_document(&doc).unwrap();
    }
    assert_agree(&mut store, LETTER_QUERY);
}

/// A random restricted-path query suffix over the article schema's
/// vocabulary — valid and dead-end steps both included.
fn arb_path_query() -> Gen<String> {
    let root = element(vec!["Articles", "my_article"]);
    let step = one_of(vec![
        element(vec![
            ".title",
            ".sections",
            ".authors",
            ".abstract",
            ".body",
            ".subsectns",
            ".paras",
            ".contents",
            ".missing",
        ])
        .map(|s| s.to_string()),
        usize_in(0..3).map(|i| format!("[{i}]")),
        just("->".to_string()),
    ]);
    zip3(root, vec_of(step, 0..4), element(vec!["t", "u"])).map(|(root, steps, var)| {
        format!("select {var} from {root} PATH_p{}({var})", steps.concat())
    })
}

#[test]
fn randomized_path_queries_agree_over_mutated_corpora() {
    // One store, many random queries: mutation happens up front so each
    // case is cheap, and the plan cache is shared across all of them —
    // exactly the production shape.
    let mut store = article_store(3);
    let base = generate_article(&ArticleParams {
        seed: 11,
        sections: 3,
        subsections: 1,
        ..ArticleParams::default()
    });
    let mutated = mutate(
        &mutate(&base, &Mutation::AddSection("Addendum".to_string())),
        &Mutation::RetitleSection(0, "Revised opening".to_string()),
    );
    let root = store.ingest_document(&mutated).unwrap();
    store.bind("my_article", root).unwrap();

    let store = std::cell::RefCell::new(store);
    check(
        "randomized_path_queries_agree_over_mutated_corpora",
        96,
        &arb_path_query(),
        |q| {
            let (indexed, walked) = both_modes(&mut store.borrow_mut(), q);
            prop_assert_eq!(indexed, walked, "index/walk divergence on: {q}");
            Ok(())
        },
    );
}

#[test]
fn agreement_survives_incremental_batch_ingest() {
    let mut store = article_store(2);
    let r = store.ingest_document(&generate_article(&ArticleParams {
        seed: 50,
        sections: 3,
        subsections: 1,
        ..ArticleParams::default()
    }));
    store.bind("my_article", r.unwrap()).unwrap();
    let q = "select t from Articles PATH_p.title(t)";
    assert_agree(&mut store, q);

    // Incrementally add a batch (exercises per-document extent indexing
    // on an already-populated index); every query must still agree,
    // including over the new docs.
    let texts: Vec<String> = (100..106u64)
        .map(|seed| {
            generate_article(&ArticleParams {
                seed,
                sections: 5,
                subsections: 2,
                ..ArticleParams::default()
            })
            .to_sgml()
        })
        .collect();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let before = store.query_algebraic(q).unwrap().len();
    store.ingest_batch(&refs).unwrap();
    for query in ARTICLE_QUERIES {
        assert_agree(&mut store, query);
    }
    let after = store.query_algebraic(q).unwrap().len();
    assert!(after > before, "batch docs must show up in indexed results");
}

#[test]
fn eight_readers_agree_with_walk_reference() {
    const READERS: usize = 8;
    const ROUNDS: usize = 4;
    let mut store = article_store(6);
    let root = store.documents()[0];
    store.bind("my_article", root).unwrap();

    let queries = [
        "select t from my_article PATH_p.title(t)",
        "select t from Articles PATH_p.sections[1]->.title(t)",
        "select t from my_article .. title(t)",
    ];
    // Walk-based reference, computed single-threaded.
    store.set_path_extents_enabled(false);
    let reference: Vec<String> = queries
        .iter()
        .map(|q| store.query_algebraic(q).unwrap().to_table())
        .collect();
    store.set_path_extents_enabled(true);

    thread::scope(|s| {
        for reader in 0..READERS {
            let store = &store;
            let reference = &reference;
            let queries = &queries;
            s.spawn(move || {
                for round in 0..ROUNDS {
                    for (i, q) in queries.iter().enumerate() {
                        let got = store.query_algebraic(q).unwrap().to_table();
                        assert_eq!(
                            got, reference[i],
                            "reader {reader} round {round} diverged on {q}"
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn toggling_the_index_is_visible_and_reversible() {
    let mut store = article_store(1);
    assert!(store.path_extents_enabled());
    assert!(store.path_extents().path_count() > 0);
    store.set_path_extents_enabled(false);
    assert!(!store.path_extents_enabled());
    store.set_path_extents_enabled(true);
    assert!(store.path_extents_enabled());
}
