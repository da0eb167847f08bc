//! Differential suite for the cost-based planner: with statistics attached
//! and without (the heuristic baseline), algebraic-mode evaluation must
//! produce *byte-identical* rendered results — for the paper's Q1–Q6, for
//! randomized path queries, after incremental `ingest_batch` updates,
//! under 8 concurrent readers, and under MVCC writer churn (statistics
//! moving mid-workload must never tear results).
//!
//! On Q1–Q6 the compiled *plans* are additionally byte-identical: the cost
//! model only deviates from textual order for *selective* conjuncts
//! (fan-out < 1) with a clear pairwise win (15% margin), and the paper's
//! queries give it no such win — so cost-based planning is free on the
//! queries the paper actually runs, and only reorders the adversarial
//! shapes (bench B14).
//!
//! Also asserted here: feedback re-planning demonstrably fires when
//! statistics drift (the ISSUE's acceptance gate).

use docql_corpus::{generate_article, generate_letter, ArticleParams, LetterParams};
use docql_o2sql::Mode;
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

/// Run `q` in algebraic mode twice — cost-based planning on, then off —
/// and return both outcomes rendered for byte comparison.
fn both_planners(
    store: &mut DocStore,
    q: &str,
) -> (Result<String, String>, Result<String, String>) {
    store.set_cost_planning_enabled(true);
    let costed = store
        .query_algebraic(q)
        .map(|r| r.to_table())
        .map_err(|e| e.to_string());
    store.set_cost_planning_enabled(false);
    let heuristic = store
        .query_algebraic(q)
        .map(|r| r.to_table())
        .map_err(|e| e.to_string());
    store.set_cost_planning_enabled(true);
    (costed, heuristic)
}

fn assert_agree(store: &mut DocStore, q: &str) {
    let (costed, heuristic) = both_planners(store, q);
    assert_eq!(costed, heuristic, "planner divergence on: {q}");
}

/// Heuristic reference for a store whose cost planning stays on: a
/// one-off engine with the stats source detached (uncached, so the shared
/// plan cache is not contaminated with heuristic plans).
fn heuristic_table(store: &DocStore, q: &str) -> String {
    let mut e = store.engine();
    e.mode = Mode::Algebraic;
    e.stats = None;
    e.run(q).unwrap().to_table()
}

/// The rendered plan tree per set-op chain node, compiled by the chosen
/// planner (errors rendered too, so non-algebraizable queries compare).
fn plan_renders(store: &DocStore, q: &str, costed: bool) -> Vec<Result<String, String>> {
    let t = store.engine().compile(q).unwrap();
    let schema = store.instance().schema();
    let mut out = Vec::new();
    let mut node = Some(&t);
    while let Some(tr) = node {
        let plan = if costed {
            docql_algebra::algebraize_with_stats(&tr.query, schema, Some(store))
        } else {
            docql_algebra::algebraize(&tr.query, schema)
        };
        out.push(plan.map(|a| a.plan.explain()).map_err(|e| e.to_string()));
        node = tr.set_op.as_ref().map(|(_, right)| &**right);
    }
    out
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
fn q1_to_q5_results_and_plans_identical_across_planners() {
    let mut store = article_store(6);
    let old = generate_article(&ArticleParams {
        seed: 7,
        sections: 3,
        ..ArticleParams::default()
    });
    let old_root = store.ingest_document(&old).unwrap();
    let new_root = store.documents()[0];
    store.bind("my_old_article", old_root).unwrap();
    store.bind("my_article", new_root).unwrap();

    for q in ARTICLE_QUERIES {
        assert_agree(&mut store, q);
        assert_eq!(
            plan_renders(&store, q, true),
            plan_renders(&store, q, false),
            "plan not byte-identical on: {q}"
        );
    }
    // Non-vacuity: the pure path query actually produces rows.
    let r = store
        .query_algebraic("select t from my_article PATH_p.title(t)")
        .unwrap();
    assert!(!r.is_empty());
}

#[test]
fn q6_letters_identical_across_planners() {
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
    assert_eq!(
        plan_renders(&store, LETTER_QUERY, true),
        plan_renders(&store, LETTER_QUERY, false),
        "plan not byte-identical on Q6"
    );
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
fn randomized_path_queries_agree_across_planners() {
    let mut store = article_store(3);
    let root = store.documents()[0];
    store.bind("my_article", root).unwrap();

    let store = std::cell::RefCell::new(store);
    check(
        "randomized_path_queries_agree_across_planners",
        96,
        &arb_path_query(),
        |q| {
            let (costed, heuristic) = both_planners(&mut store.borrow_mut(), q);
            prop_assert_eq!(costed, heuristic, "planner divergence on: {q}");
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
    store.bind("my_old_article", store.documents()[0]).unwrap();
    let q = "select t from Articles PATH_p.title(t)";
    assert_agree(&mut store, q);

    // Incrementally add a batch (exercises the extent build whose per-path
    // counters feed the stats); every query must still agree, and
    // the stats version must have moved.
    let v_before = store.stats_version();
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
    store.ingest_batch(&refs).unwrap();
    assert!(store.stats_version() > v_before, "batch ingest bumps stats");
    for query in ARTICLE_QUERIES {
        assert_agree(&mut store, query);
    }
}

#[test]
fn eight_readers_agree_with_heuristic_reference() {
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
    // Heuristic reference, computed single-threaded with stats detached.
    let reference: Vec<String> = queries.iter().map(|q| heuristic_table(&store, q)).collect();

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
fn mvcc_writer_churn_does_not_tear_results() {
    const READERS: usize = 8;
    const ROUNDS: usize = 6;
    let shared = docql_store::SharedStore::new(article_store(4));
    let q = "select t from Articles PATH_p.title(t)";

    thread::scope(|s| {
        // Writer: keep publishing new snapshots (each bumps the stats
        // version) while readers query.
        s.spawn(|| {
            for seed in 200..212u64 {
                let doc = generate_article(&ArticleParams {
                    seed,
                    sections: 3,
                    subsections: 1,
                    ..ArticleParams::default()
                });
                shared.ingest(&doc.to_sgml()).unwrap();
            }
        });
        for reader in 0..READERS {
            let shared = &shared;
            s.spawn(move || {
                for round in 0..ROUNDS {
                    // Pin one snapshot; the cost-based cached run and the
                    // heuristic reference both read exactly this version,
                    // however far the writer has moved on.
                    let snap = shared.read();
                    let costed = snap.query_algebraic(q).unwrap().to_table();
                    let heuristic = heuristic_table(&snap, q);
                    assert_eq!(
                        costed,
                        heuristic,
                        "reader {reader} round {round}: stats churn tore results \
                         (snapshot stats v{})",
                        snap.stats_version()
                    );
                }
            });
        }
    });
    // The churn was real: versions advanced while readers ran.
    assert_eq!(shared.read().stats_version(), 16);
}

#[test]
fn replan_fires_on_stats_drift() {
    let mut store = article_store(1);
    store.set_metrics_enabled(true);
    let q = "select t from Articles PATH_p.title(t)";

    // Plan and run at 1-document statistics: the cached plan is stamped
    // with this stats version and estimates a handful of rows (one title
    // per article / section / subsection of the single document).
    let small = store.query_algebraic(q).unwrap();
    assert_eq!(small.len(), 7);
    assert_eq!(store.metrics().engine.replans.get(), 0);

    // Grow the corpus 200×: the stats version moves and the old estimate
    // is now off by far more than the 8× divergence threshold.
    let texts: Vec<String> = (1000..1200u64)
        .map(|seed| {
            generate_article(&ArticleParams {
                seed,
                sections: 2,
                subsections: 1,
                ..ArticleParams::default()
            })
            .to_sgml()
        })
        .collect();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    store.ingest_batch(&refs).unwrap();

    // The stale cached plan executes once more, observes ~201 rows against
    // an estimate of ~1, and is invalidated for re-planning.
    let big = store.query_algebraic(q).unwrap();
    assert!(big.len() > 100);
    assert_eq!(
        store.metrics().engine.replans.get(),
        1,
        "divergence under fresher stats must invalidate the cached plan"
    );

    // The next run re-plans against current statistics; its estimates are
    // now in line with what it observes, so no further re-plan fires.
    let again = store.query_algebraic(q).unwrap();
    assert_eq!(again.to_table(), big.to_table());
    assert_eq!(store.metrics().engine.replans.get(), 1);
    assert!(
        store.metrics().engine.plans_costed.get() >= 2,
        "initial plan and the re-plan were both costed"
    );
}

#[test]
fn toggling_cost_planning_is_visible_and_clears_the_cache() {
    let mut store = article_store(1);
    assert!(store.cost_planning_enabled());
    store
        .query_algebraic("select t from Articles PATH_p.title(t)")
        .unwrap();
    assert!(!store.plan_cache().is_empty());
    store.set_cost_planning_enabled(false);
    assert!(!store.cost_planning_enabled());
    assert_eq!(
        store.plan_cache().len(),
        0,
        "switching planners must not serve the other mode's plans"
    );
    store.set_cost_planning_enabled(true);
    assert!(store.cost_planning_enabled());
}
