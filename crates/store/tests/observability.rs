//! Differential suite for the observability layer: instrumentation must be
//! *inert* — enabling metrics, profiling with `EXPLAIN ANALYZE`, or both,
//! may never change a query's result. Checked byte-identically on the
//! paper's Q1–Q6 and on randomized path queries, plus consistency checks
//! tying per-operator row counts to result cardinalities and index-hit
//! versus walk-fallback accounting to the extent-index toggle.

use docql_corpus::{generate_article, generate_letter, ArticleParams, LetterParams};
use docql_guard::QueryLimits;
use docql_prop::{check, element, just, one_of, prop_assert_eq, usize_in, vec_of, zip3, Gen};
use docql_sgml::fixtures::{ARTICLE_DTD, LETTER_DTD};
use docql_store::DocStore;

fn article_store(n_docs: usize) -> DocStore {
    let mut store = DocStore::new(ARTICLE_DTD, &["my_article", "my_old_article"]).unwrap();
    let mut roots = Vec::new();
    for seed in 0..n_docs as u64 {
        let doc = generate_article(&ArticleParams {
            seed,
            sections: 4,
            subsections: 2,
            plant_every: if seed % 2 == 0 { 3 } else { 0 },
            ..ArticleParams::default()
        });
        roots.push(store.ingest_document(&doc).unwrap());
    }
    store.bind("my_article", roots[0]).unwrap();
    store
        .bind("my_old_article", *roots.last().unwrap())
        .unwrap();
    store
}

fn letter_store(n_docs: usize) -> DocStore {
    let mut store = DocStore::new(LETTER_DTD, &[]).unwrap();
    for seed in 0..n_docs as u64 {
        let doc = generate_letter(&LetterParams {
            seed,
            sender_first: Some(seed % 3 == 0),
            paras: 1,
        });
        store.ingest_document(&doc).unwrap();
    }
    store
}

/// The paper's §4 queries over the article schema (Q1–Q5 and Q3's sugar).
const ARTICLE_QUERIES: &[&str] = &[
    "select tuple (t: a.title, f_author: first(a.authors)) \
     from a in Articles, s in a.sections \
     where s.title contains (\"SGML\" and \"OODBMS\")",
    "select ss from a in Articles, s in a.sections, ss in s.subsectns \
     where text(ss) contains (\"complex object\")",
    "select t from my_article PATH_p.title(t)",
    "select t from my_article .. title(t)",
    "my_article PATH_p - my_old_article PATH_p",
    "select name(ATT_a) from my_article PATH_p.ATT_a(val) \
     where val contains (\"final\")",
];

/// Q6 runs over the letter DTD.
const LETTER_QUERY: &str = "select letter from letter in Letters, \
     i in positions(letter.preamble, \"from\"), \
     j in positions(letter.preamble, \"to\") \
     where i < j";

/// One query, four ways: uninstrumented, metrics enabled, profiled, and
/// profiled-with-metrics — every rendering must be byte-identical to the
/// first. Leaves the store uninstrumented.
fn assert_inert(store: &DocStore, q: &str) {
    store.set_metrics_enabled(false);
    let plain = store
        .query_algebraic(q)
        .map(|r| r.to_table())
        .map_err(|e| e.to_string());
    let plain_interp = store
        .query(q)
        .map(|r| r.to_table())
        .map_err(|e| e.to_string());
    store.set_metrics_enabled(true);
    let metered = store
        .query_algebraic(q)
        .map(|r| r.to_table())
        .map_err(|e| e.to_string());
    let metered_interp = store
        .query(q)
        .map(|r| r.to_table())
        .map_err(|e| e.to_string());
    let profiled = store.profile(q, &QueryLimits::none());
    store.set_metrics_enabled(false);
    let profiled_cold = store.profile(q, &QueryLimits::none());
    assert_eq!(plain, metered, "metrics changed algebraic result: {q}");
    assert_eq!(
        plain_interp, metered_interp,
        "metrics changed interpreter result: {q}"
    );
    // Non-algebraizable queries make `profile` fall back to the
    // interpreter (with a note); compare against whichever executor ran.
    for (label, p) in [("warm", &profiled), ("cold", &profiled_cold)] {
        match p {
            Ok(p) => {
                let got = Ok(p.result.to_table());
                let reference = if p.note.is_some() {
                    &plain_interp
                } else {
                    &plain
                };
                assert_eq!(reference, &got, "{label} profiling changed result: {q}");
            }
            Err(e) => {
                let got: Result<String, String> = Err(e.to_string());
                assert_eq!(plain_interp, got, "{label} profiling changed error: {q}");
            }
        }
    }
}

#[test]
fn q1_to_q5_unchanged_by_instrumentation() {
    let store = article_store(6);
    for q in ARTICLE_QUERIES {
        assert_inert(&store, q);
    }
    let r = store
        .query_algebraic("select t from my_article PATH_p.title(t)")
        .unwrap();
    assert!(!r.is_empty(), "agreement must not be vacuous");
}

#[test]
fn q6_letters_unchanged_by_instrumentation() {
    let store = letter_store(10);
    assert_inert(&store, LETTER_QUERY);
}

/// A random restricted-path query over the article schema's vocabulary —
/// valid and dead-end steps both included (mirrors the path-index suite).
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
fn randomized_queries_unchanged_by_instrumentation() {
    let store = article_store(3);
    check(
        "randomized_queries_unchanged_by_instrumentation",
        64,
        &arb_path_query(),
        |q| {
            store.set_metrics_enabled(false);
            let plain = store
                .query_algebraic(q)
                .map(|r| r.to_table())
                .map_err(|e| e.to_string());
            let plain_interp = store
                .query(q)
                .map(|r| r.to_table())
                .map_err(|e| e.to_string());
            store.set_metrics_enabled(true);
            let metered = store
                .query_algebraic(q)
                .map(|r| r.to_table())
                .map_err(|e| e.to_string());
            let profiled = store.profile(q, &QueryLimits::none());
            store.set_metrics_enabled(false);
            prop_assert_eq!(&plain, &metered, "metrics changed result of: {q}");
            // Non-algebraizable queries make `profile` fall back to the
            // interpreter (with a note), so the reference depends on which
            // executor actually ran.
            match &profiled {
                Ok(p) => {
                    let got = Ok(p.result.to_table());
                    let reference = if p.note.is_some() {
                        &plain_interp
                    } else {
                        &plain
                    };
                    prop_assert_eq!(reference, &got, "profiling changed result of: {q}");
                }
                Err(e) => {
                    let got: Result<String, String> = Err(e.to_string());
                    prop_assert_eq!(&plain_interp, &got, "profiling changed error of: {q}");
                }
            }
            Ok(())
        },
    );
}

#[test]
fn per_operator_rows_are_consistent_with_result_cardinality() {
    let store = article_store(6);
    let mut profiled_plans = 0usize;
    for q in ARTICLE_QUERIES {
        let profile = match store.profile(q, &QueryLimits::none()) {
            Ok(p) => p,
            Err(_) => continue,
        };
        if profile.plans.is_empty() {
            continue; // interpreter fallback carries no operator statistics
        }
        // The result is the head projection + set-dedup of the union of
        // plan outputs: no plan's root can emit fewer rows than it
        // contributes, and the deduped result can never exceed the sum of
        // the roots.
        let root_sum: u64 = profile.plans.iter().map(|(_, p)| p.rows(0)).sum();
        assert!(
            profile.result.rows.len() as u64 <= root_sum,
            "{q}: {} result rows out of {} root rows",
            profile.result.rows.len(),
            root_sum
        );
        for (a, p) in &profile.plans {
            profiled_plans += 1;
            assert!(p.calls(0) >= 1, "{q}: root operator never executed");
            assert_eq!(
                p.len(),
                a.plan.size(),
                "{q}: profile arity diverges from plan size"
            );
            // Rendered report mentions every operator annotation.
            let rendered = p.render(&a.plan);
            assert!(
                rendered.contains("calls="),
                "{q}: no annotations\n{rendered}"
            );
        }
    }
    assert!(profiled_plans >= 4, "most Q-suite queries algebraize");
}

#[test]
fn explain_analyze_reports_index_hits_and_walk_fallbacks() {
    let mut store = article_store(4);
    let q = "select t from Articles PATH_p.title(t)";

    store.set_path_extents_enabled(true);
    let with_index = store.profile(q, &QueryLimits::none()).unwrap();
    let (hits, _) = with_index.scan_totals();
    assert!(hits > 0, "extent index attached, expected index hits");
    let report = with_index.render();
    assert!(
        report.contains("answered from the path-extent index"),
        "{report}"
    );

    store.set_path_extents_enabled(false);
    let walked = store.profile(q, &QueryLimits::none()).unwrap();
    let (hits, walks) = walked.scan_totals();
    assert_eq!(hits, 0, "extent index detached, no hits possible");
    assert!(walks > 0, "every start value must fall back to walking");
    assert_eq!(
        with_index.result.to_table(),
        walked.result.to_table(),
        "hit/walk accounting must not change results"
    );
}

#[test]
fn plan_cache_reset_clears_counters_and_registry_export() {
    let store = article_store(2);
    store.set_metrics_enabled(true);
    let q = "select t from Articles PATH_p.title(t)";
    store.query(q).unwrap();
    store.query(q).unwrap();
    let stats = store.plan_cache_stats();
    assert!(stats.hits >= 1 && stats.misses >= 1 && stats.entries == 1);

    store.plan_cache().reset();
    let stats = store.plan_cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    let snap = store.metrics_registry().snapshot();
    assert_eq!(snap.counter("docql_plan_cache_hits_total"), Some(0));
    assert_eq!(snap.counter("docql_plan_cache_misses_total"), Some(0));
    assert_eq!(snap.gauge("docql_plan_cache_entries"), Some(0));
}

#[test]
fn shared_store_serves_profiles_and_slow_log_counter() {
    let shared = docql_store::SharedStore::new(article_store(2));
    shared.set_metrics_enabled(true);
    shared.set_tracing_enabled(true);
    shared
        .read()
        .flight_recorder()
        .set_slow_cutoff(std::time::Duration::ZERO);
    let q = "select t from Articles PATH_p.title(t)";
    let direct = shared.query_algebraic(q).unwrap();
    let report = shared
        .read()
        .profile(q, &QueryLimits::none())
        .unwrap()
        .render();
    assert!(report.starts_with("EXPLAIN ANALYZE"), "{report}");
    let profile = shared.read().profile(q, &QueryLimits::none()).unwrap();
    assert_eq!(profile.result.to_table(), direct.to_table());
    assert!(
        shared.read().metrics().slow_queries.get() >= 1,
        "zero cutoff counts every query as slow"
    );
    assert!(shared
        .read()
        .metrics_registry()
        .to_prometheus()
        .contains("docql_queries_total"));
    assert!(shared.read().metrics_registry().to_json().starts_with('{'));
    let snap = shared.read().metrics_registry().snapshot();
    assert!(snap.counter("docql_queries_total").unwrap() >= 1);
}

#[test]
fn text_search_counters_split_index_from_scan() {
    let store = article_store(4);
    store.set_metrics_enabled(true);
    let expr = docql_text::ContainsExpr::all_of(["SGML"]).unwrap();
    let a = store.find_documents(&expr);
    let b = store.find_documents_scan(&expr);
    assert_eq!(a, b);
    let snap = store.metrics_registry().snapshot();
    assert_eq!(
        snap.counter("docql_store_text_index_searches_total"),
        Some(1)
    );
    assert_eq!(
        snap.counter("docql_store_text_scan_searches_total"),
        Some(1)
    );
    // The index-backed path consulted the inverted index at least once.
    assert!(snap.counter("docql_text_index_queries_total").unwrap() >= 1);
}
