//! Allocation regression check for the default engine: the cached
//! calculus interpreter binds variables in place, so the allocations one
//! query makes follow the rows it answers, not the pairs its path
//! variables visit or the rows its conjuncts pass along. A copy of the
//! binding environment per visited pair, or per row a generator yields,
//! would show here as a count that grows with the input.
//!
//! The allocator counts per thread, so tests running on other threads
//! cannot change the count.

use docql_corpus::{generate_article, ArticleParams};
use docql_store::DocStore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only a const-initialised
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const Q1: &str = "select tuple (t: a.title, f_author: first(a.authors)) \
                  from a in Articles, s in a.sections \
                  where s.title contains (\"SGML\" and \"OODBMS\")";
const Q3: &str = "select t from my_article PATH_p.title(t)";
const Q5: &str = "select name(ATT_a) from my_article PATH_p.ATT_a(val) \
                  where val contains (\"draft\")";

/// `articles` generated five-section articles, plus one with
/// `my_sections` sections bound to `my_article`.
fn store(articles: u64, my_sections: usize) -> DocStore {
    let mut store =
        DocStore::new(docql_sgml::fixtures::ARTICLE_DTD, &["my_article"]).expect("article store");
    for seed in 0..articles {
        let doc = generate_article(&ArticleParams {
            seed,
            sections: 5,
            plant_every: if seed % 2 == 0 { 3 } else { 0 },
            ..ArticleParams::default()
        });
        store.ingest_document(&doc).expect("ingest");
    }
    let mine = generate_article(&ArticleParams {
        seed: 1_000,
        sections: my_sections,
        ..ArticleParams::default()
    });
    let oid = store.ingest_document(&mine).expect("ingest my_article");
    store.bind("my_article", oid).expect("bind");
    store
}

/// Allocations made by one cached run of `q`, and its row count. The
/// first run compiles and caches the plan; the second is counted.
fn query_allocations(store: &DocStore, q: &str) -> (usize, usize) {
    let rows = store.query(q).expect("query").len();
    let before = ALLOCS.with(Cell::get);
    let again = store.query(q).expect("query").len();
    assert_eq!(rows, again);
    (ALLOCS.with(Cell::get) - before, rows)
}

#[test]
fn cached_interpreter_allocations_follow_answer_rows() {
    let pairs = |store: &DocStore| store.query("my_article PATH_p").expect("paths").len();
    let (small_store, large_store) = (store(2, 5), store(2, 20));
    let (small, small_rows) = query_allocations(&small_store, Q3);
    let (large, large_rows) = query_allocations(&large_store, Q3);
    let extra_rows = large_rows - small_rows;
    let extra_pairs = pairs(&large_store) - pairs(&small_store);
    // A few allocations build each answer row (its value, the head row and
    // its copy in the duplicate filter); the visited pairs, four times as
    // many as the extra rows here, must cost none.
    assert!(
        extra_pairs > 4 * extra_rows,
        "the larger article must visit many more pairs than it answers \
         ({extra_pairs} more pairs, {extra_rows} more rows)"
    );
    assert!(
        large - small <= 4 * extra_rows,
        "Q3 allocations grew faster than its rows: {small} for {small_rows} rows at 5 \
         sections, {large} for {large_rows} rows at 20"
    );
}

#[test]
fn q1_allocations_per_section_stay_small() {
    let corpus = store(40, 5);
    let sections = corpus
        .query("select s from a in Articles, s in a.sections")
        .expect("sections")
        .len();
    let (q1, _) = query_allocations(&corpus, Q1);
    assert!(
        q1 <= 30 * sections,
        "Q1 made {q1} allocations for {sections} sections (at most 30 each)"
    );
}

/// Allocations made by one cached run of `q` and the `contains`
/// evaluations it makes, counted by the store's metrics in a separate run
/// so that recording them costs the counted run nothing.
fn contains_allocations(store: &DocStore, q: &str) -> (usize, u64) {
    let (allocs, _) = query_allocations(store, q);
    store.set_metrics_enabled(true);
    let before = store.metrics().contains_evals.get();
    store.query(q).expect("query");
    let evals = store.metrics().contains_evals.get() - before;
    store.set_metrics_enabled(false);
    (allocs, evals)
}

#[test]
fn constant_contains_patterns_compile_once_per_plan() {
    // A `contains` atom's constant pattern is compiled with the cached
    // plan; parsing and compiling it on every evaluation costs at least 9
    // allocations each. Q5 evaluates `contains` on every attribute value
    // its walk reaches, Q1 on every section title.
    let corpus = store(40, 5);
    for (name, q) in [("Q1", Q1), ("Q5", Q5)] {
        let (allocs, evals) = contains_allocations(&corpus, q);
        eprintln!("{name}: {allocs} allocations, {evals} contains evaluations");
        assert!(evals > 0, "{name} evaluates contains");
        assert!(
            allocs as u64 <= 4 * evals,
            "{name} made {allocs} allocations for {evals} contains evaluations (at most 4 each)"
        );
    }
}
