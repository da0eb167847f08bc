//! The default engine's cost over a bare path walk: the cached calculus
//! interpreter should spend its time walking, not keeping books.
//!
//! `select t from my_article PATH_p.title(t)` (Q3) expands `PATH_p` over
//! every `(path, value)` pair under `my_article` and keeps the pairs with
//! a `title`. This times Q3 through `DocStore::query` (plan cached, so only
//! evaluation runs) against a bare `visit_paths` walk of the same article
//! making the same `.title` test, A/B-interleaved over 2000 rounds in one
//! process. Each round times one call of each side back to back, so both
//! see the same host speed; the ratio is the median of the rounds' ratios,
//! which a speed change or a preempted call in some rounds does not move.
//!
//! A second case times a path-valued answer, `my_article PATH_p`, against
//! the same bare walk cloning each visited path once: what the answer
//! costs beyond the walk is building and deduplicating its rows.
//!
//! Prints each side's best time and the median ratio of each case;
//! `ci.sh` fails when Q3's interpreter / walk exceeds 2.0, or the path
//! answer's exceeds its bound.
//!
//! Run: `cargo run --release -p docql-bench --example walk_cost`

use docql::model::sym;
use docql::paths::{attr_select, visit_paths, EnumOptions};
use docql_bench::harness::fmt_duration;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Interleaved A/B rounds.
const ITERS: u64 = 2000;

const Q3: &str = "select t from my_article PATH_p.title(t)";
const PATHS: &str = "my_article PATH_p";

fn main() {
    let mut store = docql_bench::article_store(20, 5);
    store
        .bind("my_article", store.documents()[0])
        .expect("bind my_article");
    let start = store
        .instance()
        .root(sym("my_article"))
        .expect("my_article is bound")
        .clone();
    let title = sym("title");
    let opts = EnumOptions::default();
    let walk = || {
        let mut titles = 0usize;
        visit_paths(store.instance(), &start, &opts, &mut |_, v| {
            titles += usize::from(attr_select(v, title).is_some());
            true
        });
        titles
    };
    let (rows, titles) = (store.query(Q3).expect("Q3").len(), walk());
    let (interp, bare, ratio) = paired(|| store.query(Q3).map(|r| r.len()), walk);
    println!(
        "walk_cost interpreter q3={} rows={rows}",
        fmt_duration(interp)
    );
    println!("walk_cost bare walk={} titles={titles}", fmt_duration(bare));
    println!("walk_cost ratio={ratio:.2}");

    let clone_paths = || {
        let mut paths = Vec::new();
        visit_paths(store.instance(), &start, &opts, &mut |p, _| {
            paths.push(p.clone());
            true
        });
        paths.len()
    };
    let (rows, pairs) = (store.query(PATHS).expect("paths").len(), clone_paths());
    let (interp, bare, ratio) = paired(|| store.query(PATHS).map(|r| r.len()), clone_paths);
    println!(
        "walk_cost interpreter paths={} rows={rows}",
        fmt_duration(interp)
    );
    println!(
        "walk_cost bare walk+clone={} pairs={pairs}",
        fmt_duration(bare)
    );
    println!("walk_cost paths_ratio={ratio:.2}");
}

/// Each side's best time per call and the median over `ITERS` rounds of
/// `a`'s time over `b`'s, both timed back to back in each round. Both
/// sides are warmed first.
fn paired<RA, RB>(
    mut a: impl FnMut() -> RA,
    mut b: impl FnMut() -> RB,
) -> (Duration, Duration, f64) {
    for _ in 0..3 {
        black_box(a());
        black_box(b());
    }
    let (mut best_a, mut best_b) = (Duration::MAX, Duration::MAX);
    let mut ratios = Vec::with_capacity(ITERS as usize);
    for _ in 0..ITERS {
        let t = Instant::now();
        black_box(a());
        let ta = t.elapsed();
        let t = Instant::now();
        black_box(b());
        let tb = t.elapsed();
        (best_a, best_b) = (best_a.min(ta), best_b.min(tb));
        ratios.push(ta.as_secs_f64() / tb.as_secs_f64().max(1e-12));
    }
    ratios.sort_by(f64::total_cmp);
    (best_a, best_b, ratios[ratios.len() / 2])
}
