//! B11 — execution-governance overhead on the B6 query workload.
//!
//! Two variants per query: `ungoverned` is the plain serving path (no
//! guard attached — the production default when no limits are set), and
//! `governed` attaches a guard with ample limits (deadline, row budget and
//! path fuel all far above what the query needs), so every guard check
//! runs but none ever trips. The governed column is the ≤ 5 % acceptance
//! gate against the ungoverned baseline: what admission to the governance
//! layer costs when it never intervenes.

use docql::prelude::*;
use docql_bench::harness::{BenchmarkId, Criterion};
use docql_bench::{article_store, criterion_group, criterion_main};
use std::hint::black_box;
use std::time::Duration;

fn bench_guard_overhead(c: &mut Criterion) {
    let mut store = article_store(10, 5);
    store.bind("my_article", store.documents()[0]).unwrap();

    let queries: &[(&str, &str)] = &[
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

    let ample = QueryLimits::none()
        .with_deadline(Duration::from_secs(3600))
        .with_row_budget(u64::MAX / 2)
        .with_path_fuel(u64::MAX / 2);

    let mut group = c.benchmark_group("B11_guard_overhead");
    group.sample_size(20);
    for (name, q) in queries {
        group.bench_function(BenchmarkId::new(name, "ungoverned"), |b| {
            b.iter(|| black_box(store.query_algebraic(black_box(q)).unwrap().len()))
        });
        group.bench_function(BenchmarkId::new(name, "governed"), |b| {
            b.iter(|| {
                black_box(
                    store
                        .query_traced(black_box(q), Mode::Algebraic, &ample)
                        .0
                        .unwrap()
                        .len(),
                )
            })
        });
    }
    group.finish();

    // Overhead summary on best-of-run times (minimum is the robust
    // estimator under one-sided scheduler noise).
    for (name, _) in queries {
        let best = |variant: &str| {
            c.samples
                .iter()
                .find(|s| s.name == format!("B11_guard_overhead/{name}/{variant}"))
                .map(|s| s.best)
        };
        if let (Some(plain), Some(gov)) = (best("ungoverned"), best("governed")) {
            let pct = (gov.as_secs_f64() / plain.as_secs_f64().max(1e-12) - 1.0) * 100.0;
            println!("B11 summary: {name} — governed {pct:+.1}% vs ungoverned ({plain:?})");
        }
    }
}

criterion_group!(benches, bench_guard_overhead);
criterion_main!(benches);
