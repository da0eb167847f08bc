//! B10 — instrumentation overhead on the B6 query workload.
//!
//! Three variants per query: `disabled` is the production default (metrics
//! registry off — the only cost on the query path is a handful of relaxed
//! atomic loads), `enabled` records the lifecycle histograms and algebra
//! counters, and `profiled` runs the full `EXPLAIN ANALYZE` machinery with
//! per-operator timing. The disabled column is the ≤ 3 % acceptance gate
//! against B6; the other two document what turning observability on costs.

use docql_bench::harness::{BenchmarkId, Criterion};
use docql_bench::{article_store, criterion_group, criterion_main};
use std::hint::black_box;

fn bench_obs_overhead(c: &mut Criterion) {
    let mut store = article_store(10, 5);
    store.bind("my_article", store.documents()[0]).unwrap();
    let none = docql::guard::QueryLimits::none();

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

    let mut group = c.benchmark_group("B10_obs_overhead");
    group.sample_size(20);
    for (name, q) in queries {
        store.set_metrics_enabled(false);
        group.bench_function(BenchmarkId::new(name, "disabled"), |b| {
            b.iter(|| black_box(store.query_algebraic(black_box(q)).unwrap().len()))
        });
        store.set_metrics_enabled(true);
        group.bench_function(BenchmarkId::new(name, "enabled"), |b| {
            b.iter(|| black_box(store.query_algebraic(black_box(q)).unwrap().len()))
        });
        group.bench_function(BenchmarkId::new(name, "profiled"), |b| {
            b.iter(|| {
                black_box(
                    store
                        .profile(black_box(q), &none)
                        .unwrap()
                        .result
                        .rows
                        .len(),
                )
            })
        });
        store.set_metrics_enabled(false);
    }
    group.finish();

    // Overhead summary on best-of-run times (minimum is the robust
    // estimator under one-sided scheduler noise).
    for (name, _) in queries {
        let best = |variant: &str| {
            c.samples
                .iter()
                .find(|s| s.name == format!("B10_obs_overhead/{name}/{variant}"))
                .map(|s| s.best)
        };
        if let (Some(dis), Some(ena), Some(pro)) =
            (best("disabled"), best("enabled"), best("profiled"))
        {
            let pct = |v: std::time::Duration| {
                (v.as_secs_f64() / dis.as_secs_f64().max(1e-12) - 1.0) * 100.0
            };
            println!(
                "B10 summary: {name} — enabled {:+.1}% , profiled {:+.1}% vs disabled ({dis:?})",
                pct(ena),
                pct(pro),
            );
        }
    }
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
