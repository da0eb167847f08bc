//! B10 — instrumentation overhead on the B6 query workload.
//!
//! Three variants per query and path: `disabled` is the production default
//! (metrics registry off — the only cost on the query path is a handful of
//! relaxed atomic loads), `enabled` traces each query and feeds the
//! lifecycle histograms and algebra counters from the finished trace, and
//! `profiled` runs `EXPLAIN ANALYZE` (an uncached plan with per-operator
//! timing). Paths are the default one (`interp`: `query()`, the cached
//! interpreter the server runs) and the cached algebra (`algebraic`:
//! `query_algebraic()`); profiling always executes algebraically. The
//! disabled column is the acceptance gate against B6; the interleaved
//! disabled-vs-enabled lines after the table document what turning metrics
//! on costs.

use docql_bench::harness::{interleaved, overhead_pct, BenchmarkId, Criterion};
use docql_bench::{
    article_store, criterion_group, criterion_main, overhead_iters, CACHED_PATHS, OVERHEAD_QUERIES,
};
use std::hint::black_box;

fn bench_obs_overhead(c: &mut Criterion) {
    let mut store = article_store(10, 5);
    store.bind("my_article", store.documents()[0]).unwrap();
    let none = docql::guard::QueryLimits::none();

    let mut group = c.benchmark_group("B10_obs_overhead");
    group.sample_size(20);
    for (name, q) in OVERHEAD_QUERIES {
        for (path, run) in CACHED_PATHS {
            store.set_metrics_enabled(false);
            group.bench_function(BenchmarkId::new(name, format!("{path}/disabled")), |b| {
                b.iter(|| black_box(run(&store, black_box(q))))
            });
            store.set_metrics_enabled(true);
            group.bench_function(BenchmarkId::new(name, format!("{path}/enabled")), |b| {
                b.iter(|| black_box(run(&store, black_box(q))))
            });
        }
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

    // Metrics off vs on, A/B-interleaved (toggling the registry inside
    // each side, one relaxed store).
    for (path, run) in CACHED_PATHS {
        for (name, q) in OVERHEAD_QUERIES {
            let (off, on) = interleaved(
                || {
                    store.set_metrics_enabled(false);
                    run(&store, q)
                },
                || {
                    store.set_metrics_enabled(true);
                    run(&store, q)
                },
                overhead_iters(name),
            );
            store.set_metrics_enabled(false);
            println!(
                "B10 interleaved: {name} {path} — disabled {off:?}, enabled {on:?}, overhead {:+.1}%",
                overhead_pct(off, on)
            );
        }
    }
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
