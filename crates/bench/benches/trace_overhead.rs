//! B15 — observability overhead on the cached B6 query workload (B10's
//! metrics columns included: both time trace construction on one suite).
//!
//! Five variants per query: `disabled` is the production default (metrics
//! registry and flight recorder off — the only cost on the query path is a
//! handful of relaxed atomic loads), `metrics` traces each query to feed
//! the lifecycle histograms and algebra counters, `traced` records a full
//! structured trace per query into the recorder's rings, `sink`
//! additionally renders and writes one JSON line per query, and `profiled`
//! runs `EXPLAIN ANALYZE` (an uncached plan with per-operator timing,
//! always algebraic). The first four run on the default path (`interp`:
//! `query()`, the cached interpreter the server runs) and on the cached
//! algebra (`algebraic`: `query_algebraic()`). The disabled column is the
//! ≈ 0 acceptance gate against B6. After the table, the `B10 interleaved`
//! lines document what turning metrics on costs, and the `B15
//! interleaved` lines gate tracing at ≤ 5 % on the suite total.

use docql::store::DocStore;
use docql_bench::harness::{interleaved, overhead_pct, BenchmarkId, Criterion};
use docql_bench::{
    article_store, criterion_group, criterion_main, overhead_iters, CACHED_PATHS, OVERHEAD_QUERIES,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Switch the two observability consumers.
fn observe(store: &DocStore, metrics: bool, tracing: bool) {
    store.set_metrics_enabled(metrics);
    store.set_tracing_enabled(tracing);
}

fn bench_trace_overhead(c: &mut Criterion) {
    let mut store = article_store(10, 5);
    store.bind("my_article", store.documents()[0]).unwrap();
    // Nothing in this workload should hit the slow reservoir.
    store
        .flight_recorder()
        .set_slow_cutoff(Duration::from_secs(3600));
    let none = docql::guard::QueryLimits::none();

    let mut group = c.benchmark_group("B15_trace_overhead");
    group.sample_size(20);
    for (name, q) in OVERHEAD_QUERIES {
        for (path, run) in CACHED_PATHS {
            for (column, metrics, tracing) in [
                ("disabled", false, false),
                ("metrics", true, false),
                ("traced", false, true),
            ] {
                observe(&store, metrics, tracing);
                group.bench_function(BenchmarkId::new(name, format!("{path}/{column}")), |b| {
                    b.iter(|| black_box(run(&store, black_box(q))))
                });
            }
            // JSON-lines emission on top (the discard sink isolates
            // rendering and writing from disk variance as far as the OS
            // allows).
            if let Ok(sink) = docql::obs::TraceSink::file("/dev/null") {
                store.flight_recorder().set_sink(Some(Arc::new(sink)));
                group.bench_function(BenchmarkId::new(name, format!("{path}/sink")), |b| {
                    b.iter(|| black_box(run(&store, black_box(q))))
                });
                store.flight_recorder().set_sink(None);
            }
            observe(&store, false, false);
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
    }
    group.finish();

    // Each consumer off vs on, A/B-interleaved, toggling it inside each
    // side (one relaxed store). Tracing costs a few µs fixed per query; on
    // a cached point lookup that is a visible percentage, on the rest of
    // the suite it vanishes — so the ≤ 5 % gate is judged on the workload
    // total.
    for (tag, metrics, tracing, off_label, on_label) in [
        ("B10", true, false, "disabled", "enabled"),
        ("B15", false, true, "untraced", "traced"),
    ] {
        for (path, run) in CACHED_PATHS {
            let (mut sum_off, mut sum_on) = (Duration::ZERO, Duration::ZERO);
            for (name, q) in OVERHEAD_QUERIES {
                let (off, on) = interleaved(
                    || {
                        observe(&store, false, false);
                        run(&store, q)
                    },
                    || {
                        observe(&store, metrics, tracing);
                        run(&store, q)
                    },
                    overhead_iters(name),
                );
                observe(&store, false, false);
                sum_off += off;
                sum_on += on;
                println!(
                    "{tag} interleaved: {name} {path} — {off_label} {off:?}, {on_label} {on:?}, overhead {:+.1}%",
                    overhead_pct(off, on)
                );
            }
            println!(
                "{tag} interleaved: suite total {path} — {on_label} {:+.1}% vs {off_label}",
                overhead_pct(sum_off, sum_on)
            );
        }
    }
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
