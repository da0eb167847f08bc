//! B11 — execution-governance overhead on the B6 query workload.
//!
//! Two variants per query: `ungoverned` is the plain serving path (no
//! guard attached — the production default when no limits are set), and
//! `governed` attaches a guard with ample limits (deadline, row budget and
//! path fuel all far above what the query needs), so every guard check
//! runs but none ever trips. The governed column is the ≤ 5 % acceptance
//! gate against the ungoverned baseline: what admission to the governance
//! layer costs when it never intervenes. The gate is judged on the
//! interleaved measurement printed after the table.

use docql::prelude::*;
use docql_bench::harness::{interleaved, overhead_pct, BenchmarkId, Criterion};
use docql_bench::{
    article_store, criterion_group, criterion_main, overhead_iters, OVERHEAD_QUERIES,
};
use std::hint::black_box;
use std::time::Duration;

fn bench_guard_overhead(c: &mut Criterion) {
    let mut store = article_store(10, 5);
    store.bind("my_article", store.documents()[0]).unwrap();

    // Ample limits: every guard check runs, none ever trips.
    let ample = QueryLimits::none()
        .with_deadline(Duration::from_secs(3600))
        .with_row_budget(u64::MAX / 2)
        .with_path_fuel(u64::MAX / 2);
    let ungoverned = |q: &str| store.query_algebraic(q).unwrap().len();
    let governed = |q: &str| {
        store
            .query_traced(q, Mode::Algebraic, &ample)
            .0
            .unwrap()
            .len()
    };

    let mut group = c.benchmark_group("B11_guard_overhead");
    group.sample_size(20);
    for (name, q) in OVERHEAD_QUERIES {
        group.bench_function(BenchmarkId::new(name, "ungoverned"), |b| {
            b.iter(|| black_box(ungoverned(black_box(q))))
        });
        group.bench_function(BenchmarkId::new(name, "governed"), |b| {
            b.iter(|| black_box(governed(black_box(q))))
        });
    }
    group.finish();

    for (name, q) in OVERHEAD_QUERIES {
        let (plain, gov) = interleaved(|| ungoverned(q), || governed(q), overhead_iters(name));
        println!(
            "B11 interleaved: {name} — ungoverned {plain:?}, governed {gov:?}, overhead {:+.1}%",
            overhead_pct(plain, gov)
        );
    }
}

criterion_group!(benches, bench_guard_overhead);
criterion_main!(benches);
