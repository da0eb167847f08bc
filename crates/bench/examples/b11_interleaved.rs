//! B11 (precise variant) — guard overhead measured A/B-interleaved.
//!
//! The criterion-style `guard_overhead` bench runs its variants
//! sequentially, so slow CPU-frequency drift between the `ungoverned` and
//! `governed` passes can dwarf the few-percent effect being measured. This
//! example interleaves the two variants pair-wise inside one loop and
//! compares best-of-run times, cancelling the drift; it is the measurement
//! EXPERIMENTS.md §B11 records against the ≤ 5 % acceptance gate.
//!
//! Run: `cargo run --release -p docql-bench --example b11_interleaved`

use docql::prelude::*;
use std::time::{Duration, Instant};

fn main() {
    let mut store = docql_bench::article_store(10, 5);
    store.bind("my_article", store.documents()[0]).unwrap();
    // Ample limits: every guard check runs, none ever trips.
    let ample = QueryLimits::none()
        .with_deadline(Duration::from_secs(3600))
        .with_row_budget(u64::MAX / 2)
        .with_path_fuel(u64::MAX / 2);
    let queries = [
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
    for (name, q) in queries {
        for _ in 0..3 {
            store.query_algebraic(q).unwrap();
            store.query_traced(q, Mode::Algebraic, &ample).0.unwrap();
        }
        let (mut best_u, mut best_g) = (Duration::MAX, Duration::MAX);
        let iters = if name == "Q5" { 200 } else { 2000 };
        for _ in 0..iters {
            let t = Instant::now();
            std::hint::black_box(store.query_algebraic(q).unwrap().len());
            best_u = best_u.min(t.elapsed());
            let t = Instant::now();
            std::hint::black_box(
                store
                    .query_traced(q, Mode::Algebraic, &ample)
                    .0
                    .unwrap()
                    .len(),
            );
            best_g = best_g.min(t.elapsed());
        }
        let pct = (best_g.as_secs_f64() / best_u.as_secs_f64() - 1.0) * 100.0;
        println!("{name}: ungoverned {best_u:?}  governed {best_g:?}  overhead {pct:+.1}%");
    }
}
