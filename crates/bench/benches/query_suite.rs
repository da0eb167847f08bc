//! B6 — end-to-end latency of the paper's queries Q1–Q6 on the standard
//! corpus (the per-query row of EXPERIMENTS.md).
//!
//! Each query runs in four variants: `interp` is the seed's uncached
//! interpreter path, `interp_cached` is the default serving path
//! (`query()`: the interpreter behind the plan cache, which is what the
//! server runs), `uncached` re-parses, re-typechecks and re-algebraizes on
//! every execution, and `cached` goes through the store's bounded plan
//! cache so repeated algebraic runs skip straight to plan evaluation. The
//! cached/uncached gap is widest on the PATH_/ATT_ queries, whose §5.4
//! algebraization dwarfs evaluation.

use docql::o2sql::Mode;
use docql_bench::harness::{BenchmarkId, Criterion};
use docql_bench::{article_store, letter_store};
use docql_bench::{criterion_group, criterion_main};
use docql_corpus::{generate_article, mutate, ArticleParams, Mutation};
use std::hint::black_box;

fn bench_suite(c: &mut Criterion) {
    let mut store = article_store(10, 5);
    store.bind("my_article", store.documents()[0]).unwrap();
    // A second version for Q4.
    let old = generate_article(&ArticleParams {
        seed: 0,
        sections: 5,
        subsections: 2,
        plant_every: 3,
        ..ArticleParams::default()
    });
    let new = mutate(&old, &Mutation::AddSection("Delta".to_string()));
    let new_root = store.ingest_document(&new).unwrap();
    store.bind("my_old_article", store.documents()[0]).unwrap();
    store.bind("my_article", new_root).unwrap();

    let letters = letter_store(20);

    let mut group = c.benchmark_group("B6_query_suite");
    group.sample_size(20);
    let article_queries: &[(&str, &str)] = &[
        (
            "Q1",
            "select tuple (t: a.title, f_author: first(a.authors)) \
             from a in Articles, s in a.sections \
             where s.title contains (\"SGML\" and \"OODBMS\")",
        ),
        (
            "Q2",
            "select ss from a in Articles, s in a.sections, ss in s.subsectns \
             where text(ss) contains (\"complex object\")",
        ),
        ("Q3", "select t from my_article PATH_p.title(t)"),
        ("Q4", "my_article PATH_p - my_old_article PATH_p"),
        (
            "Q5",
            "select name(ATT_a) from my_article PATH_p.ATT_a(val) \
             where val contains (\"draft\")",
        ),
    ];
    let mut algebraic = store.engine();
    algebraic.mode = Mode::Algebraic;
    for (name, q) in article_queries {
        group.bench_function(BenchmarkId::new(name, "interp"), |b| {
            b.iter(|| black_box(store.engine().run(black_box(q)).unwrap().len()))
        });
        group.bench_function(BenchmarkId::new(name, "interp_cached"), |b| {
            b.iter(|| black_box(store.query(black_box(q)).unwrap().len()))
        });
        group.bench_function(BenchmarkId::new(name, "uncached"), |b| {
            b.iter(|| black_box(algebraic.run(black_box(q)).unwrap().len()))
        });
        group.bench_function(BenchmarkId::new(name, "cached"), |b| {
            b.iter(|| black_box(store.query_algebraic(black_box(q)).unwrap().len()))
        });
    }
    let q6 = "select letter from letter in Letters, \
              i in positions(letter.preamble, \"from\"), \
              j in positions(letter.preamble, \"to\") \
              where i < j";
    group.bench_function(BenchmarkId::new("Q6", "interp"), |b| {
        b.iter(|| black_box(letters.engine().run(black_box(q6)).unwrap().len()))
    });
    group.bench_function(BenchmarkId::new("Q6", "interp_cached"), |b| {
        b.iter(|| black_box(letters.query(black_box(q6)).unwrap().len()))
    });
    let mut algebraic = letters.engine();
    algebraic.mode = Mode::Algebraic;
    group.bench_function(BenchmarkId::new("Q6", "uncached"), |b| {
        b.iter(|| black_box(algebraic.run(black_box(q6)).unwrap().len()))
    });
    group.bench_function(BenchmarkId::new("Q6", "cached"), |b| {
        b.iter(|| black_box(letters.query_algebraic(black_box(q6)).unwrap().len()))
    });
    group.finish();

    // Headline plan-cache wins, and the algebra against the default path,
    // on best-of-run times (minimum is the robust estimator under
    // one-sided scheduler noise).
    for q in ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"] {
        let best = |variant: &str| {
            c.samples
                .iter()
                .find(|s| s.name == format!("B6_query_suite/{q}/{variant}"))
                .map(|s| s.best)
        };
        if let (Some(unc), Some(cached)) = (best("uncached"), best("cached")) {
            println!(
                "B6 summary: {q} — cached {:.2}x vs uncached (best {:?} vs {:?})",
                unc.as_secs_f64() / cached.as_secs_f64().max(1e-12),
                cached,
                unc,
            );
        }
        if let (Some(interp), Some(cached)) = (best("interp_cached"), best("cached")) {
            println!(
                "B6 summary: {q} — cached algebra {:.2}x vs cached interpreter (best {:?} vs {:?})",
                interp.as_secs_f64() / cached.as_secs_f64().max(1e-12),
                cached,
                interp,
            );
        }
    }
}

criterion_group!(benches, bench_suite);
criterion_main!(benches);
