//! B8 — ingest throughput: `ingest` per document (one `DocParser` per
//! call) versus one `ingest_batch` over the same texts (one `DocParser`
//! for the whole batch).
//!
//! Both run the same per-document loader — load, text index, path
//! extents — on one thread; the batch differs only in parsing every text
//! before loading any and in skipping the per-call parser construction,
//! which costs a few microseconds against tens per parsed article.

use docql::prelude::*;
use docql_bench::harness::{BenchmarkId, Criterion};
use docql_bench::{criterion_group, criterion_main};
use docql_corpus::{generate_article, ArticleParams};
use std::hint::black_box;

fn corpus_texts(n_docs: usize, sections: usize) -> Vec<String> {
    (0..n_docs as u64)
        .map(|seed| {
            generate_article(&ArticleParams {
                seed,
                sections,
                subsections: 2,
                plant_every: if seed % 2 == 0 { 3 } else { 0 },
                ..ArticleParams::default()
            })
            .to_sgml()
        })
        .collect()
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("B8_ingest_throughput");
    group.sample_size(10);
    for &n_docs in &[16usize, 48] {
        let texts = corpus_texts(n_docs, 3);
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();

        group.bench_with_input(BenchmarkId::new("serial", n_docs), &refs, |b, refs| {
            b.iter(|| {
                let mut store = DocStore::new(docql::fixtures::ARTICLE_DTD, &[]).unwrap();
                for text in refs.iter() {
                    black_box(store.ingest(black_box(text)).unwrap());
                }
                black_box(store.documents().len())
            })
        });
        group.bench_with_input(BenchmarkId::new("batch", n_docs), &refs, |b, refs| {
            b.iter(|| {
                let mut store = DocStore::new(docql::fixtures::ARTICLE_DTD, &[]).unwrap();
                black_box(store.ingest_batch(black_box(refs)).unwrap());
                black_box(store.documents().len())
            })
        });
    }
    group.finish();

    // Headline comparison on best-of-run times (minimum is the robust
    // estimator under one-sided scheduler noise).
    for &n_docs in &[16usize, 48] {
        let best = |variant: &str| {
            c.samples
                .iter()
                .find(|s| s.name == format!("B8_ingest_throughput/{variant}/{n_docs}"))
                .map(|s| s.best)
        };
        if let (Some(serial), Some(batch)) = (best("serial"), best("batch")) {
            println!(
                "B8 summary: {n_docs} docs — batch {:.2}x vs serial (best {:?} vs {:?})",
                serial.as_secs_f64() / batch.as_secs_f64().max(1e-12),
                batch,
                serial,
            );
        }
    }
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
