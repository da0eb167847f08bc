//! B13 — durability: on-disk footprint of a checkpoint segment versus the
//! flat SGML corpus, and cold-start time of snapshot-load recovery
//! ([`SharedStore::reopen`], which restores the object slots from the
//! segment and derives their texts and both indexes from them) versus
//! re-parsing the SGML from scratch.
//!
//! The segment stores the mapped objects only — not their texts or the
//! indexes, which are derived from them — so it costs about the SGML's own
//! bytes, and buys back cold-start latency: recovery skips parsing,
//! validation and mapping, and derives texts and indexes the way ingest
//! does.

use docql::durable::TempDir;
use docql::prelude::*;
use docql_bench::harness::{BenchmarkId, Criterion};
use docql_bench::{criterion_group, criterion_main};
use docql_corpus::{generate_article, ArticleParams};
use std::hint::black_box;

const SIZES: &[usize] = &[10, 100];

fn corpus_texts(n_docs: usize) -> Vec<String> {
    (0..n_docs as u64)
        .map(|seed| {
            generate_article(&ArticleParams {
                seed,
                sections: 4,
                subsections: 2,
                plant_every: if seed % 2 == 0 { 2 } else { 0 },
                ..ArticleParams::default()
            })
            .to_sgml()
        })
        .collect()
}

/// A checkpointed store directory holding the corpus, plus its footprint
/// numbers: (dir, flat SGML bytes, segment bytes).
fn checkpointed_dir(texts: &[String]) -> (TempDir, u64, u64) {
    let dir = TempDir::new("b13-durability").unwrap();
    let (ps, _) =
        SharedStore::open(dir.path(), docql::fixtures::ARTICLE_DTD, &["my_article"]).unwrap();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let roots = ps.ingest_batch(&refs).unwrap();
    ps.bind("my_article", roots[0]).unwrap();
    let report = ps.checkpoint().unwrap();
    let sgml_bytes: u64 = texts.iter().map(|t| t.len() as u64).sum();
    (dir, sgml_bytes, report.bytes)
}

fn bench_durability(c: &mut Criterion) {
    let mut group = c.benchmark_group("B13_durability");
    group.sample_size(10);
    for &n_docs in SIZES {
        let texts = corpus_texts(n_docs);
        let (dir, sgml_bytes, segment_bytes) = checkpointed_dir(&texts);
        println!(
            "B13 footprint: {n_docs} docs — flat SGML {sgml_bytes} B, \
             segment {segment_bytes} B ({:.2}x)",
            segment_bytes as f64 / sgml_bytes as f64
        );

        // Cold start from the snapshot segment: full recovery, no re-parse.
        group.bench_with_input(BenchmarkId::new("snapshot_load", n_docs), &dir, |b, dir| {
            b.iter(|| {
                let (ps, report) = SharedStore::reopen(black_box(dir.path())).unwrap();
                assert_eq!(report.replayed_records, 0);
                black_box(ps.read().documents().len())
            })
        });
        // Cold start by re-ingesting the flat SGML.
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        group.bench_with_input(
            BenchmarkId::new("sgml_reparse", n_docs),
            &refs,
            |b, refs| {
                b.iter(|| {
                    let mut store =
                        DocStore::new(docql::fixtures::ARTICLE_DTD, &["my_article"]).unwrap();
                    black_box(store.ingest_batch(black_box(refs)).unwrap());
                    black_box(store.documents().len())
                })
            },
        );
    }
    group.finish();

    for &n_docs in SIZES {
        let best = |variant: &str| {
            c.samples
                .iter()
                .find(|s| s.name == format!("B13_durability/{variant}/{n_docs}"))
                .map(|s| s.best)
        };
        if let (Some(load), Some(reparse)) = (best("snapshot_load"), best("sgml_reparse")) {
            println!(
                "B13 summary: {n_docs} docs — snapshot load {:.2}x vs re-parse (best {:?} vs {:?})",
                reparse.as_secs_f64() / load.as_secs_f64().max(1e-12),
                load,
                reparse,
            );
        }
    }
}

criterion_group!(benches, bench_durability);
criterion_main!(benches);
