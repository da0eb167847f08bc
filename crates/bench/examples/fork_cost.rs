//! Fork cost against corpus size: a snapshot fork must copy what a write
//! touches, not the corpus.
//!
//! Every `SharedStore` write forks the published `DocStore`. The tables
//! that grow with the corpus (object slots, posting lists, the extent
//! table) are chunked copy-on-write vectors, so a fork copies one `Arc`
//! per chunk and the cost should barely move as the corpus grows. This
//! loads 200 generated articles, forks that store, loads 240 more into the
//! fork (440 in all, the size `ingest_mix` ends at), and then times
//! `fork()` — the fork and freeing it again — on both stores,
//! A/B-interleaved over 200 rounds so host drift hits both sides alike
//! (best of the run).
//!
//! Prints one `fork_cost` line per size and the ratio; `ci.sh` fails when
//! fork(440) / fork(200) exceeds 2.0.
//!
//! Run: `cargo run --release -p docql-bench --example fork_cost`

use docql_bench::harness::{fmt_duration, interleaved};
use docql_corpus::{generate_article, ArticleParams};

/// Interleaved A/B rounds.
const ITERS: u64 = 200;

fn main() {
    let small = docql_bench::article_store(200, 5);
    let mut large = small.fork();
    for seed in 200..440u64 {
        let doc = generate_article(&ArticleParams {
            seed,
            sections: 5,
            subsections: 2,
            plant_every: if seed % 2 == 0 { 3 } else { 0 },
            ..ArticleParams::default()
        });
        large.ingest_document(&doc).expect("ingest");
    }
    let (t200, t440) = interleaved(|| small.fork(), || large.fork(), ITERS);
    println!(
        "fork_cost docs=200 objects={} fork={}",
        small.instance().object_count(),
        fmt_duration(t200)
    );
    println!(
        "fork_cost docs=440 objects={} fork={}",
        large.instance().object_count(),
        fmt_duration(t440)
    );
    println!(
        "fork_cost ratio={:.2}",
        t440.as_secs_f64() / t200.as_secs_f64().max(1e-12)
    );
}
