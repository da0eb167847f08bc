//! Concurrent serving: batch ingest, a shared store, and the plan cache.
//!
//! Builds a corpus with `ingest_batch` (parse all, then load each),
//! converts the database into a [`SharedStore`], and serves the
//! same O₂SQL queries from several reader threads while a writer keeps
//! ingesting. Ends with the plan-cache hit/miss counters.
//!
//! ```sh
//! cargo run --example concurrent_readers
//! ```

use docql::prelude::*;
use docql_corpus::{generate_article, ArticleParams};
use std::time::Instant;

const READERS: usize = 4;
const ROUNDS: usize = 25;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate a corpus and batch-ingest it: every text is parsed and
    //    validated first, then each tree is loaded and indexed in order.
    let texts: Vec<String> = (0..24u64)
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
        .collect();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();

    let mut db = DocStore::new(docql::fixtures::ARTICLE_DTD, &["my_article"])?;
    let t0 = Instant::now();
    let roots = db.ingest_batch(&refs)?;
    println!(
        "batch-ingested {} articles in {:.2?} ({} objects)",
        roots.len(),
        t0.elapsed(),
        db.instance().object_count()
    );
    db.bind("my_article", roots[0])?;

    // 2. Convert to a shared handle: clonable, many concurrent readers,
    //    writers serialised through an RwLock.
    let shared = SharedStore::new(db);

    let queries = [
        "select t from my_article PATH_p.title(t)",
        "select tuple (t: a.title, f_author: first(a.authors)) \
         from a in Articles, s in a.sections \
         where s.title contains (\"SGML\" and \"OODBMS\")",
    ];

    // 3. Serve queries from READER threads while a writer ingests more
    //    documents. Readers never block each other; the plan cache means
    //    each distinct query text is compiled once, process-wide.
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for r in 0..READERS {
            let shared = shared.clone();
            let queries = &queries;
            s.spawn(move || {
                let mut rows = 0usize;
                for _ in 0..ROUNDS {
                    for q in queries {
                        rows += shared.query(q).expect("query").len();
                    }
                }
                println!("reader {r}: {rows} rows over {ROUNDS} rounds");
            });
        }
        let writer = shared.clone();
        s.spawn(move || {
            for seed in 1000..1004u64 {
                let doc = generate_article(&ArticleParams {
                    seed,
                    sections: 3,
                    ..ArticleParams::default()
                })
                .to_sgml();
                writer.ingest(&doc).expect("ingest");
            }
            println!("writer: ingested 4 more articles");
        });
    });
    println!("served {READERS} readers in {:.2?}", t0.elapsed());

    // 4. The plan cache compiled each query once; everything else hit.
    let stats = shared.read().plan_cache_stats();
    println!(
        "plan cache: {} hits / {} misses ({} entries, capacity {})",
        stats.hits, stats.misses, stats.entries, stats.capacity
    );
    Ok(())
}
