//! Profiling a query: `EXPLAIN ANALYZE`, the metrics registry, and the
//! slow-query log.
//!
//! Builds a small corpus, profiles a path query (per-operator rows and
//! timings, index-hit versus walk-fallback accounting), then exports the
//! accumulated metrics as Prometheus text and JSON.
//!
//! ```sh
//! cargo run --example profile_query
//! # or, to also see the slow-query log's line per query on stderr:
//! DOCQL_LOG=0 cargo run --example profile_query
//! ```

use docql::prelude::*;
use docql_corpus::{generate_article, ArticleParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A database of generated articles, with metrics recording on.
    let mut db = DocStore::new(docql::fixtures::ARTICLE_DTD, &["my_article"])?;
    for seed in 0..8u64 {
        let doc = generate_article(&ArticleParams {
            seed,
            sections: 4,
            subsections: 2,
            plant_every: if seed % 2 == 0 { 3 } else { 0 },
            ..ArticleParams::default()
        });
        db.ingest_document(&doc)?;
    }
    let first = db.documents()[0];
    db.bind("my_article", first)?;
    db.set_metrics_enabled(true);

    // 2. EXPLAIN ANALYZE — the report form. The same report is reachable
    //    through the query surface itself: prefix any query with
    //    `explain analyze`.
    let q3 = "select t from my_article PATH_p.title(t)";
    let none = QueryLimits::none();
    println!("=== explain analyze {q3} ===");
    println!("{}", db.profile(q3, &none)?.render());

    // 3. The structured form: phase timings and per-operator statistics.
    let q5 = "select name(ATT_a) from my_article PATH_p.ATT_a(val) \
              where val contains (\"final\")";
    println!("=== profile of Q5 ===");
    let profile = db.profile(q5, &none)?;
    for p in &profile.phases {
        let t = std::time::Duration::from_nanos(p.ns);
        println!("  phase {:<10} {t:?}", p.name);
    }
    let (hits, walks) = profile.scan_totals();
    println!("  scans: {hits} extent hit(s), {walks} walk fallback(s)");
    println!("  result: {} row(s)", profile.result.rows.len());

    // 4. The same query with the extent index switched off: every scan
    //    falls back to walking, and the report says so.
    db.set_path_extents_enabled(false);
    let walked = db.profile(q5, &none)?;
    let (hits, walks) = walked.scan_totals();
    println!("  without extent index: {hits} hit(s), {walks} walk(s)");
    db.set_path_extents_enabled(true);

    // 5. Everything recorded so far, exported both ways.
    println!("\n=== Prometheus export (excerpt) ===");
    for line in db
        .metrics_registry()
        .to_prometheus()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .take(12)
    {
        println!("{line}");
    }
    println!("\n=== JSON export (first 200 chars) ===");
    let json = db.metrics_registry().to_json();
    println!("{}…", &json[..json.len().min(200)]);

    // 6. Slow queries: the flight recorder marks every query at or above
    //    its cutoff (here: all of them) slow, and the store counts it;
    //    under `DOCQL_LOG` the recorder also prints it to stderr.
    db.set_tracing_enabled(true);
    db.flight_recorder()
        .set_slow_cutoff(std::time::Duration::ZERO);
    db.query(q3)?;
    println!(
        "\nslow queries counted: {}",
        db.metrics().slow_queries.get()
    );
    Ok(())
}
