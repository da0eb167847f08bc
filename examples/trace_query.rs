//! Diagnosing a slow query with the flight recorder.
//!
//! Turns tracing on, serves a mix of queries — a cached point lookup, a
//! generalized-path query that fans out over every attribute path, and one
//! that doesn't parse — then reads the trace history back: the recent
//! ring, the slow/error reservoir, and one trace's full span tree with
//! estimated-vs-actual rows per operator.
//!
//! ```sh
//! cargo run --example trace_query
//! # or, to also stream one JSON line per query to stderr:
//! DOCQL_TRACE=stderr cargo run --example trace_query
//! ```

use docql::prelude::*;
use docql_corpus::{generate_article, ArticleParams};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A database of generated articles, with query tracing on. (With
    //    DOCQL_TRACE set the recorder is already on and additionally
    //    emits one JSON line per query.)
    let mut db = DocStore::new(docql::fixtures::ARTICLE_DTD, &["my_article"])?;
    for seed in 0..10u64 {
        let doc = generate_article(&ArticleParams {
            seed,
            sections: 5,
            subsections: 2,
            plant_every: if seed % 2 == 0 { 3 } else { 0 },
            ..ArticleParams::default()
        });
        db.ingest_document(&doc)?;
    }
    let first = db.documents()[0];
    db.bind("my_article", first)?;
    db.set_tracing_enabled(true);
    // Anything over 1 ms lands in the slow reservoir.
    db.flight_recorder()
        .set_slow_cutoff(Duration::from_millis(1));

    // 2. Serve the mix. The generalized path query expands to a union over
    //    every attribute path the schema admits — the kind of query the
    //    recorder exists to explain.
    let point = "select t from my_article PATH_p.title(t)";
    let fanout = "select name(ATT_a) from my_article PATH_p.ATT_a(val) \
                  where val contains (\"draft\")";
    for _ in 0..3 {
        db.query_algebraic(point)?;
    }
    db.query_algebraic(fanout)?;
    let _ = db.query("select nonsense from");

    // 3. The recent ring: one line per served query, newest last.
    println!("=== recent queries ===");
    for t in db.flight_recorder().recent() {
        println!(
            "{} {:>9} {:<7} cache_hit={:<5} rows={:<4} {}",
            t.id,
            format!("{:?}", Duration::from_nanos(t.total_ns)),
            t.outcome,
            t.cache_hit.map_or("-".into(), |h| h.to_string()),
            t.rows,
            &t.query[..t.query.len().min(48)],
        );
    }

    // 4. The slow/error reservoir survives ring eviction.
    println!("\n=== slow / error reservoir ===");
    for t in db.flight_recorder().slow() {
        println!(
            "{} {:<7} slow={} {}",
            t.id,
            t.outcome,
            t.slow,
            t.detail.as_deref().unwrap_or("-")
        );
    }

    // 5. One slow trace in full: phases, then the operator tree with
    //    estimated vs actual rows (plans larger than the span cap fold
    //    their tail into one aggregate span).
    if let Some(t) = db
        .flight_recorder()
        .slow()
        .iter()
        .rev()
        .find(|t| t.outcome == "ok")
    {
        println!("\n=== trace {} ===", t.id);
        for p in &t.phases {
            println!("  phase {:<11} {:?}", p.name, Duration::from_nanos(p.ns));
        }
        println!(
            "  stats_version={:?} snapshot_version={} replanned={}",
            t.stats_version, t.snapshot_version, t.replanned
        );
        for op in &t.operators {
            println!(
                "  {:indent$}{} calls={} rows={} est_rows={}",
                "",
                op.label,
                op.calls,
                op.rows,
                op.est_rows.map_or("-".into(), |e| e.to_string()),
                indent = (op.depth as usize) * 2,
            );
        }
        for e in &t.events {
            println!("  event {} {}", e.kind, e.detail);
        }
    }
    Ok(())
}
