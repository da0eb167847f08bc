//! IRS-style querying over a corpus of articles (the workload the paper's
//! introduction motivates): textual selection with `contains`, union-typed
//! structure, and the `text` inverse-mapping operator.
//!
//! ```sh
//! cargo run --example article_queries
//! ```

use docql::prelude::*;
use docql_corpus::{generate_article, ArticleParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = DocStore::new(docql::fixtures::ARTICLE_DTD, &[])?;
    for seed in 0..20u64 {
        let doc = generate_article(&ArticleParams {
            seed,
            sections: 6,
            subsections: 2,
            plant_every: if seed % 2 == 0 { 3 } else { 0 },
            ..ArticleParams::default()
        });
        db.ingest_document(&doc)?;
    }
    println!(
        "corpus: {} articles, {} objects, index: {:?}",
        db.documents().len(),
        db.instance().object_count(),
        db.index_stats()
    );

    // Q1: title + first author of articles with a section title containing
    // both "SGML" and "OODBMS".
    let q1 = "select tuple (t: a.title, f_author: first(a.authors)) \
              from a in Articles, s in a.sections \
              where s.title contains (\"SGML\" and \"OODBMS\")";
    println!("\n=== Q1 ===\n{q1}");
    let r1 = db.query(q1)?;
    println!("→ {} matching articles", r1.len());

    // Q2: subsections whose text mentions "complex object" — only sections
    // on the a2 branch of the union have subsections; the implicit
    // selectors make this transparent.
    let q2 = "select ss from a in Articles, s in a.sections, ss in s.subsectns \
              where text(ss) contains (\"complex object\")";
    println!("\n=== Q2 ===\n{q2}");
    let r2 = db.query(q2)?;
    println!("→ {} matching subsections", r2.len());
    for row in r2.rows.iter().take(3) {
        if let CalcValue::Data(Value::Oid(o)) = &row[0] {
            let text = db.text_of(*o).unwrap_or_default();
            let cut: String = text.chars().take(70).collect();
            println!("  {cut}…");
        }
    }

    // Boolean pattern combinations and the near predicate.
    let q_near = "select a from a in Articles \
                  where near(text(a), \"SGML\", \"OODBMS\", 4)";
    println!("\n=== near ===\n{q_near}");
    println!("→ {} articles", db.query(q_near)?.len());

    // Index-accelerated document search (the §6 full-text machinery) vs the
    // scan baseline — same answers.
    let expr = ContainsExpr::all_of(["SGML", "OODBMS"])?;
    let indexed = db.find_documents(&expr);
    let scanned = db.find_documents_scan(&expr);
    assert_eq!(indexed, scanned);
    println!(
        "\nfull-text search: {} documents (index and scan agree)",
        indexed.len()
    );
    Ok(())
}
