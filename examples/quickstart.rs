//! Quickstart: the paper's running example end-to-end.
//!
//! Parses the Fig. 1 DTD, generates the Fig. 3 schema, ingests the Fig. 2
//! document, and runs the §4.3 path queries.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use docql::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A database typed by the paper's article DTD (Fig. 1), with a named
    //    root of persistence for §4.3's `my_article`.
    let mut db = DocStore::new(docql::fixtures::ARTICLE_DTD, &["my_article"])?;

    // 2. The generated schema is the paper's Fig. 3.
    println!("=== Generated O₂ schema (Fig. 3) ===");
    println!("{}", db.mapping().schema);

    // 3. Ingest the paper's Fig. 2 document and name it.
    let root = db.ingest(docql::fixtures::FIG2_DOCUMENT)?;
    db.bind("my_article", root)?;
    println!(
        "Ingested Fig. 2: {} objects, instance checks: {:?}",
        db.instance().object_count(),
        db.check().len()
    );

    // 4. Q3 — all titles in my_article, wherever the structure holds them.
    let q3 = "select t from my_article PATH_p.title(t)";
    println!("\n=== Q3: {q3} ===");
    let result = db.query(q3)?;
    for row in &result.rows {
        if let CalcValue::Data(Value::Oid(o)) = &row[0] {
            println!("  title: {:?}", db.text_of(*o).unwrap_or_default());
        }
    }

    // 5. Q5 — which attributes hold a value containing "final"?
    let q5 = "select name(ATT_a) from my_article PATH_p.ATT_a(val) \
              where val contains (\"final\")";
    println!("\n=== Q5: {q5} ===");
    println!("{}", db.query(q5)?.to_table());

    // 6. The same query through the §5.4 algebraizer gives the same answer.
    let interp = db.query(q3)?;
    let algebraic = db.query_algebraic(q3)?;
    println!(
        "interpreter rows = {}, algebraic rows = {} (must match)",
        interp.len(),
        algebraic.len()
    );
    assert_eq!(interp.len(), algebraic.len());
    Ok(())
}
