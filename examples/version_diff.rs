//! Q4 — structural difference between document versions:
//! `my_article PATH_p - my_old_article PATH_p`.
//!
//! "The difference operation will return the paths that are in the new
//! version of my_article and not in the old one."
//!
//! ```sh
//! cargo run --example version_diff
//! ```

use docql::prelude::*;
use docql_corpus::{generate_article, mutate, ArticleParams, Mutation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = DocStore::new(
        docql::fixtures::ARTICLE_DTD,
        &["my_article", "my_old_article"],
    )?;

    // The old version, and a new version with edits.
    let old = generate_article(&ArticleParams {
        seed: 11,
        sections: 4,
        ..ArticleParams::default()
    });
    let mut new = mutate(&old, &Mutation::AddSection("Novel query facilities".into()));
    new = mutate(
        &new,
        &Mutation::RetitleSection(1, "Rewritten overview".into()),
    );

    let old_root = db.ingest_document(&old)?;
    let new_root = db.ingest_document(&new)?;
    db.bind("my_old_article", old_root)?;
    db.bind("my_article", new_root)?;

    // New paths (additions and retitles show up as paths whose endpoints
    // changed shape/position).
    let q = "my_article PATH_p - my_old_article PATH_p";
    println!("=== {q} ===");
    let added = db.query(q)?;
    println!("{} paths only in the new version; a sample:", added.len());
    let mut shown = 0;
    for row in &added.rows {
        if let CalcValue::Path(p) = &row[0] {
            println!("  {p}");
            shown += 1;
            if shown == 10 {
                break;
            }
        }
    }

    // And the paths that disappeared.
    let q_rev = "my_old_article PATH_p - my_article PATH_p";
    let removed = db.query(q_rev)?;
    println!("\n{} paths only in the old version", removed.len());

    // "Supplementary conditions on data would allow the detection of
    // possible updates": new titles = titles reachable now but not before.
    let q_titles = "select t from my_article PATH_p.title(t)";
    let q_old_titles = "select t from my_old_article PATH_p.title(t)";
    let new_titles = db.query(q_titles)?;
    let old_titles = db.query(q_old_titles)?;
    let old_texts: std::collections::BTreeSet<String> = old_titles
        .rows
        .iter()
        .filter_map(|r| match &r[0] {
            CalcValue::Data(Value::Oid(o)) => db.text_of(*o),
            _ => None,
        })
        .collect();
    println!("\nnew or changed titles:");
    for row in &new_titles.rows {
        if let CalcValue::Data(Value::Oid(o)) = &row[0] {
            if let Some(t) = db.text_of(*o) {
                if !old_texts.contains(&t) {
                    println!("  {t:?}");
                }
            }
        }
    }
    Ok(())
}
