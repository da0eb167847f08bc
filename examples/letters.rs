//! Q6 — querying ordered tuples by attribute position (§4.4).
//!
//! The letters DTD declares `preamble` as `(to & from)`: the SGML `&`
//! connector leaves the order of recipient and sender to each document.
//! The mapping models this as the marked union of both permutations
//! (`a1: [to, from] + a2: [from, to]`), and the position machinery lets
//! queries ask which came first.
//!
//! ```sh
//! cargo run --example letters
//! ```

use docql::prelude::*;
use docql_corpus::{generate_letter, LetterParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = DocStore::new(docql::fixtures::LETTER_DTD, &[])?;
    for seed in 0..12u64 {
        let doc = generate_letter(&LetterParams {
            seed,
            sender_first: None, // random per letter
            paras: 1,
        });
        db.ingest_document(&doc)?;
    }
    println!("{} letters ingested; schema:", db.documents().len());
    println!("{}", db.mapping().schema);

    // Q6: letters where the sender precedes the recipient in the preamble.
    let q6 = "select letter from letter in Letters, \
              i in positions(letter.preamble, \"from\"), \
              j in positions(letter.preamble, \"to\") \
              where i < j";
    println!("=== Q6 ===\n{q6}");
    let r = db.query(q6)?;
    println!("→ {} sender-first letters:", r.len());
    for row in &r.rows {
        if let CalcValue::Data(Value::Oid(o)) = &row[0] {
            if let Some(text) = db.text_of(*o) {
                let head: String = text.chars().take(60).collect();
                println!("  {head}…");
            }
        }
    }

    // Projecting on `to` with the union markers omitted — the "Important
    // Omissions" of §5.3: `{X | ∃I⟨Letters[I]·to(X)⟩}`.
    let r2 = db.query("select addr from Letters PATH_p.to(addr)")?;
    println!(
        "\nrecipient addresses (markers omitted): {} distinct",
        r2.len()
    );
    for row in r2.rows.iter().take(5) {
        if let CalcValue::Data(Value::Oid(o)) = &row[0] {
            println!("  {}", db.text_of(*o).unwrap_or_default());
        }
    }
    Ok(())
}
