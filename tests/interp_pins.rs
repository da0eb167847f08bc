//! Pins of the calculus interpreter's observable behaviour on the paper's
//! queries Q1–Q6: the bytes of each answer's `to_table()` (as an FNV-1a
//! hash), its row count, and the rows and path fuel it charges to a guard
//! whose budgets are too large to trip. The values were recorded from the
//! set-at-a-time interpreter the compiled slot-row evaluator replaced, so
//! "row order and limit meaning unchanged" is checked here, not assumed.

use docql::guard::{Guard, QueryLimits};
use docql::prelude::*;
use docql_corpus::Mutation;
use docql_corpus::{generate_article, generate_letter, mutate, ArticleParams, LetterParams};

#[path = "util/mod.rs"]
mod util;

/// 64-bit FNV-1a.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The Fig. 2 document, bound as both `my_article` and `my_old_article`.
fn fig2_store() -> DocStore {
    let mut db = DocStore::new(
        docql::fixtures::ARTICLE_DTD,
        &["my_article", "my_old_article"],
    )
    .unwrap();
    let root = db.ingest(docql::fixtures::FIG2_DOCUMENT).unwrap();
    db.bind("my_article", root).unwrap();
    db.bind("my_old_article", root).unwrap();
    db
}

/// Twenty seeded articles; article 0 has three sections, and a
/// four-section version of it is bound as `my_article` (article 0 itself
/// as `my_old_article`).
fn corpus_store() -> DocStore {
    let mut db = DocStore::new(
        docql::fixtures::ARTICLE_DTD,
        &["my_article", "my_old_article"],
    )
    .unwrap();
    let mut first = None;
    for seed in 0..20u64 {
        let doc = generate_article(&ArticleParams {
            seed,
            sections: if seed == 0 { 3 } else { 5 },
            plant_every: if seed % 2 == 0 { 2 } else { 0 },
            ..ArticleParams::default()
        });
        let oid = db.ingest_document(&doc).unwrap();
        first.get_or_insert((doc, oid));
    }
    let (old, old_oid) = first.unwrap();
    let new = mutate(&old, &Mutation::AddSection("Delta".to_string()));
    let new_oid = db.ingest_document(&new).unwrap();
    db.bind("my_article", new_oid).unwrap();
    db.bind("my_old_article", old_oid).unwrap();
    db
}

fn letter_store() -> DocStore {
    let mut db = DocStore::new(docql::fixtures::LETTER_DTD, &[]).unwrap();
    for seed in 0..12u64 {
        let doc = generate_letter(&LetterParams {
            seed,
            sender_first: Some(seed % 3 != 0),
            paras: 2,
        });
        db.ingest_document(&doc).unwrap();
    }
    db
}

/// `(rows, to_table hash, row-order hash, rows charged, fuel charged)`.
type Pin = (usize, u64, u64, u64, u64);

/// The [`Pin`] of one governed interpreter run; the cached default path
/// must answer the same rows in the same order. `to_table()` sorts its
/// rows, so the order hash reads the rows as evaluation produced them.
fn pin(db: &DocStore, q: &str) -> Pin {
    let limits = QueryLimits::none()
        .with_row_budget(1 << 40)
        .with_path_fuel(1 << 40);
    let guard = Guard::new(&limits);
    let mut engine = db.engine();
    engine.guard = Some(&guard);
    let r = engine.run(q).unwrap();
    assert!(!r.is_partial(), "{q}: a budget tripped");
    assert_eq!(db.query(q).unwrap().rows, r.rows, "{q}: cached run");
    let order: String = r.rows.iter().map(|row| format!("{row:?}\n")).collect();
    let (rows, fuel) = guard.consumed();
    (
        r.len(),
        fnv(r.to_table().as_bytes()),
        fnv(order.as_bytes()),
        rows,
        fuel,
    )
}

#[test]
fn interpreter_answers_and_charges_match_the_recorded_pins() {
    let fig2 = fig2_store();
    let corpus = corpus_store();
    let letters = letter_store();
    let mut got = Vec::new();
    for (store, db) in [("fig2", &fig2), ("corpus", &corpus)] {
        for (i, q) in util::ARTICLE_QUERIES.iter().enumerate() {
            got.push((store, i + 1, pin(db, q)));
        }
    }
    got.push(("letters", 6, pin(&letters, util::Q6)));
    // (store, query, (rows, to_table and row-order FNV-1a, rows and fuel
    // charged)).
    let expected: &[(&str, usize, Pin)] = &[
        (
            "fig2",
            1,
            (0, 4568674525866032314, 14695981039346656037, 5, 3),
        ),
        (
            "fig2",
            2,
            (0, 4568674525866032314, 14695981039346656037, 4, 0),
        ),
        (
            "fig2",
            3,
            (3, 7278700193080909354, 7621098647574842991, 6, 217),
        ),
        (
            "fig2",
            4,
            (0, 12648273050344879703, 14695981039346656037, 2, 414),
        ),
        (
            "fig2",
            5,
            (0, 4568674525866032314, 14695981039346656037, 63, 387),
        ),
        (
            "corpus",
            1,
            (11, 5793533614987138272, 3019964760423557836, 190, 137),
        ),
        (
            "corpus",
            2,
            (22, 9105590570728424905, 177890720331399826, 188, 168),
        ),
        (
            "corpus",
            3,
            (7, 7556248751081945677, 7916373253214419612, 12, 469),
        ),
        (
            "corpus",
            4,
            (31, 9393047574978625452, 7056283684673150044, 2, 832),
        ),
        (
            "corpus",
            5,
            (1, 5604015679466404598, 5508783441052475340, 140, 868),
        ),
        (
            "letters",
            6,
            (8, 9792757547981251958, 13098694522611785325, 45, 0),
        ),
    ];
    assert_eq!(got, expected);
}
