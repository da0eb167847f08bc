//! Updates keep the §3 `text` mapping and both indexes right by
//! construction: `update_value` re-derives `text` from the objects the way
//! ingest does, so
//!
//! * a no-op update changes no object's text and no answer, mixed and
//!   `ANY` content included;
//! * after random `#PCDATA` updates, a store answers exactly like a fresh
//!   store that ingests its exported documents (the "recovered vs fresh
//!   ingest" oracle, with update in place of recovery): every object's
//!   text, `index_stats`, `find_documents` and the Q1–Q6 answers agree;
//! * the same random updates, logged to a durable store as `Update`
//!   records, survive a reopen after each one: the recovered store
//!   observes exactly what the in-memory one does.

use docql::durable::TempDir;
use docql::mapping::ContentKind;
use docql::prelude::*;
use docql::store::{DocStore, WalOp};
use docql_corpus::SeededRng;

mod util;
use util::{article_store, letter_store, rendered, ARTICLE_QUERIES, Q6};

const MIXED_DTD: &str = "<!DOCTYPE para [ \
    <!ELEMENT para - - ((#PCDATA | emph)*)> \
    <!ELEMENT emph - - (#PCDATA)> ]>";

const ANY_DTD: &str = "<!DOCTYPE note [ \
    <!ELEMENT note - - ANY> \
    <!ELEMENT b - - (#PCDATA)> ]>";

const WORDS: &[&str] = &["hello", "big", "world", "query", "text", "object"];

/// A store of `n` seeded documents whose root (`para` or `note`)
/// interleaves text runs with `#PCDATA` children (`emph` or `b`).
fn interleaved_store(dtd: &str, root: &str, child: &str, n: u64) -> DocStore {
    let mut store = DocStore::new(dtd, &[]).unwrap();
    for seed in 0..n {
        let mut rng = SeededRng::seed_from_u64(seed);
        let mut word = || WORDS[rng.gen_range(0..WORDS.len())];
        let mut body = String::new();
        for _ in 0..3 {
            body.push_str(&format!("{} <{child}>{}</{child}> ", word(), word()));
        }
        body.push_str(word());
        store.ingest(&format!("<{root}>{body}</{root}>")).unwrap();
    }
    store
}

fn mixed_store(n: u64) -> DocStore {
    interleaved_store(MIXED_DTD, "para", "emph", n)
}

fn any_store(n: u64) -> DocStore {
    interleaved_store(ANY_DTD, "note", "b", n)
}

fn texts(store: &DocStore) -> Vec<Option<String>> {
    (0..store.instance().object_count() as u32)
        .map(|o| store.text_of(Oid(o)))
        .collect()
}

fn search_exprs() -> Vec<ContainsExpr> {
    let mut exprs: Vec<ContainsExpr> = WORDS
        .iter()
        .map(|w| ContainsExpr::pattern(w).unwrap())
        .collect();
    exprs.push(ContainsExpr::all_of(["hello", "world"]).unwrap());
    exprs.push(ContainsExpr::all_of(["complex", "object"]).unwrap());
    exprs.push(ContainsExpr::pattern("SGML").unwrap());
    exprs.push(ContainsExpr::pattern("renamed").unwrap());
    exprs.push(ContainsExpr::Not(Box::new(
        ContainsExpr::pattern("draft").unwrap(),
    )));
    exprs
}

/// Queries over a store: Q1–Q5 on articles, Q6 on letters, and
/// `text(d) contains …` selections over the collection otherwise.
fn queries(store: &DocStore) -> Vec<String> {
    match store.collection_root().as_str() {
        "Articles" => ARTICLE_QUERIES.iter().map(|q| q.to_string()).collect(),
        "Letters" => vec![Q6.to_string()],
        docs => WORDS
            .iter()
            .chain(&["renamed"])
            .map(|w| format!("select d from d in {docs} where text(d) contains (\"{w}\")"))
            .collect(),
    }
}

/// Everything a reader can observe of a store's text: every object's
/// text, the index statistics, index-backed searches, and query answers.
fn observe(store: &DocStore) -> (Vec<Option<String>>, (usize, usize), Vec<String>) {
    let mut answers: Vec<String> = search_exprs()
        .iter()
        .map(|e| format!("{e:?} -> {:?}", store.find_documents(e)))
        .collect();
    for q in queries(store) {
        answers.push(match store.query(&q) {
            Ok(r) => rendered(&r),
            Err(e) => format!("error: {e}"),
        });
    }
    (texts(store), store.index_stats(), answers)
}

#[test]
fn noop_update_keeps_every_text_and_answer_of_mixed_and_any_content() {
    for mut store in [mixed_store(4), any_store(4)] {
        let before = observe(&store);
        assert!(before.0.iter().all(Option::is_some));
        for o in 0..store.instance().object_count() as u32 {
            let value = store.instance().value_of(Oid(o)).unwrap().clone();
            store.update_value(Oid(o), value).unwrap();
            assert_eq!(observe(&store), before, "after re-setting object {o}");
        }
    }
}

/// A fresh store that ingests `store`'s exported documents in order, with
/// every named root bound to the same document as in `store`.
fn reingested(store: &DocStore, dtd: &str, roots: &[&str]) -> DocStore {
    let mut fresh = DocStore::new(dtd, roots).unwrap();
    let docs = store.documents();
    let fresh_roots: Vec<Oid> = docs
        .iter()
        .map(|&d| fresh.ingest(&store.export(d).unwrap().to_sgml()).unwrap())
        .collect();
    for name in roots {
        if let Ok(Value::Oid(o)) = store.instance().root(sym(name)) {
            let i = docs.iter().position(|d| d == o).unwrap();
            fresh.bind(name, fresh_roots[i]).unwrap();
        }
    }
    fresh
}

/// A seeded stream of random `#PCDATA` updates: each sets one object's
/// `contents` to random words, keeping its other fields.
struct TextUpdates {
    targets: Vec<Oid>,
    rng: SeededRng,
}

impl TextUpdates {
    fn new(store: &DocStore, seed: u64) -> TextUpdates {
        let pcdata: Vec<Sym> = store
            .mapping()
            .elements
            .values()
            .filter(|em| em.content == ContentKind::TextContent)
            .map(|em| em.class)
            .collect();
        let targets = store
            .instance()
            .objects()
            .filter(|(_, class, _)| pcdata.contains(class))
            .map(|(oid, _, _)| oid)
            .collect();
        TextUpdates {
            targets,
            rng: SeededRng::seed_from_u64(seed),
        }
    }

    /// The next update, against `store`'s current values.
    fn next(&mut self, store: &DocStore) -> (Oid, Value) {
        let rng = &mut self.rng;
        let oid = self.targets[rng.gen_range(0..self.targets.len())];
        let words: Vec<&str> = (0..rng.gen_range(1..4))
            .map(|_| match rng.gen_range(0..4) {
                0 => "renamed",
                _ => WORDS[rng.gen_range(0..WORDS.len())],
            })
            .collect();
        let Value::Tuple(mut fields) = store.instance().value_of(oid).unwrap().clone() else {
            panic!("#PCDATA object {oid} holds a tuple");
        };
        for (name, v) in &mut fields {
            if *name == sym("contents") {
                *v = Value::str(words.join(" "));
            }
        }
        (oid, Value::Tuple(fields))
    }
}

/// Apply `updates` random `#PCDATA` updates to `store`.
fn random_text_updates(store: &mut DocStore, seed: u64, updates: usize) {
    let mut stream = TextUpdates::new(store, seed);
    for _ in 0..updates {
        let (oid, value) = stream.next(store);
        store.update_value(oid, value).unwrap();
    }
}

/// The stores the random-update oracle runs on, with their schemas.
fn update_cases() -> [(DocStore, &'static str, &'static [&'static str]); 4] {
    [
        (
            article_store(4),
            docql::fixtures::ARTICLE_DTD,
            &["my_article", "my_old_article"],
        ),
        (letter_store(4), docql::fixtures::LETTER_DTD, &[]),
        (mixed_store(4), MIXED_DTD, &[]),
        (any_store(4), ANY_DTD, &[]),
    ]
}

#[test]
fn random_updates_answer_like_a_fresh_ingest_of_the_exported_documents() {
    for (seed, (mut store, dtd, roots)) in (0u64..).zip(update_cases()) {
        random_text_updates(&mut store, seed, 12);
        assert!(store.check().is_empty());
        let fresh = reingested(&store, dtd, roots);
        for (d, f) in store.documents().iter().zip(fresh.documents()) {
            assert_eq!(store.text_of(*d), fresh.text_of(*f), "document {d}");
        }
        assert_eq!(
            observe(&store),
            observe(&fresh),
            "{}",
            store.collection_root()
        );
    }
}

#[test]
fn random_updates_survive_a_reopen_of_a_durable_store_after_each_one() {
    for (seed, (mut store, dtd, roots)) in (0u64..).zip(update_cases()) {
        // A durable twin: the exported documents ingested and bound the
        // way `reingested` does, which reproduces every oid.
        let dir = TempDir::new("docql-update-diff").unwrap();
        let (mut durable, _) = SharedStore::open(dir.path(), dtd, roots).unwrap();
        let twin = reingested(&store, dtd, roots);
        for &d in twin.documents() {
            durable.ingest(&twin.export(d).unwrap().to_sgml()).unwrap();
        }
        for name in roots {
            if let Ok(Value::Oid(o)) = twin.instance().root(sym(name)) {
                durable.bind(name, *o).unwrap();
            }
        }
        assert_eq!(observe(&durable.read()), observe(&store));

        let mut stream = TextUpdates::new(&store, seed);
        for i in 0..12 {
            let (oid, value) = stream.next(&store);
            store.update_value(oid, value.clone()).unwrap();
            let update = WalOp::Update { oid: oid.0, value };
            durable.apply(vec![update]).0.unwrap();
            drop(durable);
            let (reopened, report) = SharedStore::reopen(dir.path()).unwrap();
            assert_eq!(report.truncated_bytes, 0);
            durable = reopened;
            assert_eq!(
                observe(&durable.read()),
                observe(&store),
                "{} after update {i} and a reopen",
                store.collection_root()
            );
        }
    }
}
