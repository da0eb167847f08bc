//! The seeded inputs: the article corpus with its Q4 version pair, the
//! fresh articles `ingest_mix` writes, and the paper's queries Q1–Q5.

use docql_corpus::{generate_article, mutate, ArticleParams, Mutation, SeededRng};
use docql_store::DocStore;

/// Generated articles loaded before every workload.
pub const CORPUS_ARTICLES: usize = 200;

/// The named roots of the served schema.
pub const ROOTS: [&str; 2] = ["my_article", "my_old_article"];

/// The paper's queries over the article DTD, as `(name, text)`.
pub const QUERIES: [(&str, &str); 5] = [
    (
        "q1",
        "select tuple (t: a.title, f_author: first(a.authors)) \
         from a in Articles, s in a.sections \
         where s.title contains (\"SGML\" and \"OODBMS\")",
    ),
    (
        "q2",
        "select ss from a in Articles, s in a.sections, ss in s.subsectns \
         where text(ss) contains (\"complex object\")",
    ),
    ("q3", "select t from my_article PATH_p.title(t)"),
    ("q4", "my_article PATH_p - my_old_article PATH_p"),
    (
        "q5",
        "select name(ATT_a) from my_article PATH_p.ATT_a(val) \
         where val contains (\"draft\")",
    ),
];

/// A query that lists every document root once: after a restart its row
/// count is the number of documents the store holds.
pub const COUNT_DOCUMENTS: &str = "select a from a in Articles";

/// Everything a run sends, derived from its seed.
pub struct Corpus {
    /// SGML of the documents loaded at set-up, in ingest order: the
    /// generated articles, then the new version of article 0.
    pub setup_docs: Vec<String>,
    /// Index in `setup_docs` bound to `my_article`.
    pub my_article: usize,
    /// Index in `setup_docs` bound to `my_old_article`.
    pub my_old_article: usize,
    /// Fresh articles for `ingest_mix`'s writer.
    pub fresh_docs: Vec<String>,
}

fn article(seed: u64, planted: bool) -> docql_sgml::Document {
    generate_article(&ArticleParams {
        seed,
        sections: 5,
        subsections: 2,
        plant_every: if planted { 3 } else { 0 },
        ..ArticleParams::default()
    })
}

impl Corpus {
    /// The corpus for `seed`, with `fresh` extra articles.
    pub fn new(seed: u64, fresh: usize) -> Corpus {
        let mut rng = SeededRng::seed_from_u64(seed);
        let mut next = |i: usize| article(rng.next_u64() % 1_000_000, i.is_multiple_of(2));
        let generated: Vec<_> = (0..CORPUS_ARTICLES).map(&mut next).collect();
        let revised = mutate(
            &generated[0],
            &Mutation::AddSection("Revised results".to_string()),
        );
        let mut setup_docs: Vec<String> = generated.iter().map(|d| d.to_sgml()).collect();
        setup_docs.push(revised.to_sgml());
        let fresh_docs = (CORPUS_ARTICLES..CORPUS_ARTICLES + fresh)
            .map(|i| next(i).to_sgml())
            .collect();
        Corpus {
            my_article: setup_docs.len() - 1,
            my_old_article: 0,
            setup_docs,
            fresh_docs,
        }
    }

    /// The `/bind` bodies for the named roots, given the oids the setup
    /// ingests were assigned.
    pub fn bind_bodies(&self, oids: &[u32]) -> [String; 2] {
        [
            format!("my_article {}", oids[self.my_article]),
            format!("my_old_article {}", oids[self.my_old_article]),
        ]
    }

    /// An in-process store built exactly as the server's is, and the oids
    /// of its setup documents.
    pub fn reference_store(&self) -> (DocStore, Vec<u32>) {
        let mut store =
            DocStore::new(docql_sgml::fixtures::ARTICLE_DTD, &ROOTS).expect("article store");
        let oids: Vec<u32> = self
            .setup_docs
            .iter()
            .map(|d| store.ingest(d).expect("generated article ingests").0)
            .collect();
        store
            .bind("my_article", docql_model::Oid(oids[self.my_article]))
            .expect("bind my_article");
        store
            .bind(
                "my_old_article",
                docql_model::Oid(oids[self.my_old_article]),
            )
            .expect("bind my_old_article");
        (store, oids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = Corpus::new(7, 3);
        let b = Corpus::new(7, 3);
        assert_eq!(a.setup_docs, b.setup_docs);
        assert_eq!(a.fresh_docs, b.fresh_docs);
        assert_eq!(a.setup_docs.len(), CORPUS_ARTICLES + 1);
        assert_ne!(a.setup_docs, Corpus::new(8, 3).setup_docs);
    }
}
