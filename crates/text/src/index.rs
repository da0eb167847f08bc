//! A positional inverted index — the "full text indexing mechanism" the
//! paper's IRS discussion assumes (§4.1) and lists as the optimisation its
//! prototype was studying (§6).
//!
//! Terms are lower-cased words; postings carry word positions so `near` and
//! phrase queries evaluate from the index alone. Pattern queries (`contains`
//! with regex operators) are answered by grepping the *vocabulary* with the
//! NFA and unioning the matching terms' postings — the classic IRS trick for
//! wildcard queries.

use crate::contains::ContainsExpr;
use crate::metrics::TextMetrics;
use crate::nfa::Nfa;
use crate::pattern::Pattern;
use crate::tokenize::{normalize, tokenize};
use docql_model::ChunkedVec;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A document identifier in the index.
pub type DocId = u64;

/// One term's posting list: (doc, word positions ascending), sorted by doc.
type Postings = ChunkedVec<(DocId, Arc<Vec<u32>>)>;

/// Positional inverted index over added documents.
///
/// Every table is a [`ChunkedVec`] kept sorted by key: the vocabulary
/// (term → posting list), each term's posting list and the per-document
/// word counts. Cloning the index — the store's snapshot-fork path —
/// copies one `Arc` per group of 4,096 terms and of 4,096 word counts.
/// A post-clone `add` of a new, highest document id copies, for each of
/// its terms, the vocabulary group and chunk holding the term and its
/// list's last group and chunk.
#[derive(Debug, Default, Clone)]
pub struct InvertedIndex {
    /// (term, its posting list), sorted by term.
    postings: ChunkedVec<(Arc<str>, Arc<Postings>)>,
    /// (doc, word count), sorted by doc: the added documents, for
    /// statistics and NOT.
    docs: ChunkedVec<(DocId, u32)>,
    /// Counters for the query entry points, attached by the owning store.
    metrics: Option<TextMetrics>,
}

/// Each normalised term of `text` with its word positions (offset by
/// `base`, ascending), and the text's word count.
fn terms(text: &str, base: u32) -> (BTreeMap<String, Vec<u32>>, u32) {
    let toks = tokenize(text);
    let mut by_term: BTreeMap<String, Vec<u32>> = BTreeMap::new();
    for t in &toks {
        by_term
            .entry(normalize(t.word))
            .or_default()
            .push(base + t.index as u32);
    }
    (by_term, toks.len() as u32)
}

impl InvertedIndex {
    /// Empty index.
    pub fn new() -> InvertedIndex {
        InvertedIndex::default()
    }

    /// Attach counters (see [`TextMetrics`]); queries then count index
    /// lookups and vocabulary scans when the owning registry is enabled.
    pub fn set_metrics(&mut self, metrics: TextMetrics) {
        self.metrics = Some(metrics);
    }

    /// The attached counters, when recording is on.
    #[inline]
    fn obs(&self) -> Option<&TextMetrics> {
        self.metrics.as_ref().filter(|m| m.enabled())
    }

    /// Index a document's text. Adding the same `doc` twice appends (useful
    /// when a document's text is assembled from several logical components).
    /// The document's new terms enter the vocabulary together, in one
    /// rebuild of its chunks from the first new term on; to index many
    /// documents at once, use [`InvertedIndex::from_documents`].
    pub fn add(&mut self, doc: DocId, text: &str) {
        let base = self.docs.find(&doc).copied().unwrap_or(0);
        let (by_term, words) = terms(text, base);
        let mut new_terms = Vec::new();
        for (term, positions) in by_term {
            match self.postings.find_mut(term.as_str()) {
                Some(list) => {
                    let slot = Arc::make_mut(list).find_or_insert(&doc, || (doc, Arc::default()));
                    Arc::make_mut(slot).extend(positions);
                }
                None => {
                    let list = std::iter::once((doc, Arc::new(positions))).collect();
                    new_terms.push((Arc::from(term), Arc::new(list)));
                }
            }
        }
        self.postings.insert_sorted(new_terms);
        *self.docs.find_or_insert(&doc, || (doc, 0)) = base + words;
    }

    /// An index over `docs`, the same as [`InvertedIndex::add`]ing each in
    /// turn, built in O(words · log terms): every term's positions are
    /// gathered first and each table is then pushed in key order. The
    /// store's full rebuild (after an update, and on recovery) runs here.
    pub fn from_documents<'a>(docs: impl IntoIterator<Item = (DocId, &'a str)>) -> InvertedIndex {
        let mut vocab: BTreeMap<String, BTreeMap<DocId, Vec<u32>>> = BTreeMap::new();
        let mut counts: BTreeMap<DocId, u32> = BTreeMap::new();
        for (doc, text) in docs {
            let count = counts.entry(doc).or_default();
            let (by_term, words) = terms(text, *count);
            *count += words;
            for (term, positions) in by_term {
                vocab
                    .entry(term)
                    .or_default()
                    .entry(doc)
                    .or_default()
                    .extend(positions);
            }
        }
        let postings = vocab
            .into_iter()
            .map(|(term, list)| {
                let list: Postings = list.into_iter().map(|(d, p)| (d, Arc::new(p))).collect();
                (Arc::from(term), Arc::new(list))
            })
            .collect();
        InvertedIndex {
            postings,
            docs: counts.into_iter().collect(),
            metrics: None,
        }
    }

    /// How many chunks of this index's tables are not shared with
    /// `other`'s: after `other.clone()`, the chunks this index's `add`s
    /// have copied or added.
    pub fn unshared_chunks(&self, other: &InvertedIndex) -> usize {
        let lists: usize = self
            .postings
            .iter()
            .map(|(term, list)| match other.postings.find(&**term) {
                Some(o) => list.unshared_chunks(o),
                None => list.unshared_chunks(&Postings::new()),
            })
            .sum();
        lists
            + self.postings.unshared_chunks(&other.postings)
            + self.docs.unshared_chunks(&other.docs)
    }

    /// The posting list of the normalised `term`.
    fn list(&self, term: &str) -> Option<&Postings> {
        self.postings.find(term).map(|l| &**l)
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.docs.len()
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.postings.len()
    }

    /// Posting length of `word` (case-insensitive exact term match): how
    /// many documents contain it. One vocabulary lookup — the cost model reads
    /// this per `contains` conjunct, without materialising the doc set.
    pub fn posting_doc_count(&self, word: &str) -> usize {
        self.list(&normalize(word)).map_or(0, |m| m.len())
    }

    /// Total indexed words across all documents (the corpus token count;
    /// `total_words / doc_count` is the average document length the cost
    /// model charges for a text re-check).
    pub fn total_words(&self) -> u64 {
        self.docs.iter().map(|(_, c)| u64::from(*c)).sum()
    }

    /// All indexed document ids.
    pub fn all_docs(&self) -> BTreeSet<DocId> {
        self.docs.iter().map(|(d, _)| *d).collect()
    }

    /// Documents containing `word` (case-insensitive exact term match).
    pub fn docs_with_word(&self, word: &str) -> BTreeSet<DocId> {
        self.list(&normalize(word))
            .map(|m| m.iter().map(|(d, _)| *d).collect())
            .unwrap_or_default()
    }

    /// Positions of `word` within `doc`.
    pub fn positions(&self, doc: DocId, word: &str) -> &[u32] {
        self.posting(doc, &normalize(word))
            .map(|p| p.as_slice())
            .unwrap_or(&[])
    }

    /// The position list of the normalised `term` within `doc`.
    fn posting(&self, doc: DocId, term: &str) -> Option<&Arc<Vec<u32>>> {
        self.list(term)?.find(&doc)
    }

    /// Documents where some term matches `pattern` (vocabulary grep).
    pub fn docs_matching_pattern(&self, pattern: &Pattern) -> BTreeSet<DocId> {
        if let Some(m) = self.obs() {
            m.vocab_scans.inc();
        }
        let nfa = Nfa::compile(pattern);
        let mut out = BTreeSet::new();
        for (term, posting) in self.postings.iter() {
            if nfa.is_match(term) {
                out.extend(posting.iter().map(|(d, _)| *d));
            }
        }
        out
    }

    /// Documents satisfying a boolean `contains` expression.
    ///
    /// Caveat shared with all term-indexed engines: a pattern that spans a
    /// word boundary (e.g. the phrase `complex object`) is resolved
    /// conservatively here (per-word conjunction); use
    /// [`InvertedIndex::candidates`] + an exact re-check over the stored text
    /// for exact semantics — that is what the query engines do.
    pub fn docs_matching(&self, expr: &ContainsExpr) -> BTreeSet<DocId> {
        if let Some(m) = self.obs() {
            m.index_queries.inc();
        }
        self.docs_matching_inner(expr)
    }

    fn docs_matching_inner(&self, expr: &ContainsExpr) -> BTreeSet<DocId> {
        match expr {
            ContainsExpr::Pattern(p) => {
                // Split multi-word literal patterns into a positional phrase
                // check when possible; otherwise vocabulary grep.
                match literal_words(p) {
                    Some(words) if words.len() > 1 => self.phrase_docs(&words),
                    Some(words) if words.len() == 1 => self.docs_with_word(&words[0]),
                    _ => self.docs_matching_pattern(p),
                }
            }
            ContainsExpr::And(items) => {
                let mut sets = items.iter().map(|i| self.docs_matching_inner(i));
                let mut acc = match sets.next() {
                    Some(s) => s,
                    None => return self.all_docs(),
                };
                for s in sets {
                    acc = acc.intersection(&s).copied().collect();
                }
                acc
            }
            ContainsExpr::Or(items) => {
                let mut acc = BTreeSet::new();
                for i in items {
                    acc.extend(self.docs_matching_inner(i));
                }
                acc
            }
            ContainsExpr::Not(inner) => {
                let excluded = self.docs_matching_inner(inner);
                self.all_docs().difference(&excluded).copied().collect()
            }
        }
    }

    /// A candidate set for `expr` that is a **guaranteed superset** of the
    /// documents whose text matches under exact substring (`contains`)
    /// semantics — engines re-check candidates against stored text.
    ///
    /// * a literal made only of alphanumeric characters must lie inside a
    ///   single token, so terms containing it (vocabulary substring grep,
    ///   case-folded) bound the answer;
    /// * literals crossing token boundaries, regex-operator patterns and
    ///   negations widen conservatively (up to all documents).
    pub fn candidates(&self, expr: &ContainsExpr) -> BTreeSet<DocId> {
        if let Some(m) = self.obs() {
            m.index_queries.inc();
        }
        self.candidates_inner(expr)
    }

    fn candidates_inner(&self, expr: &ContainsExpr) -> BTreeSet<DocId> {
        match expr {
            ContainsExpr::Pattern(p) => match literal_text(p) {
                Some(text) if !text.is_empty() && text.chars().all(char::is_alphanumeric) => {
                    if let Some(m) = self.obs() {
                        m.vocab_scans.inc();
                    }
                    let needle = text.to_lowercase();
                    let mut out = BTreeSet::new();
                    for (term, posting) in self.postings.iter() {
                        if term.contains(&needle) {
                            out.extend(posting.iter().map(|(d, _)| *d));
                        }
                    }
                    out
                }
                Some(text) => {
                    // Multi-word literal: every interior complete word must
                    // appear (necessary condition); first/last fragments may
                    // be partial tokens, so they only constrain via the
                    // vocabulary-substring bound.
                    let words = crate::tokenize::tokenize(&text);
                    if words.len() >= 3 {
                        let mut acc: Option<BTreeSet<DocId>> = None;
                        for w in &words[1..words.len() - 1] {
                            let docs = self.docs_with_word(w.word);
                            acc = Some(match acc {
                                None => docs,
                                Some(prev) => prev.intersection(&docs).copied().collect(),
                            });
                        }
                        acc.unwrap_or_else(|| self.all_docs())
                    } else {
                        self.all_docs()
                    }
                }
                None => self.all_docs(),
            },
            ContainsExpr::And(items) => {
                let mut acc: Option<BTreeSet<DocId>> = None;
                for i in items {
                    let c = self.candidates_inner(i);
                    acc = Some(match acc {
                        None => c,
                        Some(prev) => prev.intersection(&c).copied().collect(),
                    });
                }
                acc.unwrap_or_else(|| self.all_docs())
            }
            ContainsExpr::Or(items) => {
                let mut out = BTreeSet::new();
                for i in items {
                    out.extend(self.candidates_inner(i));
                }
                out
            }
            ContainsExpr::Not(_) => self.all_docs(),
        }
    }

    /// Documents containing the exact word sequence `words` (positional
    /// phrase query).
    pub fn phrase_docs(&self, words: &[String]) -> BTreeSet<DocId> {
        let mut out = BTreeSet::new();
        let Some(first) = words.first() else {
            return self.all_docs();
        };
        'docs: for doc in self.docs_with_word(first) {
            let starts = self.positions(doc, first).to_vec();
            'starts: for s in &starts {
                for (k, w) in words.iter().enumerate().skip(1) {
                    if !self.positions(doc, w).contains(&(s + k as u32)) {
                        continue 'starts;
                    }
                }
                out.insert(doc);
                continue 'docs;
            }
        }
        out
    }

    /// Documents where `w1` and `w2` occur within `k` words of each other.
    ///
    /// `k` counts *intervening* words (adjacent occurrences are at distance
    /// 0, i.e. position difference 1 ⇒ accepted for every `k`), the two
    /// occurrences must be distinct tokens, and matching is
    /// case-insensitive — exactly the `NearUnit::Words` semantics of
    /// [`mod@crate::near`], as pinned by `tests/near_parity.rs`.
    pub fn near_docs(&self, w1: &str, w2: &str, k: u32) -> BTreeSet<DocId> {
        if let Some(m) = self.obs() {
            m.index_queries.inc();
        }
        let d1 = self.docs_with_word(w1);
        let d2 = self.docs_with_word(w2);
        let mut out = BTreeSet::new();
        for doc in d1.intersection(&d2) {
            let p1 = self.positions(*doc, w1);
            let p2 = self.positions(*doc, w2);
            // Look for a pair of distinct occurrences with at most k
            // intervening words (position difference ≤ k + 1). The second
            // list is sorted, so each inner scan stops once past the window.
            'pairs: for &a in p1 {
                for &b in p2 {
                    if b > a + k + 1 {
                        break;
                    }
                    if a != b && a.abs_diff(b) <= k + 1 {
                        out.insert(*doc);
                        break 'pairs;
                    }
                }
            }
        }
        out
    }
}

/// If the pattern is a plain literal (no operators), its text.
fn literal_text(p: &Pattern) -> Option<String> {
    fn chars_of(p: &Pattern, out: &mut String) -> bool {
        match p {
            Pattern::Empty => true,
            Pattern::Char(c) => {
                out.push(*c);
                true
            }
            Pattern::Concat(items) => items.iter().all(|i| chars_of(i, out)),
            _ => false,
        }
    }
    let mut s = String::new();
    if chars_of(p, &mut s) {
        Some(s)
    } else {
        None
    }
}

/// If the pattern is a plain literal (no operators), its word decomposition.
fn literal_words(p: &Pattern) -> Option<Vec<String>> {
    let s = literal_text(p)?;
    let words: Vec<String> = tokenize(&s).iter().map(|t| normalize(t.word)).collect();
    if words.is_empty() {
        None
    } else {
        Some(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every (term, [(doc, positions)]) and (doc, word count) of `ix`.
    type Dump = (Vec<(String, Vec<(DocId, Vec<u32>)>)>, Vec<(DocId, u32)>);
    fn dump(ix: &InvertedIndex) -> Dump {
        let terms = ix
            .postings
            .iter()
            .map(|(t, list)| {
                let list = list.iter().map(|(d, p)| (*d, p.to_vec())).collect();
                (t.to_string(), list)
            })
            .collect();
        (terms, ix.docs.iter().copied().collect())
    }

    #[test]
    fn from_documents_matches_adding_each_document() {
        let docs = [
            (7, "the complex object model"),
            (2, "An SGML document, the OODBMS"),
            (7, "object queries again"),
            (5, ""),
            (3, "the the THE model"),
        ];
        let mut added = InvertedIndex::new();
        for (doc, text) in docs {
            added.add(doc, text);
        }
        let built = InvertedIndex::from_documents(docs);
        assert_eq!(dump(&built), dump(&added));
        assert_eq!(built.doc_count(), 4);
        assert_eq!(built.docs_with_word("object"), BTreeSet::from([7]));
    }

    /// Terms that interleave across documents are the worst case for
    /// inserting into a sorted vocabulary one term at a time (each insert
    /// rebuilds every chunk after it: ~8·10^8 element copies here, minutes
    /// in a debug build). The bulk build pushes each of the 40,000 terms
    /// once, and `add` rebuilds the vocabulary once per document (~4·10^6
    /// element moves); each takes seconds at most.
    #[test]
    fn a_large_interleaved_vocabulary_builds_fast() {
        let word = |mut n: usize| {
            let mut w = String::from("w");
            for _ in 0..4 {
                w.push(char::from(b'a' + (n % 26) as u8));
                n /= 26;
            }
            w.chars().rev().collect::<String>()
        };
        // Document d holds the terms d, d + 200, d + 400, ...: every
        // document's terms spread over the whole vocabulary.
        let texts: Vec<(DocId, String)> = (0..200)
            .map(|d| {
                let words: Vec<String> = (0..200).map(|i| word(i * 200 + d)).collect();
                (d as DocId, words.join(" "))
            })
            .collect();
        let started = std::time::Instant::now();
        let built = InvertedIndex::from_documents(texts.iter().map(|(d, t)| (*d, t.as_str())));
        let bulk = started.elapsed();
        let started = std::time::Instant::now();
        let mut added = InvertedIndex::new();
        for (d, t) in &texts {
            added.add(*d, t);
        }
        let one_by_one = started.elapsed();
        assert_eq!(built.term_count(), 40_000);
        assert_eq!(built.doc_count(), 200);
        assert!(dump(&built) == dump(&added), "the two builds differ");
        for (how, took) in [("in bulk", bulk), ("a document at a time", one_by_one)] {
            assert!(
                took < std::time::Duration::from_secs(20),
                "building a 40,000-term index {how} took {took:?}"
            );
        }
    }

    fn sample() -> InvertedIndex {
        let mut ix = InvertedIndex::new();
        ix.add(1, "Structured documents can benefit from database support");
        ix.add(2, "an SGML document in an OODBMS");
        ix.add(3, "queries over complex objects; the complex object model");
        ix
    }

    #[test]
    fn word_lookup() {
        let ix = sample();
        assert_eq!(ix.docs_with_word("documents"), BTreeSet::from([1]));
        assert_eq!(ix.docs_with_word("SGML"), BTreeSet::from([2]));
        assert_eq!(
            ix.docs_with_word("sgml"),
            BTreeSet::from([2]),
            "case folded"
        );
        assert!(ix.docs_with_word("ghost").is_empty());
    }

    #[test]
    fn boolean_queries() {
        let ix = sample();
        let e = ContainsExpr::all_of(["SGML", "OODBMS"]).unwrap();
        assert_eq!(ix.docs_matching(&e), BTreeSet::from([2]));
        let o = ContainsExpr::Or(vec![
            ContainsExpr::pattern("SGML").unwrap(),
            ContainsExpr::pattern("database").unwrap(),
        ]);
        assert_eq!(ix.docs_matching(&o), BTreeSet::from([1, 2]));
        let n = ContainsExpr::Not(Box::new(ContainsExpr::pattern("SGML").unwrap()));
        assert_eq!(ix.docs_matching(&n), BTreeSet::from([1, 3]));
    }

    #[test]
    fn phrase_query_uses_positions() {
        let ix = sample();
        let e = ContainsExpr::pattern("complex object").unwrap();
        assert_eq!(ix.docs_matching(&e), BTreeSet::from([3]));
        // "objects the" crosses the `;` — still adjacent as words.
        assert_eq!(
            ix.phrase_docs(&["objects".into(), "the".into()]),
            BTreeSet::from([3])
        );
        assert!(ix
            .phrase_docs(&["object".into(), "queries".into()])
            .is_empty());
    }

    #[test]
    fn vocabulary_grep_for_patterns() {
        let ix = sample();
        let e = ContainsExpr::pattern("(d|D)ocument.*").unwrap();
        let docs = ix.docs_matching(&e);
        assert_eq!(docs, BTreeSet::from([1, 2]));
    }

    #[test]
    fn near_docs_respects_distance() {
        let ix = sample();
        assert_eq!(ix.near_docs("SGML", "OODBMS", 3), BTreeSet::from([2]));
        assert!(ix.near_docs("SGML", "OODBMS", 1).is_empty());
        assert_eq!(ix.near_docs("complex", "objects", 0), BTreeSet::from([3]));
    }

    #[test]
    fn incremental_add_appends_positions() {
        let mut ix = InvertedIndex::new();
        ix.add(7, "first part");
        ix.add(7, "second part");
        assert_eq!(ix.doc_count(), 1);
        assert_eq!(ix.positions(7, "part"), &[1, 3]);
        assert_eq!(
            ix.phrase_docs(&["second".into(), "part".into()]),
            BTreeSet::from([7])
        );
    }

    #[test]
    fn cloned_index_shares_postings_until_written() {
        let ix = sample();
        let mut fork = ix.clone();
        let shared = |a: &InvertedIndex, b: &InvertedIndex, w: &str, d: DocId| {
            Arc::ptr_eq(a.posting(d, w).unwrap(), b.posting(d, w).unwrap())
        };
        assert!(shared(&ix, &fork, "complex", 3), "clone shares positions");
        fork.add(3, "more complex text");
        assert!(
            !shared(&ix, &fork, "complex", 3),
            "append copy-on-writes the touched list"
        );
        assert_eq!(ix.positions(3, "complex"), &[2, 5], "original unchanged");
        assert_eq!(fork.positions(3, "complex"), &[2, 5, 9]);
        assert!(
            shared(&ix, &fork, "queries", 3),
            "untouched lists still shared"
        );
    }

    #[test]
    fn stats() {
        let ix = sample();
        assert_eq!(ix.doc_count(), 3);
        assert!(ix.term_count() > 10);
    }

    #[test]
    fn posting_lengths_and_word_totals() {
        let ix = sample();
        assert_eq!(ix.posting_doc_count("complex"), 1);
        assert_eq!(ix.posting_doc_count("SGML"), 1, "case folded");
        assert_eq!(ix.posting_doc_count("an"), 1, "per-doc, not per-occurrence");
        assert_eq!(ix.posting_doc_count("ghost"), 0);
        assert_eq!(ix.total_words(), 7 + 6 + 8);
    }
}
