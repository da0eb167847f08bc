//! Adversarial corpora for the cost-based planner: documents engineered so
//! the *heuristic* planner (textual conjunct order, fan-out-blind) provably
//! picks a bad plan while live statistics reveal the cheap one.
//!
//! Three skews, all deterministic in the seed:
//!
//! * **Skewed posting lengths** — every document repeats the common terms
//!   ([`COMMON_TERMS`]) in every paragraph, while [`RARE_TERM`] appears in
//!   only one in [`AdversarialParams::rare_period`] documents. A query
//!   whose `contains` conjuncts are written common-first costs the
//!   heuristic a near-full scan per conjunct; posting lengths order the
//!   rare predicate first.
//! * **Hot/cold path extents** — each document fans out through
//!   `sections × subsections × paragraphs` (the hot path, a huge extent)
//!   while `affil`/`acknowl` stay single-valued (cold). A query that walks
//!   the hot path before applying a selective document filter multiplies
//!   the filter by the fan-out; extent cardinalities tell the planner to
//!   filter first.
//! * **Deep-nesting classes** — every section takes the `subsectn+` branch
//!   of the Fig. 1 content model, so the hot path is also the deep one:
//!   each wasted document costs a whole subtree walk, not one step.

use crate::SeededRng;
use docql_sgml::{Document, Element, Node};

/// The selective term: planted in one in `rare_period` documents, once.
pub const RARE_TERM: &str = "quagga";

/// Terms present in (essentially) every document, many times — the long
/// postings the skew is measured against. They sit at the *end* of every
/// prose run (and nowhere in the filler vocabulary), so a common-term scan walks the
/// whole text just like a failing rare-term scan: the heuristic gets no
/// early-exit discount for evaluating the common predicates first.
pub const COMMON_TERMS: [&str; 3] = ["database", "structured", "documents"];

/// Filler vocabulary (no overlap with [`RARE_TERM`] or [`COMMON_TERMS`]).
const FILLER: &[&str] = &[
    "object",
    "query",
    "schema",
    "paths",
    "model",
    "markup",
    "elements",
    "nested",
    "systems",
    "algebra",
    "index",
    "retrieval",
];

/// Parameters for one adversarial corpus.
#[derive(Debug, Clone)]
pub struct AdversarialParams {
    /// Random seed (same seed → same corpus).
    pub seed: u64,
    /// Number of documents.
    pub docs: usize,
    /// One in this many documents carries [`RARE_TERM`] (0 = never).
    pub rare_period: usize,
    /// Sections per document (hot-path fan-out, first level).
    pub sections: usize,
    /// Subsections per section (second level; every section takes the
    /// deep `subsectn+` branch).
    pub subsections: usize,
    /// Paragraph bodies per subsection (third level).
    pub paragraphs: usize,
    /// Words per paragraph.
    pub paragraph_words: usize,
}

impl Default for AdversarialParams {
    fn default() -> AdversarialParams {
        AdversarialParams {
            seed: 1994,
            docs: 32,
            rare_period: 16,
            sections: 4,
            subsections: 3,
            paragraphs: 2,
            paragraph_words: 12,
        }
    }
}

impl AdversarialParams {
    /// Documents that carry [`RARE_TERM`] under these parameters.
    pub fn rare_doc_count(&self) -> usize {
        if self.rare_period == 0 {
            0
        } else {
            self.docs.div_ceil(self.rare_period)
        }
    }
}

fn text_elem(name: &str, text: String) -> Element {
    Element {
        name: name.to_string(),
        attrs: Vec::new(),
        children: vec![Node::Text(text)],
    }
}

/// A paragraph of filler prose ending with all of [`COMMON_TERMS`].
fn prose(rng: &mut SeededRng, words: usize) -> String {
    let mut out = String::new();
    for _ in 0..words {
        out.push_str(FILLER[rng.gen_range(0..FILLER.len())]);
        out.push(' ');
    }
    out.push_str(&COMMON_TERMS.join(" "));
    out
}

/// Generate document `i` of the corpus described by `params`.
pub fn generate_adversarial(params: &AdversarialParams, i: usize) -> Document {
    let mut rng = SeededRng::seed_from_u64(params.seed.wrapping_add(i as u64));
    let rare = params.rare_period != 0 && i.is_multiple_of(params.rare_period);
    let mut root = Element::new("article");
    root.attrs.push(("status".to_string(), "draft".to_string()));
    root.children.push(Node::Element(text_elem(
        "title",
        format!("Adversarial {i}: {}", prose(&mut rng, 3)),
    )));
    root.children
        .push(Node::Element(text_elem("author", format!("Author {i}"))));
    root.children
        .push(Node::Element(text_elem("affil", "I.N.R.I.A.".to_string())));
    // The rare term lives in the abstract — one short, document-level
    // field — so the selective predicate never needs the deep subtree.
    let mut abstract_text = prose(&mut rng, params.paragraph_words);
    if rare {
        abstract_text.push(' ');
        abstract_text.push_str(RARE_TERM);
    }
    root.children
        .push(Node::Element(text_elem("abstract", abstract_text)));

    for s in 0..params.sections.max(1) {
        let mut section = Element::new("section");
        section.children.push(Node::Element(text_elem(
            "title",
            format!("Section {s}: {}", prose(&mut rng, 2)),
        )));
        // One labelled figure per section, referenced by its paragraphs.
        let label = format!("adv{i}-{s}");
        let mut figure = Element::new("figure");
        figure.attrs.push(("label".to_string(), label.clone()));
        figure.children.push(Node::Element(Element::new("picture")));
        let mut fig_body = Element::new("body");
        fig_body.children.push(Node::Element(figure));
        section.children.push(Node::Element(fig_body));
        // Deep branch always: title, body*, subsectn+.
        for ss in 0..params.subsections.max(1) {
            let mut sub = Element::new("subsectn");
            sub.children.push(Node::Element(text_elem(
                "title",
                format!("Subsection {s}.{ss}"),
            )));
            for _ in 0..params.paragraphs.max(1) {
                let mut p = text_elem("paragr", prose(&mut rng, params.paragraph_words));
                p.attrs.push(("reflabel".to_string(), label.clone()));
                let mut b = Element::new("body");
                b.children.push(Node::Element(p));
                sub.children.push(Node::Element(b));
            }
            section.children.push(Node::Element(sub));
        }
        root.children.push(Node::Element(section));
    }
    root.children.push(Node::Element(text_elem(
        "acknowl",
        "Adversarial corpus document.".to_string(),
    )));
    Document { root }
}

/// The whole corpus as document trees, in index order.
pub fn adversarial_corpus(params: &AdversarialParams) -> Vec<Document> {
    (0..params.docs)
        .map(|i| generate_adversarial(params, i))
        .collect()
}

/// The whole corpus as SGML texts (for batch ingest).
pub fn adversarial_sgml(params: &AdversarialParams) -> Vec<String> {
    (0..params.docs)
        .map(|i| generate_adversarial(params, i).to_sgml())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use docql_sgml::{validate, Dtd};

    #[test]
    fn adversarial_docs_are_valid_and_deterministic() {
        let dtd = Dtd::parse(docql_sgml::fixtures::ARTICLE_DTD).unwrap();
        let params = AdversarialParams {
            docs: 8,
            ..AdversarialParams::default()
        };
        for (i, doc) in adversarial_corpus(&params).iter().enumerate() {
            let errs = validate(doc, &dtd);
            assert!(errs.is_empty(), "doc {i}: {errs:?}");
            assert_eq!(doc, &generate_adversarial(&params, i), "doc {i} replays");
        }
    }

    #[test]
    fn rare_term_is_skewed_and_common_terms_are_not() {
        let params = AdversarialParams {
            docs: 32,
            rare_period: 16,
            ..AdversarialParams::default()
        };
        let corpus = adversarial_corpus(&params);
        let with_rare = corpus
            .iter()
            .filter(|d| d.root.text_content().contains(RARE_TERM))
            .count();
        assert_eq!(with_rare, params.rare_doc_count());
        assert_eq!(with_rare, 2, "docs 0 and 16");
        for term in COMMON_TERMS {
            let with_common = corpus
                .iter()
                .filter(|d| d.root.text_content().contains(term))
                .count();
            assert_eq!(with_common, params.docs, "{term} is in every document");
        }
    }

    #[test]
    fn hot_path_fans_out_and_nests_deep() {
        let params = AdversarialParams::default();
        let doc = generate_adversarial(&params, 1);
        let mut subs = Vec::new();
        doc.root.find_all("subsectn", &mut subs);
        assert_eq!(subs.len(), params.sections * params.subsections);
        let mut paras = Vec::new();
        doc.root.find_all("paragr", &mut paras);
        assert_eq!(
            paras.len(),
            params.sections * params.subsections * params.paragraphs
        );
    }
}
