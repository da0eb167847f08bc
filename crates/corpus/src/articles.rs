//! Synthetic articles valid against the paper's Fig. 1 DTD.

use crate::SeededRng;
use docql_sgml::{Document, Element, Node};

/// Vocabulary for generated prose (database-paper flavoured, so textual
/// queries like `contains "SGML"` have non-trivial selectivity).
const WORDS: &[&str] = &[
    "structured",
    "documents",
    "can",
    "benefit",
    "from",
    "database",
    "support",
    "object",
    "oriented",
    "management",
    "systems",
    "query",
    "languages",
    "provide",
    "pattern",
    "matching",
    "facilities",
    "logical",
    "structure",
    "hierarchical",
    "elements",
    "attributes",
    "schema",
    "instances",
    "paths",
    "navigation",
    "retrieval",
    "indexing",
    "textual",
    "data",
    "model",
    "types",
    "union",
    "tuples",
    "lists",
    "ordered",
    "markup",
    "standard",
    "exchange",
];

/// Phrases planted with known probability so tests can predict answers.
const PLANTS: &[&str] = &["SGML", "OODBMS", "complex object", "HyTime"];

/// Generation parameters for one article.
#[derive(Debug, Clone)]
pub struct ArticleParams {
    /// Random seed (same seed → same document).
    pub seed: u64,
    /// Number of sections.
    pub sections: usize,
    /// Number of subsections per section that has them (every third section
    /// takes the subsection branch of the content model).
    pub subsections: usize,
    /// Number of authors.
    pub authors: usize,
    /// Words per paragraph.
    pub paragraph_words: usize,
    /// Plant the phrase pair "SGML"+"OODBMS" into section titles with
    /// period `n` (every n-th section; 0 = never).
    pub plant_every: usize,
}

impl Default for ArticleParams {
    fn default() -> ArticleParams {
        ArticleParams {
            seed: 42,
            sections: 5,
            subsections: 2,
            authors: 3,
            paragraph_words: 30,
            plant_every: 3,
        }
    }
}

fn words(rng: &mut SeededRng, n: usize) -> String {
    let mut out = String::new();
    for i in 0..n {
        if i > 0 {
            out.push(' ');
        }
        if rng.gen_range(0..12) == 0 {
            out.push_str(PLANTS[rng.gen_range(0..PLANTS.len())]);
        } else {
            out.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
        }
    }
    out
}

fn text_elem(name: &str, text: String) -> Element {
    Element {
        name: name.to_string(),
        attrs: Vec::new(),
        children: vec![Node::Text(text)],
    }
}

/// Generate one article as a document tree (already valid: no parsing
/// needed; `docql_sgml::validate` agrees by construction).
pub fn generate_article(params: &ArticleParams) -> Document {
    let mut rng = SeededRng::seed_from_u64(params.seed);
    let mut root = Element::new("article");
    root.attrs.push((
        "status".to_string(),
        if rng.gen_range(0..4) == 0 {
            "final"
        } else {
            "draft"
        }
        .to_string(),
    ));
    root.children.push(Node::Element(text_elem(
        "title",
        format!("Article {} on {}", params.seed, words(&mut rng, 4)),
    )));
    for a in 0..params.authors.max(1) {
        root.children.push(Node::Element(text_elem(
            "author",
            format!("Author {}.{}", params.seed, a),
        )));
    }
    root.children
        .push(Node::Element(text_elem("affil", "I.N.R.I.A.".to_string())));
    // A rare marker every tenth seed, giving text benches a selective term.
    let mut abstract_text = words(&mut rng, params.paragraph_words);
    if params.seed.is_multiple_of(10) {
        abstract_text.push_str(" zanzibar");
    }
    root.children
        .push(Node::Element(text_elem("abstract", abstract_text)));

    let mut label_counter = 0usize;
    for s in 0..params.sections.max(1) {
        let mut section = Element::new("section");
        let title = if params.plant_every != 0 && s % params.plant_every == 0 {
            format!("Section {s}: from SGML documents to an OODBMS")
        } else {
            format!("Section {s}: {}", words(&mut rng, 3))
        };
        section
            .children
            .push(Node::Element(text_elem("title", title)));
        let with_subsections = params.subsections > 0 && s % 3 == 2;
        // One figure (with an ID) per section so IDREFs resolve locally.
        label_counter += 1;
        let label = format!("fig{}-{}", params.seed, label_counter);
        let mut figure = Element::new("figure");
        figure.attrs.push(("label".to_string(), label.clone()));
        figure.children.push(Node::Element(Element::new("picture")));
        figure
            .children
            .push(Node::Element(text_elem("caption", words(&mut rng, 5))));
        let mut fig_body = Element::new("body");
        fig_body.children.push(Node::Element(figure));
        section.children.push(Node::Element(fig_body));
        let mk_para_body = |rng: &mut SeededRng, label: &str| {
            let mut p = text_elem("paragr", words(rng, params.paragraph_words));
            p.attrs.push(("reflabel".to_string(), label.to_string()));
            let mut b = Element::new("body");
            b.children.push(Node::Element(p));
            b
        };
        if with_subsections {
            // Branch a2: title, body*, subsectn+.
            for ss in 0..params.subsections {
                let mut sub = Element::new("subsectn");
                sub.children.push(Node::Element(text_elem(
                    "title",
                    format!("Subsection {s}.{ss}: {}", words(&mut rng, 2)),
                )));
                sub.children
                    .push(Node::Element(mk_para_body(&mut rng, &label)));
                section.children.push(Node::Element(sub));
            }
        } else {
            // Branch a1: title, body+.
            section
                .children
                .push(Node::Element(mk_para_body(&mut rng, &label)));
        }
        root.children.push(Node::Element(section));
    }
    root.children.push(Node::Element(text_elem(
        "acknowl",
        "Generated corpus document.".to_string(),
    )));
    Document { root }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docql_sgml::{validate, Dtd};

    #[test]
    fn generated_articles_are_valid() {
        let dtd = Dtd::parse(docql_sgml::fixtures::ARTICLE_DTD).unwrap();
        for seed in 0..10 {
            let doc = generate_article(&ArticleParams {
                seed,
                sections: 7,
                ..ArticleParams::default()
            });
            let errs = validate(&doc, &dtd);
            assert!(errs.is_empty(), "seed {seed}: {errs:?}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = ArticleParams::default();
        assert_eq!(generate_article(&p), generate_article(&p));
        let p2 = ArticleParams { seed: 43, ..p };
        assert_ne!(
            generate_article(&ArticleParams::default()),
            generate_article(&p2)
        );
    }

    #[test]
    fn planting_controls_section_titles() {
        let doc = generate_article(&ArticleParams {
            sections: 6,
            plant_every: 2,
            ..ArticleParams::default()
        });
        let mut sections = Vec::new();
        doc.root.find_all("section", &mut sections);
        let planted = sections
            .iter()
            .filter(|s| {
                let t = s.find("title").unwrap().text_content();
                t.contains("SGML") && t.contains("OODBMS")
            })
            .count();
        assert_eq!(planted, 3, "sections 0, 2, 4");
    }

    #[test]
    fn subsection_sections_take_branch_a2() {
        let doc = generate_article(&ArticleParams {
            sections: 6,
            subsections: 2,
            ..ArticleParams::default()
        });
        let mut subs = Vec::new();
        doc.root.find_all("subsectn", &mut subs);
        assert_eq!(subs.len(), 4, "sections 2 and 5 carry 2 subsections each");
    }

    #[test]
    fn scales_with_parameters() {
        let small = generate_article(&ArticleParams {
            sections: 2,
            ..ArticleParams::default()
        });
        let large = generate_article(&ArticleParams {
            sections: 40,
            ..ArticleParams::default()
        });
        assert!(large.root.subtree_size() > small.root.subtree_size() * 5);
    }
}
