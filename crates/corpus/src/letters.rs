//! Synthetic letters for the §4.4/Q6 ordered-tuple experiments.

use crate::SeededRng;
use docql_sgml::{Document, Element, Node};

const PEOPLE: &[&str] = &[
    "alice", "bob", "carol", "dan", "erin", "frank", "grace", "heidi",
];

/// Parameters for one letter.
#[derive(Debug, Clone)]
pub struct LetterParams {
    /// Random seed.
    pub seed: u64,
    /// Force the preamble order: `Some(true)` = sender (`from`) first,
    /// `Some(false)` = recipient (`to`) first, `None` = random.
    pub sender_first: Option<bool>,
    /// Number of paragraphs.
    pub paras: usize,
}

impl Default for LetterParams {
    fn default() -> LetterParams {
        LetterParams {
            seed: 7,
            sender_first: None,
            paras: 2,
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

/// Generate one letter (valid against [`docql_sgml::fixtures::LETTER_DTD`]).
pub fn generate_letter(params: &LetterParams) -> Document {
    let mut rng = SeededRng::seed_from_u64(params.seed);
    let from = PEOPLE[rng.gen_range(0..PEOPLE.len())];
    let mut to = PEOPLE[rng.gen_range(0..PEOPLE.len())];
    while to == from {
        to = PEOPLE[rng.gen_range(0..PEOPLE.len())];
    }
    let sender_first = params.sender_first.unwrap_or_else(|| rng.gen_bool(0.5));
    let mut preamble = Element::new("preamble");
    let from_elem = text_elem("from", from.to_string());
    let to_elem = text_elem("to", to.to_string());
    if sender_first {
        preamble.children.push(Node::Element(from_elem));
        preamble.children.push(Node::Element(to_elem));
    } else {
        preamble.children.push(Node::Element(to_elem));
        preamble.children.push(Node::Element(from_elem));
    }
    let mut root = Element::new("letter");
    root.children.push(Node::Element(preamble));
    root.children.push(Node::Element(text_elem(
        "subject",
        format!("Letter {} from {from} to {to}", params.seed),
    )));
    for p in 0..params.paras.max(1) {
        root.children.push(Node::Element(text_elem(
            "para",
            format!("Paragraph {p} of letter {}.", params.seed),
        )));
    }
    Document { root }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docql_sgml::{validate, Dtd};

    #[test]
    fn letters_are_valid() {
        let dtd = Dtd::parse(docql_sgml::fixtures::LETTER_DTD).unwrap();
        for seed in 0..10 {
            let doc = generate_letter(&LetterParams {
                seed,
                ..LetterParams::default()
            });
            let errs = validate(&doc, &dtd);
            assert!(errs.is_empty(), "seed {seed}: {errs:?}");
        }
    }

    #[test]
    fn order_is_controllable() {
        let f = generate_letter(&LetterParams {
            sender_first: Some(true),
            ..LetterParams::default()
        });
        let kids: Vec<&str> = f
            .root
            .find("preamble")
            .unwrap()
            .child_elements()
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(kids, vec!["from", "to"]);
        let t = generate_letter(&LetterParams {
            sender_first: Some(false),
            ..LetterParams::default()
        });
        let kids: Vec<&str> = t
            .root
            .find("preamble")
            .unwrap()
            .child_elements()
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(kids, vec!["to", "from"]);
    }

    #[test]
    fn sender_and_recipient_differ() {
        for seed in 0..20 {
            let doc = generate_letter(&LetterParams {
                seed,
                ..LetterParams::default()
            });
            let from = doc.root.find("from").unwrap().text_content();
            let to = doc.root.find("to").unwrap().text_content();
            assert_ne!(from, to);
        }
    }
}
