//! The `contains` predicate: a pattern or a boolean combination of patterns
//! (§4.1, query Q1: `s.title contains ("SGML" and "OODBMS")`).

use crate::nfa::Nfa;
use crate::pattern::{Pattern, PatternError};

/// A `contains` operand: boolean combination of patterns.
#[derive(Debug, Clone, PartialEq)]
pub enum ContainsExpr {
    /// A single pattern.
    Pattern(Pattern),
    /// All must occur.
    And(Vec<ContainsExpr>),
    /// At least one must occur.
    Or(Vec<ContainsExpr>),
    /// Must not occur.
    Not(Box<ContainsExpr>),
}

impl ContainsExpr {
    /// A single-pattern expression parsed from pattern syntax.
    pub fn pattern(src: &str) -> Result<ContainsExpr, PatternError> {
        Ok(ContainsExpr::Pattern(Pattern::parse(src)?))
    }

    /// All the words (patterns), conjoined.
    pub fn all_of<I: IntoIterator<Item = S>, S: AsRef<str>>(
        pats: I,
    ) -> Result<ContainsExpr, PatternError> {
        let items = pats
            .into_iter()
            .map(|p| ContainsExpr::pattern(p.as_ref()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ContainsExpr::And(items))
    }

    /// Compile to a [`ContainsMatcher`] for repeated evaluation.
    pub fn compile(&self) -> ContainsMatcher {
        ContainsMatcher {
            node: compile_node(self),
        }
    }

    /// One-shot evaluation.
    pub fn eval(&self, text: &str) -> bool {
        self.compile().eval(text)
    }

    /// Is every pattern leaf a plain literal (words/phrases, no regex
    /// operators)? For such expressions the positional inverted index
    /// answers *exactly* — no re-check against stored text is needed.
    pub fn is_word_exact(&self) -> bool {
        match self {
            ContainsExpr::Pattern(p) => is_literal(p),
            ContainsExpr::And(items) | ContainsExpr::Or(items) => {
                items.iter().all(ContainsExpr::is_word_exact)
            }
            ContainsExpr::Not(inner) => inner.is_word_exact(),
        }
    }

    /// The positive patterns mentioned (used by index-accelerated search to
    /// prefilter candidate documents).
    pub fn positive_patterns(&self, out: &mut Vec<Pattern>) {
        match self {
            ContainsExpr::Pattern(p) => out.push(p.clone()),
            ContainsExpr::And(items) | ContainsExpr::Or(items) => {
                for i in items {
                    i.positive_patterns(out);
                }
            }
            ContainsExpr::Not(_) => {}
        }
    }
}

/// Is `p` a plain literal: characters in sequence, no regex operator?
fn is_literal(p: &Pattern) -> bool {
    match p {
        Pattern::Empty | Pattern::Char(_) => true,
        Pattern::Concat(items) => items.iter().all(is_literal),
        _ => false,
    }
}

/// Append the text of the literal `p` to `out`.
fn push_literal(p: &Pattern, out: &mut String) {
    match p {
        Pattern::Char(c) => out.push(*c),
        Pattern::Concat(items) => items.iter().for_each(|i| push_literal(i, out)),
        _ => {}
    }
}

#[derive(Debug, Clone)]
enum Node {
    /// A plain literal, found by substring search.
    Literal(String),
    Matcher(Nfa),
    And(Vec<Node>),
    Or(Vec<Node>),
    Not(Box<Node>),
}

fn compile_node(e: &ContainsExpr) -> Node {
    match e {
        ContainsExpr::Pattern(p) if is_literal(p) => {
            let mut text = String::new();
            push_literal(p, &mut text);
            Node::Literal(text)
        }
        ContainsExpr::Pattern(p) => Node::Matcher(Nfa::compile(p)),
        ContainsExpr::And(items) => Node::And(items.iter().map(compile_node).collect()),
        ContainsExpr::Or(items) => Node::Or(items.iter().map(compile_node).collect()),
        ContainsExpr::Not(inner) => Node::Not(Box::new(compile_node(inner))),
    }
}

/// A compiled `contains` expression: a plain-literal pattern is a
/// substring search, any other pattern a Thompson NFA.
#[derive(Debug, Clone)]
pub struct ContainsMatcher {
    node: Node,
}

impl ContainsMatcher {
    /// Evaluate against a text.
    pub fn eval(&self, text: &str) -> bool {
        eval_node(&self.node, text)
    }

    /// Evaluate under execution governance: charges [`scan_fuel`] for the
    /// text up front and returns `None` — without scanning — when the guard
    /// trips, so callers can distinguish "over budget" from a match verdict.
    pub fn eval_guarded(&self, text: &str, guard: Option<&docql_guard::Guard>) -> Option<bool> {
        if let Some(g) = guard {
            if g.fuel(scan_fuel(text)).interrupted() {
                return None;
            }
        }
        Some(eval_node(&self.node, text))
    }
}

/// Fuel cost of one pattern scan over `text`: a unit per 64 bytes, minimum
/// one. Scans charge *before* matching, so a tripped guard skips the work.
pub fn scan_fuel(text: &str) -> u64 {
    (text.len() as u64 / 64).max(1)
}

fn eval_node(n: &Node, text: &str) -> bool {
    match n {
        Node::Literal(lit) => text.contains(lit.as_str()),
        Node::Matcher(nfa) => nfa.is_match(text),
        Node::And(items) => items.iter().all(|i| eval_node(i, text)),
        Node::Or(items) => items.iter().any(|i| eval_node(i, text)),
        Node::Not(inner) => !eval_node(inner, text),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q1_style_conjunction() {
        let e = ContainsExpr::all_of(["SGML", "OODBMS"]).unwrap();
        assert!(e.eval("mapping SGML documents into an OODBMS"));
        assert!(!e.eval("mapping SGML documents into files"));
        assert!(!e.eval("an OODBMS alone"));
    }

    #[test]
    fn disjunction_and_negation() {
        let e = ContainsExpr::Or(vec![
            ContainsExpr::pattern("cat").unwrap(),
            ContainsExpr::pattern("dog").unwrap(),
        ]);
        assert!(e.eval("raining cats"));
        assert!(e.eval("a dog"));
        assert!(!e.eval("a bird"));
        let n = ContainsExpr::Not(Box::new(e));
        assert!(n.eval("a bird"));
        assert!(!n.eval("a dog"));
    }

    #[test]
    fn patterns_not_just_words() {
        let e = ContainsExpr::pattern("(t|T)itle").unwrap();
        assert!(e.eval("the Title"));
        assert!(e.eval("subtitle"));
        assert!(!e.eval("TITLE"));
    }

    #[test]
    fn positive_patterns_skip_negations() {
        let e = ContainsExpr::And(vec![
            ContainsExpr::pattern("a").unwrap(),
            ContainsExpr::Not(Box::new(ContainsExpr::pattern("b").unwrap())),
        ]);
        let mut pats = Vec::new();
        e.positive_patterns(&mut pats);
        assert_eq!(pats.len(), 1);
    }

    #[test]
    fn literal_patterns_compile_to_a_substring_search() {
        let literal = |src: &str| {
            let node = ContainsExpr::pattern(src).unwrap().compile().node;
            match node {
                Node::Literal(text) => Some(text),
                _ => None,
            }
        };
        assert_eq!(literal("draft").as_deref(), Some("draft"));
        assert_eq!(literal("").as_deref(), Some(""));
        assert_eq!(literal(r"a\.b\(").as_deref(), Some("a.b("));
        assert_eq!(literal("(t|T)itle"), None);
        assert_eq!(literal("a.b"), None);
        let m = ContainsExpr::pattern("é€").unwrap().compile();
        assert!(m.eval("café€s"));
        assert!(!m.eval("cafe€"));
        assert!(ContainsExpr::pattern("").unwrap().eval(""));
    }

    #[test]
    fn compiled_matcher_reusable() {
        let m = ContainsExpr::all_of(["complex object"]).unwrap().compile();
        assert!(m.eval("queries over complex objects"));
        assert!(!m.eval("simple values"));
    }
}
