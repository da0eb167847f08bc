//! Content models and their matching machinery.
//!
//! Two engines over the same model:
//!
//! * **Brzozowski derivatives** ([`Rx`]) give incremental acceptance — the
//!   document parser keeps, per open element, the derivative of its content
//!   model by the children seen so far. This answers in O(model) time the
//!   questions tag-omission inference needs: *can this element accept label
//!   `l` next?* and *is the content complete?*
//! * A **backtracking matcher** ([`match_children`]) produces a [`MatchNode`]
//!   parse of a completed child sequence against the model. The SGML→O₂
//!   mapping uses the match tree to decide which choice branch was taken
//!   (→ which union marker) and which children belong to which `+`/`*`
//!   group (→ which list attribute).
//!
//! The `&` connector (unordered aggregation) is expanded into a choice of
//! permutations, capped at [`MAX_AND_GROUP`] operands.

use crate::error::{ErrorKind, Result, SgmlError};
use std::fmt;
use std::rc::Rc;

/// Maximum operands of an `&` group before permutation expansion is refused.
pub const MAX_AND_GROUP: usize = 5;

/// Occurrence indicators `?`, `+`, `*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Occurrence {
    /// `?` — zero or one.
    Opt,
    /// `+` — one or more.
    Plus,
    /// `*` — zero or more.
    Star,
}

impl fmt::Display for Occurrence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Occurrence::Opt => "?",
            Occurrence::Plus => "+",
            Occurrence::Star => "*",
        })
    }
}

/// A content expression (the inside of a model group).
#[derive(Debug, Clone, PartialEq)]
pub enum ContentExpr {
    /// `#PCDATA`.
    Pcdata,
    /// Reference to an element.
    Ref(String),
    /// Ordered aggregation `a, b, c`.
    Seq(Vec<ContentExpr>),
    /// Unordered aggregation `a & b`.
    And(Vec<ContentExpr>),
    /// Choice `a | b`.
    Choice(Vec<ContentExpr>),
    /// `expr?`, `expr+`, `expr*`.
    Occur(Box<ContentExpr>, Occurrence),
}

/// Declared content of an element.
#[derive(Debug, Clone, PartialEq)]
pub enum ContentModel {
    /// `EMPTY` — no content, no end tag.
    Empty,
    /// `ANY` — any sequence of declared elements and text.
    Any,
    /// `(#PCDATA)` — character data only.
    Pcdata,
    /// A model group.
    Model(ContentExpr),
}

impl fmt::Display for ContentExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn group(f: &mut fmt::Formatter<'_>, items: &[ContentExpr], sep: &str) -> fmt::Result {
            f.write_str("(")?;
            for (i, e) in items.iter().enumerate() {
                if i > 0 {
                    f.write_str(sep)?;
                }
                write!(f, "{e}")?;
            }
            f.write_str(")")
        }
        match self {
            ContentExpr::Pcdata => f.write_str("#PCDATA"),
            ContentExpr::Ref(n) => f.write_str(n),
            ContentExpr::Seq(items) => group(f, items, ", "),
            ContentExpr::And(items) => group(f, items, " & "),
            ContentExpr::Choice(items) => group(f, items, " | "),
            ContentExpr::Occur(e, o) => match e.as_ref() {
                ContentExpr::Ref(_) | ContentExpr::Pcdata => write!(f, "{e}{o}"),
                _ => write!(f, "{e}{o}"),
            },
        }
    }
}

impl fmt::Display for ContentModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContentModel::Empty => f.write_str("EMPTY"),
            ContentModel::Any => f.write_str("ANY"),
            ContentModel::Pcdata => f.write_str("(#PCDATA)"),
            ContentModel::Model(e) => match e {
                ContentExpr::Seq(_) | ContentExpr::And(_) | ContentExpr::Choice(_) => {
                    write!(f, "{e}")
                }
                other => write!(f, "({other})"),
            },
        }
    }
}

/// A symbol of the content alphabet: a child element or character data.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Label {
    /// A child element with this name.
    Elem(String),
    /// A run of character data.
    Text,
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Elem(n) => f.write_str(n),
            Label::Text => f.write_str("#PCDATA"),
        }
    }
}

// ---------------------------------------------------------------------------
// Derivative engine
// ---------------------------------------------------------------------------

/// A regular expression over [`Label`]s in simplified form: the invariant is
/// that `Fail` never appears under a constructor and `Eps` never appears in a
/// `Seq`, so "language is empty" ⇔ "expression is `Fail`".
#[derive(Debug, Clone, PartialEq)]
pub enum Rx {
    /// The empty language ⊥.
    Fail,
    /// The empty word ε.
    Eps,
    /// A single label.
    Sym(Label),
    /// Concatenation.
    Seq(Vec<Rc<Rx>>),
    /// Alternation.
    Alt(Vec<Rc<Rx>>),
    /// Kleene closure.
    Star(Rc<Rx>),
}

impl Rx {
    /// Smart concatenation.
    fn seq(items: Vec<Rc<Rx>>) -> Rc<Rx> {
        let mut out: Vec<Rc<Rx>> = Vec::with_capacity(items.len());
        for item in items {
            match item.as_ref() {
                Rx::Fail => return Rc::new(Rx::Fail),
                Rx::Eps => {}
                Rx::Seq(inner) => out.extend(inner.iter().cloned()),
                _ => out.push(item),
            }
        }
        if out.len() > 1 {
            Rc::new(Rx::Seq(out))
        } else {
            out.pop().unwrap_or_else(|| Rc::new(Rx::Eps))
        }
    }

    /// Smart alternation.
    fn alt(items: Vec<Rc<Rx>>) -> Rc<Rx> {
        let mut out: Vec<Rc<Rx>> = Vec::with_capacity(items.len());
        for item in items {
            match item.as_ref() {
                Rx::Fail => {}
                Rx::Alt(inner) => {
                    for i in inner {
                        if !out.iter().any(|o| o == i) {
                            out.push(i.clone());
                        }
                    }
                }
                _ => {
                    if !out.iter().any(|o| o.as_ref() == item.as_ref()) {
                        out.push(item);
                    }
                }
            }
        }
        if out.len() > 1 {
            Rc::new(Rx::Alt(out))
        } else {
            out.pop().unwrap_or_else(|| Rc::new(Rx::Fail))
        }
    }

    /// Smart star.
    fn star(item: Rc<Rx>) -> Rc<Rx> {
        match item.as_ref() {
            Rx::Fail | Rx::Eps => Rc::new(Rx::Eps),
            Rx::Star(_) => item,
            _ => Rc::new(Rx::Star(item)),
        }
    }

    /// Does the language contain ε?
    pub fn nullable(&self) -> bool {
        match self {
            Rx::Fail => false,
            Rx::Eps => true,
            Rx::Sym(_) => false,
            Rx::Seq(items) => items.iter().all(|i| i.nullable()),
            Rx::Alt(items) => items.iter().any(|i| i.nullable()),
            Rx::Star(_) => true,
        }
    }

    /// Is the language empty? (By the smart-constructor invariant, only
    /// `Fail` denotes the empty language.)
    pub fn is_fail(&self) -> bool {
        matches!(self, Rx::Fail)
    }

    /// Brzozowski derivative with respect to `label`.
    pub fn derive(&self, label: &Label) -> Rc<Rx> {
        match self {
            Rx::Fail | Rx::Eps => Rc::new(Rx::Fail),
            Rx::Sym(l) => {
                if l == label {
                    Rc::new(Rx::Eps)
                } else {
                    Rc::new(Rx::Fail)
                }
            }
            Rx::Seq(items) => {
                // d(r₁ r₂ … ) = d(r₁) r₂ … | [r₁ nullable] d(r₂ …) …
                let mut alts = Vec::new();
                for (i, item) in items.iter().enumerate() {
                    let mut seq = vec![item.derive(label)];
                    seq.extend(items[i + 1..].iter().cloned());
                    alts.push(Rx::seq(seq));
                    if !item.nullable() {
                        break;
                    }
                }
                Rx::alt(alts)
            }
            Rx::Alt(items) => Rx::alt(items.iter().map(|i| i.derive(label)).collect()),
            Rx::Star(inner) => Rx::seq(vec![inner.derive(label), Rx::star(inner.clone())]),
        }
    }

    /// The labels on which the derivative is non-empty (the "next expected"
    /// set), used for implicit-start-tag inference and error messages.
    pub fn next_labels(&self, out: &mut Vec<Label>) {
        match self {
            Rx::Fail | Rx::Eps => {}
            Rx::Sym(l) => {
                if !out.contains(l) {
                    out.push(l.clone());
                }
            }
            Rx::Seq(items) => {
                for item in items {
                    item.next_labels(out);
                    if !item.nullable() {
                        break;
                    }
                }
            }
            Rx::Alt(items) => {
                for item in items {
                    item.next_labels(out);
                }
            }
            Rx::Star(inner) => inner.next_labels(out),
        }
    }
}

/// Expand `&` groups into choices of permuted sequences, so the derivative
/// and matcher engines only see `,`/`|` structure.
pub fn expand_and(expr: &ContentExpr) -> Result<ContentExpr> {
    Ok(match expr {
        ContentExpr::Pcdata | ContentExpr::Ref(_) => expr.clone(),
        ContentExpr::Seq(items) => {
            ContentExpr::Seq(items.iter().map(expand_and).collect::<Result<Vec<_>>>()?)
        }
        ContentExpr::Choice(items) => {
            ContentExpr::Choice(items.iter().map(expand_and).collect::<Result<Vec<_>>>()?)
        }
        ContentExpr::Occur(inner, occ) => ContentExpr::Occur(Box::new(expand_and(inner)?), *occ),
        ContentExpr::And(items) => {
            if items.len() > MAX_AND_GROUP {
                return Err(SgmlError::nowhere(ErrorKind::AndGroupTooLarge {
                    size: items.len(),
                    max: MAX_AND_GROUP,
                }));
            }
            let expanded: Vec<ContentExpr> =
                items.iter().map(expand_and).collect::<Result<Vec<_>>>()?;
            let mut alts = Vec::new();
            permute(
                &expanded,
                &mut Vec::new(),
                &mut vec![false; expanded.len()],
                &mut alts,
            );
            ContentExpr::Choice(alts)
        }
    })
}

fn permute(
    items: &[ContentExpr],
    current: &mut Vec<ContentExpr>,
    used: &mut Vec<bool>,
    out: &mut Vec<ContentExpr>,
) {
    if current.len() == items.len() {
        out.push(ContentExpr::Seq(current.clone()));
        return;
    }
    for i in 0..items.len() {
        if !used[i] {
            used[i] = true;
            current.push(items[i].clone());
            permute(items, current, used, out);
            current.pop();
            used[i] = false;
        }
    }
}

/// Compile a content model to its derivative form. `Any` compiles to
/// `(l₁ | l₂ | … | #PCDATA)*` over the supplied element alphabet.
pub fn compile(model: &ContentModel, alphabet: &[String]) -> Result<Rc<Rx>> {
    Ok(match model {
        ContentModel::Empty => Rc::new(Rx::Eps),
        ContentModel::Pcdata => Rx::star(Rc::new(Rx::Sym(Label::Text))),
        ContentModel::Any => {
            let mut alts: Vec<Rc<Rx>> = alphabet
                .iter()
                .map(|n| Rc::new(Rx::Sym(Label::Elem(n.clone()))))
                .collect();
            alts.push(Rc::new(Rx::Sym(Label::Text)));
            Rx::star(Rx::alt(alts))
        }
        ContentModel::Model(expr) => compile_expr(&expand_and(expr)?),
    })
}

fn compile_expr(expr: &ContentExpr) -> Rc<Rx> {
    match expr {
        ContentExpr::Pcdata => Rx::star(Rc::new(Rx::Sym(Label::Text))),
        ContentExpr::Ref(n) => Rc::new(Rx::Sym(Label::Elem(n.clone()))),
        ContentExpr::Seq(items) => Rx::seq(items.iter().map(compile_expr).collect()),
        ContentExpr::Choice(items) => Rx::alt(items.iter().map(compile_expr).collect()),
        ContentExpr::And(_) => unreachable!("expand_and removes & groups"),
        ContentExpr::Occur(inner, occ) => {
            let r = compile_expr(inner);
            match occ {
                Occurrence::Opt => Rx::alt(vec![Rc::new(Rx::Eps), r]),
                Occurrence::Star => Rx::star(r),
                Occurrence::Plus => Rx::seq(vec![r.clone(), Rx::star(r)]),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Backtracking matcher with parse trees
// ---------------------------------------------------------------------------

/// A parse of a child sequence against a content expression.
#[derive(Debug, Clone, PartialEq)]
pub enum MatchNode {
    /// Matched the child at this index (element or text run).
    Child(usize),
    /// Matched ε.
    Empty,
    /// One node per member of a `Seq`.
    Seq(Vec<MatchNode>),
    /// `Choice`: which alternative (index into the choice) and its parse.
    Choice(usize, Box<MatchNode>),
    /// `Occur`: the matched instances (empty for `?`/`*` taken zero times).
    Repeat(Vec<MatchNode>),
    /// `And`: operand parses in *matched* order as `(operand index, parse)`.
    And(Vec<(usize, MatchNode)>),
}

impl MatchNode {
    /// Collect, in order, the child indices covered by this parse.
    pub fn child_indices(&self, out: &mut Vec<usize>) {
        match self {
            MatchNode::Child(i) => out.push(*i),
            MatchNode::Empty => {}
            MatchNode::Seq(items) | MatchNode::Repeat(items) => {
                for m in items {
                    m.child_indices(out);
                }
            }
            MatchNode::Choice(_, inner) => inner.child_indices(out),
            MatchNode::And(items) => {
                for (_, m) in items {
                    m.child_indices(out);
                }
            }
        }
    }
}

/// Match a full child sequence against a content expression, returning a
/// parse tree, or `None` if the children do not belong to the model's
/// language.
pub fn match_children(expr: &ContentExpr, labels: &[Label]) -> Option<MatchNode> {
    let ends = matches_from(expr, labels, 0);
    ends.into_iter()
        .find(|(end, _)| *end == labels.len())
        .map(|(_, node)| node)
}

/// All `(end, parse)` pairs for matches of `expr` starting at `start`.
/// Deduplicated by end position (first parse wins — deterministic models
/// have at most one anyway).
fn matches_from(expr: &ContentExpr, labels: &[Label], start: usize) -> Vec<(usize, MatchNode)> {
    match expr {
        ContentExpr::Pcdata => {
            // Pure character data: a leaf #PCDATA matches zero or more text
            // runs (SGML treats interleaved runs as one data stream).
            let mut out = vec![(start, MatchNode::Empty)];
            let mut i = start;
            let mut matched = Vec::new();
            while i < labels.len() && labels[i] == Label::Text {
                matched.push(MatchNode::Child(i));
                i += 1;
                out.push((i, MatchNode::Repeat(matched.clone())));
            }
            out
        }
        ContentExpr::Ref(n) => match labels.get(start) {
            Some(Label::Elem(m)) if m == n => vec![(start + 1, MatchNode::Child(start))],
            _ => vec![],
        },
        ContentExpr::Seq(items) => {
            let mut states: Vec<(usize, Vec<MatchNode>)> = vec![(start, Vec::new())];
            for item in items {
                let mut next = Vec::new();
                for (pos, trail) in &states {
                    for (end, node) in matches_from(item, labels, *pos) {
                        if !next
                            .iter()
                            .any(|(e, _): &(usize, Vec<MatchNode>)| *e == end)
                        {
                            let mut t = trail.clone();
                            t.push(node);
                            next.push((end, t));
                        }
                    }
                }
                states = next;
                if states.is_empty() {
                    return vec![];
                }
            }
            states
                .into_iter()
                .map(|(end, trail)| (end, MatchNode::Seq(trail)))
                .collect()
        }
        ContentExpr::Choice(alts) => {
            let mut out: Vec<(usize, MatchNode)> = Vec::new();
            for (k, alt) in alts.iter().enumerate() {
                for (end, node) in matches_from(alt, labels, start) {
                    if !out.iter().any(|(e, _)| *e == end) {
                        out.push((end, MatchNode::Choice(k, Box::new(node))));
                    }
                }
            }
            out
        }
        ContentExpr::And(items) => {
            // Try operands in every feasible order (operands are typically
            // few; see MAX_AND_GROUP).
            let mut out: Vec<(usize, MatchNode)> = Vec::new();
            let mut used = vec![false; items.len()];
            and_search(items, labels, start, &mut used, &mut Vec::new(), &mut out);
            out
        }
        ContentExpr::Occur(inner, occ) => {
            let (min, max) = match occ {
                Occurrence::Opt => (0usize, Some(1usize)),
                Occurrence::Plus => (1, None),
                Occurrence::Star => (0, None),
            };
            let mut out: Vec<(usize, MatchNode)> = Vec::new();
            let mut states: Vec<(usize, Vec<MatchNode>)> = vec![(start, Vec::new())];
            let mut count = 0usize;
            if min == 0 {
                out.push((start, MatchNode::Repeat(Vec::new())));
            }
            loop {
                count += 1;
                if let Some(mx) = max {
                    if count > mx {
                        break;
                    }
                }
                let mut next = Vec::new();
                for (pos, trail) in &states {
                    for (end, node) in matches_from(inner, labels, *pos) {
                        // Guard against ε-loops: an iteration must consume.
                        if end == *pos {
                            continue;
                        }
                        if !next
                            .iter()
                            .any(|(e, _): &(usize, Vec<MatchNode>)| *e == end)
                        {
                            let mut t = trail.clone();
                            t.push(node);
                            next.push((end, t));
                        }
                    }
                }
                if next.is_empty() {
                    break;
                }
                if count >= min {
                    for (end, trail) in &next {
                        if !out.iter().any(|(e, _)| e == end) {
                            out.push((*end, MatchNode::Repeat(trail.clone())));
                        }
                    }
                }
                states = next;
            }
            // `+` with exactly the min count also needs recording when the
            // first round already satisfied min (handled above since
            // count >= min check runs every round).
            out
        }
    }
}

fn and_search(
    items: &[ContentExpr],
    labels: &[Label],
    pos: usize,
    used: &mut Vec<bool>,
    trail: &mut Vec<(usize, MatchNode)>,
    out: &mut Vec<(usize, MatchNode)>,
) {
    if trail.len() == items.len() {
        if !out.iter().any(|(e, _)| *e == pos) {
            out.push((pos, MatchNode::And(trail.clone())));
        }
        return;
    }
    for i in 0..items.len() {
        if used[i] {
            continue;
        }
        used[i] = true;
        for (end, node) in matches_from(&items[i], labels, pos) {
            trail.push((i, node));
            and_search(items, labels, end, used, trail, out);
            trail.pop();
        }
        used[i] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(names: &[&str]) -> Vec<Label> {
        names
            .iter()
            .map(|n| {
                if *n == "#" {
                    Label::Text
                } else {
                    Label::Elem(n.to_string())
                }
            })
            .collect()
    }

    fn model(src: &str) -> ContentExpr {
        // Reuse the DTD parser for convenience.
        let dtd = crate::dtd::Dtd::parse(&format!("<!ELEMENT x - - {src}>")).unwrap();
        match &dtd.element("x").unwrap().content {
            ContentModel::Model(e) => e.clone(),
            ContentModel::Pcdata => ContentExpr::Pcdata,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn derivative_accepts_simple_seq() {
        let rx = compile(&ContentModel::Model(model("(a, b)")), &[]).unwrap();
        let rx = rx.derive(&Label::Elem("a".into()));
        assert!(!rx.is_fail());
        assert!(!rx.nullable());
        let rx = rx.derive(&Label::Elem("b".into()));
        assert!(rx.nullable());
        assert!(rx.derive(&Label::Elem("a".into())).is_fail());
    }

    #[test]
    fn derivative_rejects_wrong_order() {
        let rx = compile(&ContentModel::Model(model("(a, b)")), &[]).unwrap();
        assert!(rx.derive(&Label::Elem("b".into())).is_fail());
    }

    #[test]
    fn derivative_handles_occurrences() {
        let rx = compile(&ContentModel::Model(model("(a+, b?)")), &[]).unwrap();
        let a = Label::Elem("a".into());
        let b = Label::Elem("b".into());
        let rx = rx.derive(&a);
        assert!(rx.nullable(), "a alone is complete");
        let rx2 = rx.derive(&a).derive(&a).derive(&b);
        assert!(rx2.nullable());
        assert!(rx2.derive(&b).is_fail(), "only one b allowed");
    }

    #[test]
    fn next_labels_reports_expectations() {
        let rx = compile(&ContentModel::Model(model("(title, body+)")), &[]).unwrap();
        let mut out = Vec::new();
        rx.next_labels(&mut out);
        assert_eq!(out, vec![Label::Elem("title".into())]);
        let rx = rx.derive(&Label::Elem("title".into()));
        let mut out = Vec::new();
        rx.next_labels(&mut out);
        assert_eq!(out, vec![Label::Elem("body".into())]);
    }

    #[test]
    fn and_expansion_accepts_both_orders() {
        let rx = compile(&ContentModel::Model(model("(to & from)")), &[]).unwrap();
        let to = Label::Elem("to".into());
        let from = Label::Elem("from".into());
        assert!(rx.derive(&to).derive(&from).nullable());
        assert!(rx.derive(&from).derive(&to).nullable());
        assert!(rx.derive(&from).derive(&from).is_fail());
    }

    #[test]
    fn and_group_too_large_rejected() {
        let expr = ContentExpr::And((0..6).map(|i| ContentExpr::Ref(format!("e{i}"))).collect());
        assert!(matches!(
            expand_and(&expr).unwrap_err().kind,
            ErrorKind::AndGroupTooLarge { size: 6, max: 5 }
        ));
    }

    #[test]
    fn pcdata_model_accepts_text_runs() {
        let rx = compile(&ContentModel::Pcdata, &[]).unwrap();
        assert!(rx.nullable(), "empty text is fine");
        assert!(rx.derive(&Label::Text).derive(&Label::Text).nullable());
        assert!(rx.derive(&Label::Elem("a".into())).is_fail());
    }

    #[test]
    fn any_model_accepts_alphabet() {
        let rx = compile(&ContentModel::Any, &["a".to_string(), "b".to_string()]).unwrap();
        assert!(rx
            .derive(&Label::Elem("a".into()))
            .derive(&Label::Text)
            .derive(&Label::Elem("b".into()))
            .nullable());
        assert!(rx.derive(&Label::Elem("zz".into())).is_fail());
    }

    #[test]
    fn empty_model_accepts_nothing() {
        let rx = compile(&ContentModel::Empty, &[]).unwrap();
        assert!(rx.nullable());
        assert!(rx.derive(&Label::Text).is_fail());
    }

    #[test]
    fn match_simple_seq() {
        let m = match_children(&model("(a, b)"), &l(&["a", "b"])).unwrap();
        assert_eq!(
            m,
            MatchNode::Seq(vec![MatchNode::Child(0), MatchNode::Child(1)])
        );
        assert!(match_children(&model("(a, b)"), &l(&["b", "a"])).is_none());
        assert!(match_children(&model("(a, b)"), &l(&["a"])).is_none());
    }

    #[test]
    fn match_reports_choice_branch() {
        // The paper's section model.
        let section = model("((title, body+) | (title, body*, subsectn+))");
        let m = match_children(&section, &l(&["title", "body", "body"])).unwrap();
        match m {
            MatchNode::Choice(0, _) => {}
            other => panic!("expected first branch, got {other:?}"),
        }
        let m = match_children(&section, &l(&["title", "subsectn"])).unwrap();
        match m {
            MatchNode::Choice(1, _) => {}
            other => panic!("expected second branch, got {other:?}"),
        }
        let m = match_children(&section, &l(&["title", "body", "subsectn"])).unwrap();
        assert!(matches!(m, MatchNode::Choice(1, _)));
    }

    #[test]
    fn match_repeat_groups_children() {
        let m = match_children(
            &model("(title, author+)"),
            &l(&["title", "author", "author"]),
        )
        .unwrap();
        match m {
            MatchNode::Seq(items) => {
                assert_eq!(items[0], MatchNode::Child(0));
                match &items[1] {
                    MatchNode::Repeat(insts) => assert_eq!(insts.len(), 2),
                    other => panic!("expected repeat, got {other:?}"),
                }
            }
            other => panic!("expected seq, got {other:?}"),
        }
    }

    #[test]
    fn match_optional_absent_and_present() {
        let figure = model("(picture, caption?)");
        let m = match_children(&figure, &l(&["picture"])).unwrap();
        match &m {
            MatchNode::Seq(items) => assert_eq!(items[1], MatchNode::Repeat(vec![])),
            other => panic!("{other:?}"),
        }
        let m = match_children(&figure, &l(&["picture", "caption"])).unwrap();
        match &m {
            MatchNode::Seq(items) => {
                assert_eq!(items[1], MatchNode::Repeat(vec![MatchNode::Child(1)]))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn match_and_records_order() {
        let pre = ContentExpr::And(vec![
            ContentExpr::Ref("to".into()),
            ContentExpr::Ref("from".into()),
        ]);
        let m = match_children(&pre, &l(&["from", "to"])).unwrap();
        match m {
            MatchNode::And(parts) => {
                assert_eq!(parts[0].0, 1, "operand `from` matched first");
                assert_eq!(parts[1].0, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn match_child_indices_cover_in_order() {
        let section = model("((title, body+) | (title, body*, subsectn+))");
        let m = match_children(&section, &l(&["title", "body", "subsectn", "subsectn"])).unwrap();
        let mut idx = Vec::new();
        m.child_indices(&mut idx);
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }

    #[test]
    fn match_pcdata_leaf() {
        let m = match_children(&ContentExpr::Pcdata, &l(&["#", "#"])).unwrap();
        let mut idx = Vec::new();
        m.child_indices(&mut idx);
        assert_eq!(idx, vec![0, 1]);
        assert!(match_children(&ContentExpr::Pcdata, &l(&["a"])).is_none());
    }

    #[test]
    fn plus_requires_one() {
        let m = model("(a+)");
        assert!(match_children(&m, &l(&[])).is_none());
        assert!(match_children(&m, &l(&["a"])).is_some());
        assert!(match_children(&m, &l(&["a", "a", "a"])).is_some());
    }

    #[test]
    fn nested_groups_match() {
        let m = model("((a, b)+, c?)");
        assert!(match_children(&m, &l(&["a", "b", "a", "b", "c"])).is_some());
        assert!(match_children(&m, &l(&["a", "b", "a"])).is_none());
    }

    #[test]
    fn display_round_trip_via_dtd() {
        let e = model("((title, body+) | (title, body*, subsectn+))");
        assert_eq!(
            e.to_string(),
            "((title, body+) | (title, body*, subsectn+))"
        );
    }
}
