//! Document-instance parsing with tag-omission inference (§2).
//!
//! The parser is DTD-driven: each open element carries the Brzozowski
//! derivative of its content model by the children accepted so far. When the
//! next token is not directly acceptable, the parser
//!
//! 1. *implicitly closes* open elements whose end tag is omissible (`- O`)
//!    and whose content is complete — this is what lets Fig. 2 write
//!    `<author> V. Christophides <author> S. Abiteboul` without `</author>`;
//! 2. *implicitly opens* elements whose start tag is omissible (`O O`, e.g.
//!    `caption`) when they are expected next and can accept the token.

use crate::content::{compile, Label, Rx};
use crate::cursor::Cursor;
use crate::doc::{Document, Element, Node};
use crate::dtd::{AttDefault, AttType, Dtd, EntityDecl};
use crate::error::{ErrorKind, Pos, Result, SgmlError};
use std::collections::HashMap;
use std::rc::Rc;

/// Default cap on element nesting depth — far beyond any real document,
/// low enough that a hostile `<a><a><a>…` stream fails fast instead of
/// growing an unbounded frame stack.
pub const MAX_ELEMENT_DEPTH: usize = 256;

/// Default cumulative byte budget for entity expansion in one document.
/// Entities here do not nest (no recursive expansion), but `&big;` repeated
/// still amplifies input size; this bounds the total amplification.
pub const MAX_ENTITY_EXPANSION: usize = 1 << 20;

/// A DTD-driven document parser. Compile once, parse many documents.
pub struct DocParser<'d> {
    dtd: &'d Dtd,
    compiled: HashMap<String, Rc<Rx>>,
    max_depth: usize,
    max_entity_expansion: usize,
}

struct Frame {
    name: String,
    end_omissible: bool,
    state: Rc<Rx>,
    element: Element,
    open_pos: Pos,
}

impl<'d> DocParser<'d> {
    /// Build a parser for this DTD (compiles every content model).
    pub fn new(dtd: &'d Dtd) -> Result<DocParser<'d>> {
        let alphabet: Vec<String> = dtd.element_names().map(str::to_owned).collect();
        let mut compiled = HashMap::new();
        for e in &dtd.elements {
            compiled.insert(e.name.clone(), compile(&e.content, &alphabet)?);
        }
        Ok(DocParser {
            dtd,
            compiled,
            max_depth: MAX_ELEMENT_DEPTH,
            max_entity_expansion: MAX_ENTITY_EXPANSION,
        })
    }

    /// Override the hostile-input limits (defaults: [`MAX_ELEMENT_DEPTH`],
    /// [`MAX_ENTITY_EXPANSION`]). Mostly for tests and embedders parsing
    /// untrusted input with tighter budgets.
    pub fn set_limits(&mut self, max_depth: usize, max_entity_expansion: usize) {
        self.max_depth = max_depth;
        self.max_entity_expansion = max_entity_expansion;
    }

    /// Parse a document instance.
    pub fn parse(&self, src: &str) -> Result<Document> {
        let mut p = Run {
            parser: self,
            cur: Cursor::new(src),
            stack: Vec::new(),
            entity_bytes: 0,
            finished: None,
        };
        p.run()?;
        match p.finished {
            Some(root) => Ok(Document { root }),
            None => Err(SgmlError::new(
                Pos { line: 1, col: 1 },
                ErrorKind::Other("document contains no element".to_string()),
            )),
        }
    }
}

struct Run<'d, 'p, 's> {
    parser: &'p DocParser<'d>,
    cur: Cursor<'s>,
    stack: Vec<Frame>,
    entity_bytes: usize,
    finished: Option<Element>,
}

impl Run<'_, '_, '_> {
    fn run(&mut self) -> Result<()> {
        loop {
            // Comments are skipped without disturbing surrounding text
            // (whitespace around an inline comment stays significant).
            if self.cur.starts_with("<!--") {
                while !self.cur.at_eof() && !self.cur.starts_with("-->") {
                    self.cur.bump();
                }
                let _ = self.cur.eat("-->");
                continue;
            }
            if self.cur.at_eof() {
                break;
            }
            if self.cur.starts_with("</") {
                self.end_tag()?;
            } else if self.cur.starts_with("<") {
                self.start_tag()?;
            } else if self.cur.starts_with("&") {
                let pos = self.cur.pos();
                let text = self.entity_text()?;
                self.text(&text, pos)?;
            } else {
                let pos = self.cur.pos();
                let span = self.cur.text_span().to_string();
                self.text(&span, pos)?;
            }
        }
        // EOF: close any still-open elements whose end tags may be omitted.
        while let Some(top) = self.stack.last() {
            let pos = top.open_pos;
            if !top.end_omissible {
                return Err(SgmlError::new(
                    pos,
                    ErrorKind::ForbiddenOmission {
                        element: top.name.clone(),
                        detail: "element still open at end of document".to_string(),
                    },
                ));
            }
            self.close_top()?;
        }
        Ok(())
    }

    fn entity_text(&mut self) -> Result<String> {
        let pos = self.cur.pos();
        self.cur.require("&")?;
        let name = self.cur.name(false)?;
        let _ = self.cur.eat(";");
        match self.parser.dtd.entity(&name) {
            Some(EntityDecl::Internal { text, .. }) => {
                self.entity_bytes = self.entity_bytes.saturating_add(text.len());
                if self.entity_bytes > self.parser.max_entity_expansion {
                    return Err(SgmlError::new(
                        pos,
                        ErrorKind::EntityExpansionTooLarge {
                            expanded: self.entity_bytes,
                            max: self.parser.max_entity_expansion,
                        },
                    ));
                }
                Ok(text.clone())
            }
            Some(EntityDecl::External { .. }) => Err(SgmlError::new(
                pos,
                ErrorKind::Other(format!(
                    "external (NDATA) entity `&{name};` referenced in content"
                )),
            )),
            None => Err(SgmlError::new(pos, ErrorKind::UnknownEntity(name))),
        }
    }

    fn start_tag(&mut self) -> Result<()> {
        let pos = self.cur.pos();
        self.cur.require("<")?;
        let name = self.cur.name(false)?.to_ascii_lowercase();
        let decl = self
            .parser
            .dtd
            .element(&name)
            .ok_or_else(|| SgmlError::new(pos, ErrorKind::UnknownElement(name.clone())))?;
        let attrs = self.attributes(&name)?;
        self.cur.skip_ws();
        self.cur.require(">")?;
        self.accept_label(&Label::Elem(name.clone()), pos)?;
        // Open the element.
        let state = self.parser.compiled[&name].clone();
        let empty = matches!(decl.content, crate::content::ContentModel::Empty);
        self.push_frame(Frame {
            name: name.clone(),
            end_omissible: decl.minimization.end_omissible || empty,
            state,
            element: Element {
                name,
                attrs,
                children: Vec::new(),
            },
            open_pos: pos,
        })?;
        if empty {
            // EMPTY elements have no content and no end tag.
            self.close_top()?;
        }
        Ok(())
    }

    fn end_tag(&mut self) -> Result<()> {
        let pos = self.cur.pos();
        self.cur.require("</")?;
        let name = self.cur.name(false)?.to_ascii_lowercase();
        self.cur.skip_ws();
        self.cur.require(">")?;
        // SGML EMPTY elements have no end tag; the element was auto-closed
        // at its start tag. Tolerate an explicit `</x>` (XML-style input).
        if let Some(decl) = self.parser.dtd.element(&name) {
            if matches!(decl.content, crate::content::ContentModel::Empty)
                && self.stack.last().is_none_or(|top| top.name != name)
            {
                return Ok(());
            }
        }
        loop {
            match self.stack.last() {
                None => {
                    return Err(SgmlError::new(
                        pos,
                        ErrorKind::MismatchedEndTag {
                            expected: "(nothing open)".to_string(),
                            found: name,
                        },
                    ));
                }
                Some(top) if top.name == name => {
                    self.close_top()?;
                    return Ok(());
                }
                Some(top) => {
                    if top.end_omissible && top.state.nullable() {
                        self.close_top()?;
                    } else {
                        return Err(SgmlError::new(
                            pos,
                            ErrorKind::MismatchedEndTag {
                                expected: top.name.clone(),
                                found: name,
                            },
                        ));
                    }
                }
            }
        }
    }

    fn text(&mut self, text: &str, pos: Pos) -> Result<()> {
        if text.trim().is_empty() {
            // Whitespace between tags is insignificant unless the current
            // element actually accepts character data.
            if let Some(top) = self.stack.last() {
                if top.state.derive(&Label::Text).is_fail() {
                    return Ok(());
                }
            } else {
                return Ok(());
            }
        }
        self.accept_label(&Label::Text, pos)?;
        let Some(top) = self.stack.last_mut() else {
            return Err(outside_document(pos));
        };
        // Merge adjacent text runs.
        if let Some(Node::Text(prev)) = top.element.children.last_mut() {
            prev.push_str(text);
        } else {
            top.element.children.push(Node::Text(text.to_string()));
        }
        Ok(())
    }

    /// Core inference: make the current open element accept `label`,
    /// implicitly closing/opening elements as tag minimization allows.
    /// On success the top frame's state has been advanced by `label`
    /// (and for `Elem` the caller pushes the new frame).
    fn accept_label(&mut self, label: &Label, pos: Pos) -> Result<()> {
        let parser = self.parser;
        let budget = 2 * parser.dtd.elements.len() + self.stack.len() + 2;
        for _ in 0..budget {
            match self.stack.last_mut() {
                None => {
                    // Document element: only an element token can start it.
                    match label {
                        Label::Elem(name) => {
                            if self.finished.is_some() {
                                return Err(SgmlError::new(
                                    pos,
                                    ErrorKind::Other(
                                        "content after the document element".to_string(),
                                    ),
                                ));
                            }
                            if !self.parser.dtd.doctype.is_empty()
                                && *name != self.parser.dtd.doctype
                            {
                                return Err(SgmlError::new(
                                    pos,
                                    ErrorKind::ContentModelMismatch {
                                        element: name.clone(),
                                        detail: format!(
                                            "document element must be `{}`",
                                            self.parser.dtd.doctype
                                        ),
                                    },
                                ));
                            }
                            return Ok(());
                        }
                        Label::Text => return Err(outside_document(pos)),
                    }
                }
                Some(top) => {
                    let d = top.state.derive(label);
                    if !d.is_fail() {
                        top.state = d;
                        return Ok(());
                    }
                    // Implicit open: an expected element with omissible
                    // start tag that can accept the label.
                    if let Some(frame) = implicit_open(parser, top, label, pos) {
                        let advanced = top.state.derive(&Label::Elem(frame.name.clone()));
                        debug_assert!(!advanced.is_fail());
                        top.state = advanced;
                        self.push_frame(frame)?;
                        continue;
                    }
                    // Implicit close.
                    if top.end_omissible && top.state.nullable() {
                        self.close_top()?;
                        continue;
                    }
                    let mut expected = Vec::new();
                    top.state.next_labels(&mut expected);
                    return Err(SgmlError::new(
                        pos,
                        ErrorKind::ContentModelMismatch {
                            element: top.name.clone(),
                            detail: format!(
                                "cannot accept {label} here; expected one of [{}]{}",
                                expected
                                    .iter()
                                    .map(|l| l.to_string())
                                    .collect::<Vec<_>>()
                                    .join(", "),
                                if top.state.nullable() {
                                    " or end of element"
                                } else {
                                    ""
                                }
                            ),
                        },
                    ));
                }
            }
        }
        Err(SgmlError::new(
            pos,
            ErrorKind::Other("tag inference did not terminate (budget exceeded)".to_string()),
        ))
    }

    /// Push an open-element frame, enforcing the nesting-depth limit.
    fn push_frame(&mut self, frame: Frame) -> Result<()> {
        if self.stack.len() >= self.parser.max_depth {
            return Err(SgmlError::new(
                frame.open_pos,
                ErrorKind::NestingTooDeep {
                    depth: self.stack.len() + 1,
                    max: self.parser.max_depth,
                },
            ));
        }
        self.stack.push(frame);
        Ok(())
    }

    fn close_top(&mut self) -> Result<()> {
        let Some(top) = self.stack.pop() else {
            return Err(SgmlError::new(
                self.cur.pos(),
                ErrorKind::Other("no open element to close".to_string()),
            ));
        };
        if !top.state.nullable() {
            let mut expected = Vec::new();
            top.state.next_labels(&mut expected);
            return Err(SgmlError::new(
                top.open_pos,
                ErrorKind::ContentModelMismatch {
                    element: top.name.clone(),
                    detail: format!(
                        "content incomplete; still expecting one of [{}]",
                        expected
                            .iter()
                            .map(|l| l.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                },
            ));
        }
        match self.stack.last_mut() {
            Some(parent) => parent.element.children.push(Node::Element(top.element)),
            None => self.finished = Some(top.element),
        }
        Ok(())
    }

    /// Parse attributes of a start tag, then apply DTD defaults and checks.
    fn attributes(&mut self, element: &str) -> Result<Vec<(String, String)>> {
        let mut attrs: Vec<(String, String)> = Vec::new();
        loop {
            self.cur.skip_ws();
            match self.cur.peek() {
                Some(b'>') | None => break,
                _ => {}
            }
            let pos = self.cur.pos();
            let name = self.cur.name(false)?.to_ascii_lowercase();
            self.cur.skip_ws();
            let value = if self.cur.eat("=") {
                self.cur.skip_ws();
                if matches!(self.cur.peek(), Some(b'"' | b'\'')) {
                    self.cur.quoted()?
                } else {
                    self.cur.name(true)?
                }
            } else {
                // Minimized attribute (value only, e.g. `<article final>`):
                // the bare token is the value of the enumerated attribute
                // whose group contains it.
                let decls = self.parser.dtd.attributes_of(element);
                let owner = decls
                    .iter()
                    .find(|d| matches!(&d.ty, AttType::Enumerated(vs) if vs.contains(&name)));
                match owner {
                    Some(d) => {
                        attrs.push((d.name.clone(), name));
                        continue;
                    }
                    None => {
                        return Err(SgmlError::new(
                            pos,
                            ErrorKind::UnknownAttribute {
                                element: element.to_string(),
                                attribute: name,
                            },
                        ));
                    }
                }
            };
            attrs.push((name, value));
        }
        // DTD checks + defaults.
        let decls = self.parser.dtd.attributes_of(element);
        for (n, v) in &attrs {
            let decl = decls.iter().find(|d| &d.name == n).ok_or_else(|| {
                SgmlError::new(
                    self.cur.pos(),
                    ErrorKind::UnknownAttribute {
                        element: element.to_string(),
                        attribute: n.clone(),
                    },
                )
            })?;
            if let AttType::Enumerated(allowed) = &decl.ty {
                if !allowed.contains(v) {
                    return Err(SgmlError::new(
                        self.cur.pos(),
                        ErrorKind::BadAttributeValue {
                            element: element.to_string(),
                            attribute: n.clone(),
                            value: v.clone(),
                            allowed: allowed.clone(),
                        },
                    ));
                }
            }
            if matches!(decl.ty, AttType::Entity) && self.parser.dtd.entity(v).is_none() {
                return Err(SgmlError::new(
                    self.cur.pos(),
                    ErrorKind::UnknownEntity(v.clone()),
                ));
            }
        }
        for decl in decls {
            if attrs.iter().any(|(n, _)| n == &decl.name) {
                continue;
            }
            match &decl.default {
                AttDefault::Required => {
                    return Err(SgmlError::new(
                        self.cur.pos(),
                        ErrorKind::MissingRequiredAttribute {
                            element: element.to_string(),
                            attribute: decl.name.clone(),
                        },
                    ));
                }
                AttDefault::Value(v) => attrs.push((decl.name.clone(), v.clone())),
                AttDefault::Implied => {}
            }
        }
        Ok(attrs)
    }
}

/// The frame to open implicitly inside `top` so it can accept `label`: an
/// element that (a) is expected next in `top`, (b) has an omissible start
/// tag, and (c) can itself accept `label` first.
fn implicit_open(parser: &DocParser<'_>, top: &Frame, label: &Label, pos: Pos) -> Option<Frame> {
    let mut expected = Vec::new();
    top.state.next_labels(&mut expected);
    for l in expected {
        if let Label::Elem(x) = l {
            let decl = parser.dtd.element(&x)?;
            let state = parser.compiled.get(&x)?;
            if decl.minimization.start_omissible && !state.derive(label).is_fail() {
                return Some(Frame {
                    name: x.clone(),
                    end_omissible: decl.minimization.end_omissible,
                    state: Rc::clone(state),
                    element: Element::new(x),
                    open_pos: pos,
                });
            }
        }
    }
    None
}

/// The error for character data with no element open to take it.
fn outside_document(pos: Pos) -> SgmlError {
    SgmlError::new(
        pos,
        ErrorKind::Other("character data outside the document element".to_string()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{ARTICLE_DTD, FIG2_DOCUMENT};

    fn parse(doc: &str) -> Result<Document> {
        let dtd = Dtd::parse(ARTICLE_DTD).unwrap();
        let parser = DocParser::new(&dtd)?;
        parser.parse(doc)
    }

    #[test]
    fn parses_fig2_document() {
        let doc = parse(FIG2_DOCUMENT).unwrap();
        assert_eq!(doc.root.name, "article");
        assert_eq!(doc.root.attr("status"), Some("final"));
        // Four authors despite omitted </author> end tags.
        let mut authors = Vec::new();
        doc.root.find_all("author", &mut authors);
        assert_eq!(authors.len(), 4);
        assert_eq!(authors[0].text_content(), "V. Christophides");
        // Two sections.
        let mut sections = Vec::new();
        doc.root.find_all("section", &mut sections);
        assert_eq!(sections.len(), 2);
        assert_eq!(
            sections[1].find("title").unwrap().text_content(),
            "SGML preliminaries"
        );
    }

    #[test]
    fn end_tag_omission_via_sibling() {
        let doc = parse(
            "<article status=\"draft\"><title>T</title>\
             <author>A<author>B</author><affil>X</affil>\
             <abstract>Abs</abstract>\
             <section><title>S</title><body><paragr reflabel=\"l\">P</paragr></body></section>\
             <acknowl>Thanks</acknowl></article>",
        )
        .unwrap();
        let mut authors = Vec::new();
        doc.root.find_all("author", &mut authors);
        assert_eq!(authors.len(), 2);
    }

    #[test]
    fn attribute_defaults_applied() {
        let doc = parse(
            "<article><title>T</title><author>A</author><affil>F</affil>\
             <abstract>Ab</abstract>\
             <section><title>S</title><body><paragr reflabel=\"x\">P</paragr></body></section>\
             <acknowl>Th</acknowl></article>",
        )
        .unwrap();
        assert_eq!(doc.root.attr("status"), Some("draft"), "DTD default");
    }

    #[test]
    fn enumerated_attribute_value_checked() {
        let r = parse("<article status=\"published\"><title>T</title></article>");
        assert!(matches!(
            r.unwrap_err().kind,
            ErrorKind::BadAttributeValue { .. }
        ));
    }

    #[test]
    fn required_attribute_enforced() {
        let r = parse(
            "<article><title>T</title><author>A</author><affil>F</affil><abstract>A</abstract>\
             <section><title>S</title><body><paragr>no reflabel</paragr></body></section>\
             <acknowl>T</acknowl></article>",
        );
        assert!(matches!(
            r.unwrap_err().kind,
            ErrorKind::MissingRequiredAttribute { .. }
        ));
    }

    #[test]
    fn unknown_element_rejected() {
        let r = parse("<article><bogus>x</bogus></article>");
        assert!(matches!(r.unwrap_err().kind, ErrorKind::UnknownElement(_)));
    }

    #[test]
    fn content_model_violation_reported() {
        // abstract before title.
        let r = parse("<article><abstract>A</abstract><title>T</title></article>");
        assert!(matches!(
            r.unwrap_err().kind,
            ErrorKind::ContentModelMismatch { .. }
        ));
    }

    #[test]
    fn incomplete_content_reported_at_close() {
        // Section with a title but no body/subsectn.
        let r = parse(
            "<article><title>T</title><author>A</author><affil>F</affil><abstract>A</abstract>\
             <section><title>S</title></section><acknowl>T</acknowl></article>",
        );
        assert!(matches!(
            r.unwrap_err().kind,
            ErrorKind::ContentModelMismatch { .. }
        ));
    }

    #[test]
    fn empty_element_needs_no_end_tag() {
        let doc = parse(
            "<article><title>T</title><author>A</author><affil>F</affil><abstract>A</abstract>\
             <section><title>S</title><body><figure label=\"f1\"><picture>\
             <caption>C</caption></figure></body></section>\
             <acknowl>T</acknowl></article>",
        )
        .unwrap();
        let fig = doc.root.find("figure").unwrap();
        assert!(fig.find("picture").is_some());
        let pic = fig.find("picture").unwrap();
        assert_eq!(pic.attr("sizex"), Some("16cm"), "NMTOKEN default applied");
    }

    #[test]
    fn start_tag_omission_inferred() {
        // caption is O O: its start tag may be omitted. Text directly after
        // <picture> inside a figure must open a caption implicitly.
        let doc = parse(
            "<article><title>T</title><author>A</author><affil>F</affil><abstract>A</abstract>\
             <section><title>S</title><body><figure><picture>An implied caption</figure>\
             </body></section><acknowl>T</acknowl></article>",
        )
        .unwrap();
        let fig = doc.root.find("figure").unwrap();
        let cap = fig.find("caption").expect("caption implicitly opened");
        assert_eq!(cap.text_content(), "An implied caption");
    }

    #[test]
    fn mismatched_end_tag_rejected() {
        let r = parse("<article><title>T</abstract></article>");
        assert!(matches!(
            r.unwrap_err().kind,
            ErrorKind::MismatchedEndTag { .. }
        ));
    }

    #[test]
    fn doctype_element_enforced_at_root() {
        let r = parse("<title>hello</title>");
        assert!(matches!(
            r.unwrap_err().kind,
            ErrorKind::ContentModelMismatch { .. }
        ));
    }

    #[test]
    fn unclosed_strict_element_at_eof_rejected() {
        let r = parse("<article><title>T</title>");
        assert!(matches!(
            r.unwrap_err().kind,
            ErrorKind::ForbiddenOmission { .. } | ErrorKind::ContentModelMismatch { .. }
        ));
    }

    #[test]
    fn internal_entities_expand_in_text() {
        let dtd = Dtd::parse(
            "<!DOCTYPE note [ <!ELEMENT note - - (#PCDATA)> <!ENTITY inst \"I.N.R.I.A.\"> ]>",
        )
        .unwrap();
        let parser = DocParser::new(&dtd).unwrap();
        let doc = parser.parse("<note>from &inst; with love</note>").unwrap();
        assert_eq!(doc.root.text_content(), "from I.N.R.I.A. with love");
    }

    #[test]
    fn unknown_entity_rejected() {
        let dtd = Dtd::parse("<!DOCTYPE note [ <!ELEMENT note - - (#PCDATA)> ]>").unwrap();
        let parser = DocParser::new(&dtd).unwrap();
        assert!(matches!(
            parser.parse("<note>&nope;</note>").unwrap_err().kind,
            ErrorKind::UnknownEntity(_)
        ));
    }

    #[test]
    fn comments_are_skipped() {
        let dtd = Dtd::parse("<!DOCTYPE note [ <!ELEMENT note - - (#PCDATA)> ]>").unwrap();
        let parser = DocParser::new(&dtd).unwrap();
        let doc = parser
            .parse("<!-- prologue --><note>hi<!-- inner --> there</note>")
            .unwrap();
        assert_eq!(doc.root.text_content(), "hi there");
    }

    #[test]
    fn hostile_nesting_depth_rejected() {
        let dtd = Dtd::parse("<!DOCTYPE n [ <!ELEMENT n - - (n?) > ]>").unwrap();
        let parser = DocParser::new(&dtd).unwrap();
        let deep = "<n>".repeat(MAX_ELEMENT_DEPTH + 50);
        match parser.parse(&deep).unwrap_err().kind {
            ErrorKind::NestingTooDeep { max, .. } => assert_eq!(max, MAX_ELEMENT_DEPTH),
            k => panic!("expected NestingTooDeep, got {k:?}"),
        }
        // Well-formed nesting under the limit still parses.
        let ok = format!("{}{}", "<n>".repeat(8), "</n>".repeat(8));
        assert!(parser.parse(&ok).is_ok());
    }

    #[test]
    fn depth_limit_is_configurable() {
        let dtd = Dtd::parse("<!DOCTYPE n [ <!ELEMENT n - - (n?) > ]>").unwrap();
        let mut parser = DocParser::new(&dtd).unwrap();
        parser.set_limits(4, MAX_ENTITY_EXPANSION);
        let deep = format!("{}{}", "<n>".repeat(5), "</n>".repeat(5));
        assert!(matches!(
            parser.parse(&deep).unwrap_err().kind,
            ErrorKind::NestingTooDeep { depth: 5, max: 4 }
        ));
        let ok = format!("{}{}", "<n>".repeat(4), "</n>".repeat(4));
        assert!(parser.parse(&ok).is_ok());
    }

    #[test]
    fn entity_expansion_budget_enforced() {
        let dtd = Dtd::parse(
            "<!DOCTYPE note [ <!ELEMENT note - - (#PCDATA)> \
             <!ENTITY pad \"0123456789abcdef\"> ]>",
        )
        .unwrap();
        let mut parser = DocParser::new(&dtd).unwrap();
        parser.set_limits(MAX_ELEMENT_DEPTH, 64);
        // Four references fit exactly (4 × 16 = 64); a fifth bursts it.
        let ok = format!("<note>{}</note>", "&pad;".repeat(4));
        assert!(parser.parse(&ok).is_ok());
        let boom = format!("<note>{}</note>", "&pad;".repeat(5));
        match parser.parse(&boom).unwrap_err().kind {
            ErrorKind::EntityExpansionTooLarge { expanded, max } => {
                assert_eq!((expanded, max), (80, 64));
            }
            k => panic!("expected EntityExpansionTooLarge, got {k:?}"),
        }
        // The budget is per document, not accumulated across parses.
        assert!(parser.parse(&ok).is_ok());
    }

    #[test]
    fn minimized_attribute_resolves_to_enum_owner() {
        let doc = parse(
            "<article final><title>T</title><author>A</author><affil>F</affil>\
             <abstract>A</abstract>\
             <section><title>S</title><body><paragr reflabel=\"x\">P</paragr></body></section>\
             <acknowl>T</acknowl></article>",
        )
        .unwrap();
        assert_eq!(doc.root.attr("status"), Some("final"));
    }
}
