//! DTD parsing: `<!DOCTYPE … [ <!ELEMENT …> <!ATTLIST …> <!ENTITY …> ]>`.
//!
//! Supports the SGML features the paper exercises (§2): element declarations
//! with tag-minimization indicators (`- O`), content models built from the
//! `,` (ordered aggregation), `&` (unordered aggregation) and `|` (choice)
//! connectors with `?`, `+`, `*` occurrence indicators, `#PCDATA` / `EMPTY` /
//! `ANY` declared content, attribute lists (CDATA, ID, IDREF, NMTOKEN,
//! ENTITY, enumerated groups, with `#REQUIRED` / `#IMPLIED` / literal
//! defaults), and internal / external (`SYSTEM … NDATA`) entities.

use crate::content::{ContentExpr, ContentModel, Occurrence};
use crate::cursor::Cursor;
use crate::error::{ErrorKind, Result, SgmlError};
use std::collections::HashMap;
use std::fmt;

/// Tag minimization: can the start/end tag be omitted? (`- O` syntax: `-`
/// means required, `O` means omissible.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Minimization {
    /// Start tag may be omitted.
    pub start_omissible: bool,
    /// End tag may be omitted.
    pub end_omissible: bool,
}

/// `<!ELEMENT name - O (content)>`
#[derive(Debug, Clone, PartialEq)]
pub struct ElementDecl {
    /// Element (generic identifier) name, lower-cased as is SGML custom.
    pub name: String,
    /// Tag minimization indicators.
    pub minimization: Minimization,
    /// Declared content.
    pub content: ContentModel,
}

/// Declared type of an attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum AttType {
    /// Character data.
    Cdata,
    /// Unique identifier (cross-reference target).
    Id,
    /// Reference to an ID elsewhere in the document.
    Idref,
    /// List of IDREFs.
    Idrefs,
    /// Name token.
    NmToken,
    /// Entity name (e.g. an external graphic, Fig. 1 line 14).
    Entity,
    /// Enumerated name-token group, e.g. `(final | draft)`.
    Enumerated(Vec<String>),
}

/// Default-value specification of an attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum AttDefault {
    /// `#REQUIRED` — must be supplied on every instance.
    Required,
    /// `#IMPLIED` — may be absent.
    Implied,
    /// A literal default value (e.g. `"16cm"`, or `draft` for an enumerated
    /// attribute).
    Value(String),
}

/// One attribute definition within an ATTLIST.
#[derive(Debug, Clone, PartialEq)]
pub struct AttDef {
    /// Attribute name.
    pub name: String,
    /// Declared type.
    pub ty: AttType,
    /// Default specification.
    pub default: AttDefault,
}

/// `<!ATTLIST element …>`
#[derive(Debug, Clone, PartialEq)]
pub struct AttList {
    /// Element the attributes belong to.
    pub element: String,
    /// The attribute definitions.
    pub atts: Vec<AttDef>,
}

/// `<!ENTITY name "text">` or `<!ENTITY name SYSTEM "sysid" NDATA [notation]>`
#[derive(Debug, Clone, PartialEq)]
pub enum EntityDecl {
    /// Internal text entity, replaced in content.
    Internal { name: String, text: String },
    /// External (typically non-SGML data, e.g. an image file).
    External {
        name: String,
        system_id: String,
        notation: Option<String>,
    },
}

impl EntityDecl {
    /// The entity's name.
    pub fn name(&self) -> &str {
        match self {
            EntityDecl::Internal { name, .. } | EntityDecl::External { name, .. } => name,
        }
    }
}

/// A parsed document type definition.
#[derive(Debug, Clone, Default)]
pub struct Dtd {
    /// The document element named by `<!DOCTYPE name [ … ]>`.
    pub doctype: String,
    /// Element declarations, in source order.
    pub elements: Vec<ElementDecl>,
    /// Attribute lists (merged per element by [`Dtd::attributes_of`]).
    pub attlists: Vec<AttList>,
    /// Entity declarations.
    pub entities: Vec<EntityDecl>,
    element_index: HashMap<String, usize>,
}

impl Dtd {
    /// Parse a DTD from `<!DOCTYPE name [ … ]>` text (or from a bare internal
    /// subset if `src` starts directly with `<!ELEMENT`).
    pub fn parse(src: &str) -> Result<Dtd> {
        Parser {
            cur: Cursor::new(src),
        }
        .parse_dtd()
    }

    /// Look up an element declaration by (case-insensitive) name.
    pub fn element(&self, name: &str) -> Option<&ElementDecl> {
        self.element_index
            .get(&name.to_ascii_lowercase())
            .map(|&i| &self.elements[i])
    }

    /// All attribute definitions declared for an element, merged across its
    /// ATTLIST declarations in source order.
    pub fn attributes_of(&self, element: &str) -> Vec<&AttDef> {
        let element = element.to_ascii_lowercase();
        self.attlists
            .iter()
            .filter(|a| a.element == element)
            .flat_map(|a| a.atts.iter())
            .collect()
    }

    /// Find an entity by name.
    pub fn entity(&self, name: &str) -> Option<&EntityDecl> {
        self.entities.iter().find(|e| e.name() == name)
    }

    /// Names of all declared elements, in declaration order.
    pub fn element_names(&self) -> impl Iterator<Item = &str> {
        self.elements.iter().map(|e| e.name.as_str())
    }

    fn index(&mut self) -> Result<()> {
        for (i, e) in self.elements.iter().enumerate() {
            if self.element_index.insert(e.name.clone(), i).is_some() {
                return Err(SgmlError::nowhere(ErrorKind::DuplicateElement(
                    e.name.clone(),
                )));
            }
        }
        for a in &self.attlists {
            if !self.element_index.contains_key(&a.element) {
                return Err(SgmlError::nowhere(ErrorKind::AttlistForUnknownElement(
                    a.element.clone(),
                )));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Dtd {
    /// Re-emit the DTD in `<!DOCTYPE … [ … ]>` form (Fig. 1 regeneration).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "<!DOCTYPE {} [", self.doctype)?;
        for e in &self.elements {
            let min = |b: bool| if b { "O" } else { "-" };
            write!(
                f,
                "<!ELEMENT {} {} {} ",
                e.name,
                min(e.minimization.start_omissible),
                min(e.minimization.end_omissible)
            )?;
            writeln!(f, "{}>", e.content)?;
            for list in self.attlists.iter().filter(|a| a.element == e.name) {
                write!(f, "<!ATTLIST {}", e.name)?;
                for att in &list.atts {
                    let ty = match &att.ty {
                        AttType::Cdata => "CDATA".to_string(),
                        AttType::Id => "ID".to_string(),
                        AttType::Idref => "IDREF".to_string(),
                        AttType::Idrefs => "IDREFS".to_string(),
                        AttType::NmToken => "NMTOKEN".to_string(),
                        AttType::Entity => "ENTITY".to_string(),
                        AttType::Enumerated(vs) => format!("({})", vs.join(" | ")),
                    };
                    let dflt = match &att.default {
                        AttDefault::Required => "#REQUIRED".to_string(),
                        AttDefault::Implied => "#IMPLIED".to_string(),
                        AttDefault::Value(v) => format!("\"{v}\""),
                    };
                    write!(f, " {} {} {}", att.name, ty, dflt)?;
                }
                writeln!(f, ">")?;
            }
        }
        for ent in &self.entities {
            match ent {
                EntityDecl::Internal { name, text } => {
                    writeln!(f, "<!ENTITY {name} \"{text}\">")?;
                }
                EntityDecl::External {
                    name,
                    system_id,
                    notation,
                } => match notation {
                    Some(n) => writeln!(f, "<!ENTITY {name} SYSTEM \"{system_id}\" NDATA {n}>")?,
                    None => writeln!(f, "<!ENTITY {name} SYSTEM \"{system_id}\" NDATA >")?,
                },
            }
        }
        write!(f, "]>")
    }
}

struct Parser<'a> {
    cur: Cursor<'a>,
}

impl<'a> Parser<'a> {
    fn parse_dtd(mut self) -> Result<Dtd> {
        let mut dtd = Dtd::default();
        self.cur.skip_ws_and_comments();
        if self.cur.eat("<!DOCTYPE") {
            self.cur.skip_ws();
            dtd.doctype = self.cur.name(false)?.to_ascii_lowercase();
            self.cur.skip_ws();
            self.cur.require("[")?;
        }
        loop {
            self.cur.skip_ws_and_comments();
            if self.cur.at_eof() {
                break;
            }
            if self.cur.eat("]") {
                self.cur.skip_ws();
                let _ = self.cur.eat(">");
                break;
            }
            if self.cur.eat("<!ELEMENT") {
                let decls = self.element_decl()?;
                dtd.elements.extend(decls);
            } else if self.cur.eat("<!ATTLIST") {
                dtd.attlists.push(self.attlist_decl()?);
            } else if self.cur.eat("<!ENTITY") {
                dtd.entities.push(self.entity_decl()?);
            } else {
                return Err(SgmlError::new(
                    self.cur.pos(),
                    ErrorKind::Unexpected {
                        expected: "`<!ELEMENT`, `<!ATTLIST`, `<!ENTITY` or `]>`".to_string(),
                        found: format!(
                            "`{}`",
                            self.cur.rest().chars().take(12).collect::<String>()
                        ),
                    },
                ));
            }
        }
        if dtd.doctype.is_empty() {
            if let Some(first) = dtd.elements.first() {
                dtd.doctype = first.name.clone();
            }
        }
        dtd.index()?;
        Ok(dtd)
    }

    /// `<!ELEMENT name - O (model)>`; a name group `(a | b)` declares several
    /// elements with the same model (standard SGML shorthand).
    fn element_decl(&mut self) -> Result<Vec<ElementDecl>> {
        self.cur.skip_ws();
        let mut names = Vec::new();
        if self.cur.eat("(") {
            loop {
                self.cur.skip_ws();
                names.push(self.cur.name(false)?.to_ascii_lowercase());
                self.cur.skip_ws();
                if self.cur.eat("|") {
                    continue;
                }
                self.cur.require(")")?;
                break;
            }
        } else {
            names.push(self.cur.name(false)?.to_ascii_lowercase());
        }
        self.cur.skip_ws();
        // Minimization indicators are optional in our input subset.
        let mut minimization = Minimization::default();
        let mut saw_min = false;
        if let Some(c @ (b'-' | b'O' | b'o')) = self.cur.peek() {
            // Disambiguate `- O` from the start of a content model: a content
            // model always starts with `(` or a reserved word.
            if c == b'-' || self.cur.peek_at(1).is_none_or(|b| b.is_ascii_whitespace()) {
                minimization.start_omissible = c != b'-';
                self.cur.bump();
                self.cur.skip_ws();
                match self.cur.peek() {
                    Some(b'-') => {
                        self.cur.bump();
                    }
                    Some(b'O' | b'o') => {
                        minimization.end_omissible = true;
                        self.cur.bump();
                    }
                    other => {
                        return Err(SgmlError::new(
                            self.cur.pos(),
                            ErrorKind::Unexpected {
                                expected: "`-` or `O` (end-tag minimization)".to_string(),
                                found: other
                                    .map(|b| format!("`{}`", b as char))
                                    .unwrap_or_else(|| "end of input".to_string()),
                            },
                        ));
                    }
                }
                saw_min = true;
            }
        }
        let _ = saw_min;
        self.cur.skip_ws();
        let content = self.content_model()?;
        self.cur.skip_ws();
        self.cur.require(">")?;
        Ok(names
            .into_iter()
            .map(|name| ElementDecl {
                name,
                minimization,
                content: content.clone(),
            })
            .collect())
    }

    fn content_model(&mut self) -> Result<ContentModel> {
        self.cur.skip_ws();
        if self.cur.eat("EMPTY") {
            return Ok(ContentModel::Empty);
        }
        if self.cur.eat("ANY") {
            return Ok(ContentModel::Any);
        }
        let expr = self.content_expr()?;
        // `(#PCDATA)` alone means pure character data.
        if expr == ContentExpr::Pcdata {
            return Ok(ContentModel::Pcdata);
        }
        Ok(ContentModel::Model(expr))
    }

    /// A model group or single token, with optional occurrence indicator.
    fn content_expr(&mut self) -> Result<ContentExpr> {
        self.cur.skip_ws();
        let base = if self.cur.eat("(") {
            let inner = self.model_group()?;
            self.cur.require(")")?;
            inner
        } else if self.cur.eat("#PCDATA") {
            ContentExpr::Pcdata
        } else {
            let name = self.cur.name(false)?.to_ascii_lowercase();
            ContentExpr::Ref(name)
        };
        Ok(self.occurrence(base))
    }

    /// Contents of a parenthesised group: `a, b, c` or `a | b` or `a & b`.
    fn model_group(&mut self) -> Result<ContentExpr> {
        let first = self.content_expr()?;
        self.cur.skip_ws();
        let connector = match self.cur.peek() {
            Some(b',') => b',',
            Some(b'|') => b'|',
            Some(b'&') => b'&',
            _ => return Ok(first),
        };
        let mut items = vec![first];
        while self.cur.peek() == Some(connector) {
            self.cur.bump();
            items.push(self.content_expr()?);
            self.cur.skip_ws();
        }
        // Reject mixed connectors at one level (SGML requires homogeneity).
        if let Some(b @ (b',' | b'|' | b'&')) = self.cur.peek() {
            return Err(SgmlError::new(
                self.cur.pos(),
                ErrorKind::Unexpected {
                    expected: format!("`{}` or `)`", connector as char),
                    found: format!("`{}` (mixed connectors)", b as char),
                },
            ));
        }
        Ok(match connector {
            b',' => ContentExpr::Seq(items),
            b'|' => ContentExpr::Choice(items),
            _ => ContentExpr::And(items),
        })
    }

    fn occurrence(&mut self, base: ContentExpr) -> ContentExpr {
        let occ = match self.cur.peek() {
            Some(b'?') => Occurrence::Opt,
            Some(b'+') => Occurrence::Plus,
            Some(b'*') => Occurrence::Star,
            _ => return base,
        };
        self.cur.bump();
        ContentExpr::Occur(Box::new(base), occ)
    }

    fn attlist_decl(&mut self) -> Result<AttList> {
        self.cur.skip_ws();
        let element = self.cur.name(false)?.to_ascii_lowercase();
        let mut atts = Vec::new();
        loop {
            self.cur.skip_ws();
            if self.cur.eat(">") {
                break;
            }
            let name = self.cur.name(false)?.to_ascii_lowercase();
            self.cur.skip_ws();
            let ty = if self.cur.eat("CDATA") {
                AttType::Cdata
            } else if self.cur.eat("IDREFS") {
                AttType::Idrefs
            } else if self.cur.eat("IDREF") {
                AttType::Idref
            } else if self.cur.eat("ID") {
                AttType::Id
            } else if self.cur.eat("NMTOKEN") {
                AttType::NmToken
            } else if self.cur.eat("ENTITY") {
                AttType::Entity
            } else if self.cur.eat("(") {
                let mut names = Vec::new();
                loop {
                    self.cur.skip_ws();
                    names.push(self.cur.name(false)?.to_ascii_lowercase());
                    self.cur.skip_ws();
                    if self.cur.eat("|") {
                        continue;
                    }
                    self.cur.require(")")?;
                    break;
                }
                AttType::Enumerated(names)
            } else {
                return Err(SgmlError::new(
                    self.cur.pos(),
                    ErrorKind::Unexpected {
                        expected: "an attribute type".to_string(),
                        found: format!(
                            "`{}`",
                            self.cur.rest().chars().take(12).collect::<String>()
                        ),
                    },
                ));
            };
            self.cur.skip_ws();
            let default = if self.cur.eat("#REQUIRED") {
                AttDefault::Required
            } else if self.cur.eat("#IMPLIED") {
                AttDefault::Implied
            } else if matches!(self.cur.peek(), Some(b'"' | b'\'')) {
                AttDefault::Value(self.cur.quoted()?)
            } else {
                // Bare name-token default (e.g. `draft` in Fig. 1 line 3).
                AttDefault::Value(self.cur.name(false)?.to_ascii_lowercase())
            };
            atts.push(AttDef { name, ty, default });
        }
        Ok(AttList { element, atts })
    }

    fn entity_decl(&mut self) -> Result<EntityDecl> {
        self.cur.skip_ws();
        let name = self.cur.name(false)?;
        self.cur.skip_ws();
        if self.cur.eat("SYSTEM") {
            self.cur.skip_ws();
            let system_id = self.cur.quoted()?;
            self.cur.skip_ws();
            let notation = if self.cur.eat("NDATA") {
                self.cur.skip_ws();
                if self.cur.peek() == Some(b'>') {
                    None
                } else {
                    Some(self.cur.name(false)?)
                }
            } else {
                None
            };
            self.cur.skip_ws();
            self.cur.require(">")?;
            Ok(EntityDecl::External {
                name,
                system_id,
                notation,
            })
        } else {
            let text = self.cur.quoted()?;
            self.cur.skip_ws();
            self.cur.require(">")?;
            Ok(EntityDecl::Internal { name, text })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::fixtures::ARTICLE_DTD;
    #[allow(dead_code)]
    const UNUSED: &str = r#"<!DOCTYPE article [
<!ELEMENT article - - (title, author+, affil, abstract, section+, acknowl)>
<!ATTLIST article  status (final | draft) draft>
<!ELEMENT title - O (#PCDATA)>
<!ELEMENT author - O (#PCDATA)>
<!ELEMENT affil - O (#PCDATA)>
<!ELEMENT abstract - O (#PCDATA)>
<!ELEMENT section - O ((title, body+) | (title, body*, subsectn+))>
<!ELEMENT subsectn - O (title, body+)>
<!ELEMENT body - O (figure | paragr)>
<!ELEMENT figure - O (picture, caption?)>
<!ATTLIST figure   label ID #IMPLIED>
<!ELEMENT picture - O EMPTY>
<!ATTLIST picture  sizex NMTOKEN "16cm"
                   sizey NMTOKEN #IMPLIED
                   file ENTITY #IMPLIED>
<!ELEMENT caption O O (#PCDATA)>
<!ENTITY fig1 SYSTEM "/u/christop/SGML/image1" NDATA >
<!ELEMENT paragr - O (#PCDATA)>
<!ATTLIST paragr   reflabel IDREF #REQUIRED>
<!ELEMENT acknowl - O (#PCDATA)>
]>"#;

    #[test]
    fn parses_fig1_dtd() {
        let dtd = Dtd::parse(ARTICLE_DTD).unwrap();
        assert_eq!(dtd.doctype, "article");
        assert_eq!(dtd.elements.len(), 13);
        assert_eq!(dtd.attlists.len(), 4);
        assert_eq!(dtd.entities.len(), 1);
    }

    #[test]
    fn article_content_model_shape() {
        let dtd = Dtd::parse(ARTICLE_DTD).unwrap();
        let article = dtd.element("article").unwrap();
        match &article.content {
            ContentModel::Model(ContentExpr::Seq(items)) => {
                assert_eq!(items.len(), 6);
                assert_eq!(items[0], ContentExpr::Ref("title".to_string()));
                assert_eq!(
                    items[1],
                    ContentExpr::Occur(
                        Box::new(ContentExpr::Ref("author".to_string())),
                        Occurrence::Plus
                    )
                );
            }
            other => panic!("unexpected model: {other:?}"),
        }
    }

    #[test]
    fn section_model_is_choice_of_groups() {
        let dtd = Dtd::parse(ARTICLE_DTD).unwrap();
        let section = dtd.element("section").unwrap();
        match &section.content {
            ContentModel::Model(ContentExpr::Choice(alts)) => {
                assert_eq!(alts.len(), 2);
                assert!(matches!(alts[0], ContentExpr::Seq(_)));
                assert!(matches!(alts[1], ContentExpr::Seq(_)));
            }
            other => panic!("unexpected model: {other:?}"),
        }
    }

    #[test]
    fn minimization_parsed() {
        let dtd = Dtd::parse(ARTICLE_DTD).unwrap();
        assert!(!dtd.element("article").unwrap().minimization.end_omissible);
        assert!(dtd.element("title").unwrap().minimization.end_omissible);
        assert!(!dtd.element("title").unwrap().minimization.start_omissible);
        let caption = dtd.element("caption").unwrap();
        assert!(caption.minimization.start_omissible);
        assert!(caption.minimization.end_omissible);
    }

    #[test]
    fn attributes_parsed() {
        let dtd = Dtd::parse(ARTICLE_DTD).unwrap();
        let atts = dtd.attributes_of("article");
        assert_eq!(atts.len(), 1);
        assert_eq!(atts[0].name, "status");
        assert_eq!(
            atts[0].ty,
            AttType::Enumerated(vec!["final".to_string(), "draft".to_string()])
        );
        assert_eq!(atts[0].default, AttDefault::Value("draft".to_string()));

        let picture = dtd.attributes_of("picture");
        assert_eq!(picture.len(), 3);
        assert_eq!(picture[0].default, AttDefault::Value("16cm".to_string()));
        assert_eq!(picture[1].default, AttDefault::Implied);
        assert_eq!(picture[2].ty, AttType::Entity);

        let paragr = dtd.attributes_of("paragr");
        assert_eq!(paragr[0].ty, AttType::Idref);
        assert_eq!(paragr[0].default, AttDefault::Required);
    }

    #[test]
    fn entity_parsed() {
        let dtd = Dtd::parse(ARTICLE_DTD).unwrap();
        match dtd.entity("fig1").unwrap() {
            EntityDecl::External {
                system_id,
                notation,
                ..
            } => {
                assert_eq!(system_id, "/u/christop/SGML/image1");
                assert!(notation.is_none());
            }
            other => panic!("unexpected entity: {other:?}"),
        }
    }

    #[test]
    fn empty_and_pcdata_models() {
        let dtd = Dtd::parse(ARTICLE_DTD).unwrap();
        assert_eq!(dtd.element("picture").unwrap().content, ContentModel::Empty);
        assert_eq!(dtd.element("title").unwrap().content, ContentModel::Pcdata);
    }

    #[test]
    fn display_round_trips() {
        let dtd = Dtd::parse(ARTICLE_DTD).unwrap();
        let emitted = dtd.to_string();
        let reparsed = Dtd::parse(&emitted).unwrap();
        assert_eq!(reparsed.doctype, dtd.doctype);
        assert_eq!(reparsed.elements, dtd.elements);
        assert_eq!(reparsed.attlists, dtd.attlists);
        assert_eq!(reparsed.entities, dtd.entities);
    }

    #[test]
    fn duplicate_element_rejected() {
        let r = Dtd::parse("<!ELEMENT a - - (#PCDATA)>\n<!ELEMENT a - - (#PCDATA)>");
        assert!(matches!(
            r.unwrap_err().kind,
            ErrorKind::DuplicateElement(_)
        ));
    }

    #[test]
    fn attlist_for_unknown_element_rejected() {
        let r = Dtd::parse("<!ELEMENT a - - (#PCDATA)>\n<!ATTLIST b x CDATA #IMPLIED>");
        assert!(matches!(
            r.unwrap_err().kind,
            ErrorKind::AttlistForUnknownElement(_)
        ));
    }

    #[test]
    fn mixed_connectors_rejected() {
        let r = Dtd::parse("<!ELEMENT a - - (b, c | d)>");
        assert!(r.is_err());
    }

    #[test]
    fn and_connector_parsed() {
        let dtd = Dtd::parse("<!ELEMENT pre - - (to & from)>\n<!ELEMENT to - O (#PCDATA)>\n<!ELEMENT from - O (#PCDATA)>").unwrap();
        match &dtd.element("pre").unwrap().content {
            ContentModel::Model(ContentExpr::And(items)) => assert_eq!(items.len(), 2),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn name_group_declares_multiple_elements() {
        let dtd = Dtd::parse("<!ELEMENT (b | i) - - (#PCDATA)>").unwrap();
        assert!(dtd.element("b").is_some());
        assert!(dtd.element("i").is_some());
    }

    #[test]
    fn internal_entity_parsed() {
        let dtd = Dtd::parse("<!ELEMENT a - - (#PCDATA)>\n<!ENTITY inria \"I.N.R.I.A.\">").unwrap();
        match dtd.entity("inria").unwrap() {
            EntityDecl::Internal { text, .. } => assert_eq!(text, "I.N.R.I.A."),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn missing_minimization_defaults_to_required_tags() {
        let dtd = Dtd::parse("<!ELEMENT a (#PCDATA)>").unwrap();
        let e = dtd.element("a").unwrap();
        assert!(!e.minimization.start_omissible);
        assert!(!e.minimization.end_omissible);
    }
}
