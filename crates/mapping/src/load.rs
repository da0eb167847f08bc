//! Document instance → database objects and values (§3).
//!
//! "Each SGML element definition in the DTD is interpreted as a class …";
//! correspondingly each element *occurrence* becomes an object of that
//! class. The loader walks the document tree bottom-up, matches every
//! element's children against its (expanded) content model to obtain a parse
//! tree, and builds the value in lock-step with the [`Shape`] the type
//! generator used — so loaded instances conform to the generated schema by
//! construction.
//!
//! Cross-references are resolved in a second pass: `IDREF` attributes are
//! patched to the referenced object's oid, and every `ID`-carrying object
//! receives the back-reference list Fig. 3 shows as
//! `private label: list(Object)`.
//!
//! The paper's `text` operator — the "inverse mapping from a logical
//! object to the corresponding portion of text" \[5\] — is a function of
//! the loaded objects, and [`derive_text`] is its one derivation: the loader
//! records it on every object of the document ([`Instance::text`]), and the
//! store re-derives it the same way after updates and recovery.

use crate::schema_gen::{AttrKind, ContentKind, DtdMapping, MapError};
use crate::shape::Shape;
use docql_model::{Instance, Oid, Sym, Value};
use docql_sgml::{match_children, Document, Element, Label, MatchNode, Node};
use std::collections::HashMap;

/// The result of loading one document.
#[derive(Debug)]
pub struct LoadedDocument {
    /// The document element's object.
    pub root: Oid,
    /// ID table: SGML ID value → object.
    pub ids: HashMap<String, Oid>,
}

/// Load a parsed document into `instance` (which must be an instance of
/// `mapping.schema`) and append its root object to the root of persistence.
pub fn load_document(
    mapping: &DtdMapping,
    instance: &mut Instance,
    doc: &Document,
) -> Result<LoadedDocument, MapError> {
    let mut loader = Loader {
        mapping,
        instance,
        ids: HashMap::new(),
        pending_refs: Vec::new(),
    };
    let root = loader.element(&doc.root)?;
    loader.patch_references()?;
    let ids = loader.ids;
    let mut texts = HashMap::new();
    derive_text(mapping, instance, root, &mut texts);
    for (oid, text) in &texts {
        instance
            .set_text(*oid, Some(text))
            .map_err(MapError::Model)?;
    }

    // Append to the root of persistence (γ).
    let existing = instance
        .root(mapping.root)
        .cloned()
        .unwrap_or(Value::List(Vec::new()));
    let mut items = match existing {
        Value::List(items) => items,
        other => vec![other],
    };
    items.push(Value::Oid(root));
    instance
        .set_root(mapping.root, Value::List(items))
        .map_err(MapError::Model)?;

    Ok(LoadedDocument { root, ids })
}

struct Loader<'m, 'i> {
    mapping: &'m DtdMapping,
    instance: &'i mut Instance,
    ids: HashMap<String, Oid>,
    /// (object, field, referenced id, is_list)
    pending_refs: Vec<(Oid, Sym, String, bool)>,
}

impl Loader<'_, '_> {
    fn element(&mut self, e: &Element) -> Result<Oid, MapError> {
        let em = self
            .mapping
            .elements
            .get(&e.name)
            .ok_or_else(|| MapError::Load(format!("element `{}` has no mapping", e.name)))?;
        // Children first (bottom-up).
        let mut child_vals: Vec<ChildVal> = Vec::new();
        for c in &e.children {
            match c {
                Node::Element(child) => {
                    let oid = self.element(child)?;
                    child_vals.push(ChildVal::Obj(oid));
                }
                Node::Text(t) => child_vals.push(ChildVal::Text(t.clone())),
            }
        }

        let mut fields: Vec<(Sym, Value)> = Vec::new();
        let mut union_value: Option<Value> = None;
        match &em.content {
            ContentKind::TextContent => {
                fields.push((docql_model::sym("contents"), Value::str(e.text_content())));
            }
            ContentKind::Media => {
                // The "bits" of an external picture: its entity system id if
                // given, else empty.
                let bits = e.attr("file").unwrap_or_default().to_string();
                fields.push((docql_model::sym("bits"), Value::str(bits)));
            }
            ContentKind::AnyContent => {
                let items: Vec<Value> = child_vals
                    .iter()
                    .map(|cv| match cv {
                        ChildVal::Obj(o) => Value::union("object", Value::Oid(*o)),
                        ChildVal::Text(t) => Value::union("text", Value::str(t.clone())),
                    })
                    .collect();
                fields.push((docql_model::sym("contents"), Value::List(items)));
            }
            ContentKind::Structured { expr, shape } => {
                // Labels for content-model matching: drop whitespace-only
                // text unless the model accepts text.
                let labels: Vec<Label> = child_vals
                    .iter()
                    .map(|cv| match cv {
                        ChildVal::Obj(o) => {
                            let class = self
                                .instance
                                .class_of(*o)
                                .map_err(|err| MapError::Load(err.to_string()))?;
                            // Tag = lower-cased class name is not reliable;
                            // look it up from the element child list instead.
                            Ok(Label::Elem(self.tag_of_class(class).unwrap_or_default()))
                        }
                        ChildVal::Text(_) => Ok(Label::Text),
                    })
                    .collect::<Result<Vec<_>, MapError>>()?;
                // Filter whitespace-only text runs that the model ignores.
                let mut filtered_vals: Vec<&ChildVal> = Vec::new();
                let mut filtered_labels: Vec<Label> = Vec::new();
                for (cv, l) in child_vals.iter().zip(&labels) {
                    if let (ChildVal::Text(t), Label::Text) = (cv, l) {
                        if t.trim().is_empty() {
                            continue;
                        }
                    }
                    filtered_vals.push(cv);
                    filtered_labels.push(l.clone());
                }
                let m = match_children(expr, &filtered_labels).ok_or_else(|| {
                    MapError::Load(format!(
                        "children of `{}` do not match its content model",
                        e.name
                    ))
                })?;
                let built = build_value(shape, &m, &filtered_vals);
                match built {
                    Value::Tuple(fs) => fields.extend(fs),
                    other @ Value::Union(..) => union_value = Some(other),
                    other => fields.push((docql_model::sym("content"), other)),
                }
            }
        }

        // SGML attributes → trailing private fields.
        let mut id_value: Option<String> = None;
        for am in &em.attrs {
            let raw = e.attr(&am.sgml_name);
            let v = match (&am.kind, raw) {
                (AttrKind::Str, Some(s)) => Value::str(s),
                (AttrKind::Entity, Some(s)) => {
                    // Store the entity's system identifier if resolvable.
                    Value::str(s)
                }
                (AttrKind::Id, Some(s)) => {
                    id_value = Some(s.to_string());
                    Value::List(Vec::new()) // back-references patched later
                }
                (AttrKind::Ref, Some(_)) | (AttrKind::Refs, Some(_)) => Value::Nil, // patched
                // Absent #IMPLIED attributes: the empty string for string-
                // typed fields, the empty list for ID/IDREFS back-reference
                // lists, nil for object references (nil ∈ dom(any)).
                (AttrKind::Str | AttrKind::Entity, None) => Value::str(""),
                (AttrKind::Id | AttrKind::Refs, None) => Value::List(Vec::new()),
                (AttrKind::Ref, None) => Value::Nil,
            };
            fields.push((am.field, v));
        }

        let value = match union_value {
            Some(u) if fields.is_empty() => u,
            Some(u) => {
                // Union content wrapped with attributes (see schema_gen).
                let mut fs = vec![(docql_model::sym("content"), u)];
                fs.extend(fields);
                Value::Tuple(fs)
            }
            None => Value::Tuple(fields),
        };
        let oid = self
            .instance
            .new_object(em.class, value)
            .map_err(MapError::Model)?;
        if let Some(id) = id_value {
            if self.ids.insert(id.clone(), oid).is_some() {
                return Err(MapError::Load(format!("duplicate ID `{id}`")));
            }
        }
        for am in &em.attrs {
            if let Some(raw) = e.attr(&am.sgml_name) {
                match am.kind {
                    AttrKind::Ref => {
                        self.pending_refs
                            .push((oid, am.field, raw.to_string(), false));
                    }
                    AttrKind::Refs => {
                        for part in raw.split_whitespace() {
                            self.pending_refs
                                .push((oid, am.field, part.to_string(), true));
                        }
                    }
                    _ => {}
                }
            }
        }
        Ok(oid)
    }

    fn tag_of_class(&self, class: Sym) -> Option<String> {
        self.mapping
            .elements
            .values()
            .find(|em| em.class == class)
            .map(|em| em.tag.clone())
    }

    /// Second pass: point IDREF fields at their targets and build the ID
    /// side's back-reference lists.
    fn patch_references(&mut self) -> Result<(), MapError> {
        let mut backrefs: HashMap<Oid, Vec<Value>> = HashMap::new();
        for (holder, field, id, is_list) in std::mem::take(&mut self.pending_refs) {
            let target = *self
                .ids
                .get(&id)
                .ok_or_else(|| MapError::Load(format!("IDREF `{id}` matches no ID")))?;
            let mut v = self
                .instance
                .value_of(holder)
                .map_err(MapError::Model)?
                .clone();
            if let Value::Tuple(fs) = &mut v {
                for (n, fv) in fs.iter_mut() {
                    if *n == field {
                        if is_list {
                            match fv {
                                Value::List(items) => items.push(Value::Oid(target)),
                                _ => *fv = Value::List(vec![Value::Oid(target)]),
                            }
                        } else {
                            *fv = Value::Oid(target);
                        }
                    }
                }
            }
            self.instance
                .set_value(holder, v)
                .map_err(MapError::Model)?;
            backrefs.entry(target).or_default().push(Value::Oid(holder));
        }
        // Back-reference lists on ID holders (Fig. 3 `label: list(Object)`).
        for (&id_holder, refs) in &backrefs {
            let mut v = self
                .instance
                .value_of(id_holder)
                .map_err(MapError::Model)?
                .clone();
            if let Value::Tuple(fs) = &mut v {
                for (n, fv) in fs.iter_mut() {
                    let is_id_field = self.mapping.elements.values().any(|em| {
                        em.attrs
                            .iter()
                            .any(|a| a.field == *n && matches!(a.kind, AttrKind::Id))
                    });
                    if is_id_field {
                        *fv = Value::List(refs.clone());
                    }
                }
            }
            self.instance
                .set_value(id_holder, v)
                .map_err(MapError::Model)?;
        }
        Ok(())
    }
}

enum ChildVal {
    Obj(Oid),
    Text(String),
}

/// Build the value for a shape from its match tree, in lock-step.
fn build_value(shape: &Shape, m: &MatchNode, children: &[&ChildVal]) -> Value {
    match (shape, m) {
        (Shape::Class(_), MatchNode::Child(i)) => match children[*i] {
            ChildVal::Obj(o) => Value::Oid(*o),
            ChildVal::Text(_) => Value::Nil,
        },
        (Shape::Text, node) => {
            // #PCDATA leaf: concatenate the matched text runs.
            let mut idx = Vec::new();
            node.child_indices(&mut idx);
            let mut out = String::new();
            for i in idx {
                if let ChildVal::Text(t) = children[i] {
                    let t = t.trim();
                    if !t.is_empty() {
                        if !out.is_empty() {
                            out.push(' ');
                        }
                        out.push_str(t);
                    }
                }
            }
            Value::str(out)
        }
        (Shape::Tuple(fields), MatchNode::Seq(nodes)) => {
            debug_assert_eq!(fields.len(), nodes.len());
            Value::Tuple(
                fields
                    .iter()
                    .zip(nodes)
                    .map(|((name, s), n)| (*name, build_value(s, n, children)))
                    .collect(),
            )
        }
        (Shape::Union(branches), MatchNode::Choice(k, inner)) => {
            let (marker, s) = &branches[*k];
            Value::Union(*marker, Box::new(build_value(s, inner, children)))
        }
        (Shape::List(inner, _), MatchNode::Repeat(instances)) => Value::List(
            instances
                .iter()
                .map(|n| build_value(inner, n, children))
                .collect(),
        ),
        (Shape::Optional(inner), MatchNode::Repeat(instances)) => match instances.first() {
            Some(n) => build_value(inner, n, children),
            None => Value::Nil,
        },
        (Shape::Optional(inner), node) => build_value(inner, node, children),
        // A single-`Ref` model can be matched by a bare Child node.
        (Shape::Tuple(fields), node) if fields.len() == 1 => Value::Tuple(vec![(
            fields[0].0,
            build_value(&fields[0].1, node, children),
        )]),
        (shape, node) => {
            debug_assert!(false, "shape/match mismatch: {shape:?} vs {node:?}");
            Value::Nil
        }
    }
}

/// The paper's `text` mapping (§3) for every object reachable from `root`,
/// derived bottom-up into `texts` (objects already there count as derived).
///
/// An object's text is the `Element::text_content` of the element it was
/// loaded from: a `#PCDATA` object's `contents`, `""` for `EMPTY` media,
/// and otherwise its trimmed, non-empty text runs and child-object texts
/// in value order, joined by one space. SGML-attribute fields are skipped.
pub fn derive_text(
    mapping: &DtdMapping,
    instance: &Instance,
    root: Oid,
    texts: &mut HashMap<Oid, String>,
) {
    let contents = docql_model::sym("contents");
    let mut deriver = TextDeriver {
        mapping,
        instance,
        contents,
        texts,
    };
    deriver.object(root, &mut String::new());
}

struct TextDeriver<'a> {
    mapping: &'a DtdMapping,
    instance: &'a Instance,
    contents: Sym,
    texts: &'a mut HashMap<Oid, String>,
}

impl TextDeriver<'_> {
    /// Derive `oid`'s text into `texts` and append it to `out`.
    fn object(&mut self, oid: Oid, out: &mut String) {
        if let Some(text) = self.texts.get(&oid) {
            return push_run(out, text);
        }
        // Claimed before descending, so a value cycle (built by an update)
        // reads "" where it closes instead of recursing forever.
        self.texts.insert(oid, String::new());
        let instance = self.instance;
        let (Ok(class), Ok(value)) = (instance.class_of(oid), instance.value_of(oid)) else {
            return;
        };
        let em = self.mapping.elements.values().find(|em| em.class == class);
        let mut text = String::new();
        match (em.map(|em| &em.content), value) {
            (Some(ContentKind::TextContent), v) => {
                if let Some(Value::Str(s)) = v.attr(self.contents) {
                    text.clone_from(s);
                }
            }
            (Some(ContentKind::Media), _) => {}
            (_, Value::Tuple(fields)) => {
                for (name, v) in fields {
                    if !em.is_some_and(|em| em.attrs.iter().any(|a| a.field == *name)) {
                        self.runs(v, &mut text);
                    }
                }
            }
            (_, v) => self.runs(v, &mut text),
        }
        push_run(out, &text);
        self.texts.insert(oid, text);
    }

    /// Append the text runs and child-object texts of a content value.
    fn runs(&mut self, v: &Value, out: &mut String) {
        match v {
            Value::Str(s) => push_run(out, s),
            Value::Oid(child) => self.object(*child, out),
            Value::Union(_, payload) => self.runs(payload, out),
            Value::Tuple(fields) => {
                for (_, fv) in fields {
                    self.runs(fv, out);
                }
            }
            Value::List(items) | Value::Set(items) => {
                for item in items {
                    self.runs(item, out);
                }
            }
            _ => {}
        }
    }
}

fn push_run(out: &mut String, run: &str) {
    let run = run.trim();
    if !run.is_empty() {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(run);
    }
}

/// Convenience: parse and load a document from SGML text.
pub fn load_sgml_text(
    mapping: &DtdMapping,
    dtd: &docql_sgml::Dtd,
    instance: &mut Instance,
    src: &str,
) -> Result<LoadedDocument, MapError> {
    let parser = docql_sgml::DocParser::new(dtd)?;
    let doc = parser.parse(src)?;
    load_document(mapping, instance, &doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema_gen::map_dtd;
    use docql_model::sym;
    use docql_sgml::fixtures::{ARTICLE_DTD, FIG2_DOCUMENT, LETTER_DTD};
    use docql_sgml::Dtd;

    fn load_fig2() -> (DtdMapping, Instance, LoadedDocument) {
        let dtd = Dtd::parse(ARTICLE_DTD).unwrap();
        let mapping = map_dtd(&dtd).unwrap();
        let mut instance = Instance::new(mapping.schema.clone());
        let loaded = load_sgml_text(&mapping, &dtd, &mut instance, FIG2_DOCUMENT).unwrap();
        (mapping, instance, loaded)
    }

    #[test]
    fn fig2_loads_and_typechecks() {
        let (_, instance, _) = load_fig2();
        let errs = instance.check();
        assert!(errs.is_empty(), "{errs:?}");
        assert!(instance.object_count() > 10);
    }

    #[test]
    fn root_of_persistence_holds_the_article() {
        let (mapping, instance, loaded) = load_fig2();
        let root = instance.root(mapping.root).unwrap();
        assert_eq!(root, &Value::list([Value::Oid(loaded.root)]));
    }

    #[test]
    fn article_value_shape() {
        let (_, instance, loaded) = load_fig2();
        let v = instance.value_of(loaded.root).unwrap();
        let authors = v.attr(sym("authors")).unwrap();
        match authors {
            Value::List(items) => assert_eq!(items.len(), 4),
            other => panic!("{other:?}"),
        }
        assert_eq!(v.attr(sym("status")), Some(&Value::str("final")));
        let sections = v.attr(sym("sections")).unwrap();
        match sections {
            Value::List(items) => assert_eq!(items.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sections_take_the_a1_branch() {
        let (_, instance, loaded) = load_fig2();
        let v = instance.value_of(loaded.root).unwrap();
        let Value::List(sections) = v.attr(sym("sections")).unwrap() else {
            panic!()
        };
        let Value::Oid(s0) = sections[0] else {
            panic!()
        };
        let sv = instance.value_of(s0).unwrap();
        match sv {
            Value::Union(m, inner) => {
                assert_eq!(*m, sym("a1"), "title+bodies matches the first branch");
                assert!(inner.attr(sym("title")).is_some());
                assert!(inner.attr(sym("bodies")).is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn text_operator_recorded() {
        let (_, instance, loaded) = load_fig2();
        assert!((0..instance.object_count() as u32).all(|o| instance.text(Oid(o)).is_some()));
        assert!((0..instance.object_count() as u32)
            .filter_map(|o| instance.text(Oid(o)))
            .any(|t| t.contains("SGML preliminaries")));
        // The root object's text is the whole document text.
        let root_text = instance.text(loaded.root).unwrap();
        assert!(root_text.contains("Structured documents"));
        assert!(root_text.contains("Berger-Levrault"));
    }

    #[test]
    fn idref_patched_to_oid_and_backrefs_filled() {
        let (_, instance, loaded) = load_fig2();
        let fig_oid = loaded.ids.get("fig1").copied().expect("figure with ID");
        // Find a paragraph object and check its reflabel.
        let mut found = false;
        for (oid, class, value) in instance.objects() {
            if class == sym("Paragr") {
                assert_eq!(
                    value.attr(sym("reflabel")),
                    Some(&Value::Oid(fig_oid)),
                    "paragraph {oid} reflabel"
                );
                found = true;
            }
        }
        assert!(found);
        // Back-references on the figure.
        let fig_val = instance.value_of(fig_oid).unwrap();
        match fig_val.attr(sym("label")) {
            Some(Value::List(items)) => assert_eq!(items.len(), 2, "two referencing paragraphs"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dangling_idref_is_an_error() {
        let dtd = Dtd::parse(ARTICLE_DTD).unwrap();
        let mapping = map_dtd(&dtd).unwrap();
        let mut instance = Instance::new(mapping.schema.clone());
        let bad = FIG2_DOCUMENT.replace("reflabel=\"fig1\"", "reflabel=\"ghost\"");
        let r = load_sgml_text(&mapping, &dtd, &mut instance, &bad);
        assert!(matches!(r, Err(MapError::Load(msg)) if msg.contains("ghost")));
    }

    #[test]
    fn letters_and_connector_loads_both_orders() {
        let dtd = Dtd::parse(LETTER_DTD).unwrap();
        let mapping = map_dtd(&dtd).unwrap();
        let mut instance = Instance::new(mapping.schema.clone());
        let l1 = load_sgml_text(
            &mapping,
            &dtd,
            &mut instance,
            "<letter><preamble><to>alice<from>bob</preamble><para>hi</para></letter>",
        )
        .unwrap();
        let l2 = load_sgml_text(
            &mapping,
            &dtd,
            &mut instance,
            "<letter><preamble><from>carol<to>dan</preamble><para>yo</para></letter>",
        )
        .unwrap();
        let get_preamble = |root: Oid| -> Value {
            let v = instance.value_of(root).unwrap();
            let Value::Oid(p) = v.attr(sym("preamble")).unwrap() else {
                panic!()
            };
            instance.value_of(*p).unwrap().clone()
        };
        match get_preamble(l1.root) {
            Value::Union(m, inner) => {
                assert_eq!(m, sym("a1"), "declared order to,from");
                assert_eq!(inner.attr_position(sym("to")), Some(0));
            }
            other => panic!("{other:?}"),
        }
        match get_preamble(l2.root) {
            Value::Union(m, inner) => {
                assert_eq!(m, sym("a2"), "permuted order from,to");
                assert_eq!(inner.attr_position(sym("from")), Some(0));
            }
            other => panic!("{other:?}"),
        }
        assert!(instance.check().is_empty());
    }

    #[test]
    fn loading_two_documents_accumulates_in_root() {
        let dtd = Dtd::parse(ARTICLE_DTD).unwrap();
        let mapping = map_dtd(&dtd).unwrap();
        let mut instance = Instance::new(mapping.schema.clone());
        load_sgml_text(&mapping, &dtd, &mut instance, FIG2_DOCUMENT).unwrap();
        load_sgml_text(&mapping, &dtd, &mut instance, FIG2_DOCUMENT).unwrap();
        match instance.root(mapping.root).unwrap() {
            Value::List(items) => assert_eq!(items.len(), 2),
            other => panic!("{other:?}"),
        }
    }
}
