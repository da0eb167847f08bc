//! Database objects → SGML document (the inverse mapping).
//!
//! The paper's footnote 1 points out that "the inverse mapping from database
//! schema/instances to SGML DTD/documents also opens interesting
//! perspectives" and §6 lists updating the document from the database as a
//! key aspect \[5\]. This module implements the instance side: an object of a
//! mapped class is re-serialised as an SGML element tree, so documents can
//! round-trip database edits.

use crate::schema_gen::{AttrKind, ContentKind, DtdMapping, MapError};
use crate::shape::Shape;
use docql_model::{Instance, Oid, Value};
use docql_sgml::{Document, Element, Node};
use std::collections::HashMap;

/// Export the object `root` (of a mapped element class) as a document.
pub fn export_document(
    mapping: &DtdMapping,
    instance: &Instance,
    root: Oid,
) -> Result<Document, MapError> {
    let exporter = Exporter {
        mapping,
        instance,
        ids: collect_ids(mapping, instance),
    };
    Ok(Document {
        root: exporter.element(root)?,
    })
}

/// Rebuild the ID table (oid → SGML ID string) by scanning ID-kind attribute
/// values. Exported IDREF attributes need the target's textual ID; we keep
/// a deterministic synthetic id per target object.
fn collect_ids(mapping: &DtdMapping, instance: &Instance) -> HashMap<Oid, String> {
    let mut out = HashMap::new();
    for (oid, class, _) in instance.objects() {
        let has_id_attr = mapping
            .elements
            .values()
            .any(|em| em.class == class && em.attrs.iter().any(|a| matches!(a.kind, AttrKind::Id)));
        if has_id_attr {
            out.insert(oid, format!("id{}", oid.0));
        }
    }
    out
}

struct Exporter<'m, 'i> {
    mapping: &'m DtdMapping,
    instance: &'i Instance,
    ids: HashMap<Oid, String>,
}

impl Exporter<'_, '_> {
    fn element(&self, oid: Oid) -> Result<Element, MapError> {
        let class = self.instance.class_of(oid).map_err(MapError::Model)?;
        let em = self
            .mapping
            .elements
            .values()
            .find(|em| em.class == class)
            .ok_or_else(|| MapError::Load(format!("class `{class}` maps to no element")))?;
        let value = self.instance.value_of(oid).map_err(MapError::Model)?;
        let mut out = Element::new(em.tag.clone());

        match &em.content {
            ContentKind::TextContent => {
                if let Some(Value::Str(s)) = value.attr(docql_model::sym("contents")) {
                    if !s.is_empty() {
                        out.children.push(Node::Text(s.clone()));
                    }
                }
            }
            ContentKind::Media => {}
            ContentKind::AnyContent => {
                if let Some(Value::List(items)) = value.attr(docql_model::sym("contents")) {
                    for item in items {
                        match item {
                            Value::Union(m, payload) if m.as_str() == "text" => {
                                if let Value::Str(s) = payload.as_ref() {
                                    out.children.push(Node::Text(s.clone()));
                                }
                            }
                            Value::Union(_, payload) => {
                                if let Value::Oid(o) = payload.as_ref() {
                                    out.children.push(Node::Element(self.element(*o)?));
                                }
                            }
                            _ => {}
                        }
                    }
                }
            }
            ContentKind::Structured { shape, .. } => {
                // Non-tuple shapes may sit in a `content` field (schema_gen).
                let content_val = match value {
                    Value::Tuple(_) if !matches!(shape, Shape::Tuple(_)) => {
                        value.attr(docql_model::sym("content")).unwrap_or(value)
                    }
                    v => v,
                };
                self.shape_children(shape, content_val, &mut out)?;
            }
        }

        // Attributes.
        for am in &em.attrs {
            let Some(v) = value.attr(am.field) else {
                continue;
            };
            match (&am.kind, v) {
                (AttrKind::Str | AttrKind::Entity, Value::Str(s))
                    // The loader stores absent #IMPLIED attributes as the
                    // empty string; those are omitted on the way out.
                    if !s.is_empty() => {
                        out.attrs.push((am.sgml_name.clone(), s.clone()));
                    }
                (AttrKind::Id, Value::List(_)) => {
                    if let Some(id) = self.ids.get(&oid) {
                        out.attrs.push((am.sgml_name.clone(), id.clone()));
                    }
                }
                (AttrKind::Ref, Value::Oid(target)) => {
                    if let Some(id) = self.ids.get(target) {
                        out.attrs.push((am.sgml_name.clone(), id.clone()));
                    }
                }
                (AttrKind::Refs, Value::List(items)) => {
                    let ids: Vec<String> = items
                        .iter()
                        .filter_map(|i| match i {
                            Value::Oid(o) => self.ids.get(o).cloned(),
                            _ => None,
                        })
                        .collect();
                    if !ids.is_empty() {
                        out.attrs.push((am.sgml_name.clone(), ids.join(" ")));
                    }
                }
                _ => {}
            }
        }
        Ok(out)
    }

    fn shape_children(
        &self,
        shape: &Shape,
        value: &Value,
        out: &mut Element,
    ) -> Result<(), MapError> {
        match (shape, value) {
            (Shape::Class(_), Value::Oid(o)) => {
                out.children.push(Node::Element(self.element(*o)?));
            }
            (Shape::Class(_), Value::Nil) => {}
            (Shape::Text, Value::Str(s)) => {
                if !s.is_empty() {
                    out.children.push(Node::Text(s.clone()));
                }
            }
            (Shape::Tuple(fields), Value::Tuple(fs)) => {
                for ((name, s), (vn, v)) in fields.iter().zip(fs) {
                    debug_assert_eq!(name, vn);
                    self.shape_children(s, v, out)?;
                }
            }
            (Shape::Union(branches), Value::Union(marker, payload)) => {
                if let Some((_, s)) = branches.iter().find(|(m, _)| m == marker) {
                    self.shape_children(s, payload, out)?;
                }
            }
            (Shape::List(inner, _), Value::List(items)) => {
                for item in items {
                    self.shape_children(inner, item, out)?;
                }
            }
            (Shape::Optional(_), Value::Nil) => {}
            (Shape::Optional(inner), v) => self.shape_children(inner, v, out)?,
            _ => {
                return Err(MapError::Load(format!(
                    "value {value} does not fit shape {shape:?}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::load_sgml_text;
    use crate::schema_gen::map_dtd;
    use docql_model::Instance;
    use docql_sgml::fixtures::{ARTICLE_DTD, FIG2_DOCUMENT, LETTER_DTD};
    use docql_sgml::{validate, Dtd};

    #[test]
    fn fig2_round_trips_through_the_database() {
        let dtd = Dtd::parse(ARTICLE_DTD).unwrap();
        let mapping = map_dtd(&dtd).unwrap();
        let mut instance = Instance::new(mapping.schema.clone());
        let loaded = load_sgml_text(&mapping, &dtd, &mut instance, FIG2_DOCUMENT).unwrap();
        let doc = export_document(&mapping, &instance, loaded.root).unwrap();
        // The exported document is valid against the DTD…
        let errs = validate(&doc, &dtd);
        assert!(errs.is_empty(), "{errs:?}");
        // …and preserves structure and content.
        assert_eq!(doc.root.name, "article");
        assert_eq!(doc.root.attr("status"), Some("final"));
        let mut authors = Vec::new();
        doc.root.find_all("author", &mut authors);
        assert_eq!(authors.len(), 4);
        assert!(doc
            .root
            .find("abstract")
            .unwrap()
            .text_content()
            .contains("Structured documents"));
    }

    #[test]
    fn exported_text_reparses_to_equivalent_instance() {
        let dtd = Dtd::parse(ARTICLE_DTD).unwrap();
        let mapping = map_dtd(&dtd).unwrap();
        let mut instance = Instance::new(mapping.schema.clone());
        let loaded = load_sgml_text(&mapping, &dtd, &mut instance, FIG2_DOCUMENT).unwrap();
        let doc = export_document(&mapping, &instance, loaded.root).unwrap();
        let sgml = doc.to_sgml();
        // Reload the exported text into a fresh instance.
        let mut instance2 = Instance::new(mapping.schema.clone());
        let loaded2 = load_sgml_text(&mapping, &dtd, &mut instance2, &sgml).unwrap();
        let t1 = instance.text(loaded.root).unwrap();
        let t2 = instance2.text(loaded2.root).unwrap();
        assert_eq!(t1, t2, "text content preserved across round-trip");
        assert_eq!(instance.object_count(), instance2.object_count());
    }

    #[test]
    fn letters_round_trip_preserves_field_order() {
        let dtd = Dtd::parse(LETTER_DTD).unwrap();
        let mapping = map_dtd(&dtd).unwrap();
        let mut instance = Instance::new(mapping.schema.clone());
        let loaded = load_sgml_text(
            &mapping,
            &dtd,
            &mut instance,
            "<letter><preamble><from>carol<to>dan</preamble><para>yo</para></letter>",
        )
        .unwrap();
        let doc = export_document(&mapping, &instance, loaded.root).unwrap();
        let pre = doc.root.find("preamble").unwrap();
        let kids: Vec<&str> = pre.child_elements().map(|e| e.name.as_str()).collect();
        assert_eq!(kids, vec!["from", "to"], "document order preserved");
    }
}
