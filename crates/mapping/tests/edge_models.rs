//! End-to-end coverage for the less-travelled DTD constructs: `ANY`
//! declared content, `IDREFS`, three-operand `&` groups, nested groups with
//! occurrence indicators, and mixed content.

use docql_mapping::{load_sgml_text, map_dtd, schema_to_dtd};
use docql_model::{sym, Instance, Value};
use docql_sgml::{validate, Dtd};

fn load(
    dtd_text: &str,
    doc_text: &str,
) -> (
    docql_mapping::DtdMapping,
    Instance,
    docql_mapping::LoadedDocument,
) {
    let dtd = Dtd::parse(dtd_text).unwrap();
    let mapping = map_dtd(&dtd).unwrap();
    let mut instance = Instance::new(mapping.schema.clone());
    let loaded = load_sgml_text(&mapping, &dtd, &mut instance, doc_text).unwrap();
    (mapping, instance, loaded)
}

#[test]
fn any_content_loads_as_mixed_list() {
    let dtd = "<!DOCTYPE note [ <!ELEMENT note - - ANY> <!ELEMENT b - - (#PCDATA)> ]>";
    let (_, instance, loaded) = load(dtd, "<note>plain <b>bold</b> tail</note>");
    let v = instance.value_of(loaded.root).unwrap();
    let Some(Value::List(items)) = v.attr(sym("contents")) else {
        panic!("{v}");
    };
    assert_eq!(items.len(), 3);
    assert!(matches!(&items[0], Value::Union(m, _) if m.as_str() == "text"));
    assert!(
        matches!(&items[1], Value::Union(m, p) if m.as_str() == "object" && matches!(p.as_ref(), Value::Oid(_)))
    );
    assert!(instance.check().is_empty());
    assert_eq!(instance.text(loaded.root), Some("plain bold tail"));
}

#[test]
fn idrefs_attribute_resolves_to_object_list() {
    let dtd = "<!DOCTYPE doc [ \
        <!ELEMENT doc - - (chunk+, xref)> \
        <!ELEMENT chunk - O (#PCDATA)> \
        <!ATTLIST chunk id ID #REQUIRED> \
        <!ELEMENT xref - O EMPTY> \
        <!ATTLIST xref targets IDREFS #REQUIRED> ]>";
    let (_, instance, loaded) = load(
        dtd,
        "<doc><chunk id=\"c1\">one</chunk><chunk id=\"c2\">two</chunk>\
         <xref targets=\"c1 c2\"></xref></doc>",
    );
    let c1 = loaded.ids["c1"];
    let c2 = loaded.ids["c2"];
    // Find the xref object.
    let xref = instance
        .objects()
        .find(|(_, class, _)| *class == sym("Xref"))
        .map(|(oid, _, _)| oid)
        .unwrap();
    let v = instance.value_of(xref).unwrap();
    assert_eq!(
        v.attr(sym("targets")),
        Some(&Value::list([Value::Oid(c1), Value::Oid(c2)]))
    );
    // Back-references on both chunks.
    for c in [c1, c2] {
        let cv = instance.value_of(c).unwrap();
        assert_eq!(cv.attr(sym("id")), Some(&Value::list([Value::Oid(xref)])));
    }
}

#[test]
fn three_operand_and_group_accepts_all_permutations() {
    let dtd = "<!DOCTYPE trio [ \
        <!ELEMENT trio - - (a & b & c)> \
        <!ELEMENT a - O (#PCDATA)> \
        <!ELEMENT b - O (#PCDATA)> \
        <!ELEMENT c - O (#PCDATA)> ]>";
    let parsed = Dtd::parse(dtd).unwrap();
    let mapping = map_dtd(&parsed).unwrap();
    // 3! = 6 permutation branches in the union.
    let trio = mapping.schema.hierarchy().get(sym("Trio")).unwrap();
    match &trio.ty {
        docql_model::Type::Union(alts) => assert_eq!(alts.len(), 6),
        other => panic!("{other}"),
    }
    for order in ["abc", "acb", "bac", "bca", "cab", "cba"] {
        let body: String = order
            .chars()
            .map(|ch| format!("<{ch}>{ch}!</{ch}>"))
            .collect();
        let mut instance = Instance::new(mapping.schema.clone());
        let r = load_sgml_text(
            &mapping,
            &parsed,
            &mut instance,
            &format!("<trio>{body}</trio>"),
        );
        assert!(r.is_ok(), "order {order}: {:?}", r.err());
        assert!(instance.check().is_empty(), "order {order}");
    }
}

#[test]
fn nested_group_with_plus_loads_grouped_values() {
    let dtd = "<!DOCTYPE pairs [ \
        <!ELEMENT pairs - - ((k, v)+)> \
        <!ELEMENT k - O (#PCDATA)> \
        <!ELEMENT v - O (#PCDATA)> ]>";
    let (_, instance, loaded) = load(dtd, "<pairs><k>a</k><v>1</v><k>b</k><v>2</v></pairs>");
    let val = instance.value_of(loaded.root).unwrap();
    // A top-level `(group)+` model wraps as `content: list(tuple(k, v))`.
    let Some(Value::List(items)) = val.attr(sym("content")) else {
        panic!("{val}");
    };
    assert_eq!(items.len(), 2);
    for item in items {
        let Value::Tuple(fs) = item else {
            panic!("{item}")
        };
        assert_eq!(fs.len(), 2);
    }
    assert!(instance.check().is_empty());
}

#[test]
fn mixed_content_star_loads_union_list() {
    let dtd = "<!DOCTYPE para [ \
        <!ELEMENT para - - ((#PCDATA | emph)*)> \
        <!ELEMENT emph - - (#PCDATA)> ]>";
    let (_, instance, loaded) = load(dtd, "<para>before <emph>shiny</emph> after</para>");
    let val = instance.value_of(loaded.root).unwrap();
    let Some(Value::List(items)) = val.attr(sym("content")) else {
        panic!("{val}");
    };
    assert_eq!(items.len(), 3);
    assert!(matches!(&items[0], Value::Union(m, _) if m.as_str() == "text"));
    assert!(matches!(&items[1], Value::Union(m, _) if m.as_str() == "emph"));
    assert_eq!(instance.text(loaded.root), Some("before shiny after"));
}

#[test]
fn inverse_mapping_round_trips_edge_models() {
    for dtd_text in [
        "<!DOCTYPE trio [ <!ELEMENT trio - - (a & b & c)> <!ELEMENT a - O (#PCDATA)> <!ELEMENT b - O (#PCDATA)> <!ELEMENT c - O (#PCDATA)> ]>",
        "<!DOCTYPE pairs [ <!ELEMENT pairs - - ((k, v)+)> <!ELEMENT k - O (#PCDATA)> <!ELEMENT v - O (#PCDATA)> ]>",
    ] {
        let dtd = Dtd::parse(dtd_text).unwrap();
        let m1 = map_dtd(&dtd).unwrap();
        let rebuilt = schema_to_dtd(&m1).unwrap();
        let m2 = map_dtd(&rebuilt).unwrap();
        for def in m1.schema.hierarchy().classes() {
            assert_eq!(
                Some(&def.ty),
                m2.schema.hierarchy().get(def.name).map(|d| &d.ty),
                "σ({}) changed across the inverse mapping",
                def.name
            );
        }
    }
}

#[test]
fn exported_any_content_round_trips() {
    let dtd_text = "<!DOCTYPE note [ <!ELEMENT note - - ANY> <!ELEMENT b - - (#PCDATA)> ]>";
    let (mapping, instance, loaded) = load(dtd_text, "<note>plain <b>bold</b> tail</note>");
    let doc = docql_mapping::export_document(&mapping, &instance, loaded.root).unwrap();
    let dtd = Dtd::parse(dtd_text).unwrap();
    assert!(validate(&doc, &dtd).is_empty());
    assert_eq!(doc.root.text_content(), "plain bold tail");
}
