//! End-to-end coverage for the less-travelled DTD constructs: `ANY`
//! declared content, `IDREFS`, three-operand `&` groups, nested groups with
//! occurrence indicators, and mixed content — and, over those and the
//! paper's corpora, the `text` derivation against `Element::text_content`.

use docql_mapping::{derive_text, load_document, load_sgml_text, map_dtd, schema_to_dtd};
use docql_model::{sym, Instance, Oid, Value};
use docql_sgml::fixtures::{ARTICLE_DTD, FIG2_DOCUMENT, LETTER_DTD};
use docql_sgml::{validate, DocParser, Dtd, Element};
use std::collections::HashMap;

const ANY_DTD: &str = "<!DOCTYPE note [ <!ELEMENT note - - ANY> <!ELEMENT b - - (#PCDATA)> ]>";
const ANY_DOC: &str = "<note>plain <b>bold</b> tail</note>";

const IDREFS_DTD: &str = "<!DOCTYPE doc [ \
    <!ELEMENT doc - - (chunk+, xref)> \
    <!ELEMENT chunk - O (#PCDATA)> \
    <!ATTLIST chunk id ID #REQUIRED> \
    <!ELEMENT xref - O EMPTY> \
    <!ATTLIST xref targets IDREFS #REQUIRED> ]>";
const IDREFS_DOC: &str = "<doc><chunk id=\"c1\">one</chunk><chunk id=\"c2\">two</chunk>\
    <xref targets=\"c1 c2\"></xref></doc>";

const TRIO_DTD: &str = "<!DOCTYPE trio [ \
    <!ELEMENT trio - - (a & b & c)> \
    <!ELEMENT a - O (#PCDATA)> \
    <!ELEMENT b - O (#PCDATA)> \
    <!ELEMENT c - O (#PCDATA)> ]>";

const PAIRS_DTD: &str = "<!DOCTYPE pairs [ \
    <!ELEMENT pairs - - ((k, v)+)> \
    <!ELEMENT k - O (#PCDATA)> \
    <!ELEMENT v - O (#PCDATA)> ]>";
const PAIRS_DOC: &str = "<pairs><k>a</k><v>1</v><k>b</k><v>2</v></pairs>";

const MIXED_DTD: &str = "<!DOCTYPE para [ \
    <!ELEMENT para - - ((#PCDATA | emph)*)> \
    <!ELEMENT emph - - (#PCDATA)> ]>";
const MIXED_DOC: &str = "<para>before <emph>shiny</emph> after</para>";

/// The trio document in all six orders of its `&` group.
fn trio_docs() -> Vec<String> {
    ["abc", "acb", "bac", "bca", "cab", "cba"]
        .iter()
        .map(|order| {
            let body: String = order
                .chars()
                .map(|ch| format!("<{ch}>{ch}!</{ch}>"))
                .collect();
            format!("<trio>{body}</trio>")
        })
        .collect()
}

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
    let (_, instance, loaded) = load(ANY_DTD, ANY_DOC);
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
    let (_, instance, loaded) = load(IDREFS_DTD, IDREFS_DOC);
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
    let parsed = Dtd::parse(TRIO_DTD).unwrap();
    let mapping = map_dtd(&parsed).unwrap();
    // 3! = 6 permutation branches in the union.
    let trio = mapping.schema.hierarchy().get(sym("Trio")).unwrap();
    match &trio.ty {
        docql_model::Type::Union(alts) => assert_eq!(alts.len(), 6),
        other => panic!("{other}"),
    }
    for doc in trio_docs() {
        let mut instance = Instance::new(mapping.schema.clone());
        let r = load_sgml_text(&mapping, &parsed, &mut instance, &doc);
        assert!(r.is_ok(), "{doc}: {:?}", r.err());
        assert!(instance.check().is_empty(), "{doc}");
    }
}

#[test]
fn nested_group_with_plus_loads_grouped_values() {
    let (_, instance, loaded) = load(PAIRS_DTD, PAIRS_DOC);
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
    let (_, instance, loaded) = load(MIXED_DTD, MIXED_DOC);
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
    for dtd_text in [TRIO_DTD, PAIRS_DTD] {
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
    let (mapping, instance, loaded) = load(ANY_DTD, ANY_DOC);
    let doc = docql_mapping::export_document(&mapping, &instance, loaded.root).unwrap();
    let dtd = Dtd::parse(ANY_DTD).unwrap();
    assert!(validate(&doc, &dtd).is_empty());
    assert_eq!(doc.root.text_content(), "plain bold tail");
}

#[test]
fn exported_single_component_models_round_trip() {
    // Mixed content and `(group)+` load as a `content`-wrapped list, which
    // the exporter unwraps.
    for (dtd_text, doc_text) in [(MIXED_DTD, MIXED_DOC), (PAIRS_DTD, PAIRS_DOC)] {
        let (mapping, instance, loaded) = load(dtd_text, doc_text);
        let doc = docql_mapping::export_document(&mapping, &instance, loaded.root).unwrap();
        let dtd = Dtd::parse(dtd_text).unwrap();
        assert!(validate(&doc, &dtd).is_empty());
        let reparsed = DocParser::new(&dtd).unwrap().parse(doc_text).unwrap();
        assert_eq!(doc.root.text_content(), reparsed.root.text_content());
        assert_eq!(doc.to_sgml(), reparsed.to_sgml());
    }
}

/// The elements of a tree in the order the loader allocates their objects:
/// children before their parent.
fn post_order<'d>(e: &'d Element, out: &mut Vec<&'d Element>) {
    for child in e.child_elements() {
        post_order(child, out);
    }
    out.push(e);
}

/// Parse and load each document into one instance; for every object, the
/// derived `text` — and the text the loader recorded — must equal the
/// `text_content` of the element it was loaded from. Returns the number
/// of objects checked.
fn check_derived_text(dtd_text: &str, docs: &[String]) -> usize {
    let dtd = Dtd::parse(dtd_text).unwrap();
    let mapping = map_dtd(&dtd).unwrap();
    let parser = DocParser::new(&dtd).unwrap();
    let mut instance = Instance::new(mapping.schema.clone());
    let mut checked = 0;
    for src in docs {
        let doc = parser.parse(src).unwrap();
        let first = instance.object_count();
        let loaded = load_document(&mapping, &mut instance, &doc).unwrap();
        let mut elements = Vec::new();
        post_order(&doc.root, &mut elements);
        assert_eq!(instance.object_count() - first, elements.len());
        let mut texts = HashMap::new();
        derive_text(&mapping, &instance, loaded.root, &mut texts);
        assert_eq!(texts.len(), elements.len(), "one text per object");
        for (i, e) in elements.iter().enumerate() {
            let oid = Oid((first + i) as u32);
            let expected = e.text_content();
            assert_eq!(texts.get(&oid), Some(&expected), "<{}> {oid}", e.name);
            assert_eq!(instance.text(oid), Some(expected.as_str()), "<{}>", e.name);
        }
        checked += elements.len();
    }
    checked
}

#[test]
fn derived_text_is_the_loaded_elements_text_content() {
    let one = |doc: &str| vec![doc.to_string()];
    let letters: Vec<String> = (0..8)
        .map(|seed| {
            docql_corpus::generate_letter(&docql_corpus::LetterParams {
                seed,
                sender_first: Some(seed % 2 == 0),
                paras: 3,
            })
            .to_sgml()
        })
        .collect();
    let articles: Vec<String> = (0..20)
        .map(|seed| {
            docql_corpus::generate_article(&docql_corpus::ArticleParams {
                seed,
                ..docql_corpus::ArticleParams::default()
            })
            .to_sgml()
        })
        .collect();
    let adversarial = docql_corpus::adversarial_sgml(&docql_corpus::AdversarialParams {
        docs: 4,
        ..docql_corpus::AdversarialParams::default()
    });
    let cases: [(&str, Vec<String>); 9] = [
        (ANY_DTD, one(ANY_DOC)),
        (IDREFS_DTD, one(IDREFS_DOC)),
        (TRIO_DTD, trio_docs()),
        (PAIRS_DTD, one(PAIRS_DOC)),
        (MIXED_DTD, one(MIXED_DOC)),
        (ARTICLE_DTD, one(FIG2_DOCUMENT)),
        (LETTER_DTD, letters),
        (ARTICLE_DTD, articles),
        (ARTICLE_DTD, adversarial),
    ];
    for (dtd, docs) in &cases {
        assert!(check_derived_text(dtd, docs) >= docs.len());
    }
}

#[test]
fn derived_text_stops_at_a_value_cycle() {
    // Updates do not type-check values, so an object can come to reach
    // itself.
    let (mapping, mut instance, loaded) = load(ARTICLE_DTD, FIG2_DOCUMENT);
    let root = loaded.root;
    let Some(&Value::Oid(title)) = instance.value_of(root).unwrap().attr(sym("title")) else {
        panic!("the article has a title object")
    };
    let cyclic = Value::list([Value::Oid(title), Value::Oid(root)]);
    instance.set_value(root, cyclic).unwrap();
    let mut texts = HashMap::new();
    derive_text(&mapping, &instance, root, &mut texts);
    assert_eq!(texts[&root], instance.text(title).unwrap());
    assert_eq!(texts.len(), 2);
}
