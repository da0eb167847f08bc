//! Assertions behind the `repro` binary: every figure and worked query of
//! the paper, checked mechanically.

use docql::mapping::map_dtd;
use docql::model::sym;
use docql::prelude::*;
use docql::sgml::{DocParser, Dtd};

#[test]
fn f1_fig1_dtd_parses_and_round_trips() {
    let dtd = Dtd::parse(docql::fixtures::ARTICLE_DTD).unwrap();
    assert_eq!(dtd.doctype, "article");
    assert_eq!(dtd.elements.len(), 13);
    assert_eq!(dtd.attlists.len(), 4);
    assert_eq!(dtd.entities.len(), 1);
    let reparsed = Dtd::parse(&dtd.to_string()).unwrap();
    assert_eq!(reparsed.elements, dtd.elements);
    assert_eq!(reparsed.attlists, dtd.attlists);
    assert_eq!(reparsed.entities, dtd.entities);
}

#[test]
fn f2_fig2_document_parses_with_omitted_tags_and_validates() {
    let dtd = Dtd::parse(docql::fixtures::ARTICLE_DTD).unwrap();
    let doc = DocParser::new(&dtd)
        .unwrap()
        .parse(docql::fixtures::FIG2_DOCUMENT)
        .unwrap();
    assert!(docql::sgml::validate(&doc, &dtd).is_empty());
    assert_eq!(doc.root.name, "article");
    assert_eq!(doc.root.attr("status"), Some("final"));
    let mut authors = Vec::new();
    doc.root.find_all("author", &mut authors);
    assert_eq!(
        authors.iter().map(|a| a.text_content()).collect::<Vec<_>>(),
        vec!["V. Christophides", "S. Abiteboul", "S. Cluet", "M. Scholl"]
    );
}

#[test]
fn f3_generated_classes_match_fig3_line_by_line() {
    let dtd = Dtd::parse(docql::fixtures::ARTICLE_DTD).unwrap();
    let mapping = map_dtd(&dtd).unwrap();
    let rendered = mapping.schema.to_string();
    // The load-bearing lines of Fig. 3, verbatim up to whitespace.
    let expectations = [
        // class Article with the six content attributes and private status.
        "class Article public type tuple(title: Title, authors: list(Author), \
         affil: Affil, abstract: Abstract, sections: list(Section), \
         acknowl: Acknowl, private status: string)",
        "class Title inherit Text",
        "class Author inherit Text",
        "class Affil inherit Text",
        "class Abstract inherit Text",
        // The union with system-supplied markers a1/a2.
        "class Section public type union(a1: tuple(title: Title, bodies: list(Body)) + \
         a2: tuple(title: Title, bodies: list(Body), subsectns: list(Subsectn)))",
        "class Subsectn public type tuple(title: Title, bodies: list(Body))",
        "class Body public type union(figure: Figure + paragr: Paragr)",
        "class Picture inherit Bitmap",
        "class Caption inherit Text",
        "class Paragr inherit Text",
        "class Acknowl inherit Text",
        "name Articles: list(Article)",
    ];
    for e in expectations {
        assert!(
            rendered.contains(e),
            "missing Fig. 3 line: {e}\n\n{rendered}"
        );
    }
    // Fig. 3 constraints.
    for c in [
        "title != nil",
        "authors != list()",
        "status in set(\"final\", \"draft\")",
        "figure != nil | paragr != nil",
        "reflabel != nil",
    ] {
        assert!(rendered.contains(c), "missing Fig. 3 constraint: {c}");
    }
}

#[test]
fn q3_and_q5_on_the_fig2_document_itself() {
    let mut db = DocStore::new(docql::fixtures::ARTICLE_DTD, &["my_article"]).unwrap();
    let root = db.ingest(docql::fixtures::FIG2_DOCUMENT).unwrap();
    db.bind("my_article", root).unwrap();

    // Q3: Fig. 2 has the article title plus two section titles.
    let titles = db
        .query("select t from my_article PATH_p.title(t)")
        .unwrap();
    let texts: std::collections::BTreeSet<String> = titles
        .rows
        .iter()
        .filter_map(|r| match &r[0] {
            CalcValue::Data(Value::Oid(o)) => db.text_of(*o),
            _ => None,
        })
        .collect();
    assert_eq!(texts.len(), 3);
    assert!(texts.contains("Introduction"));
    assert!(texts.contains("SGML preliminaries"));
    assert!(texts
        .iter()
        .any(|t| t.contains("From Structured Documents")));

    // Q5: status="final" is the only attribute containing "final".
    let attrs = db
        .query(
            "select name(ATT_a) from my_article PATH_p.ATT_a(val) \
             where val contains (\"final\")",
        )
        .unwrap();
    assert_eq!(attrs.len(), 1);
    assert_eq!(attrs.rows[0][0], CalcValue::Data(Value::str("status")));
}

#[test]
fn fig2_ingest_populates_fig3_shapes() {
    let mut db = DocStore::new(docql::fixtures::ARTICLE_DTD, &[]).unwrap();
    let root = db.ingest(docql::fixtures::FIG2_DOCUMENT).unwrap();
    let v = db.instance().value_of(root).unwrap();
    // The Article object's value matches the Fig. 3 tuple type.
    for attr in [
        "title", "authors", "affil", "abstract", "sections", "acknowl", "status",
    ] {
        assert!(v.attr(sym(attr)).is_some(), "article missing .{attr}");
    }
    // Sections took the a1 branch (no subsections in Fig. 2).
    let Value::List(sections) = v.attr(sym("sections")).unwrap() else {
        panic!()
    };
    for s in sections {
        let Value::Oid(o) = s else { panic!() };
        match db.instance().value_of(*o).unwrap() {
            Value::Union(m, _) => assert_eq!(*m, sym("a1")),
            other => panic!("{other}"),
        }
    }
    assert!(db.check().is_empty());
}
