//! The paper's §4 queries Q1–Q6, run end-to-end through the extended O₂SQL
//! engine over stores built from the paper's own DTDs — in both evaluation
//! modes (calculus interpreter and §5.4 algebraizer) where supported.

use docql_calculus::CalcValue;
use docql_corpus::{
    generate_article, generate_letter, mutate, ArticleParams, LetterParams, Mutation,
};
use docql_model::{sym, Value};
use docql_sgml::fixtures::{ARTICLE_DTD, FIG2_DOCUMENT, LETTER_DTD};
use docql_store::{DocStore, SharedStore, WalOp};
use docql_text::ContainsExpr;
use std::collections::BTreeSet;

fn article_store(n_docs: usize) -> DocStore {
    let mut store = DocStore::new(ARTICLE_DTD, &["my_article", "my_old_article"]).unwrap();
    for seed in 0..n_docs as u64 {
        let doc = generate_article(&ArticleParams {
            seed,
            sections: 5,
            subsections: 2,
            plant_every: if seed % 2 == 0 { 3 } else { 0 },
            ..ArticleParams::default()
        });
        store.ingest_document(&doc).unwrap();
    }
    assert!(store.check().is_empty());
    store
}

fn strings(values: &[CalcValue]) -> BTreeSet<String> {
    values
        .iter()
        .map(|v| match v {
            CalcValue::Data(Value::Str(s)) => s.clone(),
            other => other.to_string(),
        })
        .collect()
}

#[test]
fn q1_title_and_first_author_of_matching_articles() {
    // Q1: Find the title and the first author of articles having a section
    // with a title containing the words "SGML" and "OODBMS".
    let store = article_store(6);
    let r = store
        .query(
            "select tuple (t: a.title, f_author: first(a.authors)) \
             from a in Articles, s in a.sections \
             where s.title contains (\"SGML\" and \"OODBMS\")",
        )
        .unwrap();
    // Articles with even seeds plant the phrases (plant_every = 3).
    assert_eq!(r.len(), 3, "{}", r.to_table());
    for row in &r.rows {
        let CalcValue::Data(v) = &row[0] else {
            panic!()
        };
        let t = v.attr(sym("t")).unwrap();
        let fa = v.attr(sym("f_author")).unwrap();
        // Both components are Title/Author objects (oids) — check they
        // dereference to text with the expected shapes.
        let text = |val: &Value| match val {
            Value::Oid(o) => store
                .instance()
                .value_of(*o)
                .unwrap()
                .attr(sym("contents"))
                .cloned(),
            other => Some(other.clone()),
        };
        match text(t) {
            Some(Value::Str(s)) => assert!(s.starts_with("Article"), "{s}"),
            other => panic!("{other:?}"),
        }
        match text(fa) {
            Some(Value::Str(s)) => assert!(s.contains(".0"), "first author: {s}"),
            other => panic!("{other:?}"),
        }
    }
}

#[test]
fn q2_subsections_containing_phrase_via_text_operator() {
    // Q2: Find the subsections of articles containing the sentence
    // "complex object" — uses the union type (only a2 sections have
    // subsections) and the `text` inverse-mapping operator.
    let store = article_store(8);
    let r = store
        .query(
            "select ss from a in Articles, s in a.sections, ss in s.subsectns \
             where text(ss) contains (\"complex object\")",
        )
        .unwrap();
    // Verify against a direct scan of subsection objects.
    let mut expected = 0usize;
    for (oid, class, _) in store.instance().objects() {
        if class == sym("Subsectn")
            && store
                .text_of(oid)
                .is_some_and(|t| t.contains("complex object"))
        {
            expected += 1;
        }
    }
    assert_eq!(r.len(), expected);
    assert!(expected > 0, "corpus should plant the phrase somewhere");
}

#[test]
fn q3_all_titles_in_my_article() {
    // Q3: Find all titles in my_article.
    let mut store = article_store(3);
    let doc = generate_article(&ArticleParams {
        seed: 99,
        sections: 4,
        subsections: 2,
        ..ArticleParams::default()
    });
    let root = store.ingest_document(&doc).unwrap();
    store.bind("my_article", root).unwrap();
    let r = store
        .query("select t from my_article PATH_p.title(t)")
        .unwrap();
    // Titles: article (1) + sections (4) + subsections (2, in section 2)
    // — each reached as Title objects AND their content strings? No: the
    // result is whatever `.title` selects = Title objects (oids).
    // Count Title objects belonging to this document by checking text.
    let mut count = 0;
    for row in &r.rows {
        match &row[0] {
            CalcValue::Data(Value::Oid(o)) => {
                let t = store.text_of(*o).unwrap_or_default();
                assert!(
                    t.contains("Article 99")
                        || t.starts_with("Section")
                        || t.starts_with("Subsection"),
                    "unexpected title: {t}"
                );
                count += 1;
            }
            other => panic!("non-oid title: {other:?}"),
        }
    }
    assert_eq!(count, 7, "{}", r.to_table());

    // The `..` sugar gives the same answer.
    let sugar = store.query("select t from my_article .. title(t)").unwrap();
    assert_eq!(r.rows.len(), sugar.rows.len());
}

#[test]
fn q4_structural_difference_between_versions() {
    // Q4: my_article PATH_p - my_old_article PATH_p
    let mut store = article_store(0);
    let old = generate_article(&ArticleParams {
        seed: 7,
        sections: 3,
        ..ArticleParams::default()
    });
    let new = mutate(&old, &Mutation::AddSection("Fresh results".to_string()));
    let old_root = store.ingest_document(&old).unwrap();
    let new_root = store.ingest_document(&new).unwrap();
    store.bind("my_old_article", old_root).unwrap();
    store.bind("my_article", new_root).unwrap();

    let r = store
        .query("my_article PATH_p - my_old_article PATH_p")
        .unwrap();
    assert!(!r.is_empty(), "the new section contributes new paths");
    // All difference paths are explained by the edit: either under the new
    // section (.sections[3]…) or under a figure's back-reference list (the
    // added paragraph references the first figure, growing its `label`
    // list — Fig. 3's private label: list(Object)).
    let mut under_new_section = 0usize;
    for row in &r.rows {
        let CalcValue::Path(p) = &row[0] else {
            panic!("{row:?}")
        };
        let s = p.to_string();
        if s.contains(".sections[3]") {
            under_new_section += 1;
        } else {
            assert!(s.contains(".label["), "unexpected differing path: {s}");
        }
    }
    assert!(under_new_section > 3, "{}", r.to_table());
    // And the reverse difference is empty.
    let rev = store
        .query("my_old_article PATH_p - my_article PATH_p")
        .unwrap();
    assert!(rev.is_empty(), "{}", rev.to_table());
}

#[test]
fn q5_attributes_whose_value_contains_final() {
    // Q5: Find the attributes defined in my_article whose value contains
    // the string "final".
    let mut store = article_store(0);
    // Seed 0 generates status="final" (gen_range(0..4) == 0 for seed 42?
    // force it instead: patch the document).
    let mut doc = generate_article(&ArticleParams {
        seed: 3,
        sections: 2,
        ..ArticleParams::default()
    });
    doc.root.attrs = vec![("status".to_string(), "final".to_string())];
    let root = store.ingest_document(&doc).unwrap();
    store.bind("my_article", root).unwrap();
    let r = store
        .query(
            "select name(ATT_a) from my_article PATH_p.ATT_a(val) \
             where val contains (\"final\")",
        )
        .unwrap();
    let names = strings(&r.values());
    assert!(names.contains("status"), "{names:?}");
    // No other generated attribute value contains "final".
    assert_eq!(names.len(), 1, "{names:?}");
}

#[test]
fn object_contains_reads_its_text_and_attribute_values_go_through_att() {
    // Fig. 2's article is `status="final"`, and "final" occurs nowhere in
    // its text. `contains` on an object reads the object's §3 text, the
    // text `text()` returns and the inverted index holds, so none of them
    // finds the article; the attribute value is reached through `ATT_`.
    let mut store = DocStore::new(ARTICLE_DTD, &["my_article"]).unwrap();
    let root = store.ingest(FIG2_DOCUMENT).unwrap();
    store.bind("my_article", root).unwrap();
    for q in [
        "select a from a in Articles where a contains (\"final\")",
        "select a from a in Articles where text(a) contains (\"final\")",
    ] {
        assert!(store.query(q).unwrap().is_empty(), "interpreter: {q}");
        assert!(store.query_algebraic(q).unwrap().is_empty(), "algebra: {q}");
    }
    let final_ = ContainsExpr::pattern("final").unwrap();
    assert!(store.find_documents(&final_).is_empty());
    let r = store
        .query(
            "select name(ATT_a) from my_article PATH_p.ATT_a(val) \
             where val contains (\"final\")",
        )
        .unwrap();
    assert_eq!(strings(&r.values()), BTreeSet::from(["status".to_string()]));
}

#[test]
fn q2_in_the_papers_form_matches_the_text_form() {
    // The paper writes Q2 as `ss contains …`: an object contains what its
    // `text` contains, so both forms select the same subsections.
    let store = article_store(8);
    let from = "select ss from a in Articles, s in a.sections, ss in s.subsectns";
    let papers = format!("{from} where ss contains (\"complex object\")");
    let text = format!("{from} where text(ss) contains (\"complex object\")");
    let expected = store.query(&text).unwrap().to_table();
    assert!(
        expected.lines().count() > 2,
        "corpus should plant the phrase"
    );
    assert_eq!(store.query(&papers).unwrap().to_table(), expected);
    assert_eq!(store.query_algebraic(&papers).unwrap().to_table(), expected);
}

#[test]
fn q6_letters_where_sender_precedes_recipient() {
    // Q6: Find the letters where the sender precedes the recipient in the
    // preamble (the `&` connector permits both orders).
    let mut store = DocStore::new(LETTER_DTD, &[]).unwrap();
    let mut sender_first_subjects = BTreeSet::new();
    for seed in 0..10u64 {
        let sender_first = seed % 3 == 0;
        let doc = generate_letter(&LetterParams {
            seed,
            sender_first: Some(sender_first),
            paras: 1,
        });
        if sender_first {
            sender_first_subjects.insert(doc.root.find("subject").unwrap().text_content());
        }
        store.ingest_document(&doc).unwrap();
    }
    assert!(store.check().is_empty());
    let r = store
        .query(
            "select letter from letter in Letters, \
             i in positions(letter.preamble, \"from\"), \
             j in positions(letter.preamble, \"to\") \
             where i < j",
        )
        .unwrap();
    assert_eq!(r.len(), sender_first_subjects.len(), "{}", r.to_table());
    // Verify the answers are exactly the sender-first letters.
    for row in &r.rows {
        let CalcValue::Data(Value::Oid(o)) = &row[0] else {
            panic!()
        };
        let text = store.text_of(*o).unwrap();
        assert!(
            sender_first_subjects
                .iter()
                .any(|subj| text.contains(subj.as_str())),
            "letter not sender-first: {text}"
        );
    }
}

#[test]
fn q1_algebraic_mode_agrees_with_interpreter() {
    let store = article_store(4);
    let q = "select tuple (t: a.title, f_author: first(a.authors)) \
             from a in Articles, s in a.sections \
             where s.title contains (\"SGML\" and \"OODBMS\")";
    let interp = store.query(q).unwrap();
    let algebraic = store.query_algebraic(q).unwrap();
    let a: BTreeSet<_> = interp.rows.into_iter().collect();
    let b: BTreeSet<_> = algebraic.rows.into_iter().collect();
    assert_eq!(a, b);
}

#[test]
fn q3_algebraic_mode_agrees_with_interpreter() {
    let mut store = article_store(1);
    store.bind("my_article", store.documents()[0]).unwrap();
    let q = "select t from my_article PATH_p.title(t)";
    let interp = store.query(q).unwrap();
    let algebraic = store.query_algebraic(q).unwrap();
    let a: BTreeSet<_> = interp.rows.into_iter().collect();
    let b: BTreeSet<_> = algebraic.rows.into_iter().collect();
    assert_eq!(a, b);
    assert!(!a.is_empty());
}

#[test]
fn type_check_reports_impossible_paths() {
    let store = article_store(1);
    let info = store
        .engine()
        .check("select t from Articles PATH_p.nonexistent(t)")
        .unwrap();
    assert!(
        !info.errors.is_empty(),
        "no schema path ends with .nonexistent"
    );
    // A well-typed query reports none.
    let ok = store
        .engine()
        .check("select t from Articles PATH_p.title(t)")
        .unwrap();
    assert!(ok.errors.is_empty(), "{:?}", ok.errors);
}

#[test]
fn union_iteration_uses_implicit_selectors() {
    // §4.2: `b in s.bodies` ranges over the union of s.a1.bodies and
    // s.a2.bodies; sections without bodies (a2 with none) simply contribute
    // nothing rather than failing.
    let store = article_store(4);
    let r = store
        .query("select b from a in Articles, s in a.sections, b in s.bodies")
        .unwrap();
    assert!(!r.is_empty());
    for row in &r.rows {
        let CalcValue::Data(Value::Oid(o)) = &row[0] else {
            panic!()
        };
        assert_eq!(store.instance().class_of(*o).unwrap(), sym("Body"));
    }
}

#[test]
fn update_in_database_then_export_stays_valid() {
    // §6's key aspect: "providing the means to update the document from the
    // database". Retitle the article *in the database*, export, re-validate.
    use docql_model::Value;
    let mut store = article_store(1);
    let root = store.documents()[0];
    // Find the article's Title object and change its contents.
    let title_oid = {
        let v = store.instance().value_of(root).unwrap();
        match v.attr(sym("title")) {
            Some(Value::Oid(o)) => *o,
            other => panic!("{other:?}"),
        }
    };
    store
        .update_value(
            title_oid,
            Value::tuple([("contents", Value::str("Retitled in the database"))]),
        )
        .unwrap();
    assert!(store.check().is_empty(), "instance still well-typed");
    let doc = store.export(root).unwrap();
    assert!(docql_sgml::is_valid(&doc, store.dtd()));
    assert_eq!(
        doc.root.find("title").unwrap().text_content(),
        "Retitled in the database"
    );
    // And the query layer sees the update.
    let mut s2 = store;
    s2.bind("my_article", root).unwrap();
    let r = s2
        .query(
            "select t from my_article PATH_p.title(t) \
             where text(t) contains (\"Retitled\")",
        )
        .unwrap();
    assert_eq!(r.len(), 1);
}

#[test]
fn constraint_violations_surface_after_bad_update() {
    use docql_model::Value;
    let mut store = article_store(1);
    let root = store.documents()[0];
    // Violate Fig. 3's `authors != list()` constraint.
    let mut v = store.instance().value_of(root).unwrap().clone();
    if let Value::Tuple(fs) = &mut v {
        for (n, fv) in fs.iter_mut() {
            if *n == sym("authors") {
                *fv = Value::List(Vec::new());
            }
        }
    }
    store.update_value(root, v).unwrap();
    let errs = store.check();
    assert!(
        errs.iter().any(|e| e.to_string().contains("authors")),
        "{errs:?}"
    );
}

#[test]
fn wrong_shape_update_is_refused_before_anything_changes() {
    let shared = SharedStore::new(docql_store::paper_store().unwrap());
    let root = shared.read().documents()[0];
    let update = WalOp::Update {
        oid: root.0,
        value: Value::str("x"),
    };
    let err = shared.apply(vec![update]).0.unwrap_err().to_string();
    // `ModelError::TypeMismatch`'s rendering.
    assert!(err.contains("\"x\" is not in dom("), "{err}");
    assert_eq!(shared.snapshot_version(), 0, "nothing was published");
    let store = shared.read();
    assert!(store.check().is_empty(), "{:?}", store.check());
    assert!(store.export(root).is_ok());
    // A bare store refuses it the same way and stays unchanged.
    let mut bare = docql_store::paper_store().unwrap();
    assert!(bare.update_value(root, Value::str("x")).is_err());
    assert!(bare.check().is_empty());
    assert!(bare.export(root).is_ok());
}
