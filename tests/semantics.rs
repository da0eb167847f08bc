//! Database-level semantics checks that cut across every layer: the two
//! path-variable interpretations, set operations over select queries, and
//! the method-signature bookkeeping the paper carries "for completeness".

use docql::guard::Guard;
use docql::model::{MethodSig, Schema, Type};
use docql::o2sql::Mode;
use docql::prelude::*;
use docql_corpus::{generate_article, ArticleParams};
use std::collections::BTreeSet;

fn db() -> DocStore {
    let mut db = DocStore::new(docql::fixtures::ARTICLE_DTD, &["my_article"]).unwrap();
    for seed in 0..3u64 {
        let doc = generate_article(&ArticleParams {
            seed,
            sections: 3,
            subsections: 2,
            plant_every: 2,
            ..ArticleParams::default()
        });
        db.ingest_document(&doc).unwrap();
    }
    let root = db.documents()[0];
    db.bind("my_article", root).unwrap();
    db
}

#[test]
fn select_query_set_operations() {
    let db = db();
    let all = "select s from a in Articles, s in a.sections";
    let planted = "select s from a in Articles, s in a.sections \
                   where s.title contains (\"SGML\")";
    let n_all = db.query(all).unwrap().len();
    let n_planted = db.query(planted).unwrap().len();
    assert!(n_planted > 0 && n_planted < n_all);
    // all - planted = unplanted.
    let diff = db.query(&format!("({all}) - ({planted})")).unwrap().len();
    assert_eq!(diff, n_all - n_planted);
    // planted ∪ all = all; planted ∩ all = planted.
    assert_eq!(
        db.query(&format!("({planted}) union ({all})"))
            .unwrap()
            .len(),
        n_all
    );
    assert_eq!(
        db.query(&format!("({planted}) intersect ({all})"))
            .unwrap()
            .len(),
        n_planted
    );
}

#[test]
fn liberal_mode_reaches_cross_references() {
    // Restricted: a path from the article cannot dereference Paragr and
    // then (through reflabel) Figure *and* then another Paragr via the
    // back-reference list — class repetition cuts it. Liberal: object-level
    // loop detection allows longer trails, so strictly more paths exist.
    let db = db();
    let count = |sem: PathSemantics| {
        let mut engine = db.engine();
        engine.semantics = sem;
        engine.run("my_article PATH_p").unwrap().len()
    };
    let restricted = count(PathSemantics::Restricted);
    let liberal = count(PathSemantics::Liberal);
    assert!(
        liberal > restricted,
        "liberal {liberal} ≤ restricted {restricted}"
    );
}

#[test]
fn liberal_fuel_bounds_cyclic_enumeration_without_changing_answers() {
    // Liberal semantics walks object-level cycles (cross-references and
    // back-reference lists); loop detection alone makes it terminate, but
    // path fuel must bound the *work* — and, when ample, must not change
    // the answer. This is the loop-detection regression for governance.
    let db = db();
    let q = "my_article PATH_p";
    let mut engine = db.engine();
    engine.semantics = PathSemantics::Liberal;
    let unguarded = engine.run(q).unwrap();
    assert!(!unguarded.is_empty());

    // Each case attaches a fresh guard: trips are sticky.
    let scarce = Guard::new(&QueryLimits::none().with_path_fuel(5));
    let degrade = Guard::new(&QueryLimits::none().with_path_fuel(5).with_degrade());
    let ample = Guard::new(&QueryLimits::none().with_path_fuel(100_000_000));

    // Scarce fuel: prompt, typed termination mid-cycle.
    engine.guard = Some(&scarce);
    match engine.run(q) {
        Err(docql::o2sql::O2sqlError::Interrupted(ExecError::BudgetExhausted(
            docql::guard::Resource::PathFuel,
        ))) => {}
        Err(e) => panic!("expected a path-fuel trip, got {e}"),
        Ok(r) => panic!("expected a path-fuel trip, got {} row(s)", r.len()),
    }

    // Scarce fuel in degrade mode: a flagged, strictly shorter, in-order
    // prefix of the full answer.
    engine.guard = Some(&degrade);
    let partial = engine.run(q).unwrap();
    assert!(partial.is_partial());
    assert!(partial.len() < unguarded.len());
    assert_eq!(partial.rows[..], unguarded.rows[..partial.len()]);

    // Ample fuel: differential — exactly the unguarded answer, unflagged.
    engine.guard = Some(&ample);
    let governed = engine.run(q).unwrap();
    assert!(!governed.is_partial());
    assert_eq!(governed.rows, unguarded.rows);
}

#[test]
fn path_fuel_sweep_keeps_an_in_order_prefix() {
    // A path variable's expansion walks the rest of the path from each
    // visited pair as it is reached, so a path query finds its first row
    // long before its expansion is done (enumerating every pair first
    // spent half of this query's fuel before any row) and keeps the rows
    // found before a trip in degrade mode; the trip raised inside that
    // walk reaches the caller in strict mode. Evaluation is depth-first
    // and a trip only stops generators, so a select's head assignment
    // `H = e` still runs on each binding the walk made before the trip,
    // and a select keeps its prefix too.
    let db = db();
    for (q, keeps_rows) in [
        ("select t from my_article PATH_p.title(t)", true),
        ("my_article PATH_p", true),
    ] {
        let run = |limits: QueryLimits| {
            let guard = Guard::new(&limits);
            let mut engine = db.engine();
            engine.guard = Some(&guard);
            (engine.run(q), guard.consumed().1)
        };
        let (full, needed) = run(QueryLimits::none().with_path_fuel(u64::MAX));
        let full = full.unwrap();
        assert!(full.len() > 1, "{q}: the sweep needs several rows");
        let mut first_kept = None;
        for cap in 1..=needed {
            let r = run(QueryLimits::none().with_path_fuel(cap).with_degrade())
                .0
                .unwrap();
            assert_eq!(r.rows[..], full.rows[..r.len()], "{q}, cap {cap}");
            // Flagged exactly when the cap is below what the full answer
            // needs; every shorter answer is therefore flagged.
            assert_eq!(r.is_partial(), cap < needed, "{q}, cap {cap}");
            if cap < needed && !r.rows.is_empty() {
                first_kept.get_or_insert(cap);
            }

            match run(QueryLimits::none().with_path_fuel(cap)).0 {
                Ok(r) => {
                    assert_eq!(cap, needed, "{q}: untripped at cap {cap}");
                    assert_eq!(r.rows, full.rows);
                }
                Err(docql::o2sql::O2sqlError::Interrupted(ExecError::BudgetExhausted(
                    docql::guard::Resource::PathFuel,
                ))) => assert!(cap < needed, "{q}: tripped at cap {cap}"),
                Err(e) => panic!("{q}, cap {cap}: expected a path-fuel trip, got {e}"),
            }
        }
        match first_kept {
            Some(cap) => assert!(keeps_rows && cap < needed / 4, "{q}: first row at {cap}"),
            None => assert!(!keeps_rows, "{q}: no partial answer kept a row"),
        }
    }
}

#[test]
fn path_fuel_sweep_never_adds_rows_to_a_difference() {
    // Q4 subtracts the old version's paths from the new one's. A right
    // side cut short by a trip is a prefix of its answer, and subtracting a
    // prefix keeps rows the full difference lacks; so after a degrade-mode
    // trip a difference (like an intersection) answers no rows, flagged
    // partial, in both engines.
    let old = generate_article(&ArticleParams {
        seed: 7,
        sections: 3,
        subsections: 2,
        plant_every: 2,
        ..ArticleParams::default()
    });
    let new = docql_corpus::mutate(&old, &docql_corpus::Mutation::AddSection("Delta".into()));
    let mut db = DocStore::new(
        docql::fixtures::ARTICLE_DTD,
        &["my_article", "my_old_article"],
    )
    .unwrap();
    let old_root = db.ingest_document(&old).unwrap();
    let new_root = db.ingest_document(&new).unwrap();
    db.bind("my_old_article", old_root).unwrap();
    db.bind("my_article", new_root).unwrap();
    let q = "my_article PATH_p - my_old_article PATH_p";
    for mode in [Mode::Interpret, Mode::Algebraic] {
        let run = |limits: QueryLimits| {
            let guard = Guard::new(&limits);
            let mut engine = db.engine();
            engine.mode = mode;
            engine.guard = Some(&guard);
            (engine.run(q).unwrap(), guard.consumed().1)
        };
        let (full, needed) = run(QueryLimits::none().with_path_fuel(u64::MAX));
        assert!(full.len() > 1, "{mode:?}: the new section adds paths");
        // About a hundred caps, and the two on either side of the need.
        let stride = (needed / 100).max(1) as usize;
        for cap in (1..needed).step_by(stride).chain([needed - 1, needed]) {
            let r = run(QueryLimits::none().with_path_fuel(cap).with_degrade()).0;
            assert_eq!(r.rows[..], full.rows[..r.len()], "{mode:?}, cap {cap}");
            assert_eq!(r.is_partial(), cap < needed, "{mode:?}, cap {cap}");
            assert!(!r.is_partial() || r.is_empty(), "{mode:?}, cap {cap}");
        }
    }
}

#[test]
fn fuel_sweep_keeps_a_negation_prefix() {
    // `not` keeps a section when its inner finds no solution; a trip can
    // stop the inner's scan before it finds one, so after a trip a
    // negation keeps nothing, and a partial answer stays a prefix of the
    // full one in both engines.
    let db = db();
    let q = "select s.title from a in Articles, s in a.sections \
             where not (s.title contains (\"SGML\"))";
    for mode in [Mode::Interpret, Mode::Algebraic] {
        let run = |limits: QueryLimits| {
            let guard = Guard::new(&limits);
            let mut engine = db.engine();
            engine.mode = mode;
            engine.guard = Some(&guard);
            (engine.run(q).unwrap(), guard.consumed().1)
        };
        let (full, needed) = run(QueryLimits::none().with_path_fuel(u64::MAX));
        assert!(
            full.len() > 1 && needed > 1,
            "{mode:?}: the sweep needs rows and scans"
        );
        for cap in 1..=needed {
            let r = run(QueryLimits::none().with_path_fuel(cap).with_degrade()).0;
            assert_eq!(r.rows[..], full.rows[..r.len()], "{mode:?}, cap {cap}");
            assert_eq!(r.is_partial(), cap < needed, "{mode:?}, cap {cap}");
        }
    }
}

#[test]
fn fuel_sweep_keeps_disjunction_and_union_prefixes() {
    // A disjunction answers its first branch's rows, then the second's;
    // a union its left side's rows, then the right side's new ones in
    // value order. After a trip `contains` is false while a comparison
    // still holds, so a branch run after an earlier one was cut short
    // would add rows past the gap; and a right side cut short sorts its
    // rows in among the ones it lacks (the walk reaches `title` before the
    // union markers `a1`, `a2` that sort first). So after a trip no later
    // branch runs and a union answers its left side alone: a partial
    // answer stays a prefix of the full one in both engines.
    let db = db();
    for q in [
        "select s.title from a in Articles, s in a.sections \
         where s.title contains (\"SGML\") or a = my_article",
        "(select s.title from a in Articles, s in a.sections \
         where a = my_article) \
         union (select name(ATT_a) from my_article PATH_p.ATT_a(v))",
    ] {
        for mode in [Mode::Interpret, Mode::Algebraic] {
            let run = |limits: QueryLimits| {
                let guard = Guard::new(&limits);
                let mut engine = db.engine();
                engine.mode = mode;
                engine.guard = Some(&guard);
                (engine.run(q).unwrap(), guard.consumed().1)
            };
            let (full, needed) = run(QueryLimits::none().with_path_fuel(u64::MAX));
            assert!(full.len() > 3 && needed > 1, "{mode:?}, {q}: too small");
            // About a hundred caps, and the two on either side of the need.
            let stride = (needed / 100).max(1) as usize;
            for cap in (1..needed).step_by(stride).chain([needed - 1, needed]) {
                let r = run(QueryLimits::none().with_path_fuel(cap).with_degrade()).0;
                assert_eq!(r.rows[..], full.rows[..r.len()], "{mode:?}, {q}, cap {cap}");
                assert_eq!(r.is_partial(), cap < needed, "{mode:?}, {q}, cap {cap}");
            }
        }
    }
}

#[test]
fn malformed_constant_pattern_errors_only_when_a_row_reaches_it() {
    // A constant `contains` pattern is compiled with the plan, yet a bad
    // one still raises its error only when a binding reaches the atom:
    // over an empty range the query answers no rows, and once a row
    // arrives both engines raise the parse error.
    let q = "select ss from a in Articles, s in a.sections, ss in s.subsectns \
             where ss.title contains (\"(\")";
    let run = |subsections: usize, mode: Mode| {
        let mut db = DocStore::new(docql::fixtures::ARTICLE_DTD, &[]).unwrap();
        let doc = generate_article(&ArticleParams {
            subsections,
            ..ArticleParams::default()
        });
        db.ingest_document(&doc).unwrap();
        let mut engine = db.engine();
        engine.mode = mode;
        engine.run(q).map(|r| r.len()).map_err(|e| e.to_string())
    };
    for mode in [Mode::Interpret, Mode::Algebraic] {
        assert_eq!(run(0, mode), Ok(0), "{mode:?}: no subsection, no error");
        let err = run(2, mode).unwrap_err();
        assert!(
            err.contains("contains: bad pattern: pattern error at byte 1: unclosed `(`"),
            "{mode:?}: {err}"
        );
    }
}

#[test]
fn both_modes_agree_under_restricted_semantics() {
    let db = db();
    for q in [
        "select t from my_article PATH_p.title(t)",
        "select name(ATT_a) from my_article PATH_p.ATT_a(v) where v contains (\"draft\")",
    ] {
        let i: BTreeSet<_> = db.query(q).unwrap().rows.into_iter().collect();
        let mut engine = db.engine();
        engine.mode = Mode::Algebraic;
        let a: BTreeSet<_> = engine.run(q).unwrap().rows.into_iter().collect();
        assert_eq!(i, a, "{q}");
    }
}

#[test]
fn method_signatures_are_carried_in_schemas() {
    // §5.1: "Our schema does include methods in the style of O₂ … just for
    // the sake of completeness." Signatures are declared and retrievable;
    // interpreted functions provide their semantics (μ).
    let schema = Schema::builder()
        .class(docql::model::ClassDef::new(
            "Doc",
            Type::tuple([("title", Type::String)]),
        ))
        .method(MethodSig {
            class: sym("Doc"),
            name: sym("word_count"),
            args: vec![],
            result: Type::Integer,
        })
        .build()
        .unwrap();
    assert_eq!(schema.methods().len(), 1);
    assert_eq!(schema.methods()[0].name, sym("word_count"));
    assert_eq!(schema.methods()[0].result, Type::Integer);
}

#[test]
fn prelude_exports_cover_the_quickstart_surface() {
    // Compile-time check that the prelude exposes what the README uses.
    fn assert_usable(_: &DocStore, _: &QueryResult, _: PathSemantics) {}
    let db = db();
    let r = db.query("select a from a in Articles").unwrap();
    assert_usable(&db, &r, PathSemantics::Restricted);
    let _engine: Engine<'_> = db.engine();
    let _v: Value = Value::Int(1);
    let _s: Sym = sym("x");
}
