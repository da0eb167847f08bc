//! Focused coverage of the calculus atoms and the range-restriction
//! discipline: ⊆, ∈ corner cases, equality binding in both directions,
//! disjunction binding guarantees, and `check_range_restricted`.

use docql_calculus::{
    check_range_restricted, Atom, CalcValue, DataTerm, Evaluator, Formula, Interp, PathAtom,
    PathTerm, QueryBuilder,
};
use docql_model::{sym, ClassDef, Instance, Schema, Type, Value};
use std::sync::Arc;

fn inst() -> Instance {
    let schema = Arc::new(
        Schema::builder()
            .class(ClassDef::new("C", Type::Any))
            .root("Nums", Type::set(Type::Integer))
            .root(
                "Pairs",
                Type::list(Type::tuple([
                    ("k", Type::String),
                    ("vals", Type::set(Type::Integer)),
                ])),
            )
            .build()
            .unwrap(),
    );
    let mut i = Instance::new(schema);
    i.set_root(
        "Nums",
        Value::set([Value::Int(1), Value::Int(2), Value::Int(3)]),
    )
    .unwrap();
    i.set_root(
        "Pairs",
        Value::list([
            Value::tuple([
                ("k", Value::str("small")),
                ("vals", Value::set([Value::Int(1), Value::Int(2)])),
            ]),
            Value::tuple([
                ("k", Value::str("big")),
                ("vals", Value::set([Value::Int(2), Value::Int(9)])),
            ]),
        ]),
    )
    .unwrap();
    i
}

#[test]
fn subset_atom_filters() {
    // {K | ⟨Pairs[I](X)⟩ ∧ X·vals ⊆ Nums ∧ K = X·k}
    let instance = inst();
    let interp = Interp::with_builtins();
    let ev = Evaluator::new(&instance, &interp);
    let mut b = QueryBuilder::new();
    let i = b.data("I");
    let x = b.data("X");
    let k = b.data("K");
    let q = b.query(
        vec![k],
        Formula::Exists(
            vec![i, x],
            Box::new(Formula::And(vec![
                Formula::Atom(Atom::PathPred(
                    DataTerm::Name(sym("Pairs")),
                    PathTerm(vec![
                        PathAtom::Index(docql_calculus::IntTerm::Var(i)),
                        PathAtom::Bind(x),
                    ]),
                )),
                Formula::Atom(Atom::Subset(
                    DataTerm::PathApp(
                        Box::new(DataTerm::Var(x)),
                        PathTerm(vec![PathAtom::Attr(docql_calculus::AttrTerm::Name(sym(
                            "vals",
                        )))]),
                    ),
                    DataTerm::Name(sym("Nums")),
                )),
                Formula::Atom(Atom::Eq(
                    DataTerm::Var(k),
                    DataTerm::PathApp(
                        Box::new(DataTerm::Var(x)),
                        PathTerm(vec![PathAtom::Attr(docql_calculus::AttrTerm::Name(sym(
                            "k",
                        )))]),
                    ),
                )),
            ])),
        ),
    );
    let rows = ev.eval_query(&q).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], CalcValue::Data(Value::str("small")));
}

#[test]
fn membership_on_non_collection_is_false() {
    let instance = inst();
    let interp = Interp::with_builtins();
    let ev = Evaluator::new(&instance, &interp);
    let mut b = QueryBuilder::new();
    let x = b.data("X");
    let q = b.query(
        vec![x],
        Formula::Atom(Atom::In(
            DataTerm::Var(x),
            DataTerm::Const(Value::Int(7)), // not a collection
        )),
    );
    assert_eq!(ev.eval_query(&q).unwrap().len(), 0);
}

#[test]
fn equality_binds_in_both_directions() {
    let instance = inst();
    let interp = Interp::with_builtins();
    let ev = Evaluator::new(&instance, &interp);
    for flip in [false, true] {
        let mut b = QueryBuilder::new();
        let x = b.data("X");
        let (l, r) = if flip {
            (DataTerm::Const(Value::Int(42)), DataTerm::Var(x))
        } else {
            (DataTerm::Var(x), DataTerm::Const(Value::Int(42)))
        };
        let q = b.query(vec![x], Formula::Atom(Atom::Eq(l, r)));
        let rows = ev.eval_query(&q).unwrap();
        assert_eq!(rows, vec![vec![CalcValue::Data(Value::Int(42))]]);
    }
}

#[test]
fn disjunction_binds_union_of_branches() {
    let instance = inst();
    let interp = Interp::with_builtins();
    let ev = Evaluator::new(&instance, &interp);
    let mut b = QueryBuilder::new();
    let x = b.data("X");
    let q = b.query(
        vec![x],
        Formula::Or(vec![
            Formula::Atom(Atom::Eq(DataTerm::Var(x), DataTerm::Const(Value::Int(1)))),
            Formula::Atom(Atom::Eq(DataTerm::Var(x), DataTerm::Const(Value::Int(2)))),
        ]),
    );
    let rows = ev.eval_query(&q).unwrap();
    assert_eq!(rows.len(), 2);
}

#[test]
fn range_restriction_checker_accepts_and_rejects() {
    // Accept: X bound by membership.
    let mut b = QueryBuilder::new();
    let x = b.data("X");
    let ok = b.query(
        vec![x],
        Formula::Atom(Atom::In(DataTerm::Var(x), DataTerm::Name(sym("Nums")))),
    );
    assert!(check_range_restricted(&ok).is_ok());
    // Reject: head variable never bound.
    let mut b = QueryBuilder::new();
    let x = b.data("X");
    let y = b.data("Y");
    let bad = b.query(
        vec![y],
        Formula::Atom(Atom::In(DataTerm::Var(x), DataTerm::Name(sym("Nums")))),
    );
    assert!(check_range_restricted(&bad).is_err());
    // Reject: only a comparison over an unbound variable.
    let mut b = QueryBuilder::new();
    let z = b.data("Z");
    let cmp_only = b.query(
        vec![z],
        Formula::Atom(Atom::Pred(
            sym("<"),
            vec![DataTerm::Var(z), DataTerm::Const(Value::Int(3))],
        )),
    );
    assert!(check_range_restricted(&cmp_only).is_err());
}

#[test]
fn conjunction_reorders_for_evaluability() {
    // Filter placed before the generator; the planner must reorder.
    let instance = inst();
    let interp = Interp::with_builtins();
    let ev = Evaluator::new(&instance, &interp);
    let mut b = QueryBuilder::new();
    let x = b.data("X");
    let q = b.query(
        vec![x],
        Formula::And(vec![
            Formula::Atom(Atom::Pred(
                sym(">"),
                vec![DataTerm::Var(x), DataTerm::Const(Value::Int(1))],
            )),
            Formula::Atom(Atom::In(DataTerm::Var(x), DataTerm::Name(sym("Nums")))),
        ]),
    );
    let rows = ev.eval_query(&q).unwrap();
    assert_eq!(rows.len(), 2, "2 and 3");
}

#[test]
fn tuple_constructor_terms_evaluate() {
    let instance = inst();
    let interp = Interp::with_builtins();
    let ev = Evaluator::new(&instance, &interp);
    let mut b = QueryBuilder::new();
    let x = b.data("X");
    let h = b.data("H");
    let q = b.query(
        vec![h],
        Formula::And(vec![
            Formula::Atom(Atom::In(DataTerm::Var(x), DataTerm::Name(sym("Nums")))),
            Formula::Atom(Atom::Eq(
                DataTerm::Var(h),
                DataTerm::Tuple(vec![
                    (docql_calculus::AttrTerm::Name(sym("n")), DataTerm::Var(x)),
                    (
                        docql_calculus::AttrTerm::Name(sym("marker")),
                        DataTerm::Const(Value::str("fixed")),
                    ),
                ]),
            )),
        ]),
    );
    let rows = ev.eval_query(&q).unwrap();
    assert_eq!(rows.len(), 3);
    for r in rows {
        let CalcValue::Data(Value::Tuple(fs)) = &r[0] else {
            panic!()
        };
        assert_eq!(fs.len(), 2);
        assert_eq!(fs[0].0, sym("n"));
    }
}

#[test]
fn set_bind_walks_set_elements() {
    // ⟨Pairs[I]·vals{X}⟩ — choose set elements.
    let instance = inst();
    let interp = Interp::with_builtins();
    let ev = Evaluator::new(&instance, &interp);
    let mut b = QueryBuilder::new();
    let i = b.data("I");
    let x = b.data("X");
    let q = b.query(
        vec![x],
        Formula::Exists(
            vec![i],
            Box::new(Formula::Atom(Atom::PathPred(
                DataTerm::Name(sym("Pairs")),
                PathTerm(vec![
                    PathAtom::Index(docql_calculus::IntTerm::Var(i)),
                    PathAtom::Attr(docql_calculus::AttrTerm::Name(sym("vals"))),
                    PathAtom::SetBind(x),
                ]),
            ))),
        ),
    );
    let rows = ev.eval_query(&q).unwrap();
    // {1,2} ∪ {2,9} = {1,2,9}.
    assert_eq!(rows.len(), 3);
}

#[test]
fn sort_by_orders_elements_by_attribute() {
    let instance = inst();
    let interp = Interp::with_builtins();
    let ev = Evaluator::new(&instance, &interp);
    let mut b = QueryBuilder::new();
    let h = b.data("H");
    let q = b.query(
        vec![h],
        Formula::Atom(Atom::Eq(
            DataTerm::Var(h),
            DataTerm::Apply(
                sym("sort_by"),
                vec![
                    DataTerm::Name(sym("Pairs")),
                    DataTerm::Const(Value::str("k")),
                ],
            ),
        )),
    );
    let rows = ev.eval_query(&q).unwrap();
    let CalcValue::Data(Value::List(items)) = &rows[0][0] else {
        panic!()
    };
    let keys: Vec<&Value> = items.iter().map(|i| i.attr(sym("k")).unwrap()).collect();
    assert_eq!(keys, vec![&Value::str("big"), &Value::str("small")]);
}

#[test]
fn near_chars_uses_character_distance() {
    let instance = inst();
    let interp = Interp::with_builtins();
    let ev = Evaluator::new(&instance, &interp);
    let mut b = QueryBuilder::new();
    let m = b.data("M");
    let mk = |k: i64, _b: &mut QueryBuilder, m| {
        Formula::And(vec![
            Formula::Atom(Atom::Eq(DataTerm::Var(m), DataTerm::Const(Value::Int(1)))),
            Formula::Atom(Atom::Pred(
                sym("near_chars"),
                vec![
                    DataTerm::Const(Value::str("alpha  beta")),
                    DataTerm::Const(Value::str("alpha")),
                    DataTerm::Const(Value::str("beta")),
                    DataTerm::Const(Value::Int(k)),
                ],
            )),
        ])
    };
    let close = b.query(vec![m], mk(2, &mut QueryBuilder::new(), m));
    assert_eq!(ev.eval_query(&close).unwrap().len(), 1);
    let mut b2 = QueryBuilder::new();
    let m2 = b2.data("M");
    let far = b2.query(vec![m2], mk(1, &mut QueryBuilder::new(), m2));
    assert_eq!(ev.eval_query(&far).unwrap().len(), 0);
}
