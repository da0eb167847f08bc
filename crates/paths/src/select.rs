//! Variant-based value selection shared by the algebra's `Walk` operator,
//! the calculus interpreter's path-predicate walks and the path-extent
//! index.
//!
//! These helpers define the *concrete* semantics of one navigation step —
//! attribute selection with implicit selectors through union markers,
//! tuples viewed as heterogeneous lists, one-level dereferencing — and the
//! run-time walks (`docql-algebra`, `docql-calculus`) and the ingest-time
//! extent build ([`crate::extent`]) all call them, so they can never drift
//! apart: an index-backed answer is the same function of the instance as a
//! walked one. Selection borrows from the value it selects in.

use docql_model::{Instance, Sym, Value};
use std::borrow::Cow;

/// Attribute lookup with implicit selectors through union markers. No
/// implicit dereferencing — walks mirror the calculus path-predicate
/// semantics where `→` steps are explicit (candidate paths carry them).
pub fn attr_select(value: &Value, name: Sym) -> Option<&Value> {
    match value {
        Value::Tuple(_) => value.attr(name),
        Value::Union(m, payload) => {
            if *m == name {
                Some(payload)
            } else {
                attr_select(payload, name)
            }
        }
        _ => None,
    }
}

/// The elements a list-unnest step fans out over: lists directly, tuples as
/// heterogeneous lists of marked components (§4.2 rule 2). Union markers
/// are looked through (implicit selectors); object boundaries are not
/// (explicit `Deref` steps handle those).
pub fn list_items(value: &Value) -> Vec<Value> {
    match value {
        Value::List(items) => items.clone(),
        // A tuple viewed as a heterogeneous list.
        Value::Tuple(fields) => fields
            .iter()
            .map(|(n, v)| Value::Union(*n, Box::new(v.clone())))
            .collect(),
        Value::Union(_, payload) => list_items(payload),
        _ => Vec::new(),
    }
}

/// Positional selection: list index, or tuple component as a marked union
/// value; union markers are looked through. A list element is borrowed; a
/// tuple component is built, since the marker wraps it.
pub fn index_select(value: &Value, i: usize) -> Option<Cow<'_, Value>> {
    match value {
        Value::List(items) => items.get(i).map(Cow::Borrowed),
        Value::Tuple(fs) => fs
            .get(i)
            .map(|(n, v)| Cow::Owned(Value::Union(*n, Box::new(v.clone())))),
        Value::Union(_, payload) => index_select(payload, i),
        _ => None,
    }
}

/// One level of dereferencing, looking through union markers; dangling oids
/// collapse to [`Value::Nil`], non-oids pass through unchanged.
pub fn deref1(instance: &Instance, value: &Value) -> Value {
    match value {
        Value::Oid(o) => instance.value_of(*o).cloned().unwrap_or(Value::Nil),
        Value::Union(_, payload) => deref1(instance, payload),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docql_model::{sym, ClassDef, Schema, Type};
    use std::sync::Arc;

    fn inst() -> Instance {
        let schema = Arc::new(
            Schema::builder()
                .class(ClassDef::new("C", Type::Any))
                .build()
                .unwrap(),
        );
        Instance::new(schema)
    }

    #[test]
    fn attr_select_looks_through_unions_but_not_oids() {
        let t = Value::tuple([("a", Value::Int(1))]);
        assert_eq!(attr_select(&t, sym("a")), Some(&Value::Int(1)));
        let u = Value::union("m", t.clone());
        assert_eq!(attr_select(&u, sym("a")), Some(&Value::Int(1)));
        assert_eq!(attr_select(&u, sym("m")), Some(&t));
        assert_eq!(attr_select(&Value::Int(3), sym("a")), None);
    }

    #[test]
    fn tuples_are_heterogeneous_lists() {
        let t = Value::tuple([("a", Value::Int(1)), ("b", Value::Int(2))]);
        let items = list_items(&t);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0], Value::union("a", Value::Int(1)));
        assert_eq!(
            index_select(&t, 1).map(Cow::into_owned),
            Some(Value::union("b", Value::Int(2)))
        );
        // A list element is read in place; only the marked tuple component
        // has to be built.
        let l = Value::list([Value::Int(1)]);
        assert!(matches!(index_select(&l, 0), Some(Cow::Borrowed(_))));
    }

    #[test]
    fn deref1_handles_dangling_and_plain_values() {
        let mut i = inst();
        let o = i.new_object("C", Value::Int(7)).unwrap();
        assert_eq!(deref1(&i, &Value::Oid(o)), Value::Int(7));
        assert_eq!(deref1(&i, &Value::Int(5)), Value::Int(5));
    }
}
