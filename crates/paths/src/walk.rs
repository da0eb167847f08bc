//! Applying concrete paths to values.

use crate::path::ConcretePath;
use crate::step::PathStep;
use docql_model::{Instance, Value};
use std::borrow::Cow;

/// Apply one step to a value. Returns `None` when the step is undefined on
/// the value (e.g. missing attribute, out-of-range index, deref of non-oid).
pub fn apply_step<'v>(
    instance: &'v Instance,
    value: &'v Value,
    step: &PathStep,
) -> Option<&'v Value> {
    match (step, value) {
        (PathStep::Attr(a), v @ (Value::Tuple(_) | Value::Union(..))) => v.attr(*a),
        (PathStep::Index(i), Value::List(items)) => items.get(*i),
        // A tuple viewed as a heterogeneous list: indexing yields the
        // component *as a marked value* — [aᵢ:vᵢ].
        (PathStep::Index(_), Value::Tuple(_)) => None, // handled by apply_step_cow
        (PathStep::Elem(v), Value::Set(items)) => items.iter().find(|x| *x == v),
        (PathStep::Deref, Value::Oid(o)) => instance.value_of(*o).ok(),
        _ => None,
    }
}

/// Apply one step, borrowing the result where it already exists and
/// building it where the step *constructs* a value, i.e. indexing a
/// tuple-as-heterogeneous-list.
fn apply_step_cow<'v>(
    instance: &'v Instance,
    value: &'v Value,
    step: &PathStep,
) -> Option<Cow<'v, Value>> {
    if let (PathStep::Index(i), Value::Tuple(fields)) = (step, value) {
        return fields
            .get(*i)
            .map(|(n, v)| Cow::Owned(Value::Union(*n, Box::new(v.clone()))));
    }
    if let (PathStep::Index(i), Value::Union(..)) = (step, value) {
        // A union value is a singleton heterogeneous list.
        return (*i == 0).then_some(Cow::Borrowed(value));
    }
    apply_step(instance, value, step).map(Cow::Borrowed)
}

/// Resolve a whole path from a start value. Returns the reached value, or
/// `None` if any step is undefined. Steps read values in place: only the
/// reached value is cloned, and a tuple component an index step builds.
pub fn resolve(instance: &Instance, start: &Value, path: &ConcretePath) -> Option<Value> {
    let mut cur = Cow::Borrowed(start);
    for step in path.steps() {
        cur = match cur {
            Cow::Borrowed(v) => apply_step_cow(instance, v, step)?,
            Cow::Owned(v) => Cow::Owned(apply_step_cow(instance, &v, step)?.into_owned()),
        };
    }
    Some(cur.into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use docql_model::{ClassDef, Schema, Type};
    use std::sync::Arc;

    fn instance() -> (Instance, Value) {
        let schema = Arc::new(
            Schema::builder()
                .class(ClassDef::new(
                    "Text",
                    Type::tuple([("contents", Type::String)]),
                ))
                .build()
                .unwrap(),
        );
        let mut inst = Instance::new(schema);
        let title = inst
            .new_object("Text", Value::tuple([("contents", Value::str("Intro"))]))
            .unwrap();
        let article = Value::tuple([
            ("title", Value::Oid(title)),
            (
                "sections",
                Value::list([Value::union(
                    "a2",
                    Value::tuple([
                        ("title", Value::str("s0")),
                        (
                            "subsectns",
                            Value::list([Value::str("ss0"), Value::str("ss1")]),
                        ),
                    ]),
                )]),
            ),
            ("tags", Value::set([Value::str("db"), Value::str("sgml")])),
        ]);
        (inst, article)
    }

    #[test]
    fn resolve_paper_style_path() {
        let (inst, article) = instance();
        // .sections[0].a2.subsectns[1]
        let p = ConcretePath::from_steps([
            PathStep::attr("sections"),
            PathStep::Index(0),
            PathStep::attr("a2"),
            PathStep::attr("subsectns"),
            PathStep::Index(1),
        ]);
        assert_eq!(resolve(&inst, &article, &p), Some(Value::str("ss1")));
    }

    #[test]
    fn union_attr_skips_into_payload() {
        let (inst, article) = instance();
        // The union marker step goes through Value::Union.
        let p = ConcretePath::from_steps([
            PathStep::attr("sections"),
            PathStep::Index(0),
            PathStep::attr("a2"),
            PathStep::attr("title"),
        ]);
        assert_eq!(resolve(&inst, &article, &p), Some(Value::str("s0")));
    }

    #[test]
    fn deref_crosses_object_boundary() {
        let (inst, article) = instance();
        let p = ConcretePath::from_steps([
            PathStep::attr("title"),
            PathStep::Deref,
            PathStep::attr("contents"),
        ]);
        assert_eq!(resolve(&inst, &article, &p), Some(Value::str("Intro")));
    }

    #[test]
    fn set_element_step() {
        let (inst, article) = instance();
        let p =
            ConcretePath::from_steps([PathStep::attr("tags"), PathStep::Elem(Value::str("db"))]);
        assert_eq!(resolve(&inst, &article, &p), Some(Value::str("db")));
        let missing =
            ConcretePath::from_steps([PathStep::attr("tags"), PathStep::Elem(Value::str("nope"))]);
        assert_eq!(resolve(&inst, &article, &missing), None);
    }

    #[test]
    fn tuple_as_hetero_list_indexing() {
        let (inst, _) = instance();
        let letter = Value::tuple([("to", Value::str("alice")), ("from", Value::str("bob"))]);
        let p = ConcretePath::from_steps([PathStep::Index(1)]);
        assert_eq!(
            resolve(&inst, &letter, &p),
            Some(Value::union("from", Value::str("bob")))
        );
        // And then selecting the marker attribute.
        let p2 = ConcretePath::from_steps([PathStep::Index(1), PathStep::attr("from")]);
        assert_eq!(resolve(&inst, &letter, &p2), Some(Value::str("bob")));
    }

    #[test]
    fn undefined_steps_yield_none() {
        let (inst, article) = instance();
        assert_eq!(
            resolve(
                &inst,
                &article,
                &ConcretePath::from_steps([PathStep::attr("ghost")])
            ),
            None
        );
        assert_eq!(
            resolve(
                &inst,
                &article,
                &ConcretePath::from_steps([PathStep::Index(7)])
            ),
            None
        );
        assert_eq!(
            resolve(
                &inst,
                &Value::Int(3),
                &ConcretePath::from_steps([PathStep::Deref])
            ),
            None
        );
    }

    #[test]
    fn empty_path_is_identity() {
        let (inst, article) = instance();
        assert_eq!(
            resolve(&inst, &article, &ConcretePath::empty()),
            Some(article.clone())
        );
    }
}
