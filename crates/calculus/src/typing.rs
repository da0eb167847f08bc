//! Type inference for calculus queries (§5.3).
//!
//! "Typing is essentially a consequence of range restriction: once the range
//! of a variable is known, it determines its type." Variables bound on path
//! predicates get their types by *abstract* evaluation of the path term over
//! the schema: path variables range over the finite set of abstract schema
//! paths (restricted semantics), attribute variables over the attributes
//! reachable at each point. A variable reachable at several types gets a
//! marked union with system-supplied markers `α1, α2, …`, exactly as in the
//! paper's volume/chapter/section/subsection example.
//!
//! The per-path-variable candidate sets collected here are also the input of
//! the §5.4 algebraization.

use crate::term::{Atom, AttrTerm, DataTerm, Formula, IntTerm, PathAtom, Query, Var};
use docql_model::{sym, Schema, Sym, Type};
use docql_paths::{schema_paths, AbsPath, SchemaPathOptions};
use std::collections::{BTreeMap, BTreeSet};

/// Result of type inference.
#[derive(Debug, Default)]
pub struct TypeInfo {
    /// Inferred type per data variable (unions marked with `α1, α2, …` when
    /// several types are possible).
    pub var_types: BTreeMap<Var, Type>,
    /// Candidate attribute names per attribute variable.
    pub attr_candidates: BTreeMap<Var, BTreeSet<Sym>>,
    /// Candidate abstract paths per path variable.
    pub path_candidates: BTreeMap<Var, Vec<AbsPath>>,
    /// Type errors (e.g. an attribute no union alternative defines).
    pub errors: Vec<String>,
}

impl TypeInfo {
    /// The inferred type of a data variable.
    pub fn type_of(&self, v: Var) -> Option<&Type> {
        self.var_types.get(&v)
    }
}

/// Infer types for the variables of `q` against `schema`.
///
/// Implements the §5.3 refinement: "the 'interesting' valuations may also
/// be restricted by the types", as in `∃P(⟨Knuth_Books P(X)·title⟩ ∧
/// "D. Scott" ∈ X·review)` — if only chapters have reviewers, only chapter
/// valuations occur. Attribute requirements gathered from every atom prune
/// both the variable types and the path-variable candidates (shrinking the
/// §5.4 union).
pub fn infer_types(q: &Query, schema: &Schema) -> TypeInfo {
    let mut requirements: BTreeMap<Var, BTreeSet<Sym>> = BTreeMap::new();
    collect_attr_requirements(&q.body, &mut requirements);
    let mut cx = Cx {
        schema,
        data_types: BTreeMap::new(),
        attr_cands: BTreeMap::new(),
        path_cands: BTreeMap::new(),
        errors: Vec::new(),
        opts: SchemaPathOptions::default(),
        requirements,
    };
    cx.formula(&q.body);
    let mut out = TypeInfo {
        attr_candidates: cx.attr_cands,
        path_candidates: cx.path_cands,
        errors: cx.errors,
        ..TypeInfo::default()
    };
    for (v, types) in cx.data_types {
        out.var_types.insert(v, combine_types(types));
    }
    out
}

/// Several candidate types combine into a marked union with system markers.
fn combine_types(types: BTreeSet<Type>) -> Type {
    if types.len() <= 1 {
        return types.into_iter().next().unwrap_or(Type::Any);
    }
    Type::Union(
        types
            .into_iter()
            .enumerate()
            .map(|(i, t)| docql_model::Field::new(sym(&format!("α{}", i + 1)), t))
            .collect(),
    )
}

struct Cx<'a> {
    schema: &'a Schema,
    data_types: BTreeMap<Var, BTreeSet<Type>>,
    attr_cands: BTreeMap<Var, BTreeSet<Sym>>,
    path_cands: BTreeMap<Var, Vec<AbsPath>>,
    errors: Vec<String>,
    opts: SchemaPathOptions,
    /// Per data variable: attributes other atoms select on it (§5.3).
    requirements: BTreeMap<Var, BTreeSet<Sym>>,
}

/// Gather, per data variable, the attributes selected on it anywhere in the
/// formula (`X·review` in a membership/equality/predicate atom).
fn collect_attr_requirements(f: &Formula, out: &mut BTreeMap<Var, BTreeSet<Sym>>) {
    fn term(t: &DataTerm, out: &mut BTreeMap<Var, BTreeSet<Sym>>) {
        match t {
            DataTerm::PathApp(base, p) => {
                if let (DataTerm::Var(v), Some(PathAtom::Attr(AttrTerm::Name(a)))) =
                    (base.as_ref(), p.0.first())
                {
                    out.entry(*v).or_default().insert(*a);
                }
                term(base, out);
                // Nested terms inside the path (binders) carry no terms.
            }
            DataTerm::Tuple(fields) => {
                for (_, x) in fields {
                    term(x, out);
                }
            }
            DataTerm::List(items) | DataTerm::Set(items) => {
                for x in items {
                    term(x, out);
                }
            }
            DataTerm::Apply(_, args) => {
                for x in args {
                    term(x, out);
                }
            }
            _ => {}
        }
    }
    fn atom(a: &Atom, out: &mut BTreeMap<Var, BTreeSet<Sym>>) {
        match a {
            Atom::Eq(x, y) | Atom::In(x, y) | Atom::Subset(x, y) => {
                term(x, out);
                term(y, out);
            }
            Atom::PathPred(t, _) => term(t, out),
            Atom::Pred(_, args) => {
                for x in args {
                    term(x, out);
                }
            }
        }
    }
    match f {
        Formula::Atom(a) => atom(a, out),
        Formula::And(fs) => {
            for g in fs {
                collect_attr_requirements(g, out);
            }
        }
        // Requirements under negation or inside a disjunct must NOT prune:
        // a valuation failing one disjunct may satisfy another, and a
        // negated atom being false *keeps* the binding.
        Formula::Or(_) | Formula::Not(_) | Formula::Forall(..) => {}
        Formula::Exists(_, g) => collect_attr_requirements(g, out),
    }
}

impl Cx<'_> {
    fn formula(&mut self, f: &Formula) {
        match f {
            Formula::Atom(a) => self.atom(a),
            Formula::And(fs) | Formula::Or(fs) => {
                for sub in fs {
                    self.formula(sub);
                }
            }
            Formula::Not(inner) => self.formula(inner),
            Formula::Exists(_, inner) | Formula::Forall(_, inner) => self.formula(inner),
        }
    }

    fn atom(&mut self, a: &Atom) {
        match a {
            Atom::PathPred(t, p) => {
                let Some(start) = self.base_type(t) else {
                    return;
                };
                let count_before = self.reached(&start, &p.0);
                if count_before == 0 {
                    self.errors.push(format!(
                        "path predicate {a} admits no valuation: no schema path matches"
                    ));
                }
            }
            Atom::In(x, coll) => {
                // X ∈ t: X gets the element type of t when known.
                if let (DataTerm::Var(v), Some(t)) = (x, self.base_type(coll)) {
                    if let Some(elem) = element_type(self.schema, &t) {
                        self.data_types.entry(*v).or_default().insert(elem);
                    }
                }
            }
            Atom::Eq(x, y) => {
                // Propagate known base types through simple equalities.
                if let (DataTerm::Var(v), Some(t)) = (x, self.base_type(y)) {
                    self.data_types.entry(*v).or_default().insert(t);
                } else if let (Some(t), DataTerm::Var(v)) = (self.base_type(x), y) {
                    self.data_types.entry(*v).or_default().insert(t);
                }
            }
            _ => {}
        }
    }

    /// The static type of a ground-ish term, if determinable.
    fn base_type(&self, t: &DataTerm) -> Option<Type> {
        match t {
            DataTerm::Name(n) => self.schema.root_type(*n).cloned(),
            DataTerm::Var(v) => {
                let types = self.data_types.get(v)?;
                Some(combine_types(types.clone()))
            }
            DataTerm::Const(v) => const_type(v),
            DataTerm::PathApp(base, p) => {
                let start = self.base_type(base)?;
                // Abstract-apply without variable collection.
                let mut ends = BTreeSet::new();
                let mut collect = CollectEnds(&mut ends);
                walk_abs(
                    self.schema,
                    &self.opts,
                    &start,
                    &p.0,
                    &mut Vec::new(),
                    &mut |_, end| collect.complete(end),
                );
                if ends.is_empty() {
                    None
                } else {
                    Some(combine_types(ends))
                }
            }
            _ => None,
        }
    }

    /// Walk the path term abstractly, collecting variable candidates from
    /// every *complete* abstract match (bindings on dead-end walks are
    /// discarded, keeping the §5.4 candidate sets tight).
    /// Returns the number of complete abstract matches.
    fn reached(&mut self, start: &Type, atoms: &[PathAtom]) -> usize {
        let opts = self.opts.clone();
        let mut count = 0usize;
        let mut trail = Vec::new();
        let schema = self.schema;
        let requirements = self.requirements.clone();
        walk_abs(
            schema,
            &opts,
            start,
            atoms,
            &mut trail,
            &mut |trail, _end| {
                // §5.3 refinement: drop valuations whose bound data variables
                // cannot carry the attributes other atoms select on them.
                for item in trail.iter() {
                    if let TrailItem::Data(v, ty) = item {
                        if let Some(required) = requirements.get(v) {
                            if required
                                .iter()
                                .any(|a| attr_select_types(schema, ty, *a).is_empty())
                            {
                                return;
                            }
                        }
                    }
                }
                count += 1;
                for item in trail {
                    match item {
                        TrailItem::Data(v, ty) => {
                            self.data_types.entry(*v).or_default().insert(ty.clone());
                        }
                        TrailItem::Attr(v, name) => {
                            self.attr_cands.entry(*v).or_default().insert(*name);
                        }
                        TrailItem::Path(v, p) => {
                            let entry = self.path_cands.entry(*v).or_default();
                            if !entry.iter().any(|e| e.steps == p.steps) {
                                entry.push(p.clone());
                            }
                        }
                        TrailItem::Index(v) => {
                            self.data_types.entry(*v).or_default().insert(Type::Integer);
                        }
                    }
                }
            },
        );
        count
    }
}

/// Tentative bindings accumulated during an abstract walk, committed only
/// when the walk reaches the end of the path term.
enum TrailItem {
    Data(Var, Type),
    Attr(Var, Sym),
    Path(Var, AbsPath),
    Index(Var),
}

struct CollectEnds<'a>(&'a mut BTreeSet<Type>);
impl CollectEnds<'_> {
    fn complete(&mut self, end: &Type) {
        self.0.insert(end.clone());
    }
}

fn walk_abs(
    schema: &Schema,
    opts: &SchemaPathOptions,
    ty: &Type,
    atoms: &[PathAtom],
    trail: &mut Vec<TrailItem>,
    on_complete: &mut impl FnMut(&[TrailItem], &Type),
) {
    let Some(atom) = atoms.first() else {
        on_complete(trail, ty);
        return;
    };
    let rest = &atoms[1..];
    match atom {
        PathAtom::PathVar(v) => {
            for p in schema_paths(schema, ty, opts) {
                let end = p.end_type.clone();
                trail.push(TrailItem::Path(*v, p));
                walk_abs(schema, opts, &end, rest, trail, on_complete);
                trail.pop();
            }
        }
        PathAtom::Deref => {
            if let Type::Class(c) = ty {
                if let Some(sigma) = schema.class_type(*c) {
                    walk_abs(schema, opts, &sigma, rest, trail, on_complete);
                }
            }
        }
        PathAtom::Attr(AttrTerm::Name(n)) => {
            for t in attr_select_types(schema, ty, *n) {
                walk_abs(schema, opts, &t, rest, trail, on_complete);
            }
        }
        PathAtom::Attr(AttrTerm::Var(v)) => {
            for (name, t) in attrs_of_type(schema, ty) {
                trail.push(TrailItem::Attr(*v, name));
                walk_abs(schema, opts, &t, rest, trail, on_complete);
                trail.pop();
            }
        }
        PathAtom::Index(it) => {
            if let IntTerm::Var(v) = it {
                trail.push(TrailItem::Index(*v));
            }
            for target in index_targets(schema, ty) {
                walk_abs(schema, opts, &target, rest, trail, on_complete);
            }
            if matches!(it, IntTerm::Var(_)) {
                trail.pop();
            }
        }
        PathAtom::Bind(v) => {
            trail.push(TrailItem::Data(*v, ty.clone()));
            walk_abs(schema, opts, ty, rest, trail, on_complete);
            trail.pop();
        }
        PathAtom::SetBind(v) => {
            if let Type::Set(elem) = resolved(schema, ty) {
                trail.push(TrailItem::Data(*v, elem.as_ref().clone()));
                walk_abs(schema, opts, &elem, rest, trail, on_complete);
                trail.pop();
            }
        }
    }
}

/// Element types an `[i]` step can reach from `ty`: list elements, a
/// tuple's components as the union of its singletons (§5.1 rule 2), and —
/// through marking-attribute omission — the index targets of each union
/// alternative.
fn index_targets(schema: &Schema, ty: &Type) -> Vec<Type> {
    match resolved(schema, ty) {
        Type::List(elem) => vec![elem.as_ref().clone()],
        Type::Tuple(fields) if !fields.is_empty() => vec![Type::Union(fields)],
        Type::Union(branches) => branches
            .iter()
            .flat_map(|b| index_targets(schema, &b.ty))
            .collect(),
        _ => Vec::new(),
    }
}

/// Resolve class references one level (for list/set/tuple inspection).
fn resolved(schema: &Schema, ty: &Type) -> Type {
    match ty {
        Type::Class(c) => schema.class_type(*c).unwrap_or(Type::Any),
        other => other.clone(),
    }
}

/// Types reachable by selecting attribute `name` — through implicit
/// dereferencing and union-marker omission.
fn attr_select_types(schema: &Schema, ty: &Type, name: Sym) -> Vec<Type> {
    let mut out = Vec::new();
    match ty {
        Type::Tuple(fields) => {
            for f in fields {
                if f.name == name {
                    out.push(f.ty.clone());
                }
            }
        }
        Type::Union(branches) => {
            for b in branches {
                if b.name == name {
                    out.push(b.ty.clone());
                } else {
                    out.extend(attr_select_types(schema, &b.ty, name));
                }
            }
        }
        Type::Class(c) => {
            if let Some(sigma) = schema.class_type(*c) {
                out.extend(attr_select_types(schema, &sigma, name));
            }
        }
        _ => {}
    }
    out
}

/// All `(attribute, type)` pairs an unbound attribute variable may take at a
/// type.
fn attrs_of_type(schema: &Schema, ty: &Type) -> Vec<(Sym, Type)> {
    match ty {
        Type::Tuple(fields) => fields.iter().map(|f| (f.name, f.ty.clone())).collect(),
        Type::Union(branches) => {
            let mut out = Vec::new();
            for b in branches {
                out.push((b.name, b.ty.clone()));
                out.extend(attrs_of_type(schema, &b.ty));
            }
            out
        }
        Type::Class(c) => match schema.class_type(*c) {
            Some(sigma) => attrs_of_type(schema, &sigma),
            None => Vec::new(),
        },
        _ => Vec::new(),
    }
}

/// Element type of a collection-typed term (through classes and unions).
fn element_type(schema: &Schema, ty: &Type) -> Option<Type> {
    match ty {
        Type::List(e) | Type::Set(e) => Some(e.as_ref().clone()),
        Type::Class(c) => element_type(schema, &schema.class_type(*c)?),
        Type::Union(branches) => {
            let elems: BTreeSet<Type> = branches
                .iter()
                .filter_map(|b| element_type(schema, &b.ty))
                .collect();
            if elems.is_empty() {
                None
            } else {
                Some(combine_types(elems))
            }
        }
        _ => None,
    }
}

/// Static type of a constant.
fn const_type(v: &docql_model::Value) -> Option<Type> {
    use docql_model::Value;
    match v {
        Value::Int(_) => Some(Type::Integer),
        Value::Float(_) => Some(Type::Float),
        Value::Bool(_) => Some(Type::Boolean),
        Value::Str(_) => Some(Type::String),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Formula, PathTerm, QueryBuilder};
    use docql_model::{ClassDef, Schema};
    use std::sync::Arc;

    /// The paper's Knuth-books flavoured schema: volumes contain chapters
    /// contain sections contain subsections; only chapters have reviews.
    fn knuth_schema() -> Arc<Schema> {
        Arc::new(
            Schema::builder()
                .class(ClassDef::new(
                    "Subsectn",
                    Type::tuple([("title", Type::String)]),
                ))
                .class(ClassDef::new(
                    "Section",
                    Type::tuple([
                        ("title", Type::String),
                        ("subsections", Type::list(Type::class("Subsectn"))),
                    ]),
                ))
                .class(ClassDef::new(
                    "Chapter",
                    Type::tuple([
                        ("title", Type::String),
                        ("review", Type::set(Type::String)),
                        ("sections", Type::list(Type::class("Section"))),
                    ]),
                ))
                .class(ClassDef::new(
                    "Volume",
                    Type::tuple([
                        ("title", Type::String),
                        ("chapters", Type::list(Type::class("Chapter"))),
                    ]),
                ))
                .root("Knuth_Books", Type::list(Type::class("Volume")))
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn paper_example_x_gets_marked_union() {
        // ∃P(⟨Knuth_Books P(X)·title⟩): X may be a volume, chapter, section
        // or subsection — its type is a marked union of the four.
        let schema = knuth_schema();
        let mut b = QueryBuilder::new();
        let p = b.path("P");
        let x = b.data("X");
        let q = b.query(
            vec![x],
            Formula::Exists(
                vec![p],
                Box::new(Formula::Atom(Atom::PathPred(
                    DataTerm::Name(sym("Knuth_Books")),
                    PathTerm(vec![
                        PathAtom::PathVar(p),
                        PathAtom::Bind(x),
                        PathAtom::Attr(AttrTerm::Name(sym("title"))),
                    ]),
                ))),
            ),
        );
        let info = infer_types(&q, &schema);
        let ty = info.type_of(x).unwrap();
        match ty {
            Type::Union(branches) => {
                let names: BTreeSet<String> = branches.iter().map(|b| b.ty.to_string()).collect();
                assert!(names.contains("Volume"), "{names:?}");
                assert!(names.contains("Chapter"), "{names:?}");
                assert!(names.contains("Section"), "{names:?}");
                assert!(names.contains("Subsectn"), "{names:?}");
                assert!(branches.iter().any(|b| b.name == sym("α1")));
            }
            other => panic!("expected a marked union, got {other}"),
        }
    }

    #[test]
    fn attr_variable_candidates_enumerated() {
        let schema = knuth_schema();
        let mut b = QueryBuilder::new();
        let p = b.path("P");
        let a = b.attr("A");
        let x = b.data("X");
        let q = b.query(
            vec![a],
            Formula::Atom(Atom::PathPred(
                DataTerm::Name(sym("Knuth_Books")),
                PathTerm(vec![
                    PathAtom::PathVar(p),
                    PathAtom::Attr(AttrTerm::Var(a)),
                    PathAtom::Bind(x),
                ]),
            )),
        );
        let info = infer_types(&q, &schema);
        let cands = &info.attr_candidates[&a];
        assert!(cands.contains(&sym("title")));
        assert!(cands.contains(&sym("review")));
        assert!(cands.contains(&sym("chapters")));
    }

    #[test]
    fn path_variable_candidates_finite() {
        let schema = knuth_schema();
        let mut b = QueryBuilder::new();
        let p = b.path("P");
        let x = b.data("X");
        let q = b.query(
            vec![x],
            Formula::Atom(Atom::PathPred(
                DataTerm::Name(sym("Knuth_Books")),
                PathTerm(vec![
                    PathAtom::PathVar(p),
                    PathAtom::Attr(AttrTerm::Name(sym("title"))),
                    PathAtom::Bind(x),
                ]),
            )),
        );
        let info = infer_types(&q, &schema);
        let cands = &info.path_candidates[&p];
        assert!(!cands.is_empty());
        // All candidates end at types with a title attribute, and X is
        // always a string.
        assert_eq!(info.type_of(x), Some(&Type::String));
    }

    #[test]
    fn missing_attribute_reports_error() {
        let schema = knuth_schema();
        let mut b = QueryBuilder::new();
        let p = b.path("P");
        let x = b.data("X");
        let q = b.query(
            vec![x],
            Formula::Atom(Atom::PathPred(
                DataTerm::Name(sym("Knuth_Books")),
                PathTerm(vec![
                    PathAtom::PathVar(p),
                    PathAtom::Attr(AttrTerm::Name(sym("isbn"))),
                    PathAtom::Bind(x),
                ]),
            )),
        );
        let info = infer_types(&q, &schema);
        assert!(!info.errors.is_empty(), "no schema path reaches .isbn");
    }

    #[test]
    fn in_atom_types_element() {
        let schema = knuth_schema();
        let mut b = QueryBuilder::new();
        let x = b.data("X");
        let q = b.query(
            vec![x],
            Formula::Atom(Atom::In(
                DataTerm::Var(x),
                DataTerm::Name(sym("Knuth_Books")),
            )),
        );
        let info = infer_types(&q, &schema);
        assert_eq!(info.type_of(x), Some(&Type::class("Volume")));
    }

    #[test]
    fn index_variable_is_integer() {
        let schema = knuth_schema();
        let mut b = QueryBuilder::new();
        let i = b.data("I");
        let x = b.data("X");
        let q = b.query(
            vec![x],
            Formula::Atom(Atom::PathPred(
                DataTerm::Name(sym("Knuth_Books")),
                PathTerm(vec![PathAtom::Index(IntTerm::Var(i)), PathAtom::Bind(x)]),
            )),
        );
        let info = infer_types(&q, &schema);
        assert_eq!(info.type_of(i), Some(&Type::Integer));
        assert_eq!(info.type_of(x), Some(&Type::class("Volume")));
    }
}

#[cfg(test)]
mod refinement_tests {
    use super::*;
    use crate::term::{Formula, PathTerm, QueryBuilder};
    use docql_model::{ClassDef, Schema, Value};
    use std::sync::Arc;

    /// Volumes/chapters/sections where only chapters carry reviews.
    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::builder()
                .class(ClassDef::new(
                    "Section",
                    Type::tuple([("title", Type::String)]),
                ))
                .class(ClassDef::new(
                    "Chapter",
                    Type::tuple([
                        ("title", Type::String),
                        ("review", Type::set(Type::String)),
                        ("sections", Type::list(Type::class("Section"))),
                    ]),
                ))
                .class(ClassDef::new(
                    "Volume",
                    Type::tuple([
                        ("title", Type::String),
                        ("chapters", Type::list(Type::class("Chapter"))),
                    ]),
                ))
                .root("Knuth_Books", Type::list(Type::class("Volume")))
                .build()
                .unwrap(),
        )
    }

    /// The §5.3 example: `∃P(⟨Knuth_Books P(X)·title⟩ ∧ "D. Scott" ∈
    /// X·review)` — only chapter valuations survive.
    #[test]
    fn review_requirement_prunes_to_chapters() {
        let schema = schema();
        let mut b = QueryBuilder::new();
        let p = b.path("P");
        let x = b.data("X");
        let q = b.query(
            vec![x],
            Formula::Exists(
                vec![p],
                Box::new(Formula::And(vec![
                    Formula::Atom(Atom::PathPred(
                        DataTerm::Name(docql_model::sym("Knuth_Books")),
                        PathTerm(vec![
                            PathAtom::PathVar(p),
                            PathAtom::Bind(x),
                            PathAtom::Attr(AttrTerm::Name(docql_model::sym("title"))),
                        ]),
                    )),
                    Formula::Atom(Atom::In(
                        DataTerm::Const(Value::str("D. Scott")),
                        DataTerm::PathApp(
                            Box::new(DataTerm::Var(x)),
                            PathTerm(vec![PathAtom::Attr(AttrTerm::Name(docql_model::sym(
                                "review",
                            )))]),
                        ),
                    )),
                ])),
            ),
        );
        let info = infer_types(&q, &schema);
        // Without the refinement X would be a 4-way union
        // (Volume/Chapter/Section + their class refs); with it, only
        // chapter-shaped valuations remain.
        // Both surviving alternatives are chapter-shaped: the Chapter class
        // itself and the dereferenced chapter tuple (which has `review`).
        let ty = info.type_of(x).unwrap();
        match ty {
            Type::Union(alts) => {
                assert_eq!(alts.len(), 2, "{ty}");
                for alt in alts {
                    let ok = alt.ty == Type::class("Chapter")
                        || attr_select_types(&schema, &alt.ty, docql_model::sym("review"))
                            .iter()
                            .any(|t| matches!(t, Type::Set(_)));
                    assert!(ok, "non-chapter alternative: {}", alt.ty);
                }
            }
            other => panic!("expected a union, got {other}"),
        }
        assert!(!ty.to_string().contains("Volume"), "pruned: {ty}");
        // Path candidates shrink correspondingly: only paths ending at
        // chapters (as objects or values).
        let cands = &info.path_candidates[&p];
        assert!(!cands.is_empty());
        for c in cands {
            let s: String = c.steps.iter().map(|st| st.to_string()).collect();
            assert!(s.contains("chapters"), "non-chapter candidate: {s}");
        }
    }

    /// Requirements under negation must not prune: ¬("x" ∈ X·review) keeps
    /// non-chapter valuations alive.
    #[test]
    fn negated_requirements_do_not_prune() {
        let schema = schema();
        let mut b = QueryBuilder::new();
        let p = b.path("P");
        let x = b.data("X");
        let q = b.query(
            vec![x],
            Formula::Exists(
                vec![p],
                Box::new(Formula::And(vec![
                    Formula::Atom(Atom::PathPred(
                        DataTerm::Name(docql_model::sym("Knuth_Books")),
                        PathTerm(vec![
                            PathAtom::PathVar(p),
                            PathAtom::Bind(x),
                            PathAtom::Attr(AttrTerm::Name(docql_model::sym("title"))),
                        ]),
                    )),
                    Formula::Not(Box::new(Formula::Atom(Atom::In(
                        DataTerm::Const(Value::str("x")),
                        DataTerm::PathApp(
                            Box::new(DataTerm::Var(x)),
                            PathTerm(vec![PathAtom::Attr(AttrTerm::Name(docql_model::sym(
                                "review",
                            )))]),
                        ),
                    )))),
                ])),
            ),
        );
        let info = infer_types(&q, &schema);
        let rendered = info.type_of(x).unwrap().to_string();
        assert!(rendered.contains("Volume"), "{rendered}");
    }
}
