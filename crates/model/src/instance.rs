//! Instances `(π, ν, μ, γ)` of a schema (§5.1).
//!
//! * `π` — the oid assignment: each oid belongs to exactly one most-specific
//!   class (the *disjoint* assignment `π_d`); the inherited assignment
//!   `π(c) = ∪ { π_d(c') | c' ≺ c }` is answered by [`Instance::oid_in_class`].
//! * `ν` — maps each oid to a value of the correct type.
//! * `μ` — method semantics; represented as named native functions, unused by
//!   the document workloads (kept for completeness as in the paper).
//! * `γ` — gives each root of persistence in `G` a value.
//!
//! Each object also carries the paper's `text` mapping (§3): the inverse
//! mapping from a logical object to its portion of the document text, as
//! recorded by the document loader ([`Instance::text`]).

use crate::chunked::ChunkedVec;
use crate::error::{ModelError, Result};
use crate::schema::Schema;
use crate::sym::Sym;
use crate::value::{Oid, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// One slot of the object table.
#[derive(Debug, Clone)]
struct ObjSlot {
    /// Most-specific class of the object (π_d⁻¹).
    class: Sym,
    /// ν(o).
    value: Value,
    /// `text(o)`: the object's portion of the document text, when it was
    /// loaded from (or refreshed against) a document.
    text: Option<Arc<str>>,
}

/// An instance over a shared schema.
///
/// Slots sit behind `Arc` in a [`ChunkedVec`], so cloning an instance —
/// the snapshot fork path of the store layer — copies one `Arc` per group
/// of 4,096 objects and shares every object value. After the clone,
/// [`Instance::new_object`] copies at most the last group and chunk, and
/// [`Instance::set_value`] or [`Instance::set_text`] copies the touched
/// slot's group and chunk of `Arc`s and then the slot itself
/// (`Arc::make_mut`).
#[derive(Debug, Clone)]
pub struct Instance {
    schema: Arc<Schema>,
    objects: ChunkedVec<Arc<ObjSlot>>,
    /// γ, behind `Arc` so a clone shares it: the collection root's value
    /// lists every document.
    roots: Arc<HashMap<Sym, Value>>,
}

/// Checked oid allocation: the object table holds at most 2³² objects.
fn next_oid(len: usize) -> Result<Oid> {
    u32::try_from(len)
        .map(Oid)
        .map_err(|_| ModelError::OidOverflow)
}

impl Instance {
    /// Fresh, empty instance of `schema`.
    pub fn new(schema: Arc<Schema>) -> Instance {
        Instance {
            schema,
            objects: ChunkedVec::new(),
            roots: Arc::default(),
        }
    }

    /// The schema this instance populates.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Shared handle to the schema.
    pub fn schema_arc(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// Allocate a fresh object `(o, v)` in `class`. The value is *not*
    /// type-checked here (documents are built bottom-up and may temporarily
    /// hold placeholders); call [`Instance::check`] once construction is
    /// complete.
    pub fn new_object(&mut self, class: impl Into<Sym>, value: Value) -> Result<Oid> {
        let class = class.into();
        if !self.schema.hierarchy().contains(class) {
            return Err(ModelError::UnknownClass(class));
        }
        let oid = next_oid(self.objects.len())?;
        self.objects.push(Arc::new(ObjSlot {
            class,
            value,
            text: None,
        }));
        Ok(oid)
    }

    /// ν(o).
    pub fn value_of(&self, oid: Oid) -> Result<&Value> {
        self.objects
            .get(oid.0 as usize)
            .map(|s| &s.value)
            .ok_or(ModelError::DanglingOid(oid))
    }

    /// Update ν(o).
    pub fn set_value(&mut self, oid: Oid, value: Value) -> Result<()> {
        let slot = self
            .objects
            .make_mut(oid.0 as usize)
            .ok_or(ModelError::DanglingOid(oid))?;
        Arc::make_mut(slot).value = value;
        Ok(())
    }

    /// `text(o)`: the object's portion of the document text, or `None` for
    /// an object with no recorded text (e.g. one built programmatically).
    pub fn text(&self, oid: Oid) -> Option<&str> {
        self.objects.get(oid.0 as usize)?.text.as_deref()
    }

    /// Record (or with `None`, clear) `text(o)`. Setting the text an object
    /// already has leaves its slot untouched, so a clone keeps sharing it.
    pub fn set_text(&mut self, oid: Oid, text: Option<&str>) -> Result<()> {
        let i = oid.0 as usize;
        let slot = self.objects.get(i).ok_or(ModelError::DanglingOid(oid))?;
        if slot.text.as_deref() != text {
            if let Some(slot) = self.objects.make_mut(i) {
                Arc::make_mut(slot).text = text.map(Arc::from);
            }
        }
        Ok(())
    }

    /// The most-specific class of an object.
    pub fn class_of(&self, oid: Oid) -> Result<Sym> {
        self.objects
            .get(oid.0 as usize)
            .map(|s| s.class)
            .ok_or(ModelError::DanglingOid(oid))
    }

    /// Is `oid ∈ π(class)` — i.e. is the object's most-specific class equal
    /// to or below `class`?
    pub fn oid_in_class(&self, oid: Oid, class: Sym) -> bool {
        match self.class_of(oid) {
            Ok(c) => self.schema.hierarchy().is_subclass(c, class),
            Err(_) => false,
        }
    }

    /// γ: bind a root of persistence. The root must be declared in `G`.
    pub fn set_root(&mut self, name: impl Into<Sym>, value: Value) -> Result<()> {
        let name = name.into();
        if !self.schema.has_root(name) {
            return Err(ModelError::UnknownRoot(name));
        }
        Arc::make_mut(&mut self.roots).insert(name, value);
        Ok(())
    }

    /// γ(name).
    pub fn root(&self, name: Sym) -> Result<&Value> {
        self.roots.get(&name).ok_or(ModelError::UnknownRoot(name))
    }

    /// All bound roots.
    pub fn roots(&self) -> impl Iterator<Item = (Sym, &Value)> {
        self.roots.iter().map(|(n, v)| (*n, v))
    }

    /// Number of allocated objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Iterate over all objects as `(oid, class, value)`.
    pub fn objects(&self) -> impl Iterator<Item = (Oid, Sym, &Value)> {
        self.objects
            .iter()
            .enumerate()
            .map(|(i, s)| (Oid(i as u32), s.class, &s.value))
    }

    /// How many chunks of this instance's object table are not shared
    /// with `other`'s: after `other.clone()`, the chunks this instance's
    /// writes have copied or added.
    pub fn unshared_chunks(&self, other: &Instance) -> usize {
        self.objects.unshared_chunks(&other.objects)
    }

    /// Full instance check (§5.1 definition of instance):
    /// * every object's value is in `dom(σ(c))` for its class `c`,
    /// * every bound root's value is in `dom(type(g))`,
    /// * every class constraint holds.
    ///
    /// Returns all violations rather than failing fast, so document loaders
    /// can report comprehensively.
    pub fn check(&self) -> Vec<ModelError> {
        let mut errs = Vec::new();
        for (oid, class, value) in self.objects() {
            if let Some(ty) = self.schema.class_type(class) {
                if !crate::conform::conforms(value, &ty, self) {
                    errs.push(ModelError::TypeMismatch {
                        context: format!("object {oid} of class {class}"),
                        expected: ty.clone(),
                        got: value.to_string(),
                    });
                }
            }
            if let Some(def) = self.schema.hierarchy().get(class) {
                let checker = crate::constraint::ConstraintChecker::new(self);
                for c in &def.constraints {
                    if let Err(detail) = checker.check(c, value) {
                        errs.push(ModelError::ConstraintViolation { class, detail });
                    }
                }
            }
        }
        for (name, value) in self.roots.iter() {
            if let Some(ty) = self.schema.root_type(*name) {
                if !crate::conform::conforms(value, ty, self) {
                    errs.push(ModelError::TypeMismatch {
                        context: format!("root {name}"),
                        expected: ty.clone(),
                        got: value.to_string(),
                    });
                }
            }
        }
        errs
    }

    /// Dereference a value: follow it if it is an oid, else return it as-is.
    /// `nil` stays `nil`.
    pub fn deref<'a>(&'a self, v: &'a Value) -> Result<&'a Value> {
        match v {
            Value::Oid(o) => self.value_of(*o),
            other => Ok(other),
        }
    }

    /// Approximate deep storage size of the instance in bytes (object table
    /// + root values), used by the B4 storage-overhead experiment.
    pub fn approx_bytes(&self) -> usize {
        fn value_bytes(v: &Value) -> usize {
            std::mem::size_of::<Value>()
                + match v {
                    Value::Str(s) => s.len(),
                    Value::Tuple(fs) => fs
                        .iter()
                        .map(|(_, v)| std::mem::size_of::<Sym>() + value_bytes(v))
                        .sum(),
                    Value::Union(_, v) => value_bytes(v),
                    Value::List(items) | Value::Set(items) => items.iter().map(value_bytes).sum(),
                    _ => 0,
                }
        }
        self.objects
            .iter()
            .map(|s| std::mem::size_of::<ObjSlot>() + value_bytes(&s.value))
            .sum::<usize>()
            + self.roots.values().map(value_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::ClassDef;
    use crate::sym::sym;
    use crate::types::Type;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::builder()
                .class(ClassDef::new(
                    "Text",
                    Type::tuple([("contents", Type::String)]),
                ))
                .class(ClassDef::new("Title", Type::Any).inherit("Text"))
                .root("Titles", Type::list(Type::class("Title")))
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn object_lifecycle() {
        let mut i = Instance::new(schema());
        let o = i
            .new_object("Title", Value::tuple([("contents", Value::str("Intro"))]))
            .unwrap();
        assert_eq!(i.class_of(o).unwrap(), sym("Title"));
        assert_eq!(
            i.value_of(o).unwrap(),
            &Value::tuple([("contents", Value::str("Intro"))])
        );
        i.set_value(o, Value::tuple([("contents", Value::str("Intro!"))]))
            .unwrap();
        assert_eq!(
            i.value_of(o).unwrap().attr(sym("contents")),
            Some(&Value::str("Intro!"))
        );
    }

    #[test]
    fn unknown_class_rejected() {
        let mut i = Instance::new(schema());
        assert_eq!(
            i.new_object("Nope", Value::Nil).unwrap_err(),
            ModelError::UnknownClass(sym("Nope"))
        );
    }

    #[test]
    fn dangling_oid_detected() {
        let i = Instance::new(schema());
        assert_eq!(
            i.value_of(Oid(9)).unwrap_err(),
            ModelError::DanglingOid(Oid(9))
        );
    }

    #[test]
    fn oid_class_membership_respects_inheritance() {
        let mut i = Instance::new(schema());
        let o = i
            .new_object("Title", Value::tuple([("contents", Value::str("x"))]))
            .unwrap();
        assert!(i.oid_in_class(o, sym("Title")));
        assert!(i.oid_in_class(o, sym("Text")), "π is inherited upward");
        assert!(!i.oid_in_class(o, sym("Titles")));
    }

    #[test]
    fn roots_must_be_declared() {
        let mut i = Instance::new(schema());
        assert!(i.set_root("Titles", Value::List(vec![])).is_ok());
        assert_eq!(
            i.set_root("Ghosts", Value::Nil).unwrap_err(),
            ModelError::UnknownRoot(sym("Ghosts"))
        );
    }

    #[test]
    fn check_flags_ill_typed_object_and_root() {
        let mut i = Instance::new(schema());
        let o = i.new_object("Title", Value::Int(42)).unwrap();
        i.set_root("Titles", Value::list([Value::Oid(o)])).unwrap();
        let errs = i.check();
        assert_eq!(errs.len(), 1, "object ill-typed, root ok: {errs:?}");
        // Now also break the root.
        i.set_root("Titles", Value::Int(3)).unwrap();
        assert_eq!(i.check().len(), 2);
    }

    #[test]
    fn check_accepts_well_typed_instance() {
        let mut i = Instance::new(schema());
        let o = i
            .new_object("Title", Value::tuple([("contents", Value::str("ok"))]))
            .unwrap();
        i.set_root("Titles", Value::list([Value::Oid(o)])).unwrap();
        assert!(i.check().is_empty());
    }

    #[test]
    fn deref_follows_oids() {
        let mut i = Instance::new(schema());
        let o = i
            .new_object("Title", Value::tuple([("contents", Value::str("t"))]))
            .unwrap();
        let v = Value::Oid(o);
        assert_eq!(
            i.deref(&v).unwrap(),
            &Value::tuple([("contents", Value::str("t"))])
        );
        assert_eq!(i.deref(&Value::Int(1)).unwrap(), &Value::Int(1));
    }

    #[test]
    fn oid_allocation_fails_typed_at_capacity() {
        // 2³² live objects cannot be built in a test; exercise the checked
        // allocator at the boundary directly.
        assert_eq!(next_oid(0).unwrap(), Oid(0));
        assert_eq!(next_oid(u32::MAX as usize).unwrap(), Oid(u32::MAX));
        assert_eq!(
            next_oid(u32::MAX as usize + 1).unwrap_err(),
            ModelError::OidOverflow
        );
    }

    #[test]
    fn cloned_instance_shares_slots_until_written() {
        let mut a = Instance::new(schema());
        let o = a
            .new_object("Title", Value::tuple([("contents", Value::str("v1"))]))
            .unwrap();
        let mut b = a.clone();
        assert!(
            Arc::ptr_eq(a.objects.get(0).unwrap(), b.objects.get(0).unwrap()),
            "clone shares"
        );
        b.set_value(o, Value::tuple([("contents", Value::str("v2"))]))
            .unwrap();
        assert_eq!(
            a.value_of(o).unwrap().attr(sym("contents")),
            Some(&Value::str("v1")),
            "writes to the clone never leak into the original"
        );
        assert_eq!(
            b.value_of(o).unwrap().attr(sym("contents")),
            Some(&Value::str("v2"))
        );
    }

    #[test]
    fn text_is_per_slot_and_copy_on_write() {
        let mut a = Instance::new(schema());
        let o = a.new_object("Title", Value::Nil).unwrap();
        assert_eq!(a.text(o), None, "programmatic objects carry no text");
        a.set_text(o, Some("old")).unwrap();
        let mut b = a.clone();
        b.set_text(o, Some("old")).unwrap();
        assert!(
            Arc::ptr_eq(a.objects.get(0).unwrap(), b.objects.get(0).unwrap()),
            "rewriting the same text keeps the slot shared"
        );
        b.set_text(o, Some("new")).unwrap();
        assert_eq!(a.text(o), Some("old"), "the original keeps its text");
        assert_eq!(b.text(o), Some("new"));
        b.set_text(o, None).unwrap();
        assert_eq!(b.text(o), None);
        assert_eq!(a.text(Oid(9)), None);
        assert_eq!(
            a.set_text(Oid(9), Some("x")).unwrap_err(),
            ModelError::DanglingOid(Oid(9))
        );
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let mut i = Instance::new(schema());
        let before = i.approx_bytes();
        i.new_object(
            "Title",
            Value::tuple([("contents", Value::str("hello world"))]),
        )
        .unwrap();
        assert!(i.approx_bytes() > before);
    }
}
