//! Path enumeration from a start value (§5.2, *Range-Restriction*).
//!
//! The paper weighs two interpretations of path variables:
//!
//! * **Restricted** (the one it adopts): a concrete path may not dereference
//!   two objects of the same class. Path length is then bounded by the
//!   schema, which "guarantees safety and … can be implemented with
//!   efficient algebraic techniques".
//! * **Liberal** (suited to hypertext navigation): a path may not visit the
//!   same *object* twice; lengths are data-bounded and a loop-detection
//!   mechanism is required.
//!
//! [`enumerate_paths`] implements both, yielding every `(path, value)` pair
//! reachable from the start value — including the pair `(ε, start)`, since
//! "`PATH_p` … possibly is the empty path" (Q5).

use crate::path::ConcretePath;
use crate::step::PathStep;
use docql_guard::Guard;
use docql_model::{Instance, Sym, Value};
use std::collections::HashSet;

/// Which interpretation of path variables to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PathSemantics {
    /// No two dereferences of objects in the same class (paper's choice).
    #[default]
    Restricted,
    /// No object visited twice (data-bounded, loop detection).
    Liberal,
}

/// Enumeration options.
#[derive(Debug, Clone)]
pub struct EnumOptions {
    /// Path-variable semantics.
    pub semantics: PathSemantics,
    /// Include `{v}` steps into set elements (off by default: the document
    /// schemas use lists, and set fan-out can be large).
    pub include_set_elements: bool,
    /// Hard depth guard (defense in depth; the semantics already bound the
    /// search).
    pub max_depth: usize,
}

impl Default for EnumOptions {
    fn default() -> EnumOptions {
        EnumOptions {
            semantics: PathSemantics::Restricted,
            include_set_elements: true,
            max_depth: 10_000,
        }
    }
}

/// All `(path, value)` pairs reachable from `start`, in depth-first
/// pre-order. The start itself is reported as `(ε, start)`.
pub fn enumerate_paths(
    instance: &Instance,
    start: &Value,
    opts: &EnumOptions,
) -> Vec<(ConcretePath, Value)> {
    let mut out = Vec::new();
    visit_paths(instance, start, opts, &mut |p, v| {
        out.push((p.clone(), v.clone()));
        true
    });
    out
}

/// Visitor-based enumeration: `f(path, value)` is called for every reachable
/// pair; returning `false` prunes the subtree below that pair.
pub fn visit_paths(
    instance: &Instance,
    start: &Value,
    opts: &EnumOptions,
    f: &mut impl FnMut(&ConcretePath, &Value) -> bool,
) {
    visit_paths_guarded(instance, start, opts, None, &mut |p, v| f(p, v));
}

/// [`visit_paths`] under execution governance: every visited pair charges
/// one unit of path fuel to `guard`, and the walk stops as soon as the guard
/// trips (deadline, fuel, cancellation). A fuel stop is distinguishable from
/// a visitor prune by [`Guard::trip`] being set afterwards.
///
/// `f` gets the walk's own path buffer: it may move the path out while it
/// runs — to lend it to a variable binding without copying it — but must
/// put it back unchanged before it returns.
pub fn visit_paths_guarded(
    instance: &Instance,
    start: &Value,
    opts: &EnumOptions,
    guard: Option<&Guard>,
    f: &mut impl FnMut(&mut ConcretePath, &Value) -> bool,
) {
    let mut walker = Walker {
        instance,
        opts,
        guard,
        classes_seen: HashSet::new(),
        oids_seen: HashSet::new(),
        path: ConcretePath::empty(),
    };
    walker.go(start, 0, f);
}

struct Walker<'i, 'o, 'g> {
    instance: &'i Instance,
    opts: &'o EnumOptions,
    guard: Option<&'g Guard>,
    /// Classes dereferenced along the current path (restricted semantics).
    classes_seen: HashSet<Sym>,
    /// Oids dereferenced along the current path (liberal semantics).
    oids_seen: HashSet<u32>,
    path: ConcretePath,
}

impl Walker<'_, '_, '_> {
    fn go(
        &mut self,
        value: &Value,
        depth: usize,
        f: &mut impl FnMut(&mut ConcretePath, &Value) -> bool,
    ) {
        if depth > self.opts.max_depth {
            return;
        }
        if let Some(g) = self.guard {
            if g.fuel(1).interrupted() {
                return;
            }
        }
        if !f(&mut self.path, value) {
            return;
        }
        match value {
            Value::Tuple(fields) => {
                for (name, v) in fields {
                    self.path.push(PathStep::Attr(*name));
                    self.go(v, depth + 1, f);
                    self.path.0.pop();
                }
            }
            Value::Union(marker, payload) => {
                self.path.push(PathStep::Attr(*marker));
                self.go(payload, depth + 1, f);
                self.path.0.pop();
            }
            Value::List(items) => {
                for (i, v) in items.iter().enumerate() {
                    self.path.push(PathStep::Index(i));
                    self.go(v, depth + 1, f);
                    self.path.0.pop();
                }
            }
            Value::Set(items) if self.opts.include_set_elements => {
                for v in items {
                    self.path.push(PathStep::Elem(v.clone()));
                    self.go(v, depth + 1, f);
                    self.path.0.pop();
                }
            }
            Value::Oid(o) => {
                let allowed = match self.opts.semantics {
                    PathSemantics::Restricted => match self.instance.class_of(*o) {
                        Ok(class) => self.classes_seen.insert(class),
                        Err(_) => false,
                    },
                    PathSemantics::Liberal => self.oids_seen.insert(o.0),
                };
                if !allowed {
                    return;
                }
                if let Ok(v) = self.instance.value_of(*o) {
                    self.path.push(PathStep::Deref);
                    self.go(v, depth + 1, f);
                    self.path.0.pop();
                }
                match self.opts.semantics {
                    PathSemantics::Restricted => {
                        if let Ok(class) = self.instance.class_of(*o) {
                            self.classes_seen.remove(&class);
                        }
                    }
                    PathSemantics::Liberal => {
                        self.oids_seen.remove(&o.0);
                    }
                }
            }
            _ => {}
        }
    }
}

/// The set of all paths from a value (used by Q4's path-set difference).
pub fn path_set(
    instance: &Instance,
    start: &Value,
    opts: &EnumOptions,
) -> std::collections::BTreeSet<ConcretePath> {
    let mut out = std::collections::BTreeSet::new();
    visit_paths(instance, start, opts, &mut |p, _| {
        out.insert(p.clone());
        true
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use docql_model::{ClassDef, Schema, Type};
    use std::sync::Arc;

    fn person_schema() -> Arc<Schema> {
        Arc::new(
            Schema::builder()
                .class(ClassDef::new(
                    "Person",
                    Type::tuple([("name", Type::String), ("spouse", Type::class("Person"))]),
                ))
                .class(ClassDef::new(
                    "Pet",
                    Type::tuple([("petname", Type::String), ("owner", Type::class("Person"))]),
                ))
                .root("Alice", Type::class("Person"))
                .build()
                .unwrap(),
        )
    }

    /// Alice ↔ Bob spouse cycle, as in the paper's §5.2 example.
    fn spouses() -> (Instance, Value) {
        let mut inst = Instance::new(person_schema());
        let alice = inst.new_object("Person", Value::Nil).unwrap();
        let bob = inst.new_object("Person", Value::Nil).unwrap();
        inst.set_value(
            alice,
            Value::tuple([("name", Value::str("Alice")), ("spouse", Value::Oid(bob))]),
        )
        .unwrap();
        inst.set_value(
            bob,
            Value::tuple([("name", Value::str("Bob")), ("spouse", Value::Oid(alice))]),
        )
        .unwrap();
        (inst, Value::Oid(alice))
    }

    #[test]
    fn restricted_stops_at_second_person_deref() {
        // From Alice: → (deref Alice) then .spouse is Bob (an oid of the
        // *same class*), so →husband→ is not considered — the paper's
        // example verbatim.
        let (inst, alice) = spouses();
        let paths = enumerate_paths(&inst, &alice, &EnumOptions::default());
        let strings: Vec<String> = paths.iter().map(|(p, _)| p.to_string()).collect();
        assert!(strings.contains(&"ε".to_string()));
        assert!(strings.contains(&"->".to_string()));
        assert!(strings.contains(&"->.name".to_string()));
        assert!(strings.contains(&"->.spouse".to_string()));
        assert!(
            !strings.iter().any(|s| s.contains(".spouse->")),
            "no second dereference of class Person: {strings:?}"
        );
    }

    #[test]
    fn liberal_follows_until_object_repeats() {
        let (inst, alice) = spouses();
        let opts = EnumOptions {
            semantics: PathSemantics::Liberal,
            ..EnumOptions::default()
        };
        let paths = enumerate_paths(&inst, &alice, &opts);
        let strings: Vec<String> = paths.iter().map(|(p, _)| p.to_string()).collect();
        // Alice's spouse's name is reachable liberally…
        assert!(strings.contains(&"->.spouse->.name".to_string()));
        // …but the cycle back to Alice herself is cut.
        assert!(!strings.iter().any(|s| s.contains(".spouse->.spouse->")));
        // Values: Bob's name reached.
        let bobs_name = paths
            .iter()
            .find(|(p, _)| p.to_string() == "->.spouse->.name")
            .map(|(_, v)| v.clone());
        assert_eq!(bobs_name, Some(Value::str("Bob")));
    }

    #[test]
    fn restricted_allows_deref_of_distinct_classes() {
        let mut inst = Instance::new(person_schema());
        let owner = inst
            .new_object(
                "Person",
                Value::tuple([("name", Value::str("Ann")), ("spouse", Value::Nil)]),
            )
            .unwrap();
        let pet = inst
            .new_object(
                "Pet",
                Value::tuple([("petname", Value::str("Rex")), ("owner", Value::Oid(owner))]),
            )
            .unwrap();
        let paths = enumerate_paths(&inst, &Value::Oid(pet), &EnumOptions::default());
        let strings: Vec<String> = paths.iter().map(|(p, _)| p.to_string()).collect();
        assert!(
            strings.contains(&"->.owner->.name".to_string()),
            "Pet → Person crosses two distinct classes: {strings:?}"
        );
    }

    #[test]
    fn enumerates_all_structural_paths() {
        let inst = Instance::new(person_schema());
        let v = Value::tuple([
            ("a", Value::list([Value::Int(1), Value::Int(2)])),
            ("b", Value::union("m", Value::str("x"))),
        ]);
        let paths = enumerate_paths(&inst, &v, &EnumOptions::default());
        let strings: Vec<String> = paths.iter().map(|(p, _)| p.to_string()).collect();
        assert_eq!(strings, vec!["ε", ".a", ".a[0]", ".a[1]", ".b", ".b.m",]);
    }

    #[test]
    fn set_elements_optional() {
        let inst = Instance::new(person_schema());
        let v = Value::tuple([("s", Value::set([Value::Int(1)]))]);
        let with = enumerate_paths(&inst, &v, &EnumOptions::default());
        assert_eq!(with.len(), 3);
        let without = enumerate_paths(
            &inst,
            &v,
            &EnumOptions {
                include_set_elements: false,
                ..EnumOptions::default()
            },
        );
        assert_eq!(without.len(), 2);
    }

    #[test]
    fn visitor_can_prune() {
        let inst = Instance::new(person_schema());
        let v = Value::tuple([(
            "deep",
            Value::tuple([("deeper", Value::tuple([("leaf", Value::Int(1))]))]),
        )]);
        let mut count = 0;
        visit_paths(&inst, &v, &EnumOptions::default(), &mut |p, _| {
            count += 1;
            p.length() < 1 // prune below depth 1
        });
        assert_eq!(count, 2, "ε and .deep only");
    }

    #[test]
    fn path_set_difference_q4_shape() {
        // Two versions of a document; the difference is the new paths.
        let inst = Instance::new(person_schema());
        let old = Value::tuple([("title", Value::str("t"))]);
        let new = Value::tuple([("title", Value::str("t")), ("abstract", Value::str("a"))]);
        let opts = EnumOptions::default();
        let old_paths = path_set(&inst, &old, &opts);
        let new_paths = path_set(&inst, &new, &opts);
        let diff: Vec<String> = new_paths
            .difference(&old_paths)
            .map(|p| p.to_string())
            .collect();
        assert_eq!(diff, vec![".abstract"]);
    }

    #[test]
    fn fuel_stops_enumeration_with_trip_set() {
        use docql_guard::{ExecError, QueryLimits, Resource};
        let (inst, alice) = spouses();
        let opts = EnumOptions {
            semantics: PathSemantics::Liberal,
            ..EnumOptions::default()
        };
        let guarded = |guard: &docql_guard::Guard| {
            let mut out = Vec::new();
            visit_paths_guarded(&inst, &alice, &opts, Some(guard), &mut |p, v| {
                out.push((p.clone(), v.clone()));
                true
            });
            out
        };
        let unguarded = enumerate_paths(&inst, &alice, &opts);
        // Ample fuel: same answer as the unguarded walk, no trip.
        let ample = docql_guard::Guard::new(&QueryLimits::none().with_path_fuel(10_000));
        assert_eq!(guarded(&ample), unguarded);
        assert_eq!(ample.trip(), None);
        // Tiny fuel: strictly fewer pairs, and the trip is observable —
        // distinguishing exhaustion from a visitor prune.
        let tiny = docql_guard::Guard::new(&QueryLimits::none().with_path_fuel(3));
        let partial = guarded(&tiny);
        assert!(partial.len() < unguarded.len());
        assert_eq!(
            tiny.trip(),
            Some(ExecError::BudgetExhausted(Resource::PathFuel))
        );
    }

    #[test]
    fn max_depth_guards_runaway() {
        let inst = Instance::new(person_schema());
        // A very deep nested list.
        let mut v = Value::Int(0);
        for _ in 0..100 {
            v = Value::list([v]);
        }
        let opts = EnumOptions {
            max_depth: 10,
            ..EnumOptions::default()
        };
        let paths = enumerate_paths(&inst, &v, &opts);
        assert!(paths.len() <= 12);
    }
}
