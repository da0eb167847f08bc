//! Allocation regression check for path enumeration: `visit_paths` reads
//! values in place, so the allocations one walk makes must not grow with
//! the number of objects it visits. A copy of each dereferenced object's
//! value, or of each visited `(path, value)` pair, would show here as a
//! count that grows with the article.
//!
//! The allocator counts per thread, so tests running on other threads
//! cannot change the count; this binary holds this one test all the same.

use docql_model::{ClassDef, Instance, Schema, Type, Value};
use docql_paths::{visit_paths, EnumOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only a const-initialised
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// An article with `sections` section objects, each holding a title and
/// three paragraph objects: every section and paragraph is one more object
/// for the walk to dereference.
fn article(sections: usize) -> (Instance, Value) {
    let schema = Schema::builder()
        .class(ClassDef::new(
            "Article",
            Type::tuple([
                ("title", Type::String),
                ("sections", Type::list(Type::class("Section"))),
            ]),
        ))
        .class(ClassDef::new(
            "Section",
            Type::tuple([
                ("title", Type::String),
                ("bodies", Type::list(Type::class("Paragr"))),
            ]),
        ))
        .class(ClassDef::new(
            "Paragr",
            Type::tuple([("text", Type::String)]),
        ))
        .build()
        .expect("the article schema is well formed");
    let mut inst = Instance::new(Arc::new(schema));
    let mut section_oids = Vec::new();
    for s in 0..sections {
        let mut paragraphs = Vec::new();
        for p in 0..3 {
            let text = Value::tuple([("text", Value::str(format!("section {s} paragraph {p}")))]);
            let oid = inst.new_object("Paragr", text).expect("Paragr is a class");
            paragraphs.push(Value::Oid(oid));
        }
        let section = Value::tuple([
            ("title", Value::str(format!("section {s}"))),
            ("bodies", Value::list(paragraphs)),
        ]);
        let oid = inst
            .new_object("Section", section)
            .expect("Section is a class");
        section_oids.push(Value::Oid(oid));
    }
    let article = Value::tuple([
        ("title", Value::str("an article")),
        ("sections", Value::list(section_oids)),
    ]);
    let oid = inst
        .new_object("Article", article)
        .expect("Article is a class");
    (inst, Value::Oid(oid))
}

/// Allocations made by one `visit_paths` walk from the article, and the
/// number of pairs it visited.
fn walk_allocations(sections: usize) -> (usize, usize) {
    let (inst, start) = article(sections);
    let opts = EnumOptions::default();
    let mut pairs = 0;
    let before = ALLOCS.with(Cell::get);
    visit_paths(&inst, &start, &opts, &mut |_, _| {
        pairs += 1;
        true
    });
    (ALLOCS.with(Cell::get) - before, pairs)
}

#[test]
fn visit_paths_allocations_do_not_grow_with_the_article() {
    let (small, small_pairs) = walk_allocations(5);
    let (large, large_pairs) = walk_allocations(10);
    assert!(
        large_pairs > small_pairs + 50,
        "the larger article must visit many more pairs ({small_pairs} vs {large_pairs})"
    );
    // Only the path buffer and the per-walk class set may grow, and they
    // grow with the path's depth, which both articles share.
    assert!(
        large.abs_diff(small) <= 2,
        "allocations grew with the article: {small} at 5 sections, {large} at 10"
    );
}
