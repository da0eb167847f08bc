//! The persistent path-extent index (§5's efficiency claim, made
//! structural).
//!
//! Under the **restricted** path-variable semantics the abstract paths from
//! a document class form a finite set ([`mod@crate::schema_paths`]), so their
//! extents — `path → {(root, target)}` — can be materialised once at ingest
//! time and consulted instead of re-walking the object graph on every
//! evaluation. The index stores, for every schema path (interned to a
//! [`PathId`] under a *class-blind* step normalisation, [`ExtStep`]), the
//! values reached from each indexed document root, **in walk order**: a
//! single depth-first traversal per document, guided by a trie over the
//! indexed paths, appends targets exactly in the order the algebra's `Walk`
//! operator would emit them. Query answers from the extent are therefore
//! byte-identical to walked ones.
//!
//! The traversal uses the same step semantics as the walk itself
//! ([`crate::select`]); the liberal semantics is *not* indexed (its path
//! space is data-bounded — the paper's closing §5.4 remark), and plans over
//! patterns the extent cannot answer fall back to walking at run time.

use crate::schema_paths::{AbsStep, SchemaPathOptions};
use crate::select::{attr_select, deref1, list_items};
use docql_model::{ChunkedVec, Instance, Oid, Schema, Sym, Type, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One class-blind step of an indexed path.
///
/// Candidate instantiation is blind to the class a `→` step dereferences
/// (two abstract paths differing only there produce identical concrete
/// walks), so the index keys collapse [`AbsStep::Deref`] onto a single
/// [`ExtStep::Deref`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExtStep {
    /// Select a tuple attribute or union marker.
    Attr(Sym),
    /// Fan out over the elements of a list (a tuple as heterogeneous list).
    ListElem,
    /// Fan out over the elements of a set.
    SetElem,
    /// Dereference an oid.
    Deref,
}

impl From<&AbsStep> for ExtStep {
    fn from(s: &AbsStep) -> ExtStep {
        match s {
            AbsStep::Attr(a) => ExtStep::Attr(*a),
            AbsStep::ListElem => ExtStep::ListElem,
            AbsStep::SetElem => ExtStep::SetElem,
            AbsStep::Deref(_) => ExtStep::Deref,
        }
    }
}

impl std::fmt::Display for ExtStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtStep::Attr(a) => write!(f, ".{a}"),
            ExtStep::ListElem => f.write_str("[*]"),
            ExtStep::SetElem => f.write_str("{*}"),
            ExtStep::Deref => f.write_str("->"),
        }
    }
}

/// Interned id of an indexed path (dense, assigned at construction).
pub type PathId = u32;

/// A node of the path trie: its interned id and its outgoing steps.
#[derive(Debug, Clone)]
struct TrieNode {
    path_id: PathId,
    children: Vec<(ExtStep, usize)>,
}

/// One document's extents: `(path, targets in walk order)` for every path
/// the document reaches, sorted by path id.
type DocExtents = Vec<(PathId, Vec<Value>)>;

/// A path-extent index over one document class.
///
/// Built once per store from the schema (the path set and trie depend only
/// on the schema), then filled per ingested document by
/// [`PathExtentIndex::index_document`]. The path table and trie are
/// schema-derived and frozen after construction, and sit behind `Arc`.
/// The targets live in one table keyed by document root: a [`ChunkedVec`]
/// sorted by root, holding one `Arc`'d `(path, targets)` table per
/// document. So cloning the index (the store's snapshot-fork path) copies
/// one `Arc` per group of 4,096 roots, and indexing a new, highest root
/// copies the per-path counts and at most the table's last group and chunk.
#[derive(Debug, Clone)]
pub struct PathExtentIndex {
    /// Interned class-blind paths → dense ids.
    paths: Arc<BTreeMap<Vec<ExtStep>, PathId>>,
    /// Trie over the interned paths (node 0 is the ε root).
    trie: Arc<Vec<TrieNode>>,
    /// Document root → its extents, sorted by root. An oid outside this
    /// table must fall back to walking — absence of targets is only
    /// meaningful for indexed roots.
    docs: ChunkedVec<(Oid, Arc<DocExtents>)>,
    /// Per path id: total target count across all roots, maintained
    /// incrementally so the planner can read extent cardinalities without
    /// summing the per-document tables. Behind `Arc`: a clone shares it,
    /// and the next `index_document` copies it.
    target_counts: Arc<Vec<u64>>,
}

impl PathExtentIndex {
    /// An index with no paths at all: every lookup misses, so every plan
    /// falls back to walking. Used when the document class cannot be
    /// determined from the schema.
    pub fn empty() -> PathExtentIndex {
        PathExtentIndex {
            paths: Arc::new(BTreeMap::new()),
            trie: Arc::new(vec![TrieNode {
                path_id: 0,
                children: Vec::new(),
            }]),
            docs: ChunkedVec::new(),
            target_counts: Arc::default(),
        }
    }

    /// An index over all restricted-semantics schema paths from `start`
    /// (normally `Type::Class(document_class)`, so keys begin with a
    /// dereference of the document root oid).
    ///
    /// Union types are enumerated both *arm-qualified* (an explicit
    /// `.a1`-style marker attribute, as [`mod@crate::schema_paths`] reports them) and
    /// *arm-transparent* (no marker step): explicit attribute steps in a
    /// query select through union values transparently, so the class-blind
    /// keys the compiler derives for such steps carry no marker — both
    /// spellings must be interned for the lookup to hit.
    pub fn for_start_type(schema: &Schema, start: &Type) -> PathExtentIndex {
        let opts = SchemaPathOptions::default();
        let mut keys: BTreeSet<Vec<ExtStep>> = BTreeSet::new();
        collect_keys(
            schema,
            start,
            &opts,
            &mut BTreeSet::new(),
            &mut Vec::new(),
            &mut keys,
        );
        let mut index = PathExtentIndex::empty();
        for key in keys {
            index.intern(key);
        }
        index
    }

    /// An index for the documents of a store whose collection root `root`
    /// holds a list of document objects. Falls back to an empty index (all
    /// queries walk) when the root's type has another shape.
    pub fn for_collection_root(schema: &Schema, root: Sym) -> PathExtentIndex {
        match schema.root_type(root) {
            Some(Type::List(elem)) => PathExtentIndex::for_start_type(schema, elem),
            _ => PathExtentIndex::empty(),
        }
    }

    /// Intern one path, creating trie nodes and a target count as needed.
    /// Only called at construction time, before the index is ever cloned,
    /// so the `make_mut`s below never copy.
    fn intern(&mut self, key: Vec<ExtStep>) -> PathId {
        if let Some(id) = self.paths.get(&key) {
            return *id;
        }
        let trie = Arc::make_mut(&mut self.trie);
        let mut node = 0usize;
        for step in &key {
            match trie[node]
                .children
                .iter()
                .find(|(s, _)| s == step)
                .map(|(_, n)| *n)
            {
                Some(next) => node = next,
                None => {
                    let next = trie.len();
                    // Placeholder id; fixed below if this node ends a path.
                    trie.push(TrieNode {
                        path_id: PathId::MAX,
                        children: Vec::new(),
                    });
                    trie[node].children.push((step.clone(), next));
                    node = next;
                }
            }
        }
        let id = self.target_counts.len() as PathId;
        Arc::make_mut(&mut self.target_counts).push(0);
        trie[node].path_id = id;
        Arc::make_mut(&mut self.paths).insert(key, id);
        id
    }

    /// Index one document: a single depth-first traversal from `root`
    /// guided by the path trie collects each reached value under its path,
    /// in walk order, into the document's own table, which then goes into
    /// the index in one insertion. Indexing a root again appends to its
    /// targets.
    pub fn index_document(&mut self, instance: &Instance, root: Oid) {
        let mut table = BTreeMap::new();
        self.visit(instance, &Value::Oid(root), 0, &mut table);
        let counts = Arc::make_mut(&mut self.target_counts);
        for (pid, targets) in &table {
            if let Some(c) = counts.get_mut(*pid as usize) {
                *c += targets.len() as u64;
            }
        }
        let extents = Arc::make_mut(self.docs.find_or_insert(&root, || (root, Arc::default())));
        for (pid, mut targets) in table {
            match extents.binary_search_by_key(&pid, |(p, _)| *p) {
                Ok(i) => extents[i].1.append(&mut targets),
                Err(i) => extents.insert(i, (pid, targets)),
            }
        }
    }

    fn visit(
        &self,
        instance: &Instance,
        value: &Value,
        node: usize,
        table: &mut BTreeMap<PathId, Vec<Value>>,
    ) {
        let Some(node) = self.trie.get(node) else {
            return;
        };
        if node.path_id != PathId::MAX {
            table.entry(node.path_id).or_default().push(value.clone());
        }
        for (step, child) in &node.children {
            match step {
                ExtStep::Attr(a) => {
                    if let Some(v) = attr_select(value, *a) {
                        self.visit(instance, v, *child, table);
                    }
                }
                ExtStep::Deref => {
                    if let Value::Oid(o) = value {
                        if let Ok(v) = instance.value_of(*o) {
                            self.visit(instance, v, *child, table);
                        }
                    }
                }
                ExtStep::ListElem => {
                    for item in list_items(value) {
                        self.visit(instance, &item, *child, table);
                    }
                }
                ExtStep::SetElem => {
                    if let Value::Set(items) = deref1(instance, value) {
                        for item in items {
                            self.visit(instance, &item, *child, table);
                        }
                    }
                }
            }
        }
    }

    /// Drop all per-document data, keeping the path table and trie (for
    /// full rebuilds after updates).
    pub fn clear(&mut self) {
        self.docs = ChunkedVec::new();
        for c in Arc::make_mut(&mut self.target_counts) {
            *c = 0;
        }
    }

    /// The extents of an indexed document root.
    fn doc(&self, root: Oid) -> Option<&DocExtents> {
        self.docs.find(&root).map(|e| &**e)
    }

    /// How many chunks of this index's root table are not shared with
    /// `other`'s: after `other.clone()`, the chunks this index's
    /// `index_document` calls have copied or added.
    pub fn unshared_chunks(&self, other: &PathExtentIndex) -> usize {
        self.docs.unshared_chunks(&other.docs)
    }

    /// The interned id of a class-blind path, if it is indexed.
    pub fn lookup(&self, key: &[ExtStep]) -> Option<PathId> {
        self.paths.get(key).copied()
    }

    /// Is `oid` an indexed document root? Only for members is an empty
    /// target list an answer (rather than "not covered").
    pub fn is_root_indexed(&self, oid: Oid) -> bool {
        self.doc(oid).is_some()
    }

    /// The targets of `path` from `root`, in walk order. Empty when the
    /// document reaches no value over this path.
    pub fn targets(&self, path: PathId, root: Oid) -> &[Value] {
        self.doc(root)
            .and_then(|e| {
                let i = e.binary_search_by_key(&path, |(p, _)| *p).ok()?;
                e.get(i)
            })
            .map(|(_, t)| t.as_slice())
            .unwrap_or(&[])
    }

    /// Number of indexed paths.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Number of indexed document roots.
    pub fn root_count(&self) -> usize {
        self.docs.len()
    }

    /// Total number of materialised `(path, root, target)` entries.
    pub fn target_count(&self) -> usize {
        self.target_counts.iter().map(|c| *c as usize).sum()
    }

    /// Total targets materialised for one path across all indexed roots —
    /// the extent cardinality the cost model feeds on. O(1): maintained
    /// incrementally at index time.
    pub fn path_target_count(&self, path: PathId) -> u64 {
        self.target_counts.get(path as usize).copied().unwrap_or(0)
    }
}

/// Enumerate the class-blind keys of every restricted-semantics schema path
/// from `ty` — the [`mod@crate::schema_paths`] space, plus the arm-transparent variant
/// at each union crossing (both recursions share the deref-once restriction
/// and the length bound, so the space stays finite).
fn collect_keys(
    schema: &Schema,
    ty: &Type,
    opts: &SchemaPathOptions,
    derefed: &mut BTreeSet<Sym>,
    steps: &mut Vec<ExtStep>,
    out: &mut BTreeSet<Vec<ExtStep>>,
) {
    out.insert(steps.clone());
    if steps.len() >= opts.max_len {
        return;
    }
    match ty {
        Type::Tuple(fields) => {
            for f in fields.clone() {
                steps.push(ExtStep::Attr(f.name));
                collect_keys(schema, &f.ty, opts, derefed, steps, out);
                steps.pop();
            }
        }
        Type::Union(fields) => {
            for f in fields.clone() {
                // Arm-qualified: the `.a1`-style marker attribute …
                steps.push(ExtStep::Attr(f.name));
                collect_keys(schema, &f.ty, opts, derefed, steps, out);
                steps.pop();
                // … and arm-transparent: attribute selection looks through
                // union values, so compiled keys may skip the marker.
                collect_keys(schema, &f.ty, opts, derefed, steps, out);
            }
        }
        Type::List(elem) => {
            steps.push(ExtStep::ListElem);
            collect_keys(schema, &elem.clone(), opts, derefed, steps, out);
            steps.pop();
        }
        Type::Set(elem) if opts.include_set_elements => {
            steps.push(ExtStep::SetElem);
            collect_keys(schema, &elem.clone(), opts, derefed, steps, out);
            steps.pop();
        }
        Type::Class(c) => {
            if derefed.contains(c) {
                return;
            }
            let Some(sigma) = schema.class_type(*c) else {
                return;
            };
            let c = *c;
            derefed.insert(c);
            steps.push(ExtStep::Deref);
            collect_keys(schema, &sigma, opts, derefed, steps, out);
            steps.pop();
            // Deref-transparent variant: type-level attribute resolution
            // looks through classes, so the compiler also derives keys with
            // the `->` omitted. At run time such a step reaches nothing
            // (attribute selection does not auto-deref), and the interned
            // key's empty extent lets the scan skip the walk outright.
            collect_keys(schema, &sigma, opts, derefed, steps, out);
            derefed.remove(&c);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docql_model::{sym, ClassDef};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::builder()
                .class(ClassDef::new(
                    "Section",
                    Type::tuple([("title", Type::String)]),
                ))
                .class(ClassDef::new(
                    "Doc",
                    Type::tuple([
                        ("title", Type::String),
                        ("sections", Type::list(Type::class("Section"))),
                    ]),
                ))
                .root("Docs", Type::list(Type::class("Doc")))
                .build()
                .unwrap(),
        )
    }

    fn doc(inst: &mut Instance, tag: &str, sections: &[&str]) -> Oid {
        let mut secs = Vec::new();
        for s in sections {
            let o = inst
                .new_object("Section", Value::tuple([("title", Value::str(*s))]))
                .unwrap();
            secs.push(Value::Oid(o));
        }
        inst.new_object(
            "Doc",
            Value::tuple([("title", Value::str(tag)), ("sections", Value::List(secs))]),
        )
        .unwrap()
    }

    #[test]
    fn extents_cover_schema_paths_in_walk_order() {
        let schema = schema();
        let mut inst = Instance::new(schema.clone());
        let d = doc(&mut inst, "D", &["s1", "s2"]);
        let mut ix = PathExtentIndex::for_collection_root(&schema, sym("Docs"));
        ix.index_document(&inst, d);

        assert!(ix.is_root_indexed(d));
        assert_eq!(ix.root_count(), 1);
        // ε reaches the root oid itself.
        let eps = ix.lookup(&[]).unwrap();
        assert_eq!(ix.targets(eps, d), &[Value::Oid(d)]);
        // Section titles, in document order.
        let key = vec![
            ExtStep::Deref,
            ExtStep::Attr(sym("sections")),
            ExtStep::ListElem,
            ExtStep::Deref,
            ExtStep::Attr(sym("title")),
        ];
        let pid = ix.lookup(&key).unwrap();
        assert_eq!(ix.targets(pid, d), &[Value::str("s1"), Value::str("s2")]);
    }

    #[test]
    fn unknown_root_shape_yields_inert_index() {
        let schema = schema();
        let ix = PathExtentIndex::for_collection_root(&schema, sym("nonexistent"));
        assert_eq!(ix.path_count(), 0);
        assert_eq!(ix.lookup(&[ExtStep::Deref]), None);
        assert!(!ix.is_root_indexed(Oid(0)));
    }

    #[test]
    fn cloned_index_shares_structure_and_targets() {
        let schema = schema();
        let mut inst = Instance::new(schema.clone());
        let a = doc(&mut inst, "A", &["s1"]);
        let mut ix = PathExtentIndex::for_collection_root(&schema, sym("Docs"));
        ix.index_document(&inst, a);

        let mut fork = ix.clone();
        assert!(Arc::ptr_eq(&ix.paths, &fork.paths));
        assert!(Arc::ptr_eq(&ix.trie, &fork.trie));
        let eps = ix.lookup(&[]).unwrap();
        let shared = |x: &PathExtentIndex, y: &PathExtentIndex, root: Oid| {
            std::ptr::eq(x.doc(root).unwrap(), y.doc(root).unwrap())
        };
        assert!(shared(&ix, &fork, a), "target tables shared until written");
        assert_eq!(fork.unshared_chunks(&ix), 0);
        // Indexing a new document into the fork adds only that root's
        // table; `a`'s stays shared and the original never sees `b`.
        let b = doc(&mut inst, "B", &["s2"]);
        fork.index_document(&inst, b);
        assert!(shared(&ix, &fork, a));
        assert_eq!(
            fork.unshared_chunks(&ix),
            2,
            "the root table's last group and chunk"
        );
        assert!(fork.is_root_indexed(b));
        assert!(!ix.is_root_indexed(b));
        assert!(ix.targets(eps, b).is_empty());
        assert_eq!(fork.targets(eps, b), &[Value::Oid(b)]);
    }

    #[test]
    fn per_path_counts_track_index_and_clear() {
        let schema = schema();
        let mut inst = Instance::new(schema.clone());
        let a = doc(&mut inst, "A", &["x", "y"]);
        let b = doc(&mut inst, "B", &["z"]);
        let key = vec![
            ExtStep::Deref,
            ExtStep::Attr(sym("sections")),
            ExtStep::ListElem,
            ExtStep::Deref,
            ExtStep::Attr(sym("title")),
        ];

        let mut ix = PathExtentIndex::for_collection_root(&schema, sym("Docs"));
        let pid = ix.lookup(&key).unwrap();
        assert_eq!(ix.path_target_count(pid), 0);
        ix.index_document(&inst, a);
        assert_eq!(ix.path_target_count(pid), 2);
        ix.index_document(&inst, b);
        assert_eq!(ix.path_target_count(pid), 3);

        ix.clear();
        assert_eq!(ix.path_target_count(pid), 0);
        // Counts for out-of-range ids read as zero rather than panicking.
        assert_eq!(ix.path_target_count(PathId::MAX), 0);
    }

    #[test]
    fn clear_keeps_paths_drops_documents() {
        let schema = schema();
        let mut inst = Instance::new(schema.clone());
        let d = doc(&mut inst, "D", &["s"]);
        let mut ix = PathExtentIndex::for_collection_root(&schema, sym("Docs"));
        ix.index_document(&inst, d);
        assert!(ix.target_count() > 0);
        ix.clear();
        assert_eq!(ix.target_count(), 0);
        assert_eq!(ix.root_count(), 0);
        assert!(ix.path_count() > 0);
        assert!(!ix.is_root_indexed(d));
    }
}
