//! Per-operator execution profiles (query traces and `EXPLAIN ANALYZE`).
//!
//! A [`PlanProfile`] numbers the operators of one plan tree in **pre-order**
//! (the order [`Op::explain`](crate::Op::explain) prints them) and holds one
//! row of atomic statistics per node. The executor is handed the profile
//! through [`ExecCtx::profile`](crate::ExecCtx) and records calls, emitted
//! rows, and inclusive wall time per operator; [`Op::IndexPathScan`]
//! additionally records how many start values were answered from the
//! path-extent index versus the walk fallback.
//!
//! Registry-level algebra counters are not recorded here: the engine sums
//! them from the trace's operator spans (see [`PlanProfile::op_spans`]).
//!
//! Timing convention: a node's time **includes its children** (the
//! PostgreSQL `EXPLAIN ANALYZE` convention), and `calls` counts executor
//! invocations — the sub-plan of a `Semi`/`AntiSemi` runs once per input
//! row, so its `calls` can exceed 1 within a single query.

use crate::plan::Op;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One operator's accumulated statistics.
#[derive(Debug, Default)]
struct NodeStats {
    calls: AtomicU64,
    rows: AtomicU64,
    nanos: AtomicU64,
    index_hits: AtomicU64,
    walk_fallbacks: AtomicU64,
}

/// The pre-order numbering and child table of one plan tree, flattened to
/// two arrays (CSR layout: `child_start[n]..child_start[n+1]` indexes
/// `child_ids`). Building it walks the tree; sharing it through an `Arc`
/// lets a cached plan pay that walk once, after which every traced
/// execution's [`PlanProfile`] is a single zeroed allocation.
#[derive(Debug)]
pub struct ProfileShape {
    child_start: Vec<u32>,
    child_ids: Vec<u32>,
}

fn build(op: &Op, children: &mut Vec<Vec<usize>>) -> usize {
    let id = children.len();
    children.push(Vec::new());
    let kids: Vec<usize> = op
        .children()
        .into_iter()
        .map(|c| build(c, children))
        .collect();
    children[id] = kids;
    id
}

impl ProfileShape {
    /// The shape of `plan` (node `0` is the root).
    pub fn of(plan: &Op) -> ProfileShape {
        let mut nested = Vec::new();
        build(plan, &mut nested);
        let mut child_start = Vec::with_capacity(nested.len() + 1);
        let mut child_ids = Vec::with_capacity(nested.len().saturating_sub(1));
        child_start.push(0);
        for kids in &nested {
            for k in kids {
                child_ids.push(u32::try_from(*k).unwrap_or(0));
            }
            child_start.push(u32::try_from(child_ids.len()).unwrap_or(u32::MAX));
        }
        ProfileShape {
            child_start,
            child_ids,
        }
    }

    /// Number of operators in the plan.
    pub fn len(&self) -> usize {
        self.child_start.len() - 1
    }

    /// True when the plan has no operators (a shape built from nothing).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn child(&self, node: usize, k: usize) -> usize {
        let (Some(start), Some(end)) = (self.child_start.get(node), self.child_start.get(node + 1))
        else {
            return 0;
        };
        let idx = (*start as usize).saturating_add(k);
        if idx >= *end as usize {
            return 0;
        }
        self.child_ids.get(idx).map(|c| *c as usize).unwrap_or(0)
    }
}

/// Per-operator statistics for one plan, indexed by pre-order position.
///
/// Built once per profiled execution from the plan tree (or, on the traced
/// cached-plan path, from a shared [`ProfileShape`]); recording uses
/// relaxed atomics so the profile can be shared (the executor takes it by
/// shared reference through `ExecCtx`).
#[derive(Debug)]
pub struct PlanProfile {
    /// One row per individually tracked operator, plus (when the plan is
    /// larger than the tracking cap) a trailing overflow row that
    /// accumulates every remaining operator. Generalized-path plans fan
    /// out to thousands of union branches; tracking them all would turn
    /// each record into a cold cache miss on a fresh multi-hundred-KB
    /// allocation, for statistics a trace would aggregate anyway.
    nodes: Vec<NodeStats>,
    /// Ids `0..tracked` get individual rows; everything else folds into
    /// the overflow row at index `tracked`.
    tracked: usize,
    shape: Arc<ProfileShape>,
    timed: bool,
}

impl PlanProfile {
    /// A zeroed profile shaped like `plan` (node `0` is the plan root),
    /// tracking every operator individually — the `EXPLAIN ANALYZE` shape.
    pub fn new(plan: &Op) -> PlanProfile {
        PlanProfile::from_shape(Arc::new(ProfileShape::of(plan)), true, usize::MAX)
    }

    /// A profile over a prebuilt (typically plan-cached) shape. `timed`
    /// selects whether the executor reads the clock per operator call —
    /// untimed, `calls`, `rows` and the scan split are still counted but
    /// `nanos` stays zero, which is what keeps query tracing within its
    /// few-percent overhead budget while `EXPLAIN ANALYZE` keeps full timing;
    /// `max_tracked` bounds the individually tracked operators (the rest
    /// share one overflow row — see the `nodes` field).
    pub fn from_shape(shape: Arc<ProfileShape>, timed: bool, max_tracked: usize) -> PlanProfile {
        let tracked = shape.len().min(max_tracked.max(1));
        let rows = if tracked < shape.len() {
            tracked + 1
        } else {
            tracked
        };
        let nodes = (0..rows).map(|_| NodeStats::default()).collect();
        PlanProfile {
            nodes,
            tracked,
            shape,
            timed,
        }
    }

    /// Does the executor read the clock for this profile?
    pub fn is_timed(&self) -> bool {
        self.timed
    }

    /// Number of operators in the profiled plan.
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    /// Whether the profile covers no operators (never true for a profile
    /// built from a plan — every plan has at least one node).
    pub fn is_empty(&self) -> bool {
        self.shape.len() == 0
    }

    /// Number of operators with individual statistics rows; operators at
    /// ids `tracked()..len()` fold into one shared overflow row.
    pub fn tracked(&self) -> usize {
        self.tracked
    }

    /// The pre-order id of `node`'s `k`-th child (in
    /// [`Op::children`](crate::Op::children) order). Out-of-range lookups
    /// return node `0` rather than panicking; they indicate a profile built
    /// from a different plan than the one executing.
    pub fn child(&self, node: usize, k: usize) -> usize {
        self.shape.child(node, k)
    }

    /// Unsynchronized add on an atomic cell: executor recording is
    /// single-writer (one thread runs a plan), so a relaxed load + store
    /// beats the read-modify-write a `fetch_add` would lock the bus for —
    /// it shows up, the sub-plan of a semi-join records once per input
    /// row. Concurrent *readers* (a trace snapshot racing the run) stay
    /// race-free and at worst observe the previous value.
    #[inline]
    fn bump(cell: &AtomicU64, delta: u64) {
        cell.store(
            cell.load(Ordering::Relaxed).wrapping_add(delta),
            Ordering::Relaxed,
        );
    }

    pub(crate) fn record(&self, node: usize, nanos: u64, rows: u64) {
        // Past-the-cap operators share the overflow row at `tracked`; a
        // node id beyond even that (a profile built from a different plan)
        // misses `nodes` entirely and is ignored.
        if let Some(n) = self.nodes.get(node.min(self.tracked)) {
            Self::bump(&n.calls, 1);
            Self::bump(&n.rows, rows);
            Self::bump(&n.nanos, nanos);
        }
    }

    pub(crate) fn record_scan(&self, node: usize, index_hits: u64, walk_fallbacks: u64) {
        if let Some(n) = self.nodes.get(node.min(self.tracked)) {
            Self::bump(&n.index_hits, index_hits);
            Self::bump(&n.walk_fallbacks, walk_fallbacks);
        }
    }

    /// Executor invocations of `node`.
    pub fn calls(&self, node: usize) -> u64 {
        self.stat(node, |n| &n.calls)
    }

    /// Rows emitted by `node` across all calls.
    pub fn rows(&self, node: usize) -> u64 {
        self.stat(node, |n| &n.rows)
    }

    /// Inclusive nanoseconds spent in `node` (children included).
    pub fn nanos(&self, node: usize) -> u64 {
        self.stat(node, |n| &n.nanos)
    }

    /// Start values `node` answered from the path-extent index (nonzero only
    /// for `IndexPathScan` operators).
    pub fn index_hits(&self, node: usize) -> u64 {
        self.stat(node, |n| &n.index_hits)
    }

    /// Start values `node` answered by the fallback walk.
    pub fn walk_fallbacks(&self, node: usize) -> u64 {
        self.stat(node, |n| &n.walk_fallbacks)
    }

    /// Rows emitted by the plan root (node `0`) — the plan's result
    /// cardinality before head projection and deduplication.
    pub fn root_rows(&self) -> u64 {
        self.rows(0)
    }

    /// Total rows emitted across all operators.
    pub fn total_rows(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.rows.load(Ordering::Relaxed))
            .sum()
    }

    /// Total index-hit / walk-fallback counts across all scan operators.
    pub fn scan_totals(&self) -> (u64, u64) {
        let hits = self
            .nodes
            .iter()
            .map(|n| n.index_hits.load(Ordering::Relaxed))
            .sum();
        let walks = self
            .nodes
            .iter()
            .map(|n| n.walk_fallbacks.load(Ordering::Relaxed))
            .sum();
        (hits, walks)
    }

    fn stat(&self, node: usize, f: impl Fn(&NodeStats) -> &AtomicU64) -> u64 {
        // Individual statistics exist only for tracked operators; an
        // untracked id would otherwise read the overflow row.
        if node >= self.tracked {
            return 0;
        }
        self.nodes
            .get(node)
            .map(|n| f(n).load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// The per-node annotation appended to explain lines by [`render`]:
    /// `calls=…, rows=…, time=…` plus index-hit/walk-fallback counts when a
    /// scan recorded any.
    ///
    /// [`render`]: PlanProfile::render
    pub fn annotation(&self, node: usize) -> String {
        let calls = self.calls(node);
        if calls == 0 {
            return "never executed".to_string();
        }
        let mut s = format!(
            "calls={calls} rows={} time={:?}",
            self.rows(node),
            Duration::from_nanos(self.nanos(node)),
        );
        let (hits, walks) = (self.index_hits(node), self.walk_fallbacks(node));
        if hits != 0 || walks != 0 {
            s.push_str(&format!(" index_hits={hits} walk_fallbacks={walks}"));
        }
        s
    }

    /// Render `plan` as its explain tree with this profile's statistics
    /// appended to each operator line. `plan` must be the plan this profile
    /// was built from.
    pub fn render(&self, plan: &Op) -> String {
        plan.explain_annotated(&|id| format!("  [{}]", self.annotation(id)))
    }

    /// Render `plan` with planner estimates and measured actuals side by
    /// side on every operator line — the estimate-vs-actual view `EXPLAIN
    /// ANALYZE` prints for cost-based plans. Both the estimates and this
    /// profile must have been built from `plan` (they share its pre-order
    /// numbering).
    pub fn render_with_estimates(&self, plan: &Op, est: &crate::cost::PlanEstimates) -> String {
        plan.explain_annotated(&|id| {
            format!("  [{} | {}]", est.annotation(id), self.annotation(id))
        })
    }

    /// Flatten this profile into per-operator trace spans
    /// ([`docql_obs::OpSpan`]), pre-order with tree depth, pairing each
    /// operator's measured actuals with its estimated rows when the plan
    /// was costed. `plan` must be the plan this profile (and `est`) were
    /// built from.
    ///
    /// At most `max_spans` operators are rendered individually; the rest
    /// collapse into one trailing aggregate span (calls/rows/ns summed, no
    /// label formatting). Generalized-path queries fan a union out to
    /// thousands of branches, and rendering a label string per node — then
    /// retaining all of them in the flight-recorder ring — would dominate
    /// the cost of tracing such a query. Pre-order ids are assigned in
    /// emission order, so the elided tail is exactly ids
    /// `max_spans..len()`.
    pub fn op_spans(
        &self,
        plan: &Op,
        est: Option<&crate::cost::PlanEstimates>,
        max_spans: usize,
    ) -> Vec<docql_obs::OpSpan> {
        let mut labels = Vec::new();
        collect_labels(plan, 0, max_spans.max(1).min(self.len()), &mut labels);
        self.op_spans_with_labels(&labels, est)
    }

    /// [`PlanProfile::op_spans`] against pre-rendered labels — no plan walk
    /// and no string formatting. This is the traced cached-plan path: the
    /// labels come from the plan's one-time
    /// [`Algebraized::trace_shape`](crate::Algebraized::trace_shape)
    /// rendering, and each span's label is an `Arc` clone.
    pub fn op_spans_with_labels(
        &self,
        labels: &[(u32, Arc<str>)],
        est: Option<&crate::cost::PlanEstimates>,
    ) -> Vec<docql_obs::OpSpan> {
        let emitted = labels.len().min(self.tracked);
        let truncated = emitted < self.len();
        let mut out = Vec::with_capacity(emitted + usize::from(truncated));
        for (id, (depth, label)) in labels.iter().enumerate().take(emitted) {
            out.push(docql_obs::OpSpan {
                depth: *depth,
                label: Arc::clone(label),
                calls: self.calls(id),
                rows: self.rows(id),
                ns: self.nanos(id),
                est_rows: est.map(|e| e.rows(id).round().clamp(0.0, 1e15) as u64),
                index_hits: self.index_hits(id),
                walk_fallbacks: self.walk_fallbacks(id),
            });
        }
        if truncated {
            // Sum the statistics rows past the emitted prefix — for a
            // capped profile that is just the overflow row, never a scan
            // over thousands of per-node entries.
            let (mut calls, mut rows, mut ns, mut hits, mut falls) = (0u64, 0u64, 0u64, 0u64, 0u64);
            for n in &self.nodes[emitted..] {
                calls += n.calls.load(Ordering::Relaxed);
                rows += n.rows.load(Ordering::Relaxed);
                ns += n.nanos.load(Ordering::Relaxed);
                hits += n.index_hits.load(Ordering::Relaxed);
                falls += n.walk_fallbacks.load(Ordering::Relaxed);
            }
            out.push(docql_obs::OpSpan {
                depth: 0,
                label: format!("... {} more operators (aggregated)", self.len() - emitted).into(),
                calls,
                rows,
                ns,
                est_rows: None,
                index_hits: hits,
                walk_fallbacks: falls,
            });
        }
        out
    }
}

/// Collect `(depth, label)` pairs for the first `cap` operators of `plan`
/// in pre-order — the label half of a trace's op spans, separated from the
/// per-execution counters so a cached plan can render it once.
pub(crate) fn collect_labels(op: &Op, depth: u32, cap: usize, out: &mut Vec<(u32, Arc<str>)>) {
    if out.len() >= cap {
        return;
    }
    out.push((depth, op.node_label().into()));
    for c in op.children() {
        collect_labels(c, depth + 1, cap, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docql_model::sym;

    fn sample_plan() -> Op {
        // Project(0) -> Semi(1) { Walk(2) -> Root(3), Unit(4) }
        Op::Project {
            vars: vec![1],
            input: Box::new(Op::Semi {
                input: Box::new(Op::Walk {
                    start: 0,
                    steps: vec![crate::WalkStep::UnnestList(None)],
                    out: Some(1),
                    input: Box::new(Op::Root {
                        name: sym("Items"),
                        out: 0,
                    }),
                }),
                sub: Box::new(Op::Unit),
            }),
        }
    }

    #[test]
    fn preorder_numbering_matches_tree() {
        let plan = sample_plan();
        let p = PlanProfile::new(&plan);
        assert_eq!(p.len(), 5);
        assert_eq!(p.child(0, 0), 1, "Project's child is Semi");
        assert_eq!(p.child(1, 0), 2, "Semi's input is Walk");
        assert_eq!(p.child(1, 1), 4, "Semi's sub is Unit (after Walk subtree)");
        assert_eq!(p.child(2, 0), 3, "Walk's input is Root");
        assert_eq!(p.child(9, 3), 0, "out of range falls back to the root id");
    }

    #[test]
    fn annotations_render_in_tree_order() {
        let plan = sample_plan();
        let p = PlanProfile::new(&plan);
        p.record(0, 1_500, 2);
        p.record(2, 700, 3);
        p.record_scan(2, 2, 1);
        let text = p.render(&plan);
        assert!(
            text.contains("Project #1  [calls=1 rows=2 time=1.5µs]"),
            "{text}"
        );
        assert!(text.contains("index_hits=2 walk_fallbacks=1"), "{text}");
        assert!(text.contains("never executed"), "{text}");
        assert_eq!(p.root_rows(), 2);
        assert_eq!(p.total_rows(), 5);
        assert_eq!(p.scan_totals(), (2, 1));
    }

    #[test]
    fn op_spans_follow_preorder_with_depth() {
        let plan = sample_plan();
        let p = PlanProfile::new(&plan);
        p.record(0, 1_500, 2);
        p.record(2, 700, 3);
        p.record_scan(2, 2, 1);
        let spans = p.op_spans(&plan, None, usize::MAX);
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].depth, 0);
        assert!(spans[0].label.starts_with("Project"));
        assert_eq!(spans[0].calls, 1);
        assert_eq!(spans[0].rows, 2);
        assert_eq!(spans[0].est_rows, None);
        assert_eq!(spans[1].depth, 1, "Semi under Project");
        assert_eq!(spans[2].depth, 2, "Walk under Semi");
        assert_eq!(spans[2].index_hits, 2);
        assert_eq!(spans[2].walk_fallbacks, 1);
        assert_eq!(spans[4].depth, 2, "Unit is Semi's second child");
    }

    #[test]
    fn op_spans_cap_aggregates_the_preorder_tail() {
        let plan = sample_plan();
        let p = PlanProfile::new(&plan);
        p.record(0, 1_500, 2);
        p.record(2, 700, 3);
        p.record(4, 100, 7);
        p.record_scan(2, 2, 1);
        let spans = p.op_spans(&plan, None, 2);
        assert_eq!(spans.len(), 3, "2 real spans + 1 aggregate");
        assert!(spans[0].label.starts_with("Project"));
        assert_eq!(spans[1].depth, 1);
        let tail = &spans[2];
        assert!(tail.label.contains("3 more operators"), "{}", tail.label);
        assert_eq!(tail.calls, 2, "nodes 2 and 4 were recorded");
        assert_eq!(tail.rows, 10);
        assert_eq!(tail.ns, 800);
        assert_eq!(tail.index_hits, 2);
        assert_eq!(tail.walk_fallbacks, 1);
        assert_eq!(tail.est_rows, None);
    }

    #[test]
    fn untimed_profile_counts_without_timing() {
        let plan = sample_plan();
        let p = PlanProfile::from_shape(Arc::new(ProfileShape::of(&plan)), false, usize::MAX);
        assert!(!p.is_timed());
        assert!(PlanProfile::new(&plan).is_timed());
        p.record(0, 0, 2);
        assert_eq!(p.calls(0), 1);
        assert_eq!(p.rows(0), 2);
        assert_eq!(p.nanos(0), 0);
    }
}
