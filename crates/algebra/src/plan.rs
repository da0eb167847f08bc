//! Algebra operators over binding streams (§5.4).
//!
//! The algebra is a complex-object algebra "in the spirit of [3, 12]",
//! extended — as the paper sketches — with *variant-based selection* over
//! heterogeneous collections: the `Attr` walk step applies implicit
//! selectors through union markers. Crucially, **no operator enumerates
//! paths at run time**: plans only contain concrete navigation steps, which
//! is exactly what the algebraization buys over the calculus interpreter.

use crate::profile::PlanProfile;
use docql_calculus::{Atom, CalcValue, DataTerm, Evaluator, PreparedAtom, Var};
use docql_model::{Instance, Sym, Value};
use docql_paths::select::{attr_select, deref1, index_select, list_items};
use docql_paths::{ExtStep, PathExtentIndex};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One binding row of a plan's stream: a value per bound variable.
pub type Row = BTreeMap<Var, CalcValue>;

/// Run-time execution context: auxiliary structures a plan *may* consult.
///
/// Plans are compiled against the schema only; whether an
/// [`Op::IndexPathScan`] actually reads the path-extent index or falls back
/// to walking is resolved here, at evaluation time. This is what lets the
/// plan cache keep index-aware plans without invalidation: the cached plan
/// captures the *choice point*, the context supplies the index.
///
/// The profile follows the same pattern: instrumentation is always compiled
/// into the executor, and whether an execution is counted or timed is
/// decided here. With no profile (the default) the only per-operator cost
/// is one pointer-sized `Option` check.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecCtx<'a> {
    /// The store's path-extent index, when index-backed evaluation is on.
    pub extents: Option<&'a PathExtentIndex>,
    /// Per-operator profile for this execution (traces and `EXPLAIN
    /// ANALYZE`). Must be built from the plan being executed (see
    /// [`PlanProfile::new`]).
    pub profile: Option<&'a PlanProfile>,
    /// Execution governance: operator loops charge one row per emitted
    /// tuple, graph walks charge path fuel, and each operator start is a
    /// fault-injection point. `None` (the default) costs one pointer test
    /// per row.
    pub guard: Option<&'a docql_guard::Guard>,
}

/// Charge one row to the execution guard. `Ok(true)` continues, `Ok(false)`
/// stops the loop keeping the rows emitted so far (degrade mode), `Err`
/// aborts the plan.
#[inline]
fn guard_row(ctx: ExecCtx<'_>) -> Result<bool, crate::AlgebraError> {
    match ctx.guard {
        None => Ok(true),
        Some(g) => match g.row() {
            docql_guard::Flow::Continue => Ok(true),
            docql_guard::Flow::Stop => Ok(false),
            docql_guard::Flow::Abort(e) => Err(crate::AlgebraError::from(e)),
        },
    }
}

/// Charge `n` path-fuel units (same continue/stop/abort contract as
/// [`guard_row`]). Extent-index hits charge one unit per resolved start so
/// a path-fuel limit bounds path-atom work uniformly, whether the plan
/// walks or reads the index.
#[inline]
fn guard_fuel(ctx: ExecCtx<'_>, n: u64) -> Result<bool, crate::AlgebraError> {
    match ctx.guard {
        None => Ok(true),
        Some(g) => match g.fuel(n) {
            docql_guard::Flow::Continue => Ok(true),
            docql_guard::Flow::Stop => Ok(false),
            docql_guard::Flow::Abort(e) => Err(crate::AlgebraError::from(e)),
        },
    }
}

/// One navigation step of a [`Op::Walk`].
#[derive(Debug, Clone, PartialEq)]
pub enum WalkStep {
    /// Select attribute (implicit selectors through unions; implicit deref).
    Attr(Sym),
    /// Dereference an oid.
    Deref,
    /// Index a list (or tuple-as-heterogeneous-list) with a constant.
    Index(usize),
    /// Index with the integer value currently bound to a variable.
    IndexVar(Var),
    /// Fan out over the elements of a list, optionally binding the index.
    UnnestList(Option<Var>),
    /// Fan out over the elements of a set, optionally binding the element.
    UnnestSet(Option<Var>),
    /// Fan out over any collection (list or set, through oids and markers).
    UnnestColl,
    /// Bind the value reached so far to a variable (zero-width).
    Bind(Var),
}

impl fmt::Display for WalkStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalkStep::Attr(a) => write!(f, ".{a}"),
            WalkStep::Deref => f.write_str("->"),
            WalkStep::Index(i) => write!(f, "[{i}]"),
            WalkStep::IndexVar(v) => write!(f, "[#{v}]"),
            WalkStep::UnnestList(Some(v)) => write!(f, "[*#{v}]"),
            WalkStep::UnnestList(None) => f.write_str("[*]"),
            WalkStep::UnnestSet(_) => f.write_str("{*}"),
            WalkStep::UnnestColl => f.write_str("unnest"),
            WalkStep::Bind(v) => write!(f, "(#{v})"),
        }
    }
}

/// A physical plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// One empty row.
    Unit,
    /// Bind a root of persistence's value.
    Root { name: Sym, out: Var },
    /// Navigate from a bound variable through concrete steps, fanning out at
    /// unnest steps; optionally bind the end value.
    Walk {
        input: Box<Op>,
        start: Var,
        steps: Vec<WalkStep>,
        out: Option<Var>,
    },
    /// A path navigation answerable from the path-extent index: look up the
    /// interned class-blind `key` and read the precomputed targets instead
    /// of walking. The original `steps` are kept as the run-time fallback
    /// for when no index is attached ([`ExecCtx::extents`] is `None`), the
    /// key is not interned, or a start value is not an indexed root.
    IndexPathScan(Box<IndexPathScan>),
    /// Keep rows satisfying an atom (all variables bound).
    Filter { input: Box<Op>, atom: Atom },
    /// Compute a term into a variable.
    Assign {
        input: Box<Op>,
        var: Var,
        term: DataTerm,
    },
    /// Bag union of sub-plans (the algebraization's union of candidates).
    Union(Vec<Op>),
    /// Anti-semi-join: keep input rows for which `sub` yields nothing.
    AntiSemi { input: Box<Op>, sub: Box<Op> },
    /// Semi-join: keep input rows for which `sub` yields at least one row.
    Semi { input: Box<Op>, sub: Box<Op> },
    /// Projection with duplicate elimination.
    Project { input: Box<Op>, vars: Vec<Var> },
    /// Feed the output rows of `first` into `second` (used to graft a
    /// disjunction's Union onto its upstream plan).
    Pipe(Box<Op>, Box<Op>),
}

/// The payload of [`Op::IndexPathScan`] (boxed to keep `Op` small).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexPathScan {
    /// Upstream plan producing the start bindings.
    pub input: Op,
    /// Variable holding the navigation start value.
    pub start: Var,
    /// `Some(binder)` when the walk begins with `UnnestList(binder)` over
    /// the document collection: the scan fans out over the list first (so
    /// index binders survive) and consults the index per element oid.
    pub lead: Option<Option<Var>>,
    /// The interned class-blind path key covered by the extent.
    pub key: Vec<ExtStep>,
    /// Trailing `Bind` variables, each bound to (or checked against) the
    /// target value.
    pub tail: Vec<Var>,
    /// Optional output binding for the target value.
    pub out: Option<Var>,
    /// The full original walk steps — the run-time fallback.
    pub steps: Vec<WalkStep>,
    /// Remove `start` from the row before emitting. Set by the compiler
    /// when the start variable has no downstream use, so the (often large)
    /// start value — e.g. the whole document collection — is not cloned
    /// into every emitted row.
    pub drop_start: bool,
}

impl Op {
    /// Execute against an instance with no auxiliary structures attached
    /// (every [`Op::IndexPathScan`] falls back to walking).
    pub fn execute(
        &self,
        instance: &Instance,
        ev: &Evaluator<'_>,
    ) -> Result<Vec<Row>, crate::AlgebraError> {
        self.execute_with(instance, ev, ExecCtx::default())
    }

    /// Execute against an instance, producing binding rows; `ctx` supplies
    /// run-time structures such as the path-extent index.
    pub fn execute_with(
        &self,
        instance: &Instance,
        ev: &Evaluator<'_>,
        ctx: ExecCtx<'_>,
    ) -> Result<Vec<Row>, crate::AlgebraError> {
        self.run(instance, ev, ctx, vec![Row::new()], 0)
    }

    /// Instrumentation shell around [`Op::run_inner`]: without a profile it
    /// adds one `Option` check per operator call; with one it records the
    /// emitted row count, and the (inclusive) wall time when the profile is
    /// timed. `node` is this operator's pre-order id in `ctx.profile` (`0`
    /// — never read — when unprofiled).
    fn run(
        &self,
        instance: &Instance,
        ev: &Evaluator<'_>,
        ctx: ExecCtx<'_>,
        input_rows: Vec<Row>,
        node: usize,
    ) -> Result<Vec<Row>, crate::AlgebraError> {
        // Operator boundary: deterministic fault-injection point (inert
        // without a fault seed) — may panic (exercising `catch_unwind`
        // isolation upstream) or force a budget trip.
        if let Some(g) = ctx.guard {
            match g.fault_point("algebra-operator") {
                docql_guard::Flow::Continue => {}
                docql_guard::Flow::Stop => return Ok(Vec::new()),
                docql_guard::Flow::Abort(e) => return Err(crate::AlgebraError::from(e)),
            }
        }
        let Some(p) = ctx.profile else {
            return self.run_inner(instance, ev, ctx, input_rows, node);
        };
        // Untimed profiles (query traces) skip the clock: semi-join
        // sub-plans re-enter here once per input row, and two
        // `Instant::now` calls per entry would dominate tight plans.
        let start = p.is_timed().then(std::time::Instant::now);
        let result = self.run_inner(instance, ev, ctx, input_rows, node);
        if let Ok(rows) = &result {
            let nanos = start.map_or(0, |s| {
                u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX)
            });
            p.record(node, nanos, rows.len() as u64);
        }
        result
    }

    fn run_inner(
        &self,
        instance: &Instance,
        ev: &Evaluator<'_>,
        ctx: ExecCtx<'_>,
        input_rows: Vec<Row>,
        node: usize,
    ) -> Result<Vec<Row>, crate::AlgebraError> {
        match self {
            Op::Unit => Ok(input_rows),
            Op::Root { name, out } => {
                let value = instance
                    .root(*name)
                    .map_err(|e| crate::AlgebraError(format!("root: {e}")))?
                    .clone();
                Ok(input_rows
                    .into_iter()
                    .map(|mut r| {
                        r.insert(*out, CalcValue::Data(value.clone()));
                        r
                    })
                    .collect())
            }
            Op::Walk {
                input,
                start,
                steps,
                out,
            } => {
                let rows = input.run(instance, ev, ctx, input_rows, child_id(ctx, node, 0))?;
                let mut result = Vec::new();
                for row in rows {
                    if !guard_row(ctx)? {
                        break;
                    }
                    let Some(CalcValue::Data(v)) = row.get(start).cloned() else {
                        continue;
                    };
                    walk(instance, &v, steps, row, *out, ctx.guard, &mut result);
                }
                Ok(result)
            }
            Op::IndexPathScan(scan) => {
                let rows = scan
                    .input
                    .run(instance, ev, ctx, input_rows, child_id(ctx, node, 0))?;
                // Resolve the index choice once per execution: is an extent
                // attached, and does it cover this path key?
                let ext = ctx
                    .extents
                    .and_then(|e| e.lookup(&scan.key).map(|pid| (e, pid)));
                // Tallied locally (plain integers), flushed to the profile
                // once after the loop.
                let mut index_hits = 0u64;
                let mut walk_fallbacks = 0u64;
                let mut result = Vec::new();
                for mut row in rows {
                    if !guard_row(ctx)? {
                        break;
                    }
                    // Take the start value out of the row when it is dead
                    // downstream: emitted rows then no longer clone it.
                    let v = if scan.drop_start {
                        match row.remove(&scan.start) {
                            Some(CalcValue::Data(v)) => v,
                            _ => continue,
                        }
                    } else {
                        match row.get(&scan.start).cloned() {
                            Some(CalcValue::Data(v)) => v,
                            _ => continue,
                        }
                    };
                    match (&ext, &scan.lead) {
                        // Start value is the document oid itself.
                        (Some((e, pid)), None) => match v {
                            Value::Oid(o) if e.is_root_indexed(o) => {
                                index_hits += 1;
                                if !guard_fuel(ctx, 1)? {
                                    break;
                                }
                                for target in e.targets(*pid, o) {
                                    emit_indexed(
                                        target,
                                        row.clone(),
                                        &scan.tail,
                                        scan.out,
                                        &mut result,
                                    );
                                }
                            }
                            v => {
                                walk_fallbacks += 1;
                                walk(
                                    instance,
                                    &v,
                                    &scan.steps,
                                    row,
                                    scan.out,
                                    ctx.guard,
                                    &mut result,
                                );
                            }
                        },
                        // Start value is the document collection: fan out
                        // over it first, then consult the index per oid.
                        (Some((e, pid)), Some(binder)) => {
                            for (i, item) in list_items(&v).into_iter().enumerate() {
                                let mut r = row.clone();
                                if let Some(bv) = binder {
                                    r.insert(*bv, CalcValue::Data(Value::Int(i as i64)));
                                }
                                match item {
                                    Value::Oid(o) if e.is_root_indexed(o) => {
                                        index_hits += 1;
                                        if !guard_fuel(ctx, 1)? {
                                            break;
                                        }
                                        for target in e.targets(*pid, o) {
                                            emit_indexed(
                                                target,
                                                r.clone(),
                                                &scan.tail,
                                                scan.out,
                                                &mut result,
                                            );
                                        }
                                    }
                                    item => {
                                        walk_fallbacks += 1;
                                        walk(
                                            instance,
                                            &item,
                                            &scan.steps[1..],
                                            r,
                                            scan.out,
                                            ctx.guard,
                                            &mut result,
                                        );
                                    }
                                }
                            }
                        }
                        // No index attached, or the key is not interned.
                        (None, _) => {
                            walk_fallbacks += 1;
                            walk(
                                instance,
                                &v,
                                &scan.steps,
                                row,
                                scan.out,
                                ctx.guard,
                                &mut result,
                            );
                        }
                    }
                }
                if let Some(p) = ctx.profile {
                    if index_hits != 0 || walk_fallbacks != 0 {
                        p.record_scan(node, index_hits, walk_fallbacks);
                    }
                }
                Ok(result)
            }
            Op::Filter { input, atom } => {
                let rows = input.run(instance, ev, ctx, input_rows, child_id(ctx, node, 0))?;
                let mut result = Vec::new();
                // Built on the first row: a union branch often has none.
                let mut prepared: Option<(PreparedAtom, Slots)> = None;
                for row in rows {
                    if !guard_row(ctx)? {
                        break;
                    }
                    // A filter must not bind — keep the original row.
                    let mut holds = false;
                    let (atom, slots) = prepared
                        .get_or_insert_with(|| (PreparedAtom::new(atom.clone()), Slots::new(atom)));
                    ev.solve_atom(atom, slots.load(&row), &mut |_| holds = true)
                        .map_err(|e| crate::AlgebraError(e.to_string()))?;
                    if holds {
                        result.push(row);
                    }
                }
                Ok(result)
            }
            Op::Assign { input, var, term } => {
                let rows = input.run(instance, ev, ctx, input_rows, child_id(ctx, node, 0))?;
                let mut result = Vec::new();
                // Shared by the slow path below; built lazily so the common
                // variable-copy case never touches the calculus evaluator.
                let mut eq: Option<(PreparedAtom, Slots)> = None;
                for mut row in rows {
                    if !guard_row(ctx)? {
                        break;
                    }
                    // Fast path: `#var := #src` with `src` bound, a root or a
                    // constant, and `var` free, is a plain copy — the shapes
                    // the compiler emits for head projections (once per
                    // result row) and for a path's start (once per union
                    // branch).
                    if !row.contains_key(var) {
                        let copied = match term {
                            DataTerm::Var(src) => row.get(src).cloned(),
                            DataTerm::Name(n) => {
                                instance.root(*n).ok().cloned().map(CalcValue::Data)
                            }
                            DataTerm::Const(v) => Some(CalcValue::Data(v.clone())),
                            _ => None,
                        };
                        if let Some(v) = copied {
                            row.insert(*var, v);
                            result.push(row);
                            continue;
                        }
                    }
                    let (eq, slots) = eq.get_or_insert_with(|| {
                        let eq = Atom::Eq(DataTerm::Var(*var), term.clone());
                        let slots = Slots::new(&eq);
                        (PreparedAtom::new(eq), slots)
                    });
                    // An equation has at most one solution.
                    let mut bound = None;
                    ev.solve_atom(eq, slots.load(&row), &mut |sol| {
                        bound = sol.get(*var as usize).cloned().flatten();
                    })
                    .map_err(|e| crate::AlgebraError(e.to_string()))?;
                    if let Some(v) = bound {
                        row.insert(*var, v);
                        result.push(row);
                    }
                }
                Ok(result)
            }
            Op::Union(branches) => {
                let mut result = Vec::new();
                for (i, b) in branches.iter().enumerate() {
                    result.extend(b.run(
                        instance,
                        ev,
                        ctx,
                        input_rows.clone(),
                        child_id(ctx, node, i),
                    )?);
                }
                Ok(result)
            }
            Op::AntiSemi { input, sub } => {
                let rows = input.run(instance, ev, ctx, input_rows, child_id(ctx, node, 0))?;
                let sub_id = child_id(ctx, node, 1);
                let mut result = Vec::new();
                for row in rows {
                    if !guard_row(ctx)? {
                        break;
                    }
                    // After a trip `sub` may have stopped short, so an
                    // empty answer proves nothing: keep no row.
                    let empty = sub
                        .run(instance, ev, ctx, vec![row.clone()], sub_id)?
                        .is_empty();
                    if empty && !ctx.guard.is_some_and(|g| g.tripped()) {
                        result.push(row);
                    }
                }
                Ok(result)
            }
            Op::Semi { input, sub } => {
                let rows = input.run(instance, ev, ctx, input_rows, child_id(ctx, node, 0))?;
                let sub_id = child_id(ctx, node, 1);
                let mut result = Vec::new();
                for row in rows {
                    if !guard_row(ctx)? {
                        break;
                    }
                    if !sub
                        .run(instance, ev, ctx, vec![row.clone()], sub_id)?
                        .is_empty()
                    {
                        result.push(row);
                    }
                }
                Ok(result)
            }
            Op::Pipe(first, second) => {
                let rows = first.run(instance, ev, ctx, input_rows, child_id(ctx, node, 0))?;
                second.run(instance, ev, ctx, rows, child_id(ctx, node, 1))
            }
            Op::Project { input, vars } => {
                let rows = input.run(instance, ev, ctx, input_rows, child_id(ctx, node, 0))?;
                let mut seen = std::collections::BTreeSet::new();
                let mut result = Vec::new();
                for row in rows {
                    if !guard_row(ctx)? {
                        break;
                    }
                    let projected: Row = vars
                        .iter()
                        .filter_map(|v| row.get(v).map(|cv| (*v, cv.clone())))
                        .collect();
                    if seen.insert(projected.clone()) {
                        result.push(projected);
                    }
                }
                Ok(result)
            }
        }
    }

    /// Pretty-print the plan tree.
    pub fn explain(&self) -> String {
        self.explain_annotated(&|_| String::new())
    }

    /// Pretty-print the plan tree with a per-operator suffix: `annotate` is
    /// called with each operator's **pre-order id** — the numbering used by
    /// [`PlanProfile`] — and its result is appended to that operator's line.
    /// This is how `EXPLAIN ANALYZE` attaches recorded statistics to the
    /// rendered plan.
    pub fn explain_annotated(&self, annotate: &dyn Fn(usize) -> String) -> String {
        let mut out = String::new();
        let mut next = 0usize;
        self.explain_into(0, &mut next, annotate, &mut out);
        out
    }

    /// The one-line label of this operator (no children, no indentation).
    ///
    /// For [`Op::IndexPathScan`] the label shows both sides of the run-time
    /// choice point: the interned class-blind extent key the scan looks up,
    /// and the fallback walk used when no index covers it.
    pub fn node_label(&self) -> String {
        match self {
            Op::Unit => "Unit".to_string(),
            Op::Root { name, out: v } => format!("Root {name} -> #{v}"),
            Op::Walk {
                start,
                steps,
                out: v,
                ..
            } => {
                let s: String = steps.iter().map(|s| s.to_string()).collect();
                match v {
                    Some(v) => format!("Walk #{start}{s} -> #{v}"),
                    None => format!("Walk #{start}{s}"),
                }
            }
            Op::IndexPathScan(scan) => {
                let lead = match &scan.lead {
                    Some(Some(v)) => format!("[*#{v}]"),
                    Some(None) => "[*]".to_string(),
                    None => String::new(),
                };
                let key: String = std::iter::once(lead)
                    .chain(scan.key.iter().map(|s| s.to_string()))
                    .collect();
                let walk: String = scan.steps.iter().map(|s| s.to_string()).collect();
                let start = scan.start;
                match scan.out {
                    Some(v) => {
                        format!(
                            "IndexPathScan #{start}{key} -> #{v} (fallback walk #{start}{walk})"
                        )
                    }
                    None => format!("IndexPathScan #{start}{key} (fallback walk #{start}{walk})"),
                }
            }
            Op::Filter { atom, .. } => format!("Filter {atom}"),
            Op::Assign { var, term, .. } => format!("Assign #{var} := {term}"),
            Op::Union(branches) => format!("Union ({} branches)", branches.len()),
            Op::AntiSemi { .. } => "AntiSemi".to_string(),
            Op::Semi { .. } => "Semi".to_string(),
            Op::Project { vars, .. } => {
                let vs: Vec<String> = vars.iter().map(|v| format!("#{v}")).collect();
                format!("Project {}", vs.join(", "))
            }
            Op::Pipe(..) => "Pipe".to_string(),
        }
    }

    /// Direct sub-plans, in execution order. This order defines the child
    /// indices used by [`PlanProfile::child`] and the pre-order numbering of
    /// [`Op::explain_annotated`].
    pub fn children(&self) -> Vec<&Op> {
        match self {
            Op::Unit | Op::Root { .. } => Vec::new(),
            Op::Walk { input, .. }
            | Op::Filter { input, .. }
            | Op::Assign { input, .. }
            | Op::Project { input, .. } => vec![input],
            Op::IndexPathScan(scan) => vec![&scan.input],
            Op::Union(branches) => branches.iter().collect(),
            Op::AntiSemi { input, sub } | Op::Semi { input, sub } => vec![input, sub],
            Op::Pipe(first, second) => vec![first, second],
        }
    }

    fn explain_into(
        &self,
        depth: usize,
        next: &mut usize,
        annotate: &dyn Fn(usize) -> String,
        out: &mut String,
    ) {
        let id = *next;
        *next += 1;
        let pad = "  ".repeat(depth);
        out.push_str(&format!("{pad}{}{}\n", self.node_label(), annotate(id)));
        match self {
            // Semi-joins mark their sub-plan so the two inputs read apart.
            Op::AntiSemi { input, sub } | Op::Semi { input, sub } => {
                input.explain_into(depth + 1, next, annotate, out);
                out.push_str(&format!("{pad}  [sub]\n"));
                sub.explain_into(depth + 2, next, annotate, out);
            }
            _ => {
                for c in self.children() {
                    c.explain_into(depth + 1, next, annotate, out);
                }
            }
        }
    }

    /// Does any operator in this subtree reference or bind `v`?
    /// Conservative (binders and uses are not distinguished) — used by
    /// peephole rewrites to prove a variable cannot flow in from upstream.
    pub fn mentions(&self, v: Var) -> bool {
        let mut vars = BTreeSet::new();
        self.collect_vars(&mut vars);
        vars.contains(&v)
    }

    fn collect_vars(&self, out: &mut BTreeSet<Var>) {
        fn step_vars(steps: &[WalkStep], out: &mut BTreeSet<Var>) {
            for s in steps {
                match s {
                    WalkStep::UnnestList(Some(v))
                    | WalkStep::UnnestSet(Some(v))
                    | WalkStep::IndexVar(v)
                    | WalkStep::Bind(v) => {
                        out.insert(*v);
                    }
                    _ => {}
                }
            }
        }
        match self {
            Op::Unit => {}
            Op::Root { out: o, .. } => {
                out.insert(*o);
            }
            Op::Walk {
                input,
                start,
                steps,
                out: o,
            } => {
                out.insert(*start);
                step_vars(steps, out);
                out.extend(o.iter().copied());
                input.collect_vars(out);
            }
            Op::IndexPathScan(scan) => {
                out.insert(scan.start);
                if let Some(Some(b)) = scan.lead {
                    out.insert(b);
                }
                out.extend(scan.tail.iter().copied());
                out.extend(scan.out.iter().copied());
                step_vars(&scan.steps, out);
                scan.input.collect_vars(out);
            }
            Op::Filter { input, atom } => {
                atom.vars(out);
                input.collect_vars(out);
            }
            Op::Assign { input, var, term } => {
                out.insert(*var);
                term.vars(out);
                input.collect_vars(out);
            }
            Op::Union(branches) => {
                for b in branches {
                    b.collect_vars(out);
                }
            }
            Op::AntiSemi { input, sub } | Op::Semi { input, sub } => {
                input.collect_vars(out);
                sub.collect_vars(out);
            }
            Op::Project { input, vars } => {
                out.extend(vars.iter().copied());
                input.collect_vars(out);
            }
            Op::Pipe(first, second) => {
                first.collect_vars(out);
                second.collect_vars(out);
            }
        }
    }

    /// Count operators (diagnostics / benches).
    pub fn size(&self) -> usize {
        match self {
            Op::Unit | Op::Root { .. } => 1,
            Op::Walk { input, .. }
            | Op::Filter { input, .. }
            | Op::Assign { input, .. }
            | Op::Project { input, .. } => 1 + input.size(),
            Op::IndexPathScan(scan) => 1 + scan.input.size(),
            Op::Union(branches) => 1 + branches.iter().map(Op::size).sum::<usize>(),
            Op::AntiSemi { input, sub } | Op::Semi { input, sub } => 1 + input.size() + sub.size(),
            Op::Pipe(first, second) => 1 + first.size() + second.size(),
        }
    }
}

/// An atom's variables and the slot row its evaluation binds in place,
/// made once per operator run rather than once per row.
struct Slots {
    vars: Vec<Var>,
    row: Vec<Option<CalcValue>>,
}

impl Slots {
    fn new(atom: &Atom) -> Slots {
        let mut vars = BTreeSet::new();
        atom.vars(&mut vars);
        let row = vec![None; vars.last().map_or(0, |v| *v as usize + 1)];
        Slots {
            vars: vars.into_iter().collect(),
            row,
        }
    }

    /// The slot row holding `from`'s binding of each of the atom's
    /// variables.
    fn load(&mut self, from: &Row) -> &mut Vec<Option<CalcValue>> {
        for v in &self.vars {
            self.row[*v as usize] = from.get(v).cloned();
        }
        &mut self.row
    }
}

/// The pre-order id of `node`'s `k`-th child, or `0` (never read) when no
/// profile is attached.
#[inline]
fn child_id(ctx: ExecCtx<'_>, node: usize, k: usize) -> usize {
    match ctx.profile {
        Some(p) => p.child(node, k),
        None => 0,
    }
}

/// Emit one index-backed row: apply the trailing `Bind` semantics (an
/// already-bound variable is an equality check, an unbound one binds) and
/// the optional output binding, mirroring the tail of [`walk`].
fn emit_indexed(
    target: &Value,
    mut row: Row,
    tail: &[Var],
    out: Option<Var>,
    result: &mut Vec<Row>,
) {
    for v in tail {
        match row.get(v) {
            Some(CalcValue::Data(existing)) => {
                if existing != target {
                    return;
                }
            }
            Some(_) => return,
            None => {
                row.insert(*v, CalcValue::Data(target.clone()));
            }
        }
    }
    if let Some(o) = out {
        row.insert(o, CalcValue::Data(target.clone()));
    }
    result.push(row);
}

/// Navigate `steps` from `value`, extending `row` (indices, binders) and
/// pushing finished rows.
fn walk(
    instance: &Instance,
    value: &Value,
    steps: &[WalkStep],
    row: Row,
    out: Option<Var>,
    guard: Option<&docql_guard::Guard>,
    result: &mut Vec<Row>,
) {
    // Each visited value is one unit of path fuel; once the guard trips the
    // whole recursion unwinds fast (the trip is sticky) and the enclosing
    // operator loop converts it into a stop or an abort.
    if let Some(g) = guard {
        if g.fuel(1).interrupted() {
            return;
        }
    }
    let Some(step) = steps.first() else {
        let mut row = row;
        if let Some(v) = out {
            row.insert(v, CalcValue::Data(value.clone()));
        }
        result.push(row);
        return;
    };
    let rest = &steps[1..];
    match step {
        WalkStep::Attr(a) => {
            if let Some(v) = attr_select(value, *a) {
                walk(instance, v, rest, row, out, guard, result);
            }
        }
        WalkStep::Deref => {
            if let Value::Oid(o) = value {
                if let Ok(v) = instance.value_of(*o) {
                    walk(instance, v, rest, row, out, guard, result);
                }
            }
        }
        WalkStep::Index(i) => {
            if let Some(v) = index_select(value, *i) {
                walk(instance, &v, rest, row, out, guard, result);
            }
        }
        WalkStep::IndexVar(var) => {
            if let Some(CalcValue::Data(Value::Int(n))) = row.get(var) {
                if let Ok(i) = usize::try_from(*n) {
                    if let Some(v) = index_select(value, i) {
                        walk(instance, &v, rest, row.clone(), out, guard, result);
                    }
                }
            }
        }
        WalkStep::UnnestList(idx_var) => {
            let items = list_items(value);
            for (i, item) in items.iter().enumerate() {
                let mut r = row.clone();
                if let Some(v) = idx_var {
                    r.insert(*v, CalcValue::Data(Value::Int(i as i64)));
                }
                walk(instance, item, rest, r, out, guard, result);
            }
        }
        WalkStep::UnnestSet(elem_var) => {
            if let Value::Set(items) = deref1(instance, value) {
                for item in items {
                    let mut r = row.clone();
                    if let Some(v) = elem_var {
                        r.insert(*v, CalcValue::Data(item.clone()));
                    }
                    walk(instance, &item, rest, r, out, guard, result);
                }
            }
        }
        WalkStep::UnnestColl => {
            // deref1 already looks through oids and union markers.
            if let Value::List(items) | Value::Set(items) = deref1(instance, value) {
                for item in items {
                    walk(instance, &item, rest, row.clone(), out, guard, result);
                }
            }
        }
        WalkStep::Bind(v) => {
            // An already-bound variable acts as an equality check (e.g. the
            // shared X in ¬∃Q⟨Old_Doc Q·title(X)⟩).
            match row.get(v) {
                Some(CalcValue::Data(existing)) => {
                    if existing == value {
                        walk(instance, value, rest, row.clone(), out, guard, result);
                    }
                }
                Some(_) => {}
                None => {
                    let mut r = row;
                    r.insert(*v, CalcValue::Data(value.clone()));
                    walk(instance, value, rest, r, out, guard, result);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docql_calculus::Interp;
    use docql_model::{ClassDef, Schema, Type};
    use std::sync::Arc;

    fn inst() -> Instance {
        let schema = Arc::new(
            Schema::builder()
                .class(ClassDef::new(
                    "Item",
                    Type::tuple([("name", Type::String), ("price", Type::Integer)]),
                ))
                .root("Items", Type::list(Type::class("Item")))
                .build()
                .unwrap(),
        );
        let mut i = Instance::new(schema);
        let mut items = Vec::new();
        for (n, p) in [("apple", 3), ("pear", 5), ("fig", 9)] {
            let o = i
                .new_object(
                    "Item",
                    Value::tuple([("name", Value::str(n)), ("price", Value::Int(p))]),
                )
                .unwrap();
            items.push(Value::Oid(o));
        }
        i.set_root("Items", Value::List(items)).unwrap();
        i
    }

    #[test]
    fn scan_unnest_filter_project() {
        let instance = inst();
        let interp = Interp::with_builtins();
        let ev = Evaluator::new(&instance, &interp);
        // Items[*](x).price > 4, project name.
        let plan = Op::Project {
            vars: vec![2],
            input: Box::new(Op::Walk {
                start: 1,
                steps: vec![WalkStep::Deref, WalkStep::Attr(docql_model::sym("name"))],
                out: Some(2),
                input: Box::new(Op::Filter {
                    atom: Atom::Pred(
                        docql_model::sym(">"),
                        vec![
                            DataTerm::PathApp(
                                Box::new(DataTerm::Var(1)),
                                docql_calculus::PathTerm(vec![docql_calculus::PathAtom::Attr(
                                    docql_calculus::AttrTerm::Name(docql_model::sym("price")),
                                )]),
                            ),
                            DataTerm::Const(Value::Int(4)),
                        ],
                    ),
                    input: Box::new(Op::Walk {
                        start: 0,
                        steps: vec![WalkStep::UnnestList(None)],
                        out: Some(1),
                        input: Box::new(Op::Root {
                            name: docql_model::sym("Items"),
                            out: 0,
                        }),
                    }),
                }),
            }),
        };
        let rows = plan.execute(&instance, &ev).unwrap();
        let names: Vec<String> = rows
            .iter()
            .map(|r| match r.get(&2) {
                Some(CalcValue::Data(Value::Str(s))) => s.clone(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(names, vec!["pear".to_string(), "fig".to_string()]);
    }

    #[test]
    fn union_and_antisemi() {
        let instance = inst();
        let interp = Interp::with_builtins();
        let ev = Evaluator::new(&instance, &interp);
        let scan = |out| Op::Walk {
            start: 0,
            steps: vec![WalkStep::UnnestList(None)],
            out: Some(out),
            input: Box::new(Op::Root {
                name: docql_model::sym("Items"),
                out: 0,
            }),
        };
        // Union duplicates the stream: 6 rows.
        let u = Op::Union(vec![scan(1), scan(1)]);
        assert_eq!(u.execute(&instance, &ev).unwrap().len(), 6);
        // AntiSemi with an always-succeeding sub: empty.
        let anti = Op::AntiSemi {
            input: Box::new(scan(1)),
            sub: Box::new(Op::Unit),
        };
        assert!(anti.execute(&instance, &ev).unwrap().is_empty());
        // Semi with an always-succeeding sub: identity.
        let semi = Op::Semi {
            input: Box::new(scan(1)),
            sub: Box::new(Op::Unit),
        };
        assert_eq!(semi.execute(&instance, &ev).unwrap().len(), 3);
    }

    #[test]
    fn walk_binds_indices() {
        let instance = inst();
        let interp = Interp::with_builtins();
        let ev = Evaluator::new(&instance, &interp);
        let plan = Op::Walk {
            start: 0,
            steps: vec![
                WalkStep::UnnestList(Some(9)),
                WalkStep::Deref,
                WalkStep::Attr(docql_model::sym("price")),
            ],
            out: Some(1),
            input: Box::new(Op::Root {
                name: docql_model::sym("Items"),
                out: 0,
            }),
        };
        let rows = plan.execute(&instance, &ev).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].get(&9), Some(&CalcValue::Data(Value::Int(2))));
        assert_eq!(rows[2].get(&1), Some(&CalcValue::Data(Value::Int(9))));
    }

    #[test]
    fn explain_renders_tree() {
        let plan = Op::Project {
            vars: vec![1],
            input: Box::new(Op::Root {
                name: docql_model::sym("Items"),
                out: 1,
            }),
        };
        let text = plan.explain();
        assert!(text.contains("Project #1"));
        assert!(text.contains("Root Items -> #1"));
        assert_eq!(plan.size(), 2);
    }
}
