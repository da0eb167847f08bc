//! The query engine façade: parse → translate → (type-check) → evaluate.

use crate::cache::{CachedPlan, PlanCache};
use crate::metrics::{EngineMetrics, QueryProfile};
use crate::parser::parse;
use crate::translate::{translate, Translated};
use crate::O2sqlError;
use docql_algebra::{Algebraized, PlanProfile};
use docql_calculus::{infer_types, CalcValue, Evaluator, Interp, TypeInfo};
use docql_model::Instance;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use crate::ast::SetOpKind;

/// Per-operator spans a traced query keeps individually; deeper plans
/// collapse the tail into one aggregate span (see
/// [`PlanProfile::op_spans`]). Generalized-path queries can fan out to
/// thousands of union branches, and an unbounded span list would dominate
/// both the tracing overhead and the flight-recorder ring's memory.
pub const MAX_TRACE_OP_SPANS: usize = 64;

/// A query result: labelled columns and deduplicated rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Column labels.
    pub columns: Vec<String>,
    /// Rows (sets — duplicates eliminated, order unspecified but stable).
    pub rows: Vec<Vec<CalcValue>>,
    /// `Some(trip)` when the query ran under a resource governor in
    /// **degrade** mode and a limit tripped: `rows` is then a correct but
    /// possibly incomplete prefix of the answer, flagged rather than
    /// silently truncated. `None` for every complete result.
    pub partial: Option<docql_guard::ExecError>,
}

impl QueryResult {
    /// Is this a flagged partial result (degrade mode, limit tripped)?
    pub fn is_partial(&self) -> bool {
        self.partial.is_some()
    }

    /// Single-column results as a vector of values.
    pub fn values(&self) -> Vec<CalcValue> {
        self.rows
            .iter()
            .filter_map(|r| r.first().cloned())
            .collect()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the result empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as simple aligned text (for the repro binary and examples).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.table_header());
        for r in self.rendered_rows() {
            out.push_str(&r);
            out.push('\n');
        }
        out
    }

    /// The two header lines of [`QueryResult::to_table`] (column names and
    /// the dash rule), newline-terminated.
    pub fn table_header(&self) -> String {
        let head = self.columns.join(" | ");
        let rule = "-".repeat(head.len().max(4));
        format!("{head}\n{rule}\n")
    }

    /// The body rows of [`QueryResult::to_table`], rendered and sorted but
    /// not newline-terminated. Shared with the serving tier's chunked
    /// streaming writer, which is what keeps streamed bodies byte-identical
    /// to in-process `to_table()` output.
    pub fn rendered_rows(&self) -> Vec<String> {
        let mut rendered: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(" | ")
            })
            .collect();
        rendered.sort();
        rendered
    }
}

/// Evaluation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// The calculus interpreter (run-time path enumeration).
    #[default]
    Interpret,
    /// The §5.4 algebraization (schema-derived unions of path-free plans).
    Algebraic,
}

/// The O₂SQL engine over an instance.
pub struct Engine<'a> {
    instance: &'a Instance,
    interp: &'a Interp,
    /// Evaluation strategy.
    pub mode: Mode,
    /// Path-variable semantics (§5.2): restricted (default) or liberal.
    /// The algebraic mode only supports the restricted semantics — under
    /// the liberal one candidate sets are data-bounded and the paper notes
    /// the algebra "should include some form of transitive closure".
    pub semantics: docql_paths::PathSemantics,
    /// Path-extent index for the algebraic mode. When set, `IndexPathScan`
    /// operators read precomputed extents instead of walking the object
    /// graph; `None` (the default) makes every plan walk. The same compiled
    /// (and cached) plans serve both settings — the choice is resolved at
    /// evaluation time.
    pub extents: Option<&'a docql_paths::PathExtentIndex>,
    /// Query-lifecycle metrics. Like `extents`, instrumentation is attached
    /// per engine: `None` (the default) costs nothing, and an attached
    /// `EngineMetrics` whose registry is disabled costs one relaxed atomic
    /// load per query.
    pub metrics: Option<&'a EngineMetrics>,
    /// Resource governor for query execution: deadline, row budget, path
    /// fuel and cooperative cancellation (see [`docql_guard::Guard`]).
    /// `None` (the default) costs nothing on any execution path. Attach a
    /// fresh guard per query — trips are sticky. After evaluation the
    /// engine reads [`docql_guard::Guard::trip`] back: in strict mode a
    /// trip becomes [`crate::O2sqlError::Interrupted`], in degrade mode a
    /// flagged partial [`QueryResult`].
    pub guard: Option<&'a docql_guard::Guard>,
    /// Live statistics for cost-based planning. When set, algebraization
    /// chooses access paths, orders union branches and selection conjuncts
    /// by estimated cost, and records per-operator estimates in the plan;
    /// cached plans are stamped with the stats version they were planned
    /// against, and the engine invalidates a cached plan when observed
    /// rows diverge from its estimates while fresher statistics exist
    /// (feedback re-planning). `None` (the default) is the heuristic
    /// planner: textual order, no estimates.
    pub stats: Option<&'a dyn docql_algebra::StatsSource>,
    /// Structured trace under construction for this query (the flight
    /// recorder path). When attached, the engine stamps phase timings,
    /// plan-cache and re-plan outcomes, and per-operator spans with
    /// est-vs-actual rows into it. `None` (the default) costs nothing.
    pub trace: Option<&'a docql_obs::TraceBuilder>,
}

impl<'a> Engine<'a> {
    /// Engine with the interpreter strategy.
    pub fn new(instance: &'a Instance, interp: &'a Interp) -> Engine<'a> {
        Engine {
            instance,
            interp,
            mode: Mode::Interpret,
            semantics: docql_paths::PathSemantics::Restricted,
            extents: None,
            metrics: None,
            guard: None,
            stats: None,
            trace: None,
        }
    }

    /// Run a query under per-call limits: builds a fresh
    /// [`docql_guard::Guard`] from `limits` and evaluates with it attached
    /// (plain [`Engine::run`] when `limits` is all-`None`).
    pub fn run_with_limits(
        &self,
        src: &str,
        limits: &docql_guard::QueryLimits,
    ) -> Result<QueryResult, O2sqlError> {
        if limits.is_none() {
            return self.run(src);
        }
        let guard = docql_guard::Guard::new(limits);
        let limited = Engine {
            guard: Some(&guard),
            ..*self
        };
        limited.run(src)
    }

    /// Classify an evaluation outcome against the attached guard: the
    /// sticky trip is the authoritative signal (inner errors are stringly),
    /// so a tripped strict-mode guard yields
    /// [`O2sqlError::Interrupted`] whatever the inner rows said, and a
    /// tripped degrade-mode guard turns an `Ok` into a flagged partial.
    fn classify(
        &self,
        r: Result<Vec<Vec<CalcValue>>, O2sqlError>,
    ) -> Result<(Vec<Vec<CalcValue>>, Option<docql_guard::ExecError>), O2sqlError> {
        let Some(g) = self.guard else {
            return r.map(|rows| (rows, None));
        };
        match (r, g.trip()) {
            (Err(_), Some(e)) => Err(O2sqlError::Interrupted(e)),
            (Err(e), None) => Err(e),
            (Ok(rows), Some(e)) if g.degrades() => Ok((rows, Some(e))),
            (Ok(_), Some(e)) => Err(O2sqlError::Interrupted(e)),
            (Ok(rows), None) => Ok((rows, None)),
        }
    }

    /// The metrics to record into, if any — the per-query enable gate.
    #[inline]
    fn obs(&self) -> Option<&'a EngineMetrics> {
        self.metrics.filter(|m| m.enabled())
    }

    /// Parse, translate, and evaluate a query.
    pub fn run(&self, src: &str) -> Result<QueryResult, O2sqlError> {
        let translated = self.parse_translate(src)?;
        self.eval_translated(&translated)
    }

    /// Parse then translate, recording the two phase timings when metrics
    /// are attached and enabled, and into the trace when one is attached.
    fn parse_translate(&self, src: &str) -> Result<Translated, O2sqlError> {
        let m = self.obs();
        if m.is_none() && self.trace.is_none() {
            let ast = parse(src)?;
            return translate(&ast, self.instance.schema());
        }
        let t0 = Instant::now();
        let ast = parse(src)?;
        let parsed = t0.elapsed();
        let t1 = Instant::now();
        let translated = translate(&ast, self.instance.schema());
        let translated_d = t1.elapsed();
        if let Some(m) = m {
            m.parse_ns.record_duration(parsed);
            m.translate_ns.record_duration(translated_d);
        }
        if let Some(tb) = self.trace {
            tb.phase("parse", parsed);
            tb.phase("translate", translated_d);
        }
        translated
    }

    /// Run `f` as the execute phase: counts the query and records the
    /// execute histogram when metrics are attached and enabled, and stamps
    /// the execute phase into the trace when one is attached.
    fn timed_execute<T>(&self, f: impl FnOnce() -> Result<T, O2sqlError>) -> Result<T, O2sqlError> {
        let m = self.obs();
        if let Some(m) = m {
            m.queries.inc();
        }
        if m.is_none() && self.trace.is_none() {
            return f();
        }
        let t0 = Instant::now();
        let result = f();
        let elapsed = t0.elapsed();
        if let Some(m) = m {
            m.execute_ns.record_duration(elapsed);
        }
        if let Some(tb) = self.trace {
            tb.phase("execute", elapsed);
        }
        result
    }

    /// Evaluate a query through a plan cache: on a hit the lex → parse →
    /// translate (and, in algebraic mode, algebraization) work is skipped
    /// and only evaluation runs. Results are identical to [`Engine::run`].
    pub fn run_cached(&self, src: &str, cache: &PlanCache) -> Result<QueryResult, O2sqlError> {
        let plan = match self.trace {
            None => cache.get_or_compile(src, || self.compile_plan(src))?,
            // Traced path: the same lookup → compile → insert sequence
            // `get_or_compile` performs (hit/miss counters included), with
            // the outcome stamped into the trace.
            Some(tb) => match cache.lookup(src) {
                Some(plan) => {
                    tb.set_cache(true);
                    plan
                }
                None => {
                    tb.set_cache(false);
                    let plan = Arc::new(self.compile_plan(src)?);
                    cache.insert(src, Arc::clone(&plan));
                    plan
                }
            },
        };
        self.eval_plan(&plan)
    }

    /// Compile a query into a cacheable plan (parse + translate; algebraic
    /// plans are added lazily on the first algebraic run).
    pub fn compile_plan(&self, src: &str) -> Result<CachedPlan, O2sqlError> {
        Ok(CachedPlan::new(self.parse_translate(src)?))
    }

    /// Evaluate an already-compiled plan (see [`Engine::compile_plan`]).
    pub fn eval_plan(&self, plan: &CachedPlan) -> Result<QueryResult, O2sqlError> {
        match self.mode {
            Mode::Interpret => self.eval_translated(&plan.translated),
            Mode::Algebraic => {
                // Time the algebraization only when it actually runs; a
                // memoised plan would otherwise record a no-op sample on
                // every cached execution.
                let fresh = !plan.is_algebraized();
                let timed = fresh && (self.obs().is_some() || self.trace.is_some());
                let (plans, planned_version) = if timed {
                    let t0 = Instant::now();
                    let plans = plan.algebra_plans(self.instance.schema(), self.stats);
                    let elapsed = t0.elapsed();
                    if let Some(m) = self.obs() {
                        m.algebraize_ns.record_duration(elapsed);
                        if self.stats.is_some() && plans.is_ok() {
                            m.plans_costed.inc();
                        }
                    }
                    if let Some(tb) = self.trace {
                        tb.phase("algebraize", elapsed);
                    }
                    plans?
                } else {
                    plan.algebra_plans(self.instance.schema(), self.stats)?
                };
                // A traced run carries per-operator profiles (the same
                // shape `profile()` builds) so the trace gets operator
                // spans with est-vs-actual rows. Untimed: per-op clock
                // reads would blow the tracing overhead budget; op wall
                // times stay at zero unless metrics are also recording.
                // The profile numbering and span labels come from the
                // plan's cached trace shape, so a traced cached run adds
                // one zeroed allocation per plan, not a tree walk.
                let profiles: Option<Vec<PlanProfile>> = self.trace.map(|_| {
                    plans
                        .iter()
                        .map(|a| {
                            let ts = a.trace_shape(MAX_TRACE_OP_SPANS);
                            PlanProfile::from_shape(
                                Arc::clone(&ts.shape),
                                false,
                                MAX_TRACE_OP_SPANS,
                            )
                        })
                        .collect()
                });
                let (rows, partial) = self.classify(self.timed_execute(|| {
                    self.eval_rows_with(
                        &plan.translated,
                        Some(plans.as_slice()),
                        &mut 0,
                        profiles.as_deref(),
                    )
                }))?;
                if let (Some(tb), Some(profiles)) = (self.trace, &profiles) {
                    let mut spans = Vec::new();
                    for (a, p) in plans.iter().zip(profiles) {
                        let ts = a.trace_shape(MAX_TRACE_OP_SPANS);
                        spans.extend(p.op_spans_with_labels(&ts.labels, a.estimates.as_ref()));
                    }
                    tb.set_operators(spans);
                    if self.stats.is_some() {
                        tb.set_stats_version(planned_version);
                    }
                }
                self.check_replan(plan, &plans, planned_version, rows.len());
                Ok(QueryResult {
                    columns: plan.translated.columns.clone(),
                    rows,
                    partial,
                })
            }
        }
    }

    /// Feedback re-planning: compare the rows a cached plan actually
    /// produced against its planner estimates, and when they diverge by
    /// more than [`docql_algebra::REPLAN_DIVERGENCE`] *and* the store's
    /// statistics have moved since the plan was costed, invalidate the
    /// plan's algebra slot so the next run re-plans against fresh stats.
    /// Divergence alone (stats unchanged) never invalidates — re-planning
    /// on the same statistics would rebuild the same plan.
    fn check_replan(
        &self,
        plan: &CachedPlan,
        plans: &[Arc<Algebraized>],
        planned_version: u64,
        observed: usize,
    ) {
        let Some(stats) = self.stats else { return };
        let mut estimated = 0.0;
        let mut any = false;
        for a in plans {
            if let Some(e) = &a.estimates {
                estimated += e.root_rows();
                any = true;
            }
        }
        if !any {
            return;
        }
        // +1 on both sides: estimates and results of 0 are common and must
        // not divide by zero or declare infinite divergence against 1 row.
        let ratio = (observed as f64 + 1.0) / (estimated + 1.0);
        if let Some(m) = self.obs() {
            m.estimate_error_pct.record((ratio * 100.0) as u64);
        }
        let diverged = !(docql_algebra::REPLAN_DIVERGENCE.recip()
            ..=docql_algebra::REPLAN_DIVERGENCE)
            .contains(&ratio);
        if diverged && stats.version() != planned_version {
            plan.invalidate();
            if let Some(m) = self.obs() {
                m.replans.inc();
            }
            if let Some(tb) = self.trace {
                tb.set_replanned();
                tb.event(
                    "replan",
                    format!(
                        "estimated={estimated:.0} observed={observed} planned_version={planned_version} stats_version={}",
                        stats.version()
                    ),
                );
            }
        }
    }

    /// Parse and translate only — exposes the calculus query (for EXPLAIN,
    /// tests, and the bench harness).
    pub fn compile(&self, src: &str) -> Result<Translated, O2sqlError> {
        let ast = parse(src)?;
        translate(&ast, self.instance.schema())
    }

    /// EXPLAIN: the calculus translation and, when algebraizable, the
    /// compiled §5.4 plan tree.
    pub fn explain(&self, src: &str) -> Result<String, O2sqlError> {
        let ast = parse(src)?;
        let translated = translate(&ast, self.instance.schema())?;
        let mut out = String::new();
        out.push_str("calculus: ");
        out.push_str(&translated.query.to_string());
        out.push('\n');
        out.push_str(if self.extents.is_some() {
            "path-extent index: attached (IndexPathScan reads extents, walk on fallback)\n"
        } else {
            "path-extent index: not attached (every IndexPathScan walks)\n"
        });
        match self.stats {
            Some(s) => out.push_str(&format!(
                "planner: cost-based (stats version {})\n",
                s.version()
            )),
            None => out.push_str("planner: heuristic (no statistics attached)\n"),
        }
        match docql_algebra::algebraize_with_stats(
            &translated.query,
            self.instance.schema(),
            self.stats,
        ) {
            Ok(a) => {
                out.push_str(&format!(
                    "algebra plan ({} operators, {} branch(es)):
",
                    a.plan.size(),
                    a.branches.len()
                ));
                match &a.estimates {
                    Some(est) => out.push_str(&est.render(&a.plan)),
                    None => out.push_str(&a.plan.explain()),
                }
            }
            Err(e) => {
                out.push_str(&format!(
                    "not algebraizable: {e}
"
                ));
            }
        }
        Ok(out)
    }

    /// Static type-check (§4.2/§5.3): runs inference and reports errors —
    /// path patterns no schema path can satisfy, and collection
    /// constructors whose elements have no common supertype ("sets
    /// containing integers and characters are forbidden").
    pub fn check(&self, src: &str) -> Result<TypeInfo, O2sqlError> {
        let ast = parse(src)?;
        let translated = translate(&ast, self.instance.schema())?;
        let mut info = infer_types(&translated.query, self.instance.schema());
        check_constructors(
            &translated.query.body,
            &info.var_types.clone(),
            self.instance.schema(),
            &mut info.errors,
        );
        Ok(info)
    }

    fn eval_translated(&self, t: &Translated) -> Result<QueryResult, O2sqlError> {
        let (rows, partial) = self.classify(self.timed_execute(|| self.eval_rows(t)))?;
        Ok(QueryResult {
            columns: t.columns.clone(),
            rows,
            partial,
        })
    }

    fn eval_rows(&self, t: &Translated) -> Result<Vec<Vec<CalcValue>>, O2sqlError> {
        self.eval_rows_with(t, None, &mut 0, None)
    }

    /// Evaluate a translated query's set-op chain. When `plans` is given
    /// (the cached-plan path), the algebraic mode consumes one
    /// pre-algebraized plan per chain node in pre-order via `pos` instead
    /// of re-running the §5.4 algebraization. `profiles`, when given, is
    /// aligned with `plans` and attaches a per-operator profile to each
    /// plan execution (the `EXPLAIN ANALYZE` path).
    fn eval_rows_with(
        &self,
        t: &Translated,
        plans: Option<&[Arc<Algebraized>]>,
        pos: &mut usize,
        profiles: Option<&[PlanProfile]>,
    ) -> Result<Vec<Vec<CalcValue>>, O2sqlError> {
        let left = match self.mode {
            Mode::Interpret => {
                let mut ev = Evaluator::new(self.instance, self.interp);
                ev.semantics = self.semantics;
                ev.guard = self.guard;
                ev.eval_query(&t.query)
                    .map_err(|e| O2sqlError::Eval(e.to_string()))?
            }
            Mode::Algebraic => {
                if self.semantics == docql_paths::PathSemantics::Liberal {
                    return Err(O2sqlError::Eval(
                        "the algebraic mode requires the restricted path                          semantics (liberal candidate sets are data-bounded;                          §5.4)"
                            .to_string(),
                    ));
                }
                let ctx = docql_algebra::ExecCtx {
                    extents: self.extents,
                    profile: profiles.and_then(|ps| ps.get(*pos)),
                    metrics: self.obs().map(|m| &m.algebra),
                    guard: self.guard,
                };
                match plans.and_then(|ps| ps.get(*pos)) {
                    Some(plan) => {
                        *pos += 1;
                        docql_algebra::eval_plan_with(
                            plan,
                            &t.query,
                            self.instance,
                            self.interp,
                            ctx,
                        )
                        .map_err(|e| O2sqlError::Eval(e.to_string()))?
                    }
                    None => {
                        // Uncached run: algebraize now, with the same
                        // statistics a cached run would plan against.
                        let a = docql_algebra::algebraize_with_stats(
                            &t.query,
                            self.instance.schema(),
                            self.stats,
                        )
                        .map_err(|e| O2sqlError::Eval(e.to_string()))?;
                        docql_algebra::eval_plan_with(&a, &t.query, self.instance, self.interp, ctx)
                            .map_err(|e| O2sqlError::Eval(e.to_string()))?
                    }
                }
            }
        };
        match &t.set_op {
            None => Ok(left),
            Some((op, right)) => {
                let right_rows: BTreeSet<Vec<CalcValue>> = self
                    .eval_rows_with(right, plans, pos, profiles)?
                    .into_iter()
                    .collect();
                Ok(combine_set_op(*op, left, right_rows))
            }
        }
    }

    /// Profile one query end to end: parse, translate, algebraize, and
    /// execute it **algebraically** with a per-operator [`PlanProfile`]
    /// attached to every plan in the set-op chain, timing each phase. The
    /// result rows are the real query answer. Queries that cannot be
    /// algebraized fall back to the calculus interpreter and say so in
    /// [`QueryProfile::note`] (no per-operator statistics then — the
    /// interpreter has no plan).
    ///
    /// Profiling ignores `self.mode` (it exists to show plan behaviour) but
    /// honours `self.extents`, so the report reflects the index-versus-walk
    /// choices the store would actually make.
    pub fn profile(&self, src: &str) -> Result<QueryProfile, O2sqlError> {
        let t_total = Instant::now();
        let mut phases = Vec::new();
        let t0 = Instant::now();
        let ast = parse(src)?;
        phases.push(("parse", t0.elapsed()));
        let t0 = Instant::now();
        let translated = translate(&ast, self.instance.schema())?;
        phases.push(("translate", t0.elapsed()));

        // Algebraize the whole set-op chain up front (pre-order, the same
        // order eval_rows_with consumes).
        let t0 = Instant::now();
        let mut chain = Vec::new();
        let mut node = Some(&translated);
        let mut algebra_err = None;
        while let Some(t) = node {
            match docql_algebra::algebraize_with_stats(&t.query, self.instance.schema(), self.stats)
            {
                Ok(a) => chain.push(Arc::new(a)),
                Err(e) => {
                    algebra_err = Some(e);
                    break;
                }
            }
            node = t.set_op.as_ref().map(|(_, right)| &**right);
        }
        phases.push(("algebraize", t0.elapsed()));

        // Execution runs on a shadow engine so profiling works regardless
        // of the engine's configured mode.
        let mut shadow = Engine {
            instance: self.instance,
            interp: self.interp,
            mode: Mode::Algebraic,
            semantics: self.semantics,
            extents: self.extents,
            metrics: self.metrics,
            guard: self.guard,
            stats: self.stats,
            trace: self.trace,
        };
        let (rows, partial, plans, note) = match algebra_err {
            None => {
                let profiles: Vec<PlanProfile> =
                    chain.iter().map(|a| PlanProfile::new(&a.plan)).collect();
                let t0 = Instant::now();
                let (rows, partial) = shadow.classify(shadow.timed_execute(|| {
                    shadow.eval_rows_with(&translated, Some(&chain), &mut 0, Some(&profiles))
                }))?;
                phases.push(("execute", t0.elapsed()));
                let plans = chain.into_iter().zip(profiles).collect();
                (rows, partial, plans, None)
            }
            Some(e) => {
                shadow.mode = Mode::Interpret;
                let t0 = Instant::now();
                let (rows, partial) =
                    shadow.classify(shadow.timed_execute(|| shadow.eval_rows(&translated)))?;
                phases.push(("execute", t0.elapsed()));
                let note = format!(
                    "not algebraizable ({e}); executed by the calculus interpreter                      — no per-operator statistics"
                );
                (rows, partial, Vec::new(), Some(note))
            }
        };
        Ok(QueryProfile {
            result: QueryResult {
                columns: translated.columns.clone(),
                rows,
                partial,
            },
            phases,
            plans,
            note,
            total: t_total.elapsed(),
        })
    }
}

/// Combine a set-op chain node: `left` from the current query, `right_rows`
/// from the rest of the chain. Order of `left` is preserved; union appends
/// unseen right rows.
fn combine_set_op(
    op: SetOpKind,
    left: Vec<Vec<CalcValue>>,
    right_rows: BTreeSet<Vec<CalcValue>>,
) -> Vec<Vec<CalcValue>> {
    match op {
        SetOpKind::Difference => left
            .into_iter()
            .filter(|r| !right_rows.contains(r))
            .collect(),
        SetOpKind::Intersect => left
            .into_iter()
            .filter(|r| right_rows.contains(r))
            .collect(),
        SetOpKind::Union => {
            let mut seen: BTreeSet<Vec<CalcValue>> = left.iter().cloned().collect();
            let mut out = left;
            for r in right_rows {
                if seen.insert(r.clone()) {
                    out.push(r);
                }
            }
            out
        }
    }
}

/// §4.2 collection-construction rule: elements of a constructed list/set
/// must share a common supertype — in particular, unions never mix with
/// non-unions (rule 1), and unions join only without marker conflicts
/// (rule 2).
fn check_constructors(
    f: &docql_calculus::Formula,
    var_types: &std::collections::BTreeMap<docql_calculus::Var, docql_model::Type>,
    schema: &docql_model::Schema,
    errors: &mut Vec<String>,
) {
    use docql_calculus::{Atom, DataTerm, Formula};
    fn term_type(
        t: &DataTerm,
        var_types: &std::collections::BTreeMap<docql_calculus::Var, docql_model::Type>,
    ) -> Option<docql_model::Type> {
        use docql_model::{Type, Value};
        match t {
            DataTerm::Const(Value::Int(_)) => Some(Type::Integer),
            DataTerm::Const(Value::Float(_)) => Some(Type::Float),
            DataTerm::Const(Value::Bool(_)) => Some(Type::Boolean),
            DataTerm::Const(Value::Str(_)) => Some(Type::String),
            DataTerm::Var(v) => var_types.get(v).cloned(),
            _ => None,
        }
    }
    fn walk_term(
        t: &DataTerm,
        var_types: &std::collections::BTreeMap<docql_calculus::Var, docql_model::Type>,
        schema: &docql_model::Schema,
        errors: &mut Vec<String>,
    ) {
        match t {
            DataTerm::List(items) | DataTerm::Set(items) => {
                let ops = schema.type_ops();
                let mut joined: Option<docql_model::Type> = None;
                for item in items {
                    walk_term(item, var_types, schema, errors);
                    let Some(ty) = term_type(item, var_types) else {
                        continue;
                    };
                    joined = Some(match joined {
                        None => ty,
                        Some(prev) => match ops.common_supertype(&prev, &ty) {
                            Some(j) => j,
                            None => {
                                errors.push(format!(
                                    "collection constructor mixes {prev} and {ty},                                      which have no common supertype (§4.2)"
                                ));
                                return;
                            }
                        },
                    });
                }
            }
            DataTerm::Tuple(fields) => {
                for (_, x) in fields {
                    walk_term(x, var_types, schema, errors);
                }
            }
            DataTerm::Apply(_, args) => {
                for x in args {
                    walk_term(x, var_types, schema, errors);
                }
            }
            DataTerm::PathApp(base, _) => walk_term(base, var_types, schema, errors),
            _ => {}
        }
    }
    match f {
        Formula::Atom(a) => {
            let terms: Vec<&DataTerm> = match a {
                Atom::Eq(x, y) | Atom::In(x, y) | Atom::Subset(x, y) => vec![x, y],
                Atom::PathPred(t, _) => vec![t],
                Atom::Pred(_, args) => args.iter().collect(),
            };
            for t in terms {
                walk_term(t, var_types, schema, errors);
            }
        }
        Formula::And(fs) | Formula::Or(fs) => {
            for g in fs {
                check_constructors(g, var_types, schema, errors);
            }
        }
        Formula::Not(g) | Formula::Exists(_, g) | Formula::Forall(_, g) => {
            check_constructors(g, var_types, schema, errors);
        }
    }
}
