//! The query engine façade: parse → translate → (type-check) → evaluate.

use crate::cache::{AlgebraPlans, CachedPlan, PlanCache};
use crate::metrics::QueryProfile;
use crate::parser::parse;
use crate::translate::{translate, Translated};
use crate::O2sqlError;
use docql_algebra::{AlgebraError, Algebraized, PlanProfile};
use docql_calculus::{infer_types, CalcValue, Evaluator, Interp, RowSet, TypeInfo};
use docql_model::Instance;
use std::sync::Arc;
use std::time::Instant;

use crate::ast::SetOpKind;

/// Per-operator spans a traced query keeps individually; deeper plans
/// collapse the tail into one aggregate span (see
/// [`PlanProfile::op_spans`]). Generalized-path queries can fan out to
/// thousands of union branches, and an unbounded span list would dominate
/// both the tracing overhead and the flight-recorder ring's memory.
pub const MAX_TRACE_OP_SPANS: usize = 64;

/// An evaluated query with each executed algebra plan and its profile.
type Executed = (QueryResult, Vec<(Arc<Algebraized>, PlanProfile)>);

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
    /// not newline-terminated.
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
    /// Structured trace under construction for this query — the only
    /// record the engine writes timings into (metrics, the flight recorder,
    /// the slow log and `EXPLAIN ANALYZE` all read it). When attached, the
    /// engine stamps phase timings, plan-cache and re-plan outcomes, and
    /// per-operator spans with est-vs-actual rows into it. `None` (the
    /// default) costs nothing.
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
            guard: None,
            stats: None,
            trace: None,
        }
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

    /// Parse, translate, and evaluate a query (uncached: in algebraic mode
    /// the §5.4 algebraization runs on every call).
    pub fn run(&self, src: &str) -> Result<QueryResult, O2sqlError> {
        self.eval_plan(&self.compile_plan(src)?)
    }

    /// Run `f` as the lifecycle phase `name`, stamping its wall time into
    /// the trace when one is attached.
    fn phase<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(tb) = self.trace else {
            return f();
        };
        let t0 = Instant::now();
        let out = f();
        tb.phase(name, t0.elapsed());
        out
    }

    /// Evaluate a query through a plan cache: on a hit the lex → parse →
    /// translate (and, in algebraic mode, algebraization) work is skipped
    /// and only evaluation runs. Results are identical to [`Engine::run`].
    pub fn run_cached(&self, src: &str, cache: &PlanCache) -> Result<QueryResult, O2sqlError> {
        let (plan, hit) = cache.get_or_compile(src, || self.compile_plan(src))?;
        if let Some(tb) = self.trace {
            tb.set_cache(hit);
        }
        self.eval_plan(&plan)
    }

    /// Compile a query into a cacheable plan (parse + translate; algebraic
    /// plans are added lazily on the first algebraic run).
    pub fn compile_plan(&self, src: &str) -> Result<CachedPlan, O2sqlError> {
        let ast = self.phase("parse", || parse(src))?;
        let translated = self.phase("translate", || translate(&ast, self.instance.schema()))?;
        Ok(CachedPlan::new(translated))
    }

    /// Evaluate an already-compiled plan (see [`Engine::compile_plan`]).
    pub fn eval_plan(&self, plan: &CachedPlan) -> Result<QueryResult, O2sqlError> {
        self.execute(plan, false).map(|(result, _)| result)
    }

    /// The plan's algebraized set-op chain and the stats version it was
    /// planned against. The `algebraize` phase is stamped only when the
    /// algebraization actually runs — a memoised plan would otherwise
    /// record a no-op sample on every cached execution.
    fn algebraize(&self, plan: &CachedPlan) -> Result<(AlgebraPlans, u64), AlgebraError> {
        let (plans, version) = if plan.is_algebraized() {
            plan.algebra_plans(self.instance.schema(), self.stats)
        } else {
            self.phase("algebraize", || {
                plan.algebra_plans(self.instance.schema(), self.stats)
            })
        }?;
        if let (Some(tb), Some(_)) = (self.trace, self.stats) {
            tb.set_stats_version(version);
        }
        Ok((plans, version))
    }

    /// Evaluate `plan` in the engine's mode and, for an algebraic run,
    /// return each executed plan with its per-operator profile. A traced
    /// run profiles every plan and files the profiles into the trace as
    /// operator spans; `timed` (`EXPLAIN ANALYZE`) also times each
    /// operator and tracks all of them individually, where a plain trace
    /// counts rows untimed — per-op clock reads would blow the tracing
    /// overhead budget — and caps the tracked operators. The profile
    /// numbering and span labels come from the plan's cached trace shape,
    /// so a traced cached run adds one zeroed allocation per plan, not a
    /// tree walk.
    fn execute(&self, plan: &CachedPlan, timed: bool) -> Result<Executed, O2sqlError> {
        let algebra = match self.mode {
            Mode::Interpret => None,
            Mode::Algebraic => Some(
                self.algebraize(plan)
                    .map_err(|e| O2sqlError::Eval(e.to_string()))?,
            ),
        };
        let (plans, planned_version) = match &algebra {
            Some((plans, version)) => (plans.as_slice(), *version),
            None => (&[][..], 0),
        };
        let cap = if timed {
            usize::MAX
        } else {
            MAX_TRACE_OP_SPANS
        };
        let profiles: Vec<PlanProfile> = match self.trace {
            Some(_) => plans
                .iter()
                .map(|a| {
                    let ts = a.trace_shape(MAX_TRACE_OP_SPANS);
                    PlanProfile::from_shape(Arc::clone(&ts.shape), timed, cap)
                })
                .collect(),
            None => Vec::new(),
        };
        let (rows, partial) = self.classify(self.phase("execute", || {
            self.eval_rows(&plan.translated, plans, &mut 0, &profiles)
        }))?;
        if let (Some(tb), false) = (self.trace, plans.is_empty()) {
            let mut spans = Vec::new();
            for (a, p) in plans.iter().zip(&profiles) {
                let ts = a.trace_shape(MAX_TRACE_OP_SPANS);
                spans.extend(p.op_spans_with_labels(&ts.labels, a.estimates.as_ref()));
            }
            tb.set_operators(spans);
        }
        self.check_replan(plan, plans, planned_version, rows.len());
        let result = QueryResult {
            columns: plan.translated.columns.clone(),
            rows,
            partial,
        };
        Ok((result, plans.iter().cloned().zip(profiles).collect()))
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
        let diverged = !(docql_algebra::REPLAN_DIVERGENCE.recip()
            ..=docql_algebra::REPLAN_DIVERGENCE)
            .contains(&ratio);
        if diverged && stats.version() != planned_version {
            plan.invalidate();
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
        let translated = self.compile(src)?;
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
        let translated = self.compile(src)?;
        let mut info = infer_types(&translated.query, self.instance.schema());
        check_constructors(
            &translated.query.body,
            &info.var_types.clone(),
            self.instance.schema(),
            &mut info.errors,
        );
        Ok(info)
    }

    /// Evaluate a translated query's set-op chain. In algebraic mode the
    /// chain consumes one pre-algebraized plan per node, in pre-order via
    /// `pos`. `profiles` is empty (unprofiled) or aligned with `plans`,
    /// attaching a per-operator profile to each plan execution.
    fn eval_rows(
        &self,
        t: &Translated,
        plans: &[Arc<Algebraized>],
        pos: &mut usize,
        profiles: &[PlanProfile],
    ) -> Result<Vec<Vec<CalcValue>>, O2sqlError> {
        let left = match self.mode {
            Mode::Interpret => {
                let mut ev = Evaluator::new(self.instance, self.interp);
                ev.semantics = self.semantics;
                ev.guard = self.guard;
                ev.run(&t.program)
                    .map_err(|e| O2sqlError::Eval(e.to_string()))?
            }
            Mode::Algebraic => {
                if self.semantics == docql_paths::PathSemantics::Liberal {
                    return Err(O2sqlError::Eval(
                        "the algebraic mode requires the restricted path                          semantics (liberal candidate sets are data-bounded;                          §5.4)"
                            .to_string(),
                    ));
                }
                let plan = plans.get(*pos).ok_or_else(|| {
                    O2sqlError::Eval("set-op chain outgrew its algebra plans".to_string())
                })?;
                let ctx = docql_algebra::ExecCtx {
                    extents: self.extents,
                    profile: profiles.get(*pos),
                    guard: self.guard,
                };
                *pos += 1;
                docql_algebra::eval_plan_with(plan, &t.query, self.instance, self.interp, ctx)
                    .map_err(|e| O2sqlError::Eval(e.to_string()))?
            }
        };
        match &t.set_op {
            None => Ok(left),
            Some((op, right)) => {
                let right_rows = self.eval_rows(right, plans, pos, profiles)?;
                // After a degrade-mode trip either side may be cut short.
                // The left side alone is a prefix of a union; subtracting or
                // intersecting with a cut side can keep rows the full answer
                // lacks, so those answer nothing.
                if self.guard.is_some_and(|g| g.tripped()) {
                    return Ok(if *op == SetOpKind::Union {
                        left
                    } else {
                        Vec::new()
                    });
                }
                Ok(combine_set_op(*op, left, right_rows))
            }
        }
    }

    /// Profile one query end to end (`EXPLAIN ANALYZE`): the normal
    /// compile and evaluate path on an uncached plan, executed
    /// **algebraically** with a timed [`PlanProfile`] on every plan in the
    /// set-op chain. Phase timings come from the query's trace — the
    /// attached one, or a private one when none is attached. The result
    /// rows are the real query answer. Queries that cannot be algebraized
    /// fall back to the calculus interpreter and say so in
    /// [`QueryProfile::note`] (no per-operator statistics then — the
    /// interpreter has no plan).
    ///
    /// Profiling ignores `self.mode` (it exists to show plan behaviour) but
    /// honours `self.extents`, so the report reflects the index-versus-walk
    /// choices the store would actually make.
    pub fn profile(&self, src: &str) -> Result<QueryProfile, O2sqlError> {
        let private;
        let tb = match self.trace {
            Some(tb) => tb,
            None => {
                private = docql_obs::TraceBuilder::new(docql_obs::TraceId(0), src, 0);
                &private
            }
        };
        let traced = Engine {
            trace: Some(tb),
            ..*self
        };
        let plan = traced.compile_plan(src)?;
        let note = traced.algebraize(&plan).err().map(|e| {
            format!(
                "not algebraizable ({e}); executed by the calculus interpreter                      — no per-operator statistics"
            )
        });
        let mode = match note {
            None => Mode::Algebraic,
            Some(_) => Mode::Interpret,
        };
        let (result, plans) = Engine { mode, ..traced }.execute(&plan, true)?;
        Ok(QueryProfile {
            result,
            phases: tb.phases(),
            plans,
            note,
            total: tb.elapsed(),
        })
    }
}

/// Combine a set-op chain node: `left` from the current query, `right`
/// from the rest of the chain. Order of `left` is preserved; union appends
/// the right rows it lacks in value order.
fn combine_set_op(
    op: SetOpKind,
    left: Vec<Vec<CalcValue>>,
    mut right: Vec<Vec<CalcValue>>,
) -> Vec<Vec<CalcValue>> {
    match op {
        SetOpKind::Difference | SetOpKind::Intersect => {
            let keep = op == SetOpKind::Intersect;
            let right: RowSet<_> = right.into_iter().collect();
            left.into_iter()
                .filter(|r| right.contains(r) == keep)
                .collect()
        }
        SetOpKind::Union => {
            right.sort_unstable();
            let mut out: RowSet<_> = left.into_iter().collect();
            for r in right {
                out.insert(r);
            }
            out.into_vec()
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
