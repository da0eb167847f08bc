//! # docql-algebra — algebraization of the calculus (§5.4)
//!
//! A complex-object algebra with variant-based selection over heterogeneous
//! collections ([`plan`]), a compiler from path-variable-free calculus
//! queries to plans ([`compile`]), and the paper's algebraization: schema
//! analysis produces finite candidate valuations for path and attribute
//! variables (restricted semantics), turning a path-variable query into a
//! **union of path-free queries** ([`algebraize()`](algebraize::algebraize)).
//!
//! The paper's closing §5.4 remark is visible in code: under the liberal
//! path semantics candidate sets would be data-dependent, and the
//! algebraizer refuses — "our algebra should include some form of transitive
//! closure/fixpoint operator".

pub mod algebraize;
pub mod compile;
pub mod cost;
pub mod plan;
pub mod profile;

use std::fmt;

pub use algebraize::{
    algebraize, algebraize_with_stats, Algebraized, TraceShape, MAX_CANDIDATE_PRODUCT,
};
pub use compile::{compile_query, compile_query_with_stats};
pub use cost::{CostProfile, PlanEstimates, StatsSource, REPLAN_DIVERGENCE};
pub use plan::{ExecCtx, IndexPathScan, Op, Row, WalkStep};
pub use profile::PlanProfile;

/// Errors from compilation and algebraization.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgebraError(pub String);

impl fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "algebra error: {}", self.0)
    }
}

impl std::error::Error for AlgebraError {}

impl From<docql_guard::ExecError> for AlgebraError {
    /// Carries the guard trip through the stringly error channel; engines
    /// read the authoritative [`docql_guard::Guard::trip`] afterwards
    /// instead of parsing this message.
    fn from(e: docql_guard::ExecError) -> AlgebraError {
        AlgebraError(format!("interrupted: {e}"))
    }
}

/// Evaluate a query through the algebra: algebraize, execute the plan, and
/// return rows in the calculus result format.
pub fn eval_algebraic(
    q: &docql_calculus::Query,
    instance: &docql_model::Instance,
    interp: &docql_calculus::Interp,
) -> Result<Vec<Vec<docql_calculus::CalcValue>>, AlgebraError> {
    eval_algebraic_with(q, instance, interp, ExecCtx::default())
}

/// [`eval_algebraic`] with an execution context (path-extent index).
pub fn eval_algebraic_with(
    q: &docql_calculus::Query,
    instance: &docql_model::Instance,
    interp: &docql_calculus::Interp,
    ctx: ExecCtx<'_>,
) -> Result<Vec<Vec<docql_calculus::CalcValue>>, AlgebraError> {
    let algebraized = algebraize(q, instance.schema())?;
    eval_plan_with(&algebraized, q, instance, interp, ctx)
}

/// Execute an already-algebraized plan — the reuse path for plan caches:
/// algebraization (schema analysis + candidate substitution) is paid once
/// per query text, execution once per run. `q` must be the query `a` was
/// algebraized from (its head names the output columns).
pub fn eval_plan(
    a: &Algebraized,
    q: &docql_calculus::Query,
    instance: &docql_model::Instance,
    interp: &docql_calculus::Interp,
) -> Result<Vec<Vec<docql_calculus::CalcValue>>, AlgebraError> {
    eval_plan_with(a, q, instance, interp, ExecCtx::default())
}

/// [`eval_plan`] with an execution context: when `ctx` carries a path-extent
/// index, `IndexPathScan` operators in the plan read precomputed extents
/// instead of walking. The same cached plan serves both modes — the index
/// choice is a run-time decision.
pub fn eval_plan_with(
    a: &Algebraized,
    q: &docql_calculus::Query,
    instance: &docql_model::Instance,
    interp: &docql_calculus::Interp,
    ctx: ExecCtx<'_>,
) -> Result<Vec<Vec<docql_calculus::CalcValue>>, AlgebraError> {
    let mut ev = docql_calculus::Evaluator::new(instance, interp);
    // Filter/Assign operators evaluate atoms through this evaluator;
    // governance must reach the text predicates they call.
    ev.guard = ctx.guard;
    let rows = a.plan.execute_with(instance, &ev, ctx)?;
    let mut seen = docql_calculus::RowSet::new();
    for row in rows {
        let mut tuple = Vec::with_capacity(q.head.len());
        let mut complete = true;
        for v in &q.head {
            match row.get(v) {
                Some(cv) => tuple.push(cv.clone()),
                None => {
                    complete = false;
                    break;
                }
            }
        }
        if complete {
            seen.insert(tuple);
        }
    }
    Ok(seen.into_vec())
}
