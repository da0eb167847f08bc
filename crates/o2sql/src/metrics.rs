//! Query-lifecycle metrics and the `EXPLAIN ANALYZE` profile.
//!
//! The engine writes timings into one record only: the query's
//! [`TraceBuilder`](docql_obs::TraceBuilder). [`EngineMetrics`] bundles the
//! registry handles the query lifecycle feeds — per-phase histograms
//! (parse → translate → algebraize → execute), a query counter, planner
//! counters, and the algebra operator counters — and
//! [`EngineMetrics::record`] fills them from the finished
//! [`QueryTrace`]. Nothing else in the engine touches them.
//!
//! [`QueryProfile`] is one profiled execution: the result, the trace's
//! per-phase wall times, and a timed [`PlanProfile`] per algebra plan in
//! the query's set-op chain — rendered by [`QueryProfile::render`] as the
//! `EXPLAIN ANALYZE` report.

use crate::engine::QueryResult;
use docql_algebra::{Algebraized, PlanProfile};
use docql_obs::{Counter, Histogram, MetricsRegistry, PhaseSpan, QueryTrace};
use std::sync::Arc;
use std::time::Duration;

/// Registry handles for the query lifecycle, resolved once per store (not
/// per query).
#[derive(Clone, Debug)]
pub struct EngineMetrics {
    /// Queries executed (any mode).
    pub queries: Counter,
    /// Nanoseconds lexing + parsing query text.
    pub parse_ns: Histogram,
    /// Nanoseconds translating the AST to the calculus (includes static
    /// typing work done during translation).
    pub translate_ns: Histogram,
    /// Nanoseconds in the §5.4 algebraization. Recorded only when the
    /// algebraization actually runs — memoised cached plans skip it.
    pub algebraize_ns: Histogram,
    /// Nanoseconds evaluating (interpreter or plan execution).
    pub execute_ns: Histogram,
    /// Plans costed by the statistics-driven planner (algebraizations run
    /// with a stats source attached).
    pub plans_costed: Counter,
    /// Cached plans invalidated by feedback re-planning (observed rows
    /// diverged from estimates while fresher statistics existed).
    pub replans: Counter,
    /// Estimate accuracy per executed cost-based plan: `100 × (observed
    /// rows + 1) / (estimated rows + 1)` — 100 is a perfect estimate,
    /// above is underestimation, below overestimation.
    pub estimate_error_pct: Histogram,
    /// Algebra operator invocations (the `calls` of every operator span).
    pub ops_executed: Counter,
    /// Rows emitted by all algebra operators.
    pub rows_emitted: Counter,
    /// `IndexPathScan` start values answered from the path-extent index.
    pub index_scan_extent_hits: Counter,
    /// `IndexPathScan` start values answered by the fallback walk.
    pub index_scan_walk_fallbacks: Counter,
}

impl EngineMetrics {
    /// Resolve (creating if absent) the engine metrics in `registry`.
    pub fn register(registry: &MetricsRegistry) -> EngineMetrics {
        EngineMetrics {
            queries: registry.counter("docql_queries_total"),
            parse_ns: registry.histogram("docql_query_parse_ns"),
            translate_ns: registry.histogram("docql_query_translate_ns"),
            algebraize_ns: registry.histogram("docql_query_algebraize_ns"),
            execute_ns: registry.histogram("docql_query_execute_ns"),
            plans_costed: registry.counter("docql_planner_plans_costed_total"),
            replans: registry.counter("docql_planner_replans_total"),
            estimate_error_pct: registry.histogram("docql_planner_estimate_error_pct"),
            ops_executed: registry.counter("docql_algebra_ops_executed_total"),
            rows_emitted: registry.counter("docql_algebra_rows_emitted_total"),
            index_scan_extent_hits: registry.counter("docql_index_scan_extent_hits_total"),
            index_scan_walk_fallbacks: registry.counter("docql_index_scan_walk_fallbacks_total"),
        }
    }

    /// Feed every engine metric from one finished query trace: a query
    /// counts once it reached the execute phase; each phase span lands in
    /// its histogram; the operator spans (whose overflow span aggregates
    /// the operators past the span cap) sum into the algebra counters; and
    /// the plan roots' estimated rows against the rows returned give the
    /// estimate error.
    pub fn record(&self, t: &QueryTrace) {
        for p in &t.phases {
            let histogram = match p.name {
                "parse" => &self.parse_ns,
                "translate" => &self.translate_ns,
                "algebraize" => &self.algebraize_ns,
                "execute" => {
                    self.queries.inc();
                    &self.execute_ns
                }
                _ => continue,
            };
            histogram.record(p.ns);
        }
        if t.phase_ns("algebraize").is_some() && t.stats_version.is_some() {
            self.plans_costed.inc();
        }
        if t.replanned {
            self.replans.inc();
        }
        let (mut calls, mut rows, mut hits, mut walks) = (0, 0, 0, 0);
        let mut estimated = None;
        for op in &t.operators {
            calls += op.calls;
            rows += op.rows;
            hits += op.index_hits;
            walks += op.walk_fallbacks;
            if let (0, Some(est)) = (op.depth, op.est_rows) {
                *estimated.get_or_insert(0u64) += est;
            }
        }
        self.ops_executed.add(calls);
        self.rows_emitted.add(rows);
        self.index_scan_extent_hits.add(hits);
        self.index_scan_walk_fallbacks.add(walks);
        if let Some(est) = estimated {
            // +1 on both sides, as in the engine's re-plan check.
            let ratio = (t.rows as f64 + 1.0) / (est as f64 + 1.0);
            self.estimate_error_pct.record((ratio * 100.0) as u64);
        }
    }
}

/// One profiled query execution (`EXPLAIN ANALYZE`).
pub struct QueryProfile {
    /// The query result — profiling executes the query for real, so the
    /// rows are exactly what the unprofiled run returns.
    pub result: QueryResult,
    /// Wall time per lifecycle phase, in execution order — read from the
    /// query's trace.
    pub phases: Vec<PhaseSpan>,
    /// One algebra plan + recorded per-operator statistics per node of the
    /// query's set-op chain (pre-order). Empty when the query fell back to
    /// the calculus interpreter.
    pub plans: Vec<(Arc<Algebraized>, PlanProfile)>,
    /// Why there are no plans (e.g. the query is not algebraizable), when
    /// applicable.
    pub note: Option<String>,
    /// Total wall time of the trace when the profile was taken.
    pub total: Duration,
}

impl QueryProfile {
    /// Total index-hits and walk-fallbacks across all plans.
    pub fn scan_totals(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut walks = 0;
        for (_, p) in &self.plans {
            let (h, w) = p.scan_totals();
            hits += h;
            walks += w;
        }
        (hits, walks)
    }

    /// Render the `EXPLAIN ANALYZE` report: phase timings, each plan tree
    /// annotated with per-operator calls/rows/time (and index-hit versus
    /// walk-fallback counts on scans), and result cardinality.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("EXPLAIN ANALYZE\n");
        for p in &self.phases {
            let (name, d) = (p.name, Duration::from_nanos(p.ns));
            out.push_str(&format!("  {name:<10} {d:?}\n"));
        }
        out.push_str(&format!("  {:<10} {:?}\n", "total", self.total));
        if let Some(note) = &self.note {
            out.push_str(&format!("note: {note}\n"));
        }
        let n = self.plans.len();
        for (i, (a, p)) in self.plans.iter().enumerate() {
            match &a.estimates {
                Some(est) => {
                    out.push_str(&format!(
                        "plan {}/{n} ({} operators, {} branch(es), costed at stats v{}):\n",
                        i + 1,
                        a.plan.size(),
                        a.branches.len(),
                        est.stats_version
                    ));
                    out.push_str(&p.render_with_estimates(&a.plan, est));
                }
                None => {
                    out.push_str(&format!(
                        "plan {}/{n} ({} operators, {} branch(es)):\n",
                        i + 1,
                        a.plan.size(),
                        a.branches.len()
                    ));
                    out.push_str(&p.render(&a.plan));
                }
            }
        }
        let (hits, walks) = self.scan_totals();
        if hits != 0 || walks != 0 {
            out.push_str(&format!(
                "index scans: {hits} start value(s) answered from the path-extent index, {walks} by walk fallback\n"
            ));
        }
        if let Some(trip) = self.result.partial {
            out.push_str(&format!(
                "governance: partial result — {trip} (degrade mode; rows are a correct prefix)\n"
            ));
        }
        out.push_str(&format!(
            "result: {} row(s), {} column(s)\n",
            self.result.rows.len(),
            self.result.columns.len()
        ));
        out
    }
}
