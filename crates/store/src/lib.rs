//! # docql-store — the document store façade
//!
//! Ties the substrates together into the system the paper describes: an
//! SGML document database with O₂SQL querying on top.
//!
//! * construction from a DTD (schema generated per §3),
//! * document ingestion (parse → validate → load; text index maintained),
//! * named roots of persistence (`my_article`, `my_old_article` — §4.3),
//! * the `text` operator, reading the inverse mapping the loader records on
//!   each object (Q2),
//! * O₂SQL and calculus querying, in interpreter or algebraic mode,
//! * index-accelerated document search (the §4.1/§6 full-text machinery),
//! * observability: a per-store metrics registry ([`metrics`]), `EXPLAIN
//!   ANALYZE` profiling, and the query flight recorder, whose slow cutoff
//!   (`DOCQL_LOG`) drives the slow-query log and its counter,
//! * export back to SGML (the update path of §6).

pub mod metrics;
pub mod persist;
mod trace;

pub use docql_durable::WalOp;
pub use metrics::StoreMetrics;
pub use persist::{CheckpointReport, PersistentStore, RecoveryReport, DEFAULT_SEGMENT_RETAIN};

use docql_calculus::{CalcValue, Interp, InterpError};
use docql_mapping::{export_document, load_document, map_dtd_with, DtdMapping, MapError};
use docql_model::{Instance, Oid, Value};
use docql_o2sql::{CacheStats, Engine, Mode, O2sqlError, PlanCache, QueryProfile, QueryResult};
use docql_obs::{QueryTrace, SharedRegistry};
use docql_sgml::{DocParser, Document, Dtd, SgmlError};
use docql_text::{ContainsExpr, InvertedIndex};
use persist::Log;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;
use trace::{span, WriteKind, WriteTrace};

/// Store-level error.
#[derive(Debug)]
pub enum StoreError {
    /// SGML parsing/validation failed.
    Sgml(SgmlError),
    /// Mapping/loading failed.
    Map(MapError),
    /// Query failed.
    Query(O2sqlError),
    /// Execution stopped by the resource governor — the structured
    /// taxonomy of [`docql_guard::ExecError`] (deadline, budget,
    /// cancellation). Concurrency is not limited here: callers that need
    /// a cap bound their own worker count (the HTTP server's `--workers`).
    Interrupted(docql_guard::ExecError),
    /// A panic was caught at the query boundary; the store remains
    /// serviceable (queries hold no store lock).
    QueryPanic(String),
    /// A write could not be logged: the log failed, not the write, so it
    /// is the server's fault and the client may retry after a reopen.
    Wal(docql_durable::WalError),
    /// Anything else.
    Other(String),
}

impl StoreError {
    /// The governance outcome, when this error is one (typed access for
    /// callers handling deadlines/budgets/cancellation specially).
    pub fn exec_error(&self) -> Option<docql_guard::ExecError> {
        match self {
            StoreError::Interrupted(e) => Some(*e),
            StoreError::Query(O2sqlError::Interrupted(e)) => Some(*e),
            _ => None,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Sgml(e) => write!(f, "{e}"),
            StoreError::Map(e) => write!(f, "{e}"),
            StoreError::Query(e) => write!(f, "{e}"),
            StoreError::Interrupted(e) => write!(f, "{e}"),
            StoreError::QueryPanic(m) => write!(f, "query panicked: {m}"),
            StoreError::Wal(e) => write!(f, "wal: {e}"),
            StoreError::Other(s) => f.write_str(s),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<SgmlError> for StoreError {
    fn from(e: SgmlError) -> StoreError {
        StoreError::Sgml(e)
    }
}
impl From<MapError> for StoreError {
    fn from(e: MapError) -> StoreError {
        StoreError::Map(e)
    }
}
impl From<O2sqlError> for StoreError {
    fn from(e: O2sqlError) -> StoreError {
        match e {
            // Keep the taxonomy typed end to end: every `?` on an engine
            // call surfaces governance outcomes as `Interrupted`.
            O2sqlError::Interrupted(t) => StoreError::Interrupted(t),
            other => StoreError::Query(other),
        }
    }
}

/// A document store: one DTD, many documents, named roots, text index.
///
/// # Concurrency model
///
/// Ingest and updates take `&mut self`; every query path takes `&self` and
/// `DocStore` is [`Sync`], so any number of reader threads may run O₂SQL
/// queries, text searches and exports against one store concurrently (e.g.
/// from scoped threads borrowing `&DocStore`, or through [`SharedStore`]
/// when readers and writers must interleave). The query-plan cache is
/// internally synchronised and shared by all readers; plans stay *correct*
/// across ingests (they depend only on the schema), though feedback
/// re-planning may re-cost one whose estimates drifted far from what
/// execution observed.
///
/// [`DocStore::fork`] produces the independent copy [`SharedStore`]
/// publishes per write. The three tables that grow with the corpus — the
/// object slots, each term's posting list and the per-document extent
/// table — and the vocabulary above the posting lists are
/// [`ChunkedVec`](docql_model::ChunkedVec)s, so the fork copies one `Arc`
/// per group of 4,096 entries, and a write then copies only the chunks it
/// touches: an ingest copies the last chunk of the object table, of each
/// of its terms' posting lists and of the extent table, and the vocabulary
/// chunks that hold its terms.
pub struct DocStore {
    dtd: Arc<Dtd>,
    mapping: Arc<DtdMapping>,
    instance: Instance,
    interp: Interp,
    index: InvertedIndex,
    /// Path-extent index over the document class (§5's efficiency claim):
    /// per schema path, the values each document reaches — maintained at
    /// ingest time, consulted by `IndexPathScan` operators in algebraic
    /// plans.
    extents: docql_paths::PathExtentIndex,
    /// Whether engines attach the extent index (on by default; switched off
    /// to force walking, e.g. for differential tests and benches).
    use_extents: bool,
    /// Whether engines plan cost-based against this store's live statistics
    /// (on by default; switched off to force the heuristic planner, the
    /// differential-testing and bench baseline).
    use_cost_planning: bool,
    /// Statistics version: bumped by every mutation that changes what the
    /// planner's statistics describe (ingest, update), and
    /// carried across [`DocStore::fork`] — a published MVCC snapshot
    /// therefore exposes exactly the version its data was planned from,
    /// and stats can never tear mid-query (the snapshot is immutable).
    stats_version: u64,
    /// Root objects of ingested documents, in ingestion order. Behind
    /// `Arc`: a fork shares the list, and its first ingest copies it.
    documents: Arc<Vec<Oid>>,
    /// Compiled-plan cache shared by all query paths (hit = skip lex,
    /// parse, translation and algebraization). Behind `Arc` so every fork
    /// of this store shares one cache: plans depend only on the schema,
    /// which forks preserve, so entries stay valid across snapshot
    /// publication and a freshly published snapshot starts warm. Cost-based
    /// plans additionally carry the stats version they were costed at;
    /// the engine invalidates an entry's algebraization (not its
    /// translation) when observed rows diverge from estimates under fresher
    /// statistics.
    plan_cache: Arc<PlanCache>,
    /// Pre-resolved handles into this store's metrics registry (which the
    /// bundle owns). Disabled by default; see
    /// [`DocStore::set_metrics_enabled`].
    metrics: StoreMetrics,
    /// The query flight recorder, shared by every fork of this store (like
    /// the plan cache) — recent-query and slow/error history therefore
    /// survives MVCC snapshot publication, and background events (WAL,
    /// checkpoints, publications) land on one shared timeline. Disabled by
    /// default; enabled at construction when `DOCQL_TRACE` or `DOCQL_LOG`
    /// is set.
    recorder: Arc<docql_obs::FlightRecorder>,
    /// MVCC publication stamp, set when a [`SharedStore`] wraps (version 0)
    /// or publishes this store: the snapshot version it *is* and when it
    /// was published. Traced queries report both.
    published_version: u64,
    published_at: Instant,
    /// The trace of the write under way on this store, if one is traced;
    /// never carried across a fork.
    trace: Option<WriteTrace>,
}

/// Checked [`docql_text::DocId`] → [`Oid`] conversion. The store indexes
/// documents under `u64::from(oid.0)`, so every legitimate index id fits in
/// `u32`; an out-of-range id (corrupt or foreign index) maps to `None`
/// instead of silently truncating onto some other document's oid.
fn oid_of_doc(d: docql_text::DocId) -> Option<Oid> {
    u32::try_from(d).ok().map(Oid)
}

impl DocStore {
    /// Build a store from DTD text, declaring extra named roots of the
    /// document class (e.g. `&["my_article", "my_old_article"]`).
    pub fn new(dtd_text: &str, extra_roots: &[&str]) -> Result<DocStore, StoreError> {
        let dtd = Dtd::parse(dtd_text)?;
        let mapping = map_dtd_with(&dtd, extra_roots)?;
        let instance = Instance::new(mapping.schema.clone());
        // Per-store metrics namespace, disabled until someone asks — every
        // instrumented component below pre-resolves its handles into it.
        let registry: SharedRegistry = Arc::new(docql_obs::MetricsRegistry::new());
        let metrics = StoreMetrics::register(Arc::clone(&registry));
        let mut interp = Interp::with_builtins();
        // Count `contains`/`near`/`near_chars` evaluations: each is a scan
        // of one object's text inside query evaluation, the workload the
        // §4.1 index exists to displace. Semantics are the builtins',
        // verbatim.
        type Builtin =
            fn(&docql_calculus::InterpCtx<'_>, &[CalcValue]) -> Result<bool, InterpError>;
        let scans: [(&str, Builtin); 3] = [
            ("contains", Interp::builtin_contains),
            ("near", Interp::builtin_near),
            ("near_chars", Interp::builtin_near_chars),
        ];
        for (name, builtin) in scans {
            let evals = metrics.contains_evals.clone();
            let gate = Arc::clone(&registry);
            interp.register_pred(
                name,
                move |ctx: &docql_calculus::InterpCtx<'_>, args: &[CalcValue]| {
                    if gate.enabled() {
                        evals.inc();
                    }
                    builtin(ctx, args)
                },
            );
        }
        let extents =
            docql_paths::PathExtentIndex::for_collection_root(&mapping.schema, mapping.root);
        let mut index = InvertedIndex::new();
        index.set_metrics(metrics.text.clone());
        let plan_cache = PlanCache::default();
        plan_cache.register_metrics(&registry);
        Ok(DocStore {
            dtd: Arc::new(dtd),
            mapping: Arc::new(mapping),
            instance,
            interp,
            index,
            extents,
            use_extents: true,
            use_cost_planning: true,
            stats_version: 0,
            documents: Arc::default(),
            plan_cache: Arc::new(plan_cache),
            metrics,
            recorder: Arc::new(docql_obs::FlightRecorder::from_env()),
            published_version: 0,
            published_at: Instant::now(),
            trace: None,
        })
    }

    /// An independent copy of this store: schema, mapping, plan cache and
    /// metrics registry are shared outright; object slots, posting lists
    /// and per-document extent tables are shared copy-on-write by chunk.
    /// The fork copies one `Arc` per group of 4,096 entries of each table,
    /// and each later write copies only the chunks it touches.
    ///
    /// This is [`SharedStore`]'s snapshot primitive: a write
    /// forks the published version, mutates the fork, and publishes it.
    /// Registered predicates/functions are shared as-is (the built-ins are
    /// pure, and custom registrations are expected to be too).
    pub fn fork(&self) -> DocStore {
        DocStore {
            dtd: Arc::clone(&self.dtd),
            mapping: Arc::clone(&self.mapping),
            instance: self.instance.clone(),
            interp: self.interp.clone(),
            index: self.index.clone(),
            extents: self.extents.clone(),
            use_extents: self.use_extents,
            use_cost_planning: self.use_cost_planning,
            stats_version: self.stats_version,
            documents: Arc::clone(&self.documents),
            plan_cache: Arc::clone(&self.plan_cache),
            metrics: self.metrics.clone(),
            recorder: Arc::clone(&self.recorder),
            published_version: self.published_version,
            published_at: self.published_at,
            trace: None,
        }
    }

    /// Ingest an SGML document: parse (with tag-omission inference),
    /// validate, load into objects, index its text. Returns the document's
    /// root object.
    pub fn ingest(&mut self, sgml_text: &str) -> Result<Oid, StoreError> {
        self.ingest_batch(&[sgml_text])?
            .pop()
            .ok_or_else(|| StoreError::Other("ingest loaded no document".into()))
    }

    /// Ingest a batch of SGML documents: parse and validate every text
    /// with one [`DocParser`], then run [`DocStore::ingest_document`] on
    /// each tree in input order, so the result is identical to ingesting
    /// the documents one by one.
    ///
    /// A parse/validation error anywhere aborts the batch before anything
    /// is loaded (the store is unchanged). A load error — impossible for
    /// documents that validated, barring mapping bugs — aborts mid-batch
    /// with the already-loaded prefix retained. Returns the root oids in
    /// input order.
    pub fn ingest_batch(&mut self, docs: &[&str]) -> Result<Vec<Oid>, StoreError> {
        let label = || match docs.len() {
            1 => "ingest 1 document".to_string(),
            n => format!("ingest {n} documents"),
        };
        self.mutate(label, |s| {
            let trees = span(s.trace.as_ref(), "sgml_parse", || {
                let parser = DocParser::new(&s.dtd)?;
                docs.iter()
                    .map(|text| parser.parse(text))
                    .collect::<Result<Vec<Document>, _>>()
            })?;
            trees.iter().map(|doc| s.ingest_document(doc)).collect()
        })
    }

    /// Ingest an already-parsed document tree. Traced like every write:
    /// its `load`, `text_index` and `extent_index` spans feed
    /// `docql_store_ingest_ns` and `docql_store_extent_build_ns`.
    pub fn ingest_document(&mut self, doc: &Document) -> Result<Oid, StoreError> {
        self.mutate(
            || "ingest 1 document".to_string(),
            |s| {
                // The loader records every object's text, the root's included.
                let loaded = span(s.trace.as_ref(), "load", || {
                    load_document(&s.mapping, &mut s.instance, doc)
                })?;
                s.index_root(loaded.root);
                Arc::make_mut(&mut s.documents).push(loaded.root);
                s.bump_stats();
                Ok(loaded.root)
            },
        )
    }

    /// Add one document root to both indexes: its recorded `text` to the
    /// inverted index, its path extents to the extent index. Ingest builds
    /// index state through here; updates and recovery rebuild it in
    /// [`DocStore::refresh_text`].
    fn index_root(&mut self, root: Oid) {
        let trace = self.trace.as_ref();
        span(trace, "text_index", || {
            let text = self.instance.text(root).unwrap_or_default();
            self.index.add(u64::from(root.0), text);
        });
        span(trace, "extent_index", || {
            self.extents.index_document(&self.instance, root);
        });
    }

    /// Advance the statistics version after a mutation and, when metrics
    /// are on, mirror the live stats snapshot into the `docql_stats_*`
    /// gauges. The counters themselves (extent target counts, posting
    /// lengths, document totals) are maintained incrementally by the
    /// substrate indexes; this only stamps the version they now describe.
    fn bump_stats(&mut self) {
        self.stats_version += 1;
        let m = &self.metrics;
        if m.enabled() {
            set_gauge(&m.stats_version, self.stats_version);
            set_gauge(&m.stats_documents, self.documents.len());
            set_gauge(&m.stats_objects, self.instance.object_count());
            set_gauge(&m.stats_extent_targets, self.extents.target_count());
            set_gauge(&m.stats_text_terms, self.index.term_count());
        }
    }

    /// Apply logged operations in order: the one definition of what each
    /// [`WalOp`] does, run by [`SharedStore::apply`] and by recovery's
    /// replay alike. A run of consecutive ingests is one
    /// [`DocStore::ingest_batch`] (one parser, one `sgml_parse` span).
    /// Returns the document roots the ingests loaded, in order.
    pub fn apply(&mut self, ops: &[WalOp]) -> Result<Vec<Oid>, StoreError> {
        fn sgml(op: &WalOp) -> Option<&str> {
            match op {
                WalOp::Ingest { sgml } => Some(sgml),
                _ => None,
            }
        }
        let mut roots = Vec::new();
        for run in ops.chunk_by(|a, b| sgml(a).is_some() && sgml(b).is_some()) {
            match run {
                [WalOp::Bind { name, oid }] => self.bind(name, Oid(*oid))?,
                [WalOp::Update { oid, value }] => self.update_value(Oid(*oid), value.clone())?,
                ingests => {
                    let docs: Vec<&str> = ingests.iter().filter_map(sgml).collect();
                    roots.extend(self.ingest_batch(&docs)?);
                }
            }
        }
        Ok(roots)
    }

    /// Bind a named root of persistence (declared at construction) to a
    /// document object — e.g. `store.bind("my_article", oid)`.
    pub fn bind(&mut self, name: &str, oid: Oid) -> Result<(), StoreError> {
        self.mutate(
            || format!("bind {name}"),
            |s| {
                s.instance
                    .set_root(name, Value::Oid(oid))
                    .map_err(|e| StoreError::Other(e.to_string()))
            },
        )
    }

    /// Run an O₂SQL query (interpreter mode), ungoverned. Compiled plans are
    /// cached: repeated query texts skip lex/parse/translate and go straight
    /// to evaluation (see [`DocStore::plan_cache_stats`]);
    /// `store.engine().run(src)` is the uncached equivalent.
    ///
    /// A query prefixed `explain analyze` (case-insensitive) is profiled
    /// instead: the result is one row holding the rendered report of
    /// [`DocStore::profile`] on the rest of the text.
    pub fn query(&self, src: &str) -> Result<QueryResult, StoreError> {
        self.query_traced(src, Mode::Interpret, &docql_guard::QueryLimits::none())
            .0
    }

    /// Run an O₂SQL query through the §5.4 algebraizer. The plan cache
    /// also retains the algebraized plan, so repeats skip algebraization.
    /// The `explain analyze` prefix is honoured as in [`DocStore::query`].
    pub fn query_algebraic(&self, src: &str) -> Result<QueryResult, StoreError> {
        self.query_traced(src, Mode::Algebraic, &docql_guard::QueryLimits::none())
            .0
    }

    /// The general query entry point: run `src` in execution `mode` under
    /// `limits`, and return the flight-recorder trace filed for it (`None`
    /// when the recorder is disabled). A tripped strict-mode limit returns
    /// [`StoreError::Interrupted`]; in degrade mode the result comes back
    /// flagged partial ([`QueryResult::is_partial`]). The `explain
    /// analyze` prefix is honoured as in [`DocStore::query`], under the
    /// same limits. The serving tier echoes the trace's id in the
    /// `X-Docql-Trace-Id` response header so a client can correlate its
    /// wire-level outcome with the recorded trace.
    pub fn query_traced(
        &self,
        src: &str,
        mode: Mode,
        limits: &docql_guard::QueryLimits,
    ) -> (Result<QueryResult, StoreError>, Option<Arc<QueryTrace>>) {
        if let Some(rest) = strip_explain_analyze(src) {
            let (profile, trace) = self.governed(src, limits, |e| e.profile(rest), |p| &p.result);
            let report = profile.map(|p| QueryResult {
                columns: vec!["explain analyze".to_string()],
                rows: vec![vec![CalcValue::Data(Value::str(p.render()))]],
                partial: None,
            });
            return (report, trace);
        }
        self.governed(
            src,
            limits,
            |mut e| {
                e.mode = mode;
                e.run_cached(src, &self.plan_cache)
            },
            |r| r,
        )
    }

    /// Profile one query (`EXPLAIN ANALYZE`) under `limits`: execute it for
    /// real, timing each lifecycle phase and every algebra operator (see
    /// [`docql_o2sql::QueryProfile`]). Governed like
    /// [`DocStore::query_traced`]; in degrade mode the report gains a
    /// `governance:` line when a limit trips mid-profile.
    pub fn profile(
        &self,
        src: &str,
        limits: &docql_guard::QueryLimits,
    ) -> Result<QueryProfile, StoreError> {
        self.governed(src, limits, |e| e.profile(src), |p| &p.result)
            .0
    }

    /// The one governed execution path behind every query entry point:
    /// builds one [`Guard`](docql_guard::Guard) from `limits`, runs `exec` on
    /// an engine carrying it and the trace, isolates panics at the query
    /// boundary, and classifies governance outcomes into the store's metric
    /// counters. `answer` views the rows
    /// `exec` produced.
    ///
    /// A trace is begun whenever one of its consumers is on (see
    /// [`DocStore::tracing`]) and filed through [`DocStore::file`], with
    /// the engine metrics as its metrics view.
    fn governed<T>(
        &self,
        src: &str,
        limits: &docql_guard::QueryLimits,
        exec: impl FnOnce(Engine<'_>) -> Result<T, O2sqlError>,
        answer: fn(&T) -> &QueryResult,
    ) -> (Result<T, StoreError>, Option<Arc<QueryTrace>>) {
        let metered = self.metrics.enabled();
        let trace = self.tracing().then(|| self.recorder.begin(src));
        let run = || -> Result<T, StoreError> {
            let guard = (!limits.is_none()).then(|| docql_guard::Guard::new(limits));
            let mut e = self.engine();
            e.guard = guard.as_ref();
            e.trace = trace.as_ref();
            Ok(exec(e)?)
        };
        // Panic isolation: a panicking query (a buggy predicate, an
        // injected fault) must never take the process down or wedge the
        // store. No store lock is held across evaluation here, so catching
        // at this boundary leaves the store fully serviceable.
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|payload| {
                if metered {
                    self.metrics.query_panics.inc();
                }
                Err(StoreError::QueryPanic(panic_message(payload.as_ref())))
            });
        if metered {
            use docql_guard::ExecError;
            match &result {
                Ok(r) if answer(r).is_partial() => self.metrics.queries_partial.inc(),
                Err(StoreError::Interrupted(ExecError::DeadlineExceeded)) => {
                    self.metrics.queries_deadline_exceeded.inc();
                }
                Err(StoreError::Interrupted(ExecError::BudgetExhausted(_))) => {
                    self.metrics.queries_budget_exhausted.inc();
                }
                Err(StoreError::Interrupted(ExecError::Cancelled)) => {
                    self.metrics.queries_cancelled.inc();
                }
                _ => {}
            }
        }
        let Some(tb) = trace else {
            return (result, None);
        };
        // Finish the trace: outcome classification mirrors the governance
        // counters above, and the trace carries the MVCC snapshot identity
        // this query ran against.
        let (outcome, governance, detail, rows) = match &result {
            Ok(r) => {
                let r = answer(r);
                let rows = r.rows.len() as u64;
                match r.partial.as_ref() {
                    Some(trip) => ("partial", trip.to_string(), None, rows),
                    None => ("ok", "complete".to_string(), None, rows),
                }
            }
            Err(StoreError::Interrupted(e)) => ("error", e.to_string(), None, 0),
            Err(StoreError::QueryPanic(m)) => ("panic", "complete".to_string(), Some(m.clone()), 0),
            Err(e) => ("error", "complete".to_string(), Some(e.to_string()), 0),
        };
        tb.set_snapshot(self.published_version, self.published_at.elapsed());
        let total = tb.elapsed();
        let qt = tb.finish(outcome, &governance, detail, rows, total);
        let filed = self.file(qt, |t| self.metrics.engine.record(t));
        (result, filed)
    }

    /// Is a trace built? Whenever one of its consumers is on — metrics or
    /// the flight recorder; with both off nothing is traced or allocated,
    /// on the read path and the write path alike.
    fn tracing(&self) -> bool {
        self.metrics.enabled() || self.recorder.enabled()
    }

    /// Hand a finished query or write-side trace to each consumer that is
    /// on: `meter` (its metrics view) and the recorder, which retains it,
    /// decides whether it is slow, and logs it — only a retained trace is
    /// returned.
    fn file(&self, qt: QueryTrace, meter: impl FnOnce(&QueryTrace)) -> Option<Arc<QueryTrace>> {
        let metered = self.metrics.enabled();
        if metered {
            meter(&qt);
        }
        if !self.recorder.enabled() {
            return None;
        }
        let qt = self.recorder.record(qt);
        if metered {
            self.metrics.traces_recorded.inc();
            if qt.slow {
                self.metrics.slow_queries.inc();
            }
        }
        Some(qt)
    }

    /// The query-plan cache (shared by every query path on this store).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// Plan-cache hit/miss counters and occupancy.
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    /// This store's metric handles (counters stay readable even while
    /// recording is disabled).
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    /// The query flight recorder: recent- and slow-query trace history,
    /// shared across every fork of this store. Disabled by default (one
    /// relaxed load per query); [`DOCQL_TRACE`](docql_obs::TRACE_ENV)
    /// enables it at construction with a JSON-lines sink.
    pub fn flight_recorder(&self) -> &Arc<docql_obs::FlightRecorder> {
        &self.recorder
    }

    /// Turn query tracing on or off (independent of metrics recording).
    pub fn set_tracing_enabled(&self, enabled: bool) {
        self.recorder.set_enabled(enabled);
    }

    /// The store's metrics registry (for adopting extra metrics or sharing
    /// the namespace with an embedder).
    pub fn metrics_registry(&self) -> &SharedRegistry {
        self.metrics.registry()
    }

    /// Turn metric recording on or off (off at construction). The flag is
    /// one relaxed atomic, so `&self` suffices and readers may flip it
    /// while queries run. Accumulated values are kept when disabling.
    pub fn set_metrics_enabled(&self, on: bool) {
        self.metrics.registry().set_enabled(on);
    }

    /// An engine over this store (interpreter mode; set `.mode` to switch).
    /// The path-extent index rides along when enabled, so algebraic-mode
    /// plans may answer path atoms from precomputed extents.
    pub fn engine(&self) -> Engine<'_> {
        let mut e = Engine::new(&self.instance, &self.interp);
        if self.use_extents {
            e.extents = Some(&self.extents);
        }
        if self.use_cost_planning {
            e.stats = Some(self);
        }
        e
    }

    /// Enable or disable cost-based planning for subsequent queries
    /// (enabled by default). Disabling forces the heuristic planner —
    /// textual conjunct order, no estimates — the differential-testing and
    /// bench baseline. Unlike the extent toggle, switching *does* clear the
    /// plan cache: heuristic and cost-based plans can differ in operator
    /// order, and cached plans are mode-blind.
    pub fn set_cost_planning_enabled(&mut self, enabled: bool) {
        if self.use_cost_planning != enabled {
            self.plan_cache.clear();
        }
        self.use_cost_planning = enabled;
    }

    /// Do engines plan cost-based against this store's live statistics?
    pub fn cost_planning_enabled(&self) -> bool {
        self.use_cost_planning
    }

    /// The statistics version the planner currently sees (bumped by every
    /// ingest/update; carried by forks, so a pinned MVCC snapshot reports
    /// the version its data was published at).
    pub fn stats_version(&self) -> u64 {
        self.stats_version
    }

    /// Enable or disable the path-extent index for subsequent queries
    /// (enabled by default). Disabling forces every algebraic plan to walk
    /// — the differential-testing and bench baseline. Cached plans are
    /// unaffected: the walk-vs-extent choice is made at evaluation time.
    pub fn set_path_extents_enabled(&mut self, enabled: bool) {
        self.use_extents = enabled;
    }

    /// Is the path-extent index consulted by queries?
    pub fn path_extents_enabled(&self) -> bool {
        self.use_extents
    }

    /// The path-extent index (for diagnostics and tests).
    pub fn path_extents(&self) -> &docql_paths::PathExtentIndex {
        &self.extents
    }

    /// Index-accelerated document search with exact `contains` (substring)
    /// semantics: the index produces a guaranteed-superset candidate set,
    /// re-checked against the stored text. (For word-level IRS semantics
    /// use [`docql_text::InvertedIndex::docs_matching`] directly.)
    pub fn find_documents(&self, expr: &ContainsExpr) -> Vec<Oid> {
        if self.metrics.enabled() {
            self.metrics.text_index_searches.inc();
        }
        let matcher = expr.compile();
        self.index
            .candidates(expr)
            .into_iter()
            .filter_map(oid_of_doc)
            .filter(|oid| self.instance.text(*oid).is_some_and(|t| matcher.eval(t)))
            .collect()
    }

    /// Full-scan document search (the baseline the index is measured
    /// against, bench B3).
    pub fn find_documents_scan(&self, expr: &ContainsExpr) -> Vec<Oid> {
        if self.metrics.enabled() {
            self.metrics.text_scan_searches.inc();
        }
        let matcher = expr.compile();
        self.documents
            .iter()
            .copied()
            .filter(|oid| self.instance.text(*oid).is_some_and(|t| matcher.eval(t)))
            .collect()
    }

    /// Export a document object back to SGML (§6's update path).
    pub fn export(&self, root: Oid) -> Result<Document, StoreError> {
        Ok(export_document(&self.mapping, &self.instance, root)?)
    }

    /// The paper's `text` inverse mapping for one object.
    pub fn text_of(&self, oid: Oid) -> Option<String> {
        self.instance.text(oid).map(str::to_string)
    }

    /// The underlying instance (read access).
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Update an object's value (§6's "update the document from the
    /// database"): sets ν(o), re-derives the `text` inverse mapping of every
    /// document's objects and rebuilds both indexes from it. A value outside
    /// dom(σ(c)) for the object's class `c` is refused with
    /// [`ModelError::TypeMismatch`](docql_model::ModelError::TypeMismatch)
    /// before anything changes; class constraints are not checked here
    /// (see [`DocStore::check`]).
    pub fn update_value(&mut self, oid: Oid, value: Value) -> Result<(), StoreError> {
        self.mutate(
            || format!("update {oid}"),
            |s| {
                let model_err = |e: docql_model::ModelError| StoreError::Other(e.to_string());
                let class = s.instance.class_of(oid).map_err(model_err)?;
                if let Some(ty) = s.instance.schema().class_type(class) {
                    if !docql_model::conform::conforms(&value, &ty, &s.instance) {
                        return Err(model_err(docql_model::ModelError::TypeMismatch {
                            context: format!("update of object {oid} of class {class}"),
                            expected: ty,
                            got: value.to_string(),
                        }));
                    }
                }
                s.instance.set_value(oid, value).map_err(model_err)?;
                s.refresh_text();
                s.bump_stats();
                Ok(())
            },
        )
    }

    /// Derive every document's `text` mapping from its objects (the way
    /// ingest does; objects no document reaches lose their text, and an
    /// unchanged text leaves its slot shared with other snapshots), then
    /// rebuild both indexes over every document root, the inverted index in
    /// one sorted build. Updates and recovery both end here.
    fn refresh_text(&mut self) {
        let mut texts = HashMap::new();
        for &root in self.documents.iter() {
            docql_mapping::derive_text(&self.mapping, &self.instance, root, &mut texts);
        }
        for i in 0..self.instance.object_count() {
            let oid = Oid(i as u32);
            // `oid` is in range, so this cannot fail.
            let _ = self
                .instance
                .set_text(oid, texts.get(&oid).map(String::as_str));
        }
        let (instance, documents) = (&self.instance, &self.documents);
        let index = span(self.trace.as_ref(), "text_index", || {
            InvertedIndex::from_documents(
                documents
                    .iter()
                    .map(|root| (u64::from(root.0), instance.text(*root).unwrap_or_default())),
            )
        });
        self.index = index;
        self.index.set_metrics(self.metrics.text.clone());
        self.extents.clear();
        for &root in self.documents.iter() {
            span(self.trace.as_ref(), "extent_index", || {
                self.extents.index_document(&self.instance, root);
            });
        }
    }

    /// The DTD this store is typed by.
    pub fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    /// The DTD→schema mapping.
    pub fn mapping(&self) -> &DtdMapping {
        &self.mapping
    }

    /// The interpreted-function registry (to add custom predicates).
    pub fn interp_mut(&mut self) -> &mut Interp {
        &mut self.interp
    }

    /// The interpreted-function registry (read access).
    pub fn interp(&self) -> &Interp {
        &self.interp
    }

    /// Ingested document roots, in order.
    pub fn documents(&self) -> &[Oid] {
        &self.documents
    }

    /// Validate the whole instance (types + constraints).
    pub fn check(&self) -> Vec<docql_model::ModelError> {
        self.instance.check()
    }

    /// The root of persistence holding all documents (e.g. `Articles`).
    pub fn collection_root(&self) -> docql_model::Sym {
        self.mapping.root
    }

    /// Text-index statistics `(documents, terms)`.
    pub fn index_stats(&self) -> (usize, usize) {
        (self.index.doc_count(), self.index.term_count())
    }
}

/// A `DocStore` is its own statistics snapshot: the counters the cost
/// model reads (document/object totals, per-path extent target counts,
/// text-index posting lengths) are maintained incrementally by the
/// substrate indexes at ingest/update time, and the whole store travels
/// as one immutable MVCC snapshot — a plan costed against a pinned
/// snapshot can never read torn statistics, because nothing in the
/// snapshot ever changes (writers mutate a fork and publish a new
/// version with a new [`DocStore::stats_version`]).
impl docql_algebra::StatsSource for DocStore {
    fn version(&self) -> u64 {
        self.stats_version
    }

    fn documents(&self) -> u64 {
        self.documents.len() as u64
    }

    fn objects(&self) -> u64 {
        self.instance.object_count() as u64
    }

    fn extent_targets(&self, key: &[docql_paths::ExtStep]) -> Option<u64> {
        self.extents
            .lookup(key)
            .map(|pid| self.extents.path_target_count(pid))
    }

    fn posting_docs(&self, term: &str) -> u64 {
        self.index.posting_doc_count(term) as u64
    }

    fn avg_doc_words(&self) -> u64 {
        self.index
            .total_words()
            .checked_div(self.documents.len() as u64)
            .unwrap_or(0)
    }
}

fn io_err(e: std::io::Error) -> StoreError {
    StoreError::Other(format!("io: {e}"))
}

/// Human-readable message from a caught panic payload (`&str` and `String`
/// payloads cover `panic!`; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Set gauge `g` to `v`, saturating at `i64::MAX`.
fn set_gauge(g: &docql_obs::Gauge, v: impl TryInto<i64>) {
    g.set(v.try_into().unwrap_or(i64::MAX));
}

/// Strip a leading case-insensitive keyword and the whitespace after it.
fn strip_keyword<'s>(s: &'s str, kw: &str) -> Option<&'s str> {
    let s = s.trim_start();
    let head = s.get(..kw.len())?;
    if !head.eq_ignore_ascii_case(kw) {
        return None;
    }
    let rest = &s[kw.len()..];
    rest.starts_with(char::is_whitespace)
        .then(|| rest.trim_start())
}

/// The query text behind a leading `explain analyze` (any case, any
/// whitespace), or `None` when the text is a plain query.
fn strip_explain_analyze(src: &str) -> Option<&str> {
    strip_keyword(src, "explain").and_then(|rest| strip_keyword(rest, "analyze"))
}

/// A clonable handle serving one logical store to many threads via
/// multi-version snapshots: readers pin the currently published immutable
/// [`DocStore`] version — one `Arc` clone, never a lock held across query
/// work — while a writer forks that version, applies its operations to the
/// fork privately, and publishes it as the next snapshot.
/// Object store, inverted text index and path-extent index travel together
/// in each version, so a pinned snapshot is always internally consistent,
/// and an in-flight reader keeps serving its version for as long as it
/// holds the `Arc` — writers never stall it, it never blocks them.
///
/// Every write is a list of [`WalOp`]s run by [`SharedStore::apply`]. A
/// handle built with [`SharedStore::new`] lives in memory; one opened from
/// a directory with [`SharedStore::open`] or [`SharedStore::reopen`] also
/// carries a write-ahead log, and `apply` fsyncs each operation to it
/// before publishing (see [`persist`]). The closure-taking write behind
/// `apply` is private, so no write can skip the log:
///
/// ```compile_fail
/// fn write_around_the_log(shared: &docql_store::SharedStore) {
///     let _unlogged = shared.write(|store, _log| store.ingest("<article></article>"));
/// }
/// ```
///
/// A pinned snapshot is immutable, so it offers no way around the log
/// either:
///
/// ```compile_fail
/// fn write_through_a_snapshot(shared: &docql_store::SharedStore) {
///     let _unlogged = shared.read().ingest("<article></article>");
/// }
/// ```
///
/// Memory reclamation is `Arc`-structural: when the last reader of a
/// superseded version drops it, everything that version alone kept alive is
/// freed; data shared with newer versions (the copy-on-write bulk) lives
/// on. Clone the handle into each serving thread.
///
/// For read-only fan-out over a store that is not being written, a plain
/// `&DocStore` shared by scoped threads is equivalent;
/// `SharedStore` is for workloads where ingest interleaves with serving.
#[derive(Clone)]
pub struct SharedStore {
    inner: Arc<SharedInner>,
}

struct SharedInner {
    /// The publication cell. std has no atomic `Arc` swap, so a `Mutex`
    /// guards the *pointer* — held only for the nanoseconds an `Arc`
    /// clone/store takes, never across parsing, evaluation or ingest, so
    /// readers can stall neither each other nor the writer in any way that
    /// outlives a pointer copy. (A true lock-free swap would need an
    /// external arc-swap/epoch crate; this is the std-only equivalent.)
    /// Each version carries its own publication stamp: its version number
    /// and when it was published.
    current: Mutex<Arc<DocStore>>,
    /// Serialises writes and checkpoints, and holds a durable handle's
    /// log: each write forks from `current` and publishes back (two
    /// concurrent writers would lose updates), and a checkpoint pins
    /// exactly the version its log position describes. Readers never touch
    /// this lock.
    writer: Mutex<Option<Log>>,
}

impl std::fmt::Debug for SharedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedStore")
            .field("snapshot_version", &self.snapshot_version())
            .finish_non_exhaustive()
    }
}

impl SharedStore {
    /// Wrap a store for shared in-memory serving; it becomes snapshot
    /// version 0.
    pub fn new(store: DocStore) -> SharedStore {
        SharedStore::with_log(store, None)
    }

    /// Wrap a store, with the log its writes append to when durable.
    fn with_log(mut store: DocStore, log: Option<Log>) -> SharedStore {
        store.published_version = 0;
        store.published_at = Instant::now();
        SharedStore {
            inner: Arc::new(SharedInner {
                current: Mutex::new(Arc::new(store)),
                writer: Mutex::new(log),
            }),
        }
    }

    /// Pin the currently published snapshot: an `Arc` handle to an
    /// immutable store version. The publication cell is locked only for
    /// the `Arc` clone — the returned snapshot is read without any lock,
    /// for as long as the caller keeps it, regardless of how many versions
    /// writers publish in the meantime. When metrics are on, pinning also
    /// samples the snapshot-version and snapshot-age gauges.
    pub fn read(&self) -> Arc<DocStore> {
        let store = Arc::clone(&self.current());
        let m = &store.metrics;
        if m.enabled() {
            set_gauge(&m.snapshot_version, store.published_version);
            set_gauge(&m.snapshot_age_ms, store.published_at.elapsed().as_millis());
        }
        store
    }

    /// The version number of the currently published snapshot (0 = the
    /// store as wrapped; +1 per successful write).
    pub fn snapshot_version(&self) -> u64 {
        self.current().published_version
    }

    /// Does this handle log its writes (opened from a directory)?
    pub fn is_durable(&self) -> bool {
        self.lock_writer().is_some()
    }

    /// Run `ops` as one write: apply every op to a fork of the published
    /// snapshot ([`DocStore::apply`]), then append every op to the log if
    /// the handle has one, then publish. A rejected op fails the write
    /// before anything is logged, and a failed write publishes nothing.
    /// Returns the document roots the ingests loaded and the write's
    /// filed trace (`None` when the flight recorder is off), the way
    /// [`SharedStore::query_traced`] returns a query's.
    pub fn apply(
        &self,
        ops: Vec<WalOp>,
    ) -> (Result<Vec<Oid>, StoreError>, Option<Arc<QueryTrace>>) {
        self.write(|store, log| {
            let roots = store.apply(&ops)?;
            if let Some(log) = log {
                // A fault mid-batch is a crash mid-batch: the durable
                // prefix keeps the operations logged so far, and the
                // in-memory store publishes nothing (recovery's view and
                // the readers' view only converge on reopen, as after a
                // real crash).
                for op in ops {
                    log.append(store, op)?;
                }
            }
            Ok(roots)
        })
    }

    /// Run `op` as one write: fork the published snapshot under the writer
    /// mutex, run `op` on the fork and the log, and publish the fork as the
    /// next version if `op` returns `Ok`. On `Err` or a panic the fork is
    /// dropped: a failed write publishes nothing. Readers wait only for the
    /// swap, and the write never waits for them; concurrent writes
    /// serialise. The write is one trace: `fork`, the spans of `op`,
    /// `snapshot_publish`.
    fn write<T>(
        &self,
        op: impl FnOnce(&mut DocStore, Option<&mut Log>) -> Result<T, StoreError>,
    ) -> (Result<T, StoreError>, Option<Arc<QueryTrace>>) {
        let mut writer = self.lock_writer();
        // Forking under the writer mutex pins the latest version: no other
        // writer can publish between the fork and our publication. The
        // publication cell is held only for the `Arc` clone, not the fork,
        // so readers keep pinning snapshots meanwhile.
        let latest = Arc::clone(&self.current());
        let trace = latest.begin_write(WriteKind::Write);
        let mut store = span(trace.as_ref(), "fork", || latest.fork());
        // Unpin before the swap: the writer then frees the superseded
        // version right after it unless a reader pins it. Kept past it,
        // timing picks who frees it.
        drop(latest);
        store.trace = trace;
        let out = op(&mut store, writer.as_mut());
        let trace = store.trace.take();
        if out.is_ok() {
            span(trace.as_ref(), "snapshot_publish", || {
                if store.metrics.enabled() {
                    store.metrics.snapshots_published.inc();
                }
                let mut cur = self.current();
                // Stamp the fork with the version it is about to become, so
                // traces served from it report the snapshot they ran against.
                store.published_version = cur.published_version + 1;
                store.published_at = Instant::now();
                if let Some(trace) = &trace {
                    trace.snapshot(&store);
                }
                let superseded = std::mem::replace(&mut *cur, Arc::new(store));
                drop(cur);
                // Freed outside the publication lock, so readers pinning a
                // snapshot wait only for the pointer swap. No reader can pin
                // `superseded` any more, so this frees it unless a reader
                // pinned it before the swap; then that reader frees it.
                drop(superseded);
            });
        }
        let filer = Arc::clone(&self.current());
        let filed = filer.finish_write(trace, &out);
        (out, filed)
    }

    /// The publication cell, locked for a pointer-sized read or swap.
    fn current(&self) -> MutexGuard<'_, Arc<DocStore>> {
        self.inner
            .current
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The writer mutex and the log it guards. Poison recovery is sound: a
    /// panicking writer aborts its write (nothing published), and the
    /// log's own `crashed` flag — not the mutex state — gates a damaged
    /// log.
    fn lock_writer(&self) -> MutexGuard<'_, Option<Log>> {
        self.inner
            .writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Run an O₂SQL query against the current snapshot (plan-cached).
    pub fn query(&self, src: &str) -> Result<QueryResult, StoreError> {
        self.read().query(src)
    }

    /// Run an algebraic-mode query against the current snapshot (plan-cached).
    pub fn query_algebraic(&self, src: &str) -> Result<QueryResult, StoreError> {
        self.read().query_algebraic(src)
    }

    /// [`DocStore::query_traced`] against the current snapshot.
    pub fn query_traced(
        &self,
        src: &str,
        mode: Mode,
        limits: &docql_guard::QueryLimits,
    ) -> (Result<QueryResult, StoreError>, Option<Arc<QueryTrace>>) {
        self.read().query_traced(src, mode, limits)
    }

    /// Turn metric recording on or off (see
    /// [`DocStore::set_metrics_enabled`]).
    pub fn set_metrics_enabled(&self, on: bool) {
        self.read().set_metrics_enabled(on);
    }

    /// Turn query tracing on or off (the flight recorder is shared by
    /// every snapshot version, so this takes effect store-wide at once).
    pub fn set_tracing_enabled(&self, on: bool) {
        self.read().set_tracing_enabled(on);
    }

    /// Ingest one document: a one-document [`SharedStore::ingest_batch`].
    pub fn ingest(&self, sgml_text: &str) -> Result<Oid, StoreError> {
        self.ingest_batch(&[sgml_text])?
            .pop()
            .ok_or_else(|| StoreError::Other("ingest loaded no document".into()))
    }

    /// Ingest a batch as one write of one [`WalOp::Ingest`] per document
    /// (see [`SharedStore::apply`]): validated and loaded together, logged
    /// as one record per document, published atomically.
    pub fn ingest_batch(&self, docs: &[&str]) -> Result<Vec<Oid>, StoreError> {
        let ops = docs.iter().map(|d| WalOp::Ingest {
            sgml: d.to_string(),
        });
        self.apply(ops.collect()).0
    }

    /// Bind a named root of persistence as one write.
    pub fn bind(&self, name: &str, oid: Oid) -> Result<(), StoreError> {
        let op = WalOp::Bind {
            name: name.to_string(),
            oid: oid.0,
        };
        self.apply(vec![op]).0.map(drop)
    }
}

// The concurrency model rests on these bounds; fail the build, not the
// deployment, if a non-Sync field ever sneaks into the store.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DocStore>();
    assert_send_sync::<SharedStore>();
};

/// Convenience: the paper's running example, pre-loaded: the Fig. 1 DTD
/// with the Fig. 2 document ingested and bound to `my_article`.
pub fn paper_store() -> Result<DocStore, StoreError> {
    let mut store = DocStore::new(
        docql_sgml::fixtures::ARTICLE_DTD,
        &["my_article", "my_old_article"],
    )?;
    let root = store.ingest(docql_sgml::fixtures::FIG2_DOCUMENT)?;
    store.bind("my_article", root)?;
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use docql_sgml::fixtures::FIG2_DOCUMENT;

    #[test]
    fn build_ingest_and_check() {
        let store = paper_store().unwrap();
        assert_eq!(store.documents().len(), 1);
        assert!(store.check().is_empty());
        let (docs, terms) = store.index_stats();
        assert_eq!(docs, 1);
        assert!(terms > 20);
    }

    #[test]
    fn named_root_is_queryable() {
        let store = paper_store().unwrap();
        let r = store
            .query("select t from my_article PATH_p.title(t)")
            .unwrap();
        assert!(!r.is_empty());
    }

    #[test]
    fn text_operator_uses_loader_table() {
        let store = paper_store().unwrap();
        let root = store.documents()[0];
        let text = store.text_of(root).unwrap();
        assert!(text.contains("SGML preliminaries"));
    }

    #[test]
    fn text_is_the_one_text_builtin() {
        let store = paper_store().unwrap();
        let root = store.documents()[0];
        let r = store.query("select text(a) from a in Articles").unwrap();
        assert_eq!(
            r.rows,
            vec![vec![CalcValue::Data(Value::str(
                store.text_of(root).unwrap()
            ))]]
        );
        // Regression: a never-overridden `text_of` alias answered `""`.
        let err = store
            .query("select text_of(a) from a in Articles")
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown function `text_of`"), "{err}");
    }

    #[test]
    fn find_documents_index_and_scan_agree() {
        let mut store = DocStore::new(docql_sgml::fixtures::ARTICLE_DTD, &[]).unwrap();
        store.ingest(FIG2_DOCUMENT).unwrap();
        let second = FIG2_DOCUMENT
            .replace(
                "From Structured Documents to Novel Query Facilities",
                "A Totally Different Title",
            )
            .replace("SGML preliminaries", "XML musings");
        store.ingest(&second).unwrap();
        let e = ContainsExpr::all_of(["SGML preliminaries"]).unwrap();
        let a = store.find_documents(&e);
        let b = store.find_documents_scan(&e);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn doc_id_to_oid_conversion_is_checked() {
        assert_eq!(oid_of_doc(5), Some(Oid(5)));
        assert_eq!(oid_of_doc(u64::from(u32::MAX)), Some(Oid(u32::MAX)));
        // Regression: `Oid(d as u32)` truncated — an out-of-range id (here
        // one that truncates to 5) must not alias document Oid(5).
        let out_of_range = u64::from(u32::MAX) + 1 + 5;
        assert_eq!(oid_of_doc(out_of_range), None);
    }

    #[test]
    fn empty_text_root_is_seen_by_index_and_scan_alike() {
        // A root with no textual content at all (EMPTY → Media mapping):
        // the index must still register the document, so that index-backed
        // and scan search agree — in particular on NOT queries, which
        // every registered document with non-matching text satisfies.
        let dtd = "<!DOCTYPE gallery [\n<!ELEMENT gallery - O EMPTY>\n]>";
        let mut store = DocStore::new(dtd, &[]).unwrap();
        let root = store.ingest("<gallery></gallery>").unwrap();
        assert_eq!(store.text_of(root), Some(String::new()));
        let (docs, _terms) = store.index_stats();
        assert_eq!(docs, 1, "empty-text document registered in the index");
        let not_x = ContainsExpr::Not(Box::new(ContainsExpr::pattern("x").unwrap()));
        let a = store.find_documents(&not_x);
        let b = store.find_documents_scan(&not_x);
        assert_eq!(a, b);
        assert_eq!(a, vec![root]);
    }

    #[test]
    fn ingest_batch_matches_serial_ingest() {
        let texts: Vec<String> = (0..6)
            .map(|i| {
                FIG2_DOCUMENT.replace(
                    "From Structured Documents to Novel Query Facilities",
                    &format!("Batch Document {i}"),
                )
            })
            .collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();

        let mut serial = DocStore::new(docql_sgml::fixtures::ARTICLE_DTD, &[]).unwrap();
        for t in &refs {
            serial.ingest(t).unwrap();
        }
        let mut batch = DocStore::new(docql_sgml::fixtures::ARTICLE_DTD, &[]).unwrap();
        let roots = batch.ingest_batch(&refs).unwrap();

        assert_eq!(roots.len(), refs.len());
        assert_eq!(batch.documents(), serial.documents());
        assert_eq!(batch.index_stats(), serial.index_stats());
        assert!(batch.check().is_empty());
        let q = "select t from Articles PATH_p.title(t)";
        assert_eq!(batch.query(q).unwrap(), serial.query(q).unwrap());
        let e = ContainsExpr::all_of(["SGML", "preliminaries"]).unwrap();
        assert_eq!(batch.find_documents(&e), serial.find_documents(&e));
    }

    #[test]
    fn ingest_batch_parse_error_leaves_store_unchanged() {
        let mut store = DocStore::new(docql_sgml::fixtures::ARTICLE_DTD, &[]).unwrap();
        let bad = "<article><title>unclosed";
        let r = store.ingest_batch(&[FIG2_DOCUMENT, bad]);
        assert!(r.is_err());
        assert_eq!(
            store.documents().len(),
            0,
            "batch is atomic on parse errors"
        );
        assert_eq!(store.index_stats().0, 0);
    }

    #[test]
    fn failed_shared_writes_publish_no_snapshot() {
        let store = DocStore::new(docql_sgml::fixtures::ARTICLE_DTD, &["my_article"]).unwrap();
        store.set_metrics_enabled(true);
        let shared = SharedStore::new(store);
        let published = || shared.read().metrics().snapshots_published.get();

        assert!(shared.ingest("<article><title>unterminated").is_err());
        assert!(shared
            .ingest_batch(&[FIG2_DOCUMENT, "<article><title>unterminated"])
            .is_err());
        assert!(shared.bind("no_such_root", Oid(0)).is_err());
        // A failed update publishes nothing either (the error, not a doc
        // comment, settles the write).
        let update = WalOp::Update {
            oid: u32::MAX,
            value: Value::str("x"),
        };
        assert!(shared.apply(vec![update]).0.is_err());
        assert_eq!(
            shared.snapshot_version(),
            0,
            "failed writes publish nothing"
        );
        assert_eq!(published(), 0);
        assert!(shared.read().documents().is_empty());

        // A successful write still publishes exactly one version.
        let root = shared.ingest(FIG2_DOCUMENT).unwrap();
        assert!(shared.bind("no_such_root", root).is_err());
        assert_eq!(shared.snapshot_version(), 1);
        assert_eq!(published(), 1);
        assert_eq!(shared.read().documents(), &[root]);
    }

    #[test]
    fn plan_cache_hits_and_returns_identical_results() {
        let store = paper_store().unwrap();
        let q = "select t from my_article PATH_p.title(t)";
        let first = store.query(q).unwrap();
        let second = store.query(q).unwrap();
        assert_eq!(first, second);
        assert_eq!(store.engine().run(q).unwrap(), second);
        let stats = store.plan_cache_stats();
        assert!(stats.hits >= 1, "second run hits the cache: {stats:?}");
        assert!(stats.misses >= 1);
        assert_eq!(stats.entries, 1);
        // Algebraic mode shares the entry and memoises its plan.
        let alg = store.query_algebraic(q).unwrap();
        assert_eq!(alg.rows.len(), second.rows.len());
        assert_eq!(store.plan_cache_stats().entries, 1);
    }

    #[test]
    fn export_round_trip() {
        let store = paper_store().unwrap();
        let doc = store.export(store.documents()[0]).unwrap();
        assert_eq!(doc.root.name, "article");
        assert!(docql_sgml::is_valid(&doc, store.dtd()));
    }

    #[test]
    fn explain_analyze_prefix_is_intercepted() {
        let store = paper_store().unwrap();
        assert_eq!(
            strip_explain_analyze("  EXPLAIN\n Analyze  select x from y"),
            Some("select x from y")
        );
        assert_eq!(strip_explain_analyze("explain analyze"), None);
        assert_eq!(strip_explain_analyze("select t from x"), None);
        let r = store
            .query("explain analyze select t from my_article PATH_p.title(t)")
            .unwrap();
        assert_eq!(r.columns, vec!["explain analyze".to_string()]);
        assert_eq!(r.rows.len(), 1);
        match &r.rows[0][0] {
            CalcValue::Data(Value::Str(report)) => {
                assert!(report.starts_with("EXPLAIN ANALYZE"), "{report}");
                assert!(report.contains("result:"), "{report}");
            }
            other => panic!("expected a string report, got {other:?}"),
        }
    }

    #[test]
    fn metrics_record_ingest_and_queries_when_enabled() {
        let mut store = DocStore::new(docql_sgml::fixtures::ARTICLE_DTD, &[]).unwrap();
        store.set_metrics_enabled(true);
        store.ingest(FIG2_DOCUMENT).unwrap();
        store
            .query("select t from Articles PATH_p.title(t)")
            .unwrap();
        store
            .query_algebraic("select t from Articles PATH_p.title(t)")
            .unwrap();
        let snap = store.metrics_registry().snapshot();
        assert_eq!(snap.counter("docql_store_docs_ingested_total"), Some(1));
        assert_eq!(snap.counter("docql_queries_total"), Some(2));
        assert_eq!(snap.histogram("docql_store_ingest_ns").unwrap().count, 1);
        assert!(snap.counter("docql_plan_cache_misses_total").unwrap() >= 1);
        // Tracing is off, yet the algebraic run's operator spans still feed
        // the algebra and index-scan counters.
        assert!(snap.counter("docql_algebra_ops_executed_total").unwrap() > 0);
        let scans = snap.counter("docql_index_scan_extent_hits_total").unwrap()
            + snap
                .counter("docql_index_scan_walk_fallbacks_total")
                .unwrap();
        assert!(scans > 0, "the title path is answered by index scans");
        let prom = store.metrics_registry().to_prometheus();
        assert!(prom.contains("docql_queries_total 2"));
        let json = store.metrics_registry().to_json();
        assert!(json.contains("\"docql_queries_total\""));
    }

    #[test]
    fn metrics_disabled_records_nothing() {
        let mut store = DocStore::new(docql_sgml::fixtures::ARTICLE_DTD, &[]).unwrap();
        store.ingest(FIG2_DOCUMENT).unwrap();
        store
            .query("select t from Articles PATH_p.title(t)")
            .unwrap();
        let snap = store.metrics_registry().snapshot();
        assert_eq!(snap.counter("docql_store_docs_ingested_total"), Some(0));
        assert_eq!(snap.counter("docql_queries_total"), Some(0));
    }

    #[test]
    fn slow_query_threshold_zero_counts_every_query() {
        let store = paper_store().unwrap();
        store.set_metrics_enabled(true);
        store.set_tracing_enabled(true);
        store
            .flight_recorder()
            .set_slow_cutoff(std::time::Duration::ZERO);
        store
            .query("select t from my_article PATH_p.title(t)")
            .unwrap();
        store
            .query("select t from my_article PATH_p.title(t)")
            .unwrap();
        assert_eq!(store.metrics().slow_queries.get(), 2);
    }

    #[test]
    fn contains_predicate_evaluations_are_counted() {
        let store = paper_store().unwrap();
        store.set_metrics_enabled(true);
        for pred in [
            "contains(t, \"SGML\")",
            "near(t, \"SGML\", \"OODBMS\", 3)",
            "near_chars(t, \"SGML\", \"OODBMS\", 30)",
        ] {
            let before = store.metrics().contains_evals.get();
            store
                .query(&format!(
                    "select t from my_article PATH_p.title(t) where {pred}"
                ))
                .unwrap();
            assert!(
                store.metrics().contains_evals.get() > before,
                "{pred} ran at least once"
            );
        }
    }

    #[test]
    fn a_fork_plus_one_ingest_copies_a_bounded_number_of_chunks() {
        use docql_corpus::{generate_article, ArticleParams};
        let article = |seed| {
            generate_article(&ArticleParams {
                seed,
                sections: 5,
                subsections: 2,
                ..ArticleParams::default()
            })
        };
        let mut store = DocStore::new(docql_sgml::fixtures::ARTICLE_DTD, &[]).unwrap();
        let mut seed = 0;
        for n in [50, 200] {
            while store.documents().len() < n {
                store.ingest_document(&article(seed)).unwrap();
                seed += 1;
            }
            let mut fork = store.fork();
            fork.ingest_document(&article(seed)).unwrap();
            let copied = [
                fork.instance.unshared_chunks(&store.instance),
                fork.index.unshared_chunks(&store.index),
                fork.extents.unshared_chunks(&store.extents),
            ];
            // An article adds 54 objects (a group and at most two chunks
            // of the object table), has about 62 distinct terms (a list
            // group and chunk each, plus vocabulary and word-count chunks)
            // and one extent-table entry (a group and a chunk).
            let bounds = [4, 160, 2];
            for (table, (c, b)) in ["objects", "postings", "extents"]
                .iter()
                .zip(copied.iter().zip(bounds))
            {
                assert!(c <= &b, "{table}: {c} chunks copied at {n} documents");
            }
        }
    }

    #[test]
    fn binding_unknown_root_fails() {
        let mut store = DocStore::new(docql_sgml::fixtures::ARTICLE_DTD, &[]).unwrap();
        let root = store.ingest(FIG2_DOCUMENT).unwrap();
        assert!(store.bind("nope", root).is_err());
    }
}
