//! Structured query tracing and the flight recorder.
//!
//! Every served query can carry a [`TraceBuilder`]: the serving path stamps
//! phase timings (parse → translate → algebraize → execute), per-operator
//! spans (from the algebra's `PlanProfile`, converted to [`OpSpan`]s with
//! estimated rows attached), plan-cache and governance outcomes, the stats
//! version the plan was costed against, and the MVCC snapshot the query ran
//! on. Finishing the builder yields an immutable [`QueryTrace`] which the
//! [`FlightRecorder`] retains in two bounded rings: the last N queries, and
//! a separately-retained slow/error reservoir.
//!
//! Background subsystems (WAL, checkpointer, snapshot publication, the
//! re-planner) report [`TraceEvent`]s into the recorder's global event log;
//! when a trace is recorded, the events that fell inside its time window
//! are copied into it — so a single trace explains *why* a query was slow
//! (an fsync, a checkpoint, or a re-plan that happened under it).
//!
//! Cost contract, mirroring the metrics registry: the recorder is always
//! compiled and **off by default**; a disabled recorder costs one relaxed
//! atomic load per query and allocates nothing. Setting `DOCQL_TRACE` to
//! `stderr` or a file path enables the recorder at construction and emits
//! one JSON line per finished query; setting `DOCQL_LOG` enables it too,
//! with that slow cutoff, and prints one stderr line per slow trace.
//!
//! Concurrency: trace rings are a fixed array of slots with an atomic write
//! cursor — writers claim a slot wait-free and swap an `Arc` pointer under
//! a per-slot lock held only for the swap, so readers never observe a
//! partially-written trace. The global event log is a small mutexed deque;
//! events are rare (publications, checkpoints) so contention is nil.

use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Environment variable selecting the JSON-lines trace sink (`stderr` or a
/// file path). Setting it also enables recorders built by
/// [`FlightRecorder::from_env`].
pub const TRACE_ENV: &str = "DOCQL_TRACE";

/// Default capacity of the recent-queries ring.
pub const DEFAULT_RECENT_CAPACITY: usize = 128;
/// Default capacity of the slow/error reservoir.
pub const DEFAULT_SLOW_CAPACITY: usize = 32;
/// Default capacity of the global (cross-query) event log.
pub const DEFAULT_EVENT_CAPACITY: usize = 256;
/// Default slow cutoff when `DOCQL_LOG` provides no threshold.
pub const DEFAULT_SLOW_CUTOFF: Duration = Duration::from_millis(10);

/// A per-query identifier: unique within a process, best-effort unique
/// across processes (the high half is seeded from the process id and clock).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Process-level id entropy: hashed pid and wall clock, computed once.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let pid = u64::from(std::process::id());
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        // SplitMix64 finalizer — a cheap avalanche, not cryptography.
        let mut z = pid ^ nanos.rotate_left(32);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    })
}

/// Escape `s` for embedding in a JSON string literal (hand-rolled; the
/// workspace is dependency-free).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// A timestamped point event (WAL append/fsync, checkpoint, recovery,
/// snapshot publication, re-plan). Timestamps are nanoseconds since the
/// recorder's epoch, so events and traces share one timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder epoch.
    pub at_ns: u64,
    /// Event kind (`wal_append`, `checkpoint`, `snapshot_publish`,
    /// `replan`, ...).
    pub kind: &'static str,
    /// Free-form `key=value` detail.
    pub detail: String,
}

impl TraceEvent {
    fn to_json(&self) -> String {
        format!(
            "{{\"at_ns\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
            self.at_ns,
            json_escape(self.kind),
            json_escape(&self.detail)
        )
    }
}

/// One timed pipeline phase (parse, translate, algebraize, execute).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase name.
    pub name: &'static str,
    /// Inclusive wall time in nanoseconds.
    pub ns: u64,
}

/// One operator of the executed plan: actual calls/rows/time from the
/// profile, estimated rows from the cost model (est-vs-actual in one span).
#[derive(Clone, Debug, PartialEq)]
pub struct OpSpan {
    /// Depth in the plan tree (root = 0).
    pub depth: u32,
    /// Operator label (`Walk p.title(t)`, `Filter contains(..)`, ...).
    /// Shared (`Arc`) because the serving path clones labels out of a
    /// per-plan cache on every traced run.
    pub label: Arc<str>,
    /// Times the operator ran.
    pub calls: u64,
    /// Rows emitted across all calls.
    pub rows: u64,
    /// Inclusive nanoseconds across all calls.
    pub ns: u64,
    /// Estimated output rows from the cost model, when the plan was costed.
    pub est_rows: Option<u64>,
    /// Path-index servings (index-backed scans).
    pub index_hits: u64,
    /// Walk fallbacks where the index could not serve.
    pub walk_fallbacks: u64,
}

impl OpSpan {
    fn to_json(&self) -> String {
        let est = match self.est_rows {
            Some(v) => format!(",\"est_rows\":{v}"),
            None => String::new(),
        };
        format!(
            "{{\"op\":\"{}\",\"depth\":{},\"calls\":{},\"rows\":{},\"ns\":{}{},\"index_hits\":{},\"walk_fallbacks\":{}}}",
            json_escape(&self.label),
            self.depth,
            self.calls,
            self.rows,
            self.ns,
            est,
            self.index_hits,
            self.walk_fallbacks
        )
    }
}

/// A completed query trace — the unit the flight recorder retains.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryTrace {
    /// The query's id.
    pub id: TraceId,
    /// Query text, flattened to one line.
    pub query: String,
    /// Start time, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Total wall time in nanoseconds.
    pub total_ns: u64,
    /// Timed pipeline phases, in execution order.
    pub phases: Vec<PhaseSpan>,
    /// Per-operator spans in pre-order (empty for interpreter-mode runs).
    pub operators: Vec<OpSpan>,
    /// `ok`, `partial`, `error`, or `panic`.
    pub outcome: String,
    /// Error or partial-result detail, when not `ok`.
    pub detail: Option<String>,
    /// Governance outcome (`complete`, or the guard trip that degraded or
    /// rejected the query).
    pub governance: String,
    /// Rows returned (delivered rows for partial results).
    pub rows: u64,
    /// Plan-cache outcome, when the cached path served the query.
    pub cache_hit: Option<bool>,
    /// Statistics version the plan was costed against, when costed.
    pub stats_version: Option<u64>,
    /// MVCC snapshot version the query ran on.
    pub snapshot_version: u64,
    /// Age of that snapshot at query start, in milliseconds.
    pub snapshot_age_ms: u64,
    /// Did the cost-based re-planner invalidate this plan during the run?
    pub replanned: bool,
    /// Events that fell inside this query's window (plus any recorded
    /// directly on the builder, e.g. `replan`).
    pub events: Vec<TraceEvent>,
    /// Did the query meet the recorder's slow cutoff?
    pub slow: bool,
}

impl QueryTrace {
    /// Render as one JSON line (the `DOCQL_TRACE` sink format).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!("{{\"trace_id\":\"{}\"", self.id));
        out.push_str(&format!(",\"query\":\"{}\"", json_escape(&self.query)));
        out.push_str(&format!(
            ",\"start_ns\":{},\"total_ns\":{},\"rows\":{}",
            self.start_ns, self.total_ns, self.rows
        ));
        out.push_str(&format!(
            ",\"outcome\":\"{}\",\"governance\":\"{}\",\"slow\":{}",
            json_escape(&self.outcome),
            json_escape(&self.governance),
            self.slow
        ));
        if let Some(d) = &self.detail {
            out.push_str(&format!(",\"detail\":\"{}\"", json_escape(d)));
        }
        if let Some(hit) = self.cache_hit {
            out.push_str(&format!(",\"cache_hit\":{hit}"));
        }
        if let Some(v) = self.stats_version {
            out.push_str(&format!(",\"stats_version\":{v}"));
        }
        out.push_str(&format!(
            ",\"snapshot_version\":{},\"snapshot_age_ms\":{},\"replanned\":{}",
            self.snapshot_version, self.snapshot_age_ms, self.replanned
        ));
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| format!("\"{}\":{}", json_escape(p.name), p.ns))
            .collect();
        out.push_str(&format!(",\"phases\":{{{}}}", phases.join(",")));
        if !self.operators.is_empty() {
            let ops: Vec<String> = self.operators.iter().map(OpSpan::to_json).collect();
            out.push_str(&format!(",\"operators\":[{}]", ops.join(",")));
        }
        if !self.events.is_empty() {
            let evs: Vec<String> = self.events.iter().map(TraceEvent::to_json).collect();
            out.push_str(&format!(",\"events\":[{}]", evs.join(",")));
        }
        out.push('}');
        out
    }

    /// The recorded nanoseconds of phase `name`, if timed.
    pub fn phase_ns(&self, name: &str) -> Option<u64> {
        self.phases.iter().find(|p| p.name == name).map(|p| p.ns)
    }

    /// Does the trace carry an event of `kind`?
    pub fn has_event(&self, kind: &str) -> bool {
        self.events.iter().any(|e| e.kind == kind)
    }
}

/// Mutable trace under construction, one per in-flight query. Interior
/// mutability (a mutex, uncontended — only the serving thread touches it)
/// lets the engine hold a shared reference while the store owns the value.
#[derive(Debug)]
pub struct TraceBuilder {
    started: Instant,
    inner: Mutex<QueryTrace>,
}

impl TraceBuilder {
    /// A fresh builder for `query`, started now. `start_ns` is the start
    /// time on the recorder's timeline ([`FlightRecorder::now_ns`]).
    pub fn new(id: TraceId, query: &str, start_ns: u64) -> TraceBuilder {
        // Flatten to one line (the sink format) — but most queries are
        // already one line, and this runs on every traced query.
        let trimmed = query.trim();
        let flat = if trimmed.contains(['\n', '\r']) {
            trimmed
                .chars()
                .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
                .collect()
        } else {
            trimmed.to_string()
        };
        TraceBuilder {
            started: Instant::now(),
            inner: Mutex::new(QueryTrace {
                id,
                query: flat,
                start_ns,
                total_ns: 0,
                phases: Vec::with_capacity(4),
                operators: Vec::new(),
                outcome: String::new(),
                detail: None,
                governance: String::new(),
                rows: 0,
                cache_hit: None,
                stats_version: None,
                snapshot_version: 0,
                snapshot_age_ms: 0,
                replanned: false,
                events: Vec::new(),
                slow: false,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueryTrace> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// This builder's trace id.
    pub fn id(&self) -> TraceId {
        self.lock().id
    }

    /// Record a timed phase (appended in call order).
    pub fn phase(&self, name: &'static str, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.lock().phases.push(PhaseSpan { name, ns });
    }

    /// The phases recorded so far, in call order.
    pub fn phases(&self) -> Vec<PhaseSpan> {
        self.lock().phases.clone()
    }

    /// Record an event directly on this trace (e.g. `replan`), timestamped
    /// relative to the query start.
    pub fn event(&self, kind: &'static str, detail: String) {
        let mut t = self.lock();
        let at_ns = t
            .start_ns
            .saturating_add(u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        t.events.push(TraceEvent {
            at_ns,
            kind,
            detail,
        });
    }

    /// Record the plan-cache outcome.
    pub fn set_cache(&self, hit: bool) {
        self.lock().cache_hit = Some(hit);
    }

    /// Record the statistics version the plan was costed against.
    pub fn set_stats_version(&self, v: u64) {
        self.lock().stats_version = Some(v);
    }

    /// Mark that the re-planner invalidated this query's cached plan.
    pub fn set_replanned(&self) {
        self.lock().replanned = true;
    }

    /// Attach the per-operator spans of the executed plan.
    pub fn set_operators(&self, ops: Vec<OpSpan>) {
        self.lock().operators = ops;
    }

    /// Record the MVCC snapshot the query ran on.
    pub fn set_snapshot(&self, version: u64, age: Duration) {
        let mut t = self.lock();
        t.snapshot_version = version;
        t.snapshot_age_ms = u64::try_from(age.as_millis()).unwrap_or(u64::MAX);
    }

    /// Time elapsed since the builder was created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Seal the trace with its outcome. `governance` is the guard
    /// classification (`complete` or the trip description); `detail`
    /// carries error/partial text.
    pub fn finish(
        self,
        outcome: &str,
        governance: &str,
        detail: Option<String>,
        rows: u64,
        total: Duration,
    ) -> QueryTrace {
        let mut t = self
            .inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        t.outcome = outcome.to_string();
        t.governance = governance.to_string();
        t.detail = detail;
        t.rows = rows;
        t.total_ns = u64::try_from(total.as_nanos()).unwrap_or(u64::MAX);
        t
    }
}

/// A bounded ring of completed traces: a fixed slot array plus an atomic
/// write cursor. Writers claim a logical index wait-free and swap the slot
/// pointer under a per-slot lock held only for the swap; the ring always
/// holds at most `capacity` traces and evicts the oldest.
#[derive(Debug)]
struct TraceRing {
    slots: Box<[RwLock<Option<Arc<QueryTrace>>>]>,
    head: AtomicU64,
}

impl TraceRing {
    fn new(capacity: usize) -> TraceRing {
        let capacity = capacity.max(1);
        let slots: Vec<RwLock<Option<Arc<QueryTrace>>>> =
            (0..capacity).map(|_| RwLock::new(None)).collect();
        TraceRing {
            slots: slots.into_boxed_slice(),
            head: AtomicU64::new(0),
        }
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn len(&self) -> usize {
        let head = self.head.load(Ordering::Acquire);
        usize::try_from(head)
            .unwrap_or(usize::MAX)
            .min(self.capacity())
    }

    fn push(&self, trace: Arc<QueryTrace>) {
        let idx = self.head.fetch_add(1, Ordering::AcqRel);
        let slot = usize::try_from(idx % self.slots.len() as u64).unwrap_or(0);
        let mut guard = self.slots[slot]
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        *guard = Some(trace);
    }

    /// Retained traces, oldest first. Taken without stopping writers, so a
    /// snapshot racing a push may observe the new trace in place of the
    /// evicted one — never a torn or partial trace.
    fn snapshot(&self) -> Vec<Arc<QueryTrace>> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity(usize::try_from(head - start).unwrap_or(0));
        for logical in start..head {
            let slot = usize::try_from(logical % cap).unwrap_or(0);
            let guard = self.slots[slot]
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(t) = guard.as_ref() {
                out.push(Arc::clone(t));
            }
        }
        out
    }
}

/// Where finished-trace JSON lines go.
#[derive(Debug)]
enum SinkTarget {
    Stderr,
    File(std::fs::File),
}

/// A JSON-lines sink for finished traces (`stderr` or an append-mode file).
#[derive(Debug)]
pub struct TraceSink {
    target: Mutex<SinkTarget>,
}

impl TraceSink {
    /// A sink writing to stderr.
    pub fn stderr() -> TraceSink {
        TraceSink {
            target: Mutex::new(SinkTarget::Stderr),
        }
    }

    /// A sink appending to `path` (created if missing).
    pub fn file(path: &str) -> std::io::Result<TraceSink> {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(TraceSink {
            target: Mutex::new(SinkTarget::File(f)),
        })
    }

    /// Write one line. Sink errors are swallowed — tracing must never fail
    /// a query.
    pub fn emit(&self, line: &str) {
        let mut target = self.target.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = match &mut *target {
            SinkTarget::Stderr => writeln!(std::io::stderr(), "{line}"),
            SinkTarget::File(f) => writeln!(f, "{line}"),
        };
    }
}

/// The process-wide sink configured by `DOCQL_TRACE`, read once. `stderr`
/// selects stderr; any other value is an append-mode file path (an
/// unopenable path disables the sink).
pub fn env_sink() -> Option<Arc<TraceSink>> {
    static SINK: OnceLock<Option<Arc<TraceSink>>> = OnceLock::new();
    SINK.get_or_init(|| {
        let target = std::env::var(TRACE_ENV).ok()?;
        let target = target.trim();
        if target.is_empty() {
            return None;
        }
        if target == "stderr" {
            return Some(Arc::new(TraceSink::stderr()));
        }
        TraceSink::file(target).ok().map(Arc::new)
    })
    .clone()
}

/// The flight recorder: recent-query ring, slow/error reservoir, global
/// event log, and optional JSON-lines sink. One per store lineage, shared
/// across MVCC forks like the plan cache — so history survives publication.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    enabled: AtomicBool,
    recorded: AtomicU64,
    recent: TraceRing,
    slow: TraceRing,
    slow_cutoff_ns: AtomicU64,
    events: Mutex<VecDeque<TraceEvent>>,
    event_capacity: usize,
    events_recorded: AtomicU64,
    sink: RwLock<Option<Arc<TraceSink>>>,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(DEFAULT_RECENT_CAPACITY, DEFAULT_SLOW_CAPACITY)
    }
}

impl FlightRecorder {
    /// A fresh, **disabled** recorder with the given ring capacities.
    pub fn new(recent_capacity: usize, slow_capacity: usize) -> FlightRecorder {
        let cutoff = crate::slow_query_threshold().unwrap_or(DEFAULT_SLOW_CUTOFF);
        FlightRecorder {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            recorded: AtomicU64::new(0),
            recent: TraceRing::new(recent_capacity),
            slow: TraceRing::new(slow_capacity),
            slow_cutoff_ns: AtomicU64::new(u64::try_from(cutoff.as_nanos()).unwrap_or(u64::MAX)),
            events: Mutex::new(VecDeque::new()),
            event_capacity: DEFAULT_EVENT_CAPACITY,
            events_recorded: AtomicU64::new(0),
            sink: RwLock::new(None),
        }
    }

    /// A recorder honoring the process environment: enabled when
    /// `DOCQL_TRACE` is set (with the JSON-lines sink attached) or when
    /// `DOCQL_LOG` is set (with the slow log on).
    pub fn from_env() -> FlightRecorder {
        let r = FlightRecorder::default();
        let sink = env_sink();
        r.set_enabled(sink.is_some() || crate::slow_query_threshold().is_some());
        r.set_sink(sink);
        r
    }

    /// Is the recorder on? One relaxed load — the per-query gate.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off. Retained traces are kept either way.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Replace the JSON-lines sink (tests; `from_env` wires `DOCQL_TRACE`).
    pub fn set_sink(&self, sink: Option<Arc<TraceSink>>) {
        *self.sink.write().unwrap_or_else(PoisonError::into_inner) = sink;
    }

    /// Nanoseconds since the recorder epoch — the shared timeline for
    /// traces and events.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The slow cutoff: traces at or above it are marked slow, kept in the
    /// reservoir, counted, and (under `DOCQL_LOG`) printed to stderr.
    pub fn slow_cutoff(&self) -> Duration {
        Duration::from_nanos(self.slow_cutoff_ns.load(Ordering::Relaxed))
    }

    /// Change the slow cutoff.
    pub fn set_slow_cutoff(&self, cutoff: Duration) {
        self.slow_cutoff_ns.store(
            u64::try_from(cutoff.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
    }

    /// Start a trace for `query`: fresh process-unique id, stamped on this
    /// recorder's timeline.
    pub fn begin(&self, query: &str) -> TraceBuilder {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let id = TraceId((process_seed() << 20) | (seq & 0xf_ffff));
        TraceBuilder::new(id, query, self.now_ns())
    }

    /// Report a background event (WAL append, checkpoint, snapshot
    /// publication, ...) onto the global timeline. A no-op when disabled.
    pub fn global_event(&self, kind: &'static str, detail: String) {
        if !self.enabled() {
            return;
        }
        let ev = TraceEvent {
            at_ns: self.now_ns(),
            kind,
            detail,
        };
        let mut events = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        if events.len() >= self.event_capacity {
            events.pop_front();
        }
        events.push_back(ev);
        self.events_recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one per-connection lifecycle event from the serving tier
    /// (`conn_open`, `conn_close`, `conn_timeout`, `conn_disconnect`, …),
    /// tagged with the server's connection id so the events of one socket
    /// can be grepped out of the shared timeline. A no-op when disabled.
    pub fn connection_event(&self, kind: &'static str, conn_id: u64, detail: &str) {
        if self.enabled() {
            self.global_event(kind, format!("conn={conn_id} {detail}"));
        }
    }

    /// Events whose timestamp falls in `[from_ns, to_ns]`, oldest first.
    pub fn events_between(&self, from_ns: u64, to_ns: u64) -> Vec<TraceEvent> {
        let events = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        events
            .iter()
            .filter(|e| e.at_ns >= from_ns && e.at_ns <= to_ns)
            .cloned()
            .collect()
    }

    /// Retain a finished trace: merge in the global events that fell inside
    /// its window, stamp the slow flag, route to the rings, emit to the
    /// sink, and print a slow trace's line when `DOCQL_LOG` is set. Returns
    /// the retained trace.
    pub fn record(&self, mut trace: QueryTrace) -> Arc<QueryTrace> {
        let end_ns = trace.start_ns.saturating_add(trace.total_ns);
        let mut window = self.events_between(trace.start_ns, end_ns);
        if !window.is_empty() {
            trace.events.append(&mut window);
            trace.events.sort_by_key(|e| e.at_ns);
        }
        trace.slow = trace.total_ns >= self.slow_cutoff_ns.load(Ordering::Relaxed);
        if trace.slow && crate::slow_query_threshold().is_some() {
            crate::log_slow_query(&trace);
        }
        let keep = trace.slow || trace.outcome != "ok";
        let trace = Arc::new(trace);
        self.recent.push(Arc::clone(&trace));
        if keep {
            self.slow.push(Arc::clone(&trace));
        }
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let sink = self
            .sink
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        if let Some(sink) = sink {
            sink.emit(&trace.to_json());
        }
        trace
    }

    /// The retained recent traces, oldest first (at most
    /// [`FlightRecorder::capacity`]).
    pub fn recent(&self) -> Vec<Arc<QueryTrace>> {
        self.recent.snapshot()
    }

    /// The retained slow/error traces, oldest first.
    pub fn slow(&self) -> Vec<Arc<QueryTrace>> {
        self.slow.snapshot()
    }

    /// Capacity of the recent ring.
    pub fn capacity(&self) -> usize {
        self.recent.capacity()
    }

    /// Capacity of the slow/error reservoir.
    pub fn slow_capacity(&self) -> usize {
        self.slow.capacity()
    }

    /// Traces currently retained in the recent ring.
    pub fn len(&self) -> usize {
        self.recent.len()
    }

    /// Is the recent ring empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total traces ever recorded (exceeds `len()` once eviction starts).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Total background events ever reported.
    pub fn events_recorded(&self) -> u64 {
        self.events_recorded.load(Ordering::Relaxed)
    }

    /// Render the retained history as a JSON object
    /// (`{"recent":[...],"slow":[...]}`).
    pub fn to_json(&self) -> String {
        let recent: Vec<String> = self.recent().iter().map(|t| t.to_json()).collect();
        let slow: Vec<String> = self.slow().iter().map(|t| t.to_json()).collect();
        format!(
            "{{\"recent\":[{}],\"slow\":[{}]}}",
            recent.join(","),
            slow.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_named(r: &FlightRecorder, q: &str, total: Duration) -> QueryTrace {
        let b = r.begin(q);
        b.phase("parse", Duration::from_nanos(10));
        b.finish("ok", "complete", None, 1, total)
    }

    #[test]
    fn ids_are_unique_and_hex() {
        let r = FlightRecorder::default();
        let a = r.begin("q1").id();
        let b = r.begin("q2").id();
        assert_ne!(a, b);
        assert_eq!(a.to_string().len(), 16);
        assert!(a.to_string().chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn json_escape_covers_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn trace_json_is_one_line_with_id() {
        let r = FlightRecorder::default();
        let b = r.begin("select t\nfrom Articles a");
        b.phase("parse", Duration::from_micros(3));
        b.set_cache(true);
        b.set_stats_version(7);
        let t = b.finish("ok", "complete", None, 4, Duration::from_micros(50));
        let json = t.to_json();
        assert!(!json.contains('\n'));
        assert!(json.starts_with("{\"trace_id\":\""));
        assert!(json.contains("\"query\":\"select t from Articles a\""));
        assert!(json.contains("\"cache_hit\":true"));
        assert!(json.contains("\"stats_version\":7"));
        assert!(json.contains("\"phases\":{\"parse\":3000}"));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn ring_capacity_and_eviction() {
        let r = FlightRecorder::new(4, 2);
        r.set_enabled(true);
        for i in 0..10 {
            r.record(trace_named(&r, &format!("q{i}"), Duration::ZERO));
        }
        let recent = r.recent();
        assert_eq!(recent.len(), 4, "ring holds at most its capacity");
        assert_eq!(r.len(), 4);
        assert_eq!(r.recorded(), 10);
        // Oldest-first order, holding exactly the newest four.
        let names: Vec<&str> = recent.iter().map(|t| t.query.as_str()).collect();
        assert_eq!(names, vec!["q6", "q7", "q8", "q9"]);
    }

    #[test]
    fn slow_reservoir_retains_slow_and_errors() {
        let r = FlightRecorder::new(8, 8);
        r.set_slow_cutoff(Duration::from_millis(1));
        let fast = trace_named(&r, "fast", Duration::from_micros(10));
        let slow = trace_named(&r, "slow", Duration::from_millis(5));
        let b = r.begin("broken");
        let err = b.finish(
            "error",
            "complete",
            Some("parse error".into()),
            0,
            Duration::ZERO,
        );
        r.record(fast);
        let retained = r.record(slow);
        r.record(err);
        assert!(retained.slow);
        let slow_ring: Vec<String> = r.slow().iter().map(|t| t.query.clone()).collect();
        assert_eq!(slow_ring, vec!["slow", "broken"]);
        assert_eq!(r.recent().len(), 3, "recent ring holds everything");
    }

    #[test]
    fn events_merge_into_window() {
        let r = FlightRecorder::default();
        r.set_enabled(true);
        let b = r.begin("q");
        r.global_event("checkpoint", "bytes=10".to_string());
        std::thread::sleep(Duration::from_millis(2));
        let t = b.finish("ok", "complete", None, 0, Duration::from_millis(2));
        let t = r.record(t);
        assert!(
            t.has_event("checkpoint"),
            "in-window event copied into trace"
        );
        // An event after the query window is not attributed to it.
        let b2 = r.begin("q2");
        let t2 = b2.finish("ok", "complete", None, 0, Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        r.global_event("late", String::new());
        let t2 = r.record(t2);
        assert!(!t2.has_event("late"));
    }

    #[test]
    fn event_log_is_bounded() {
        let r = FlightRecorder::default();
        r.set_enabled(true);
        for i in 0..(DEFAULT_EVENT_CAPACITY + 50) {
            r.global_event("tick", format!("i={i}"));
        }
        assert_eq!(r.events_recorded(), (DEFAULT_EVENT_CAPACITY + 50) as u64);
        let all = r.events_between(0, u64::MAX);
        assert_eq!(all.len(), DEFAULT_EVENT_CAPACITY);
    }

    #[test]
    fn disabled_recorder_drops_events() {
        let r = FlightRecorder::default();
        assert!(!r.enabled());
        r.global_event("checkpoint", String::new());
        assert_eq!(r.events_recorded(), 0);
    }

    #[test]
    fn sink_receives_json_lines() {
        let dir = std::env::temp_dir().join(format!("docql-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sink.jsonl");
        let path_s = path.to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);
        let r = FlightRecorder::default();
        r.set_enabled(true);
        r.set_sink(Some(Arc::new(TraceSink::file(&path_s).unwrap())));
        r.record(trace_named(&r, "q1", Duration::ZERO));
        r.record(trace_named(&r, "q2", Duration::ZERO));
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            assert!(line.starts_with("{\"trace_id\":\"") && line.ends_with('}'));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_pushes_hold_ring_invariants() {
        let r = Arc::new(FlightRecorder::new(16, 4));
        r.set_enabled(true);
        let threads: Vec<_> = (0..8)
            .map(|w| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let t = trace_named(&r, &format!("w{w}-{i}"), Duration::ZERO);
                        r.record(t);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.recorded(), 1600);
        let recent = r.recent();
        assert!(recent.len() <= 16);
        assert!(!recent.is_empty());
        for t in &recent {
            assert!(t.query.starts_with('w'), "never a torn trace");
            assert_eq!(t.outcome, "ok");
        }
    }
}
