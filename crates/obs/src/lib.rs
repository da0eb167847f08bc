//! # docql-obs — observability for the docql stack
//!
//! A dependency-free metrics layer in the style of `docql-prop`: built on
//! `std` atomics only, so every crate in the workspace can afford the
//! dependency.
//!
//! - [`metric`] — the primitives: [`Counter`], [`Gauge`], and the
//!   log2-bucket [`Histogram`]. Handles are `Arc`
//!   clones, so a hot path and an exporter share the same cells.
//! - [`registry`] — [`MetricsRegistry`]: a named namespace with an enable
//!   flag (one relaxed load — the per-query gate), snapshots, and
//!   Prometheus-text / JSON exporters.
//! - [`slowlog`] — the `DOCQL_LOG` env-gated slow-query log: the value (in
//!   milliseconds, read once per process) sets the flight recorder's slow
//!   cutoff, and the recorder prints one line per slow trace.
//! - [`trace`] — per-query structured traces ([`TraceBuilder`] →
//!   [`QueryTrace`]) and the bounded [`FlightRecorder`] (recent ring,
//!   slow/error reservoir, background-event log, `DOCQL_TRACE` JSON-lines
//!   sink).
//!
//! The overhead contract, relied on by benches B10 and B15: with a registry
//! or recorder **disabled**, instrumented code performs at most a handful
//! of relaxed atomic loads per query and allocates nothing; **enabled**,
//! each recorded sample is a few relaxed RMW operations (plus, for traces,
//! one small allocation per query).

pub mod metric;
pub mod registry;
pub mod serve;
pub mod slowlog;
pub mod trace;

pub use metric::{bucket_of, bucket_upper_bound, Counter, Gauge, Histogram, BUCKETS};
pub use registry::{
    HistogramSnapshot, Metric, MetricValue, MetricsRegistry, MetricsSnapshot, SharedRegistry,
};
pub use serve::ServeMetrics;
pub use slowlog::{log_slow_query, slow_query_line, slow_query_threshold, SLOW_LOG_ENV};
pub use trace::{
    json_escape, FlightRecorder, OpSpan, PhaseSpan, QueryTrace, TraceBuilder, TraceEvent, TraceId,
    TraceSink, TRACE_ENV,
};
