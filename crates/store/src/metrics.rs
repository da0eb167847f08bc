//! Store-level metrics: ingest and durability timings, text-search
//! counters, and the slow-query tally.
//!
//! Every [`DocStore`](crate::DocStore) owns one
//! [`MetricsRegistry`](docql_obs::MetricsRegistry) (disabled by default) and
//! one [`StoreMetrics`] bundle of pre-resolved handles into it. The bundle
//! embeds the engine-side [`EngineMetrics`] (query lifecycle) and the
//! text-side [`TextMetrics`] (index lookups versus vocabulary scans), so the
//! whole pipeline shares a single enable flag and a single exportable
//! namespace. Every timing histogram is a view of a query trace
//! ([`EngineMetrics::record`]) or a write-side trace (`record_write`).

use crate::trace::WriteKind;
use docql_o2sql::EngineMetrics;
use docql_obs::{Counter, Gauge, Histogram, QueryTrace, SharedRegistry};
use docql_text::TextMetrics;
use std::sync::Arc;

/// Registry handles for the store's ingest and serving paths, resolved once
/// at store construction.
#[derive(Clone, Debug)]
pub struct StoreMetrics {
    registry: SharedRegistry,
    /// Query-lifecycle metrics, fed from each governed query's finished
    /// trace: phase histograms, query counter, per-operator algebra counters.
    pub engine: EngineMetrics,
    /// Text-search counters, attached to the store's inverted index.
    pub text: TextMetrics,
    /// Nanoseconds per document ingest (load → text index → path extents;
    /// parsing excluded), recorded once per document by single and batch
    /// ingest alike.
    pub ingest_ns: Histogram,
    /// Nanoseconds building one document's path extents (at ingest, text
    /// refresh and recovery alike).
    pub extent_build_ns: Histogram,
    /// Committed WAL records.
    pub wal_appends: Counter,
    /// Committed WAL bytes.
    pub wal_bytes: Counter,
    /// Nanoseconds in `write_all` per WAL record.
    pub wal_append_ns: Histogram,
    /// Nanoseconds in `sync_data` per WAL record (the commit-latency floor).
    pub wal_fsync_ns: Histogram,
    /// Nanoseconds per recovery (segment load plus WAL replay).
    pub recovery_ns: Histogram,
    /// Completed checkpoints.
    pub checkpoints: Counter,
    /// Nanoseconds per checkpoint.
    pub checkpoint_ns: Histogram,
    /// WAL records replayed by recovery.
    pub recovery_replayed_records: Counter,
    /// Damaged WAL tail bytes truncated by recovery.
    pub recovery_truncated_bytes: Counter,
    /// Size of the newest segment.
    pub segment_bytes: Gauge,
    /// Old segments collected by post-checkpoint GC.
    pub segments_removed: Counter,
    /// Documents ingested (single and batch).
    pub docs_ingested: Counter,
    /// Index-accelerated document searches
    /// ([`DocStore::find_documents`](crate::DocStore::find_documents)).
    pub text_index_searches: Counter,
    /// Full-scan document searches
    /// ([`DocStore::find_documents_scan`](crate::DocStore::find_documents_scan)).
    pub text_scan_searches: Counter,
    /// `contains`/`near` predicate evaluations inside query evaluation —
    /// each is a text scan of one object's text, not an index lookup.
    pub contains_evals: Counter,
    /// Recorded queries and writes the flight recorder marks slow (see
    /// [`docql_obs::FlightRecorder::slow_cutoff`]).
    pub slow_queries: Counter,
    /// Queries killed by their wall-clock deadline (strict mode).
    pub queries_deadline_exceeded: Counter,
    /// Queries killed by a row or path-fuel budget (strict mode).
    pub queries_budget_exhausted: Counter,
    /// Queries stopped by cooperative cancellation (strict mode).
    pub queries_cancelled: Counter,
    /// Queries that returned a flagged partial result (degrade mode).
    pub queries_partial: Counter,
    /// Panics caught at the query boundary (the store stayed serviceable).
    pub query_panics: Counter,
    /// Query traces retained by the flight recorder (see
    /// [`DocStore::flight_recorder`](crate::DocStore::flight_recorder)).
    pub traces_recorded: Counter,
    /// Snapshots published by [`SharedStore`](crate::SharedStore) writers
    /// (each successful [`SharedStore::apply`](crate::SharedStore::apply)
    /// swaps in one new version).
    pub snapshots_published: Counter,
    /// Version number of the currently published snapshot (0 = the version
    /// the store was wrapped with; readers observe it when they pin).
    pub snapshot_version: Gauge,
    /// Milliseconds since the current snapshot was published, sampled each
    /// time a reader pins it (a staleness signal for mixed workloads).
    pub snapshot_age_ms: Gauge,
    /// Planner-statistics version (bumped per mutation; what cost-based
    /// plans are stamped with).
    pub stats_version: Gauge,
    /// Documents in the planner's statistics snapshot.
    pub stats_documents: Gauge,
    /// Objects in the planner's statistics snapshot.
    pub stats_objects: Gauge,
    /// Total path-extent targets in the planner's statistics snapshot.
    pub stats_extent_targets: Gauge,
    /// Distinct text-index terms in the planner's statistics snapshot.
    pub stats_text_terms: Gauge,
}

impl StoreMetrics {
    /// Resolve (creating if absent) the store metrics in `registry`.
    pub fn register(registry: SharedRegistry) -> StoreMetrics {
        let engine = EngineMetrics::register(&registry);
        let text = TextMetrics::register(Arc::clone(&registry));
        StoreMetrics {
            engine,
            text,
            ingest_ns: registry.histogram("docql_store_ingest_ns"),
            extent_build_ns: registry.histogram("docql_store_extent_build_ns"),
            wal_appends: registry.counter("docql_durable_wal_appends_total"),
            wal_bytes: registry.counter("docql_durable_wal_bytes_total"),
            wal_append_ns: registry.histogram("docql_durable_wal_append_ns"),
            wal_fsync_ns: registry.histogram("docql_durable_wal_fsync_ns"),
            recovery_ns: registry.histogram("docql_durable_recovery_ns"),
            checkpoints: registry.counter("docql_durable_checkpoints_total"),
            checkpoint_ns: registry.histogram("docql_durable_checkpoint_ns"),
            recovery_replayed_records: registry
                .counter("docql_durable_recovery_replayed_records_total"),
            recovery_truncated_bytes: registry
                .counter("docql_durable_recovery_truncated_bytes_total"),
            segment_bytes: registry.gauge("docql_durable_segment_bytes"),
            segments_removed: registry.counter("docql_durable_segments_removed_total"),
            docs_ingested: registry.counter("docql_store_docs_ingested_total"),
            text_index_searches: registry.counter("docql_store_text_index_searches_total"),
            text_scan_searches: registry.counter("docql_store_text_scan_searches_total"),
            contains_evals: registry.counter("docql_calculus_contains_evals_total"),
            slow_queries: registry.counter("docql_store_slow_queries_total"),
            queries_deadline_exceeded: registry
                .counter("docql_store_queries_deadline_exceeded_total"),
            queries_budget_exhausted: registry
                .counter("docql_store_queries_budget_exhausted_total"),
            queries_cancelled: registry.counter("docql_store_queries_cancelled_total"),
            queries_partial: registry.counter("docql_store_queries_partial_total"),
            query_panics: registry.counter("docql_store_query_panics_total"),
            traces_recorded: registry.counter("docql_store_traces_recorded_total"),
            snapshots_published: registry.counter("docql_store_snapshots_published_total"),
            snapshot_version: registry.gauge("docql_store_snapshot_version"),
            snapshot_age_ms: registry.gauge("docql_store_snapshot_age_ms"),
            stats_version: registry.gauge("docql_stats_version"),
            stats_documents: registry.gauge("docql_stats_documents"),
            stats_objects: registry.gauge("docql_stats_objects"),
            stats_extent_targets: registry.gauge("docql_stats_extent_targets"),
            stats_text_terms: registry.gauge("docql_stats_text_terms"),
            registry,
        }
    }

    /// Is recording on (the owning registry's enable flag)?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.registry.enabled()
    }

    /// The owning registry.
    pub fn registry(&self) -> &SharedRegistry {
        &self.registry
    }

    /// Feed the write-side histograms from one finished trace of `kind`: a
    /// document's `load` + `text_index` + `extent_index` spans are one
    /// `ingest_ns` sample, and every `extent_index`, `wal_append` and
    /// `wal_fsync` span, and a checkpoint's or recovery's total, one sample.
    pub(crate) fn record_write(&self, kind: WriteKind, t: &QueryTrace) {
        let mut document = None;
        for p in &t.phases {
            match p.name {
                "load" => document = Some(p.ns),
                "text_index" => document = document.map(|ns| ns + p.ns),
                "extent_index" => {
                    self.extent_build_ns.record(p.ns);
                    if let Some(ns) = document.take() {
                        self.ingest_ns.record(ns + p.ns);
                        self.docs_ingested.inc();
                    }
                }
                "wal_append" => self.wal_append_ns.record(p.ns),
                "wal_fsync" => self.wal_fsync_ns.record(p.ns),
                _ => {}
            }
        }
        match kind {
            WriteKind::Write => {}
            WriteKind::Checkpoint => self.checkpoint_ns.record(t.total_ns),
            WriteKind::Recovery => self.recovery_ns.record(t.total_ns),
        }
    }
}
