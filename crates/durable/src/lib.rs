//! Durable storage for docql: a checksummed write-ahead log, snapshot
//! segments, and crash recovery — all std-only, no external dependencies.
//!
//! The durability contract (wired up by `docql-store`'s `PersistentStore`):
//!
//! 1. Every committed write (document ingest, root binding) is appended to
//!    the WAL ([`wal`]) and fsynced *before* the new store version is
//!    published to readers — write-ahead in the classical sense.
//! 2. `checkpoint()` captures the current MVCC snapshot as a
//!    [`StoreImage`], writes it as an immutable segment file ([`snapshot`])
//!    with tmp → fsync → rename discipline, and only then truncates the
//!    log.
//! 3. Recovery loads the newest segment that passes its checksum (corrupt
//!    ones are skipped, never partially applied), then replays the WAL's
//!    valid prefix past the segment's applied seqno. A damaged log tail is
//!    detected by checksum and cleanly truncated — a partially written
//!    record is as if it never happened.
//!
//! Every byte read back from disk is covered by a CRC-32 ([`crc32()`]) and
//! decoded through bounds-checked readers ([`codec`]), so torn writes,
//! truncation, and bit flips yield errors or clean truncation — never
//! panics, never silently wrong data. Crash shapes themselves are testable:
//! `docql-guard`'s seeded [`IoFaultStream`](docql_guard::IoFaultStream)
//! plugs into the WAL and injects short writes, torn tails, and flipped
//! bytes at record boundaries.

#![warn(missing_docs)]

pub mod codec;
pub mod crc32;
pub mod snapshot;
pub mod tempdir;
pub mod wal;

pub use codec::{CodecError, Reader, Writer};
pub use crc32::crc32;
pub use snapshot::{
    decode_segment, encode_segment, gc_segments, list_segments, load_newest_valid,
    parse_segment_name, read_meta, read_segment, segment_file_name, write_meta, write_segment,
    SegmentError, StoreImage, StoreMeta, META_FILE,
};
pub use tempdir::TempDir;
pub use wal::{
    encode_frame, scan, AppendReceipt, Wal, WalError, WalOp, WalRecord, WalScan, WAL_FILE,
};

use docql_obs::{Counter, Gauge, Histogram, SharedRegistry};

/// Pre-resolved handles for the persistence metrics, registered once
/// against a store's [`SharedRegistry`]. Recording is caller-gated on
/// [`DurableMetrics::enabled`] like the other docql metric families.
#[derive(Debug, Clone)]
pub struct DurableMetrics {
    /// `docql_durable_wal_appends_total` — committed WAL records.
    pub wal_appends: Counter,
    /// `docql_durable_wal_bytes_total` — committed WAL bytes.
    pub wal_bytes: Counter,
    /// `docql_durable_wal_append_ns` — `write_all` wall time per record.
    pub wal_append_ns: Histogram,
    /// `docql_durable_wal_fsync_ns` — `sync_data` wall time per record
    /// (the durability point; its percentiles are the commit-latency
    /// floor).
    pub wal_fsync_ns: Histogram,
    /// `docql_durable_recovery_ns` — wall time of a full recovery (segment
    /// load plus WAL replay).
    pub recovery_ns: Histogram,
    /// `docql_durable_checkpoints_total` — completed checkpoints.
    pub checkpoints: Counter,
    /// `docql_durable_checkpoint_ns` — checkpoint wall time, nanoseconds.
    pub checkpoint_ns: Histogram,
    /// `docql_durable_recovery_replayed_records_total` — WAL records
    /// replayed during recovery.
    pub recovery_replayed_records: Counter,
    /// `docql_durable_recovery_truncated_bytes_total` — damaged tail bytes
    /// truncated during recovery.
    pub recovery_truncated_bytes: Counter,
    /// `docql_durable_segment_bytes` — size of the newest segment.
    pub segment_bytes: Gauge,
    /// `docql_durable_segments_removed_total` — old checkpoint segments
    /// collected by GC after a checkpoint.
    pub segments_removed: Counter,
    registry: SharedRegistry,
}

impl DurableMetrics {
    /// Resolve the persistence metric handles against `registry`.
    pub fn register(registry: &SharedRegistry) -> DurableMetrics {
        DurableMetrics {
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
            registry: registry.clone(),
        }
    }

    /// Is the backing registry recording?
    pub fn enabled(&self) -> bool {
        self.registry.enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docql_obs::MetricsRegistry;
    use std::sync::Arc;

    #[test]
    fn metrics_register_and_record() {
        let registry: SharedRegistry = Arc::new(MetricsRegistry::new());
        registry.set_enabled(true);
        let m = DurableMetrics::register(&registry);
        assert!(m.enabled());
        m.wal_appends.inc();
        m.wal_bytes.add(128);
        m.segment_bytes.set(4096);
        assert_eq!(m.wal_appends.get(), 1);
        assert_eq!(m.wal_bytes.get(), 128);
    }
}
