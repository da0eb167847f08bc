//! Durable storage for docql: a checksummed write-ahead log, snapshot
//! segments, and crash recovery — all std-only, no external dependencies.
//!
//! The durability contract (wired up by `docql-store`'s durable
//! `SharedStore`):
//!
//! 1. Every committed write (document ingest, root binding, object update)
//!    is appended to the WAL ([`wal`]) and fsynced *before* the new store
//!    version is published to readers — write-ahead in the classical sense.
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
