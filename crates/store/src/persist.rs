//! Durability for [`SharedStore`]: a handle opened from a directory
//! carries the `docql-durable` write-ahead log and snapshot segments, so
//! that
//!
//! * every committed write ([`SharedStore::apply`]) is fsynced to the WAL,
//!   one record per [`WalOp`], *before* the new snapshot version is
//!   published to readers,
//! * [`SharedStore::checkpoint`] captures the published snapshot as an
//!   immutable segment file and then truncates the log,
//! * [`SharedStore::open`] recovers by loading the newest valid segment,
//!   deriving the `text` mapping and both indexes from its objects, and
//!   replaying the WAL's valid tail through [`DocStore::apply`] — no SGML
//!   re-parsing of checkpointed documents, and a damaged log tail is
//!   truncated, never loaded.
//!
//! The log lives under the writer mutex. A write appends to it and
//! publishes inside one critical section, and a checkpoint takes the same
//! mutex, so the snapshot it pins corresponds *exactly* to the records at
//! or below its `applied_seqno`.
//!
//! # Crash simulation
//!
//! [`SharedStore::set_io_fault_seed`] arms `docql-guard`'s seeded
//! [`IoFaultStream`] inside the WAL. An injected fault behaves as a crash
//! at that record boundary: the damaged bytes land on disk, the in-memory
//! write fails and publishes nothing (readers keep the pre-write snapshot,
//! matching the durable prefix), and the handle refuses further writes
//! until reopened — exactly the recovery path a real crash exercises.

use crate::trace::{span, WriteKind, WriteTrace};
use crate::{set_gauge, DocStore, SharedStore, StoreError};
use docql_durable::snapshot::{self, StoreImage, StoreMeta};
use docql_durable::wal::{Wal, WalOp, WAL_FILE};
use docql_guard::IoFaultStream;
use docql_model::Oid;
use std::path::{Path, PathBuf};

/// What recovery found and did while opening a store directory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// The applied seqno of the segment loaded, if any segment was valid.
    pub segment_seqno: Option<u64>,
    /// Newer segments skipped because they failed validation.
    pub segments_skipped: usize,
    /// WAL records replayed on top of the segment (or from scratch).
    pub replayed_records: usize,
    /// Damaged WAL tail bytes detected by checksum and truncated.
    pub truncated_bytes: u64,
}

/// Segment generations kept by default after a checkpoint: the one just
/// written plus one fallback, so recovery survives a corrupt newest
/// segment without old generations accumulating forever.
pub const DEFAULT_SEGMENT_RETAIN: usize = 2;

/// What a completed checkpoint wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Path of the new segment file.
    pub path: PathBuf,
    /// Size of the segment in bytes.
    pub bytes: u64,
    /// Highest WAL seqno whose effects the segment contains.
    pub applied_seqno: u64,
    /// Old segment generations collected by GC after this checkpoint
    /// (see [`SharedStore::set_segment_retain`]).
    pub segments_removed: usize,
}

/// The durable store: a [`SharedStore`] opened from a directory with
/// [`SharedStore::open`] or [`SharedStore::reopen`], whose writes are
/// logged before they publish. The name stays for callers that spell the
/// durable handle out.
pub type PersistentStore = SharedStore;

/// A durable handle's log, held under the writer mutex: the WAL, the
/// directory its segments go to, and how many of them checkpoints keep.
pub(crate) struct Log {
    wal: Wal,
    dir: PathBuf,
    segment_retain: usize,
}

impl Log {
    /// Append one operation inside `store`'s write: one `wal_append` and
    /// one `wal_fsync` span.
    pub(crate) fn append(&mut self, store: &DocStore, op: WalOp) -> Result<(), StoreError> {
        let receipt = self.wal.append(op).map_err(StoreError::Wal)?;
        if store.metrics.enabled() {
            store.metrics.wal_appends.inc();
            store.metrics.wal_bytes.add(receipt.frame_len);
        }
        if let Some(trace) = &store.trace {
            trace.stamp("wal_append", receipt.write);
            trace.stamp("wal_fsync", receipt.fsync);
        }
        Ok(())
    }
}

impl SharedStore {
    /// Open (creating if empty) the store directory `dir` for the given
    /// schema, recovering whatever state previous runs committed: newest
    /// valid segment first, then the WAL's valid tail.
    ///
    /// On first open the schema text and root declarations are written to
    /// the directory (`store.meta`); later opens verify the given schema
    /// against it and fail on mismatch rather than misinterpret data.
    pub fn open(
        dir: &Path,
        dtd_text: &str,
        extra_roots: &[&str],
    ) -> Result<(SharedStore, RecoveryReport), StoreError> {
        std::fs::create_dir_all(dir).map_err(crate::io_err)?;
        match snapshot::read_meta(dir) {
            Ok(meta) => {
                if meta.dtd_text != dtd_text || meta.extra_roots != extra_roots {
                    return Err(StoreError::Other(
                        "store directory was created with a different schema or root set".into(),
                    ));
                }
                upgrade_meta(dir, &meta)?;
            }
            Err(snapshot::SegmentError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                let roots: Vec<String> = extra_roots.iter().map(|r| r.to_string()).collect();
                snapshot::write_meta(dir, dtd_text, &roots).map_err(crate::io_err)?;
            }
            Err(e) => return Err(seg_err(e)),
        }
        SharedStore::recover(dir, dtd_text, extra_roots)
    }

    /// Open an existing store directory, taking the schema and root
    /// declarations from its `store.meta` (written by the first
    /// [`SharedStore::open`]).
    pub fn reopen(dir: &Path) -> Result<(SharedStore, RecoveryReport), StoreError> {
        let meta = snapshot::read_meta(dir).map_err(seg_err)?;
        upgrade_meta(dir, &meta)?;
        let root_refs: Vec<&str> = meta.extra_roots.iter().map(String::as_str).collect();
        SharedStore::recover(dir, &meta.dtd_text, &root_refs)
    }

    /// Recover the directory into a fresh store, as one recovery trace.
    fn recover(
        dir: &Path,
        dtd_text: &str,
        extra_roots: &[&str],
    ) -> Result<(SharedStore, RecoveryReport), StoreError> {
        let mut store = DocStore::new(dtd_text, extra_roots)?;
        store.trace = store.begin_write(WriteKind::Recovery);
        let recovered = recover_into(&mut store, dir);
        let trace = store.trace.take();
        store.finish_write(trace, &recovered);
        let (wal, report) = recovered?;
        let log = Log {
            wal,
            dir: dir.to_path_buf(),
            segment_retain: DEFAULT_SEGMENT_RETAIN,
        };
        Ok((SharedStore::with_log(store, Some(log)), report))
    }

    /// Bytes currently in the write-ahead log (0 without one).
    pub fn wal_len_bytes(&self) -> u64 {
        self.lock_writer()
            .as_ref()
            .map_or(0, |log| log.wal.len_bytes())
    }

    /// Has an append crashed the log? Every write that reaches the log then
    /// fails with [`StoreError::Wal`] until the store is reopened. False
    /// without a log.
    pub fn log_crashed(&self) -> bool {
        self.lock_writer()
            .as_ref()
            .is_some_and(|log| log.wal.is_crashed())
    }

    /// How many newest valid segment generations checkpoints keep
    /// (older ones are garbage-collected after each checkpoint).
    pub fn segment_retain(&self) -> usize {
        self.lock_writer()
            .as_ref()
            .map_or(DEFAULT_SEGMENT_RETAIN, |log| log.segment_retain)
    }

    /// Set the checkpoint retention depth. Clamped to at least 1; the
    /// default is [`DEFAULT_SEGMENT_RETAIN`]. Only validating segments
    /// count toward the quota, so a corrupt newest segment never evicts
    /// its recovery fallback. An in-memory handle ignores it.
    pub fn set_segment_retain(&self, keep: usize) {
        if let Some(log) = self.lock_writer().as_mut() {
            log.segment_retain = keep.max(1);
        }
    }

    /// Arm (or disarm, with `None`) seeded I/O fault injection at WAL
    /// record boundaries — each subsequent logged operation draws one
    /// fault decision from `docql-guard`'s [`IoFaultStream`]. An in-memory
    /// handle ignores it.
    pub fn set_io_fault_seed(&self, seed: Option<u64>) {
        if let Some(log) = self.lock_writer().as_mut() {
            log.wal.set_fault_stream(seed.map(IoFaultStream::new));
        }
    }

    /// Write the published snapshot as a new segment file, then truncate
    /// the WAL. Readers are never blocked (the snapshot is pinned, not
    /// locked); concurrent writers wait on the writer mutex, which is what
    /// makes the pinned snapshot exactly cover the truncated records. An
    /// in-memory handle has nothing to checkpoint and fails.
    pub fn checkpoint(&self) -> Result<CheckpointReport, StoreError> {
        let pinned = self.read();
        let trace = pinned.begin_write(WriteKind::Checkpoint);
        let out = self.write_checkpoint(trace.as_ref());
        pinned.finish_write(trace, &out);
        out
    }

    /// The body of [`SharedStore::checkpoint`], spanned into `trace`.
    fn write_checkpoint(&self, trace: Option<&WriteTrace>) -> Result<CheckpointReport, StoreError> {
        let mut writer = self.lock_writer();
        let Some(log) = writer.as_mut() else {
            return Err(StoreError::Other(
                "an in-memory store has no log to checkpoint".into(),
            ));
        };
        if log.wal.is_crashed() {
            // The log tail on disk is damaged and memory has diverged from
            // it; truncating would discard committed records. Reopen first.
            return Err(StoreError::Other(
                "wal crashed; reopen the store before checkpointing".into(),
            ));
        }
        let applied_seqno = log.wal.next_seqno() - 1;
        let store = self.read();
        if let Some(trace) = trace {
            trace.snapshot(&store);
        }
        let (path, bytes) = span(trace, "segment_write", || {
            let image = image_of(&store, applied_seqno)?;
            snapshot::write_segment(&log.dir, &image).map_err(crate::io_err)
        })?;
        span(trace, "wal_truncate", || log.wal.truncate()).map_err(crate::io_err)?;
        // GC old generations while the writer mutex still serialises us
        // against concurrent checkpoints. A GC failure is not a
        // checkpoint failure — the new segment and truncated log are
        // already durable; leftovers just wait for the next pass.
        let gc = span(trace, "segment_gc", || {
            snapshot::gc_segments(&log.dir, log.segment_retain)
        });
        let segments_removed = match gc {
            Ok(removed) => removed.len(),
            Err(e) => {
                store
                    .flight_recorder()
                    .global_event("segment_gc_error", e.to_string());
                0
            }
        };
        if store.metrics.enabled() {
            store.metrics.checkpoints.inc();
            set_gauge(&store.metrics.segment_bytes, bytes);
            store.metrics.segments_removed.add(segments_removed as u64);
        }
        Ok(CheckpointReport {
            path,
            bytes,
            applied_seqno,
            segments_removed,
        })
    }

    /// The published snapshot as a [`StoreImage`] — what a checkpoint
    /// would write right now. Exposed for diagnostics and the recovery
    /// test battery (which writes segments out-of-band to exercise the
    /// crash window between segment rename and WAL truncation).
    pub fn image(&self) -> Result<StoreImage, StoreError> {
        let writer = self.lock_writer();
        let applied_seqno = writer.as_ref().map_or(0, |log| log.wal.next_seqno() - 1);
        image_of(&self.read(), applied_seqno)
    }
}

/// Load the newest valid segment into a fresh `store`, then replay the
/// WAL's valid tail past it; returns the opened log and what was found.
fn recover_into(store: &mut DocStore, dir: &Path) -> Result<(Wal, RecoveryReport), StoreError> {
    let (segment, segments_skipped) = span(store.trace.as_ref(), "segment_load", || {
        snapshot::load_newest_valid(dir)
    })
    .map_err(crate::io_err)?;
    let (segment_seqno, segment_bytes) = match &segment {
        Some((seqno, image, bytes)) => {
            restore_into(store, image)?;
            (Some(*seqno), *bytes)
        }
        None => (None, 0),
    };
    let (mut wal, scanned) = span(store.trace.as_ref(), "wal_scan", || {
        Wal::open(&dir.join(WAL_FILE))
    })
    .map_err(crate::io_err)?;
    let applied = segment_seqno.unwrap_or(0);
    let tail: Vec<WalOp> = scanned
        .records
        .into_iter()
        .filter(|r| r.seqno > applied)
        .map(|r| r.op)
        .collect();
    // One record at a time, in log order, the way each was committed.
    for op in &tail {
        store.apply(std::slice::from_ref(op))?;
    }
    wal.set_next_seqno(applied + 1);
    let m = &store.metrics;
    if m.enabled() {
        m.recovery_replayed_records.add(tail.len() as u64);
        m.recovery_truncated_bytes.add(scanned.truncated_bytes);
        if segment_bytes > 0 {
            set_gauge(&m.segment_bytes, segment_bytes);
        }
    }
    Ok((
        wal,
        RecoveryReport {
            segment_seqno,
            segments_skipped,
            replayed_records: tail.len(),
            truncated_bytes: scanned.truncated_bytes,
        },
    ))
}

fn seg_err(e: snapshot::SegmentError) -> StoreError {
    StoreError::Other(format!("segment: {e}"))
}

/// Rewrite a previous-format `store.meta` with the current magic before
/// any segment is written: segments carry no index or text sections now,
/// and a binary that requires them must refuse the directory rather than
/// skip every segment and come up without the checkpointed documents.
fn upgrade_meta(dir: &Path, meta: &StoreMeta) -> Result<(), StoreError> {
    if meta.outdated {
        snapshot::write_meta(dir, &meta.dtd_text, &meta.extra_roots).map_err(crate::io_err)?;
    }
    Ok(())
}

/// Capture a store's data as a [`StoreImage`] (deterministic: every
/// section is emitted in a canonical order). The `text` mapping and the
/// indexes are derived from it, so they are not captured.
fn image_of(store: &DocStore, applied_seqno: u64) -> Result<StoreImage, StoreError> {
    let mut objects = Vec::with_capacity(store.instance.object_count());
    for (oid, class, value) in store.instance.objects() {
        if oid.0 as usize != objects.len() {
            return Err(StoreError::Other(format!(
                "object table is not dense at {oid}; cannot snapshot"
            )));
        }
        objects.push((class, value.clone()));
    }

    let mut roots: Vec<_> = store
        .instance
        .roots()
        .map(|(name, value)| (name, value.clone()))
        .collect();
    roots.sort_by(|(a, _), (b, _)| a.as_str().cmp(b.as_str()));

    let documents = store.documents.iter().map(|o| o.0).collect();

    Ok(StoreImage {
        applied_seqno,
        objects,
        roots,
        documents,
    })
}

/// Restore an image into a freshly constructed store (same schema). The
/// inverse of [`image_of`]: object slots are re-created in oid order (which
/// reproduces the original oids), then their texts and both indexes are
/// derived from them the way ingest derives them.
fn restore_into(store: &mut DocStore, image: &StoreImage) -> Result<(), StoreError> {
    for (i, (class, value)) in image.objects.iter().enumerate() {
        let oid = store
            .instance
            .new_object(*class, value.clone())
            .map_err(|e| StoreError::Other(format!("restore object {i}: {e}")))?;
        if oid.0 as usize != i {
            return Err(StoreError::Other(format!(
                "restore produced {oid} for slot {i}; oid allocation diverged"
            )));
        }
    }
    for (name, value) in &image.roots {
        store
            .instance
            .set_root(*name, value.clone())
            .map_err(|e| StoreError::Other(format!("restore root {name}: {e}")))?;
    }
    store.documents = std::sync::Arc::new(image.documents.iter().map(|&o| Oid(o)).collect());
    store.refresh_text();
    Ok(())
}
