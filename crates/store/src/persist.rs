//! The durable store: [`SharedStore`] MVCC serving plus the `docql-durable`
//! write-ahead log and snapshot segments, composed so that
//!
//! * every committed write (ingest, bind) is fsynced to the WAL *before*
//!   the new snapshot version is published to readers,
//! * [`PersistentStore::checkpoint`] captures the published snapshot as an
//!   immutable segment file and then truncates the log,
//! * [`PersistentStore::open`] recovers by loading the newest valid
//!   segment, deriving the `text` mapping and both indexes from its
//!   objects, and replaying the WAL's valid tail — no SGML re-parsing of
//!   checkpointed documents, and a damaged log tail is truncated, never
//!   loaded.
//!
//! # Lock ordering
//!
//! The WAL mutex is the **outermost** lock: writes take it, then run a
//! [`SharedStore::write`]; checkpoints take it, then pin the published
//! snapshot. Publication happens (when the write's closure returns `Ok`)
//! while the WAL lock is still held, so the snapshot a checkpoint pins
//! corresponds *exactly* to the records at or below its `applied_seqno` —
//! no committed record can be missing from it, none past it can have
//! leaked in.
//!
//! # Crash simulation
//!
//! [`PersistentStore::set_io_fault_seed`] arms `docql-guard`'s seeded
//! [`IoFaultStream`] inside the WAL. An injected fault behaves as a crash
//! at that record boundary: the damaged bytes land on disk, the in-memory
//! write fails and publishes nothing (readers keep the pre-write snapshot,
//! matching the durable prefix), and the handle refuses further writes
//! until reopened — exactly the recovery path a real crash exercises.

use crate::trace::{span, WriteKind, WriteTrace};
use crate::{set_gauge, DocStore, SharedStore, StoreError};
use docql_durable::snapshot::{self, StoreImage, StoreMeta};
use docql_durable::wal::{Wal, WalError, WalOp, WAL_FILE};
use docql_guard::{IoFaultStream, QueryLimits};
use docql_model::Oid;
use docql_o2sql::{Mode, QueryResult};
use docql_obs::QueryTrace;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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
    /// (see [`PersistentStore::set_segment_retain`]).
    pub segments_removed: usize,
}

/// A [`SharedStore`] whose commits survive process death.
///
/// Reads are plain MVCC snapshot reads — pin with
/// [`PersistentStore::read`] and query lock-free. Every write goes through
/// this handle's [`ingest`](PersistentStore::ingest),
/// [`ingest_batch`](PersistentStore::ingest_batch) and
/// [`bind`](PersistentStore::bind), which log before they publish. The
/// inner [`SharedStore`] never leaves the handle, so a write that skips
/// the WAL does not compile:
///
/// ```compile_fail
/// fn write_around_the_wal(ps: &docql_store::PersistentStore) {
///     let shared: &docql_store::SharedStore = ps.shared();
///     let _unlogged = shared.write(|store| store.ingest("<article></article>"));
/// }
/// ```
///
/// A pinned snapshot is immutable, so it offers no way around the log
/// either:
///
/// ```compile_fail
/// fn write_through_a_snapshot(ps: &docql_store::PersistentStore) {
///     let _unlogged = ps.read().ingest("<article></article>");
/// }
/// ```
pub struct PersistentStore {
    shared: SharedStore,
    wal: Mutex<Wal>,
    dir: PathBuf,
    /// Newest valid segment generations kept by post-checkpoint GC.
    segment_retain: AtomicUsize,
}

impl std::fmt::Debug for PersistentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentStore")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl PersistentStore {
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
    ) -> Result<(PersistentStore, RecoveryReport), StoreError> {
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
        PersistentStore::recover(dir, dtd_text, extra_roots)
    }

    /// Open an existing store directory, taking the schema and root
    /// declarations from its `store.meta` (written by the first
    /// [`PersistentStore::open`]).
    pub fn reopen(dir: &Path) -> Result<(PersistentStore, RecoveryReport), StoreError> {
        let meta = snapshot::read_meta(dir).map_err(seg_err)?;
        upgrade_meta(dir, &meta)?;
        let root_refs: Vec<&str> = meta.extra_roots.iter().map(String::as_str).collect();
        PersistentStore::recover(dir, &meta.dtd_text, &root_refs)
    }

    /// Recover the directory into a fresh store, as one recovery trace.
    fn recover(
        dir: &Path,
        dtd_text: &str,
        extra_roots: &[&str],
    ) -> Result<(PersistentStore, RecoveryReport), StoreError> {
        let mut store = DocStore::new(dtd_text, extra_roots)?;
        store.trace = store.begin_write(WriteKind::Recovery);
        let recovered = recover_into(&mut store, dir);
        let trace = store.trace.take();
        store.finish_write(trace, &recovered);
        let (wal, report) = recovered?;
        Ok((
            PersistentStore {
                shared: SharedStore::new(store),
                wal: Mutex::new(wal),
                dir: dir.to_path_buf(),
                segment_retain: AtomicUsize::new(DEFAULT_SEGMENT_RETAIN),
            },
            report,
        ))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Pin the current snapshot (see [`SharedStore::read`]).
    pub fn read(&self) -> Arc<DocStore> {
        self.shared.read()
    }

    /// Run an O₂SQL query against the current snapshot.
    pub fn query(&self, src: &str) -> Result<QueryResult, StoreError> {
        self.shared.query(src)
    }

    /// The general query entry point against the current snapshot (see
    /// [`SharedStore::query_traced`]).
    pub fn query_traced(
        &self,
        src: &str,
        mode: Mode,
        limits: &QueryLimits,
    ) -> (Result<QueryResult, StoreError>, Option<Arc<QueryTrace>>) {
        self.shared.query_traced(src, mode, limits)
    }

    /// Bytes currently in the write-ahead log.
    pub fn wal_len_bytes(&self) -> u64 {
        self.lock_wal().len_bytes()
    }

    /// How many newest valid segment generations checkpoints keep
    /// (older ones are garbage-collected after each checkpoint).
    pub fn segment_retain(&self) -> usize {
        self.segment_retain.load(Ordering::Relaxed)
    }

    /// Set the checkpoint retention depth. Clamped to at least 1; the
    /// default is [`DEFAULT_SEGMENT_RETAIN`]. Only validating segments
    /// count toward the quota, so a corrupt newest segment never evicts
    /// its recovery fallback.
    pub fn set_segment_retain(&self, keep: usize) {
        self.segment_retain.store(keep.max(1), Ordering::Relaxed);
    }

    /// Arm (or disarm, with `None`) seeded I/O fault injection at WAL
    /// record boundaries — each subsequent committed write draws one fault
    /// decision from `docql-guard`'s [`IoFaultStream`].
    pub fn set_io_fault_seed(&self, seed: Option<u64>) {
        self.lock_wal()
            .set_fault_stream(seed.map(IoFaultStream::new));
    }

    fn lock_wal(&self) -> MutexGuard<'_, Wal> {
        // Poison recovery is sound: a panicking writer aborts its
        // transaction (nothing published), and the Wal's own `crashed`
        // flag — not the mutex state — is what gates a damaged log.
        self.wal.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Durably ingest one SGML document: a one-document
    /// [`PersistentStore::ingest_batch`], logged as one WAL record.
    pub fn ingest(&self, sgml_text: &str) -> Result<Oid, StoreError> {
        self.ingest_batch(&[sgml_text])?
            .pop()
            .ok_or_else(|| StoreError::Other("ingest loaded no document".into()))
    }

    /// Durably ingest a batch: the documents are validated and loaded as
    /// one [`crate::DocStore::ingest_batch`] into a private fork, logged as
    /// one fsynced WAL record *per document*, then published atomically.
    /// On any failure the fork is discarded — readers never see a state the
    /// log does not cover — and recovery after a crash mid-batch restores
    /// exactly the documents whose records were fsynced.
    pub fn ingest_batch(&self, docs: &[&str]) -> Result<Vec<Oid>, StoreError> {
        let mut wal = self.lock_wal();
        self.shared.write(|store| {
            let roots = store.ingest_batch(docs)?;
            for doc in docs {
                // A fault mid-batch is a crash mid-batch: the durable
                // prefix keeps the documents logged so far, and the
                // in-memory store publishes nothing (recovery's view and
                // the readers' view only converge on reopen, as after a
                // real crash).
                log(
                    store,
                    &mut wal,
                    WalOp::Ingest {
                        sgml: doc.to_string(),
                    },
                )?;
            }
            Ok(roots)
        })
    }

    /// Durably bind a named root of persistence to a document object.
    pub fn bind(&self, name: &str, oid: Oid) -> Result<(), StoreError> {
        let mut wal = self.lock_wal();
        self.shared.write(|store| {
            store.bind(name, oid)?;
            log(
                store,
                &mut wal,
                WalOp::Bind {
                    name: name.to_string(),
                    oid: oid.0,
                },
            )
        })
    }

    /// Write the published snapshot as a new segment file, then truncate
    /// the WAL. Readers are never blocked (the snapshot is pinned, not
    /// locked); concurrent writers wait on the WAL mutex, which is what
    /// makes the pinned snapshot exactly cover the truncated records.
    pub fn checkpoint(&self) -> Result<CheckpointReport, StoreError> {
        let pinned = self.shared.read();
        let trace = pinned.begin_write(WriteKind::Checkpoint);
        let out = self.write_checkpoint(trace.as_ref());
        pinned.finish_write(trace, &out);
        out
    }

    /// The body of [`PersistentStore::checkpoint`], spanned into `trace`.
    fn write_checkpoint(&self, trace: Option<&WriteTrace>) -> Result<CheckpointReport, StoreError> {
        let mut wal = self.lock_wal();
        if wal.is_crashed() {
            // The log tail on disk is damaged and memory has diverged from
            // it; truncating would discard committed records. Reopen first.
            return Err(StoreError::Other(
                "wal crashed; reopen the store before checkpointing".into(),
            ));
        }
        let applied_seqno = wal.next_seqno() - 1;
        let store = self.shared.read();
        if let Some(trace) = trace {
            trace.snapshot(&store);
        }
        let (path, bytes) = span(trace, "segment_write", || {
            let image = image_of(&store, applied_seqno)?;
            snapshot::write_segment(&self.dir, &image).map_err(crate::io_err)
        })?;
        span(trace, "wal_truncate", || wal.truncate()).map_err(crate::io_err)?;
        // GC old generations while the WAL lock still serialises us
        // against concurrent checkpoints. A GC failure is not a
        // checkpoint failure — the new segment and truncated log are
        // already durable; leftovers just wait for the next pass.
        let gc = span(trace, "segment_gc", || {
            snapshot::gc_segments(&self.dir, self.segment_retain())
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
        let wal = self.lock_wal();
        let applied_seqno = wal.next_seqno() - 1;
        let store = self.shared.read();
        image_of(&store, applied_seqno)
    }
}

fn wal_err(e: WalError) -> StoreError {
    StoreError::Other(format!("wal: {e}"))
}

/// Append one operation to the WAL (whose lock the caller holds) inside
/// `store`'s write: one `wal_append` and one `wal_fsync` span.
fn log(store: &DocStore, wal: &mut Wal, op: WalOp) -> Result<(), StoreError> {
    let receipt = wal.append(op).map_err(wal_err)?;
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
    let tail: Vec<_> = scanned
        .records
        .into_iter()
        .filter(|r| r.seqno > applied)
        .collect();
    replay(store, &tail)?;
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
    store.documents = image.documents.iter().map(|&o| Oid(o)).collect();
    store.refresh_text();
    Ok(())
}

/// Replay a WAL tail onto a store, one record at a time in log order.
fn replay(store: &mut DocStore, records: &[docql_durable::WalRecord]) -> Result<(), StoreError> {
    for record in records {
        match &record.op {
            WalOp::Ingest { sgml } => store.ingest(sgml).map(drop)?,
            WalOp::Bind { name, oid } => store.bind(name, Oid(*oid))?,
        }
    }
    Ok(())
}
