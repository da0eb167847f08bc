//! Write-side tracing: each write, checkpoint and recovery is one trace,
//! begun under the query traces' gate and filed the way they are; the
//! write-side histograms are views of it (`StoreMetrics::record_write`).

use crate::{DocStore, StoreError};
use docql_obs::{FlightRecorder, QueryTrace, TraceBuilder};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a write-side trace covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WriteKind {
    Write,
    Checkpoint,
    Recovery,
}

impl WriteKind {
    /// The default label; for checkpoint and recovery also the timeline
    /// event reported when the trace is filed.
    fn name(self) -> &'static str {
        match self {
            WriteKind::Write => "write",
            WriteKind::Checkpoint => "checkpoint",
            WriteKind::Recovery => "recovery",
        }
    }
}

/// Spans also reported on the timeline, for overlapping query traces.
const TIMELINE_SPANS: [&str; 3] = ["wal_append", "wal_fsync", "snapshot_publish"];

/// One write-side trace under construction.
pub(crate) struct WriteTrace {
    kind: WriteKind,
    /// Short (`ingest 1 document`): a write takes the name of its first
    /// operation, checkpoint and recovery their kind's.
    label: Option<String>,
    tb: TraceBuilder,
    recorder: Arc<FlightRecorder>,
}

impl WriteTrace {
    /// Stamp span `name`, measured elsewhere, into the trace.
    pub(crate) fn stamp(&self, name: &'static str, elapsed: Duration) {
        self.tb.phase(name, elapsed);
        if TIMELINE_SPANS.contains(&name) {
            self.timeline(name);
        }
    }

    fn timeline(&self, kind: &'static str) {
        let detail = format!("trace={}", self.tb.id());
        self.recorder.global_event(kind, detail);
    }

    /// Record the snapshot `store` is and its statistics version.
    pub(crate) fn snapshot(&self, store: &DocStore) {
        let age = store.published_at.elapsed();
        self.tb.set_snapshot(store.published_version, age);
        self.tb.set_stats_version(store.stats_version);
    }
}

/// Time `f` as span `name` of `trace` — the write path's one clock.
/// Without a trace, just run `f`.
pub(crate) fn span<T>(trace: Option<&WriteTrace>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let Some(trace) = trace else {
        return f();
    };
    let start = Instant::now();
    let out = f();
    trace.stamp(name, start.elapsed());
    out
}

impl DocStore {
    /// Begin a write-side trace of `kind` when one of its consumers is on.
    pub(crate) fn begin_write(&self, kind: WriteKind) -> Option<WriteTrace> {
        self.tracing().then(|| WriteTrace {
            kind,
            label: (kind != WriteKind::Write).then(|| kind.name().to_string()),
            tb: self.recorder.begin(""),
            recorder: Arc::clone(&self.recorder),
        })
    }

    /// Seal a write-side trace, if one was begun, with the outcome of its
    /// work and file it; returns the trace if the recorder retained it.
    pub(crate) fn finish_write<T>(
        &self,
        trace: Option<WriteTrace>,
        out: &Result<T, StoreError>,
    ) -> Option<Arc<QueryTrace>> {
        let trace = trace?;
        let kind = trace.kind;
        if kind != WriteKind::Write {
            trace.timeline(kind.name());
        }
        let (outcome, detail) = match out {
            Ok(_) => ("ok", None),
            Err(e) => ("error", Some(e.to_string())),
        };
        let total = trace.tb.elapsed();
        let mut qt = trace.tb.finish(outcome, "complete", detail, 0, total);
        qt.query = trace.label.unwrap_or_else(|| kind.name().to_string());
        self.file(qt, |t| self.metrics.record_write(kind, t))
    }

    /// Run one mutation as a write: inside a traced write already under way
    /// (a [`SharedStore::apply`](crate::SharedStore::apply), recovery) it
    /// joins that trace; otherwise it is a write of its own, filed when done.
    pub(crate) fn mutate<T>(
        &mut self,
        label: impl FnOnce() -> String,
        op: impl FnOnce(&mut DocStore) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let outer = self.trace.is_none();
        if outer {
            self.trace = self.begin_write(WriteKind::Write);
        }
        if let Some(trace) = &mut self.trace {
            trace.label.get_or_insert_with(label);
        }
        let out = op(self);
        let trace = self.trace.take_if(|_| outer);
        self.finish_write(trace, &out);
        out
    }
}
