//! The workloads, what each sends, and the checks on every answer.

use crate::client::{Client, Response};
use crate::corpus::QUERIES;
use docql_store::DocStore;
use std::net::SocketAddr;

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One connection looping Q3 on an in-memory server.
    TitleLookup,
    /// One connection round-robining Q1–Q5 on an in-memory server.
    PaperMix,
    /// A durable server: one connection ingests fresh articles while a
    /// second loops the document-scoped Q3/Q4/Q5.
    IngestMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::TitleLookup,
        Workload::PaperMix,
        Workload::IngestMix,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TitleLookup => "title_lookup",
            Workload::PaperMix => "paper_mix",
            Workload::IngestMix => "ingest_mix",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Indices into [`QUERIES`] the workload's readers cycle through.
    pub fn queries(self) -> &'static [usize] {
        match self {
            Workload::TitleLookup => &[2],
            Workload::PaperMix => &[0, 1, 2, 3, 4],
            Workload::IngestMix => &[2, 3, 4],
        }
    }

    /// Does the server keep a WAL on disk (`--dir`)?
    pub fn durable(self) -> bool {
        self == Workload::IngestMix
    }
}

/// Fresh articles `ingest_mix` writes in each round. A fixed count, not a
/// time budget: ingest cost grows with corpus size, so a time-bounded
/// writer would make a faster server ingest more, slower documents.
pub fn fresh_articles(seconds: f64) -> usize {
    (16.0 * seconds).round().max(16.0) as usize
}

/// The reference answers: what every query must return, byte for byte.
pub struct Expected {
    /// `QueryResult::to_table()` of each of [`QUERIES`].
    pub bodies: Vec<Vec<u8>>,
    /// Row count of each of [`QUERIES`].
    pub rows: Vec<usize>,
}

impl Expected {
    /// Answers from an in-process store built like the server's.
    pub fn from_store(store: &DocStore) -> Expected {
        let results: Vec<_> = QUERIES
            .iter()
            .map(|(name, q)| {
                store
                    .query(q)
                    .unwrap_or_else(|e| panic!("{name} fails in process: {e}"))
            })
            .collect();
        Expected {
            bodies: results.iter().map(|r| r.to_table().into_bytes()).collect(),
            rows: results.iter().map(|r| r.len()).collect(),
        }
    }
}

/// Operations attempted and failed, with the first few failures kept for
/// the log.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: transport errors, unexpected statuses,
    /// wrong bodies.
    pub failed: u64,
    /// The first failures, described.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count an operation; `Err` describes its failure.
    pub fn record(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(note) => {
                self.failed += 1;
                if self.notes.len() < 8 {
                    self.notes.push(note);
                }
                false
            }
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// Check one `/query` answer against the reference.
pub fn check_query(
    resp: std::io::Result<Response>,
    q: usize,
    expected: &Expected,
) -> Result<(), String> {
    let name = QUERIES[q].0;
    let resp = resp.map_err(|e| format!("{name}: transport error: {e}"))?;
    if resp.status != 200 {
        return Err(format!("{name}: status {}", resp.status));
    }
    if resp.body != expected.bodies[q] {
        return Err(format!("{name}: body differs from the in-process answer"));
    }
    let rows = resp.field("X-Docql-Rows").and_then(|v| v.parse().ok());
    if rows != Some(expected.rows[q]) {
        return Err(format!(
            "{name}: X-Docql-Rows {rows:?}, expected {}",
            expected.rows[q]
        ));
    }
    if resp.field("X-Docql-Partial") != Some("none") {
        return Err(format!("{name}: answer flagged partial"));
    }
    Ok(())
}

/// Send one `/ingest` and check it was acknowledged with `201` and, when
/// known, the expected oid. Returns the assigned oid.
pub fn ingest(client: &mut Client, sgml: &str, want_oid: Option<u32>) -> Result<u32, String> {
    let resp = client
        .post("/ingest", sgml.as_bytes())
        .map_err(|e| format!("ingest: transport error: {e}"))?;
    if resp.status != 201 {
        return Err(format!(
            "ingest: status {} ({})",
            resp.status,
            String::from_utf8_lossy(&resp.body).trim()
        ));
    }
    let oid: u32 = std::str::from_utf8(&resp.body)
        .ok()
        .and_then(|b| b.trim().parse().ok())
        .ok_or_else(|| "ingest: body is not an oid".to_string())?;
    match want_oid {
        Some(w) if w != oid => Err(format!("ingest: oid {oid}, in-process store gave {w}")),
        _ => Ok(oid),
    }
}

/// Send a control request (`/bind`) on a connection of its own.
pub fn control(addr: SocketAddr, path: &str, body: &str, want: u16) -> Result<(), String> {
    let resp = Client::with_rotation(addr, 1)
        .post(path, body.as_bytes())
        .map_err(|e| format!("{path}: transport error: {e}"))?;
    if resp.status == want {
        Ok(())
    } else {
        Err(format!("{path}: status {}, expected {want}", resp.status))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_valid() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::stats::valid_name(w.name()));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn tally_counts_and_keeps_notes() {
        let mut t = Tally::default();
        assert!(t.record(Ok(())));
        assert!(!t.record(Err("bad".into())));
        let mut u = Tally::default();
        u.record(Err("worse".into()));
        t.merge(u);
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert_eq!(t.notes, vec!["bad".to_string(), "worse".to_string()]);
    }
}
