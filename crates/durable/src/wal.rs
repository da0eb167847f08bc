//! The checksummed, length-prefixed write-ahead log.
//!
//! One record per committed operation: a document ingest, a root binding
//! or an object update.
//! The on-disk frame is
//!
//! ```text
//! [len: u32][crc: u32][payload: len bytes]
//! payload = [seqno: u64][tag: u8][body]
//! ```
//!
//! with `crc = crc32(payload)`. Appends are `write_all` + `fsync`, so a
//! record is *committed* exactly when its fsync returns. Recovery scans the
//! file front to back, accepting frames while the length fits, the
//! checksum verifies, the payload decodes, and sequence numbers ascend; the
//! first violation ends the valid prefix and everything after it —
//! a torn tail, a short write, bit rot — is truncated away, never loaded.
//!
//! Fault injection: a seeded [`IoFaultStream`] (from `docql-guard`) can be
//! attached, and each append then draws a fault decision at the record
//! boundary. An injected fault writes the *damaged* bytes a crash would
//! have left (short prefix, torn tail, flipped byte), marks the log
//! crashed, and returns an error — the handle refuses further appends and
//! the only way forward is to reopen, exactly like a process restart.

use crate::codec::{CodecError, Reader, Writer};
use crate::crc32::crc32;
use crate::snapshot::{decode_lone_value, encode_lone_value};
use docql_guard::{IoFault, IoFaultStream};
use docql_model::Value;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// File name of the log inside a store directory.
pub const WAL_FILE: &str = "wal.log";

/// A frame longer than this is treated as corruption, not a record — it
/// bounds what a garbage length field can make the scanner swallow.
const MAX_FRAME_PAYLOAD: u32 = 1 << 30;

/// One logged operation — the store's write vocabulary: live writes and
/// recovery's replay both run these through `DocStore::apply`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// A document ingest, carrying the validated SGML source text (replay
    /// re-parses it — parse determinism gives identical objects and oids).
    Ingest {
        /// The document's SGML text.
        sgml: String,
    },
    /// A named-root binding to a document object.
    Bind {
        /// The root-of-persistence name.
        name: String,
        /// The bound object id (`Oid.0`).
        oid: u32,
    },
    /// An object's new value (§6's update from the database).
    Update {
        /// The updated object id (`Oid.0`).
        oid: u32,
        /// The new value, encoded with the segments' value codec.
        value: Value,
    },
}

const TAG_INGEST: u8 = 1;
const TAG_BIND: u8 = 2;
const TAG_UPDATE: u8 = 3;

/// A decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotone sequence number (1-based; segments record the highest
    /// applied seqno, so replay starts just past it).
    pub seqno: u64,
    /// The logged operation.
    pub op: WalOp,
}

/// What a successful [`Wal::append`] committed: the record, its on-disk
/// frame length, and the split write/fsync wall times (the fsync is where
/// commit latency lives; callers stamp both into their write's trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendReceipt {
    /// The committed record (seqno assigned by this append).
    pub record: WalRecord,
    /// On-disk frame length in bytes.
    pub frame_len: u64,
    /// Time spent in `write_all`.
    pub write: Duration,
    /// Time spent in `sync_data` (the durability point).
    pub fsync: Duration,
}

/// Encode one record as its on-disk frame.
pub fn encode_frame(record: &WalRecord) -> Vec<u8> {
    let mut payload = Writer::new();
    payload.u64(record.seqno);
    match &record.op {
        WalOp::Ingest { sgml } => {
            payload.u8(TAG_INGEST);
            payload.str(sgml);
        }
        WalOp::Bind { name, oid } => {
            payload.u8(TAG_BIND);
            payload.str(name);
            payload.u32(*oid);
        }
        WalOp::Update { oid, value } => {
            payload.u8(TAG_UPDATE);
            payload.u32(*oid);
            encode_lone_value(&mut payload, value);
        }
    }
    let payload = payload.into_bytes();
    let mut frame = Writer::new();
    frame.u32(payload.len() as u32);
    frame.u32(crc32(&payload));
    let mut bytes = frame.into_bytes();
    bytes.extend_from_slice(&payload);
    bytes
}

fn decode_payload(payload: &[u8]) -> Result<WalRecord, CodecError> {
    let mut r = Reader::new(payload);
    let seqno = r.u64()?;
    let op = match r.u8()? {
        TAG_INGEST => WalOp::Ingest {
            sgml: r.str()?.to_string(),
        },
        TAG_BIND => WalOp::Bind {
            name: r.str()?.to_string(),
            oid: r.u32()?,
        },
        TAG_UPDATE => WalOp::Update {
            oid: r.u32()?,
            value: decode_lone_value(&mut r)?,
        },
        tag => {
            return Err(CodecError::BadTag {
                what: "wal op",
                tag,
            })
        }
    };
    r.finish()?;
    Ok(WalRecord { seqno, op })
}

/// The result of scanning a log image: the records of the valid prefix and
/// how much trailing damage (if any) was cut away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Records of the valid prefix, in order.
    pub records: Vec<WalRecord>,
    /// Length in bytes of the valid prefix.
    pub valid_len: u64,
    /// Bytes past the valid prefix (0 for a clean log).
    pub truncated_bytes: u64,
}

/// Scan a log image, accepting the longest valid prefix. Never fails:
/// damage ends the prefix and is reported as `truncated_bytes`.
pub fn scan(buf: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut last_seqno = 0u64;
    loop {
        let rest = &buf[pos..];
        if rest.len() < 8 {
            break;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_FRAME_PAYLOAD || rest.len() - 8 < len as usize {
            break;
        }
        let payload = &rest[8..8 + len as usize];
        if crc32(payload) != crc {
            break;
        }
        let Ok(record) = decode_payload(payload) else {
            break;
        };
        if record.seqno <= last_seqno {
            break;
        }
        last_seqno = record.seqno;
        records.push(record);
        pos += 8 + len as usize;
    }
    WalScan {
        records,
        valid_len: pos as u64,
        truncated_bytes: (buf.len() - pos) as u64,
    }
}

/// Why an append failed.
#[derive(Debug)]
pub enum WalError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// The attached fault stream injected a simulated crash; the damaged
    /// bytes are on disk and this handle is dead (see [`WalError::Crashed`]).
    InjectedFault(IoFault),
    /// A previous append crashed (injected or real); the handle refuses
    /// further writes — reopen the log to recover.
    Crashed,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io: {e}"),
            WalError::InjectedFault(fault) => write!(f, "injected wal fault: {fault}"),
            WalError::Crashed => f.write_str("wal crashed; reopen to recover"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> WalError {
        WalError::Io(e)
    }
}

/// An open write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    next_seqno: u64,
    len: u64,
    crashed: bool,
    faults: Option<IoFaultStream>,
}

impl Wal {
    /// Open (creating if absent) the log at `path`, scan it, and truncate
    /// any damaged tail so the file holds exactly the valid prefix.
    pub fn open(path: &Path) -> io::Result<(Wal, WalScan)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let scanned = scan(&buf);
        if scanned.truncated_bytes > 0 {
            file.set_len(scanned.valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(scanned.valid_len))?;
        let next_seqno = scanned.records.last().map_or(1, |r| r.seqno + 1);
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                next_seqno,
                len: scanned.valid_len,
                crashed: false,
                faults: None,
            },
            scanned,
        ))
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes of committed log.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// The seqno the next append will carry.
    pub fn next_seqno(&self) -> u64 {
        self.next_seqno
    }

    /// Continue numbering past `n - 1` (recovery sets this when a snapshot
    /// segment has applied records beyond what the log holds).
    pub fn set_next_seqno(&mut self, n: u64) {
        self.next_seqno = self.next_seqno.max(n);
    }

    /// Attach (or clear) a seeded I/O fault stream; each subsequent append
    /// draws one fault decision at its record boundary.
    pub fn set_fault_stream(&mut self, faults: Option<IoFaultStream>) {
        self.faults = faults;
    }

    /// Has an append crashed this handle?
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Append one operation: encode, (maybe) injected-fault, `write_all`,
    /// `fsync`. On success the record is durable and the receipt carries
    /// its frame length plus the split write/fsync wall times (for metrics
    /// and query traces); on failure the handle is crashed — state on disk
    /// is whatever the simulated or real crash left, and recovery via
    /// [`Wal::open`] restores the committed prefix.
    pub fn append(&mut self, op: WalOp) -> Result<AppendReceipt, WalError> {
        if self.crashed {
            return Err(WalError::Crashed);
        }
        let record = WalRecord {
            seqno: self.next_seqno,
            op,
        };
        let frame = encode_frame(&record);
        if let Some(fault) = self.faults.as_ref().and_then(|f| f.draw()) {
            let salt = self.faults.as_ref().map_or(0, |f| f.entropy());
            let damaged = damage(&frame, fault, salt);
            self.crashed = true;
            // Best-effort: land the damage like a crash would, then report.
            let _ = self.file.write_all(&damaged);
            let _ = self.file.sync_data();
            return Err(WalError::InjectedFault(fault));
        }
        let t0 = Instant::now();
        if let Err(e) = self.file.write_all(&frame) {
            self.crashed = true;
            return Err(WalError::Io(e));
        }
        let t1 = Instant::now();
        if let Err(e) = self.file.sync_data() {
            self.crashed = true;
            return Err(WalError::Io(e));
        }
        let fsync = t1.elapsed();
        let frame_len = frame.len() as u64;
        self.len += frame_len;
        self.next_seqno += 1;
        Ok(AppendReceipt {
            record,
            frame_len,
            write: t1.duration_since(t0),
            fsync,
        })
    }

    /// Drop every record (the post-checkpoint step: the snapshot segment
    /// now carries everything the log held). Sequence numbering continues.
    pub fn truncate(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_data()?;
        self.len = 0;
        Ok(())
    }
}

/// The bytes a crash of shape `fault` leaves on disk instead of `frame`.
fn damage(frame: &[u8], fault: IoFault, salt: u64) -> Vec<u8> {
    match fault {
        IoFault::ShortWrite => {
            // Somewhere strictly inside the frame, header included.
            let cut = 1 + (salt as usize) % (frame.len() - 1);
            frame[..cut].to_vec()
        }
        IoFault::TornTail => {
            // A partial frame followed by stale sector garbage.
            let cut = 1 + (salt as usize) % (frame.len() - 1);
            let mut bytes = frame[..cut].to_vec();
            let garbage_len = 1 + (salt >> 32) as usize % 24;
            let mut g = salt | 1;
            for _ in 0..garbage_len {
                g = g.wrapping_mul(0x94D0_49BB_1331_11EB).rotate_left(17);
                bytes.push((g >> 24) as u8);
            }
            bytes
        }
        IoFault::FlipByte => {
            let mut bytes = frame.to_vec();
            let at = (salt as usize) % bytes.len();
            let bit = 1u8 << ((salt >> 48) % 8);
            bytes[at] ^= bit;
            bytes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn records(n: u64) -> Vec<WalRecord> {
        (1..=n)
            .map(|seqno| WalRecord {
                seqno,
                op: match seqno % 4 {
                    0 => WalOp::Update {
                        oid: seqno as u32,
                        value: Value::tuple([("contents", Value::str(format!("v{seqno}")))]),
                    },
                    3 => WalOp::Bind {
                        name: format!("root{seqno}"),
                        oid: seqno as u32,
                    },
                    _ => WalOp::Ingest {
                        sgml: format!("<doc>{seqno}</doc>"),
                    },
                },
            })
            .collect()
    }

    #[test]
    fn scan_round_trips_clean_log() {
        let recs = records(5);
        let mut buf = Vec::new();
        for r in &recs {
            buf.extend_from_slice(&encode_frame(r));
        }
        let s = scan(&buf);
        assert_eq!(s.records, recs);
        assert_eq!(s.valid_len, buf.len() as u64);
        assert_eq!(s.truncated_bytes, 0);
    }

    #[test]
    fn scan_truncates_any_single_byte_flip_to_a_prefix() {
        let recs = records(4);
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &recs {
            buf.extend_from_slice(&encode_frame(r));
            boundaries.push(buf.len());
        }
        for at in 0..buf.len() {
            let mut damaged = buf.clone();
            damaged[at] ^= 0x10;
            let s = scan(&damaged);
            // The flip lands inside some record k; everything before k
            // survives, nothing at or after it does.
            let k = boundaries.iter().position(|&b| at < b).unwrap() - 1;
            assert_eq!(s.records, recs[..k], "flip at byte {at}");
            assert_eq!(s.valid_len, boundaries[k] as u64);
            assert!(s.truncated_bytes > 0);
        }
    }

    #[test]
    fn scan_stops_on_non_monotone_seqno() {
        let a = encode_frame(&WalRecord {
            seqno: 1,
            op: WalOp::Ingest { sgml: "x".into() },
        });
        let mut buf = a.clone();
        buf.extend_from_slice(&a); // replayed frame: seqno 1 again
        let s = scan(&buf);
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.truncated_bytes, a.len() as u64);
    }

    #[test]
    fn open_truncates_damage_and_appends_continue() {
        let dir = TempDir::new("docql-wal-test").unwrap();
        let path = dir.join(WAL_FILE);
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            for i in 0..3 {
                wal.append(WalOp::Ingest {
                    sgml: format!("<doc>{i}</doc>"),
                })
                .unwrap();
            }
        }
        // Torn tail: half a frame of garbage after the good records.
        let mut bytes = std::fs::read(&path).unwrap();
        let clean = bytes.len();
        bytes.extend_from_slice(&[0xAB; 7]);
        std::fs::write(&path, &bytes).unwrap();

        let (mut wal, scanned) = Wal::open(&path).unwrap();
        assert_eq!(scanned.records.len(), 3);
        assert_eq!(scanned.valid_len, clean as u64);
        assert_eq!(scanned.truncated_bytes, 7);
        assert_eq!(wal.next_seqno(), 4);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean as u64);

        let receipt = wal
            .append(WalOp::Bind {
                name: "my_article".into(),
                oid: 9,
            })
            .unwrap();
        assert_eq!(receipt.record.seqno, 4);
        assert!(receipt.frame_len > 0);
        let (_, rescan) = Wal::open(&path).unwrap();
        assert_eq!(rescan.records.len(), 4);
    }

    #[test]
    fn injected_fault_crashes_handle_and_recovery_drops_the_record() {
        let dir = TempDir::new("docql-wal-test").unwrap();
        let path = dir.join(WAL_FILE);
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(WalOp::Ingest {
            sgml: "<doc>ok</doc>".into(),
        })
        .unwrap();
        // A stream whose first draw always faults: probe seeds.
        let mut seed = 0u64;
        let fault = loop {
            let s = IoFaultStream::new(seed);
            if let Some(f) = s.draw() {
                break f;
            }
            seed += 1;
        };
        wal.set_fault_stream(Some(IoFaultStream::new(seed)));
        let err = wal
            .append(WalOp::Ingest {
                sgml: "<doc>crashed</doc>".into(),
            })
            .unwrap_err();
        assert!(matches!(err, WalError::InjectedFault(f) if f == fault));
        assert!(wal.is_crashed());
        assert!(matches!(
            wal.append(WalOp::Ingest { sgml: "x".into() }).unwrap_err(),
            WalError::Crashed
        ));
        // Reopen: only the committed record survives.
        let (_, scanned) = Wal::open(&path).unwrap();
        assert_eq!(scanned.records.len(), 1);
        assert_eq!(
            scanned.records[0].op,
            WalOp::Ingest {
                sgml: "<doc>ok</doc>".into()
            }
        );
    }

    #[test]
    fn truncate_keeps_numbering() {
        let dir = TempDir::new("docql-wal-test").unwrap();
        let path = dir.join(WAL_FILE);
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(WalOp::Ingest { sgml: "a".into() }).unwrap();
        wal.append(WalOp::Ingest { sgml: "b".into() }).unwrap();
        wal.truncate().unwrap();
        assert_eq!(wal.len_bytes(), 0);
        let receipt = wal.append(WalOp::Ingest { sgml: "c".into() }).unwrap();
        assert_eq!(
            receipt.record.seqno, 3,
            "numbering continues across truncation"
        );
        let (_, scanned) = Wal::open(&path).unwrap();
        assert_eq!(scanned.records.len(), 1);
        assert_eq!(scanned.records[0].seqno, 3);
    }
}
