//! Snapshot segments: one immutable, checksummed file per checkpoint,
//! holding the store's data — object slots (class and value), roots and
//! the document list — in a flat, section-directed layout that loads with
//! a single sequential read and no SGML re-parsing.
//!
//! Segments hold nothing derived. The §3 `text` mapping is a function of
//! the objects, and the text index and the path extents are access
//! structures over them, so recovery derives all three from the restored
//! slots the way ingest derives them.
//!
//! File layout:
//!
//! ```text
//! [magic: b"DQSEG001"][crc: u32][payload_len: u64][payload]
//! payload = [nsections: u32]
//!           [directory: nsections × (id: u32, off: u64, len: u64)]
//!           [section bodies]
//! ```
//!
//! with `crc = crc32(payload)`, section offsets relative to payload start.
//! The directory makes the format skippable (a reader ignores section ids
//! it does not know) and mmap-friendly: every section is a contiguous,
//! independently decodable byte range. Segments written by earlier
//! versions also store every object's text as section 6 and both indexes
//! as sections 7–10; the decoder skips them and recovery re-derives.
//!
//! Symbols ([`Sym`]) are process-global intern handles and **not** stable
//! across restarts, so every encoded symbol goes through a per-segment
//! string table (section 2); decode re-interns by name.
//!
//! Segments are written with the tmp → fsync → rename → dir-fsync
//! discipline, so a crash mid-checkpoint leaves either no new segment or a
//! complete one — and a torn rename window is covered because the WAL is
//! truncated only *after* the rename lands. Corrupt segments are detected
//! by checksum at load and skipped in favour of the next-newest.

use crate::codec::{CodecError, Reader, Writer};
use crate::crc32::crc32;
use docql_model::{Oid, Sym, Value};
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

/// Segment file magic (8 bytes, format version 001).
pub const SEGMENT_MAGIC: &[u8; 8] = b"DQSEG001";
/// Store-meta file magic (8 bytes). Version 04 marks a directory whose log
/// may hold `Update` records (03: segments may lack the text section, 02:
/// the index sections), so a binary that cannot read them refuses the
/// directory at open instead of cutting the log at the first such record
/// or skipping every such segment.
pub const META_MAGIC: &[u8; 8] = b"DQMETA04";
/// Previous store-meta magics: still read, and rewritten as
/// [`META_MAGIC`] when a store is opened.
pub const OUTDATED_META_MAGICS: [&[u8; 8]; 3] = [b"DQMETA01", b"DQMETA02", b"DQMETA03"];
/// File name of the store meta (DTD text + declared extra roots).
pub const META_FILE: &str = "store.meta";

/// Nesting depth cap for decoded [`Value`]s — corrupt input that slips past
/// the checksum must not be able to blow the stack.
const MAX_VALUE_DEPTH: u32 = 256;

const SEC_META: u32 = 1;
const SEC_SYMTAB: u32 = 2;
const SEC_OBJECTS: u32 = 3;
const SEC_ROOTS: u32 = 4;
const SEC_DOCUMENTS: u32 = 5;

/// A successfully loaded segment: `(applied seqno, image, byte size)`.
pub type LoadedSegment = (u64, StoreImage, u64);

/// The complete materialized state of a store, as captured by a checkpoint
/// and restored by recovery. Field order mirrors the section layout.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreImage {
    /// Highest WAL seqno whose effects this image contains.
    pub applied_seqno: u64,
    /// Object slots in oid order (`objects[i]` is oid `i`): class + value.
    pub objects: Vec<(Sym, Value)>,
    /// Named roots of persistence, sorted by name string.
    pub roots: Vec<(Sym, Value)>,
    /// Ingested document roots (`Oid.0`), in ingest order.
    pub documents: Vec<u32>,
}

/// Why a segment (or meta) file failed to load. Any of these means "do not
/// trust this file" — recovery skips it, never partially applies it.
#[derive(Debug)]
pub enum SegmentError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// Wrong magic bytes — not a segment, or an unknown format version.
    BadMagic,
    /// Stated payload length disagrees with the file.
    BadLength,
    /// Payload checksum mismatch.
    Checksum,
    /// Payload decoded wrongly (should be unreachable behind a good
    /// checksum; indicates version skew or a software bug).
    Codec(CodecError),
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Io(e) => write!(f, "segment io: {e}"),
            SegmentError::BadMagic => f.write_str("bad segment magic"),
            SegmentError::BadLength => f.write_str("segment length mismatch"),
            SegmentError::Checksum => f.write_str("segment checksum mismatch"),
            SegmentError::Codec(e) => write!(f, "segment payload: {e}"),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<io::Error> for SegmentError {
    fn from(e: io::Error) -> SegmentError {
        SegmentError::Io(e)
    }
}

impl From<CodecError> for SegmentError {
    fn from(e: CodecError) -> SegmentError {
        SegmentError::Codec(e)
    }
}

// ---------------------------------------------------------------------------
// Symbol table

#[derive(Default)]
struct SymEncoder {
    ids: HashMap<Sym, u32>,
    names: Vec<String>,
}

impl SymEncoder {
    fn id(&mut self, s: Sym) -> u32 {
        if let Some(&id) = self.ids.get(&s) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(s.as_str().to_string());
        self.ids.insert(s, id);
        id
    }

    fn encode(&self, w: &mut Writer) {
        w.count(self.names.len());
        for name in &self.names {
            w.str(name);
        }
    }
}

struct SymDecoder {
    syms: Vec<Sym>,
}

impl SymDecoder {
    fn decode(r: &mut Reader<'_>) -> Result<SymDecoder, CodecError> {
        let n = r.count(4)?;
        let mut syms = Vec::with_capacity(n);
        for _ in 0..n {
            syms.push(Sym::new(r.str()?));
        }
        Ok(SymDecoder { syms })
    }

    fn sym(&self, id: u32) -> Result<Sym, CodecError> {
        self.syms
            .get(id as usize)
            .copied()
            .ok_or(CodecError::Corrupt("symbol id out of table"))
    }
}

// ---------------------------------------------------------------------------
// Value codec

const VAL_NIL: u8 = 0;
const VAL_INT: u8 = 1;
const VAL_FLOAT: u8 = 2;
const VAL_BOOL: u8 = 3;
const VAL_STR: u8 = 4;
const VAL_OID: u8 = 5;
const VAL_TUPLE: u8 = 6;
const VAL_UNION: u8 = 7;
const VAL_LIST: u8 = 8;
const VAL_SET: u8 = 9;

fn encode_value(w: &mut Writer, syms: &mut SymEncoder, v: &Value) {
    match v {
        Value::Nil => w.u8(VAL_NIL),
        Value::Int(i) => {
            w.u8(VAL_INT);
            w.i64(*i);
        }
        Value::Float(x) => {
            w.u8(VAL_FLOAT);
            w.f64(*x);
        }
        Value::Bool(b) => {
            w.u8(VAL_BOOL);
            w.u8(u8::from(*b));
        }
        Value::Str(s) => {
            w.u8(VAL_STR);
            w.str(s);
        }
        Value::Oid(o) => {
            w.u8(VAL_OID);
            w.u32(o.0);
        }
        Value::Tuple(fields) => {
            w.u8(VAL_TUPLE);
            w.count(fields.len());
            for (name, fv) in fields {
                w.u32(syms.id(*name));
                encode_value(w, syms, fv);
            }
        }
        Value::Union(marker, inner) => {
            w.u8(VAL_UNION);
            w.u32(syms.id(*marker));
            encode_value(w, syms, inner);
        }
        Value::List(items) => {
            w.u8(VAL_LIST);
            w.count(items.len());
            for item in items {
                encode_value(w, syms, item);
            }
        }
        Value::Set(items) => {
            w.u8(VAL_SET);
            w.count(items.len());
            for item in items {
                encode_value(w, syms, item);
            }
        }
    }
}

fn decode_value(r: &mut Reader<'_>, syms: &SymDecoder, depth: u32) -> Result<Value, CodecError> {
    if depth > MAX_VALUE_DEPTH {
        return Err(CodecError::Corrupt("value nesting too deep"));
    }
    Ok(match r.u8()? {
        VAL_NIL => Value::Nil,
        VAL_INT => Value::Int(r.i64()?),
        VAL_FLOAT => Value::Float(r.f64()?),
        VAL_BOOL => Value::Bool(r.u8()? != 0),
        VAL_STR => Value::Str(r.str()?.to_string()),
        VAL_OID => Value::Oid(Oid(r.u32()?)),
        VAL_TUPLE => {
            let n = r.count(5)?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let name = syms.sym(r.u32()?)?;
                fields.push((name, decode_value(r, syms, depth + 1)?));
            }
            Value::Tuple(fields)
        }
        VAL_UNION => {
            let marker = syms.sym(r.u32()?)?;
            Value::Union(marker, Box::new(decode_value(r, syms, depth + 1)?))
        }
        VAL_LIST => {
            let n = r.count(1)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value(r, syms, depth + 1)?);
            }
            Value::List(items)
        }
        VAL_SET => {
            let n = r.count(1)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value(r, syms, depth + 1)?);
            }
            Value::Set(items)
        }
        tag => return Err(CodecError::BadTag { what: "value", tag }),
    })
}

/// Encode `v` on its own — a symbol table of its names, then the value —
/// for a record that travels without a segment's table (a WAL update).
pub(crate) fn encode_lone_value(w: &mut Writer, v: &Value) {
    let mut syms = SymEncoder::default();
    let mut body = Writer::new();
    encode_value(&mut body, &mut syms, v);
    syms.encode(w);
    w.bytes(&body.into_bytes());
}

/// Decode what [`encode_lone_value`] wrote.
pub(crate) fn decode_lone_value(r: &mut Reader<'_>) -> Result<Value, CodecError> {
    let syms = SymDecoder::decode(r)?;
    let mut body = Reader::new(r.bytes()?);
    let v = decode_value(&mut body, &syms, 0)?;
    body.finish()?;
    Ok(v)
}

// ---------------------------------------------------------------------------
// Section bodies

fn encode_sections(image: &StoreImage) -> Vec<(u32, Vec<u8>)> {
    let mut syms = SymEncoder::default();

    let mut meta = Writer::new();
    meta.u64(image.applied_seqno);

    let mut objects = Writer::new();
    objects.count(image.objects.len());
    for (class, value) in &image.objects {
        objects.u32(syms.id(*class));
        encode_value(&mut objects, &mut syms, value);
    }

    let mut roots = Writer::new();
    roots.count(image.roots.len());
    for (name, value) in &image.roots {
        roots.u32(syms.id(*name));
        encode_value(&mut roots, &mut syms, value);
    }

    let mut documents = Writer::new();
    documents.count(image.documents.len());
    for oid in &image.documents {
        documents.u32(*oid);
    }

    // The symbol table is encoded last (every other section registers
    // symbols into it) but readers locate it via the directory regardless.
    let mut symtab = Writer::new();
    syms.encode(&mut symtab);

    vec![
        (SEC_META, meta.into_bytes()),
        (SEC_SYMTAB, symtab.into_bytes()),
        (SEC_OBJECTS, objects.into_bytes()),
        (SEC_ROOTS, roots.into_bytes()),
        (SEC_DOCUMENTS, documents.into_bytes()),
    ]
}

/// Encode an image as complete segment-file bytes (magic + checksum +
/// directory + sections).
pub fn encode_segment(image: &StoreImage) -> Vec<u8> {
    frame_sections(&encode_sections(image))
}

fn frame_sections(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let header_len = 4 + sections.len() * 20;
    let mut dir = Writer::new();
    dir.count(sections.len());
    let mut off = header_len as u64;
    for (id, body) in sections {
        dir.u32(*id);
        dir.u64(off);
        dir.u64(body.len() as u64);
        off += body.len() as u64;
    }
    let mut payload = dir.into_bytes();
    for (_, body) in sections {
        payload.extend_from_slice(body);
    }
    let mut file = Vec::with_capacity(8 + 12 + payload.len());
    file.extend_from_slice(SEGMENT_MAGIC);
    file.extend_from_slice(&crc32(&payload).to_le_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(&payload);
    file
}

fn section_table(payload: &[u8]) -> Result<Vec<(u32, &[u8])>, SegmentError> {
    let mut r = Reader::new(payload);
    let n = r.count(20)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.u32()?;
        let off = r.u64()? as usize;
        let len = r.u64()? as usize;
        let end = off
            .checked_add(len)
            .ok_or(CodecError::Corrupt("section range overflow"))?;
        if end > payload.len() {
            return Err(SegmentError::Codec(CodecError::Corrupt(
                "section range out of payload",
            )));
        }
        out.push((id, &payload[off..end]));
    }
    Ok(out)
}

fn section<'a>(table: &[(u32, &'a [u8])], id: u32) -> Result<&'a [u8], SegmentError> {
    table
        .iter()
        .find(|(sid, _)| *sid == id)
        .map(|(_, body)| *body)
        .ok_or(SegmentError::Codec(CodecError::Corrupt("missing section")))
}

/// Decode segment-file bytes back into a [`StoreImage`].
pub fn decode_segment(bytes: &[u8]) -> Result<StoreImage, SegmentError> {
    if bytes.len() < 20 {
        return Err(SegmentError::BadLength);
    }
    if &bytes[..8] != SEGMENT_MAGIC {
        return Err(SegmentError::BadMagic);
    }
    let crc = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    let len = u64::from_le_bytes([
        bytes[12], bytes[13], bytes[14], bytes[15], bytes[16], bytes[17], bytes[18], bytes[19],
    ]);
    let payload = &bytes[20..];
    if payload.len() as u64 != len {
        return Err(SegmentError::BadLength);
    }
    if crc32(payload) != crc {
        return Err(SegmentError::Checksum);
    }
    let table = section_table(payload)?;

    let syms = SymDecoder::decode(&mut Reader::new(section(&table, SEC_SYMTAB)?))?;

    let mut r = Reader::new(section(&table, SEC_META)?);
    let applied_seqno = r.u64()?;
    r.finish()?;

    let mut r = Reader::new(section(&table, SEC_OBJECTS)?);
    let n = r.count(5)?;
    let mut objects = Vec::with_capacity(n);
    for _ in 0..n {
        let class = syms.sym(r.u32()?)?;
        objects.push((class, decode_value(&mut r, &syms, 0)?));
    }
    r.finish()?;

    let mut r = Reader::new(section(&table, SEC_ROOTS)?);
    let n = r.count(5)?;
    let mut roots = Vec::with_capacity(n);
    for _ in 0..n {
        let name = syms.sym(r.u32()?)?;
        roots.push((name, decode_value(&mut r, &syms, 0)?));
    }
    r.finish()?;

    let mut r = Reader::new(section(&table, SEC_DOCUMENTS)?);
    let n = r.count(4)?;
    let mut documents = Vec::with_capacity(n);
    for _ in 0..n {
        documents.push(r.u32()?);
    }
    r.finish()?;

    Ok(StoreImage {
        applied_seqno,
        objects,
        roots,
        documents,
    })
}

// ---------------------------------------------------------------------------
// Files

/// The file name of the segment capturing everything up to `seqno`.
pub fn segment_file_name(seqno: u64) -> String {
    format!("seg-{seqno:016x}.dqs")
}

/// Parse a segment file name back to its seqno.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("seg-")?.strip_suffix(".dqs")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    // Directory fsync makes the rename itself durable; on platforms where
    // opening a directory for write is not supported this is a no-op.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Write `image` as a new segment in `dir` using the atomic tmp → fsync →
/// rename → dir-fsync discipline. Returns the final path and byte size.
pub fn write_segment(dir: &Path, image: &StoreImage) -> io::Result<(PathBuf, u64)> {
    let bytes = encode_segment(image);
    let final_path = dir.join(segment_file_name(image.applied_seqno));
    let tmp_path = dir.join(format!("{}.tmp", segment_file_name(image.applied_seqno)));
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    sync_dir(dir)?;
    Ok((final_path, bytes.len() as u64))
}

/// Read and fully validate the segment at `path`.
pub fn read_segment(path: &Path) -> Result<StoreImage, SegmentError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    decode_segment(&bytes)
}

/// Segment files in `dir`, oldest first (by applied seqno). Non-segment
/// names (including `.tmp` leftovers) are ignored.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seqno) = entry.file_name().to_str().and_then(parse_segment_name) {
            out.push((seqno, entry.path()));
        }
    }
    out.sort_by_key(|(seqno, _)| *seqno);
    Ok(out)
}

/// Load the newest segment that validates, skipping corrupt ones. Returns
/// the loaded `(seqno, image, byte size)` (if any segment was good) and how
/// many newer segments were skipped as corrupt.
pub fn load_newest_valid(dir: &Path) -> io::Result<(Option<LoadedSegment>, usize)> {
    let mut skipped = 0usize;
    let segments = list_segments(dir)?;
    for (seqno, path) in segments.into_iter().rev() {
        match read_segment(&path) {
            Ok(image) => {
                let size = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                return Ok((Some((seqno, image, size)), skipped));
            }
            Err(SegmentError::Io(e)) if e.kind() == io::ErrorKind::NotFound => skipped += 1,
            Err(_) => skipped += 1,
        }
    }
    Ok((None, skipped))
}

/// Remove checkpoint segments older than the newest `keep` **valid** ones.
///
/// Only validating segments count toward the retention quota, so a corrupt
/// newest segment never causes its recovery fallback to be collected —
/// after GC, [`load_newest_valid`] still has `keep` good generations to
/// fall back through. `keep` is clamped to at least 1. Corrupt segments
/// newer than the quota fill are left in place as evidence; everything
/// older than the quota fill — valid or not — is removed. Returns the
/// removed paths, oldest first.
pub fn gc_segments(dir: &Path, keep: usize) -> io::Result<Vec<PathBuf>> {
    let keep = keep.max(1);
    let mut valid_kept = 0usize;
    let mut removed = Vec::new();
    for (_seqno, path) in list_segments(dir)?.into_iter().rev() {
        if valid_kept < keep {
            if read_segment(&path).is_ok() {
                valid_kept += 1;
            }
            continue;
        }
        fs::remove_file(&path)?;
        removed.push(path);
    }
    if !removed.is_empty() {
        sync_dir(dir)?;
    }
    removed.reverse();
    Ok(removed)
}

// ---------------------------------------------------------------------------
// Store meta (schema text + declared roots — needed before any DocStore
// can be constructed, so it lives outside the segment/WAL cycle and is
// written once at store creation)

/// Write the store meta file (DTD text + declared extra root names).
pub fn write_meta(dir: &Path, dtd_text: &str, extra_roots: &[String]) -> io::Result<()> {
    let mut w = Writer::new();
    w.str(dtd_text);
    w.count(extra_roots.len());
    for root in extra_roots {
        w.str(root);
    }
    let payload = w.into_bytes();
    let mut bytes = Vec::with_capacity(12 + payload.len());
    bytes.extend_from_slice(META_MAGIC);
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    let tmp = dir.join(format!("{META_FILE}.tmp"));
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, dir.join(META_FILE))?;
    sync_dir(dir)?;
    Ok(())
}

/// A decoded store meta file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreMeta {
    /// The DTD text the store was created with.
    pub dtd_text: String,
    /// The declared extra named roots.
    pub extra_roots: Vec<String>,
    /// The file carries one of [`OUTDATED_META_MAGICS`] and should be
    /// rewritten with [`write_meta`].
    pub outdated: bool,
}

/// Read and validate the store meta file (the current magic or an
/// outdated one).
pub fn read_meta(dir: &Path) -> Result<StoreMeta, SegmentError> {
    let mut bytes = Vec::new();
    File::open(dir.join(META_FILE))?.read_to_end(&mut bytes)?;
    if bytes.len() < 12 {
        return Err(SegmentError::BadLength);
    }
    let outdated = match &bytes[..8] {
        m if m == META_MAGIC => false,
        m if OUTDATED_META_MAGICS.iter().any(|old| m == *old) => true,
        _ => return Err(SegmentError::BadMagic),
    };
    let crc = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    let payload = &bytes[12..];
    if crc32(payload) != crc {
        return Err(SegmentError::Checksum);
    }
    let mut r = Reader::new(payload);
    let dtd_text = r.str()?.to_string();
    let n = r.count(4)?;
    let mut extra_roots = Vec::with_capacity(n);
    for _ in 0..n {
        extra_roots.push(r.str()?.to_string());
    }
    r.finish()?;
    Ok(StoreMeta {
        dtd_text,
        extra_roots,
        outdated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn sample_image() -> StoreImage {
        let title = Sym::new("title");
        let body = Sym::new("body");
        StoreImage {
            applied_seqno: 42,
            objects: vec![
                (
                    Sym::new("Article"),
                    Value::tuple([
                        (title, Value::str("On Durability")),
                        (body, Value::List(vec![Value::Oid(Oid(1))])),
                    ]),
                ),
                (Sym::new("para"), Value::union("para", Value::str("text"))),
            ],
            roots: vec![
                (Sym::new("my_article"), Value::Oid(Oid(0))),
                (
                    Sym::new("scores"),
                    Value::set([Value::Int(3), Value::Float(-0.5)]),
                ),
            ],
            documents: vec![0],
        }
    }

    #[test]
    fn segment_round_trips() {
        let image = sample_image();
        let bytes = encode_segment(&image);
        let back = decode_segment(&bytes).unwrap();
        assert_eq!(back, image);
    }

    #[test]
    fn segments_with_the_old_index_sections_still_load() {
        // Segments written while checkpoints stored every object's text
        // carry it as section 6, and the older ones both indexes as
        // sections 7–10; the decoder skips them.
        let image = sample_image();
        let mut text = Writer::new();
        text.count(1);
        text.u32(0);
        text.str("On Durability text");
        let mut sections = encode_sections(&image);
        sections.push((6, text.into_bytes()));
        assert_eq!(decode_segment(&frame_sections(&sections)).unwrap(), image);
        for id in 7..=10 {
            sections.push((id, vec![0xA5; 16]));
        }
        assert_eq!(decode_segment(&frame_sections(&sections)).unwrap(), image);
    }

    #[test]
    fn any_byte_flip_is_detected() {
        let bytes = encode_segment(&sample_image());
        for at in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[at] ^= 0x40;
            assert!(
                decode_segment(&damaged).is_err(),
                "flip at byte {at} accepted"
            );
        }
    }

    #[test]
    fn truncation_at_every_cut_is_detected() {
        let bytes = encode_segment(&sample_image());
        for cut in 0..bytes.len() {
            assert!(
                decode_segment(&bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn file_names_round_trip() {
        assert_eq!(segment_file_name(0x2a), "seg-000000000000002a.dqs");
        assert_eq!(parse_segment_name("seg-000000000000002a.dqs"), Some(0x2a));
        assert_eq!(parse_segment_name("seg-000000000000002a.dqs.tmp"), None);
        assert_eq!(parse_segment_name("wal.log"), None);
        assert_eq!(parse_segment_name("seg-2a.dqs"), None);
    }

    #[test]
    fn newest_valid_segment_wins_and_corrupt_ones_are_skipped() {
        let dir = TempDir::new("docql-seg-test").unwrap();
        let mut old = sample_image();
        old.applied_seqno = 10;
        let mut new = sample_image();
        new.applied_seqno = 20;
        write_segment(dir.path(), &old).unwrap();
        let (new_path, _) = write_segment(dir.path(), &new).unwrap();

        let (loaded, skipped) = load_newest_valid(dir.path()).unwrap();
        let (seqno, image, size) = loaded.unwrap();
        assert_eq!((seqno, skipped), (20, 0));
        assert_eq!(image, new);
        assert!(size > 0);

        // Corrupt the newest: recovery falls back to the older one.
        let mut bytes = fs::read(&new_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&new_path, &bytes).unwrap();
        let (loaded, skipped) = load_newest_valid(dir.path()).unwrap();
        let (seqno, image, _) = loaded.unwrap();
        assert_eq!((seqno, skipped), (10, 1));
        assert_eq!(image, old);
    }

    #[test]
    fn gc_counts_only_valid_segments_toward_the_quota() {
        let dir = TempDir::new("docql-seg-gc-test").unwrap();
        let mut paths = Vec::new();
        for seqno in [10u64, 20, 30] {
            let mut image = sample_image();
            image.applied_seqno = seqno;
            paths.push(write_segment(dir.path(), &image).unwrap().0);
        }

        // Corrupt the newest, then GC with keep=1: the corrupt file must
        // not count, so seg-20 (the fallback) survives and only seg-10
        // goes. Recovery afterwards still finds a valid generation.
        let mut bytes = fs::read(&paths[2]).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&paths[2], &bytes).unwrap();
        let removed = gc_segments(dir.path(), 1).unwrap();
        assert_eq!(removed, vec![paths[0].clone()]);
        let (loaded, skipped) = load_newest_valid(dir.path()).unwrap();
        let (seqno, _, _) = loaded.unwrap();
        assert_eq!((seqno, skipped), (20, 1));

        // keep=0 is clamped to 1; with everything already within quota
        // (one corrupt newer + one valid), nothing more is collected.
        assert!(gc_segments(dir.path(), 0).unwrap().is_empty());
        assert_eq!(list_segments(dir.path()).unwrap().len(), 2);

        // All segments valid: keep=1 removes every older generation.
        let mut image = sample_image();
        image.applied_seqno = 40;
        write_segment(dir.path(), &image).unwrap();
        let removed = gc_segments(dir.path(), 1).unwrap();
        assert_eq!(removed.len(), 2, "seg-20 and corrupt seg-30 collected");
        let left = list_segments(dir.path()).unwrap();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].0, 40);
    }

    #[test]
    fn meta_round_trips_and_rejects_corruption() {
        let dir = TempDir::new("docql-meta-test").unwrap();
        write_meta(
            dir.path(),
            "<!DOCTYPE article []>",
            &["my_article".to_string()],
        )
        .unwrap();
        let meta = read_meta(dir.path()).unwrap();
        assert_eq!(meta.dtd_text, "<!DOCTYPE article []>");
        assert_eq!(meta.extra_roots, vec!["my_article".to_string()]);
        assert!(!meta.outdated);

        // The previous magics still read (the checksum covers only the
        // payload), flagged for rewriting; any other magic is refused.
        let path = dir.join(META_FILE);
        let mut bytes = fs::read(&path).unwrap();
        for magic in OUTDATED_META_MAGICS {
            bytes[..8].copy_from_slice(magic);
            fs::write(&path, &bytes).unwrap();
            let old = read_meta(dir.path()).unwrap();
            assert!(old.outdated);
            assert_eq!(old.dtd_text, meta.dtd_text);
        }
        bytes[..8].copy_from_slice(b"DQMETA99");
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_meta(dir.path()), Err(SegmentError::BadMagic)));
        bytes[..8].copy_from_slice(META_MAGIC);

        let at = bytes.len() - 3;
        bytes[at] ^= 1;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_meta(dir.path()), Err(SegmentError::Checksum)));
    }
}
