//! Property tests for the durable formats, on the in-repo `docql-prop`
//! harness (shrinking, `DOCQL_PROP_SEED`/`DOCQL_PROP_CASES` from the
//! environment):
//!
//! * WAL frames: encode → scan is the identity on any record sequence;
//!   a single bit flip anywhere truncates the scan to exactly the records
//!   before the damaged frame; scanning arbitrary garbage never panics.
//! * Segments: encode → decode is the identity on any [`StoreImage`]
//!   (random values included); any single bit flip and any truncation is
//!   detected — a damaged segment is never decoded into a different image.

use docql_durable::snapshot::{decode_segment, encode_segment, StoreImage};
use docql_durable::wal::{encode_frame, scan, WalOp, WalRecord};
use docql_model::{sym, Oid, Value};
use docql_prop::{
    bool_any, check, element, f64_any, i64_any, just, one_of, prop_assert, prop_assert_eq,
    recursive, string_of, usize_in, vec_of, zip, zip3, Gen,
};

const CASES: usize = 128;

fn small_name() -> Gen<String> {
    element(
        ["a", "b", "title", "body", "sec"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    )
}

/// Arbitrary [`Value`], including floats (compared via the model's own
/// `PartialEq`, which is total), oids, and nested collections.
fn arb_value() -> Gen<Value> {
    let leaf = one_of(vec![
        just(Value::Nil),
        i64_any().map(|i| Value::Int(*i)),
        f64_any().map(|f| Value::Float(*f)),
        bool_any().map(|b| Value::Bool(*b)),
        string_of("abc xyz<&>/\n", 0, 8).map(|s| Value::str(s.clone())),
        usize_in(0..10_000).map(|o| Value::Oid(Oid(*o as u32))),
    ]);
    recursive(leaf, 3, |inner| {
        one_of(vec![
            vec_of(inner.clone(), 0..4).map(|vs| Value::list(vs.clone())),
            vec_of(inner.clone(), 0..4).map(|vs| Value::set(vs.clone())),
            vec_of(zip(small_name(), inner.clone()), 0..3).map(|fs| Value::tuple(fs.clone())),
            zip(small_name(), inner.clone()).map(|(n, v)| Value::union(n.clone(), v.clone())),
        ])
    })
}

fn arb_u32(bound: usize) -> Gen<u32> {
    usize_in(0..bound).map(|x| *x as u32)
}

/// Arbitrary [`StoreImage`] — not necessarily a *consistent* store, which
/// is the point: the codec must round-trip anything the type can hold.
fn arb_image() -> Gen<StoreImage> {
    let objects = vec_of(zip(small_name(), arb_value()), 0..6).map(|os| {
        os.iter()
            .map(|(n, v)| (sym(n), v.clone()))
            .collect::<Vec<_>>()
    });
    let roots = vec_of(zip(small_name(), arb_value()), 0..4).map(|rs| {
        rs.iter()
            .map(|(n, v)| (sym(n), v.clone()))
            .collect::<Vec<_>>()
    });
    let scalars = zip(
        usize_in(0..1_000_000).map(|s| *s as u64),
        vec_of(arb_u32(10_000), 0..6),
    );
    zip3(objects, roots, scalars).map(|(objects, roots, (applied_seqno, documents))| StoreImage {
        applied_seqno: *applied_seqno,
        objects: objects.clone(),
        roots: roots.clone(),
        documents: documents.clone(),
    })
}

fn arb_op() -> Gen<WalOp> {
    one_of(vec![
        string_of("abc xyz<&>/\n", 0, 24).map(|s| WalOp::Ingest { sgml: s.clone() }),
        zip(small_name(), arb_u32(10_000)).map(|(n, o)| WalOp::Bind {
            name: n.clone(),
            oid: *o,
        }),
        zip(arb_u32(10_000), arb_value()).map(|(o, v)| WalOp::Update {
            oid: *o,
            value: v.clone(),
        }),
    ])
}

fn records_of(ops: &[WalOp]) -> Vec<WalRecord> {
    ops.iter()
        .enumerate()
        .map(|(i, op)| WalRecord {
            seqno: i as u64 + 1,
            op: op.clone(),
        })
        .collect()
}

fn log_bytes(records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut buf = Vec::new();
    let mut bounds = vec![0usize];
    for r in records {
        buf.extend_from_slice(&encode_frame(r));
        bounds.push(buf.len());
    }
    (buf, bounds)
}

#[test]
fn wal_records_round_trip_through_scan() {
    check(
        "wal_records_round_trip_through_scan",
        256,
        &vec_of(arb_op(), 0..8),
        |ops| {
            let records = records_of(ops);
            let (buf, _) = log_bytes(&records);
            let scanned = scan(&buf);
            prop_assert_eq!(&scanned.records, &records);
            prop_assert_eq!(scanned.valid_len, buf.len() as u64);
            prop_assert_eq!(scanned.truncated_bytes, 0u64);
            Ok(())
        },
    );
}

#[test]
fn wal_single_bit_flip_truncates_to_the_frame_before_the_damage() {
    let gen = zip3(vec_of(arb_op(), 1..8), usize_in(0..1 << 20), usize_in(0..8));
    check(
        "wal_single_bit_flip_truncates_to_the_frame_before_the_damage",
        256,
        &gen,
        |(ops, pos_raw, bit)| {
            let records = records_of(ops);
            let (mut buf, bounds) = log_bytes(&records);
            let pos = pos_raw % buf.len();
            buf[pos] ^= 1 << bit;
            // The frame the flip lands in: bounds[k] <= pos < bounds[k+1].
            let k = bounds.partition_point(|&b| b <= pos) - 1;
            let scanned = scan(&buf);
            prop_assert_eq!(&scanned.records, &records[..k]);
            prop_assert_eq!(scanned.valid_len, bounds[k] as u64);
            prop_assert_eq!(scanned.truncated_bytes, (buf.len() - bounds[k]) as u64);
            Ok(())
        },
    );
}

#[test]
fn wal_scan_of_arbitrary_garbage_never_panics_and_stays_in_bounds() {
    check(
        "wal_scan_of_arbitrary_garbage_never_panics_and_stays_in_bounds",
        256,
        &vec_of(usize_in(0..256), 0..64),
        |bytes| {
            let buf: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
            let scanned = scan(&buf);
            prop_assert!(scanned.valid_len <= buf.len() as u64);
            prop_assert_eq!(
                scanned.valid_len + scanned.truncated_bytes,
                buf.len() as u64
            );
            Ok(())
        },
    );
}

#[test]
fn segment_encode_decode_is_the_identity() {
    check(
        "segment_encode_decode_is_the_identity",
        CASES,
        &arb_image(),
        |image| {
            let bytes = encode_segment(image);
            let back = decode_segment(&bytes)
                .map_err(|e| format!("decode of a clean segment failed: {e}"))?;
            prop_assert_eq!(&back, image);
            Ok(())
        },
    );
}

#[test]
fn segment_single_bit_flip_is_always_detected() {
    let gen = zip3(arb_image(), usize_in(0..1 << 20), usize_in(0..8));
    check(
        "segment_single_bit_flip_is_always_detected",
        CASES,
        &gen,
        |(image, pos_raw, bit)| {
            let mut bytes = encode_segment(image);
            let pos = pos_raw % bytes.len();
            bytes[pos] ^= 1 << bit;
            prop_assert!(
                decode_segment(&bytes).is_err(),
                "flip at byte {} bit {} went undetected",
                pos,
                bit
            );
            Ok(())
        },
    );
}

#[test]
fn segment_truncation_is_always_detected() {
    let gen = zip(arb_image(), usize_in(0..1 << 20));
    check(
        "segment_truncation_is_always_detected",
        CASES,
        &gen,
        |(image, cut_raw)| {
            let bytes = encode_segment(image);
            let cut = cut_raw % bytes.len(); // strictly shorter than full
            prop_assert!(
                decode_segment(&bytes[..cut]).is_err(),
                "truncation to {} of {} bytes went undetected",
                cut,
                bytes.len()
            );
            Ok(())
        },
    );
}
