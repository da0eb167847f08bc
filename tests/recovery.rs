//! Crash-recovery battery for the durable store, a [`SharedStore`] opened
//! from a directory:
//!
//! * **kill at every WAL record boundary** — for each of the N+1 clean
//!   prefixes of the log (ingests, binds and updates), a store reopened on
//!   that prefix answers Q1–Q5 byte-identically to a fresh ingest of the
//!   same operation prefix, with no partial documents visible;
//! * **rejected writes** — a write refused before it publishes leaves no
//!   log record;
//! * **torn / truncated / bit-flipped tails** — mid-record cuts, trailing
//!   garbage, and a ≥64-seed single-bit-flip sweep are all detected by
//!   checksum and cleanly truncated to the longest valid prefix, never
//!   silently loaded;
//! * **checkpoints** — segment + tail replay recovers the full state;
//!   a corrupted newest segment falls back to the older one; a crash
//!   between segment rename and WAL truncation double-applies nothing;
//! * **injected I/O faults** (`docql-guard` seeded streams, base seed from
//!   `DOCQL_FAULT` as in `tests/governance.rs`) — a fault at a record
//!   boundary behaves as a crash there, and reopening recovers exactly the
//!   committed prefix.

use docql::durable::snapshot;
use docql::durable::{crc32, encode_frame, scan, Reader, TempDir, Writer, META_FILE, WAL_FILE};
use docql::prelude::*;
use docql::store::{DocStore, StoreError, WalOp};
use docql_corpus::{generate_letter, LetterParams};
use std::fs;
use std::path::Path;

mod util;
use util::{article_sgml, fault_base_seed, rendered, ARTICLE_QUERIES, FAULT_CASES, Q6};

const ROOTS: &[&str] = &["my_article", "my_old_article"];

/// The committed-operation script whose prefixes the battery replays.
/// Binds land early so most prefixes exercise the bound-root queries.
#[derive(Clone, Copy)]
enum Op {
    /// Ingest the article generated from this corpus seed.
    Ingest(u64),
    /// Bind the named root to the root object of the i-th ingest.
    Bind(&'static str, usize),
    /// Set the title of the i-th ingest to this text (an update record).
    Retitle(usize, &'static str),
}

const SCRIPT: &[Op] = &[
    Op::Ingest(0),
    Op::Ingest(1),
    Op::Bind("my_old_article", 0),
    Op::Bind("my_article", 1),
    Op::Retitle(1, "A retitled SGML article"),
    Op::Ingest(2),
    Op::Ingest(3),
    Op::Ingest(4),
    Op::Retitle(3, "Another title"),
    Op::Ingest(5),
];

/// The title object of the document rooted at `root`, and a title value
/// holding `text`.
fn retitle(store: &DocStore, root: Oid, text: &str) -> (Oid, Value) {
    let title = match store.instance().value_of(root).unwrap().attr(sym("title")) {
        Some(Value::Oid(o)) => *o,
        other => panic!("an article has a title object, got {other:?}"),
    };
    (title, Value::tuple([("contents", Value::str(text))]))
}

/// Fresh in-memory ingest of the first `k` script operations — the oracle
/// a recovered store is compared against.
fn reference_store(k: usize) -> DocStore {
    let mut store = DocStore::new(docql::fixtures::ARTICLE_DTD, ROOTS).unwrap();
    let mut roots = Vec::new();
    for op in &SCRIPT[..k] {
        match op {
            Op::Ingest(seed) => roots.push(store.ingest(&article_sgml(*seed)).unwrap()),
            Op::Bind(name, i) => store.bind(name, roots[*i]).unwrap(),
            Op::Retitle(i, text) => {
                let (title, value) = retitle(&store, roots[*i], text);
                store.update_value(title, value).unwrap();
            }
        }
    }
    store
}

/// Run one script operation as a durable write; `roots` collects the
/// documents ingested so far.
fn run_op(ps: &SharedStore, roots: &mut Vec<Oid>, op: &Op) {
    match op {
        Op::Ingest(seed) => roots.push(ps.ingest(&article_sgml(*seed)).unwrap()),
        Op::Bind(name, i) => ps.bind(name, roots[*i]).unwrap(),
        Op::Retitle(i, text) => {
            let (title, value) = retitle(&ps.read(), roots[*i], text);
            let update = WalOp::Update {
                oid: title.0,
                value,
            };
            ps.apply(vec![update]).0.unwrap();
        }
    }
}

fn run_script(ps: &SharedStore, ops: &[Op]) {
    let mut roots = Vec::new();
    for op in ops {
        run_op(ps, &mut roots, op);
    }
}

/// Every object's `text`, in oid order.
fn texts(store: &DocStore) -> Vec<Option<String>> {
    (0..store.instance().object_count() as u32)
        .map(|o| store.text_of(Oid(o)))
        .collect()
}

fn ingests_in(k: usize) -> usize {
    SCRIPT[..k]
        .iter()
        .filter(|op| matches!(op, Op::Ingest(_)))
        .count()
}

/// Q1–Q5 rendered, with errors rendered too: short prefixes legitimately
/// leave roots unbound, and the recovered store must fail *identically* to
/// the fresh one, not just succeed identically.
fn answers(query: impl Fn(&str) -> Result<QueryResult, StoreError>) -> Vec<String> {
    ARTICLE_QUERIES
        .iter()
        .map(|q| match query(q) {
            Ok(r) => rendered(&r),
            Err(e) => format!("error: {e}"),
        })
        .collect()
}

/// Byte offsets of every record boundary in a WAL image (N+1 entries,
/// starting at 0 and ending at the valid length).
fn wal_boundaries(bytes: &[u8]) -> Vec<usize> {
    let scanned = scan(bytes);
    let mut bounds = vec![0usize];
    for r in &scanned.records {
        bounds.push(bounds.last().unwrap() + encode_frame(r).len());
    }
    assert_eq!(*bounds.last().unwrap() as u64, scanned.valid_len);
    bounds
}

/// Clone a store directory, substituting the given bytes for the WAL —
/// the "kill the process here, copy the disk" primitive.
fn clone_with_wal(src: &Path, dst: &Path, wal_bytes: &[u8]) {
    fs::create_dir_all(dst).unwrap();
    fs::copy(src.join(META_FILE), dst.join(META_FILE)).unwrap();
    for (_, seg) in snapshot::list_segments(src).unwrap() {
        fs::copy(&seg, dst.join(seg.file_name().unwrap())).unwrap();
    }
    fs::write(dst.join(WAL_FILE), wal_bytes).unwrap();
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn kill_at_every_wal_record_boundary_recovers_the_exact_prefix() {
    let base = TempDir::new("recovery-base").unwrap();
    {
        let (ps, _) = SharedStore::open(base.path(), docql::fixtures::ARTICLE_DTD, ROOTS).unwrap();
        run_script(&ps, SCRIPT);
    }
    let wal = fs::read(base.join(WAL_FILE)).unwrap();
    let bounds = wal_boundaries(&wal);
    assert_eq!(bounds.len(), SCRIPT.len() + 1, "one record per operation");
    let updates = scan(&wal)
        .records
        .iter()
        .filter(|r| matches!(r.op, WalOp::Update { .. }))
        .count();
    assert_eq!(updates, 2, "the script's retitles are update records");

    for (k, cut) in bounds.iter().enumerate() {
        let dir = TempDir::new("recovery-kill").unwrap();
        clone_with_wal(base.path(), dir.path(), &wal[..*cut]);
        let (ps, report) = SharedStore::reopen(dir.path()).unwrap();
        assert_eq!(report.replayed_records, k, "cut at boundary {k}");
        assert_eq!(report.truncated_bytes, 0, "clean prefixes lose nothing");
        assert_eq!(report.segment_seqno, None);

        let oracle = reference_store(k);
        assert_eq!(
            answers(|q| ps.query(q)),
            answers(|q| oracle.query(q)),
            "prefix {k}: recovered answers diverge from fresh ingest"
        );
        let snap = ps.read();
        assert_eq!(
            snap.documents().len(),
            ingests_in(k),
            "prefix {k}: partial documents visible"
        );
        assert!(snap.check().is_empty(), "prefix {k}: integrity check");
    }
}

#[test]
fn torn_and_truncated_tails_are_cut_back_to_the_last_boundary() {
    let base = TempDir::new("recovery-torn-base").unwrap();
    {
        let (ps, _) = SharedStore::open(base.path(), docql::fixtures::ARTICLE_DTD, ROOTS).unwrap();
        run_script(&ps, SCRIPT);
    }
    let wal = fs::read(base.join(WAL_FILE)).unwrap();
    let bounds = wal_boundaries(&wal);

    // A short write anywhere inside record k leaves exactly records 0..k.
    for k in 0..SCRIPT.len() {
        let frame = bounds[k + 1] - bounds[k];
        for cut_in in [1, frame / 2, frame - 1] {
            let cut = bounds[k] + cut_in;
            let dir = TempDir::new("recovery-torn").unwrap();
            clone_with_wal(base.path(), dir.path(), &wal[..cut]);
            let (ps, report) = SharedStore::reopen(dir.path()).unwrap();
            assert_eq!(report.replayed_records, k, "cut {cut_in} into record {k}");
            assert_eq!(report.truncated_bytes, cut_in as u64);
            assert_eq!(
                answers(|q| ps.query(q)),
                answers(|q| reference_store(k).query(q))
            );
            assert_eq!(ps.read().documents().len(), ingests_in(k));
        }
    }

    // Trailing garbage after a complete log is detected and dropped.
    let mut torn = wal.clone();
    torn.extend_from_slice(&[0xAB; 13]);
    let dir = TempDir::new("recovery-garbage").unwrap();
    clone_with_wal(base.path(), dir.path(), &torn);
    let (ps, report) = SharedStore::reopen(dir.path()).unwrap();
    assert_eq!(report.replayed_records, SCRIPT.len());
    assert_eq!(report.truncated_bytes, 13);
    assert_eq!(
        answers(|q| ps.query(q)),
        answers(|q| reference_store(SCRIPT.len()).query(q))
    );
}

/// ≥64-seed sweep: flip one bit anywhere in the log; recovery must land on
/// exactly the records before the damaged one — never silently load the
/// flipped record, never lose an earlier one.
#[test]
fn single_bit_flip_sweep_recovers_the_longest_valid_prefix() {
    let base = TempDir::new("recovery-flip-base").unwrap();
    {
        let (ps, _) = SharedStore::open(base.path(), docql::fixtures::ARTICLE_DTD, ROOTS).unwrap();
        run_script(&ps, SCRIPT);
    }
    let wal = fs::read(base.join(WAL_FILE)).unwrap();
    let bounds = wal_boundaries(&wal);
    let seed0 = fault_base_seed();

    for case in 0..FAULT_CASES {
        let mut rng = seed0.wrapping_add(case).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let pos = (splitmix(&mut rng) % wal.len() as u64) as usize;
        let bit = (splitmix(&mut rng) % 8) as u8;
        let mut flipped = wal.clone();
        flipped[pos] ^= 1 << bit;
        // The record the flip lands in: bounds[k] <= pos < bounds[k+1].
        let k = bounds.partition_point(|&b| b <= pos) - 1;

        let dir = TempDir::new("recovery-flip").unwrap();
        clone_with_wal(base.path(), dir.path(), &flipped);
        let (ps, report) = SharedStore::reopen(dir.path()).unwrap();
        assert_eq!(
            report.replayed_records, k,
            "case {case}: flip at byte {pos} bit {bit} must invalidate record {k}"
        );
        assert_eq!(report.truncated_bytes, (wal.len() - bounds[k]) as u64);
        assert_eq!(
            answers(|q| ps.query(q)),
            answers(|q| reference_store(k).query(q)),
            "case {case}: recovered prefix diverges"
        );
        let snap = ps.read();
        assert_eq!(snap.documents().len(), ingests_in(k));
        assert!(snap.check().is_empty());
    }
}

#[test]
fn checkpoint_plus_tail_replay_recovers_the_full_state() {
    let dir = TempDir::new("recovery-ckpt").unwrap();
    let before = {
        let (ps, _) = SharedStore::open(dir.path(), docql::fixtures::ARTICLE_DTD, ROOTS).unwrap();
        run_script(&ps, SCRIPT);
        let report = ps.checkpoint().unwrap();
        assert_eq!(report.applied_seqno, SCRIPT.len() as u64);
        assert!(report.bytes > 0);
        assert_eq!(ps.wal_len_bytes(), 0, "checkpoint truncates the log");
        // Post-checkpoint tail: two more documents.
        ps.ingest(&article_sgml(6)).unwrap();
        ps.ingest(&article_sgml(7)).unwrap();
        texts(&ps.read())
    };
    let (ps, report) = SharedStore::reopen(dir.path()).unwrap();
    assert_eq!(report.segment_seqno, Some(SCRIPT.len() as u64));
    assert_eq!(report.segments_skipped, 0);
    assert_eq!(report.replayed_records, 2);

    let mut oracle = reference_store(SCRIPT.len());
    oracle.ingest(&article_sgml(6)).unwrap();
    oracle.ingest(&article_sgml(7)).unwrap();
    assert_eq!(answers(|q| ps.query(q)), answers(|q| oracle.query(q)));
    let snap = ps.read();
    assert_eq!(snap.documents().len(), 8);
    assert!(snap.check().is_empty());
    // The segment stores no text: recovery derives every object's text.
    assert_eq!(texts(&snap), before);
    assert_eq!(texts(&snap), texts(&oracle));

    // The recovered indexes equal the ingest-built ones, not merely the
    // answers drawn from them: sizes, index lookups, extent targets, and
    // the plan estimates the cost model reads off both.
    assert_eq!(snap.index_stats(), oracle.index_stats());
    let exprs = [
        ContainsExpr::pattern("SGML").unwrap(),
        ContainsExpr::pattern("(s|S)GML").unwrap(),
        ContainsExpr::all_of(["complex", "object"]).unwrap(),
        ContainsExpr::Or(vec![
            ContainsExpr::pattern("draft").unwrap(),
            ContainsExpr::pattern("OODBMS").unwrap(),
        ]),
        ContainsExpr::Not(Box::new(ContainsExpr::pattern("draft").unwrap())),
    ];
    for e in &exprs {
        assert_eq!(snap.find_documents(e), oracle.find_documents(e), "{e:?}");
    }
    assert_eq!(
        snap.path_extents().target_count(),
        oracle.path_extents().target_count()
    );
    // The stats version counts mutations since the store was built, which
    // differs between a recovered and a freshly ingested store.
    let explain = |store: &DocStore, q: &str| match store.engine().explain(q) {
        Ok(plan) => plan
            .lines()
            .filter(|l| !l.starts_with("planner: "))
            .collect::<Vec<_>>()
            .join("\n"),
        Err(e) => format!("error: {e}"),
    };
    for q in ARTICLE_QUERIES {
        assert_eq!(explain(&snap, q), explain(&oracle, q), "explain {q}");
    }
}

#[test]
fn corrupt_newest_segment_falls_back_to_the_previous_one() {
    let dir = TempDir::new("recovery-seg-corrupt").unwrap();
    let first_ckpt = 4; // ops covered by the first checkpoint
    {
        let (ps, _) = SharedStore::open(dir.path(), docql::fixtures::ARTICLE_DTD, ROOTS).unwrap();
        run_script(&ps, &SCRIPT[..first_ckpt]);
        ps.checkpoint().unwrap();
        ps.ingest(&article_sgml(2)).unwrap();
        ps.checkpoint().unwrap();
    }
    let segments = snapshot::list_segments(dir.path()).unwrap();
    assert_eq!(segments.len(), 2, "old segments are retained");
    let newest = &segments.last().unwrap().1;
    let mut bytes = fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(newest, bytes).unwrap();

    let (ps, report) = SharedStore::reopen(dir.path()).unwrap();
    assert_eq!(
        report.segments_skipped, 1,
        "damaged segment must be skipped"
    );
    assert_eq!(report.segment_seqno, Some(first_ckpt as u64));
    assert_eq!(
        answers(|q| ps.query(q)),
        answers(|q| reference_store(first_ckpt).query(q)),
        "fallback state is the previous checkpoint"
    );
    assert!(ps.read().check().is_empty());
}

/// Segment GC: checkpoints retain only the newest N generations (default
/// 2), older ones are collected, and after GC a corrupted newest segment
/// still falls back to the retained previous generation — the quota counts
/// only *valid* segments, so GC can never collect the recovery fallback.
#[test]
fn segment_gc_retains_fallback_and_survives_newest_corruption() {
    let dir = TempDir::new("recovery-seg-gc").unwrap();
    {
        let (ps, _) = SharedStore::open(dir.path(), docql::fixtures::ARTICLE_DTD, ROOTS).unwrap();
        assert_eq!(ps.segment_retain(), docql::store::DEFAULT_SEGMENT_RETAIN);
        let mut roots = Vec::new();
        let mut removed_total = 0usize;
        for (k, op) in SCRIPT.iter().enumerate() {
            run_op(&ps, &mut roots, op);
            let report = ps.checkpoint().unwrap();
            removed_total += report.segments_removed;
            let on_disk = snapshot::list_segments(dir.path()).unwrap().len();
            assert!(
                on_disk <= docql::store::DEFAULT_SEGMENT_RETAIN,
                "after checkpoint {k}: {on_disk} segments on disk"
            );
        }
        assert_eq!(
            removed_total,
            SCRIPT.len() - docql::store::DEFAULT_SEGMENT_RETAIN,
            "every generation beyond the retained ones was collected"
        );
    }
    let segments = snapshot::list_segments(dir.path()).unwrap();
    assert_eq!(segments.len(), 2, "newest two generations survive GC");
    assert_eq!(
        segments.last().unwrap().0 as usize,
        SCRIPT.len(),
        "newest segment covers the whole script"
    );

    // Corrupt the newest; recovery must fall back to the generation GC
    // deliberately kept.
    let newest = segments.last().unwrap().1.clone();
    let mut bytes = fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&newest, bytes).unwrap();

    let (ps, report) = SharedStore::reopen(dir.path()).unwrap();
    assert_eq!(report.segments_skipped, 1);
    assert_eq!(report.segment_seqno, Some(SCRIPT.len() as u64 - 1));
    assert_eq!(
        answers(|q| ps.query(q)),
        answers(|q| reference_store(SCRIPT.len() - 1).query(q)),
        "fallback state is the previous retained checkpoint"
    );

    // Writing on and checkpointing again replaces the corrupt generation
    // with a valid one at the same seqno and keeps the fallback.
    ps.ingest(&article_sgml(8)).unwrap();
    ps.checkpoint().unwrap();
    let after = snapshot::list_segments(dir.path()).unwrap();
    let valid = after
        .iter()
        .filter(|(_, p)| snapshot::read_segment(p).is_ok())
        .count();
    assert_eq!((after.len(), valid), (2, 2));

    // Tightening retention to 1 collects everything but the newest.
    ps.set_segment_retain(1);
    ps.ingest(&article_sgml(9)).unwrap();
    ps.checkpoint().unwrap();
    let (seqnos, paths): (Vec<u64>, Vec<_>) = snapshot::list_segments(dir.path())
        .unwrap()
        .into_iter()
        .unzip();
    assert_eq!(seqnos.len(), 1, "retain=1 keeps only the newest: {paths:?}");
    assert!(snapshot::read_segment(&paths[0]).is_ok());
}

/// A crash *between* segment rename and WAL truncation leaves both a fresh
/// segment and the full log. Recovery must apply each committed operation
/// exactly once (records at or below the segment's seqno are skipped).
#[test]
fn crash_between_segment_write_and_wal_truncation_double_applies_nothing() {
    let dir = TempDir::new("recovery-seg-race").unwrap();
    {
        let (ps, _) = SharedStore::open(dir.path(), docql::fixtures::ARTICLE_DTD, ROOTS).unwrap();
        run_script(&ps, SCRIPT);
        // The checkpoint's segment write, without the truncation.
        let image = ps.image().unwrap();
        snapshot::write_segment(dir.path(), &image).unwrap();
    }
    assert!(fs::metadata(dir.path().join(WAL_FILE)).unwrap().len() > 0);
    let (ps, report) = SharedStore::reopen(dir.path()).unwrap();
    assert_eq!(report.segment_seqno, Some(SCRIPT.len() as u64));
    assert_eq!(report.replayed_records, 0, "no record may apply twice");
    assert_eq!(
        answers(|q| ps.query(q)),
        answers(|q| reference_store(SCRIPT.len()).query(q))
    );
    let snap = ps.read();
    assert_eq!(snap.documents().len(), ingests_in(SCRIPT.len()));
    assert!(snap.check().is_empty());
}

fn letter_sgml(seed: u64) -> String {
    generate_letter(&LetterParams {
        seed,
        sender_first: Some(seed.is_multiple_of(2)),
        paras: 2,
    })
    .to_sgml()
}

#[test]
fn q6_letters_survive_kill_at_every_boundary() {
    let base = TempDir::new("recovery-letters").unwrap();
    const LETTERS: u64 = 8;
    {
        let (ps, _) = SharedStore::open(base.path(), docql::fixtures::LETTER_DTD, &[]).unwrap();
        for seed in 0..LETTERS {
            ps.ingest(&letter_sgml(seed)).unwrap();
        }
    }
    let wal = fs::read(base.join(WAL_FILE)).unwrap();
    let bounds = wal_boundaries(&wal);
    for (k, cut) in bounds.iter().enumerate() {
        let dir = TempDir::new("recovery-letters-kill").unwrap();
        clone_with_wal(base.path(), dir.path(), &wal[..*cut]);
        let (ps, report) = SharedStore::reopen(dir.path()).unwrap();
        assert_eq!(report.replayed_records, k);

        let mut oracle = DocStore::new(docql::fixtures::LETTER_DTD, &[]).unwrap();
        for seed in 0..k as u64 {
            oracle.ingest(&letter_sgml(seed)).unwrap();
        }
        // The k = 0 prefix has no letters at all, which both stores must
        // report identically (the `Letters` name does not exist yet).
        let render = |r: Result<QueryResult, StoreError>| match r {
            Ok(r) => rendered(&r),
            Err(e) => format!("error: {e}"),
        };
        assert_eq!(
            render(ps.query(Q6)),
            render(oracle.query(Q6)),
            "prefix {k}: Q6 diverges"
        );
        assert_eq!(ps.read().documents().len(), k);
    }
}

/// Seed-driven I/O fault sweep: arm `docql-guard`'s fault stream, write
/// until a fault fires (a simulated crash at that record boundary), then
/// reopen the directory. The recovered store must hold exactly the
/// committed prefix, and the crashed handle must refuse further writes.
#[test]
fn injected_io_fault_sweep_recovers_the_committed_prefix() {
    const MAX_WRITES: u64 = 32;
    let base = fault_base_seed();
    let mut faulted_cases = 0u64;

    for case in 0..FAULT_CASES {
        let seed = base.wrapping_add(case);
        let dir = TempDir::new("recovery-iofault").unwrap();
        let (ps, _) = SharedStore::open(dir.path(), docql::fixtures::ARTICLE_DTD, ROOTS).unwrap();
        ps.set_io_fault_seed(Some(seed));

        let mut committed = 0u64;
        let mut faulted = false;
        for i in 0..MAX_WRITES {
            let doc_seed = 1_000 + case * MAX_WRITES + i;
            match ps.ingest(&article_sgml(doc_seed)) {
                Ok(_) => committed += 1,
                Err(e) => {
                    assert!(
                        e.to_string().contains("wal"),
                        "case {case}: unexpected error class {e}"
                    );
                    faulted = true;
                    break;
                }
            }
        }
        // Readers on the crashed handle still see only the committed
        // prefix (the faulted transaction was aborted, not published) …
        assert_eq!(ps.read().documents().len(), committed as usize);
        if !faulted {
            continue; // this seed drew no fault within the cap
        }
        faulted_cases += 1;
        // … and the handle refuses to write until reopened.
        let again = ps.ingest(&article_sgml(9_999)).unwrap_err();
        assert!(
            again.to_string().contains("wal crashed"),
            "case {case}: crashed handle accepted a write: {again}"
        );
        assert!(
            ps.checkpoint().is_err(),
            "case {case}: crashed handle accepted a checkpoint"
        );
        drop(ps);

        let (ps, report) = SharedStore::reopen(dir.path()).unwrap();
        assert_eq!(
            report.replayed_records, committed as usize,
            "case {case}: recovery count"
        );
        assert!(
            report.truncated_bytes > 0,
            "case {case}: the damaged record must be on disk and truncated"
        );
        let snap = ps.read();
        assert_eq!(snap.documents().len(), committed as usize);
        assert!(snap.check().is_empty());

        let mut oracle = DocStore::new(docql::fixtures::ARTICLE_DTD, ROOTS).unwrap();
        for i in 0..committed {
            oracle
                .ingest(&article_sgml(1_000 + case * MAX_WRITES + i))
                .unwrap();
        }
        assert_eq!(
            answers(|q| ps.query(q)),
            answers(|q| oracle.query(q)),
            "case {case}: recovered state diverges from the committed prefix"
        );
        // The reopened store is fully writable again.
        ps.ingest(&article_sgml(50_000 + case)).unwrap();
        assert_eq!(ps.read().documents().len(), committed as usize + 1);
    }
    // ~12.5% fault chance per append, 32 appends per case: statistically
    // all 64 cases fault; require at least half so a generator tweak that
    // silently disarms injection cannot pass.
    assert!(
        faulted_cases >= FAULT_CASES / 2,
        "only {faulted_cases}/{FAULT_CASES} cases drew a fault — injection is disarmed"
    );
}

/// A write refused before it publishes leaves no log record: neither the
/// handle's log length nor a reopened store shows any part of it.
#[test]
fn rejected_durable_writes_leave_no_log_record() {
    let dir = TempDir::new("recovery-rejected").unwrap();
    let (ps, _) = SharedStore::open(dir.path(), docql::fixtures::ARTICLE_DTD, ROOTS).unwrap();
    let root = ps.ingest(&article_sgml(0)).unwrap();
    let logged = ps.wal_len_bytes();
    let expected = answers(|q| ps.query(q));
    let rejected = [
        (
            "a batch whose last document does not parse",
            vec![
                WalOp::Ingest {
                    sgml: article_sgml(1),
                },
                WalOp::Ingest {
                    sgml: "<article><title>unterminated".into(),
                },
            ],
        ),
        (
            "a bind to an unknown root",
            vec![WalOp::Bind {
                name: "no_such_root".into(),
                oid: root.0,
            }],
        ),
        (
            "a wrong-shape update",
            vec![WalOp::Update {
                oid: root.0,
                value: Value::str("x"),
            }],
        ),
    ];
    for (what, ops) in rejected {
        assert!(ps.apply(ops).0.is_err(), "{what} was accepted");
        assert_eq!(ps.wal_len_bytes(), logged, "{what} left a log record");
    }
    assert_eq!(ps.snapshot_version(), 1, "only the first ingest published");
    drop(ps);
    assert_eq!(fs::metadata(dir.join(WAL_FILE)).unwrap().len(), logged);

    let (ps, report) = SharedStore::reopen(dir.path()).unwrap();
    assert_eq!(report.replayed_records, 1);
    assert_eq!(report.truncated_bytes, 0);
    assert_eq!(ps.read().documents(), &[root]);
    assert_eq!(answers(|q| ps.query(q)), expected);
}

#[test]
fn batch_ingest_logs_one_record_per_document() {
    let dir = TempDir::new("recovery-batch").unwrap();
    let texts: Vec<String> = (0..4u64).map(article_sgml).collect();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    {
        let (ps, _) = SharedStore::open(dir.path(), docql::fixtures::ARTICLE_DTD, ROOTS).unwrap();
        ps.ingest_batch(&refs).unwrap();
    }
    let wal = fs::read(dir.join(WAL_FILE)).unwrap();
    let bounds = wal_boundaries(&wal);
    assert_eq!(bounds.len(), 5, "4 documents, 4 records");
    // Kill mid-batch: after two records, exactly two documents survive.
    let killed = TempDir::new("recovery-batch-kill").unwrap();
    clone_with_wal(dir.path(), killed.path(), &wal[..bounds[2]]);
    let (ps, report) = SharedStore::reopen(killed.path()).unwrap();
    assert_eq!(report.replayed_records, 2);
    assert_eq!(ps.read().documents().len(), 2);

    let mut oracle = DocStore::new(docql::fixtures::ARTICLE_DTD, ROOTS).unwrap();
    oracle.ingest_batch(&refs[..2]).unwrap();
    assert_eq!(answers(|q| ps.query(q)), answers(|q| oracle.query(q)));
}

#[test]
fn wal_and_checkpoint_metrics_are_recorded() {
    let dir = TempDir::new("recovery-metrics").unwrap();
    let (ps, _) = SharedStore::open(dir.path(), docql::fixtures::ARTICLE_DTD, ROOTS).unwrap();
    ps.read().set_metrics_enabled(true);
    ps.ingest(&article_sgml(0)).unwrap();
    ps.ingest(&article_sgml(1)).unwrap();
    let snap = ps.read().metrics_registry().snapshot();
    assert_eq!(snap.counter("docql_durable_wal_appends_total"), Some(2));
    assert!(snap.counter("docql_durable_wal_bytes_total").unwrap() > 0);
    ps.checkpoint().unwrap();
    let snap = ps.read().metrics_registry().snapshot();
    assert_eq!(snap.counter("docql_durable_checkpoints_total"), Some(1));
    assert!(snap.gauge("docql_durable_segment_bytes").unwrap() > 0);
    let prom = ps.read().metrics_registry().to_prometheus();
    assert!(prom.contains("docql_durable_wal_appends_total"), "{prom}");
    assert!(prom.contains("docql_durable_checkpoints_total"), "{prom}");
}

#[test]
fn previous_format_meta_is_read_and_rewritten_as_current() {
    let dir = TempDir::new("recovery-meta-v1").unwrap();
    {
        let (ps, _) = SharedStore::open(dir.path(), docql::fixtures::ARTICLE_DTD, ROOTS).unwrap();
        run_script(&ps, SCRIPT);
        ps.checkpoint().unwrap();
        ps.ingest(&article_sgml(6)).unwrap();
    }
    let mut oracle = reference_store(SCRIPT.len());
    oracle.ingest(&article_sgml(6)).unwrap();
    let expected = answers(|q| oracle.query(q));

    // Stamp each previous magic over the current one; the checksum covers
    // only the payload, so the file stays valid.
    let meta = dir.join(META_FILE);
    let stamp = |magic: &[u8; 8]| {
        let mut bytes = fs::read(&meta).unwrap();
        bytes[..8].copy_from_slice(magic);
        fs::write(&meta, &bytes).unwrap();
    };
    for magic in snapshot::OUTDATED_META_MAGICS {
        stamp(magic);
        let (ps, report) = SharedStore::reopen(dir.path()).unwrap();
        assert_eq!(report.segment_seqno, Some(SCRIPT.len() as u64));
        assert_eq!(answers(|q| ps.query(q)), expected);
        assert!(fs::read(&meta).unwrap().starts_with(b"DQMETA04"));
        drop(ps);

        stamp(magic);
        let (ps, _) = SharedStore::open(dir.path(), docql::fixtures::ARTICLE_DTD, ROOTS).unwrap();
        assert_eq!(answers(|q| ps.query(q)), expected);
        assert!(fs::read(&meta).unwrap().starts_with(b"DQMETA04"));
    }
}

/// Rewrite a segment file the way the previous format wrote it: its
/// sections plus section 6, every object's text as `(oid, text)` pairs in
/// oid order.
fn add_text_section(path: &Path, texts: &[Option<String>]) {
    let bytes = fs::read(path).unwrap();
    let payload = &bytes[20..];
    let mut r = Reader::new(payload);
    let n = r.count(20).unwrap();
    let mut sections: Vec<(u32, Vec<u8>)> = (0..n)
        .map(|_| {
            let id = r.u32().unwrap();
            let off = r.u64().unwrap() as usize;
            let len = r.u64().unwrap() as usize;
            (id, payload[off..off + len].to_vec())
        })
        .collect();
    let mut text = Writer::new();
    text.count(texts.iter().flatten().count());
    for (oid, t) in texts.iter().enumerate() {
        if let Some(t) = t {
            text.u32(oid as u32);
            text.str(t);
        }
    }
    sections.push((6, text.into_bytes()));

    let mut directory = Writer::new();
    directory.count(sections.len());
    let mut off = 4 + 20 * sections.len() as u64;
    for (id, body) in &sections {
        directory.u32(*id);
        directory.u64(off);
        directory.u64(body.len() as u64);
        off += body.len() as u64;
    }
    let mut payload = directory.into_bytes();
    for (_, body) in &sections {
        payload.extend_from_slice(body);
    }
    let mut file = bytes[..8].to_vec();
    file.extend_from_slice(&crc32(&payload).to_le_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(&payload);
    fs::write(path, file).unwrap();
}

#[test]
fn previous_format_segment_with_texts_loads_and_its_meta_is_rewritten() {
    let dir = TempDir::new("recovery-seg-v2").unwrap();
    let (segment, before) = {
        let (ps, _) = SharedStore::open(dir.path(), docql::fixtures::ARTICLE_DTD, ROOTS).unwrap();
        run_script(&ps, SCRIPT);
        let segment = ps.checkpoint().unwrap().path;
        ps.ingest(&article_sgml(6)).unwrap();
        (segment, texts(&ps.read()))
    };
    // The directory as the previous format left it: a `DQMETA02` meta and
    // a segment that carries every checkpointed object's text.
    let mut oracle = reference_store(SCRIPT.len());
    add_text_section(&segment, &texts(&oracle));
    let meta = dir.join(META_FILE);
    let mut bytes = fs::read(&meta).unwrap();
    bytes[..8].copy_from_slice(b"DQMETA02");
    fs::write(&meta, &bytes).unwrap();
    assert!(snapshot::read_segment(&segment).is_ok());

    let (ps, report) = SharedStore::reopen(dir.path()).unwrap();
    assert_eq!(report.segment_seqno, Some(SCRIPT.len() as u64));
    assert_eq!(report.segments_skipped, 0);
    assert_eq!(report.replayed_records, 1);
    oracle.ingest(&article_sgml(6)).unwrap();
    let snap = ps.read();
    assert_eq!(texts(&snap), before);
    assert_eq!(texts(&snap), texts(&oracle));
    assert_eq!(answers(|q| ps.query(q)), answers(|q| oracle.query(q)));
    assert_eq!(snap.index_stats(), oracle.index_stats());
    assert!(fs::read(&meta).unwrap().starts_with(b"DQMETA04"));
}

#[test]
fn reopening_with_a_different_schema_is_refused() {
    let dir = TempDir::new("recovery-schema").unwrap();
    {
        let (ps, _) = SharedStore::open(dir.path(), docql::fixtures::ARTICLE_DTD, ROOTS).unwrap();
        ps.ingest(&article_sgml(0)).unwrap();
    }
    let err =
        SharedStore::open(dir.path(), docql::fixtures::ARTICLE_DTD, &["my_article"]).unwrap_err();
    assert!(err.to_string().contains("different schema"), "got: {err}");
    let err = SharedStore::open(dir.path(), docql::fixtures::LETTER_DTD, ROOTS).unwrap_err();
    assert!(err.to_string().contains("different schema"), "got: {err}");
    // The matching schema still opens.
    let (ps, _) = SharedStore::open(dir.path(), docql::fixtures::ARTICLE_DTD, ROOTS).unwrap();
    assert_eq!(ps.read().documents().len(), 1);
}
