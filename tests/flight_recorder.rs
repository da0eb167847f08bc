//! The query flight recorder end to end:
//!
//! * tracing must be *inert* — enabling it may never change a query's
//!   result, on the paper's Q1–Q6 or on randomized path queries;
//! * a slow query's stored trace carries the full diagnostic record:
//!   trace id, per-phase timings, per-operator spans with estimated vs
//!   actual rows, plan-cache outcome, governance outcome, and the
//!   planner-statistics version;
//! * WAL appends/fsyncs and checkpoints that run *during* a query land as
//!   events inside that query's trace (and snapshot publications likewise);
//! * an 8-reader/1-writer stress run over a publishing [`SharedStore`]
//!   keeps pinned-snapshot results byte-identical and never tears a trace:
//!   every retained trace is internally consistent and fully formed;
//! * the recent ring evicts oldest-first at capacity while the slow
//!   reservoir retains its traces through bursts of fast queries;
//! * `EXPLAIN ANALYZE` is a trace with operator timing on: the filed
//!   trace, the report and the phase histograms agree on one record;
//! * every write, durable write and checkpoint files exactly one trace
//!   with its named spans, and the write-side histograms are views of it.

use docql::prelude::*;
use docql_prop::{check, element, just, one_of, prop_assert_eq, usize_in, vec_of, zip3, Gen};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;
use std::time::Duration;

mod util;
use util::{article_sgml, article_store, letter_store, rendered, ARTICLE_QUERIES, Q6};

/// Far enough above any real query that nothing counts as slow.
const NEVER_SLOW: Duration = Duration::from_secs(3600);

#[test]
fn tracing_is_inert_on_paper_queries() {
    let store = article_store(6);
    let letters = letter_store(10);
    for (store, queries) in [
        (&store, ARTICLE_QUERIES),
        (&letters, std::slice::from_ref(&Q6)),
    ] {
        for q in queries {
            store.set_tracing_enabled(false);
            let plain = store
                .query(q)
                .map(|r| rendered(&r))
                .map_err(|e| e.to_string());
            let plain_alg = store
                .query_algebraic(q)
                .map(|r| rendered(&r))
                .map_err(|e| e.to_string());
            store.set_tracing_enabled(true);
            let traced = store
                .query(q)
                .map(|r| rendered(&r))
                .map_err(|e| e.to_string());
            let traced_alg = store
                .query_algebraic(q)
                .map(|r| rendered(&r))
                .map_err(|e| e.to_string());
            store.set_tracing_enabled(false);
            assert_eq!(plain, traced, "tracing changed interpreter result: {q}");
            assert_eq!(
                plain_alg, traced_alg,
                "tracing changed algebraic result: {q}"
            );
        }
    }
    // Every traced run left a trace; untraced runs left none.
    assert_eq!(
        store.flight_recorder().recorded(),
        2 * ARTICLE_QUERIES.len() as u64,
        "one trace per traced article query"
    );
    assert_eq!(letters.flight_recorder().recorded(), 2);
    assert!(
        !store.query(ARTICLE_QUERIES[2]).unwrap().is_empty(),
        "agreement must not be vacuous"
    );
}

/// A random restricted-path query over the article schema's vocabulary —
/// valid and dead-end steps both included (mirrors the observability
/// suite's generator).
fn arb_path_query() -> Gen<String> {
    let root = element(vec!["Articles", "my_article"]);
    let step = one_of(vec![
        element(vec![
            ".title",
            ".sections",
            ".authors",
            ".abstract",
            ".body",
            ".subsectns",
            ".paras",
            ".contents",
            ".missing",
        ])
        .map(|s| s.to_string()),
        usize_in(0..3).map(|i| format!("[{i}]")),
        just("->".to_string()),
    ]);
    zip3(root, vec_of(step, 0..4), element(vec!["t", "u"])).map(|(root, steps, var)| {
        format!("select {var} from {root} PATH_p{}({var})", steps.concat())
    })
}

#[test]
fn tracing_is_inert_on_randomized_queries() {
    let store = article_store(3);
    check(
        "tracing_is_inert_on_randomized_queries",
        64,
        &arb_path_query(),
        |q| {
            store.set_tracing_enabled(false);
            let plain = store
                .query_algebraic(q)
                .map(|r| rendered(&r))
                .map_err(|e| e.to_string());
            store.set_tracing_enabled(true);
            let traced = store
                .query_algebraic(q)
                .map(|r| rendered(&r))
                .map_err(|e| e.to_string());
            store.set_tracing_enabled(false);
            prop_assert_eq!(&plain, &traced, "tracing changed result of: {q}");
            Ok(())
        },
    );
}

#[test]
fn slow_query_trace_carries_full_diagnostics() {
    let store = article_store(6);
    let q = ARTICLE_QUERIES[2]; // "select t from my_article PATH_p.title(t)"
    let expected_rows = store.query_algebraic(q).unwrap().rows.len() as u64;
    store.plan_cache().clear();
    store.set_tracing_enabled(true);
    store.set_metrics_enabled(true);
    let recorder = store.flight_recorder();
    recorder.set_slow_cutoff(Duration::ZERO); // everything is slow
    store.query_algebraic(q).unwrap();
    store.query_algebraic(q).unwrap();

    let recent = store.flight_recorder().recent();
    assert_eq!(recent.len(), 2);
    let (first, second) = (&recent[0], &recent[1]);

    // Identity and ordering.
    assert_ne!(first.id.0, second.id.0, "trace ids are unique");
    assert_eq!(first.query, q);
    assert!(
        first.start_ns <= second.start_ns,
        "recent ring is oldest-first"
    );

    // First run compiled the plan: every phase present, cache miss.
    assert_eq!(first.cache_hit, Some(false));
    for phase in ["parse", "translate", "algebraize", "execute"] {
        assert!(
            first.phase_ns(phase).is_some(),
            "first run is missing phase {phase}: {}",
            first.to_json()
        );
    }
    // Second run hit the cache: compilation phases skipped, execute kept.
    assert_eq!(second.cache_hit, Some(true));
    assert!(second.phase_ns("parse").is_none());
    assert!(second.phase_ns("execute").is_some());

    // Operator spans with estimated-vs-actual rows, on both runs (cached
    // executions still profile when traced).
    for t in [first, second] {
        assert!(
            !t.operators.is_empty(),
            "no operator spans: {}",
            t.to_json()
        );
        assert!(
            t.operators[0].depth == 0,
            "spans are pre-order from the root"
        );
        assert!(
            t.operators.iter().any(|o| o.est_rows.is_some()),
            "cost-based planning is on, expected estimates: {}",
            t.to_json()
        );
        // Governance, statistics, and outcome stamps.
        assert_eq!(t.outcome, "ok");
        assert_eq!(t.governance, "complete");
        assert_eq!(t.stats_version, Some(store.stats_version()));
        assert_eq!(t.snapshot_version, 0, "unpublished store is version 0");
        assert!(t.slow, "zero cutoff marks every query slow");
        assert_eq!(t.rows, expected_rows);
    }

    // Slow reservoir retained both, and the slow counter reads the same
    // flag; JSON renders one object per line.
    assert_eq!(store.flight_recorder().slow().len(), 2);
    let marked_slow = recent.iter().filter(|t| t.slow).count() as u64;
    assert_eq!(
        store
            .metrics_registry()
            .snapshot()
            .counter("docql_store_slow_queries_total"),
        Some(marked_slow),
        "the counter counts exactly the traces the recorder marks slow"
    );
    for t in store.flight_recorder().slow() {
        let json = t.to_json();
        assert!(json.starts_with("{\"trace_id\":\""), "{json}");
        assert!(json.ends_with('}'), "{json}");
        assert!(!json.contains('\n'), "one line per trace");
    }
    let all = store.flight_recorder().to_json();
    assert!(all.starts_with("{\"recent\":["), "{all}");
}

#[test]
fn governed_and_failing_queries_land_in_the_error_reservoir() {
    let store = article_store(4);
    store.set_tracing_enabled(true);
    store.set_metrics_enabled(true);
    store.flight_recorder().set_slow_cutoff(NEVER_SLOW);

    // A parse error: outcome "error", retained despite being fast.
    let _ = store.query("select nonsense from").unwrap_err();
    // A strict zero-fuel budget: interrupted, outcome "error".
    let limits = QueryLimits::none().with_path_fuel(1);
    let _ = store
        .query_traced(ARTICLE_QUERIES[1], Mode::Interpret, &limits)
        .0;
    // A plain fast success: not retained in the reservoir.
    store.query(ARTICLE_QUERIES[2]).unwrap();

    let slow = store.flight_recorder().slow();
    assert!(
        slow.iter()
            .any(|t| t.outcome == "error" && t.detail.is_some()),
        "parse failure must be retained with its message"
    );
    assert!(
        slow.iter().all(|t| t.outcome != "ok" || t.slow),
        "fast successes never reach the reservoir"
    );
    assert_eq!(
        store.flight_recorder().recent().len(),
        3,
        "recent ring holds all three"
    );
    assert_eq!(
        store.metrics().slow_queries.get(),
        0,
        "error traces in the reservoir are not slow queries"
    );
}

#[test]
fn wal_checkpoint_and_publish_events_land_inside_an_overlapping_trace() {
    let dir = docql::durable::TempDir::new("docql-flight-recorder").unwrap();
    let (store, _) =
        SharedStore::open(dir.path(), docql::fixtures::ARTICLE_DTD, &["my_article"]).unwrap();
    store.read().set_tracing_enabled(true);
    let recorder = store.read().flight_recorder().clone();
    recorder.set_slow_cutoff(Duration::ZERO);
    store.ingest(&article_sgml(0)).unwrap();

    // Deterministic overlap: open a trace window by hand, run a durable
    // write and a checkpoint inside it, and verify the recorder merges
    // their events into the finished trace (exactly what a concurrent
    // query's window picks up).
    let tb = recorder.begin("synthetic window");
    store.ingest(&article_sgml(1)).unwrap();
    store.checkpoint().unwrap();
    let total = tb.elapsed();
    let trace = recorder.record(tb.finish("ok", "complete", None, 0, total));
    for kind in ["wal_append", "wal_fsync", "checkpoint", "snapshot_publish"] {
        assert!(
            trace.has_event(kind),
            "missing {kind} in: {}",
            trace.to_json()
        );
    }
    let mut last = 0;
    for e in &trace.events {
        assert!(e.at_ns >= last, "events are time-ordered");
        last = e.at_ns;
    }

    // And end-to-end through the serving path: a writer publishes
    // continuously (ingest + periodic checkpoint) while a reader queries.
    // Durable events are dense on the shared timeline, so some query
    // window overlaps one within a handful of attempts.
    let q = ARTICLE_QUERIES[1]; // text(ss) contains — scans every document
    let writer_done = AtomicBool::new(false);
    let mut seen = false;
    thread::scope(|s| {
        let done = &writer_done;
        let writer = &store;
        s.spawn(move || {
            for seed in 100..160u64 {
                writer.ingest(&article_sgml(seed)).unwrap();
                if seed % 8 == 0 {
                    writer.checkpoint().unwrap();
                }
            }
            done.store(true, Ordering::Release);
        });
        while !writer_done.load(Ordering::Acquire) {
            // The query's own trace: write traces share the ring.
            let (_, t) = store.query_traced(q, Mode::Interpret, &QueryLimits::none());
            let t = t.expect("query traced");
            if t.has_event("wal_append") || t.has_event("checkpoint") {
                assert!(
                    t.events
                        .iter()
                        .all(|e| e.at_ns >= t.start_ns && e.at_ns <= t.start_ns + t.total_ns),
                    "merged events stay inside the trace window"
                );
                seen = true;
                break;
            }
        }
    });
    assert!(seen, "no query window ever overlapped a durable write");
}

const READERS: usize = 8;
const ROUNDS: usize = 6;

#[test]
fn eight_readers_one_writer_never_tear_results_or_traces() {
    let shared = SharedStore::new(article_store(6));
    // Reference answers from the pre-publication snapshot, untraced.
    let reference: Vec<String> = ARTICLE_QUERIES
        .iter()
        .map(|q| rendered(&shared.query_algebraic(q).unwrap()))
        .collect();
    shared.set_tracing_enabled(true);
    shared.read().flight_recorder().set_slow_cutoff(NEVER_SLOW);
    let pinned = shared.read(); // version 0, held across all publications
    let served = AtomicUsize::new(0);
    let writer_done = AtomicBool::new(false);

    thread::scope(|s| {
        let writer = shared.clone();
        let done = &writer_done;
        s.spawn(move || {
            for seed in 200..208u64 {
                writer.ingest(&article_sgml(seed)).unwrap();
            }
            done.store(true, Ordering::Release);
        });
        for reader in 0..READERS {
            let shared = shared.clone();
            let pinned = &pinned;
            let reference = &reference;
            let served = &served;
            let done = &writer_done;
            s.spawn(move || {
                let mut rounds = 0usize;
                while rounds < ROUNDS || !done.load(Ordering::Acquire) {
                    for (i, q) in ARTICLE_QUERIES.iter().enumerate() {
                        if reader % 2 == 0 {
                            // Even readers hold the pre-publication pin:
                            // traced results must stay byte-identical to
                            // the untraced reference throughout.
                            assert_eq!(
                                rendered(&pinned.query_algebraic(q).unwrap()),
                                reference[i],
                                "reader {reader}: traced pinned result diverged on {q}"
                            );
                        } else {
                            // Odd readers pin fresh snapshots mid-publication:
                            // back-to-back runs on one pin must agree.
                            let snap = shared.read();
                            assert_eq!(
                                rendered(&snap.query_algebraic(q).unwrap()),
                                rendered(&snap.query_algebraic(q).unwrap()),
                                "reader {reader}: same-pin runs diverged on {q}"
                            );
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    rounds += 1;
                }
            });
        }
    });

    let recorder = shared.read().flight_recorder().clone();
    // Accounting: every traced query left exactly one trace (the reference
    // pass ran before tracing was enabled), each of the 8 ingests one write
    // trace, and the ring never overfills.
    assert_eq!(
        recorder.recorded(),
        served.load(Ordering::Relaxed) as u64 + 8,
        "one trace per served query and per write, none lost, none duplicated"
    );
    assert!(recorder.len() <= recorder.capacity());

    // No trace is torn: every retained trace is fully formed and stamped
    // with a snapshot version that actually existed when it ran.
    let final_version = shared.snapshot_version();
    assert_eq!(final_version, 8, "one publication per ingest");
    let mut ids = BTreeSet::new();
    for t in recorder.recent() {
        assert!(ids.insert(t.id.0), "duplicate trace id {}", t.id);
        assert!(t.snapshot_version <= final_version);
        assert_eq!(t.outcome, "ok", "stress queries all succeed: {}", t.query);
        if t.query == "ingest 1 document" {
            assert_eq!(span_names(&t), INGEST_SPANS, "{}", t.to_json());
            assert!(t.snapshot_version >= 1, "a write trace names its version");
            continue;
        }
        assert!(!t.operators.is_empty(), "algebraic trace without op spans");
        assert!(
            t.phase_ns("execute").is_some(),
            "trace missing execute span"
        );
        assert!(
            ARTICLE_QUERIES.contains(&t.query.as_str()),
            "foreign query text in ring: {}",
            t.query
        );
        let json = t.to_json();
        assert!(json.starts_with("{\"trace_id\":\"") && json.ends_with('}'));
    }
    // Publications were observed on the shared timeline.
    assert!(
        recorder.events_recorded() >= 8,
        "each publication reports a snapshot_publish event"
    );
}

#[test]
fn recent_ring_evicts_oldest_while_slow_reservoir_retains() {
    let store = article_store(2);
    store.set_tracing_enabled(true);
    let recorder = store.flight_recorder();
    let capacity = recorder.capacity();

    // One marked-slow query first…
    recorder.set_slow_cutoff(Duration::ZERO);
    let marker = ARTICLE_QUERIES[3]; // the PATH_p difference query
    store.query_algebraic(marker).unwrap();
    assert_eq!(store.flight_recorder().slow().len(), 1);

    // …then a burst of fast queries large enough to lap the recent ring.
    recorder.set_slow_cutoff(NEVER_SLOW);
    let fast = ARTICLE_QUERIES[2];
    for _ in 0..capacity + 1 {
        store.query_algebraic(fast).unwrap();
    }

    assert_eq!(recorder.recorded(), capacity as u64 + 2);
    assert_eq!(recorder.len(), capacity, "ring holds exactly its capacity");
    let recent = store.flight_recorder().recent();
    assert!(
        recent.iter().all(|t| t.query == fast),
        "the slow marker was evicted from the recent ring"
    );
    let slow = store.flight_recorder().slow();
    assert_eq!(slow.len(), 1, "fast queries never displace the reservoir");
    assert_eq!(
        slow[0].query, marker,
        "the reservoir still holds the outlier"
    );
    assert!(slow[0].slow);
}

/// The report's timing line for `phase` (`  parse      12.3µs`).
fn report_line<'r>(report: &'r str, phase: &str) -> Option<&'r str> {
    report.lines().find_map(|l| {
        let mut words = l.split_whitespace();
        (words.next() == Some(phase))
            .then(|| words.next())
            .flatten()
    })
}

#[test]
fn explain_analyze_trace_is_the_report_and_feeds_the_histograms() {
    let store = article_store(6);
    store.set_tracing_enabled(true);
    store.set_metrics_enabled(true);
    let q = format!("explain analyze {}", ARTICLE_QUERIES[2]);
    let (result, trace) = store.query_traced(&q, Mode::Algebraic, &QueryLimits::none());
    let report = match &result.unwrap().rows[0][0] {
        CalcValue::Data(Value::Str(report)) => report.to_string(),
        other => panic!("expected a string report, got {other:?}"),
    };
    let trace = trace.expect("the recorder is on");
    for phase in ["parse", "translate", "algebraize", "execute"] {
        let ns = trace
            .phase_ns(phase)
            .unwrap_or_else(|| panic!("trace lacks {phase}: {}", trace.to_json()));
        assert_eq!(
            report_line(&report, phase),
            Some(format!("{:?}", Duration::from_nanos(ns)).as_str()),
            "{phase} differs between trace and report:\n{report}"
        );
    }
    assert!(!trace.operators.is_empty(), "{}", trace.to_json());
    assert!(
        trace.operators[0].ns > 0,
        "operator spans are timed: {}",
        trace.to_json()
    );
    let snap = store.metrics_registry().snapshot();
    for phase in ["parse", "translate", "algebraize", "execute"] {
        let name = format!("docql_query_{phase}_ns");
        assert_eq!(
            snap.histogram(&name).map(|h| h.count),
            Some(1),
            "{name} counts the query once"
        );
    }
}

/// The span names of a trace, in order.
fn span_names(t: &QueryTrace) -> Vec<&'static str> {
    t.phases.iter().map(|p| p.name).collect()
}

/// The spans of a one-document in-memory ingest.
const INGEST_SPANS: [&str; 6] = [
    "fork",
    "sgml_parse",
    "load",
    "text_index",
    "extent_index",
    "snapshot_publish",
];

/// The one trace `recorder` filed since it had filed `before`.
fn only_trace_since(recorder: &FlightRecorder, before: u64) -> std::sync::Arc<QueryTrace> {
    assert_eq!(recorder.recorded(), before + 1, "exactly one trace filed");
    recorder.recent().pop().expect("a retained trace")
}

/// The trace's spans sum to no more than its wall time.
fn assert_spans_fit(t: &QueryTrace) {
    let spans: u64 = t.phases.iter().map(|p| p.ns).sum();
    assert!(
        spans <= t.total_ns,
        "spans exceed the total: {}",
        t.to_json()
    );
}

#[test]
fn writes_and_checkpoints_each_file_one_trace_of_named_spans() {
    // An in-memory ingest: one write, one trace.
    let shared = SharedStore::new(article_store(2));
    shared.set_tracing_enabled(true);
    shared.set_metrics_enabled(true);
    let recorder = shared.read().flight_recorder().clone();
    let before = recorder.recorded();
    shared.ingest(&article_sgml(10)).unwrap();
    let t = only_trace_since(&recorder, before);
    assert_eq!(t.query, "ingest 1 document");
    assert_eq!(t.outcome, "ok");
    assert_eq!(span_names(&t), INGEST_SPANS, "{}", t.to_json());
    assert_eq!(t.snapshot_version, 1, "the version the write published");
    assert_spans_fit(&t);

    // A failed write files its trace as an error and publishes nothing.
    let before = recorder.recorded();
    assert!(shared.ingest("<article><title>unterminated").is_err());
    let t = only_trace_since(&recorder, before);
    assert_eq!(t.outcome, "error");
    assert!(t.detail.is_some());
    assert_eq!(span_names(&t), ["fork", "sgml_parse"]);
    assert_eq!(shared.snapshot_version(), 1);

    // A durable ingest of two documents: one trace, a WAL record each.
    let dir = docql::durable::TempDir::new("docql-write-traces").unwrap();
    let (ps, _) =
        SharedStore::open(dir.path(), docql::fixtures::ARTICLE_DTD, &["my_article"]).unwrap();
    ps.read().set_tracing_enabled(true);
    let recorder = ps.read().flight_recorder().clone();
    let before = recorder.recorded();
    let (a, b) = (article_sgml(0), article_sgml(1));
    ps.ingest_batch(&[&a, &b]).unwrap();
    let t = only_trace_since(&recorder, before);
    assert_eq!(t.query, "ingest 2 documents");
    #[rustfmt::skip]
    let expected = [
        "fork", "sgml_parse",
        "load", "text_index", "extent_index", // per document
        "load", "text_index", "extent_index",
        "wal_append", "wal_fsync", // per WAL record
        "wal_append", "wal_fsync",
        "snapshot_publish",
    ];
    assert_eq!(span_names(&t), expected, "{}", t.to_json());
    assert_spans_fit(&t);

    // A checkpoint: one trace of its own.
    let before = recorder.recorded();
    ps.checkpoint().unwrap();
    let t = only_trace_since(&recorder, before);
    assert_eq!(t.query, "checkpoint");
    assert_eq!(
        span_names(&t),
        ["segment_write", "wal_truncate", "segment_gc"],
        "{}",
        t.to_json()
    );
    assert_spans_fit(&t);
}

#[test]
fn write_histograms_count_once_per_document_record_and_checkpoint() {
    let dir = docql::durable::TempDir::new("docql-write-histograms").unwrap();
    let (ps, _) =
        SharedStore::open(dir.path(), docql::fixtures::ARTICLE_DTD, &["my_article"]).unwrap();
    // Tracing on as well, so write traces are filed while they feed the
    // histograms; each must be counted once either way.
    ps.read().set_metrics_enabled(true);
    ps.read().set_tracing_enabled(true);
    let texts: Vec<String> = (0..3).map(article_sgml).collect();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    ps.ingest_batch(&refs).unwrap();
    let root = ps.ingest(&article_sgml(3)).unwrap();
    ps.bind("my_article", root).unwrap();
    ps.checkpoint().unwrap();
    ps.checkpoint().unwrap();

    let snap = ps.read().metrics_registry().snapshot();
    let count = |name: &str| snap.histogram(name).map(|h| h.count);
    assert_eq!(count("docql_store_ingest_ns"), Some(4), "once per document");
    assert_eq!(count("docql_store_extent_build_ns"), Some(4));
    assert_eq!(snap.counter("docql_store_docs_ingested_total"), Some(4));
    assert_eq!(
        count("docql_durable_wal_append_ns"),
        Some(5),
        "once per record"
    );
    assert_eq!(
        count("docql_durable_wal_fsync_ns"),
        Some(5),
        "once per record"
    );
    assert_eq!(snap.counter("docql_durable_wal_appends_total"), Some(5));
    assert_eq!(
        count("docql_durable_checkpoint_ns"),
        Some(2),
        "once per checkpoint"
    );
    assert_eq!(snap.counter("docql_durable_checkpoints_total"), Some(2));
    assert_eq!(
        snap.counter("docql_store_snapshots_published_total"),
        Some(3),
        "one publication per write"
    );
}
