//! The traced run: the per-layer metrics.
//!
//! It serves the workload once over HTTP with a span around every request,
//! then replays the same operations in process, timing calls into each
//! crate's public functions from here. Nothing inside the program is
//! instrumented for it.

use crate::client::{encode_request, Client};
use crate::corpus::{Corpus, QUERIES, ROOTS};
use crate::e2e::{self, Ctx};
use crate::spans::{self_times, Recorder};
use crate::spawn::fresh_dir;
use crate::stats::{median, percentile_of, Report};
use crate::workload::{check_query, Expected, Tally};
use docql_durable::{Wal, WalOp};
use docql_guard::QueryLimits;
use docql_o2sql::{Mode, QueryResult};
use docql_serve::{read_request, ChunkedWriter, ParseLimits};
use docql_sgml::fixtures::ARTICLE_DTD;
use docql_store::{PersistentStore, SharedStore};
use std::io::{self, Write};

/// Repetitions of each timed in-process call; its metric is their median.
const REPS: usize = 31;

/// HTTP round trips per query for `serve.wire_us`.
const WIRE_REPS: usize = 41;

/// Timed forks at each corpus size.
const FORK_REPS: usize = 15;

/// WAL appends timed for `durable.wal_append_us`.
const WAL_REPS: usize = 64;

/// Checkpoints and reopens timed.
const DURABLE_REPS: usize = 3;

/// A sink that counts the `write` calls made into it.
#[derive(Debug, Default)]
pub struct CountingWriter {
    /// `write` calls.
    pub writes: usize,
    /// Bytes written.
    pub bytes: usize,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Write `result` the way the server streams a `/query` answer: the
/// chunked head, the table header, one chunk per row, then the trailers.
pub fn render_response(result: &QueryResult, w: &mut impl Write) -> io::Result<()> {
    let rows = result.rendered_rows();
    // The server echoes a 16-hex-digit trace id; any id has the same size.
    let headers = [("X-Docql-Trace-Id", format!("{:016x}", 0))];
    let mut cw = ChunkedWriter::begin(w, 200, &headers, &["X-Docql-Rows", "X-Docql-Partial"])?;
    cw.chunk(result.table_header().as_bytes())?;
    for row in &rows {
        cw.chunk(format!("{row}\n").as_bytes())?;
    }
    cw.finish(&[
        ("X-Docql-Rows", rows.len().to_string()),
        ("X-Docql-Partial", "none".to_string()),
    ])
}

fn io_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// The traced run.
pub fn run(ctx: &Ctx, corpus: &Corpus, seed: u64, tally: &mut Tally) -> io::Result<Report> {
    let mut rec = Recorder::default();
    let mut report = Report::default();
    let (reference, oids) = corpus.reference_store();
    let expected = Expected::from_store(&reference);
    e2e::print_rows(&expected);

    let served = e2e::set_up(ctx, corpus, &oids, "traced", tally)?;

    // The store the in-process replays run on: built like the server's and
    // configured as the server configures it.
    let shared = SharedStore::new(reference);
    shared.set_metrics_enabled(true);
    shared.set_tracing_enabled(true);

    // The wire share of each query, while the server still holds exactly
    // the set-up corpus: HTTP round trips, each paired with the same query
    // in process right after it.
    let none = QueryLimits::none();
    let mut wire_us = Vec::new();
    let mut client = Client::new(served.proc.addr);
    for (q, (_, text)) in QUERIES.iter().enumerate() {
        let mut diffs = Vec::with_capacity(WIRE_REPS);
        for _ in 0..WIRE_REPS {
            let req = rec.request();
            let (resp, http) = rec.time("http.query", None, req, || {
                client.post("/query", text.as_bytes())
            });
            let ((local, _), us) = rec.time("store.query_paired", None, req, || {
                shared.query_traced(text, Mode::Interpret, &none)
            });
            local.map_err(io_err)?;
            if tally.record(check_query(resp, q, &expected)) {
                diffs.push(http - us);
            }
        }
        wire_us.push(median(&diffs));
    }
    client.close();

    // One round of the workload with a span per request.
    let share = ctx.seconds / e2e::ROUNDS as f64;
    let phase = e2e::measure(
        ctx,
        &served,
        share,
        corpus,
        &expected,
        tally,
        Some(&mut rec),
    );
    let reconnects = phase.reconnects + client.rotations + client.reconnects;
    let dir = served.dir.clone();
    e2e::shut_down(served, tally);
    if let Some(dir) = dir {
        std::fs::remove_dir_all(dir)?;
    }
    report.add(
        "traced.query_p50_us",
        percentile_of(&phase.query_us, 50.0),
        "us",
        phase.query_us.len(),
    );
    report.add(
        "traced.query_rps",
        phase.query_us.len() as f64 / phase.wall_s,
        "1/s",
        phase.query_us.len(),
    );
    report.add("serve.reconnects", reconnects as f64, "count", 1);

    queries(&shared, &mut rec, &mut report, &wire_us)?;
    ingest_layers(corpus, &shared, &mut rec, &mut report)?;
    durable_layers(ctx, corpus, &mut rec, &mut report)?;

    let path = ctx
        .work
        .join(format!("trace-{}-{seed}.jsonl", ctx.workload.name()));
    std::fs::write(&path, rec.to_json_lines())?;
    println!("spans: {} written to {}", rec.spans().len(), path.display());
    println!("self time per span (mean us): name count total self");
    for (name, (n, total, own)) in self_times(rec.spans()) {
        println!(
            "  {name:<22} {n:>6} {:>12.2} {:>12.2}",
            total / n as f64,
            own / n as f64
        );
    }
    Ok(report)
}

/// Per-query layers: serve parse/render/wire, store, o2sql, calculus,
/// algebra and obs.
fn queries(
    shared: &SharedStore,
    rec: &mut Recorder,
    report: &mut Report,
    wire_us: &[f64],
) -> io::Result<()> {
    let none = QueryLimits::none();
    let limits = ParseLimits::default();
    let cache0 = shared.read().plan_cache_stats();
    let mut parse_us = Vec::new();
    for (q, (name, text)) in QUERIES.iter().enumerate() {
        let wire = encode_request("POST", "/query", text.as_bytes(), false);
        let mut store_on = Vec::with_capacity(REPS);
        let mut trace_cost = Vec::with_capacity(REPS);
        let mut render = Vec::with_capacity(REPS);
        let mut writes = 0;
        for _ in 0..REPS {
            // One replayed request: parse → query (recorder on) → render.
            let req = rec.request();
            let root = rec.begin("request", None, req);
            let (parsed, us) = rec.time("serve.parse", Some(root), req, || {
                read_request(&mut io::Cursor::new(&wire), &limits)
            });
            parsed.map_err(|e| io_err(e.message()))?;
            parse_us.push(us);
            let ((result, _trace), us) = rec.time("store.query", Some(root), req, || {
                shared.query_traced(text, Mode::Interpret, &none)
            });
            let result = result.map_err(io_err)?;
            store_on.push(us);
            let mut sink = CountingWriter::default();
            let (out, us) = rec.time("serve.render", Some(root), req, || {
                render_response(&result, &mut sink)
            });
            out?;
            render.push(us);
            writes = sink.writes;
            rec.end(root);
            // The same query with the flight recorder off.
            shared.set_tracing_enabled(false);
            let ((result, _), us) = rec.time("store.query_untraced", None, req, || {
                shared.query_traced(text, Mode::Interpret, &none)
            });
            shared.set_tracing_enabled(true);
            result.map_err(io_err)?;
            trace_cost.push(store_on[store_on.len() - 1] - us);
        }
        let store_us = median(&store_on);
        report.add(format!("store.query_us.{name}"), store_us, "us", REPS);
        report.add(format!("serve.wire_us.{name}"), wire_us[q], "us", WIRE_REPS);
        report.add(
            format!("serve.render_us.{name}"),
            median(&render),
            "us",
            REPS,
        );
        report.add(
            format!("serve.writes_per_response.{name}"),
            writes as f64,
            "count",
            1,
        );
        report.add(
            format!("obs.trace_us.{name}"),
            median(&trace_cost),
            "us",
            REPS,
        );

        // The engine alone, on the cached plan, in each mode.
        let snap = shared.read();
        let mut engine = snap.engine();
        let mut compile = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let req = rec.request();
            let (plan, us) = rec.time("o2sql.compile", None, req, || engine.compile_plan(text));
            plan.map_err(io_err)?;
            compile.push(us);
        }
        let plan = engine.compile_plan(text).map_err(io_err)?;
        for (mode, layer) in [
            (Mode::Interpret, "calculus.eval"),
            (Mode::Algebraic, "algebra.eval"),
        ] {
            engine.mode = mode;
            engine.eval_plan(&plan).map_err(io_err)?; // algebraize once
            let mut eval = Vec::with_capacity(REPS);
            for _ in 0..REPS {
                let req = rec.request();
                let (r, us) = rec.time(layer, None, req, || engine.eval_plan(&plan));
                r.map_err(io_err)?;
                eval.push(us);
            }
            let metric = if mode == Mode::Interpret {
                "calculus.eval_us"
            } else {
                "algebra.eval_us"
            };
            report.add(format!("{metric}.{name}"), median(&eval), "us", REPS);
        }
        report.add(
            format!("o2sql.compile_us.{name}"),
            median(&compile),
            "us",
            REPS,
        );
        if *name == "q5" {
            let (plans, _) = plan
                .algebra_plans(snap.instance().schema(), Some(&*snap))
                .map_err(io_err)?;
            let ops: usize = plans.iter().map(|a| a.plan.size()).sum();
            report.add("algebra.plan_ops.q5", ops as f64, "count", 1);
        }
    }
    let cache1 = shared.read().plan_cache_stats();
    let hits = cache1.hits - cache0.hits;
    let misses = cache1.misses - cache0.misses;
    report.add(
        "o2sql.plan_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "1",
        (hits + misses) as usize,
    );
    report.add("serve.parse_us", median(&parse_us), "us", parse_us.len());
    Ok(())
}

/// The ingest path: parse, load and extent indexing on a standalone
/// instance, then whole ingests and forks on the shared store.
fn ingest_layers(
    corpus: &Corpus,
    shared: &SharedStore,
    rec: &mut Recorder,
    report: &mut Report,
) -> io::Result<()> {
    let dtd = docql_sgml::Dtd::parse(ARTICLE_DTD).map_err(io_err)?;
    let mapping = docql_mapping::map_dtd_with(&dtd, &ROOTS).map_err(io_err)?;
    let mut instance = docql_model::Instance::new(mapping.schema.clone());
    let mut extents =
        docql_paths::PathExtentIndex::for_collection_root(&mapping.schema, mapping.root);
    let (mut parse, mut load, mut index) = (Vec::new(), Vec::new(), Vec::new());
    for sgml in &corpus.setup_docs {
        let req = rec.request();
        let root = rec.begin("ingest", None, req);
        let (doc, us) = rec.time("sgml.parse", Some(root), req, || {
            docql_sgml::DocParser::new(&dtd).and_then(|p| p.parse(sgml))
        });
        let doc = doc.map_err(io_err)?;
        parse.push(us);
        let (loaded, us) = rec.time("mapping.load", Some(root), req, || {
            docql_mapping::load_document(&mapping, &mut instance, &doc)
        });
        let loaded = loaded.map_err(io_err)?;
        load.push(us);
        let ((), us) = rec.time("paths.extent_index", Some(root), req, || {
            extents.index_document(&instance, loaded.root)
        });
        index.push(us);
        rec.end(root);
    }
    let n = corpus.setup_docs.len();
    report.add("sgml.parse_us", median(&parse), "us", n);
    report.add("mapping.load_us", median(&load), "us", n);
    report.add("paths.extent_index_us", median(&index), "us", n);

    let forks = |rec: &mut Recorder| {
        let snap = shared.read();
        let v: Vec<f64> = (0..FORK_REPS)
            .map(|_| {
                let req = rec.request();
                let (fork, us) = rec.time("store.fork", None, req, || snap.fork());
                drop(fork);
                us
            })
            .collect();
        median(&v)
    };
    let start = forks(rec);
    report.add("store.fork_us.start", start, "us", FORK_REPS);
    let mut ingest = Vec::with_capacity(corpus.fresh_docs.len());
    for sgml in &corpus.fresh_docs {
        let req = rec.request();
        let (oid, us) = rec.time("store.ingest", None, req, || shared.ingest(sgml));
        oid.map_err(io_err)?;
        ingest.push(us);
    }
    let end = forks(rec);
    report.add("store.fork_us.end", end, "us", FORK_REPS);
    report.add("store.ingest_us", median(&ingest), "us", ingest.len());
    Ok(())
}

/// The durable layer: WAL appends, and checkpoint and reopen of a store
/// holding what `ingest_mix` leaves behind.
fn durable_layers(
    ctx: &Ctx,
    corpus: &Corpus,
    rec: &mut Recorder,
    report: &mut Report,
) -> io::Result<()> {
    let dir = fresh_dir(&ctx.work, "traced-durable")?;
    {
        let (mut wal, _) = Wal::open(&dir.join("probe.wal"))?;
        let mut append = Vec::with_capacity(WAL_REPS);
        for sgml in corpus.setup_docs.iter().cycle().take(WAL_REPS) {
            let req = rec.request();
            let op = WalOp::Ingest { sgml: sgml.clone() };
            let (r, us) = rec.time("durable.wal_append", None, req, || wal.append(op));
            r.map_err(io_err)?;
            append.push(us);
        }
        report.add("durable.wal_append_us", median(&append), "us", WAL_REPS);
    }

    let store_dir = dir.join("store");
    let docs: Vec<&str> = corpus
        .setup_docs
        .iter()
        .chain(&corpus.fresh_docs)
        .map(String::as_str)
        .collect();
    let doc_bytes: usize = docs.iter().map(|d| d.len()).sum();
    {
        let (ps, _) = PersistentStore::open(&store_dir, ARTICLE_DTD, &ROOTS).map_err(io_err)?;
        let oids = ps.ingest_batch(&docs).map_err(io_err)?;
        ps.bind("my_article", oids[corpus.my_article])
            .map_err(io_err)?;
        ps.bind("my_old_article", oids[corpus.my_old_article])
            .map_err(io_err)?;
        report.add(
            "durable.wal_bytes_per_doc_byte",
            ps.wal_len_bytes() as f64 / doc_bytes as f64,
            "1",
            docs.len(),
        );
        let mut ckpt = Vec::new();
        let mut segment_bytes = 0;
        for _ in 0..DURABLE_REPS {
            let req = rec.request();
            let (r, us) = rec.time("durable.checkpoint", None, req, || ps.checkpoint());
            segment_bytes = r.map_err(io_err)?.bytes;
            ckpt.push(us / 1e3);
        }
        report.add("durable.checkpoint_ms", median(&ckpt), "ms", DURABLE_REPS);
        report.add(
            "durable.segment_bytes_per_doc_byte",
            segment_bytes as f64 / doc_bytes as f64,
            "1",
            1,
        );
    }
    let mut reopen = Vec::new();
    for _ in 0..DURABLE_REPS {
        let req = rec.request();
        let (r, us) = rec.time("durable.reopen", None, req, || {
            PersistentStore::reopen(&store_dir)
        });
        let (ps, _) = r.map_err(io_err)?;
        if ps.read().documents().len() != docs.len() {
            return Err(io_err("reopened store lost documents"));
        }
        reopen.push(us / 1e3);
    }
    report.add("durable.reopen_ms", median(&reopen), "ms", DURABLE_REPS);
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_writer_counts_calls_and_bytes() {
        let mut w = CountingWriter::default();
        w.write_all(b"abc").expect("write");
        w.write_all(b"").expect("write");
        w.write_all(b"de").expect("write");
        w.flush().expect("flush");
        assert_eq!((w.writes, w.bytes), (2, 5));
    }

    #[test]
    fn rendered_response_decodes_to_the_table() {
        let store = docql_store::paper_store().expect("paper store");
        let result = store
            .query("select t from my_article PATH_p.title(t)")
            .expect("q3");
        let mut wire = Vec::new();
        render_response(&result, &mut wire).expect("render");
        let mut counted = CountingWriter::default();
        render_response(&result, &mut counted).expect("render");
        assert_eq!(counted.bytes, wire.len());
        // The count repeats exactly and grows with the rows.
        let mut again = CountingWriter::default();
        render_response(&result, &mut again).expect("render");
        assert_eq!(again.writes, counted.writes);
        assert!(counted.writes > result.len());
        let resp = crate::client::read_response(&mut io::Cursor::new(wire)).expect("decode");
        assert_eq!(resp.body, result.to_table().into_bytes());
        assert_eq!(
            resp.field("X-Docql-Rows"),
            Some(result.len().to_string().as_str())
        );
    }
}
