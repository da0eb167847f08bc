//! B12 — mixed read/write serving: snapshot pins versus a global lock.
//!
//! The question EXPERIMENTS.md §B12 answers: what happens to cached-query
//! serving when a writer ingests a continuous document stream? Two serving
//! disciplines over the same store are compared:
//!
//! * `rwlock` — the pre-MVCC baseline, reproduced locally: one
//!   `RwLock<DocStore>`; every query holds the read lock, every write
//!   transaction holds the write lock for its full parse→index→extent
//!   duration.
//! * `snapshot` — [`SharedStore`]: readers pin an immutable version with
//!   one `Arc` clone and run lock-free; the writer forks the next version
//!   aside and publishes it with an atomic swap.
//!
//! Each discipline is measured read-only and then with a fixed-cadence
//! writer (a batch of documents every period — a sustained ingest stream,
//! not a saturating loop, so both disciplines face the same offered write
//! load). Two numbers matter:
//!
//! * **reader degradation** — mixed vs read-only cached-query throughput;
//! * **write stall** — wall time from submitting a write transaction to
//!   its being visible, against the uncontended service time for the same
//!   batch. Under a global lock the writer must drain every reader before
//!   it may enter, so this is where the lock convoy shows up (on a
//!   read-preferring `RwLock`; on a write-preferring one the same convoy
//!   lands on the readers instead).
//!
//! Queries are `my_article`-scoped (Q3) and plan-cached, so per-query work
//! does not grow with the corpus and the deltas are pure serving-path
//! effect.
//!
//! Run: `cargo run --release -p docql-bench --example b12_mixed`
//! Knobs: `DOCQL_B12_MS` (window per cell, default 400),
//!        `DOCQL_B12_READERS` (reader threads, default 6),
//!        `DOCQL_B12_PERIOD_MS` (write cadence, default 10),
//!        `DOCQL_B12_BATCH` (docs per write transaction, default 2).

use docql::prelude::*;
use docql::store::DocStore;
use docql_corpus::{generate_article, ArticleParams};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::RwLock;
use std::thread;
use std::time::{Duration, Instant};

const Q3: &str = "select t from my_article PATH_p.title(t)";

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn base_store() -> DocStore {
    let mut store = docql_bench::article_store(10, 5);
    store.bind("my_article", store.documents()[0]).unwrap();
    store.query_algebraic(Q3).unwrap(); // warm the plan cache
    store
}

/// Pre-generated ingest payloads, cycled by the writer so SGML generation
/// cost stays off the measured path in both disciplines.
fn payloads() -> Vec<String> {
    (1000..1032u64)
        .map(|seed| {
            generate_article(&ArticleParams {
                seed,
                sections: 4,
                subsections: 2,
                plant_every: 0,
                ..ArticleParams::default()
            })
            .to_sgml()
        })
        .collect()
}

#[derive(Default)]
struct Cell {
    queries: u64,
    writes: u64,
    write_ns: u64,
}

impl Cell {
    fn write_latency(&self) -> Duration {
        Duration::from_nanos(self.write_ns / self.writes.max(1))
    }
}

/// One measurement cell: `readers` threads hammering the cached query for
/// `window`; when `cadence` is set, one writer submits a batch write
/// transaction every period and its submit→visible latency is recorded.
fn run_cell(
    readers: usize,
    window: Duration,
    cadence: Option<(Duration, usize)>,
    read_q: impl Fn() + Sync,
    write_batch: impl Fn(&[String]) + Sync,
) -> Cell {
    let texts = payloads();
    let stop = AtomicBool::new(false);
    let queries = AtomicU64::new(0);
    let writes = AtomicU64::new(0);
    let write_ns = AtomicU64::new(0);
    thread::scope(|s| {
        for _ in 0..readers {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    read_q();
                    queries.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        if let Some((period, batch)) = cadence {
            let (write_batch, texts) = (&write_batch, &texts);
            let (stop, writes, write_ns) = (&stop, &writes, &write_ns);
            s.spawn(move || {
                let mut i = 0usize;
                let mut next = Instant::now();
                while !stop.load(Ordering::Relaxed) {
                    let lo = (i * batch) % texts.len();
                    let hi = (lo + batch).min(texts.len());
                    let t = Instant::now();
                    write_batch(&texts[lo..hi]);
                    write_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    writes.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                    next += period;
                    match next.checked_duration_since(Instant::now()) {
                        Some(d) => thread::sleep(d),
                        None => next = Instant::now(), // overran: don't burst to catch up
                    }
                }
            });
        }
        thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    Cell {
        queries: queries.into_inner(),
        writes: writes.into_inner(),
        write_ns: write_ns.into_inner(),
    }
}

struct Mode {
    read_only: Cell,
    mixed: Cell,
    /// Mean submit→visible latency of the batch write with no readers
    /// running: the discipline's uncontended write service time.
    service: Duration,
}

fn measure(
    window: Duration,
    readers: usize,
    cadence: (Duration, usize),
    read_q: impl Fn() + Sync,
    write_batch: impl Fn(&[String]) + Sync,
) -> Mode {
    let service = run_cell(0, window / 4, Some(cadence), &read_q, &write_batch).write_latency();
    let read_only = run_cell(readers, window, None, &read_q, &write_batch);
    let mixed = run_cell(readers, window, Some(cadence), &read_q, &write_batch);
    Mode {
        read_only,
        mixed,
        service,
    }
}

fn main() {
    let window = Duration::from_millis(env_u64("DOCQL_B12_MS", 400));
    let readers = env_u64("DOCQL_B12_READERS", 6) as usize;
    let period = Duration::from_millis(env_u64("DOCQL_B12_PERIOD_MS", 10));
    let batch = env_u64("DOCQL_B12_BATCH", 2) as usize;
    println!(
        "B12: {readers} readers on cached Q3, writer batch of {batch} every \
         {period:?}, {window:?} per cell"
    );

    // --- rwlock baseline: the pre-MVCC global-lock discipline ---
    let rwlock = {
        let shared = RwLock::new(base_store());
        measure(
            window,
            readers,
            (period, batch),
            || {
                let store = shared.read().unwrap();
                std::hint::black_box(store.query_algebraic(Q3).unwrap().len());
            },
            |texts: &[String]| {
                let mut store = shared.write().unwrap();
                for t in texts {
                    store.ingest(t).unwrap();
                }
            },
        )
    };
    report("rwlock", &rwlock, window);

    // --- snapshot discipline: SharedStore MVCC pins ---
    let snapshot = {
        let shared = SharedStore::new(base_store());
        measure(
            window,
            readers,
            (period, batch),
            || {
                let snap = shared.read();
                std::hint::black_box(snap.query_algebraic(Q3).unwrap().len());
            },
            |texts: &[String]| {
                let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
                shared.ingest_batch(&refs).unwrap();
            },
        )
    };
    report("snapshot", &snapshot, window);
}

fn report(mode: &str, m: &Mode, window: Duration) {
    let secs = window.as_secs_f64();
    let (a, b) = (
        m.read_only.queries as f64 / secs,
        m.mixed.queries as f64 / secs,
    );
    let degraded = (b / a - 1.0) * 100.0;
    let stall = m.mixed.write_latency();
    let ratio = stall.as_secs_f64() / m.service.as_secs_f64().max(1e-9);
    println!(
        "{mode:>8}: readers {a:>9.0} q/s -> {b:>9.0} q/s mixed ({degraded:+.1}%) | \
         write visible in {stall:.2?} vs {:.2?} uncontended ({ratio:.1}x stall) | \
         {} txns",
        m.service, m.mixed.writes
    );
}
