//! The untraced run: set up the server several times, drive the measured
//! phase over HTTP, check every answer, and report the end-to-end metrics.

use crate::client::Client;
use crate::corpus::{Corpus, COUNT_DOCUMENTS};
use crate::procfs;
use crate::spans::Recorder;
use crate::spawn::{fresh_dir, ServerProc};
use crate::stats::{median, percentile_of, samples_beyond, supports_percentile, Report};
use crate::workload::{check_query, control, ingest, Expected, Tally, Workload};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Rounds a run's metrics are taken from, each on a freshly set-up
/// server; `setup_s` is the median of their set-ups.
pub const ROUNDS: usize = 5;

/// Most rounds a run makes while it waits for [`ROUNDS`] calm ones.
pub const MAX_ROUNDS: usize = 12;

/// A round is calm when the host stole at most this share of the CPU time
/// it could have had.
pub const CALM_STEAL_SHARE: f64 = 0.05;

/// Does a run whose rounds saw these steal shares need another round?
pub fn need_another_round(steal_shares: &[f64]) -> bool {
    let calm = steal_shares
        .iter()
        .filter(|&&s| s <= CALM_STEAL_SHARE)
        .count();
    steal_shares.len() < MAX_ROUNDS && (steal_shares.len() < ROUNDS || calm < ROUNDS)
}

/// Indices of the [`ROUNDS`] rounds with the least steal, earliest first
/// among equals, in round order.
pub fn calmest_rounds(steal_shares: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..steal_shares.len()).collect();
    idx.sort_by(|&a, &b| steal_shares[a].total_cmp(&steal_shares[b]).then(a.cmp(&b)));
    idx.truncate(ROUNDS);
    idx.sort_unstable();
    idx
}

/// What a run needs to know about its environment.
pub struct Ctx {
    /// The `docql-serve` executable.
    pub server_bin: PathBuf,
    /// Scratch directory for store directories and logs.
    pub work: PathBuf,
    /// The workload.
    pub workload: Workload,
    /// Measured-phase length.
    pub seconds: f64,
}

/// A server after set-up: corpus loaded and roots bound.
pub struct Served {
    /// The server process.
    pub proc: ServerProc,
    /// Its store directory, for durable workloads.
    pub dir: Option<PathBuf>,
    /// Spawn → ready, in seconds.
    pub setup_s: f64,
    /// Latency of each set-up ingest, in milliseconds.
    pub ingest_ms: Vec<f64>,
    /// Wall time of the set-up ingests, in seconds.
    pub ingest_wall_s: f64,
}

/// Spawn a server and load the corpus over HTTP. Each ingest must return
/// `201` with the oid the in-process reference assigned.
pub fn set_up(
    ctx: &Ctx,
    corpus: &Corpus,
    oids: &[u32],
    label: &str,
    tally: &mut Tally,
) -> std::io::Result<Served> {
    let dir = if ctx.workload.durable() {
        Some(fresh_dir(&ctx.work, &format!("store-{label}"))?)
    } else {
        None
    };
    let t0 = Instant::now();
    let proc = ServerProc::spawn(
        &ctx.server_bin,
        dir.as_deref(),
        &ctx.work.join("server.log"),
    )?;
    let mut client = Client::new(proc.addr);
    let mut ingest_ms = Vec::with_capacity(corpus.setup_docs.len());
    let t_ingest = Instant::now();
    for (doc, &oid) in corpus.setup_docs.iter().zip(oids) {
        let t = Instant::now();
        let ok = tally.record(ingest(&mut client, doc, Some(oid)).map(drop));
        if ok {
            ingest_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let ingest_wall_s = t_ingest.elapsed().as_secs_f64();
    client.close();
    for body in corpus.bind_bodies(oids) {
        tally.record(control(proc.addr, "/bind", &body, 204));
    }
    Ok(Served {
        proc,
        dir,
        setup_s: t0.elapsed().as_secs_f64(),
        ingest_ms,
        ingest_wall_s,
    })
}

/// Shut a server down and say how long the drain took.
pub fn shut_down(served: Served, tally: &mut Tally) {
    let outcome = served
        .proc
        .shutdown()
        .map(|d| println!("observed: shutdown took {:.3} s", d.as_secs_f64()))
        .map_err(|e| format!("shutdown: {e}"));
    tally.record(outcome);
}

/// Closed-loop readers: send the workload's queries round-robin, check
/// each answer, and return the latencies (µs) of the correct ones. With a
/// recorder, each request is also recorded as a span.
pub fn query_loop(
    client: &mut Client,
    order: &[usize],
    expected: &Expected,
    tally: &mut Tally,
    mut spans: Option<&mut Recorder>,
    mut done: impl FnMut() -> bool,
) -> Vec<f64> {
    let mut lat = Vec::new();
    let mut i = 0;
    while !done() {
        let q = order[i % order.len()];
        i += 1;
        let span = spans.as_deref_mut().map(|r| {
            let req = r.request();
            r.begin("http.query", None, req)
        });
        let t = Instant::now();
        let resp = client.post("/query", crate::corpus::QUERIES[q].1.as_bytes());
        let us = t.elapsed().as_secs_f64() * 1e6;
        if let (Some(r), Some(id)) = (spans.as_deref_mut(), span) {
            r.end(id);
        }
        if tally.record(check_query(resp, q, expected)) {
            lat.push(us);
        }
    }
    lat
}

/// What the measured phase observed.
pub struct Phase {
    /// Latencies of correct queries, µs.
    pub query_us: Vec<f64>,
    /// Latencies of acknowledged measured-phase ingests, ms.
    pub ingest_ms: Vec<f64>,
    /// Phase wall time, s.
    pub wall_s: f64,
    /// Server CPU ticks spent in the phase.
    pub cpu_ticks: u64,
    /// Host steal ticks in the phase.
    pub steal_ticks: u64,
    /// Operations completed in the phase.
    pub ops: u64,
    /// Connection rotations and reconnects in the phase.
    pub reconnects: u64,
}

/// Run the measured phase against a set-up server.
pub fn measure(
    ctx: &Ctx,
    served: &Served,
    seconds: f64,
    corpus: &Corpus,
    expected: &Expected,
    tally: &mut Tally,
    spans: Option<&mut Recorder>,
) -> Phase {
    let pid = served.proc.pid();
    let addr = served.proc.addr;
    let order = ctx.workload.queries();
    // Warm: fill the plan cache and check every query once more.
    let mut reader = Client::new(addr);
    for &q in order {
        for _ in 0..3 {
            let resp = reader.post("/query", crate::corpus::QUERIES[q].1.as_bytes());
            tally.record(check_query(resp, q, expected));
        }
    }
    let cpu0 = procfs::cpu_ticks(pid).unwrap_or(0);
    let steal0 = procfs::steal_ticks();
    let t0 = Instant::now();
    let mut ingest_ms = Vec::new();
    let mut writer_tally = Tally::default();
    let mut reconnects = 0;
    let query_us = if ctx.workload == Workload::IngestMix {
        let writing = AtomicBool::new(true);
        let lat = std::thread::scope(|s| {
            let w = s.spawn(|| {
                let mut writer = Client::new(addr);
                for doc in &corpus.fresh_docs {
                    let t = Instant::now();
                    if writer_tally.record(ingest(&mut writer, doc, None).map(drop)) {
                        ingest_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    }
                }
                writing.store(false, Ordering::SeqCst);
                writer.close();
                writer.rotations + writer.reconnects
            });
            let lat = query_loop(&mut reader, order, expected, tally, spans, || {
                !writing.load(Ordering::SeqCst)
            });
            reconnects += w.join().expect("writer thread panicked");
            lat
        });
        tally.merge(writer_tally);
        lat
    } else {
        let limit = Duration::from_secs_f64(seconds);
        query_loop(&mut reader, order, expected, tally, spans, || {
            t0.elapsed() >= limit
        })
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_ticks = procfs::cpu_ticks(pid).unwrap_or(0).saturating_sub(cpu0);
    let steal_ticks = procfs::steal_ticks().saturating_sub(steal0);
    reader.close();
    reconnects += reader.rotations + reader.reconnects;
    let ops = (query_us.len() + ingest_ms.len()) as u64;
    Phase {
        query_us,
        ingest_ms,
        wall_s,
        cpu_ticks,
        steal_ticks,
        ops,
        reconnects,
    }
}

/// After `ingest_mix`: restart on the same directory and check that every
/// acknowledged document survived, and that Q3 answers as before.
fn check_durability(
    ctx: &Ctx,
    dir: &Path,
    want_docs: usize,
    expected: &Expected,
    tally: &mut Tally,
) -> std::io::Result<()> {
    let proc = ServerProc::spawn(&ctx.server_bin, Some(dir), &ctx.work.join("server.log"))?;
    let mut client = Client::new(proc.addr);
    let count = client.post("/query", COUNT_DOCUMENTS.as_bytes());
    tally.record(match count {
        Ok(r) if r.status == 200 => {
            let rows = r
                .field("X-Docql-Rows")
                .and_then(|v| v.parse::<usize>().ok());
            if rows == Some(want_docs) {
                Ok(())
            } else {
                Err(format!(
                    "durability: {rows:?} documents after restart, {want_docs} acknowledged"
                ))
            }
        }
        Ok(r) => Err(format!("durability: count query status {}", r.status)),
        Err(e) => Err(format!("durability: {e}")),
    });
    let q3 = client.post("/query", crate::corpus::QUERIES[2].1.as_bytes());
    tally.record(check_query(q3, 2, expected));
    client.close();
    let outcome = proc
        .shutdown()
        .map(drop)
        .map_err(|e| format!("durability restart shutdown: {e}"));
    tally.record(outcome);
    Ok(())
}

/// What one round observed: a set-up, then a measured phase.
struct Round {
    setup_s: f64,
    setup_ingest_ms: Vec<f64>,
    setup_rate: f64,
    phase: Phase,
    rss_kib: u64,
    /// Share of the CPU time available over set-up and phase that the host
    /// stole.
    steal_share: f64,
}

/// The untraced run: rounds, each on a freshly set-up server measuring a
/// [`ROUNDS`]th of the phase. Rounds the host disturbed are made again,
/// up to [`MAX_ROUNDS`], and each metric is the median over the
/// [`ROUNDS`] calmest rounds, so steal time moves the result as little as
/// the host allows.
pub fn run(ctx: &Ctx, corpus: &Corpus, tally: &mut Tally) -> std::io::Result<Report> {
    let (reference, oids) = corpus.reference_store();
    let expected = Expected::from_store(&reference);
    drop(reference);
    print_rows(&expected);

    let share = ctx.seconds / ROUNDS as f64;
    let mut rounds: Vec<Round> = Vec::with_capacity(MAX_ROUNDS);
    while need_another_round(&rounds.iter().map(|r| r.steal_share).collect::<Vec<_>>()) {
        let i = rounds.len();
        let steal0 = procfs::steal_ticks();
        let t0 = Instant::now();
        let served = set_up(ctx, corpus, &oids, &i.to_string(), tally)?;
        let phase = measure(ctx, &served, share, corpus, &expected, tally, None);
        let capacity = t0.elapsed().as_secs_f64() * procfs::TICKS_PER_SEC * crate::nproc() as f64;
        let steal_share = procfs::steal_ticks().saturating_sub(steal0) as f64 / capacity;
        let rss_kib = procfs::vm_hwm_kib(served.proc.pid()).unwrap_or(0);
        let dir = served.dir.clone();
        let round = Round {
            setup_s: served.setup_s,
            setup_rate: served.ingest_ms.len() as f64 / served.ingest_wall_s,
            setup_ingest_ms: served.ingest_ms.clone(),
            phase,
            rss_kib,
            steal_share,
        };
        shut_down(served, tally);
        if let Some(dir) = &dir {
            let acked = corpus.setup_docs.len() + round.phase.ingest_ms.len();
            check_durability(ctx, dir, acked, &expected, tally)?;
            std::fs::remove_dir_all(dir)?;
        }
        println!(
            "round {i}: steal_share={:.3} phase_steal_ticks={} phase_s={:.3} queries={} ingests={} reconnects={}",
            round.steal_share,
            round.phase.steal_ticks,
            round.phase.wall_s,
            round.phase.query_us.len(),
            round.phase.ingest_ms.len(),
            round.phase.reconnects
        );
        rounds.push(round);
    }
    let kept = calmest_rounds(&rounds.iter().map(|r| r.steal_share).collect::<Vec<_>>());
    println!(
        "env: workload={} nproc={} rounds={} kept={kept:?} phase_steal_ticks={}",
        ctx.workload.name(),
        crate::nproc(),
        rounds.len(),
        rounds.iter().map(|r| r.phase.steal_ticks).sum::<u64>()
    );
    let rounds: Vec<Round> = rounds
        .into_iter()
        .enumerate()
        .filter(|(i, _)| kept.contains(i))
        .map(|(_, r)| r)
        .collect();

    let over = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let queries: usize = rounds.iter().map(|r| r.phase.query_us.len()).sum();
    let ops: u64 = rounds.iter().map(|r| r.phase.ops).sum();
    let mut report = Report::default();
    report.add("setup_s", over(&|r| r.setup_s), "s", ROUNDS);
    report.add(
        "query_p50_us",
        over(&|r| percentile_of(&r.phase.query_us, 50.0)),
        "us",
        queries,
    );
    report.add(
        "query_p90_us",
        over(&|r| percentile_of(&r.phase.query_us, 90.0)),
        "us",
        queries,
    );
    if !supports_percentile(queries, 90.0) {
        println!(
            "warning: only {} samples beyond p90",
            samples_beyond(queries, 90.0)
        );
    }
    report.add(
        "query_rps",
        over(&|r| r.phase.query_us.len() as f64 / r.phase.wall_s),
        "1/s",
        queries,
    );
    report.add(
        "server_cpu_us_per_op",
        over(&|r| {
            r.phase.cpu_ticks as f64 / procfs::TICKS_PER_SEC * 1e6 / r.phase.ops.max(1) as f64
        }),
        "us",
        ops as usize,
    );
    // The durable workload measures ingest in its phase; the others report
    // their in-memory set-up ingests.
    let durable = ctx.workload == Workload::IngestMix;
    let ingests: usize = rounds
        .iter()
        .map(|r| {
            if durable {
                r.phase.ingest_ms.len()
            } else {
                r.setup_ingest_ms.len()
            }
        })
        .sum();
    report.add(
        "ingest_docs_per_s",
        over(&|r| {
            if durable {
                r.phase.ingest_ms.len() as f64 / r.phase.wall_s
            } else {
                r.setup_rate
            }
        }),
        "1/s",
        ingests,
    );
    report.add(
        "ingest_p50_ms",
        over(&|r| {
            let v = if durable {
                &r.phase.ingest_ms
            } else {
                &r.setup_ingest_ms
            };
            percentile_of(v, 50.0)
        }),
        "ms",
        ingests,
    );
    report.add(
        "peak_rss_mb",
        over(&|r| r.rss_kib as f64 / 1024.0),
        "MB",
        ROUNDS,
    );
    let ok = tally.attempted - tally.failed;
    report.add(
        "success_ratio",
        ok as f64 / tally.attempted.max(1) as f64,
        "1",
        tally.attempted as usize,
    );
    Ok(report)
}

/// Print the reference row counts, which are fixed per seed.
pub fn print_rows(expected: &Expected) {
    let rows: Vec<String> = crate::corpus::QUERIES
        .iter()
        .zip(&expected.rows)
        .map(|((name, _), n)| format!("{name}={n}"))
        .collect();
    println!("rows: {}", rows.join(" "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disturbed_rounds_are_made_again_up_to_the_cap() {
        assert!(need_another_round(&[]));
        assert!(need_another_round(&[0.0; ROUNDS - 1]));
        assert!(!need_another_round(&[0.0; ROUNDS]));
        let mut shares = vec![0.0, 0.2, 0.0, 0.01, 0.3];
        assert!(need_another_round(&shares));
        shares.push(0.5);
        assert!(need_another_round(&shares));
        shares.extend([0.04, 0.3, 0.3, 0.3]);
        assert!(need_another_round(&shares));
        shares.push(0.0);
        assert!(!need_another_round(&shares));
        assert!(!need_another_round(&[0.9; MAX_ROUNDS]));
    }

    #[test]
    fn the_calmest_rounds_are_kept_in_order() {
        assert_eq!(
            calmest_rounds(&[0.0; ROUNDS]),
            (0..ROUNDS).collect::<Vec<_>>()
        );
        let shares = [0.3, 0.0, 0.2, 0.01, 0.0, 0.5, 0.02, 0.9, 0.4, 0.4, 0.4, 0.4];
        assert_eq!(calmest_rounds(&shares), vec![1, 2, 3, 4, 6]);
    }
}
