//! The `docql-serve` binary: serve a docql store over HTTP/1.1.
//!
//! ```text
//! docql-serve --addr 127.0.0.1:7171 --dir /var/lib/docql
//! ```
//!
//! With `--dir` the store is durable (WAL + checkpoints; an existing
//! directory is recovered, a fresh one is created). Without it the store
//! lives in memory. The schema defaults to the paper's article DTD with
//! the `my_article`/`my_old_article` roots; `--dtd FILE` and `--roots
//! a,b` override it at creation time.
//!
//! `--workers` is the one concurrency limit: at most that many queries
//! run at once, and up to `--queue` more connections wait for a worker
//! before the server answers `503`.
//!
//! On `SIGINT`/`SIGTERM` (or `POST /admin/shutdown`) the server stops
//! accepting, drains in-flight queries under `--drain-ms`, force-cancels
//! stragglers, and checkpoints a durable store before exiting.

use docql_serve::server::{Server, ServerConfig};
use docql_serve::signal;
use docql_store::{DocStore, SharedStore};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    config: ServerConfig,
    dir: Option<String>,
    dtd: Option<String>,
    roots: Vec<String>,
    segment_retain: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: docql-serve [flags]\n\
         \n\
         --addr HOST:PORT        bind address (default 127.0.0.1:7171; port 0 = ephemeral)\n\
         --dir PATH              persistent store directory (default: in-memory)\n\
         --dtd FILE              schema file for a new store (default: built-in article DTD)\n\
         --roots a,b             named roots for a new store (default my_article,my_old_article)\n\
         --workers N             worker threads = max concurrent queries (default 8)\n\
         --queue N               connections waiting for a worker; beyond it 503 (default 64)\n\
         --read-timeout-ms N     per-connection read deadline (default 5000)\n\
         --write-timeout-ms N    per-connection write deadline (default 5000)\n\
         --drain-ms N            graceful-shutdown drain deadline (default 5000)\n\
         --max-head-bytes N      request-head ceiling (default 8192)\n\
         --max-headers N         header-count ceiling (default 64)\n\
         --max-body-bytes N      request-body ceiling (default 1048576)\n\
         --deadline-ms N         default query deadline\n\
         --row-budget N          default query row budget\n\
         --path-fuel N           default query path fuel\n\
         --degrade               default to partial results instead of errors on trips\n\
         --retain N              checkpoint segments kept by GC (default 2)"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        config: ServerConfig {
            addr: "127.0.0.1:7171".to_string(),
            ..ServerConfig::default()
        },
        dir: None,
        dtd: None,
        roots: vec!["my_article".to_string(), "my_old_article".to_string()],
        segment_retain: None,
    };
    let mut it = std::env::args().skip(1);
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            usage()
        })
    };
    while let Some(flag) = it.next() {
        let parse_num = |v: String, flag: &str| -> u64 {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{flag}: expected a number, got {v:?}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => args.config.addr = need(&mut it, "--addr"),
            "--dir" => args.dir = Some(need(&mut it, "--dir")),
            "--dtd" => args.dtd = Some(need(&mut it, "--dtd")),
            "--roots" => {
                args.roots = need(&mut it, "--roots")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--workers" => {
                args.config.workers = parse_num(need(&mut it, &flag), &flag) as usize;
            }
            "--queue" => args.config.queue_depth = parse_num(need(&mut it, &flag), &flag) as usize,
            "--read-timeout-ms" => {
                args.config.read_timeout =
                    Duration::from_millis(parse_num(need(&mut it, &flag), &flag));
            }
            "--write-timeout-ms" => {
                args.config.write_timeout =
                    Duration::from_millis(parse_num(need(&mut it, &flag), &flag));
            }
            "--drain-ms" => {
                args.config.drain_deadline =
                    Duration::from_millis(parse_num(need(&mut it, &flag), &flag));
            }
            "--max-head-bytes" => {
                args.config.parse.max_head_bytes = parse_num(need(&mut it, &flag), &flag) as usize;
            }
            "--max-headers" => {
                args.config.parse.max_headers = parse_num(need(&mut it, &flag), &flag) as usize;
            }
            "--max-body-bytes" => {
                args.config.parse.max_body_bytes = parse_num(need(&mut it, &flag), &flag) as usize;
            }
            "--deadline-ms" => {
                args.config.default_limits.deadline = Some(Duration::from_millis(parse_num(
                    need(&mut it, &flag),
                    &flag,
                )));
            }
            "--row-budget" => {
                args.config.default_limits.row_budget =
                    Some(parse_num(need(&mut it, &flag), &flag));
            }
            "--path-fuel" => {
                args.config.default_limits.path_fuel = Some(parse_num(need(&mut it, &flag), &flag));
            }
            "--degrade" => args.config.default_limits.degrade = true,
            "--retain" => {
                args.segment_retain = Some(parse_num(need(&mut it, &flag), &flag) as usize);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let dtd = match &args.dtd {
        None => docql_sgml::fixtures::ARTICLE_DTD.to_string(),
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read --dtd {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let roots: Vec<&str> = args.roots.iter().map(String::as_str).collect();

    let store = match &args.dir {
        None => {
            let store = match DocStore::new(&dtd, &roots) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot build store: {e}");
                    return ExitCode::FAILURE;
                }
            };
            SharedStore::new(store)
        }
        Some(dir) => {
            let path = std::path::Path::new(dir);
            let opened = if path.join("store.meta").exists() {
                SharedStore::reopen(path)
            } else {
                SharedStore::open(path, &dtd, &roots)
            };
            match opened {
                Ok((ps, report)) => {
                    if let Some(keep) = args.segment_retain {
                        ps.set_segment_retain(keep);
                    }
                    eprintln!(
                        "recovered {dir}: segment_seqno={:?} replayed={} truncated_bytes={}",
                        report.segment_seqno, report.replayed_records, report.truncated_bytes
                    );
                    ps
                }
                Err(e) => {
                    eprintln!("cannot open store at {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let handle = match Server::start(args.config, store) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The line the smoke tests and scripts parse to find the port.
    println!("listening on {}", handle.addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();

    signal::install();
    while !signal::signalled() && !handle.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(25));
    }
    eprintln!("draining...");
    let report = handle.shutdown();
    match &report.checkpoint {
        None => {}
        Some(Ok(ckpt)) => eprintln!(
            "checkpointed: applied_seqno={} bytes={}",
            ckpt.applied_seqno, ckpt.bytes
        ),
        Some(Err(e)) => eprintln!("shutdown checkpoint failed: {e}"),
    }
    eprintln!(
        "drained (in_time={} force_cancelled={})",
        report.drained_in_time, report.force_cancelled
    );
    ExitCode::SUCCESS
}
