//! `perfbench`: the end-to-end and per-layer benchmark of `docql-serve`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
//!           --server-bin <path> --work <dir>
//! ```
//!
//! `perfbench/run.py` builds the server and this program and passes the
//! last two flags. With `--trace 0` the run reports the end-to-end
//! metrics; with `--trace 1` it reports the per-layer metrics. The last
//! line of standard output is the result as one JSON object. See
//! `perfbench/README.md`.

mod client;
mod corpus;
mod e2e;
mod procfs;
mod spans;
mod spawn;
mod stats;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Tally, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server_bin: PathBuf,
    work: PathBuf,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server_bin = None;
    let mut work = None;
    let mut it = argv;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds out of range: {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        server_bin: server_bin.ok_or("--server-bin is required")?,
        work: work.ok_or("--work is required")?,
    })
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the checkout, read from `.git` in the working directory
/// without leaving it; `unknown` outside a git checkout.
fn git_rev(root: &Path) -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&root.join(".git/HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(&root.join(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(&root.join(".git/packed-refs"))?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.work.display());
        return ExitCode::FAILURE;
    }
    println!(
        "env: workload={} seed={} seconds={} trace={} nproc={} git_rev={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        git_rev(Path::new("."))
    );
    let corpus = corpus::Corpus::new(args.seed, workload::fresh_articles(args.seconds));
    let ctx = e2e::Ctx {
        server_bin: args.server_bin,
        work: args.work,
        workload: args.workload,
        seconds: args.seconds,
    };
    let mut tally = Tally::default();
    let report = if args.trace {
        traced::run(&ctx, &corpus, args.seed, &mut tally)
    } else {
        e2e::run(&ctx, &corpus, &mut tally)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &tally.notes {
        println!("failure: {note}");
    }
    print!("{}", report.table());
    let correct = tally.failed == 0;
    println!(
        "{}",
        report.json_line(correct, tally.attempted.max(1), tally.failed)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_driver_flags() {
        let a =
            args("--workload paper_mix --seed 3 --seconds 10 --trace 1 --server-bin b --work w")
                .expect("valid");
        assert_eq!(a.workload, Workload::PaperMix);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(args("--workload nope --seed 1 --server-bin b --work w").is_err());
        assert!(args("--workload paper_mix --seed 1 --trace 2 --server-bin b --work w").is_err());
        assert!(args("--workload paper_mix --server-bin b --work w").is_err());
    }
}
