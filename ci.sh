#!/usr/bin/env bash
# CI gate: formatting, lints, and the tier-1 build+test command.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> workspace tests"
cargo test --workspace -q

echo "==> perfbench type-checks against the workspace"
# perfbench is a workspace of its own, so the steps above never build it:
# a store or serve API change that breaks it would first show up as a
# failed benchmark run. Its committed Cargo.lock is stale and any build
# rewrites it, so the step puts the committed file back either way.
perfbench_lock=$(mktemp)
cp perfbench/Cargo.lock "$perfbench_lock"
perfbench_status=0
cargo check --offline --manifest-path perfbench/Cargo.toml \
    --target-dir target/perfbench-check || perfbench_status=$?
cp "$perfbench_lock" perfbench/Cargo.lock
rm -f "$perfbench_lock"
if [ "$perfbench_status" -ne 0 ]; then
    echo "    perfbench no longer compiles against the workspace" >&2
    exit "$perfbench_status"
fi

echo "==> property suites (fixed seed, bounded cases)"
DOCQL_PROP_SEED=20260806 DOCQL_PROP_CASES=64 cargo test --workspace -q \
    --test prop_model --test prop_chunked --test prop_text --test prop_sgml \
    --test prop_paths --test prop_equivalence --test prop_roundtrip --test text_diff

echo "==> fault-injection sweep (fixed seed, replayable via DOCQL_FAULT)"
DOCQL_FAULT=0xD0C41994 cargo test -q --test governance

echo "==> snapshot-isolation stress (fixed seed, bounded iterations)"
DOCQL_FAULT=0xD0C41994 cargo test -q --test snapshot_isolation

echo "==> crash-recovery sweep (kill-at-every-record + fixed-seed fault battery)"
DOCQL_FAULT=0xD0C41994 cargo test -q --test recovery

echo "==> serving-tier suites (parser properties, robustness, chaos battery, HTTP smoke)"
# server_smoke boots the docql-serve binary on a temp store and proves
# Q1-Q6 over HTTP byte-identical to in-process, /metrics + /healthz
# serve, and graceful shutdown + restart recovery; robustness includes
# the keep-alive load gate (1, 8 and 64 connections, reconnecting on
# Connection: close); chaos runs the 64-seed hostile-client battery and
# kill -9 recovery.
DOCQL_FAULT=0xD0C41994 DOCQL_PROP_SEED=20260806 DOCQL_PROP_CASES=64 \
    cargo test -q -p docql-serve

echo "==> planner differential suite (fixed seed, cost-based vs heuristic)"
DOCQL_PROP_SEED=20260806 DOCQL_PROP_CASES=64 cargo test -q -p docql-store \
    --test planner_diff

# Library paths that must stay panic-free, each with the reason it matters.
panic_free=(
    "model:crates/model must stay panic-free"
    "durable:crates/durable must stay panic-free"
    "algebra:crates/algebra (planner) must stay panic-free"
    "calculus:crates/calculus must stay panic-free (every query evaluates through it)"
    "text:crates/text must stay panic-free (contains patterns are parsed from query text)"
    "paths:crates/paths must stay panic-free (every ingest builds path extents through it)"
    "mapping:crates/mapping must stay panic-free (every ingest loads its document through it)"
    "sgml:crates/sgml must stay panic-free (POST /ingest bodies and WAL replay parse through it)"
    "guard:crates/guard must stay panic-free (it enforces limits on every governed query)"
    "obs:crates/obs must stay panic-free (tracing must never fail a query)"
    "serve:crates/serve must stay panic-free (a hostile request must never kill the server)"
    "store:crates/store must stay panic-free (every query and every write runs through it)"
)
for entry in "${panic_free[@]}"; do
    crate=${entry%%:*}
    echo "==> no panicking unwrap/expect on crates/$crate library paths"
    if awk 'FNR==1 { intests=0 } /#\[cfg\(test\)\]/ { intests=1 } \
           !intests && /\.(unwrap|expect)\(/ { print FILENAME ":" FNR ": " $0; bad=1 } \
           END { exit bad }' "crates/$crate"/src/*.rs; then
        echo "    clean"
    else
        echo "    panic sites above — ${entry#*:}" >&2
        exit 1
    fi
done

echo "==> bench smoke (1 ms window per benchmark target)"
DOCQL_BENCH_MS=1 cargo bench --workspace -q >/dev/null

echo "==> B13 durability smoke (footprint + cold-start, 1 ms windows)"
# Segment bytes come from a seeded corpus and repeat exactly, so the
# footprint is pinned: both sizes must print, each under 1.25x the SGML.
b13_out=$(DOCQL_BENCH_MS=1 cargo bench -q -p docql-bench --bench durability)
grep "^B13" <<<"$b13_out"
if ! awk '/^B13 footprint: / { f=$NF; gsub(/[()x]/, "", f); if (f+0 >= 1.25) bad=1; seen[$3]=1 } \
          END { exit (bad || !seen["10"] || !seen["100"]) }' <<<"$b13_out"; then
    echo "    B13 footprint missing for 10 or 100 docs, or at/above 1.25x the SGML" >&2
    exit 1
fi

echo "==> B14 planner-cost smoke (adversarial + parity shapes, 1 ms windows)"
DOCQL_BENCH_MS=1 cargo bench -q -p docql-bench --bench planner_cost | grep "^B14"

echo "==> B11 guard-overhead smoke (interleaved governed vs ungoverned, 1 ms windows)"
DOCQL_BENCH_MS=1 cargo bench -q -p docql-bench --bench guard_overhead | grep "^B11"

echo "==> B6 query-suite smoke (default engine vs algebra on Q1-Q6, 1 ms windows)"
DOCQL_BENCH_MS=1 cargo bench -q -p docql-bench --bench query_suite | grep "^B6 summary"

echo "==> B12 mixed read/write smoke (snapshots vs global lock, short windows)"
DOCQL_B12_MS=50 cargo run -q --release -p docql-bench --example b12_mixed

echo "==> fork-cost gate (snapshot fork at 200 vs 440 articles, interleaved)"
# A fork copies one Arc per chunk group of each table, so its cost must not
# track the corpus: fail when fork(440) costs more than twice fork(200).
fork_out=$(cargo run -q --release -p docql-bench --example fork_cost)
grep "^fork_cost" <<<"$fork_out"
if ! awk '/^fork_cost ratio=/ { split($2, r, "="); seen=1; if (r[2]+0 > 2.0) bad=1 } \
          END { exit (bad || !seen) }' <<<"$fork_out"; then
    echo "    fork(440) / fork(200) is above 2.0, or the ratio is missing" >&2
    exit 1
fi

echo "==> walk-cost gate (cached interpreter Q3 and a path answer vs a bare path walk, interleaved)"
# The interpreter binds variables in place, so Q3 must cost at most twice
# the path walk it makes: fail when interpreter / walk exceeds 2.0. The
# path-valued answer `my_article PATH_p` builds and deduplicates one row
# per visited pair, against a walk that clones each pair's path once: fail
# when that ratio exceeds 2.1 (it reads 1.71-1.77; 8.1-8.2 with a BTreeMap
# deduplicating the rows).
walk_out=$(cargo run -q --release -p docql-bench --example walk_cost)
grep "^walk_cost" <<<"$walk_out"
if ! awk '/^walk_cost ratio=/ { split($2, r, "="); seen=1; if (r[2]+0 > 2.0) bad=1 } \
          /^walk_cost paths_ratio=/ { split($2, r, "="); paths=1; if (r[2]+0 > 2.1) bad=1 } \
          END { exit (bad || !seen || !paths) }' <<<"$walk_out"; then
    echo "    interpreter / walk is above 2.0, the path answer's ratio above 2.1, or a ratio is missing" >&2
    exit 1
fi

echo "==> B10/B15 observability-overhead smoke (disabled/metrics/traced/sink/profiled + interleaved, 1 ms windows)"
# One bench prints both families: B10 (metrics off vs on) and B15
# (recorder off vs on, with the suite-total line the 5 % gate reads).
b15_out=$(DOCQL_BENCH_MS=1 cargo bench -q -p docql-bench --bench trace_overhead)
grep "^B10 interleaved" <<<"$b15_out"
grep "^B15 interleaved" <<<"$b15_out"

echo "==> profile_query example (EXPLAIN ANALYZE + metrics export)"
cargo run -q --example profile_query >/dev/null

echo "==> trace smoke (DOCQL_TRACE=stderr emits one JSON line per query)"
trace_out=$(mktemp)
DOCQL_TRACE=stderr cargo run -q --example trace_query >/dev/null 2>"$trace_out"
if awk '/^\{"trace_id":"/ { seen+=1; if ($0 !~ /\}$/) bad=1 } \
        END { exit (bad || seen == 0) }' "$trace_out"; then
    echo "    $(grep -c '^{\"trace_id\"' "$trace_out") trace lines, each one JSON object with a trace id"
else
    echo "    malformed or missing trace lines:" >&2
    cat "$trace_out" >&2
    rm -f "$trace_out"
    exit 1
fi
rm -f "$trace_out"

echo "==> slow-log smoke (DOCQL_LOG=0 prints one stderr line per slow trace; unset prints none)"
# DOCQL_LOG is read once per process, so only a fresh process reaches it.
slow_out=$(mktemp)
DOCQL_LOG=0 cargo run -q --example profile_query >/dev/null 2>"$slow_out"
# Every stderr line must be a whole slow-log line: a query text that
# leaked a newline would leave a continuation line behind.
if awk '/^\[docql\] slow query \(/ { seen+=1; next } { bad=1 } \
        END { exit (bad || seen == 0) }' "$slow_out"; then
    echo "    $(grep -c '^\[docql\] slow query (' "$slow_out") slow-log lines, each a single line"
else
    echo "    malformed or missing slow-log lines:" >&2
    cat "$slow_out" >&2
    rm -f "$slow_out"
    exit 1
fi
env -u DOCQL_LOG cargo run -q --example profile_query >/dev/null 2>"$slow_out"
if grep -q '^\[docql\] slow query (' "$slow_out"; then
    echo "    slow-log lines printed without DOCQL_LOG:" >&2
    cat "$slow_out" >&2
    rm -f "$slow_out"
    exit 1
fi
rm -f "$slow_out"

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "CI green."
