//! Resource-governed execution at the store boundary: deadlines, budgets,
//! cancellation, degrade-mode partial results — and the
//! deterministic fault-injection harness (panics + forced budget trips at
//! operator boundaries) proving the store stays serviceable through all of
//! it.
//!
//! Fault streams are seed-driven ([`docql::guard::QueryLimits::with_fault_seed`]);
//! the base seed comes from `DOCQL_FAULT` so CI can pin one and a failing
//! seed replays exactly.

use docql::guard::{CancelToken, ExecError, QueryLimits, Resource};
use docql::prelude::*;
use docql::store::StoreError;
use std::time::{Duration, Instant};

mod util;
use util::{corpus_store, fault_base_seed, FAULT_CASES};

/// A query whose work grows as |Articles|³ — long enough on the 100×
/// corpus that a millisecond-scale deadline always lands mid-flight.
const SLOW_QUERY: &str = "select tuple (x: a.title, y: b.title) \
     from a in Articles, b in Articles, c in Articles \
     where a.title contains (\"SGML\")";

const CHEAP_QUERY: &str = "select t from my_article PATH_p.title(t)";

fn exec_err(r: Result<QueryResult, StoreError>) -> ExecError {
    match r {
        Err(e) => e
            .exec_error()
            .unwrap_or_else(|| panic!("expected a governance error, got {e}")),
        Ok(r) => panic!("expected a governance error, got {} row(s)", r.len()),
    }
}

#[test]
fn deadline_exceeded_is_typed_and_prompt() {
    let store = corpus_store(100);
    let limits = QueryLimits::none().with_deadline(Duration::from_millis(10));
    let t0 = Instant::now();
    let e = exec_err(store.query_traced(SLOW_QUERY, Mode::Interpret, &limits).0);
    let elapsed = t0.elapsed();
    assert_eq!(e, ExecError::DeadlineExceeded);
    // The acceptance bound is < 50 ms unloaded; allow scheduler headroom
    // for parallel test runs while still proving a prompt kill (the
    // unguarded query runs orders of magnitude longer).
    assert!(elapsed < Duration::from_millis(150), "took {elapsed:?}");
    // The store stays fully serviceable afterwards.
    let r = store.query(CHEAP_QUERY).unwrap();
    assert!(!r.is_empty());
    assert!(!r.is_partial());
}

#[test]
fn row_budget_trips_in_strict_mode_and_flags_in_degrade_mode() {
    let store = corpus_store(8);
    let q = "select t from Articles PATH_p.title(t)";
    let full = store.query(q).unwrap();
    assert!(full.len() > 2, "need enough rows to cut: {}", full.len());

    // `explain analyze` profiles under the same limits as the plain query.
    let strict = QueryLimits::none().with_row_budget(2);
    for src in [q.to_string(), format!("explain analyze {q}")] {
        assert_eq!(
            exec_err(store.query_traced(&src, Mode::Interpret, &strict).0),
            ExecError::BudgetExhausted(Resource::Rows),
            "{src}"
        );
    }

    let degrade = QueryLimits::none().with_row_budget(2).with_degrade();
    let partial = store.query_traced(q, Mode::Interpret, &degrade).0.unwrap();
    assert_eq!(
        partial.partial,
        Some(ExecError::BudgetExhausted(Resource::Rows))
    );
    assert!(partial.len() <= full.len());
    // Partial rows are a subset of the full answer, never invented.
    for row in &partial.rows {
        assert!(full.rows.contains(row), "partial row not in full answer");
    }

    // An ample budget changes nothing and is not flagged.
    let ample = QueryLimits::none()
        .with_row_budget(1_000_000)
        .with_degrade();
    let complete = store.query_traced(q, Mode::Interpret, &ample).0.unwrap();
    assert!(!complete.is_partial());
    assert_eq!(complete.rows, full.rows);
}

#[test]
fn path_fuel_trips_on_path_queries() {
    let store = corpus_store(8);
    let limits = QueryLimits::none().with_path_fuel(3);
    assert_eq!(
        exec_err(
            store
                .query_traced(
                    "select t from Articles PATH_p.title(t)",
                    Mode::Interpret,
                    &limits
                )
                .0
        ),
        ExecError::BudgetExhausted(Resource::PathFuel)
    );
    // Algebraic mode walks the same graph and burns the same fuel class.
    assert_eq!(
        exec_err(
            store
                .query_traced(
                    "select t from Articles PATH_p.title(t)",
                    Mode::Algebraic,
                    &limits
                )
                .0
        ),
        ExecError::BudgetExhausted(Resource::PathFuel)
    );
}

#[test]
fn near_chars_scans_charge_fuel() {
    let store = corpus_store(8);
    let q = "select a from a in Articles where near_chars(text(a), \"SGML\", \"OODBMS\", 400)";
    let full = store.query(q).unwrap();
    // The scans are the only fuel this query burns, so one unit starves it.
    let starved = QueryLimits::none().with_path_fuel(1);
    for mode in [Mode::Interpret, Mode::Algebraic] {
        assert_eq!(
            exec_err(store.query_traced(q, mode, &starved).0),
            ExecError::BudgetExhausted(Resource::PathFuel),
            "{mode:?}"
        );
    }
    let degrade = starved.with_degrade();
    let partial = store.query_traced(q, Mode::Interpret, &degrade).0.unwrap();
    assert_eq!(
        partial.partial,
        Some(ExecError::BudgetExhausted(Resource::PathFuel))
    );
    for row in &partial.rows {
        assert!(full.rows.contains(row), "partial row not in full answer");
    }
}

#[test]
fn cancellation_is_observed() {
    let store = corpus_store(4);
    let token = CancelToken::new();
    token.cancel();
    let limits = QueryLimits::none().with_cancel(token);
    for src in [
        SLOW_QUERY.to_string(),
        format!("explain analyze {SLOW_QUERY}"),
    ] {
        assert_eq!(
            exec_err(store.query_traced(&src, Mode::Interpret, &limits).0),
            ExecError::Cancelled,
            "{src}"
        );
    }
}

#[test]
fn governance_outcomes_are_counted_and_reported() {
    let store = corpus_store(8);
    store.set_metrics_enabled(true);
    let q = "select t from Articles PATH_p.title(t)";
    let strict = QueryLimits::none().with_row_budget(1);
    let _ = store.query_traced(q, Mode::Interpret, &strict).0;
    let degrade = QueryLimits::none().with_row_budget(1).with_degrade();
    let _ = store.query_traced(q, Mode::Interpret, &degrade).0.unwrap();
    let deadline = QueryLimits::none().with_deadline(Duration::ZERO);
    let _ = store.query_traced(SLOW_QUERY, Mode::Interpret, &deadline).0;
    assert!(store.metrics().queries_budget_exhausted.get() >= 1);
    assert!(store.metrics().queries_partial.get() >= 1);
    assert!(store.metrics().queries_deadline_exceeded.get() >= 1);
    let prom = store.metrics_registry().to_prometheus();
    assert!(prom.contains("docql_store_queries_budget_exhausted_total"));

    // EXPLAIN ANALYZE carries the governance outcome in degrade mode.
    let profile = store.profile(q, &degrade).unwrap();
    assert!(profile.result.is_partial());
    let report = profile.render();
    assert!(report.contains("governance: partial result"), "{report}");
}

/// The fault-injection harness proper: ≥ 64 seeded cases injecting panics
/// and forced budget trips at algebra operator boundaries. After every
/// case the store must stay serviceable, no partial result may leak
/// unflagged, and the plan cache must keep returning byte-identical
/// results.
#[test]
fn fault_injection_sweep_leaves_store_serviceable() {
    let store = corpus_store(8);
    store.set_metrics_enabled(true);
    let queries = [
        "select t from Articles PATH_p.title(t)",
        "select tuple (t: a.title, f_author: first(a.authors)) \
         from a in Articles, s in a.sections \
         where s.title contains (\"SGML\" and \"OODBMS\")",
        "select name(ATT_a) from my_article PATH_p.ATT_a(val) \
         where val contains (\"draft\")",
    ];
    let baseline: Vec<QueryResult> = queries
        .iter()
        .map(|q| store.query_algebraic(q).unwrap())
        .collect();
    let base = fault_base_seed();
    let (mut oks, mut trips, mut panics, mut flagged) = (0u64, 0u64, 0u64, 0u64);
    for case in 0..FAULT_CASES {
        let seed = base.wrapping_add(case);
        let qi = (case % queries.len() as u64) as usize;
        // Alternate strict and degrade mode across the sweep.
        let mut limits = QueryLimits::none().with_fault_seed(seed);
        if case % 2 == 1 {
            limits = limits.with_degrade();
        }
        match store.query_traced(queries[qi], Mode::Algebraic, &limits).0 {
            Ok(r) if r.is_partial() => flagged += 1,
            Ok(r) => {
                // An un-flagged Ok must be the complete, correct answer —
                // partial results never leak silently.
                assert_eq!(
                    r.rows, baseline[qi].rows,
                    "seed {seed:#x}: unflagged result differs from baseline"
                );
                oks += 1;
            }
            Err(StoreError::QueryPanic(_)) => panics += 1,
            Err(StoreError::Interrupted(ExecError::BudgetExhausted(_))) => trips += 1,
            Err(e) => panic!("seed {seed:#x}: unexpected error {e}"),
        }
        // Serviceable after every single case: an ungoverned query on the
        // same store (same plan cache, same locks) still answers exactly.
        let again = store.query_algebraic(queries[qi]).unwrap();
        assert_eq!(
            again.rows, baseline[qi].rows,
            "seed {seed:#x} wedged the store"
        );
        assert!(!again.is_partial());
    }
    // The sweep actually exercised every outcome class (the rates are
    // ~1.5% panic / ~3% trip per boundary crossing, many crossings per
    // query — 64 cases cannot miss them all).
    assert!(oks > 0, "no clean run in the sweep");
    assert!(panics > 0, "no injected panic in the sweep");
    assert!(trips + flagged > 0, "no injected budget trip in the sweep");
    assert_eq!(store.metrics().query_panics.get(), panics);

    // Plan cache consistency after the storm: entries survived, hits keep
    // accruing, and both modes still agree with the baseline.
    let stats = store.plan_cache_stats();
    assert!(stats.entries >= queries.len());
    for (q, b) in queries.iter().zip(&baseline) {
        assert_eq!(store.query_algebraic(q).unwrap().rows, b.rows);
        let interp = store.query(q).unwrap();
        assert_eq!(interp.rows.len(), b.rows.len());
    }
    let stats_after = store.plan_cache_stats();
    assert!(stats_after.hits > stats.hits, "cache still serving hits");
}

/// Deterministic replay: the same fault seed produces the same outcome.
#[test]
fn fault_injection_is_deterministic_per_seed() {
    let store = corpus_store(4);
    let q = "select t from Articles PATH_p.title(t)";
    let base = fault_base_seed();
    for case in 0..8 {
        let limits = QueryLimits::none().with_fault_seed(base.wrapping_add(case));
        let a = store.query_traced(q, Mode::Algebraic, &limits).0;
        let b = store.query_traced(q, Mode::Algebraic, &limits).0;
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(x, y),
            (Err(x), Err(y)) => assert_eq!(x.to_string(), y.to_string()),
            (x, y) => panic!(
                "seed {case} diverged: {:?} vs {:?}",
                x.map(|r| r.len()),
                y.map(|r| r.len())
            ),
        }
    }
}
