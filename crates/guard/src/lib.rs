//! Execution governance for docql queries: deadlines, budgets, cooperative
//! cancellation, and deterministic fault injection.
//!
//! The query pipeline (algebra operators, the calculus interpreter, path
//! enumeration, text scans) is cooperative: long loops periodically consult a
//! [`Guard`] built from [`QueryLimits`]. A guard lives and dies with one
//! query on one thread, so its counters are plain [`Cell`]s — a check is a
//! non-atomic bump, with the expensive `Instant::now()` deadline read
//! amortized over [`TICK_MASK`]` + 1` ticks — and an unguarded query (no
//! limits set) pays one `Option` test per row. The only cross-thread piece
//! is the [`CancelToken`], which is atomic and clonable.
//!
//! A guard trips **sticky**: the first exceeded limit is recorded in the
//! guard and every later check short-circuits, so deep recursion unwinds
//! quickly once any loop notices. Consumers read the authoritative trip via
//! [`Guard::trip`] after evaluation; inner error channels only need to carry
//! an opaque marker. In degrade mode ([`QueryLimits::degrade`]) a tripped
//! check yields [`Flow::Stop`] instead of [`Flow::Abort`]: loops break and
//! keep the rows produced so far, and the engine flags the result partial.
//!
//! The crate is dependency-free (std only) so the leaf crates — `paths`,
//! `text`, `calculus` — can depend on it without cycles.

pub mod rng;

pub use rng::SeededRng;

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which budget ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// The row/tuple budget ([`QueryLimits::row_budget`]).
    Rows,
    /// The path-step fuel ([`QueryLimits::path_fuel`]).
    PathFuel,
}

/// Structured outcome taxonomy for governed execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// A work budget ran out before the query finished.
    BudgetExhausted(Resource),
    /// The query's [`CancelToken`] was cancelled.
    Cancelled,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ExecError::BudgetExhausted(Resource::Rows) => write!(f, "row budget exhausted"),
            ExecError::BudgetExhausted(Resource::PathFuel) => {
                write!(f, "path-step fuel exhausted")
            }
            ExecError::Cancelled => write!(f, "query cancelled"),
        }
    }
}

impl std::error::Error for ExecError {}

/// What a governed loop should do after charging work to the guard.
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Budget remains — keep going.
    Continue,
    /// A limit tripped and the guard is in degrade mode: break out of the
    /// loop keeping the rows produced so far (the result will be flagged
    /// partial via [`Guard::trip`]).
    Stop,
    /// A limit tripped in strict mode: abort evaluation with this error.
    Abort(ExecError),
}

impl Flow {
    /// True unless the flow is [`Flow::Continue`].
    #[inline]
    pub fn interrupted(self) -> bool {
        !matches!(self, Flow::Continue)
    }
}

/// Clonable cooperative cancellation handle. Cancelling is a single store;
/// guarded loops observe it within one amortization window.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation of every query carrying a clone of this token.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has [`CancelToken::cancel`] been called?
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// An external cancellation probe, consulted by the [`Guard`] at amortized
/// check boundaries (every [`TICK_MASK`]` + 1` charged units — the probe
/// may cost a syscall, unlike the [`CancelToken`]'s single atomic load).
/// Returning `true` cancels the query exactly as the token does.
///
/// The serving tier uses this to detect client disconnects mid-query: the
/// probe peeks the connection socket, and an abandoned query stops burning
/// its budget within one amortization window instead of running to
/// completion for a peer that already hung up.
#[derive(Clone)]
pub struct CancelProbe(Arc<dyn Fn() -> bool + Send + Sync>);

impl CancelProbe {
    /// Wrap a probe callback. `f` must be cheap-ish (it runs about once per
    /// 256 charged work units) and must never panic or block.
    pub fn new(f: impl Fn() -> bool + Send + Sync + 'static) -> CancelProbe {
        CancelProbe(Arc::new(f))
    }

    /// Consult the probe: `true` means "cancel now".
    #[inline]
    pub fn should_cancel(&self) -> bool {
        (self.0)()
    }
}

impl std::fmt::Debug for CancelProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CancelProbe(..)")
    }
}

/// Per-call (or server default) resource limits. All fields optional;
/// `QueryLimits::default()` governs nothing.
#[derive(Debug, Clone, Default)]
pub struct QueryLimits {
    /// Wall-clock budget, measured from [`Guard::new`].
    pub deadline: Option<Duration>,
    /// Maximum rows/tuples materialized across all operator loops.
    pub row_budget: Option<u64>,
    /// Maximum path steps (graph-walk visits + enumeration steps).
    pub path_fuel: Option<u64>,
    /// On trip, return a flagged partial result instead of an error.
    pub degrade: bool,
    /// Cooperative cancellation handle shared with the caller.
    pub cancel: Option<CancelToken>,
    /// External cancellation probe (e.g. a socket-disconnect peek),
    /// consulted at amortized check boundaries. See [`CancelProbe`].
    pub probe: Option<CancelProbe>,
    /// Deterministic fault-injection seed (tests/CI only): operator
    /// boundaries consult a SplitMix64 stream to inject panics and forced
    /// budget trips.
    pub fault_seed: Option<u64>,
}

impl QueryLimits {
    /// No limits at all.
    pub fn none() -> QueryLimits {
        QueryLimits::default()
    }

    /// True when no field governs anything (a guard would be inert).
    pub fn is_none(&self) -> bool {
        self.deadline.is_none()
            && self.row_budget.is_none()
            && self.path_fuel.is_none()
            && self.cancel.is_none()
            && self.probe.is_none()
            && self.fault_seed.is_none()
    }

    /// Set the wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> QueryLimits {
        self.deadline = Some(d);
        self
    }

    /// Set the row/tuple budget.
    pub fn with_row_budget(mut self, n: u64) -> QueryLimits {
        self.row_budget = Some(n);
        self
    }

    /// Set the path-step fuel.
    pub fn with_path_fuel(mut self, n: u64) -> QueryLimits {
        self.path_fuel = Some(n);
        self
    }

    /// Return flagged partial results on trip instead of erroring.
    pub fn with_degrade(mut self) -> QueryLimits {
        self.degrade = true;
        self
    }

    /// Attach a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> QueryLimits {
        self.cancel = Some(token);
        self
    }

    /// Attach an external cancellation probe (see [`CancelProbe`]).
    pub fn with_probe(mut self, probe: CancelProbe) -> QueryLimits {
        self.probe = Some(probe);
        self
    }

    /// Attach a deterministic fault-injection seed.
    pub fn with_fault_seed(mut self, seed: u64) -> QueryLimits {
        self.fault_seed = Some(seed);
        self
    }

    /// Per-call limits override defaults (the HTTP server's `--deadline-ms`
    /// and friends) field-wise: any field the call leaves unset falls back
    /// to the default's value.
    pub fn or(mut self, defaults: &QueryLimits) -> QueryLimits {
        if self.deadline.is_none() {
            self.deadline = defaults.deadline;
        }
        if self.row_budget.is_none() {
            self.row_budget = defaults.row_budget;
        }
        if self.path_fuel.is_none() {
            self.path_fuel = defaults.path_fuel;
        }
        if self.cancel.is_none() {
            self.cancel = defaults.cancel.clone();
        }
        if self.probe.is_none() {
            self.probe = defaults.probe.clone();
        }
        if self.fault_seed.is_none() {
            self.fault_seed = defaults.fault_seed;
        }
        self.degrade |= defaults.degrade;
        self
    }
}

/// Deadline/cancel checks run every `TICK_MASK + 1` charged units.
pub const TICK_MASK: u64 = 0xFF;

const TRIP_NONE: u8 = 0;
const TRIP_DEADLINE: u8 = 1;
const TRIP_ROWS: u8 = 2;
const TRIP_FUEL: u8 = 3;
const TRIP_CANCELLED: u8 = 4;

fn trip_code(e: ExecError) -> u8 {
    match e {
        ExecError::DeadlineExceeded => TRIP_DEADLINE,
        ExecError::BudgetExhausted(Resource::Rows) => TRIP_ROWS,
        ExecError::BudgetExhausted(Resource::PathFuel) => TRIP_FUEL,
        ExecError::Cancelled => TRIP_CANCELLED,
    }
}

fn trip_error(code: u8) -> Option<ExecError> {
    match code {
        TRIP_DEADLINE => Some(ExecError::DeadlineExceeded),
        TRIP_ROWS => Some(ExecError::BudgetExhausted(Resource::Rows)),
        TRIP_FUEL => Some(ExecError::BudgetExhausted(Resource::PathFuel)),
        TRIP_CANCELLED => Some(ExecError::Cancelled),
        _ => None,
    }
}

/// One query's live governance state, built from [`QueryLimits`] at query
/// start and threaded by reference through evaluation.
#[derive(Debug)]
pub struct Guard {
    deadline: Option<Instant>,
    row_budget: Option<u64>,
    path_fuel: Option<u64>,
    cancel: Option<CancelToken>,
    probe: Option<CancelProbe>,
    degrade: bool,
    /// Rows charged so far.
    rows: Cell<u64>,
    /// Path steps charged so far.
    fuel: Cell<u64>,
    /// Charge events since the last deadline/cancel check.
    ticks: Cell<u64>,
    /// First trip, sticky (`TRIP_*` code).
    trip: Cell<u8>,
    fault: Option<FaultStream>,
}

impl Guard {
    /// Start governing: the deadline clock begins now.
    pub fn new(limits: &QueryLimits) -> Guard {
        Guard {
            deadline: limits.deadline.map(|d| Instant::now() + d),
            row_budget: limits.row_budget,
            path_fuel: limits.path_fuel,
            cancel: limits.cancel.clone(),
            probe: limits.probe.clone(),
            degrade: limits.degrade,
            rows: Cell::new(0),
            fuel: Cell::new(0),
            ticks: Cell::new(0),
            trip: Cell::new(TRIP_NONE),
            fault: limits.fault_seed.map(FaultStream::new),
        }
    }

    /// The first limit that tripped, if any. Authoritative: engines read
    /// this after evaluation to build typed errors / partial flags instead
    /// of parsing stringly inner errors.
    pub fn trip(&self) -> Option<ExecError> {
        trip_error(self.trip.get())
    }

    /// One load; true once any limit tripped. Recursive walkers use this to
    /// unwind fast without threading [`Flow`] everywhere.
    #[inline]
    pub fn tripped(&self) -> bool {
        self.trip.get() != TRIP_NONE
    }

    /// Degrade mode: trips stop loops (partial results) rather than abort.
    #[inline]
    pub fn degrades(&self) -> bool {
        self.degrade
    }

    /// (rows charged, path steps charged) so far.
    pub fn consumed(&self) -> (u64, u64) {
        (self.rows.get(), self.fuel.get())
    }

    fn record(&self, e: ExecError) -> Flow {
        // First writer wins; later trips keep the original cause.
        if self.trip.get() == TRIP_NONE {
            self.trip.set(trip_code(e));
        }
        self.resolved()
    }

    /// The sticky trip as a Flow (Continue when untripped).
    #[inline]
    fn resolved(&self) -> Flow {
        match self.trip() {
            None => Flow::Continue,
            Some(_) if self.degrade => Flow::Stop,
            Some(e) => Flow::Abort(e),
        }
    }

    /// Deadline amortized, cancellation immediate: the [`CancelToken`] is
    /// one relaxed atomic load, so it is consulted on **every** check — a
    /// cancelled query stops within one charged unit, not one amortization
    /// window. The expensive reads (`Instant::now()`, the external
    /// [`CancelProbe`]) still run only every [`TICK_MASK`]` + 1` calls.
    #[inline]
    pub fn check(&self) -> Flow {
        if self.tripped() {
            return self.resolved();
        }
        if let Some(tok) = &self.cancel {
            if tok.is_cancelled() {
                return self.record(ExecError::Cancelled);
            }
        }
        let t = self.ticks.get();
        self.ticks.set(t.wrapping_add(1));
        if t & TICK_MASK == 0 {
            return self.check_now();
        }
        Flow::Continue
    }

    /// Deadline + cancellation + probe, unamortized (query boundaries,
    /// expensive operator starts, every `TICK_MASK + 1`-th charged unit).
    pub fn check_now(&self) -> Flow {
        if self.tripped() {
            return self.resolved();
        }
        if let Some(tok) = &self.cancel {
            if tok.is_cancelled() {
                return self.record(ExecError::Cancelled);
            }
        }
        if let Some(probe) = &self.probe {
            if probe.should_cancel() {
                // Mirror the external decision onto the token so every
                // clone of it (other observers of this query) sees it too.
                if let Some(tok) = &self.cancel {
                    tok.cancel();
                }
                return self.record(ExecError::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return self.record(ExecError::DeadlineExceeded);
            }
        }
        Flow::Continue
    }

    /// Charge one materialized row/tuple, plus the amortized deadline tick.
    #[inline]
    pub fn row(&self) -> Flow {
        if self.tripped() {
            return self.resolved();
        }
        if let Some(budget) = self.row_budget {
            let used = self.rows.get();
            self.rows.set(used + 1);
            if used >= budget {
                return self.record(ExecError::BudgetExhausted(Resource::Rows));
            }
        }
        self.check()
    }

    /// Charge `n` path steps, plus the amortized deadline tick.
    #[inline]
    pub fn fuel(&self, n: u64) -> Flow {
        if self.tripped() {
            return self.resolved();
        }
        if let Some(budget) = self.path_fuel {
            let used = self.fuel.get().saturating_add(n);
            self.fuel.set(used);
            if used > budget {
                return self.record(ExecError::BudgetExhausted(Resource::PathFuel));
            }
        }
        self.check()
    }

    /// Fault-injection hook for operator boundaries. With no fault seed this
    /// is one `Option` test. With a seed, the deterministic stream may
    /// `panic!` (exercising `catch_unwind` isolation) or force a budget trip
    /// (returned as the usual [`Flow`]).
    #[inline]
    pub fn fault_point(&self, site: &'static str) -> Flow {
        let Some(fault) = &self.fault else {
            return Flow::Continue;
        };
        match fault.draw() {
            Fault::None => Flow::Continue,
            Fault::Panic => panic!("injected fault (docql-guard, site {site})"),
            Fault::Exhaust => {
                if self.tripped() {
                    self.resolved()
                } else {
                    self.record(ExecError::BudgetExhausted(Resource::Rows))
                }
            }
        }
    }
}

enum Fault {
    None,
    Panic,
    Exhaust,
}

/// Deterministic per-guard fault stream: the n-th `draw` across all sites is
/// a pure function of (seed, n), so a failing seed replays exactly.
#[derive(Debug)]
struct FaultStream {
    seed: u64,
    calls: Cell<u64>,
}

impl FaultStream {
    fn new(seed: u64) -> FaultStream {
        FaultStream {
            seed,
            calls: Cell::new(0),
        }
    }

    fn draw(&self) -> Fault {
        let n = self.calls.get();
        self.calls.set(n + 1);
        let x =
            SeededRng::seed_from_u64(self.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
        // ~1.5% panics, ~3% forced exhaustion per boundary crossing.
        match x % 64 {
            0 => Fault::Panic,
            1 | 2 => Fault::Exhaust,
            _ => Fault::None,
        }
    }
}

/// An injectable storage-I/O fault, drawn at write-ahead-log record
/// boundaries by the durable storage layer (`docql-durable`): the three
/// corruption shapes a real crash leaves behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// The record's frame was only partially written (crash mid-`write`).
    ShortWrite,
    /// A partial frame followed by stale garbage bytes (crash across a
    /// sector boundary over previously used space).
    TornTail,
    /// One byte of the frame flipped (media corruption; the checksum must
    /// catch it).
    FlipByte,
}

impl std::fmt::Display for IoFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoFault::ShortWrite => f.write_str("short write"),
            IoFault::TornTail => f.write_str("torn tail"),
            IoFault::FlipByte => f.write_str("flipped byte"),
        }
    }
}

/// Deterministic seed-driven stream of [`IoFault`]s, mirroring the query
/// fault stream above: the n-th `draw` is a pure function of `(seed, n)`,
/// so a failing seed replays exactly. Roughly one boundary in eight faults
/// (the three shapes equally likely), dense enough that a 64-seed sweep
/// exercises every shape.
#[derive(Debug)]
pub struct IoFaultStream {
    seed: u64,
    calls: Cell<u64>,
}

impl IoFaultStream {
    /// A stream over `seed`.
    pub fn new(seed: u64) -> IoFaultStream {
        IoFaultStream {
            seed,
            calls: Cell::new(0),
        }
    }

    /// The seed this stream draws from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Draw the fault decision for the next record boundary.
    pub fn draw(&self) -> Option<IoFault> {
        let x = self.next();
        match x % 24 {
            0 => Some(IoFault::ShortWrite),
            1 => Some(IoFault::TornTail),
            2 => Some(IoFault::FlipByte),
            _ => None,
        }
    }

    /// Deterministic auxiliary randomness (cut positions, garbage bytes),
    /// advancing the same stream as [`IoFaultStream::draw`].
    pub fn entropy(&self) -> u64 {
        self.next()
    }

    fn next(&self) -> u64 {
        let n = self.calls.get();
        self.calls.set(n + 1);
        SeededRng::seed_from_u64(self.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn unlimited_guard_never_trips() {
        let g = Guard::new(&QueryLimits::none());
        for _ in 0..10_000 {
            assert_eq!(g.row(), Flow::Continue);
            assert_eq!(g.fuel(3), Flow::Continue);
        }
        assert_eq!(g.trip(), None);
        assert!(!g.tripped());
    }

    #[test]
    fn row_budget_trips_sticky_and_strict() {
        let g = Guard::new(&QueryLimits::none().with_row_budget(5));
        for _ in 0..5 {
            assert_eq!(g.row(), Flow::Continue);
        }
        assert_eq!(
            g.row(),
            Flow::Abort(ExecError::BudgetExhausted(Resource::Rows))
        );
        // Sticky: every later check short-circuits to the same abort.
        assert_eq!(
            g.check(),
            Flow::Abort(ExecError::BudgetExhausted(Resource::Rows))
        );
        assert_eq!(g.trip(), Some(ExecError::BudgetExhausted(Resource::Rows)));
    }

    #[test]
    fn fuel_budget_counts_batches() {
        let g = Guard::new(&QueryLimits::none().with_path_fuel(10));
        assert_eq!(g.fuel(4), Flow::Continue);
        assert_eq!(g.fuel(6), Flow::Continue);
        assert_eq!(
            g.fuel(1),
            Flow::Abort(ExecError::BudgetExhausted(Resource::PathFuel))
        );
    }

    #[test]
    fn degrade_mode_stops_instead_of_aborting() {
        let g = Guard::new(&QueryLimits::none().with_row_budget(2).with_degrade());
        assert_eq!(g.row(), Flow::Continue);
        assert_eq!(g.row(), Flow::Continue);
        assert_eq!(g.row(), Flow::Stop);
        assert_eq!(g.trip(), Some(ExecError::BudgetExhausted(Resource::Rows)));
    }

    #[test]
    fn deadline_trips_within_one_window() {
        let g = Guard::new(&QueryLimits::none().with_deadline(Duration::from_millis(5)));
        let start = Instant::now();
        loop {
            match g.check() {
                Flow::Continue => {}
                Flow::Abort(e) => {
                    assert_eq!(e, ExecError::DeadlineExceeded);
                    break;
                }
                Flow::Stop => unreachable!(),
            }
            assert!(start.elapsed() < Duration::from_secs(5), "never tripped");
        }
    }

    #[test]
    fn cancellation_is_observed_on_the_very_next_check() {
        // Regression: the token used to be consulted only every
        // `TICK_MASK + 1` ticks, so a cancelled streaming query could run
        // up to 256 more charged units before noticing. The token is one
        // relaxed load — it must be seen by the next check, whatever the
        // tick phase.
        let token = CancelToken::new();
        let g = Guard::new(&QueryLimits::none().with_cancel(token.clone()));
        // Put the tick counter mid-window (worst case for the old code).
        for _ in 0..=(TICK_MASK / 2) {
            assert_eq!(g.check(), Flow::Continue);
        }
        token.cancel();
        assert_eq!(
            g.check(),
            Flow::Abort(ExecError::Cancelled),
            "cancellation must land on the next check, not the next window"
        );
    }

    #[test]
    fn cancellation_latency_is_bounded_by_one_row() {
        let token = CancelToken::new();
        let g = Guard::new(&QueryLimits::none().with_cancel(token.clone()));
        let mut rows_after_cancel = 0u64;
        for i in 0..100_000u64 {
            if i == 1_000 {
                token.cancel();
            }
            match g.row() {
                Flow::Continue => {
                    if i >= 1_000 {
                        rows_after_cancel += 1;
                    }
                }
                Flow::Abort(ExecError::Cancelled) => break,
                other => panic!("unexpected flow {other:?}"),
            }
        }
        assert_eq!(
            rows_after_cancel, 0,
            "no extra row may be produced after cancellation"
        );
    }

    #[test]
    fn probe_cancels_at_the_amortized_boundary_and_fires_the_token() {
        use std::sync::atomic::{AtomicBool, AtomicU64};
        let hung_up = Arc::new(AtomicBool::new(false));
        let polls = Arc::new(AtomicU64::new(0));
        let token = CancelToken::new();
        let probe = {
            let hung_up = Arc::clone(&hung_up);
            let polls = Arc::clone(&polls);
            CancelProbe::new(move || {
                polls.fetch_add(1, Ordering::Relaxed);
                hung_up.load(Ordering::Relaxed)
            })
        };
        let g = Guard::new(
            &QueryLimits::none()
                .with_cancel(token.clone())
                .with_probe(probe),
        );
        for _ in 0..(TICK_MASK + 1) * 4 {
            assert_eq!(g.check(), Flow::Continue);
        }
        let polled_before = polls.load(Ordering::Relaxed);
        assert!(
            polled_before <= 8,
            "probe is amortized, not per-tick: {polled_before} polls"
        );
        hung_up.store(true, Ordering::Relaxed);
        let mut extra = 0u64;
        loop {
            match g.check() {
                Flow::Continue => extra += 1,
                Flow::Abort(ExecError::Cancelled) => break,
                other => panic!("unexpected flow {other:?}"),
            }
            assert!(extra <= TICK_MASK + 1, "probe not consulted in a window");
        }
        // The probe decision is mirrored onto the token, so every other
        // clone of it observes the disconnect too.
        assert!(token.is_cancelled());
    }

    #[test]
    fn cancellation_observed_from_another_thread() {
        let token = CancelToken::new();
        let g = Guard::new(&QueryLimits::none().with_cancel(token.clone()));
        assert_eq!(g.check_now(), Flow::Continue);
        thread::spawn(move || token.cancel()).join().unwrap();
        assert_eq!(g.check_now(), Flow::Abort(ExecError::Cancelled));
    }

    #[test]
    fn limits_merge_prefers_call_over_defaults() {
        let defaults = QueryLimits::none()
            .with_row_budget(100)
            .with_deadline(Duration::from_secs(1));
        let call = QueryLimits::none().with_row_budget(5).or(&defaults);
        assert_eq!(call.row_budget, Some(5));
        assert_eq!(call.deadline, Some(Duration::from_secs(1)));
    }

    #[test]
    fn fault_stream_is_deterministic() {
        let draws = |seed: u64| -> Vec<u8> {
            let s = FaultStream::new(seed);
            (0..256)
                .map(|_| match s.draw() {
                    Fault::None => 0,
                    Fault::Panic => 1,
                    Fault::Exhaust => 2,
                })
                .collect()
        };
        assert_eq!(draws(42), draws(42));
        assert_ne!(draws(42), draws(43));
        // The stream actually injects something at these rates.
        assert!(draws(7).iter().any(|&d| d != 0));
    }

    #[test]
    fn fault_point_panics_are_deterministic() {
        // Find a seed/point that panics, and check it panics again.
        let seed = (0..200u64)
            .find(|&s| {
                let g = Guard::new(&QueryLimits::none().with_fault_seed(s));
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    for _ in 0..64 {
                        let _ = g.fault_point("test");
                    }
                }))
                .is_err()
            })
            .expect("some seed panics within 64 draws");
        let again = Guard::new(&QueryLimits::none().with_fault_seed(seed));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for _ in 0..64 {
                let _ = again.fault_point("test");
            }
        }));
        assert!(r.is_err(), "seed {seed} must panic deterministically");
    }
}
