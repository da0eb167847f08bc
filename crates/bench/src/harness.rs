//! A minimal, std-only benchmark harness with a criterion-shaped API.
//!
//! The container builds offline, so `criterion` cannot be fetched from
//! crates.io; this module keeps the bench files' structure (groups,
//! parameterised ids, `Bencher::iter`) while measuring with plain
//! [`std::time::Instant`]. Each benchmark warms up, picks an iteration
//! count targeting a fixed measurement window, and reports the mean and
//! best per-iteration time on stdout.
//!
//! Set `DOCQL_BENCH_MS` to change the per-benchmark measurement window
//! (milliseconds, default 25).
//!
//! [`interleaved`] is the A/B methodology for few-percent overhead gates
//! (B10, B11, B15): criterion-style variants run one after another, so slow
//! drift between the passes can dwarf the effect being measured.

use std::time::{Duration, Instant};

/// Measurement window per benchmark.
fn measure_window() -> Duration {
    let ms = std::env::var("DOCQL_BENCH_MS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(25);
    Duration::from_millis(ms.max(1))
}

/// One benchmark's summary.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Full benchmark name (`group/function/param`).
    pub name: String,
    /// Mean wall time per iteration.
    pub mean: Duration,
    /// Best (minimum) sample per iteration.
    pub best: Duration,
    /// Total iterations measured.
    pub iters: u64,
}

/// The top-level harness handle (mirrors `criterion::Criterion`).
#[derive(Default)]
pub struct Criterion {
    /// Every completed measurement, for programmatic inspection.
    pub samples: Vec<Sample>,
}

impl Criterion {
    /// Start a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.to_string(),
        }
    }

    /// Run one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Criterion
    where
        F: FnOnce(&mut Bencher),
    {
        run_one(self, name.to_string(), f);
        self
    }
}

/// A named group of benchmarks (mirrors `criterion::BenchmarkGroup`).
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for criterion compatibility; the std harness sizes samples
    /// by wall time, so this is a no-op.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Run a benchmark within the group (accepts a plain name or a
    /// [`BenchmarkId`], like criterion's `IntoBenchmarkId`).
    pub fn bench_function<I, F>(&mut self, id: I, f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        F: FnOnce(&mut Bencher),
    {
        let name = format!("{}/{}", self.name, id.into().id);
        run_one(self.c, name, f);
        self
    }

    /// Run a parameterised benchmark within the group.
    pub fn bench_with_input<P: ?Sized, F>(&mut self, id: BenchmarkId, input: &P, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher, &P),
    {
        let name = format!("{}/{}", self.name, id.id);
        run_one(self.c, name, |b| f(b, input));
        self
    }

    /// End the group (criterion compatibility; nothing to flush).
    pub fn finish(self) {}
}

/// A `function/parameter` benchmark id (mirrors `criterion::BenchmarkId`).
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Combine a function name and a displayable parameter.
    pub fn new(function: &str, param: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId {
            id: format!("{function}/{param}"),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(id: &str) -> BenchmarkId {
        BenchmarkId { id: id.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> BenchmarkId {
        BenchmarkId { id }
    }
}

/// Passed to the benchmark closure; call [`Bencher::iter`] with the code
/// under test.
pub struct Bencher {
    result: Option<(Duration, Duration, u64)>,
}

impl Bencher {
    /// Measure a closure: warm up, size the iteration count to the
    /// measurement window, then time batches.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let window = measure_window();
        // Warm-up and per-iteration estimate.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < window / 5 || warm_iters < 3 {
            std::hint::black_box(f());
            warm_iters += 1;
            if warm_iters >= 1_000_000 {
                break;
            }
        }
        let per_iter = warm_start.elapsed().as_nanos().max(1) / u128::from(warm_iters);
        // Batches of roughly a tenth of the window each, at least 1 iter.
        let batch = ((window.as_nanos() / 10) / per_iter.max(1)).clamp(1, 1_000_000) as u64;
        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        let mut best = Duration::MAX;
        while total < window {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            let dt = t0.elapsed();
            total += dt;
            iters += batch;
            let sample = per_iter_duration(dt, batch);
            if sample < best {
                best = sample;
            }
        }
        let mean = per_iter_duration(total, iters);
        self.result = Some((mean, best, iters));
    }
}

/// `total / iters` computed in `u128` nanoseconds. `Duration`'s `Div` only
/// takes a `u32` divisor, and clamping the count to `u32::MAX` would silently
/// inflate per-iteration timings once `iters` exceeds it.
fn per_iter_duration(total: Duration, iters: u64) -> Duration {
    let ns = total.as_nanos() / u128::from(iters.max(1));
    // A per-iteration mean always fits u64 ns (u64::MAX ns ≈ 584 years).
    Duration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
}

fn run_one<F: FnOnce(&mut Bencher)>(c: &mut Criterion, name: String, f: F) {
    let mut b = Bencher { result: None };
    f(&mut b);
    let (mean, best, iters) = b.result.unwrap_or((Duration::ZERO, Duration::ZERO, 0));
    println!(
        "bench {name:<48} mean {:>12}  best {:>12}  ({iters} iters)",
        fmt_duration(mean),
        fmt_duration(best),
    );
    c.samples.push(Sample {
        name,
        mean,
        best,
        iters,
    });
}

/// Best-of-run wall time per call of `a` and of `b`, measured
/// A/B-interleaved: each of `iters` rounds runs `a` once and then `b` once,
/// so slow drift (CPU frequency, noisy neighbours) hits both sides alike
/// and cancels. Both sides are warmed first. The minimum is the robust
/// estimator under one-sided scheduler noise.
pub fn interleaved<RA, RB>(
    mut a: impl FnMut() -> RA,
    mut b: impl FnMut() -> RB,
    iters: u64,
) -> (Duration, Duration) {
    for _ in 0..3 {
        std::hint::black_box(a());
        std::hint::black_box(b());
    }
    let (mut best_a, mut best_b) = (Duration::MAX, Duration::MAX);
    for _ in 0..iters.max(1) {
        let t = Instant::now();
        std::hint::black_box(a());
        best_a = best_a.min(t.elapsed());
        let t = Instant::now();
        std::hint::black_box(b());
        best_b = best_b.min(t.elapsed());
    }
    (best_a, best_b)
}

/// `b`'s overhead over `a` in percent (`+5.0` = 5 % slower).
pub fn overhead_pct(a: Duration, b: Duration) -> f64 {
    (b.as_secs_f64() / a.as_secs_f64().max(1e-12) - 1.0) * 100.0
}

/// Render a duration with an adaptive unit.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Mirrors `criterion::criterion_group!`: bundle bench functions into one
/// runner function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($f:path),+ $(,)?) => {
        fn $name(c: &mut $crate::harness::Criterion) {
            $( $f(c); )+
        }
    };
}

/// Mirrors `criterion::criterion_main!`: run the groups from `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::harness::Criterion::default();
            $( $group(&mut c); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_records() {
        let mut c = Criterion::default();
        std::env::set_var("DOCQL_BENCH_MS", "2");
        c.bench_function("smoke", |b| b.iter(|| 2 + 2));
        assert_eq!(c.samples.len(), 1);
        assert!(c.samples[0].iters > 0);
    }

    #[test]
    fn per_iter_division_is_exact_beyond_u32_iters() {
        // 2³² + 4 iterations at exactly 2 ns each. A u32-clamped divisor
        // would divide by u32::MAX and report ~2 ns × (iters/u32::MAX) ≈ 2 ns
        // only by luck of rounding; make the exact quotient mandatory.
        let iters = u64::from(u32::MAX) + 5;
        let total = Duration::from_nanos(2) * u32::MAX + Duration::from_nanos(10);
        assert_eq!(per_iter_duration(total, iters), Duration::from_nanos(2));
        // Below the boundary it agrees with plain Duration division.
        let total = Duration::from_micros(700);
        assert_eq!(per_iter_duration(total, 7), total / 7);
        // Zero iterations must not divide by zero.
        assert_eq!(per_iter_duration(total, 0), total);
    }

    #[test]
    fn interleaved_alternates_and_keeps_the_minimum() {
        let order = std::cell::RefCell::new(Vec::new());
        let (a, b) = interleaved(
            || order.borrow_mut().push('a'),
            || {
                order.borrow_mut().push('b');
                std::thread::sleep(Duration::from_millis(1));
            },
            2,
        );
        assert_eq!(order.borrow().iter().collect::<String>(), "ababababab");
        assert!(b >= Duration::from_millis(1) && a < b, "{a:?} vs {b:?}");
        assert!(
            (overhead_pct(Duration::from_micros(100), Duration::from_micros(105)) - 5.0).abs()
                < 1e-9
        );
    }

    #[test]
    fn group_names_compose() {
        let mut c = Criterion::default();
        std::env::set_var("DOCQL_BENCH_MS", "2");
        let mut g = c.benchmark_group("G");
        g.sample_size(10);
        g.bench_with_input(BenchmarkId::new("f", 7), &7usize, |b, &n| b.iter(|| n * 2));
        g.finish();
        assert_eq!(c.samples[0].name, "G/f/7");
    }
}
