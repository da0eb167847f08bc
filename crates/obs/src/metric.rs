//! The metric primitives: atomic counters, gauges, and log2-bucket
//! histograms.
//!
//! Every handle is a cheap [`Arc`] clone around its atomics, so the same
//! metric can live both in a hot-path struct (a store's pre-resolved
//! counters) and in a [`crate::MetricsRegistry`] that exports it — updates
//! through either handle are visible to both. All updates use relaxed
//! atomics: metrics are monotone statistics, not synchronisation edges.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero. Exporters treat counters as monotone, so this is for
    /// phase isolation in benches and tests (e.g. [`reset`] on a plan
    /// cache), not for serving-time use.
    ///
    /// [`reset`]: Counter::reset
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A gauge: a value that goes up and down.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets. Bucket `0` holds the value `0`; bucket `i`
/// (for `0 < i < BUCKETS-1`) holds values `v` with `2^(i-1) <= v < 2^i`;
/// the last bucket absorbs everything larger.
pub const BUCKETS: usize = 64;

/// The bucket index for a recorded value.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// The *exclusive* upper bound of bucket `i` (`None` for the unbounded last
/// bucket): values `v < upper_bound(i)` with `v >= upper_bound(i-1)` land in
/// bucket `i`.
pub fn bucket_upper_bound(i: usize) -> Option<u64> {
    if i + 1 >= BUCKETS {
        None
    } else {
        Some(1u64 << i)
    }
}

#[derive(Debug)]
struct HistInner {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for HistInner {
    fn default() -> HistInner {
        HistInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// A log2-bucket histogram of `u64` samples (typically nanoseconds).
///
/// Invariants, checkable from any snapshot taken while no recording is in
/// flight: `count` equals the sum of all bucket counts, and `sum` lies
/// within the interval implied by the populated buckets.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    ///
    /// The count is bumped before the bucket, and the bucket store is
    /// `Release` against the `Acquire` loads in [`Histogram::buckets`]: a
    /// snapshot that observes a bucket increment therefore also observes
    /// its count increment, so cumulative bucket prefixes never exceed the
    /// snapshot's `count` — even while recordings are in flight.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Release);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (not cumulative). Read buckets **before** `count`
    /// when checking invariants against a live histogram — see
    /// [`Histogram::record`] for the ordering contract.
    pub fn buckets(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.0.buckets) {
            *o = b.load(Ordering::Acquire);
        }
        out
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// Reset all buckets and totals (bench/test phase isolation, like
    /// [`Counter::reset`]).
    pub fn reset(&self) {
        for b in &self.0.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.0.sum.store(0, Ordering::Relaxed);
        self.0.count.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        c.add(0);
        assert_eq!(c.get(), 5);
        let c2 = c.clone();
        c2.inc();
        assert_eq!(c.get(), 6, "clones share the cell");
        c.reset();
        assert_eq!(c2.get(), 0);

        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Every value lands strictly below its bucket's upper bound and at
        // or above the previous bucket's.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 40] {
            let b = bucket_of(v);
            if let Some(ub) = bucket_upper_bound(b) {
                assert!(v < ub, "{v} in bucket {b} bound {ub}");
            }
            if b > 0 {
                let lb = bucket_upper_bound(b - 1).unwrap();
                assert!(v >= lb, "{v} in bucket {b} lower bound {lb}");
            }
        }
    }

    #[test]
    fn histogram_totals_match_buckets() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 5, 300, 70_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 70_307);
        assert_eq!(h.buckets().iter().sum::<u64>(), h.count());
        assert_eq!(h.mean(), 70_307 / 6);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.buckets().iter().sum::<u64>(), 0);
    }
}
