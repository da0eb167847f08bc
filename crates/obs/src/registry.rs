//! The metrics registry: named metrics, an enable flag, and exporters.
//!
//! A registry is a namespace of metrics plus one process-visible switch.
//! Instrumented components pre-resolve their metric handles at construction
//! (a [`crate::Counter`] is an `Arc` clone, so the registry and the hot path
//! share the cells) and check [`MetricsRegistry::enabled`] **once per
//! query** — the disabled cost is a single relaxed atomic load, which is
//! what keeps instrumentation always-compiled yet within noise.
//!
//! Each `DocStore` owns its own registry so per-store counts stay exact
//! under parallel test execution.

use crate::metric::{bucket_upper_bound, Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A handle to any registered metric.
#[derive(Clone, Debug)]
pub enum Metric {
    /// Monotone counter.
    Counter(Counter),
    /// Up/down gauge.
    Gauge(Gauge),
    /// Log2-bucket histogram.
    Histogram(Histogram),
}

/// A point-in-time reading of one metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram reading.
    Histogram(HistogramSnapshot),
}

/// A histogram reading: totals plus cumulative buckets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// `(exclusive upper bound, cumulative count)` for every populated
    /// bucket prefix; the unbounded last bucket is implied by `count`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// inside the log2 bucket holding the rank — the standard
    /// Prometheus-style estimate, so the error is bounded by the bucket
    /// width (the estimate lands in the same power-of-two bucket as the
    /// exact quantile). `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 || !q.is_finite() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut lower = 0u64;
        for (j, &(upper, cum)) in self.buckets.iter().enumerate() {
            if cum >= rank {
                let prev_cum = if j == 0 { 0 } else { self.buckets[j - 1].1 };
                let in_bucket = cum - prev_cum;
                let pos = rank - prev_cum; // 1 ..= in_bucket
                let width = upper - lower;
                let est = lower + ((width as u128 * pos as u128) / in_bucket as u128) as u64;
                return Some(est.clamp(lower, upper.saturating_sub(1)));
            }
            lower = upper;
        }
        // The rank falls in the implied unbounded last bucket: report its
        // lower bound ("at least this much").
        Some(lower)
    }
}

/// Quantiles exported for every histogram: `(q, prometheus label, JSON
/// key)`.
const QUANTILES: [(f64, &str, &str); 3] = [
    (0.5, "0.5", "p50"),
    (0.95, "0.95", "p95"),
    (0.99, "0.99", "p99"),
];

/// A point-in-time reading of a whole registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Name → value, sorted by name.
    pub entries: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// A counter's value, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.entries.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// A gauge's value, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.entries.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// A histogram reading, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.entries.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Render in the Prometheus text exposition format (counters, gauges,
    /// and cumulative `_bucket`/`_sum`/`_count` histogram series).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    for (le, cum) in &h.buckets {
                        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
                    }
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
                    out.push_str(&format!("{name}_sum {}\n", h.sum));
                    out.push_str(&format!("{name}_count {}\n", h.count));
                    for (q, label, _) in QUANTILES {
                        if let Some(v) = h.quantile(q) {
                            out.push_str(&format!("{name}{{quantile=\"{label}\"}} {v}\n"));
                        }
                    }
                }
            }
        }
        out
    }

    /// Render as a JSON object (hand-rolled; metric names are identifiers
    /// and need no escaping).
    pub fn to_json(&self) -> String {
        let mut parts = Vec::with_capacity(self.entries.len());
        for (name, value) in &self.entries {
            let body = match value {
                MetricValue::Counter(v) => format!("{{\"type\":\"counter\",\"value\":{v}}}"),
                MetricValue::Gauge(v) => format!("{{\"type\":\"gauge\",\"value\":{v}}}"),
                MetricValue::Histogram(h) => {
                    let buckets: Vec<String> = h
                        .buckets
                        .iter()
                        .map(|(le, cum)| format!("[{le},{cum}]"))
                        .collect();
                    let quantiles: String = QUANTILES
                        .iter()
                        .filter_map(|&(q, _, key)| h.quantile(q).map(|v| format!(",\"{key}\":{v}")))
                        .collect();
                    format!(
                        "{{\"type\":\"histogram\",\"count\":{},\"sum\":{},\"buckets\":[{}]{}}}",
                        h.count,
                        h.sum,
                        buckets.join(","),
                        quantiles
                    )
                }
            };
            parts.push(format!("\"{name}\":{body}"));
        }
        format!("{{{}}}", parts.join(","))
    }
}

/// A namespace of named metrics with an enable switch.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    enabled: AtomicBool,
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// A fresh registry, **disabled** — instrumented components that gate
    /// on [`MetricsRegistry::enabled`] record nothing until
    /// [`MetricsRegistry::set_enabled`] turns them on.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Is recording on? One relaxed load — the per-query gate.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off. Metric values are kept either way.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Get or create the counter `name`. A registered metric of another
    /// type under the same name is replaced (last registration wins).
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.lock();
        match metrics.get(name) {
            Some(Metric::Counter(c)) => c.clone(),
            _ => {
                let c = Counter::new();
                metrics.insert(name.to_string(), Metric::Counter(c.clone()));
                c
            }
        }
    }

    /// Get or create the gauge `name` (same replacement rule as
    /// [`MetricsRegistry::counter`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.lock();
        match metrics.get(name) {
            Some(Metric::Gauge(g)) => g.clone(),
            _ => {
                let g = Gauge::new();
                metrics.insert(name.to_string(), Metric::Gauge(g.clone()));
                g
            }
        }
    }

    /// Get or create the histogram `name` (same replacement rule as
    /// [`MetricsRegistry::counter`]).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = self.lock();
        match metrics.get(name) {
            Some(Metric::Histogram(h)) => h.clone(),
            _ => {
                let h = Histogram::new();
                metrics.insert(name.to_string(), Metric::Histogram(h.clone()));
                h
            }
        }
    }

    /// Adopt an existing counter under `name` — for components that own
    /// their counters (e.g. a plan cache) but want them exported.
    pub fn register_counter(&self, name: &str, c: &Counter) {
        self.lock()
            .insert(name.to_string(), Metric::Counter(c.clone()));
    }

    /// Adopt an existing gauge under `name`.
    pub fn register_gauge(&self, name: &str, g: &Gauge) {
        self.lock()
            .insert(name.to_string(), Metric::Gauge(g.clone()));
    }

    /// Read every metric at this instant.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.lock();
        let mut entries = BTreeMap::new();
        for (name, metric) in metrics.iter() {
            let value = match metric {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                Metric::Histogram(h) => {
                    let raw = h.buckets();
                    let mut cum = 0u64;
                    let mut buckets = Vec::new();
                    let last_nonzero = raw.iter().rposition(|&c| c != 0).unwrap_or(0);
                    for (i, c) in raw.iter().enumerate().take(last_nonzero + 1) {
                        cum += c;
                        if let Some(ub) = bucket_upper_bound(i) {
                            buckets.push((ub, cum));
                        }
                    }
                    MetricValue::Histogram(HistogramSnapshot {
                        count: h.count(),
                        sum: h.sum(),
                        buckets,
                    })
                }
            };
            entries.insert(name.clone(), value);
        }
        MetricsSnapshot { entries }
    }

    /// [`MetricsSnapshot::to_prometheus`] of a fresh snapshot.
    pub fn to_prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }

    /// [`MetricsSnapshot::to_json`] of a fresh snapshot.
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }

    /// Names currently registered (diagnostics).
    pub fn names(&self) -> Vec<String> {
        self.lock().keys().cloned().collect()
    }

    /// The guarded map, recovering from poisoning: every critical section
    /// only inserts complete entries, so an abandoned map is still valid.
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// An `Arc`-shared registry — the shape components hold.
pub type SharedRegistry = Arc<MetricsRegistry>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_cell() {
        let r = MetricsRegistry::new();
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(r.snapshot().counter("x_total"), Some(1));
    }

    #[test]
    fn enabled_flag_defaults_off() {
        let r = MetricsRegistry::new();
        assert!(!r.enabled());
        r.set_enabled(true);
        assert!(r.enabled());
    }

    #[test]
    fn adopted_counter_is_exported_live() {
        let r = MetricsRegistry::new();
        let c = Counter::new();
        r.register_counter("adopted_total", &c);
        c.add(3);
        assert_eq!(r.snapshot().counter("adopted_total"), Some(3));
    }

    #[test]
    fn prometheus_shape() {
        let r = MetricsRegistry::new();
        r.counter("q_total").add(2);
        r.gauge("depth").set(-1);
        let h = r.histogram("lat_ns");
        h.record(3);
        h.record(900);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE q_total counter\nq_total 2\n"));
        assert!(text.contains("# TYPE depth gauge\ndepth -1\n"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_ns_sum 903"));
        assert!(text.contains("lat_ns_count 2"));
    }

    #[test]
    fn json_is_balanced_and_complete() {
        let r = MetricsRegistry::new();
        r.counter("a_total").inc();
        r.histogram("h_ns").record(5);
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a_total\":{\"type\":\"counter\",\"value\":1}"));
        assert!(json.contains("\"h_ns\":{\"type\":\"histogram\",\"count\":1,\"sum\":5"));
    }

    /// Exact quantile of a sorted sample set, by the same nearest-rank
    /// definition the estimator targets.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn quantile_estimates_pin_to_exact_on_known_distributions() {
        // Uniform 1..=1000, a two-point distribution, and powers of two:
        // the estimate must land in the same log2 bucket as the exact
        // quantile (error < 2x), and interpolation keeps it within the
        // bucket bounds.
        let distributions: Vec<Vec<u64>> = vec![
            (1..=1000).collect(),
            std::iter::repeat_n(10u64, 90)
                .chain(std::iter::repeat_n(100_000u64, 10))
                .collect(),
            (0..12).map(|i| 1u64 << i).collect(),
        ];
        for samples in distributions {
            let r = MetricsRegistry::new();
            let h = r.histogram("d");
            for &v in &samples {
                h.record(v);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let snap = r.snapshot();
            let hs = snap.histogram("d").unwrap();
            for &(q, _, _) in &QUANTILES {
                let est = hs.quantile(q).unwrap();
                let exact = exact_quantile(&sorted, q);
                assert_eq!(
                    crate::bucket_of(est),
                    crate::bucket_of(exact),
                    "q={q}: estimate {est} must share a bucket with exact {exact}"
                );
            }
        }
    }

    #[test]
    fn quantile_edge_cases() {
        let empty = HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: Vec::new(),
        };
        assert_eq!(empty.quantile(0.5), None);

        let r = MetricsRegistry::new();
        let h = r.histogram("one");
        h.record(0);
        let snap = r.snapshot();
        let hs = snap.histogram("one").unwrap();
        assert_eq!(hs.quantile(0.5), Some(0), "all-zero samples estimate 0");
        assert_eq!(hs.quantile(0.0), Some(0));
        assert_eq!(hs.quantile(1.0), Some(0));

        // Samples in the unbounded last bucket: the estimate reports at
        // least the bucket's lower bound.
        let r2 = MetricsRegistry::new();
        let h2 = r2.histogram("huge");
        h2.record(u64::MAX);
        let snap2 = r2.snapshot();
        let hs2 = snap2.histogram("huge").unwrap();
        assert_eq!(hs2.quantile(0.99), Some(1u64 << 62));
    }

    #[test]
    fn exporters_carry_quantiles() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat_ns");
        for v in 1..=100u64 {
            h.record(v);
        }
        let prom = r.to_prometheus();
        assert!(prom.contains("lat_ns{quantile=\"0.5\"}"));
        assert!(prom.contains("lat_ns{quantile=\"0.95\"}"));
        assert!(prom.contains("lat_ns{quantile=\"0.99\"}"));
        let json = r.to_json();
        assert!(json.contains("\"p50\":"));
        assert!(json.contains("\"p95\":"));
        assert!(json.contains("\"p99\":"));
    }

    #[test]
    fn histogram_snapshot_buckets_are_cumulative() {
        let r = MetricsRegistry::new();
        let h = r.histogram("h");
        for v in [1u64, 1, 2, 8] {
            h.record(v);
        }
        let snap = r.snapshot();
        let hs = snap.histogram("h").unwrap();
        assert_eq!(hs.count, 4);
        let mut prev = 0;
        for &(_, cum) in &hs.buckets {
            assert!(cum >= prev, "cumulative counts are non-decreasing");
            prev = cum;
        }
        assert!(prev <= hs.count);
    }
}
