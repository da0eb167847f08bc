//! Percentiles, the sample-count rule, and the result line.

use std::fmt::Write as _;

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 200;

/// Nearest-rank percentile (`p` in `0..=100`) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted samples; NaN when there are none.
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// Samples strictly above the `p`-th percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// Does a sample of `n` support reporting the `p`-th percentile, with at
/// least [`MIN_TAIL_SAMPLES`] samples beyond it?
pub fn supports_percentile(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= MIN_TAIL_SAMPLES
}

/// The median of unsorted values; NaN when there are none (a run whose
/// operations all failed still reports, with `correct` false).
pub fn median(values: &[f64]) -> f64 {
    percentile_of(values, 50.0)
}

/// Is `name` a valid metric or workload name: a leading letter or digit,
/// then at most 63 more of `[A-Za-z0-9_.-]`?
pub fn valid_name(name: &str) -> bool {
    let mut bytes = name.bytes();
    matches!(bytes.next(), Some(b) if b.is_ascii_alphanumeric())
        && name.len() <= 64
        && bytes.all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many samples the value summarises (1 for a single reading).
    pub samples: usize,
}

/// The metrics of one run, in report order.
#[derive(Debug, Default)]
pub struct Report {
    /// Reported metrics.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Add a metric. Panics on an invalid or repeated name, which is a bug
    /// in this benchmark.
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        let name = name.into();
        assert!(valid_name(&name), "invalid metric name {name:?}");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name:?} reported twice"
        );
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// The human-readable table: name, value, unit and sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<34} {:>14.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_sample_rule() {
        assert_eq!(samples_beyond(10, 90.0), 1);
        assert_eq!(samples_beyond(2000, 90.0), 200);
        assert_eq!(samples_beyond(1, 50.0), 0);
        assert_eq!(samples_beyond(0, 90.0), 0);
        assert!(supports_percentile(2000, 90.0));
        assert!(!supports_percentile(1999, 90.0));
        assert!(!supports_percentile(0, 50.0));
        // p99 needs ten times the sample of p90.
        assert!(!supports_percentile(2000, 99.0));
        assert!(supports_percentile(20_000, 99.0));
    }

    #[test]
    fn metric_names() {
        for ok in ["setup_s", "serve.wire_us.q3", "store.fork_us.start", "9a-b"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "q\u{b5}s", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_metric_is_a_bug() {
        let mut r = Report::default();
        r.add("a", 1.0, "s", 1);
        r.add("a", 2.0, "s", 1);
    }

    #[test]
    fn json_line_shape() {
        let mut r = Report::default();
        r.add("latency_ms", 1.25, "ms", 10);
        r.add("setup_s", 0.5, "s", 5);
        assert_eq!(
            r.json_line(true, 12, 0),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
