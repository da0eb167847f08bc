//! The `DOCQL_LOG`-gated slow-query log.
//!
//! Setting `DOCQL_LOG` to a threshold in milliseconds (integer or decimal,
//! e.g. `DOCQL_LOG=2.5`) sets the [`FlightRecorder`](crate::FlightRecorder)'s
//! slow cutoff, turns the recorder on, and makes it print one line to
//! stderr for every trace it marks slow — the same cutoff that fills the
//! slow/error reservoir and the `docql_store_slow_queries_total` counter.
//! The line is rendered from the finished [`QueryTrace`]; the full record,
//! `"slow"` flag included, goes to the `DOCQL_TRACE` JSON-lines sink.
//! Unset (or unparsable), nothing is printed. The environment is read
//! exactly once per process.

use crate::trace::QueryTrace;
use std::sync::OnceLock;
use std::time::Duration;

/// Environment variable holding the threshold in milliseconds.
pub const SLOW_LOG_ENV: &str = "DOCQL_LOG";

/// Parse a threshold string (milliseconds, integer or decimal) into a
/// duration. Negative, empty, and non-numeric values disable the log.
pub fn parse_threshold_ms(s: &str) -> Option<Duration> {
    let ms: f64 = s.trim().parse().ok()?;
    if ms.is_finite() && ms >= 0.0 {
        Some(Duration::from_secs_f64(ms / 1e3))
    } else {
        None
    }
}

/// The process-wide threshold from `DOCQL_LOG`, read once and cached.
pub fn slow_query_threshold() -> Option<Duration> {
    static THRESHOLD: OnceLock<Option<Duration>> = OnceLock::new();
    *THRESHOLD.get_or_init(|| {
        std::env::var(SLOW_LOG_ENV)
            .ok()
            .and_then(|s| parse_threshold_ms(&s))
    })
}

/// Render the log line for a slow query from its trace (separated from
/// printing so tests can pin the format). The trace's query text is
/// already flattened to one line.
pub fn slow_query_line(trace: &QueryTrace) -> String {
    format!(
        "[docql] slow query ({:.3} ms): {}",
        trace.total_ns as f64 / 1e6,
        trace.query
    )
}

/// Print the slow-query line for `trace` to stderr.
pub fn log_slow_query(trace: &QueryTrace) {
    eprintln!("{}", slow_query_line(trace));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_integer_and_decimal_ms() {
        assert_eq!(parse_threshold_ms("5"), Some(Duration::from_millis(5)));
        assert_eq!(
            parse_threshold_ms(" 2.5 "),
            Some(Duration::from_micros(2500))
        );
        assert_eq!(parse_threshold_ms("0"), Some(Duration::ZERO));
        assert_eq!(parse_threshold_ms("-1"), None);
        assert_eq!(parse_threshold_ms("fast"), None);
        assert_eq!(parse_threshold_ms(""), None);
    }

    fn finished(query: &str, total: Duration) -> QueryTrace {
        let b = crate::FlightRecorder::default().begin(query);
        b.phase("parse", Duration::from_nanos(100));
        b.phase("execute", Duration::from_nanos(900));
        b.finish("partial", "row budget exhausted", None, 3, total)
    }

    #[test]
    fn line_is_single_line_and_carries_timing() {
        let line = slow_query_line(&finished("select t\nfrom x", Duration::from_micros(1500)));
        assert!(!line.contains('\n'));
        assert!(line.contains("1.500 ms"));
        assert!(line.contains("select t from x"));
    }
}
