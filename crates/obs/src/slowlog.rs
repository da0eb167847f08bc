//! The `DOCQL_LOG`-gated slow-query log.
//!
//! Setting `DOCQL_LOG` to a threshold in milliseconds (integer or decimal,
//! e.g. `DOCQL_LOG=2.5`) makes serving paths print one line to stderr for
//! every query whose wall time meets the threshold. The line is rendered
//! from the query's finished [`QueryTrace`], so with the log on every query
//! is traced. Unset (or unparsable), the log is off and the only cost on
//! the query path is one cached `Option` check — the environment is read
//! exactly once per process.

use crate::trace::{json_escape, QueryTrace};
use std::sync::OnceLock;
use std::time::Duration;

/// Environment variable holding the threshold in milliseconds.
pub const SLOW_LOG_ENV: &str = "DOCQL_LOG";

/// Environment variable selecting the slow-log line format: `json` for the
/// structured variant, anything else (or unset) for the legacy plain line —
/// so current behavior is unchanged by default.
pub const SLOW_LOG_FORMAT_ENV: &str = "DOCQL_LOG_FORMAT";

/// The slow-log output format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlowLogFormat {
    /// The legacy one-line human-readable format.
    Plain,
    /// One JSON object per slow query, carrying its trace's id and phases.
    Json,
}

/// Parse a `DOCQL_LOG_FORMAT` value (case-insensitive; unknown → plain).
pub fn parse_log_format(s: &str) -> SlowLogFormat {
    if s.trim().eq_ignore_ascii_case("json") {
        SlowLogFormat::Json
    } else {
        SlowLogFormat::Plain
    }
}

/// The process-wide slow-log format, read once and cached.
pub fn slow_log_format() -> SlowLogFormat {
    static FORMAT: OnceLock<SlowLogFormat> = OnceLock::new();
    *FORMAT.get_or_init(|| {
        std::env::var(SLOW_LOG_FORMAT_ENV)
            .map(|s| parse_log_format(&s))
            .unwrap_or(SlowLogFormat::Plain)
    })
}

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

/// Render the plain log line for a slow query from its trace (separated
/// from printing so tests can pin the format). The trace's query text is
/// already flattened to one line.
pub fn slow_query_line(trace: &QueryTrace) -> String {
    format!(
        "[docql] slow query ({:.3} ms): {}",
        trace.total_ns as f64 / 1e6,
        trace.query
    )
}

/// The structured slow-log line: one JSON object with an `event` marker,
/// carrying the trace id, per-phase timings, and the governance outcome.
pub fn slow_query_json_line(t: &QueryTrace) -> String {
    let phases: Vec<String> = t
        .phases
        .iter()
        .map(|p| format!("\"{}\":{}", json_escape(p.name), p.ns))
        .collect();
    format!(
        "{{\"event\":\"slow_query\",\"trace_id\":\"{}\",\"ms\":{:.3},\"query\":\"{}\",\"phases\":{{{}}},\"governance\":\"{}\",\"outcome\":\"{}\",\"rows\":{}}}",
        t.id,
        t.total_ns as f64 / 1e6,
        json_escape(&t.query),
        phases.join(","),
        json_escape(&t.governance),
        json_escape(&t.outcome),
        t.rows
    )
}

/// Print the slow-query line for `trace` to stderr, in the process-wide
/// [`slow_log_format`].
pub fn log_slow_query(trace: &QueryTrace) {
    let line = match slow_log_format() {
        SlowLogFormat::Plain => slow_query_line(trace),
        SlowLogFormat::Json => slow_query_json_line(trace),
    };
    eprintln!("{line}");
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

    #[test]
    fn format_parsing_defaults_to_plain() {
        assert_eq!(parse_log_format("json"), SlowLogFormat::Json);
        assert_eq!(parse_log_format(" JSON "), SlowLogFormat::Json);
        assert_eq!(parse_log_format("plain"), SlowLogFormat::Plain);
        assert_eq!(parse_log_format(""), SlowLogFormat::Plain);
        assert_eq!(parse_log_format("yaml"), SlowLogFormat::Plain);
    }

    #[test]
    fn json_line_with_trace_carries_id_phases_governance() {
        let t = finished("select t from x", Duration::from_millis(2));
        let line = slow_query_json_line(&t);
        assert!(line.starts_with("{\"event\":\"slow_query\""));
        assert!(line.contains(&format!("\"trace_id\":\"{}\"", t.id)));
        assert!(line.contains("\"ms\":2.000"));
        assert!(line.contains("\"phases\":{\"parse\":100,\"execute\":900}"));
        assert!(line.contains("\"governance\":\"row budget exhausted\""));
        assert!(line.contains("\"outcome\":\"partial\""));
        assert!(line.contains("\"rows\":3"));
    }
}
