//! Serving-tier metrics: the handle bundle the HTTP server (`docql-serve`)
//! resolves into the store's registry, so connection/request telemetry
//! exports through the same `/metrics` endpoint as the query pipeline's.
//!
//! Lives here rather than in the server crate so the bundle follows the
//! same conventions (one `register` per registry, `docql_serve_*` names)
//! as every other bundle, and so embedders without the server crate can
//! still read a scrape that mentions these names without dangling-metric
//! surprises.

use crate::registry::SharedRegistry;
use crate::{Counter, Gauge, Histogram};

/// Registry handles for the network serving tier, resolved once at server
/// construction. The server enables the registry and records
/// unconditionally.
#[derive(Clone, Debug)]
pub struct ServeMetrics {
    registry: SharedRegistry,
    /// TCP connections accepted.
    pub connections_total: Counter,
    /// Connections currently being served (accept → close).
    pub connections_active: Gauge,
    /// Connections refused with `503` because the worker queue was full
    /// (backpressure) or the server was draining.
    pub connections_rejected_busy: Counter,
    /// HTTP requests answered, by status class.
    pub responses_2xx: Counter,
    /// Client errors returned (4xx: malformed, too large, unknown route,
    /// governance trips mapped to client-attributable statuses).
    pub responses_4xx: Counter,
    /// Server errors returned (5xx: panics, overload, shutdown).
    pub responses_5xx: Counter,
    /// Wall nanoseconds per request (request parsed → response written).
    pub request_ns: Histogram,
    /// `/query` result body bytes sent (`200` bodies, headers excluded).
    pub bytes_streamed: Counter,
    /// Requests cut off by the per-connection read deadline (slow-loris
    /// defense; answered `408` best-effort).
    pub read_timeouts: Counter,
    /// Client disconnects observed mid-request or mid-stream (each one
    /// fires the in-flight query's cancel token).
    pub client_disconnects: Counter,
    /// Worker-side panics caught at the connection boundary (the worker
    /// survives; this should stay 0 outside fault injection).
    pub worker_panics: Counter,
    /// Graceful-shutdown drains begun.
    pub drains_started: Counter,
    /// In-flight queries force-cancelled because the drain deadline passed.
    pub drain_force_cancels: Counter,
}

impl ServeMetrics {
    /// Resolve the serving-tier handles in `registry`.
    pub fn register(registry: SharedRegistry) -> ServeMetrics {
        ServeMetrics {
            connections_total: registry.counter("docql_serve_connections_total"),
            connections_active: registry.gauge("docql_serve_connections_active"),
            connections_rejected_busy: registry
                .counter("docql_serve_connections_rejected_busy_total"),
            responses_2xx: registry.counter("docql_serve_responses_2xx_total"),
            responses_4xx: registry.counter("docql_serve_responses_4xx_total"),
            responses_5xx: registry.counter("docql_serve_responses_5xx_total"),
            request_ns: registry.histogram("docql_serve_request_ns"),
            bytes_streamed: registry.counter("docql_serve_bytes_streamed_total"),
            read_timeouts: registry.counter("docql_serve_read_timeouts_total"),
            client_disconnects: registry.counter("docql_serve_client_disconnects_total"),
            worker_panics: registry.counter("docql_serve_worker_panics_total"),
            drains_started: registry.counter("docql_serve_drains_started_total"),
            drain_force_cancels: registry.counter("docql_serve_drain_force_cancels_total"),
            registry,
        }
    }

    /// The registry the handles live in.
    pub fn registry(&self) -> &SharedRegistry {
        &self.registry
    }

    /// Count one response by status class (1xx/3xx are not emitted by the
    /// server and fall into the 2xx bucket by construction).
    #[inline]
    pub fn count_status(&self, status: u16) {
        match status {
            400..=499 => self.responses_4xx.inc(),
            500..=599 => self.responses_5xx.inc(),
            _ => self.responses_2xx.inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;
    use std::sync::Arc;

    #[test]
    fn status_classes_are_counted() {
        let m = ServeMetrics::register(Arc::new(MetricsRegistry::new()));
        m.count_status(200);
        m.count_status(404);
        m.count_status(431);
        m.count_status(503);
        assert_eq!(m.responses_2xx.get(), 1);
        assert_eq!(m.responses_4xx.get(), 2);
        assert_eq!(m.responses_5xx.get(), 1);
        let snap = m.registry().snapshot();
        assert_eq!(snap.counter("docql_serve_responses_4xx_total"), Some(2));
    }
}
