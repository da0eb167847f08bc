//! # docql-serve — the network serving tier
//!
//! An HTTP/1.1 server (std-only, like the rest of the workspace) that
//! puts the whole stack behind a wire: MVCC snapshot reads, governed
//! queries, WAL-durable writes, metrics, and traces — with every socket
//! failure mode mapped to a typed, observable outcome. It serves one
//! [`SharedStore`](docql_store::SharedStore), in memory or opened from a
//! directory; `/ingest` and `/bind` are each one
//! [`SharedStore::apply`](docql_store::SharedStore::apply).
//!
//! - [`http`] — the bounded request parser (hard head/body ceilings →
//!   `431`/`413`/`400`, socket deadlines → `408`) and response writers:
//!   every response leaves as one fixed-length write.
//! - [`server`] — the fixed accept/worker pool (the one concurrency
//!   limit), backpressure (`503` + `Retry-After`), per-request
//!   `X-Docql-*` limits, cancel-on-disconnect,
//!   and graceful drain + checkpoint-on-shutdown.
//! - [`client`] — the small blocking client the tests and the chaos
//!   battery drive the server with.
//! - [`signal`] — `SIGINT`/`SIGTERM` → drain, for the binary.
//!
//! ## Routes
//!
//! | Route | Method | Purpose |
//! |---|---|---|
//! | `/query` | POST | O₂SQL text in the body; result table out |
//! | `/ingest` | POST | SGML document in the body; `201` + oid (`400` if it does not parse or load, `500` if the log fails) |
//! | `/bind` | POST | `<root-name> <oid>` in the body; `204` (`400` for an unknown root, `500` if the log fails) |
//! | `/metrics` | GET | Prometheus text exposition |
//! | `/metrics.json` | GET | the same registry as JSON |
//! | `/traces` | GET | flight-recorder rings as JSON |
//! | `/healthz` | GET | `200 ok` (or `503 draining`, `503 wal crashed` once a durable store's log has crashed) |
//! | `/admin/shutdown` | POST | request a graceful drain |
//!
//! Per-request governance headers on `/query`: `X-Docql-Deadline-Ms`,
//! `X-Docql-Row-Budget`, `X-Docql-Path-Fuel`, `X-Docql-Degrade`,
//! `X-Docql-Mode` (`interp`|`algebraic`). `/query`, `/ingest` and `/bind`
//! responses echo `X-Docql-Trace-Id`, the id `/traces` lists the trace
//! under; a `/query` `200` also carries `X-Docql-Rows` and
//! `X-Docql-Partial` headers (`none`, or the limit a degraded result hit).
//! Every response has a `Content-Length` body: `/query` sends the same
//! bytes as in-process `QueryResult::to_table()`.

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod server;
pub mod signal;

pub use client::{HttpClient, HttpResponse};
pub use http::{
    read_request, reason, write_response, ChunkedWriter, HttpError, ParseLimits, Request,
};
pub use server::{Server, ServerConfig, ServerHandle, ShutdownReport};
