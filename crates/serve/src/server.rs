//! The server proper: a fixed accept/worker thread pool over a
//! [`SharedStore`], with every socket failure mode mapped to a typed,
//! observable outcome.
//!
//! Robustness machinery, layer by layer:
//!
//! - **Backpressure** — accepted connections go through a bounded queue to
//!   the worker pool; a full queue answers `503` + `Retry-After` from the
//!   accept thread instead of piling up unbounded. The pool plus this
//!   queue is the server's only concurrency limit: at most `workers`
//!   queries run at once, later connections wait in the queue, and lower
//!   `--workers` is how an operator caps concurrent queries.
//! - **Slow-loris defense** — every connection socket carries OS read and
//!   write deadlines; a peer dribbling bytes gets `408` and the worker
//!   moves on.
//! - **Bounded parsing** — [`crate::http::ParseLimits`] cap what one
//!   request can make the server buffer (`431`/`413`/`400`).
//! - **Governed queries** — `X-Docql-*` headers become per-request
//!   [`QueryLimits`] merged over the server's defaults; guard trips map to
//!   distinct statuses (`504`/`422`/`499`) and the flight-recorder
//!   trace id is echoed in `X-Docql-Trace-Id` (on `/ingest` and `/bind`
//!   too, from the write's trace).
//! - **Cancel on disconnect** — while a query runs, its guard polls a
//!   [`CancelProbe`] that peeks the connection socket; a vanished client
//!   cancels the query within one guard-check boundary.
//! - **Graceful shutdown** — [`ServerHandle::shutdown`] stops accepting,
//!   drains in-flight work under a deadline, force-cancels stragglers,
//!   then checkpoints a durable store.

use crate::http::{read_request, write_response, HttpError, ParseLimits, Request};
use docql_guard::{CancelProbe, CancelToken, ExecError, QueryLimits};
use docql_o2sql::Mode;
use docql_obs::{FlightRecorder, QueryTrace, ServeMetrics};
use docql_store::{CheckpointReport, SharedStore, StoreError, WalOp};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs. The defaults suit tests and small deployments;
/// the binary exposes each as a flag.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads — the concurrency ceiling for connections, and so
    /// for queries.
    pub workers: usize,
    /// Accepted connections waiting for a worker; beyond this the accept
    /// thread answers `503`.
    pub queue_depth: usize,
    /// Per-connection socket read deadline (slow-loris bound).
    pub read_timeout: Duration,
    /// Per-connection socket write deadline (stuck-peer bound).
    pub write_timeout: Duration,
    /// Request parser ceilings.
    pub parse: ParseLimits,
    /// Query limits merged under each request's `X-Docql-*` headers.
    pub default_limits: QueryLimits,
    /// How long [`ServerHandle::shutdown`] waits for in-flight
    /// connections before force-cancelling their queries.
    pub drain_deadline: Duration,
    /// Value of the `Retry-After` header on `503` responses.
    pub retry_after_secs: u64,
    /// Requests served per connection before it is closed (a fairness
    /// bound so one keep-alive peer cannot hold a worker forever). The
    /// last permitted response carries `Connection: close`.
    pub max_requests_per_conn: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 8,
            queue_depth: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            parse: ParseLimits::default(),
            default_limits: QueryLimits::none(),
            drain_deadline: Duration::from_secs(5),
            retry_after_secs: 1,
            max_requests_per_conn: 1024,
        }
    }
}

/// What [`ServerHandle::shutdown`] did.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Did every in-flight connection finish within the drain deadline?
    pub drained_in_time: bool,
    /// Queries force-cancelled at the deadline.
    pub force_cancelled: usize,
    /// The shutdown checkpoint, when the store is durable.
    pub checkpoint: Option<Result<CheckpointReport, StoreError>>,
}

struct Inner {
    config: ServerConfig,
    store: SharedStore,
    metrics: ServeMetrics,
    recorder: Arc<FlightRecorder>,
    addr: SocketAddr,
    draining: AtomicBool,
    shutdown_requested: AtomicBool,
    conn_seq: AtomicU64,
    active_conns: AtomicUsize,
    /// Cancel tokens of queries currently executing, keyed by connection
    /// id — the force-cancel list at the drain deadline.
    active_queries: Mutex<HashMap<u64, CancelToken>>,
}

/// A running server: the accept thread, the worker pool, and the shared
/// state. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the threads running detached.
pub struct ServerHandle {
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Namespace for [`Server::start`].
pub struct Server;

impl Server {
    /// Bind, spawn the pool, and start serving. Enables the store's
    /// metrics registry and flight recorder — the serving tier is not
    /// observable without them, and `/metrics` would otherwise be empty.
    pub fn start(config: ServerConfig, store: SharedStore) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let snapshot = store.read();
        snapshot.set_metrics_enabled(true);
        snapshot.set_tracing_enabled(true);
        let metrics = ServeMetrics::register(snapshot.metrics_registry().clone());
        let recorder = Arc::clone(snapshot.flight_recorder());
        let inner = Arc::new(Inner {
            metrics,
            recorder,
            addr,
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            conn_seq: AtomicU64::new(0),
            active_conns: AtomicUsize::new(0),
            active_queries: Mutex::new(HashMap::new()),
            store,
            config,
        });

        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(inner.config.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..inner.config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("docql-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner, &rx))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("docql-serve-accept".to_string())
                .spawn(move || accept_loop(&inner, listener, tx))?
        };
        Ok(ServerHandle {
            inner,
            accept: Some(accept),
            workers,
        })
    }
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The serving-tier metric handles.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.inner.metrics
    }

    /// The store being served.
    pub fn store(&self) -> &SharedStore {
        &self.inner.store
    }

    /// Has `POST /admin/shutdown` been called? The owner of the handle
    /// is expected to poll this and call [`ServerHandle::shutdown`].
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutdown_requested.load(Ordering::Relaxed)
    }

    /// Connections currently held by workers or the queue.
    pub fn active_connections(&self) -> usize {
        self.inner.active_conns.load(Ordering::Relaxed)
    }

    /// Stop accepting, drain in-flight connections under the configured
    /// deadline, force-cancel whatever is still running, join the pool,
    /// and checkpoint a durable store. Idempotent per handle (the
    /// handle is consumed).
    pub fn shutdown(mut self) -> ShutdownReport {
        let inner = &self.inner;
        inner.draining.store(true, Ordering::SeqCst);
        inner.metrics.drains_started.inc();
        if inner.recorder.enabled() {
            inner
                .recorder
                .global_event("drain_start", format!("addr={}", inner.addr));
        }
        // Wake the blocking accept; the dummy connection is dropped by
        // the accept loop once it observes the draining flag.
        let _ = TcpStream::connect(inner.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }

        // Workers finish their queues and in-flight requests; poll until
        // quiet or the deadline.
        let deadline = Instant::now() + inner.config.drain_deadline;
        while inner.active_conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let drained_in_time = inner.active_conns.load(Ordering::SeqCst) == 0;
        let mut force_cancelled = 0usize;
        if !drained_in_time {
            let tokens = inner
                .active_queries
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for token in tokens.values() {
                token.cancel();
                force_cancelled += 1;
            }
            inner
                .metrics
                .drain_force_cancels
                .add(force_cancelled as u64);
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        let checkpoint = inner.store.is_durable().then(|| inner.store.checkpoint());
        if inner.recorder.enabled() {
            inner.recorder.global_event(
                "drain_complete",
                format!("in_time={drained_in_time} force_cancelled={force_cancelled}"),
            );
        }
        ShutdownReport {
            drained_in_time,
            force_cancelled,
            checkpoint,
        }
    }
}

fn accept_loop(inner: &Inner, listener: TcpListener, tx: SyncSender<TcpStream>) {
    for stream in listener.incoming() {
        if inner.draining.load(Ordering::SeqCst) {
            break; // the wake-up connection (or any racer) is dropped
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        inner.metrics.connections_total.inc();
        inner.active_conns.fetch_add(1, Ordering::SeqCst);
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(stream)) | Err(TrySendError::Disconnected(stream)) => {
                inner.active_conns.fetch_sub(1, Ordering::SeqCst);
                reject_busy(inner, stream);
            }
        }
    }
    // `tx` drops here; workers drain the queue and exit.
}

/// Tell an un-admitted peer to come back later, without letting it stall
/// the accept thread.
fn reject_busy(inner: &Inner, mut stream: TcpStream) {
    inner.metrics.connections_rejected_busy.inc();
    inner.metrics.count_status(503);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let _ = write_response(
        &mut stream,
        503,
        &[("Retry-After", inner.config.retry_after_secs.to_string())],
        b"server busy\n",
        true,
    );
}

fn worker_loop(inner: &Inner, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        let stream = {
            let rx = rx.lock().unwrap_or_else(PoisonError::into_inner);
            rx.recv()
        };
        let Ok(stream) = stream else {
            break; // accept thread gone and queue empty
        };
        let conn_id = inner.conn_seq.fetch_add(1, Ordering::Relaxed);
        // Connection-level panic isolation: queries are already caught at
        // the store boundary, so this guards server bugs — a panic kills
        // the connection, never the worker.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_connection(inner, stream, conn_id)
        }));
        // Whatever happened, the connection is done: release it so drain
        // and leak accounting stay exact.
        inner.active_conns.fetch_sub(1, Ordering::SeqCst);
        inner
            .active_queries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&conn_id);
        if outcome.is_err() {
            inner.metrics.worker_panics.inc();
            inner
                .recorder
                .connection_event("conn_panic", conn_id, "worker caught a panic");
        }
    }
}

fn handle_connection(inner: &Inner, mut stream: TcpStream, conn_id: u64) {
    inner.metrics.connections_active.add(1);
    let cfg = &inner.config;
    let served = (|| -> io::Result<()> {
        stream.set_read_timeout(Some(cfg.read_timeout))?;
        stream.set_write_timeout(Some(cfg.write_timeout))?;
        stream.set_nodelay(true)?;
        let mut reader = io::BufReader::new(stream.try_clone()?);
        let max_requests = cfg.max_requests_per_conn.max(1);
        for served in 1..=max_requests {
            match read_request(&mut reader, &cfg.parse) {
                Err(e) => {
                    match &e {
                        HttpError::Timeout => {
                            inner.metrics.read_timeouts.inc();
                            inner.recorder.connection_event(
                                "conn_read_timeout",
                                conn_id,
                                "request read deadline",
                            );
                        }
                        HttpError::Closed => {
                            inner
                                .recorder
                                .connection_event("conn_closed", conn_id, "peer closed");
                        }
                        _ => {}
                    }
                    if let Some(status) = e.status() {
                        inner.metrics.count_status(status);
                        let mut body = e.message();
                        body.push('\n');
                        let _ = write_response(&mut stream, status, &[], body.as_bytes(), true);
                    }
                    break;
                }
                Ok(req) => {
                    let started = Instant::now();
                    // The connection's last permitted response says so,
                    // letting the client reconnect instead of finding a
                    // dead socket on its next request.
                    let close = !req.keep_alive()
                        || served == max_requests
                        || inner.draining.load(Ordering::SeqCst);
                    let mut peer = Peer {
                        stream: &mut stream,
                        id: conn_id,
                        close,
                    };
                    let keep_going = respond(inner, &mut peer, &req);
                    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    inner.metrics.request_ns.record(ns);
                    if close || !keep_going {
                        break;
                    }
                }
            }
        }
        Ok(())
    })();
    let _ = served;
    let _ = stream.shutdown(std::net::Shutdown::Both);
    inner.metrics.connections_active.add(-1);
}

/// The connection a response goes back on.
struct Peer<'a> {
    stream: &'a mut TcpStream,
    /// Tags the connection's flight-recorder events.
    id: u64,
    /// This response is the connection's last (`Connection: close`).
    close: bool,
}

/// Write a complete response, counting it by status class. Returns
/// whether the peer received it: a failed write means it is gone, and is
/// counted as a client disconnect.
fn send(
    inner: &Inner,
    peer: &mut Peer,
    status: u16,
    headers: &[(&str, String)],
    body: &[u8],
) -> bool {
    inner.metrics.count_status(status);
    if write_response(peer.stream, status, headers, body, peer.close).is_ok() {
        return true;
    }
    inner.metrics.client_disconnects.inc();
    inner.recorder.connection_event(
        "conn_disconnect_midstream",
        peer.id,
        "write failed while sending the response",
    );
    false
}

/// Routes. Returns `false` when the connection should close (write
/// failure — the peer is gone).
fn respond(inner: &Inner, peer: &mut Peer, req: &Request) -> bool {
    let route = (req.method.as_str(), req.path.as_str());
    let refused_while_draining = matches!(
        route,
        ("GET", "/healthz") | ("POST", "/query" | "/ingest" | "/bind")
    );
    if refused_while_draining && inner.draining.load(Ordering::SeqCst) {
        let retry = ("Retry-After", inner.config.retry_after_secs.to_string());
        return send(inner, peer, 503, &[retry], b"draining\n");
    }

    match route {
        ("GET", "/healthz") if inner.store.log_crashed() => {
            send(inner, peer, 503, &[], b"wal crashed\n")
        }
        ("GET", "/healthz") => send(inner, peer, 200, &[], b"ok\n"),
        ("GET", "/metrics") => {
            let text = inner.store.read().metrics_registry().to_prometheus();
            send(inner, peer, 200, &[], text.as_bytes())
        }
        ("GET", "/metrics.json") => {
            let text = inner.store.read().metrics_registry().to_json();
            send(inner, peer, 200, &[], text.as_bytes())
        }
        ("GET", "/traces") => {
            let text = inner.recorder.to_json();
            send(inner, peer, 200, &[], text.as_bytes())
        }
        ("POST", "/query") => serve_query(inner, peer, req),
        ("POST", "/ingest") => match std::str::from_utf8(&req.body) {
            Err(_) => send(inner, peer, 400, &[], b"body is not UTF-8\n"),
            Ok(sgml) => {
                let op = WalOp::Ingest {
                    sgml: sgml.to_string(),
                };
                let (result, trace) = inner.store.apply(vec![op]);
                let mut headers = trace_header(&trace);
                match result.as_deref() {
                    Ok([oid]) => {
                        headers.push(("X-Docql-Oid", oid.to_string()));
                        let body = format!("{}\n", oid.0);
                        send(inner, peer, 201, &headers, body.as_bytes())
                    }
                    Ok(roots) => {
                        let body = format!("ingest loaded {} documents\n", roots.len());
                        send(inner, peer, 500, &headers, body.as_bytes())
                    }
                    // Rejected SGML is the client's fault; a log failure
                    // is the server's, and the client should retry.
                    Err(e) => {
                        let body = format!("ingest failed: {e}\n");
                        send(inner, peer, error_status(e), &headers, body.as_bytes())
                    }
                }
            }
        },
        ("POST", "/bind") => {
            let body = String::from_utf8_lossy(&req.body);
            let mut parts = body.split_whitespace();
            match (
                parts.next(),
                parts.next().and_then(|s| s.parse::<u32>().ok()),
            ) {
                (Some(name), Some(oid)) => {
                    let op = WalOp::Bind {
                        name: name.to_string(),
                        oid,
                    };
                    let (result, trace) = inner.store.apply(vec![op]);
                    let headers = trace_header(&trace);
                    match result {
                        Ok(_) => send(inner, peer, 204, &headers, b""),
                        // An unknown root is the client's fault; a log
                        // failure is the server's.
                        Err(e) => {
                            let status = match e {
                                StoreError::Wal(_) => 500,
                                _ => 400,
                            };
                            let body = format!("bind failed: {e}\n");
                            send(inner, peer, status, &headers, body.as_bytes())
                        }
                    }
                }
                _ => send(
                    inner,
                    peer,
                    400,
                    &[],
                    b"expected body: <root-name> <oid-number>\n",
                ),
            }
        }
        ("POST", "/admin/shutdown") => {
            inner.shutdown_requested.store(true, Ordering::SeqCst);
            inner
                .recorder
                .connection_event("shutdown_requested", peer.id, "admin endpoint");
            send(inner, peer, 202, &[], b"draining\n")
        }
        (_, "/healthz" | "/metrics" | "/metrics.json" | "/traces") => {
            send(inner, peer, 405, &[], b"use GET\n")
        }
        (_, "/query" | "/ingest" | "/bind" | "/admin/shutdown") => {
            send(inner, peer, 405, &[], b"use POST\n")
        }
        _ => send(inner, peer, 404, &[], b"no such route\n"),
    }
}

/// The `X-Docql-Trace-Id` header for a filed trace, if there is one.
fn trace_header(trace: &Option<Arc<QueryTrace>>) -> Vec<(&'static str, String)> {
    trace
        .iter()
        .map(|t| ("X-Docql-Trace-Id", t.id.to_string()))
        .collect()
}

/// Map a query or ingest failure onto the wire.
fn error_status(e: &StoreError) -> u16 {
    match e {
        StoreError::Interrupted(ExecError::DeadlineExceeded) => 504,
        StoreError::Interrupted(ExecError::BudgetExhausted(_)) => 422,
        StoreError::Interrupted(ExecError::Cancelled) => 499,
        StoreError::QueryPanic(_) | StoreError::Wal(_) => 500,
        StoreError::Sgml(_) | StoreError::Map(_) | StoreError::Query(_) => 400,
        StoreError::Other(_) => 500,
    }
}

/// Build per-request limits from `X-Docql-*` headers.
fn request_limits(req: &Request) -> Result<(QueryLimits, Mode), String> {
    let mut limits = QueryLimits::none();
    let parse_u64 = |name: &str| -> Result<Option<u64>, String> {
        match req.header(name) {
            None => Ok(None),
            Some(v) => v
                .trim()
                .parse::<u64>()
                .map(Some)
                .map_err(|_| format!("{name} must be a non-negative integer, got {v:?}")),
        }
    };
    if let Some(ms) = parse_u64("X-Docql-Deadline-Ms")? {
        limits = limits.with_deadline(Duration::from_millis(ms));
    }
    if let Some(n) = parse_u64("X-Docql-Row-Budget")? {
        limits = limits.with_row_budget(n);
    }
    if let Some(n) = parse_u64("X-Docql-Path-Fuel")? {
        limits = limits.with_path_fuel(n);
    }
    match req.header("X-Docql-Degrade").map(str::trim) {
        None => {}
        Some("1") | Some("true") => limits = limits.with_degrade(),
        Some("0") | Some("false") => {}
        Some(v) => return Err(format!("X-Docql-Degrade must be 0/1/true/false, got {v:?}")),
    }
    let mode = match req.header("X-Docql-Mode").map(str::trim) {
        None | Some("interp") => Mode::Interpret,
        Some("algebraic") => Mode::Algebraic,
        Some(v) => return Err(format!("X-Docql-Mode must be interp|algebraic, got {v:?}")),
    };
    Ok((limits, mode))
}

/// A probe that answers "has this peer hung up?" by peeking the socket
/// in non-blocking mode. Consulted by the guard at amortized check
/// boundaries while the query executes.
fn disconnect_probe(stream: &TcpStream) -> Option<CancelProbe> {
    let peek = stream.try_clone().ok()?;
    Some(CancelProbe::new(move || {
        if peek.set_nonblocking(true).is_err() {
            return true;
        }
        let mut b = [0u8; 1];
        let gone = match peek.peek(&mut b) {
            Ok(0) => true,                                            // orderly FIN
            Ok(_) => false,                                           // pipelined bytes
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => false, // alive, idle
            Err(_) => true,                                           // reset
        };
        let _ = peek.set_nonblocking(false);
        gone
    }))
}

fn serve_query(inner: &Inner, peer: &mut Peer, req: &Request) -> bool {
    let Ok(src) = std::str::from_utf8(&req.body) else {
        return send(inner, peer, 400, &[], b"query body is not UTF-8\n");
    };
    if src.trim().is_empty() {
        return send(inner, peer, 400, &[], b"empty query body\n");
    }
    let (limits, mode) = match request_limits(req) {
        Ok(v) => v,
        Err(msg) => {
            let body = format!("{msg}\n");
            return send(inner, peer, 400, &[], body.as_bytes());
        }
    };

    let token = CancelToken::new();
    let mut limits = limits.with_cancel(token.clone());
    if let Some(probe) = disconnect_probe(peer.stream) {
        limits = limits.with_probe(probe);
    }
    let limits = limits.or(&inner.config.default_limits);
    inner
        .active_queries
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(peer.id, token.clone());
    let (result, trace) = inner.store.query_traced(src, mode, &limits);
    inner
        .active_queries
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .remove(&peer.id);

    let mut headers = trace_header(&trace);
    match result {
        Err(e) => {
            let status = error_status(&e);
            if status == 499 {
                inner.metrics.client_disconnects.inc();
                inner.recorder.connection_event(
                    "conn_disconnect_cancel",
                    peer.id,
                    "query cancelled",
                );
            }
            let body = format!("{e}\n");
            send(inner, peer, status, &headers, body.as_bytes())
        }
        Ok(result) => {
            // The governance outcome rides in headers, so a degraded
            // (partial-prefix) result is flagged before its body.
            let partial = match &result.partial {
                Some(trip) => trip.to_string(),
                None => "none".to_string(),
            };
            headers.push(("X-Docql-Rows", result.rows.len().to_string()));
            headers.push(("X-Docql-Partial", partial));
            let body = result.to_table();
            inner.metrics.bytes_streamed.add(body.len() as u64);
            send(inner, peer, 200, &headers, body.as_bytes())
        }
    }
}
