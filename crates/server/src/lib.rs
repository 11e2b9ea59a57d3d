//! # relgo-server
//!
//! A minimal, std-only HTTP/1.1 edge over one shared [`Session`]: a fixed
//! pool of blocking worker threads serves **persistent connections** (each
//! connection carries a keep-alive request loop) through the whole query
//! lifecycle — templated ad-hoc queries through the plan cache,
//! prepared-statement handles (template draws or client-supplied `bind=`
//! values), optimistic ingest batches, and a Prometheus text-format
//! `/metrics` scrape that folds the session's observability snapshot
//! together with the server's own HTTP-edge series (both live on the
//! session's metrics registry, so one scrape covers the whole process).
//!
//! ## Keep-alive
//!
//! Connections are persistent by default (HTTP/1.1 semantics): the worker
//! loops reading requests off one socket until the client sends
//! `Connection: close` (or speaks HTTP/1.0 without `keep-alive`), the
//! connection idles past [`ServerConfig::idle_timeout`], it reaches
//! [`ServerConfig::max_requests_per_connection`], a framing error poisons
//! the stream position (`400`/`413`/`431`/`501` close; handler-level errors do
//! not), or drain begins — shutdown finishes the in-flight request, then
//! answers it with `Connection: close`. Every response advertises the
//! decision in its `Connection` header.
//!
//! ## Deadlines
//!
//! `/query`, `/execute` and an executing `/explain` accept a `deadline_ms`
//! parameter (falling back to [`ServerConfig::default_deadline_ms`]): the
//! remaining budget rides into execution as a [`TimeBudget`] checked at
//! every morsel boundary, so an expired query stops within one morsel's
//! work and answers `503` with `Retry-After` instead of pinning a worker.
//!
//! ## Access logs
//!
//! With [`ServerConfig::access_log`] set, every request appends one JSON
//! line — `{"unix_ms":..,"conn":..,"seq":..,"tenant":..,"endpoint":..,
//! "method":..,"path":..,"status":..,"rows":..,"micros":..,
//! "stages":{"execute":..}}` — keyed by the same `QueryTrace` spans the
//! metrics registry records (stage micros appear for the serving endpoints
//! that execute queries; response serialization and ingest WAL appends are
//! traced too).
//!
//! ## Profiling and the slow-query log
//!
//! `profile=1` on `/query` or `/execute` runs the query with
//! operator-level profiling and appends one pure-JSON line — the
//! per-operator profile (`[{"op":..,"kind":..,"est":..,"rows_out":..,
//! "q":..},..]`) — after the result rows. With
//! [`ServerConfig::slow_query_ms`] set, *every* query is profiled and any
//! request whose handling time reaches the threshold gets
//! `"slow":true,"profile":[..]` folded into its access-log line, so the
//! operator breakdown of an outlier is on disk even when the client never
//! asked for it.
//!
//! ## Endpoints
//!
//! | method + path | semantics |
//! |---|---|
//! | `GET /healthz` | liveness: `ok epoch=E` (durable sessions append ` wal_bytes_since_checkpoint=B`) |
//! | `GET /metrics` | Prometheus text format, the full registry |
//! | `POST /query?template=NAME&draw=N[&mode=M][&tenant=T][&profile=1]` | instantiate + `run_cached` |
//! | `POST /prepare?template=NAME[&mode=M][&tenant=T]` | pin a prepared statement, returns `ok stmt=ID` |
//! | `POST /execute?stmt=ID&draw=N[&tenant=T][&profile=1]` | execute a prepared handle with the template's bindings |
//! | `POST /unprepare?stmt=ID` | release a prepared handle (and its pinned plan) |
//! | `POST /explain?template=NAME&draw=N[&mode=M][&analyze=0]` | EXPLAIN ANALYZE: the rendered plan tree with est/act rows + Q-error per operator |
//! | `POST /ingest[?tenant=T]` | line-based batch: `Table\|i:1\|s:x\|d:17000`, `delete\|Table\|1` |
//! | `POST /checkpoint` | snapshot the current epoch + compact the WAL behind it (durable sessions) |
//! | `POST /shutdown` | respond, then drain: in-flight requests complete, workers exit |
//!
//! Lost `/ingest` commit races answer `409` with a `Retry-After` header —
//! the batch is retryable as-is against the advanced epoch.
//!
//! Result rows travel as tagged values (`n:` null, `i:` int, `f:` float,
//! `s:` string, `b:` bool, `d:` date) joined with `|`, one row per line,
//! after an `ok rows=N cached=B epoch=E mode=M` meta line — see [`wire`].
//!
//! ## Multi-tenancy
//!
//! Every serving request carries an optional `tenant` parameter (default
//! `"default"`). Each tenant gets an admission gate (at most
//! `max_inflight_per_tenant` requests executing at once) and a cumulative
//! [`RowBudget`] over served result rows; both reject with `429` when
//! exhausted, and every rejection increments
//! `relgo_http_admission_rejections_total`. `/prepare` runs under the same
//! gate and the server-wide prepared-statement table is capped
//! (`max_prepared_statements`, released via `/unprepare`), so no client can
//! grow pinned plans without bound. Request bodies larger than
//! `max_body_bytes` are rejected with `413` before any allocation.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use relgo::metrics::trace::{Stage, StageTimings};
use relgo::metrics::{Counter, Gauge, Histogram};
use relgo::prelude::*;
use relgo_common::morsel::RowBudget;

pub mod wire;

/// How long a worker sleeps between empty non-blocking accept polls.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Socket read timeout once a request has started arriving: a client that
/// stalls mid-request cannot pin a worker (or block drain) forever. The
/// separate [`ServerConfig::idle_timeout`] governs the quiet gap *between*
/// requests on a persistent connection.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Tuning knobs for [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` asks the OS for an ephemeral port.
    pub addr: String,
    /// Worker threads (each owns a cloned listener handle).
    pub workers: usize,
    /// Per-tenant concurrent-request admission limit.
    pub max_inflight_per_tenant: usize,
    /// Per-tenant cumulative budget of served result rows.
    pub tenant_row_budget: usize,
    /// Largest accepted request body; a bigger `Content-Length` is a `413`
    /// before any buffer is allocated (the header is untrusted input).
    pub max_body_bytes: usize,
    /// Server-wide cap on live prepared-statement handles; `/prepare` past
    /// the cap is a `429` until `/unprepare` releases a slot.
    pub max_prepared_statements: usize,
    /// Cumulative cap on request-line + header bytes per request; past it
    /// the request is rejected with `431` (a streaming endless header can
    /// no longer OOM a worker).
    pub max_header_bytes: usize,
    /// How long a persistent connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// Requests served over one connection before the server closes it
    /// (bounds per-connection resource drift under very long reuse).
    pub max_requests_per_connection: usize,
    /// Server-wide default execution deadline applied when a request does
    /// not pass `deadline_ms`; `None` leaves queries unbounded.
    pub default_deadline_ms: Option<u64>,
    /// Append one JSON access-log line per request to this path
    /// (`None` disables access logging).
    pub access_log: Option<String>,
    /// Slow-query threshold: requests whose total handling time reaches
    /// this many milliseconds get their full per-operator profile appended
    /// to their access-log line (`"profile":[..]`). Setting it arms
    /// operator profiling on every `/query` and `/execute`, whether or not
    /// the client passed `profile=1`. `None` disables both.
    pub slow_query_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_inflight_per_tenant: 8,
            tenant_row_budget: 10_000_000,
            max_body_bytes: 4 << 20,
            max_prepared_statements: 1024,
            max_header_bytes: 16 << 10,
            idle_timeout: Duration::from_secs(5),
            max_requests_per_connection: 1000,
            default_deadline_ms: None,
            access_log: None,
            slow_query_ms: None,
        }
    }
}

/// What one server run saw, returned by [`BoundServer::run`] after drain.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// TCP connections accepted (a persistent connection counts once).
    pub connections: u64,
    /// HTTP requests answered across all connections
    /// (`== ok_responses + rejected + failed`; under keep-alive reuse this
    /// exceeds `connections`).
    pub requests: u64,
    /// Requests that produced a 2xx response.
    pub ok_responses: u64,
    /// Requests rejected by admission control or a row budget (429).
    pub rejected: u64,
    /// Requests that produced any other non-2xx response.
    pub failed: u64,
}

/// An unbound server description: a session to serve, the templates it
/// resolves `template=NAME` against, and the tuning config.
pub struct Server<'s> {
    session: &'s Session,
    templates: &'s [QueryTemplate],
    config: ServerConfig,
}

impl<'s> Server<'s> {
    /// Describe a server over `session` resolving `templates`.
    pub fn new(
        session: &'s Session,
        templates: &'s [QueryTemplate],
        config: ServerConfig,
    ) -> Server<'s> {
        Server {
            session,
            templates,
            config,
        }
    }

    /// Bind the listener (the local address — and OS-chosen port — is
    /// known from here on) without starting any worker.
    pub fn bind(self) -> Result<BoundServer<'s>> {
        let listener = TcpListener::bind(&self.config.addr)
            .map_err(|e| RelGoError::execution(format!("bind {}: {e}", self.config.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| RelGoError::execution(format!("local_addr: {e}")))?;
        Ok(BoundServer {
            server: self,
            listener,
            local_addr,
        })
    }
}

/// A bound-but-not-yet-running server; [`run`](BoundServer::run) blocks
/// the calling thread until a `POST /shutdown` drains it.
pub struct BoundServer<'s> {
    server: Server<'s>,
    listener: TcpListener,
    local_addr: SocketAddr,
}

impl BoundServer<'_> {
    /// The bound address (resolves port `0` to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serve until shutdown. Every worker accepts on a cloned listener
    /// handle in non-blocking mode; after the shutdown flag rises each
    /// worker keeps accepting until the backlog is empty (every connection
    /// the OS already queued gets a complete response — drain loses zero
    /// in-flight requests), then exits. After the last worker exits, one
    /// final accept sweep on the calling thread serves anything the kernel
    /// queued between a worker's last empty poll and that exit; only a
    /// connection completing its handshake *after* the sweep misses out,
    /// and dropping the listener resets it rather than leaving it hanging.
    pub fn run(self) -> Result<ServeStats> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| RelGoError::execution(format!("set_nonblocking: {e}")))?;
        let shared = Shared::new(
            self.server.session,
            self.server.templates,
            &self.server.config,
        )?;
        let workers = self.server.config.workers.max(1);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let listener = self
                    .listener
                    .try_clone()
                    .map_err(|e| RelGoError::execution(format!("clone listener: {e}")))?;
                let shared = &shared;
                handles.push(scope.spawn(move || worker_loop(listener, shared)));
            }
            for h in handles {
                h.join()
                    .map_err(|_| RelGoError::execution("server worker panicked".to_string()))?;
            }
            Ok::<(), RelGoError>(())
        })?;
        // Final drain sweep (see the doc comment above): the listener is
        // still non-blocking, so this stops at the first empty poll.
        while let Ok((stream, _)) = self.listener.accept() {
            handle_connection(stream, &shared);
        }
        // Graceful-drain checkpoint: with every request answered and no
        // writer left, snapshot the final epoch so the next open replays
        // nothing. Best-effort — a failure leaves the WAL authoritative
        // (and counted in relgo_checkpoint_failures_total).
        if self.server.session.is_durable() {
            let _ = self.server.session.checkpoint();
        }
        Ok(shared.stats())
    }
}

/// A registered tenant: its admission gate and cumulative row budget.
struct Tenant {
    inflight: AtomicUsize,
    budget: RowBudget,
}

/// HTTP-edge metric handles, registered on the *session's* registry so a
/// single `/metrics` scrape covers both the engine and the edge.
struct EdgeMetrics {
    requests: [Arc<Counter>; Endpoint::ALL.len()],
    latency: [Arc<Histogram>; Endpoint::ALL.len()],
    active: Arc<Gauge>,
    open_connections: Arc<Gauge>,
    keepalive_reuses: Arc<Counter>,
    deadline_expirations: Arc<Counter>,
    rejections: Arc<Counter>,
    rows_served: Arc<Counter>,
}

impl EdgeMetrics {
    fn new(session: &Session) -> EdgeMetrics {
        let reg = session.metrics().registry();
        EdgeMetrics {
            requests: Endpoint::ALL.map(|e| {
                reg.counter_with(
                    "relgo_http_requests_total",
                    "HTTP requests handled, by endpoint.",
                    &[("endpoint", e.name())],
                )
            }),
            latency: Endpoint::ALL.map(|e| {
                reg.histogram_with(
                    "relgo_http_request_seconds",
                    "HTTP request handling latency, by endpoint.",
                    &[("endpoint", e.name())],
                )
            }),
            active: reg.gauge(
                "relgo_http_active_connections",
                "Requests currently being handled.",
            ),
            open_connections: reg.gauge(
                "relgo_http_open_connections",
                "TCP connections currently open (idle keep-alive included).",
            ),
            keepalive_reuses: reg.counter(
                "relgo_http_keepalive_reuses_total",
                "Requests served over an already-used persistent connection.",
            ),
            deadline_expirations: reg.counter(
                "relgo_http_deadline_expirations_total",
                "Requests aborted because their execution deadline expired.",
            ),
            rejections: reg.counter(
                "relgo_http_admission_rejections_total",
                "Requests rejected by per-tenant admission control or row budgets.",
            ),
            rows_served: reg.counter(
                "relgo_http_rows_served_total",
                "Result rows written back to clients.",
            ),
        }
    }
}

/// A pinned prepared statement plus the template whose binding generator
/// feeds its `draw` parameter on `/execute`.
struct StmtEntry<'s> {
    stmt: Arc<PreparedStatement<'s>>,
    template_idx: usize,
}

/// Everything the worker threads share for one server run.
struct Shared<'s> {
    session: &'s Session,
    templates: &'s [QueryTemplate],
    config: &'s ServerConfig,
    shutdown: AtomicBool,
    statements: Mutex<HashMap<u64, StmtEntry<'s>>>,
    next_stmt: AtomicU64,
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
    metrics: EdgeMetrics,
    access_log: Option<Mutex<std::fs::File>>,
    connections: AtomicU64,
    requests: AtomicU64,
    ok_responses: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
}

impl<'s> Shared<'s> {
    fn new(
        session: &'s Session,
        templates: &'s [QueryTemplate],
        config: &'s ServerConfig,
    ) -> Result<Shared<'s>> {
        let access_log = match &config.access_log {
            Some(path) => Some(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| RelGoError::execution(format!("open access log {path}: {e}")))?,
            )),
            None => None,
        };
        Ok(Shared {
            session,
            templates,
            config,
            shutdown: AtomicBool::new(false),
            statements: Mutex::new(HashMap::new()),
            next_stmt: AtomicU64::new(1),
            tenants: Mutex::new(HashMap::new()),
            metrics: EdgeMetrics::new(session),
            access_log,
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            ok_responses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        })
    }

    fn tenant(&self, name: &str) -> Arc<Tenant> {
        let mut tenants = self.tenants.lock().expect("tenants lock");
        Arc::clone(tenants.entry(name.to_string()).or_insert_with(|| {
            Arc::new(Tenant {
                inflight: AtomicUsize::new(0),
                budget: RowBudget::new(self.config.tenant_row_budget),
            })
        }))
    }

    fn stats(&self) -> ServeStats {
        ServeStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            ok_responses: self.ok_responses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
        }
    }

    /// Append one JSON line to the access log; without a log the line is
    /// never rendered.
    fn log_access(&self, line: impl FnOnce() -> String) {
        if let Some(log) = &self.access_log {
            let line = line() + "\n";
            let mut file = log.lock().expect("access log lock");
            // One write per line: the mutex orders writers, a single
            // write_all keeps lines unsplit under concurrency.
            let _ = file.write_all(line.as_bytes());
        }
    }
}

/// Decrements the owning tenant's in-flight count on drop, so every
/// admission exit path releases the slot.
struct AdmissionGuard {
    tenant: Arc<Tenant>,
}

impl Drop for AdmissionGuard {
    fn drop(&mut self) {
        self.tenant.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

fn admit(shared: &Shared<'_>, tenant_name: &str) -> std::result::Result<AdmissionGuard, ()> {
    let tenant = shared.tenant(tenant_name);
    let prior = tenant.inflight.fetch_add(1, Ordering::AcqRel);
    if prior >= shared.config.max_inflight_per_tenant {
        tenant.inflight.fetch_sub(1, Ordering::AcqRel);
        return Err(());
    }
    Ok(AdmissionGuard { tenant })
}

fn worker_loop(listener: TcpListener, shared: &Shared<'_>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => handle_connection(stream, shared),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if shared.shutdown.load(Ordering::Acquire) {
                    // The backlog is empty *and* the flag is up: nothing
                    // accepted can still be waiting, so drain is complete.
                    return;
                }
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// HTTP plumbing
// ---------------------------------------------------------------------------

/// The routable endpoints (also the `endpoint` label values of the HTTP
/// edge metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Query,
    Prepare,
    Execute,
    Unprepare,
    Explain,
    Ingest,
    Checkpoint,
    Metrics,
    Healthz,
    Shutdown,
    Other,
}

impl Endpoint {
    const ALL: [Endpoint; 11] = [
        Endpoint::Query,
        Endpoint::Prepare,
        Endpoint::Execute,
        Endpoint::Unprepare,
        Endpoint::Explain,
        Endpoint::Ingest,
        Endpoint::Checkpoint,
        Endpoint::Metrics,
        Endpoint::Healthz,
        Endpoint::Shutdown,
        Endpoint::Other,
    ];

    fn name(self) -> &'static str {
        match self {
            Endpoint::Query => "query",
            Endpoint::Prepare => "prepare",
            Endpoint::Execute => "execute",
            Endpoint::Unprepare => "unprepare",
            Endpoint::Explain => "explain",
            Endpoint::Ingest => "ingest",
            Endpoint::Checkpoint => "checkpoint",
            Endpoint::Metrics => "metrics",
            Endpoint::Healthz => "healthz",
            Endpoint::Shutdown => "shutdown",
            Endpoint::Other => "other",
        }
    }

    /// The endpoint's place in [`Endpoint::ALL`], which lists the variants
    /// in declaration order.
    fn idx(self) -> usize {
        self as usize
    }
}

/// One parsed request: method, bare path, decoded query params, body, and
/// the connection semantics the client asked for.
struct Request {
    method: String,
    path: String,
    params: HashMap<String, String>,
    body: String,
    /// Whether the client allows the connection to persist after this
    /// request (HTTP/1.1 default; `Connection: close` or bare HTTP/1.0
    /// opt out, `Connection: keep-alive` opts HTTP/1.0 back in).
    keep_alive: bool,
}

impl Request {
    fn param(&self, name: &str) -> Option<&str> {
        self.params.get(name).map(String::as_str)
    }

    fn tenant(&self) -> &str {
        self.param("tenant").unwrap_or("default")
    }
}

/// A response about to be written: status plus plain-text body, an
/// optional `Retry-After` delay (seconds) for retryable rejections, and
/// bookkeeping the access log and connection loop read back.
struct Response {
    status: u16,
    body: String,
    retry_after: Option<u64>,
    /// The stream position can no longer be trusted (framing error):
    /// close the connection after this response regardless of keep-alive.
    close: bool,
    /// Result rows the response carries (access-log field).
    rows: usize,
    /// Per-stage query timings when the endpoint executed one
    /// (access-log `stages` field). Boxed to keep `Response` small enough
    /// to travel as the `Err` arm of the parameter-parsing helpers.
    stages: Option<Box<StageTimings>>,
    /// The per-operator profile (pre-rendered [`PlanReport::to_json`])
    /// when the endpoint executed with profiling armed; the access log
    /// attaches it to over-threshold (slow) requests.
    profile: Option<String>,
}

impl Response {
    fn ok(body: String) -> Response {
        Response {
            status: 200,
            body,
            retry_after: None,
            close: false,
            rows: 0,
            stages: None,
            profile: None,
        }
    }

    fn err(status: u16, msg: impl std::fmt::Display) -> Response {
        Response {
            status,
            body: format!("error: {msg}\n"),
            retry_after: None,
            close: false,
            rows: 0,
            stages: None,
            profile: None,
        }
    }

    /// `err`, advertising that the same request may succeed if repeated
    /// after `seconds` (sets the standard `Retry-After` header).
    fn retryable(status: u16, msg: impl std::fmt::Display, seconds: u64) -> Response {
        Response {
            retry_after: Some(seconds),
            ..Response::err(status, msg)
        }
    }

    /// `err` that also poisons the connection (framing errors).
    fn fatal(status: u16, msg: impl std::fmt::Display) -> Response {
        Response {
            close: true,
            ..Response::err(status, msg)
        }
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Serve one connection to completion: a keep-alive request loop. Each
/// iteration reads one request off the shared buffered reader (pipelined
/// bytes survive between iterations), dispatches it, decides whether the
/// connection persists, and answers with the decision in the `Connection`
/// header. The loop ends on client close, idle timeout, the per-connection
/// request cap, a framing error, or drain (the in-flight request finishes,
/// then the connection closes).
fn handle_connection(stream: TcpStream, shared: &Shared<'_>) {
    let conn_id = shared.connections.fetch_add(1, Ordering::Relaxed) + 1;
    shared.metrics.open_connections.add(1);
    // Request/response exchanges are latency-bound, not throughput-bound:
    // never trade a delayed-ACK round trip for packet coalescing.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(&stream);
    let mut seq: u64 = 0;
    loop {
        // The idle timeout governs the quiet gap before the next request
        // line; once bytes flow, read_request tightens it to READ_TIMEOUT.
        let _ = stream.set_read_timeout(Some(shared.config.idle_timeout));
        let start = Instant::now();
        let (req, endpoint, response) = match read_request(&mut reader, &stream, shared.config) {
            ReadOutcome::Closed => break,
            ReadOutcome::Bad(response) => (None, Endpoint::Other, response),
            ReadOutcome::Request(req) => {
                let endpoint = route(&req);
                shared.metrics.active.add(1);
                let response = dispatch(endpoint, &req, shared);
                shared.metrics.active.add(-1);
                (Some(req), endpoint, response)
            }
        };
        seq += 1;
        shared.requests.fetch_add(1, Ordering::Relaxed);
        if seq > 1 {
            shared.metrics.keepalive_reuses.inc();
        }
        let keep_alive = !response.close
            && req.as_ref().is_some_and(|r| r.keep_alive)
            && seq < shared.config.max_requests_per_connection as u64
            && !shared.shutdown.load(Ordering::Acquire);
        match response.status {
            200 => shared.ok_responses.fetch_add(1, Ordering::Relaxed),
            429 => shared.rejected.fetch_add(1, Ordering::Relaxed),
            _ => shared.failed.fetch_add(1, Ordering::Relaxed),
        };
        // Count *before* writing: once a client holds response N, any
        // scrape it takes next must already include N (a /metrics body
        // itself is rendered pre-increment, so a scrape never counts
        // itself).
        shared.metrics.requests[endpoint.idx()].inc();
        let elapsed = start.elapsed();
        shared.metrics.latency[endpoint.idx()].record(elapsed);
        let slow = shared
            .config
            .slow_query_ms
            .is_some_and(|ms| elapsed >= Duration::from_millis(ms));
        shared.log_access(|| {
            access_log_line(
                req.as_ref(),
                &response,
                endpoint,
                conn_id,
                seq,
                elapsed,
                slow,
            )
        });
        write_response(&stream, &response, keep_alive);
        if !keep_alive {
            break;
        }
    }
    shared.metrics.open_connections.add(-1);
}

/// What one attempt to read a request off a persistent connection yielded.
enum ReadOutcome {
    /// A complete, well-formed request.
    Request(Request),
    /// Nothing to serve: the client closed (or idled out) between
    /// requests. No response is owed; the connection just closes.
    Closed,
    /// A malformed request: answer with this response, then close (the
    /// stream position is untrustworthy after a framing error).
    Bad(Response),
}

/// How one capped header-line read ended.
enum LineRead {
    Line,
    Eof,
    TooLong,
}

/// Read one `\n`-terminated line, charging its bytes against the
/// remaining per-request header budget. A line that would overrun the
/// budget stops reading early and reports [`LineRead::TooLong`] — the
/// unbounded `read_line`-into-`String` this replaces let a client
/// streaming an endless header OOM the worker.
fn read_header_line(
    reader: &mut BufReader<&TcpStream>,
    line: &mut String,
    budget: &mut usize,
) -> std::io::Result<LineRead> {
    // +1 so a line using the exact remaining budget is distinguishable
    // from one that overruns it.
    let cap = (*budget as u64).saturating_add(1);
    let n = reader.by_ref().take(cap).read_line(line)?;
    if n > *budget {
        return Ok(LineRead::TooLong);
    }
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    *budget -= n;
    Ok(LineRead::Line)
}

/// Parse one request off the connection's buffered reader. Framing is
/// strict because a persistent connection must stay byte-synchronized:
/// header bytes are capped (`431` past `max_header_bytes`),
/// `Content-Length` must parse and appear at most once (`400` otherwise —
/// the old `unwrap_or(0)` would desynchronize every later request on the
/// connection), an oversized declared body is `413` *before* any buffer
/// is allocated, a `Transfer-Encoding` header is `501` before any body is
/// read (chunked bodies are not decoded), and query-string percent-escapes
/// must decode to valid UTF-8 (`400`).
fn read_request(
    reader: &mut BufReader<&TcpStream>,
    stream: &TcpStream,
    config: &ServerConfig,
) -> ReadOutcome {
    let mut header_budget = config.max_header_bytes;
    let mut line = String::new();
    match read_header_line(reader, &mut line, &mut header_budget) {
        Ok(LineRead::Line) => {}
        // EOF, idle timeout, or any transport error before a request
        // line: nobody is waiting for a response.
        Ok(LineRead::Eof) | Err(_) => return ReadOutcome::Closed,
        Ok(LineRead::TooLong) => {
            return ReadOutcome::Bad(Response::fatal(
                431,
                format!(
                    "request line exceeds the {}-byte header limit",
                    config.max_header_bytes
                ),
            ))
        }
    }
    // A request is in flight: the stalled-client timeout takes over from
    // the (typically longer) idle timeout.
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("HTTP/1.1").to_string();
    if method.is_empty() || !target.starts_with('/') {
        return ReadOutcome::Bad(Response::fatal(400, "malformed request line"));
    }
    let mut content_length: Option<usize> = None;
    let mut connection: Option<String> = None;
    loop {
        line.clear();
        match read_header_line(reader, &mut line, &mut header_budget) {
            Ok(LineRead::Line) => {}
            Ok(LineRead::Eof) => {
                return ReadOutcome::Bad(Response::fatal(400, "connection closed mid-headers"))
            }
            Ok(LineRead::TooLong) => {
                return ReadOutcome::Bad(Response::fatal(
                    431,
                    format!("headers exceed the {}-byte limit", config.max_header_bytes),
                ))
            }
            Err(e) => return ReadOutcome::Bad(Response::fatal(400, e)),
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let parsed: usize = match value.trim().parse() {
                    Ok(n) => n,
                    Err(_) => {
                        return ReadOutcome::Bad(Response::fatal(
                            400,
                            format!("malformed Content-Length {:?}", value.trim()),
                        ))
                    }
                };
                if content_length.replace(parsed).is_some() {
                    return ReadOutcome::Bad(Response::fatal(
                        400,
                        "duplicate Content-Length header",
                    ));
                }
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                // Without a decoder the body's end is unknown: answering as
                // if it were empty would acknowledge what was never read and
                // parse its chunks as the next request.
                return ReadOutcome::Bad(Response::fatal(
                    501,
                    format!(
                        "Transfer-Encoding {:?} is not supported; send Content-Length",
                        value.trim()
                    ),
                ));
            } else if name.eq_ignore_ascii_case("connection") {
                connection = Some(value.trim().to_ascii_lowercase());
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > config.max_body_bytes {
        return ReadOutcome::Bad(Response::fatal(
            413,
            format!(
                "body of {content_length} bytes exceeds the {}-byte limit",
                config.max_body_bytes
            ),
        ));
    }
    let mut body = vec![0u8; content_length];
    if let Err(e) = reader.read_exact(&mut body) {
        return ReadOutcome::Bad(Response::fatal(400, e));
    }
    let body = match String::from_utf8(body) {
        Ok(b) => b,
        Err(_) => return ReadOutcome::Bad(Response::fatal(400, "non-UTF-8 request body")),
    };
    let (path, params) = match target.split_once('?') {
        Some((p, q)) => match parse_query_params(q) {
            Ok(params) => (p.to_string(), params),
            Err(e) => return ReadOutcome::Bad(Response::fatal(400, e)),
        },
        None => (target, HashMap::new()),
    };
    // HTTP/1.1 persists by default; `close` opts out, and bare HTTP/1.0
    // opts out unless the client sends `keep-alive`.
    let keep_alive = match connection.as_deref() {
        Some(v) if v.split(',').any(|t| t.trim() == "close") => false,
        Some(v) if v.split(',').any(|t| t.trim() == "keep-alive") => true,
        _ => version != "HTTP/1.0",
    };
    ReadOutcome::Request(Request {
        method,
        path,
        params,
        body,
        keep_alive,
    })
}

fn parse_query_params(q: &str) -> Result<HashMap<String, String>> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => Ok((wire::percent_decode(k)?, wire::percent_decode(v)?)),
            None => Ok((wire::percent_decode(kv)?, String::new())),
        })
        .collect()
}

fn response_head(response: &Response, keep_alive: bool) -> String {
    let retry_after = response
        .retry_after
        .map(|s| format!("Retry-After: {s}\r\n"))
        .unwrap_or_default();
    let connection = if keep_alive { "keep-alive" } else { "close" };
    format!(
        "HTTP/1.1 {} {}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\n{retry_after}Connection: {connection}\r\n\r\n",
        response.status,
        status_text(response.status),
        response.body.len()
    )
}

fn write_response(mut stream: &TcpStream, response: &Response, keep_alive: bool) {
    // One write per response: separate head/body writes would let Nagle
    // hold the body packet for the client's delayed ACK (~40ms per
    // request) on a persistent connection, where no close flushes it.
    let mut payload = response_head(response, keep_alive);
    payload.push_str(&response.body);
    // A client that hung up early is its own problem; the write result
    // only matters to it, not to the server loop.
    let _ = stream
        .write_all(payload.as_bytes())
        .and_then(|()| stream.flush());
}

/// Render one JSON access-log line. Hand-rolled (the vendored serde is a
/// no-op shim), so strings pass through [`json_escape`]. With `slow` set
/// (the request reached [`ServerConfig::slow_query_ms`]) and a profile on
/// the response, the line carries the full per-operator profile.
fn access_log_line(
    req: Option<&Request>,
    response: &Response,
    endpoint: Endpoint,
    conn_id: u64,
    seq: u64,
    elapsed: Duration,
    slow: bool,
) -> String {
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let mut line = String::with_capacity(192);
    line.push_str(&format!(
        "{{\"unix_ms\":{unix_ms},\"conn\":{conn_id},\"seq\":{seq},\"tenant\":\""
    ));
    json_escape(req.map_or("-", |r| r.tenant()), &mut line);
    line.push_str("\",\"endpoint\":\"");
    line.push_str(endpoint.name());
    line.push_str("\",\"method\":\"");
    json_escape(req.map_or("-", |r| &r.method), &mut line);
    line.push_str("\",\"path\":\"");
    json_escape(req.map_or("-", |r| &r.path), &mut line);
    line.push_str(&format!(
        "\",\"status\":{},\"rows\":{},\"micros\":{}",
        response.status,
        response.rows,
        elapsed.as_micros()
    ));
    if let Some(stages) = &response.stages {
        line.push_str(",\"stages\":{");
        for (i, (stage, d)) in stages.nonzero().iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("\"{}\":{}", stage.name(), d.as_micros()));
        }
        line.push('}');
    }
    if slow {
        line.push_str(",\"slow\":true");
        if let Some(profile) = &response.profile {
            // Already-valid JSON (PlanReport::to_json): splice verbatim.
            line.push_str(",\"profile\":");
            line.push_str(profile);
        }
    }
    line.push('}');
    line
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn route(req: &Request) -> Endpoint {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/query") => Endpoint::Query,
        ("POST", "/prepare") => Endpoint::Prepare,
        ("POST", "/execute") => Endpoint::Execute,
        ("POST", "/unprepare") => Endpoint::Unprepare,
        ("POST", "/explain") => Endpoint::Explain,
        ("POST", "/ingest") => Endpoint::Ingest,
        ("POST", "/checkpoint") => Endpoint::Checkpoint,
        ("GET", "/metrics") => Endpoint::Metrics,
        ("GET", "/healthz") => Endpoint::Healthz,
        ("POST", "/shutdown") => Endpoint::Shutdown,
        _ => Endpoint::Other,
    }
}

fn dispatch(endpoint: Endpoint, req: &Request, shared: &Shared<'_>) -> Response {
    match endpoint {
        Endpoint::Healthz => {
            let mut body = format!("ok epoch={}", shared.session.epoch());
            if let Some(bytes) = shared.session.wal_bytes_since_checkpoint() {
                body.push_str(&format!(" wal_bytes_since_checkpoint={bytes}"));
            }
            body.push('\n');
            Response::ok(body)
        }
        Endpoint::Metrics => {
            Response::ok(shared.session.observability_snapshot().render_prometheus())
        }
        Endpoint::Shutdown => {
            // The response is written by the caller *after* dispatch
            // returns, before this worker re-checks the flag — so the
            // shutdown client itself always gets its acknowledgement.
            shared.shutdown.store(true, Ordering::Release);
            Response::ok("ok draining\n".to_string())
        }
        Endpoint::Query => with_admission(req, shared, handle_query),
        Endpoint::Prepare => with_admission(req, shared, handle_prepare),
        Endpoint::Execute => with_admission(req, shared, handle_execute),
        Endpoint::Unprepare => handle_unprepare(req, shared).unwrap_or_else(|early| early),
        Endpoint::Explain => with_admission(req, shared, handle_explain),
        Endpoint::Ingest => with_admission(req, shared, handle_ingest),
        // Admission-exempt like /shutdown: an operator must be able to
        // checkpoint a session whose tenants have saturated their gates.
        Endpoint::Checkpoint => handle_checkpoint(shared),
        Endpoint::Other => Response::err(404, format!("no route {} {}", req.method, req.path)),
    }
}

/// What a handler returns: `Err` is the response that ends the request
/// early (a rejected parameter, an engine error), so parsing reads as `?`.
type Handled<T> = std::result::Result<T, Response>;

/// Run `f` under the request tenant's admission gate; a full gate is a
/// `429` and a rejection metric, never a queue.
fn with_admission(
    req: &Request,
    shared: &Shared<'_>,
    f: fn(&Request, &Shared<'_>, &AdmissionGuard) -> Handled<Response>,
) -> Response {
    match admit(shared, req.tenant()) {
        Ok(guard) => f(req, shared, &guard).unwrap_or_else(|early| early),
        Err(()) => {
            shared.metrics.rejections.inc();
            Response::err(429, format!("tenant {} at inflight limit", req.tenant()))
        }
    }
}

fn parse_mode(name: &str) -> Option<OptimizerMode> {
    OptimizerMode::ALL.into_iter().find(|m| m.name() == name)
}

fn lookup_template<'t>(
    templates: &'t [QueryTemplate],
    req: &Request,
) -> Handled<(usize, &'t QueryTemplate)> {
    let name = req
        .param("template")
        .ok_or_else(|| Response::err(400, "missing template parameter"))?;
    templates
        .iter()
        .enumerate()
        .find(|(_, t)| t.name() == name)
        .ok_or_else(|| Response::err(400, format!("unknown template {name}")))
}

fn parse_draw(req: &Request) -> Handled<u64> {
    req.param("draw")
        .ok_or_else(|| Response::err(400, "missing draw parameter"))?
        .parse()
        .map_err(|_| Response::err(400, "draw must be a non-negative integer"))
}

fn parse_stmt(req: &Request) -> Handled<u64> {
    match req.param("stmt").map(str::parse) {
        Some(Ok(id)) => Ok(id),
        _ => Err(Response::err(400, "missing or malformed stmt parameter")),
    }
}

fn parse_mode_param(req: &Request) -> Handled<OptimizerMode> {
    match req.param("mode") {
        None => Ok(OptimizerMode::RelGo),
        Some(m) => {
            parse_mode(m).ok_or_else(|| Response::err(400, format!("unknown optimizer mode {m}")))
        }
    }
}

/// Resolve this request's execution deadline: the `deadline_ms` query
/// parameter wins, else the server-wide default, else unbounded. The
/// [`TimeBudget`] starts *here* — queueing, planning and cache probes all
/// count against it, matching what the client actually experiences.
fn parse_deadline(req: &Request, shared: &Shared<'_>) -> Handled<Option<TimeBudget>> {
    let ms = match req.param("deadline_ms") {
        Some(raw) => Some(raw.parse::<u64>().map_err(|_| {
            Response::err(
                400,
                "deadline_ms must be a non-negative integer of milliseconds",
            )
        })?),
        None => shared.config.default_deadline_ms,
    };
    Ok(ms.map(|ms| TimeBudget::new(Duration::from_millis(ms))))
}

/// The deadline and profiling a serving request (`/query`, `/execute`)
/// runs under — the plan source is the endpoint's, not the request's —
/// and whether the client wants the profile as the body's tail.
fn parse_options(req: &Request, shared: &Shared<'_>) -> Handled<(QueryOptions, bool)> {
    let armed = profile_armed(req, shared);
    let options = QueryOptions {
        deadline: parse_deadline(req, shared)?,
        profile: armed.is_some(),
        ..QueryOptions::default()
    };
    Ok((options, armed == Some(true)))
}

/// `Retry-After` advertised on deadline expiries: the query is retryable
/// immediately with a longer (or absent) deadline, so advertise the
/// minimum representable delay.
const DEADLINE_RETRY_AFTER_SECS: u64 = 1;

/// Map an engine error onto an HTTP response, for every endpoint that runs
/// a query. A deadline expiry is the *client's* budget running out, not a
/// server fault: `503` with `Retry-After` (and a metric), keeping the
/// connection alive. A query or schema error (wrong-arity or wrong-type
/// bindings, say) is the client's too: `400`. Anything else is a `500`.
fn engine_error(e: RelGoError, shared: &Shared<'_>) -> Response {
    match e {
        RelGoError::DeadlineExceeded(_) => {
            shared.metrics.deadline_expirations.inc();
            Response::retryable(503, e, DEADLINE_RETRY_AFTER_SECS)
        }
        RelGoError::Query(_) | RelGoError::Schema(_) => Response::err(400, e),
        e => Response::err(500, e),
    }
}

/// Serialize a query outcome: meta line, then one wire-encoded row per
/// line. Charges the tenant's row budget first — a budget-exhausted
/// tenant gets a `429` instead of rows. The serialization wall time is
/// charged to the trace's `serialize` stage (and the session's stage
/// histogram), so trace coverage includes the response-building edge.
///
/// With a `report`, the response carries the per-operator profile for the
/// slow-query log; when the client asked for it (`profile=1`, `want_tail`)
/// the same JSON is appended as the body's final line.
fn render_outcome(
    outcome: &QueryOutcome,
    mode: OptimizerMode,
    shared: &Shared<'_>,
    guard: &AdmissionGuard,
    report: Option<&PlanReport>,
    want_tail: bool,
) -> Response {
    let rows = outcome.table.num_rows();
    if guard.tenant.budget.charge(rows).is_err() {
        shared.metrics.rejections.inc();
        return Response::err(429, "tenant row budget exhausted");
    }
    shared.metrics.rows_served.add(rows as u64);
    let ser_start = Instant::now();
    let mut body = format!(
        "ok rows={rows} cached={} epoch={} mode={}\n",
        outcome.cached,
        outcome.epoch,
        mode.name()
    );
    for r in 0..rows {
        body.push_str(&wire::encode_row(&outcome.table.row(r as u32)));
        body.push('\n');
    }
    let json = report.map(PlanReport::to_json);
    if let (Some(json), true) = (&json, want_tail) {
        // The profile rides as the body's last line, pure JSON — clients
        // (and the CI smoke) can `tail -1 | jq` it off the wire format.
        body.push_str(json);
        body.push('\n');
    }
    let ser = ser_start.elapsed();
    shared.session.metrics().record_stage(Stage::Serialize, ser);
    let mut trace = outcome.trace;
    trace.add(Stage::Serialize, ser);
    let mut response = Response::ok(body);
    response.rows = rows;
    response.stages = Some(Box::new(trace));
    response.profile = json;
    response
}

fn handle_query(req: &Request, shared: &Shared<'_>, guard: &AdmissionGuard) -> Handled<Response> {
    let (_, template) = lookup_template(shared.templates, req)?;
    let draw = parse_draw(req)?;
    let mode = parse_mode_param(req)?;
    let (options, want_tail) = parse_options(req, shared)?;
    let options = QueryOptions {
        plan: PlanSource::Cached,
        ..options
    };
    let query = template
        .instantiate(draw)
        .map_err(|e| Response::err(400, e))?;
    let (outcome, report) = shared
        .session
        .query(&query, mode, &options)
        .map_err(|e| engine_error(e, shared))?;
    Ok(render_outcome(
        &outcome,
        mode,
        shared,
        guard,
        report.as_ref(),
        want_tail,
    ))
}

/// Whether this request executes with operator profiling armed, and if so
/// whether the client asked for the profile back (`profile=1`). A
/// configured slow-query threshold arms profiling on every query (else an
/// over-threshold query would have no profile to log); the JSON tail is
/// only sent when explicitly requested.
fn profile_armed(req: &Request, shared: &Shared<'_>) -> Option<bool> {
    let want_tail = req.param("profile").is_some_and(|v| v == "1");
    (want_tail || shared.config.slow_query_ms.is_some()).then_some(want_tail)
}

fn handle_prepare(
    req: &Request,
    shared: &Shared<'_>,
    _guard: &AdmissionGuard,
) -> Handled<Response> {
    let (template_idx, template) = lookup_template(shared.templates, req)?;
    let mode = parse_mode_param(req)?;
    // Any instance parameterizes to the template's plan-cache key; draw 0
    // is as good a representative as any.
    let query = template.instantiate(0).map_err(|e| Response::err(400, e))?;
    let cap = shared.config.max_prepared_statements;
    // Refuse at the cap before planning: a client there must neither make
    // the server optimize nor move the plan-cache counters.
    if shared.statements.lock().expect("statements lock").len() >= cap {
        return Err(prepared_cap_reached(shared));
    }
    let stmt = shared
        .session
        .prepare(&query, mode)
        .map(Arc::new)
        .map_err(|e| Response::err(500, e))?;
    let id = shared.next_stmt.fetch_add(1, Ordering::Relaxed);
    // Re-check and insert under one lock acquisition, so concurrent
    // prepares that all passed the check above cannot overshoot the cap.
    let mut statements = shared.statements.lock().expect("statements lock");
    if statements.len() >= cap {
        drop(statements);
        return Err(prepared_cap_reached(shared));
    }
    statements.insert(id, StmtEntry { stmt, template_idx });
    Ok(Response::ok(format!("ok stmt={id}\n")))
}

/// The `429` a `/prepare` gets at the prepared-statement cap.
fn prepared_cap_reached(shared: &Shared<'_>) -> Response {
    shared.metrics.rejections.inc();
    Response::err(
        429,
        format!(
            "prepared-statement cap ({}) reached; release handles via POST /unprepare",
            shared.config.max_prepared_statements
        ),
    )
}

/// Release a prepared handle: drops the pinned plan (once no in-flight
/// `/execute` still holds its clone) and frees a cap slot.
fn handle_unprepare(req: &Request, shared: &Shared<'_>) -> Handled<Response> {
    let id = parse_stmt(req)?;
    match shared
        .statements
        .lock()
        .expect("statements lock")
        .remove(&id)
    {
        Some(_) => Ok(Response::ok(format!("ok unprepared={id}\n"))),
        None => Err(Response::err(400, format!("unknown statement {id}"))),
    }
}

fn handle_execute(req: &Request, shared: &Shared<'_>, guard: &AdmissionGuard) -> Handled<Response> {
    let id = parse_stmt(req)?;
    let (options, want_tail) = parse_options(req, shared)?;
    // Clone the handle out so execution never holds the statements lock.
    let (stmt, template_idx) = {
        let statements = shared.statements.lock().expect("statements lock");
        let entry = statements
            .get(&id)
            .ok_or_else(|| Response::err(400, format!("unknown statement {id}")))?;
        (Arc::clone(&entry.stmt), entry.template_idx)
    };
    // Bindings come from exactly one of two places: client-supplied
    // wire-tagged values (`bind=i:42|s:x`, the `|`/`%` wire-escaped then
    // URL-escaped — the query-param decode already stripped the URL
    // layer), or the template's deterministic generator (`draw=N`). The
    // pipeline validates them against the statement's slot signature, so
    // a wrong-arity or wrong-type bind row surfaces as a typed error.
    let bindings = match (req.param("bind"), req.param("draw")) {
        (Some(_), Some(_)) => {
            return Err(Response::err(400, "bind and draw are mutually exclusive"));
        }
        (Some(row), None) => wire::decode_row(row)
            .map_err(|e| Response::err(400, format!("malformed bind row: {e}")))?,
        (None, _) => shared.templates[template_idx]
            .bindings(parse_draw(req)?)
            .map_err(|e| Response::err(400, e))?,
    };
    let (outcome, report) = stmt
        .query(&bindings, &options)
        .map_err(|e| engine_error(e, shared))?;
    Ok(render_outcome(
        &outcome,
        stmt.mode(),
        shared,
        guard,
        report.as_ref(),
        want_tail,
    ))
}

/// `POST /explain?template=NAME&draw=N[&mode=M][&analyze=0]`: optimize the
/// instantiated query and return the rendered plan tree. The default is
/// EXPLAIN ANALYZE — the query executes with operator profiling (under the
/// request's deadline, like `/query`) and each line carries `est`/`act`
/// rows and the operator's Q-error; `analyze=0` skips execution and
/// annotates estimates only. The tree rides after an
/// `ok ops=N analyze=B mode=M` meta line; result rows are never returned
/// (so the tenant row budget is not charged), but the executed variant
/// still runs under the admission gate.
fn handle_explain(
    req: &Request,
    shared: &Shared<'_>,
    _guard: &AdmissionGuard,
) -> Handled<Response> {
    let (_, template) = lookup_template(shared.templates, req)?;
    let draw = parse_draw(req)?;
    let mode = parse_mode_param(req)?;
    let query = template
        .instantiate(draw)
        .map_err(|e| Response::err(400, e))?;
    if req.param("analyze") == Some("0") {
        let rendered = shared
            .session
            .explain(&query, mode)
            .map_err(|e| engine_error(e, shared))?;
        return Ok(Response::ok(format!(
            "ok ops={} analyze=0 mode={}\n{rendered}",
            rendered.lines().count(),
            mode.name()
        )));
    }
    let options = QueryOptions {
        plan: PlanSource::Fresh,
        deadline: parse_deadline(req, shared)?,
        profile: true,
    };
    let (outcome, report) = shared
        .session
        .query(&query, mode, &options)
        .map_err(|e| engine_error(e, shared))?;
    let ea = ExplainAnalyze::render(outcome, report.expect("profiling was on"));
    let mut response = Response::ok(format!(
        "ok ops={} analyze=1 mode={}\n{}",
        ea.report.ops.len(),
        mode.name(),
        ea.rendered
    ));
    response.stages = Some(Box::new(ea.outcome.trace));
    response.profile = Some(ea.report.to_json());
    Ok(response)
}

fn handle_ingest(req: &Request, shared: &Shared<'_>, _guard: &AdmissionGuard) -> Handled<Response> {
    let mut batch = shared.session.begin_ingest();
    for (lineno, line) in req.body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        wire::apply_ingest_line(&mut batch, line)
            .map_err(|e| Response::err(400, format!("line {}: {e}", lineno + 1)))?;
    }
    Ok(match batch.commit() {
        Ok(report) => {
            let mut response = Response::ok(format!(
                "ok epoch={} inserted={} deleted={}\n",
                report.epoch, report.inserted, report.deleted
            ));
            // Surface WAL durability time in the access log's stage
            // breakdown (zero on in-memory sessions stays omitted —
            // `nonzero()` filters it).
            let mut stages = StageTimings::default();
            stages.add(Stage::WalAppend, report.wal_time);
            response.stages = Some(Box::new(stages));
            response
        }
        Err(CommitError::Conflict { table, key, .. }) => Response::retryable(
            409,
            format!("write-write conflict on {table} key {key}"),
            INGEST_RETRY_AFTER_SECS,
        ),
        Err(CommitError::StaleBase { base_epoch, .. }) => Response::retryable(
            409,
            format!("base epoch {base_epoch} predates the retained commit log"),
            INGEST_RETRY_AFTER_SECS,
        ),
        Err(CommitError::Failed(e)) => Response::err(400, e),
    })
}

/// `Retry-After` advertised on lost `/ingest` commit races. The conflict
/// window is one group-commit, so the smallest representable HTTP delay
/// (seconds are the unit) is already generous.
const INGEST_RETRY_AFTER_SECS: u64 = 1;

/// `POST /checkpoint`: snapshot the current epoch next to the WAL and
/// compact the log behind it (see [`Session::checkpoint`]). `400` on an
/// in-memory session — there is no log to bound.
fn handle_checkpoint(shared: &Shared<'_>) -> Response {
    if !shared.session.is_durable() {
        return Response::err(400, "session is not durable (no WAL to checkpoint)");
    }
    match shared.session.checkpoint() {
        Ok(report) => Response::ok(format!(
            "ok checkpoint epoch={} bytes={} wal_records_dropped={} wal_bytes_retained={}\n",
            report.epoch, report.bytes, report.wal.records_dropped, report.wal.bytes_retained
        )),
        Err(e) => Response::err(500, e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_names_are_distinct_labels() {
        let mut names: Vec<&str> = Endpoint::ALL.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Endpoint::ALL.len());
    }

    #[test]
    fn query_param_parsing_decodes() {
        let params = parse_query_params("template=IC1-2&draw=5&tenant=team%20a&flag").unwrap();
        assert_eq!(params.get("template").unwrap(), "IC1-2");
        assert_eq!(params.get("draw").unwrap(), "5");
        assert_eq!(params.get("tenant").unwrap(), "team a");
        assert_eq!(params.get("flag").unwrap(), "");
    }

    #[test]
    fn query_params_reject_invalid_utf8_escapes() {
        let err = parse_query_params("tenant=%FF").unwrap_err();
        assert!(err.to_string().contains("invalid UTF-8"), "{err}");
    }

    #[test]
    fn retryable_responses_carry_a_retry_after_header() {
        let head = response_head(&Response::retryable(409, "conflict", 1), true);
        assert!(head.contains("HTTP/1.1 409 Conflict\r\n"), "{head}");
        assert!(head.contains("\r\nRetry-After: 1\r\n"), "{head}");
        let head = response_head(&Response::err(400, "bad"), true);
        assert!(!head.contains("Retry-After"), "{head}");
        let head = response_head(&Response::ok("ok\n".to_string()), true);
        assert!(!head.contains("Retry-After"), "{head}");
    }

    #[test]
    fn response_head_advertises_the_connection_decision() {
        let keep = response_head(&Response::ok("ok\n".to_string()), true);
        assert!(keep.contains("\r\nConnection: keep-alive\r\n"), "{keep}");
        let close = response_head(&Response::ok("ok\n".to_string()), false);
        assert!(close.contains("\r\nConnection: close\r\n"), "{close}");
    }

    #[test]
    fn access_log_lines_are_json_with_escaped_strings() {
        let mut req = Request {
            method: "POST".to_string(),
            path: "/query".to_string(),
            params: HashMap::new(),
            body: String::new(),
            keep_alive: true,
        };
        req.params
            .insert("tenant".to_string(), "team \"a\"\\b".to_string());
        let mut response = Response::ok("ok\n".to_string());
        response.rows = 7;
        let line = access_log_line(
            Some(&req),
            &response,
            Endpoint::Query,
            3,
            2,
            Duration::from_micros(1500),
            false,
        );
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"conn\":3,\"seq\":2"), "{line}");
        assert!(
            line.contains("\"tenant\":\"team \\\"a\\\"\\\\b\""),
            "{line}"
        );
        assert!(line.contains("\"endpoint\":\"query\""), "{line}");
        assert!(
            line.contains("\"status\":200,\"rows\":7,\"micros\":1500"),
            "{line}"
        );
        assert!(!line.contains("\"slow\""), "{line}");
        // A slow request with a profile splices it into the line.
        let mut slow_resp = Response::ok("ok\n".to_string());
        slow_resp.profile = Some("[{\"op\":0,\"kind\":\"SCAN\"}]".to_string());
        let slow = access_log_line(
            Some(&req),
            &slow_resp,
            Endpoint::Query,
            3,
            3,
            Duration::from_millis(250),
            true,
        );
        assert!(
            slow.contains("\"slow\":true,\"profile\":[{\"op\":0,\"kind\":\"SCAN\"}]}"),
            "{slow}"
        );
        // A request that never parsed logs placeholder fields.
        let bad = access_log_line(
            None,
            &Response::fatal(431, "too big"),
            Endpoint::Other,
            1,
            1,
            Duration::ZERO,
            false,
        );
        assert!(bad.contains("\"tenant\":\"-\""), "{bad}");
        assert!(bad.contains("\"status\":431"), "{bad}");
    }

    #[test]
    fn mode_names_round_trip() {
        for mode in OptimizerMode::ALL {
            assert_eq!(parse_mode(mode.name()), Some(mode));
        }
        assert_eq!(parse_mode("NoSuchOptimizer"), None);
    }
}
