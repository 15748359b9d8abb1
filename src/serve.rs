//! `vx serve` — a std-only HTTP/1.1 + JSON query server over shared
//! immutable stores.
//!
//! The server is the payoff of the [`vx_core::StoreHandle`] refactor:
//! every store is opened **once** at startup, every query is compiled
//! **once** into the per-`(store, query-text)` cache, and a fixed pool
//! of worker threads answers requests concurrently against the same
//! `Arc`-shared handles — no locks anywhere on the read path (the query
//! cache takes a brief `RwLock` around a `HashMap` probe; evaluation
//! itself touches only immutable store data plus per-call scratch).
//!
//! The protocol is deliberately small (no external dependencies — the
//! build environment is offline):
//!
//! | endpoint | body | answer |
//! |---|---|---|
//! | `POST /query` | `{"store":"name","query":"XQ…","out":"values"\|"xml"}` | `{"store","query","cached","trace","values":[…]}` or `{"xml":"…"}` |
//! | `POST /query` + `"explain":true` | same body | `{"store","query","cached","trace","plan":"…"}` — the planner's decisions, nothing runs |
//! | `POST /query` + `"profile":true` | same body | the answer plus `"profile"`: per-step seconds, deterministic counters, per-variable cardinalities |
//! | `GET /stats` | — | JSON: server counters, engine counter totals, slow-log summary, per-store catalog summary |
//! | `GET /metrics` | — | Prometheus text exposition (counters, gauges, cumulative latency buckets) |
//! | `GET /debug/slow` | — | the slow-query flight recorder's entries (plan + profile per slow request) |
//! | `GET /healthz` | — | `{"status":"ok","stores":[…]}` |
//! | `POST /reload` | — | reopens every store from disk and swaps the handles |
//! | `POST /shutdown` | — | acknowledges, then drains the worker pool |
//!
//! **Request-scoped tracing.** Every request is assigned a
//! [`vx_obs::TraceId`] at parse time. The id is threaded through the
//! engine via [`RunOptions::trace`] — so with `VX_LOG` on, every
//! `engine.step`/`engine.join`/`engine.reduce` event carries a `trace`
//! field attributing spans and counter deltas to one request even when
//! many run concurrently — and echoed to the client: `"trace"` in
//! `/query` answers, `"request_id"` inside every structured error body.
//! `/query` always runs instrumented (the flight recorder below needs
//! the profile *after* the run turns out slow), which pins multi-store
//! collection to the serial path; per-request counters are additionally
//! folded into process totals served by `/stats` and `/metrics`.
//!
//! **Slow-query flight recorder.** Requests slower than `VX_SLOW_MS`
//! milliseconds (default 100, overridable per server via
//! [`ServeOptions`]) are captured into a fixed-size [`vx_obs::Ring`]:
//! full profile, rendered plan (each join edge's access), and trace id.
//! `GET /debug/slow` exposes the ring; a graceful shutdown dumps it to
//! stderr so a post-mortem still sees the tail. Capturing the plan
//! re-runs collection (enumeration never starts), a deliberate trade:
//! slow queries are rare and already expensive, and the plan is
//! reconstructed only for them.
//!
//! **Hot reload.** Each store lives in a slot holding an
//! `RwLock<StoreHandle>`; request handlers clone the handle (an `Arc`
//! bump) under a read lock, so `POST /reload` can reopen the directory —
//! picking up appended WAL records or a new compacted generation — and
//! swap the slot under the write lock while in-flight queries finish
//! against the handle they already cloned. The compiled-query cache
//! survives reloads untouched: compilation only parses query text, never
//! the store. The cache is bounded (FIFO eviction, default 256 entries);
//! evictions count and emit a `serve.cache.evict` event.
//!
//! Errors are structured JSON —
//! `{"error":{"code","kind","message","request_id"}}` — mapped from
//! [`vx_engine::EngineError`]: parse/unsupported/unknown-document
//! failures are 400s, an unknown store name is a 404, and a corrupt
//! store is a 500. `store` may be omitted: with one store every
//! `doc("…")` name resolves to it, and with several the query's
//! `doc("name")` references resolve across the stores by name
//! (cross-store joins included).

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use vx_core::json::{self, Json};
use vx_core::StoreHandle;
use vx_engine::{EngineError, Query, RunOptions, Targets};
use vx_obs::registry::LATENCY_BOUNDS_US;
use vx_obs::{Counters, Histogram, Registry, Ring, TraceId};

/// Largest accepted request body (a query text, not a document).
const MAX_BODY: usize = 1 << 20;

/// Per-connection socket read timeout: a stalled keep-alive client
/// releases its worker instead of pinning it forever.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Server tuning knobs, separated from `bind` so tests can pin them
/// explicitly instead of racing on process-global environment variables.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Requests at least this many milliseconds long enter the slow-query
    /// flight recorder. `0` records every query.
    pub slow_ms: u64,
    /// Flight-recorder ring capacity (most recent N slow queries).
    pub slow_log_capacity: usize,
    /// Compiled-query cache bound; oldest entries evict first (FIFO).
    pub query_cache_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            slow_ms: 100,
            slow_log_capacity: 64,
            query_cache_capacity: 256,
        }
    }
}

impl ServeOptions {
    /// Defaults with environment overrides: `VX_SLOW_MS` (threshold in
    /// milliseconds) and `VX_SERVE_CACHE` (query-cache capacity).
    pub fn from_env() -> ServeOptions {
        let mut options = ServeOptions::default();
        if let Some(ms) = std::env::var("VX_SLOW_MS")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            options.slow_ms = ms;
        }
        if let Some(cap) = std::env::var("VX_SERVE_CACHE")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            options.query_cache_capacity = cap;
        }
        options
    }
}

/// One store's slot: the directory it reloads from and the currently
/// served handle. Swapped whole by `POST /reload`; readers clone the
/// handle (an `Arc` bump) and never hold the lock across evaluation.
struct StoreSlot {
    dir: PathBuf,
    handle: RwLock<StoreHandle>,
}

impl StoreSlot {
    /// Clones the current handle. A poisoned lock (a panicking writer)
    /// still holds a valid handle — reloads build the new handle fully
    /// before taking the write lock — so serving continues.
    fn get(&self) -> StoreHandle {
        match self.handle.read() {
            Ok(handle) => handle.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    fn swap(&self, new_handle: StoreHandle) {
        match self.handle.write() {
            Ok(mut handle) => *handle = new_handle,
            Err(poisoned) => *poisoned.into_inner() = new_handle,
        }
    }
}

/// The bounded compiled-query cache: `(store, query-text)` → compiled
/// query, FIFO eviction at capacity. FIFO (not LRU) keeps the hot-path
/// probe a pure read — promoting on hit would need a write lock per
/// request.
struct QueryCache {
    map: HashMap<(String, String), Arc<Query>>,
    fifo: VecDeque<(String, String)>,
    capacity: usize,
}

impl QueryCache {
    fn new(capacity: usize) -> QueryCache {
        QueryCache {
            map: HashMap::new(),
            fifo: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    fn get(&self, key: &(String, String)) -> Option<Arc<Query>> {
        self.map.get(key).cloned()
    }

    /// Inserts `query`, returning the evicted key when the cache was
    /// full. Re-inserting an existing key (two workers compiled the same
    /// miss concurrently) replaces the entry without growing the queue.
    fn insert(&mut self, key: (String, String), query: Arc<Query>) -> Option<(String, String)> {
        if self.map.insert(key.clone(), query).is_some() {
            return None;
        }
        self.fifo.push_back(key);
        if self.fifo.len() > self.capacity {
            if let Some(oldest) = self.fifo.pop_front() {
                self.map.remove(&oldest);
                return Some(oldest);
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Everything the worker threads share. Store slots swap atomically on
/// reload and compiled queries are immutable once inserted; the
/// histograms are lock-free.
struct AppState {
    /// Store name (directory basename) → slot, plus the names in
    /// startup order for deterministic listings.
    stores: HashMap<String, StoreSlot>,
    order: Vec<String>,
    queries: RwLock<QueryCache>,
    /// Per-endpoint request latency, recorded for every answered
    /// request including error answers.
    lat_query: Histogram,
    lat_stats: Histogram,
    lat_metrics: Histogram,
    lat_healthz: Histogram,
    requests: AtomicU64,
    errors: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    /// Successful `POST /reload` store swaps.
    reloads: AtomicU64,
    /// Open TCP connections (keep-alive idlers included).
    connections: AtomicU64,
    /// Requests currently inside `handle`.
    inflight: AtomicU64,
    /// Process totals of every per-request engine profile: the sum over
    /// requests of their deterministic counter deltas.
    engine_totals: Mutex<Counters>,
    /// The slow-query flight recorder (entries are pre-rendered JSON).
    slow_log: Ring<Json>,
    slow_ms: u64,
    shutdown: AtomicBool,
    started: Instant,
}

impl AppState {
    fn engine_totals_snapshot(&self) -> Counters {
        match self.engine_totals.lock() {
            Ok(totals) => totals.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    fn merge_engine_counters(&self, counters: &Counters) {
        let mut totals = match self.engine_totals.lock() {
            Ok(totals) => totals,
            Err(poisoned) => poisoned.into_inner(),
        };
        totals.merge(counters);
    }
}

const fn assert_send_sync<T: Send + Sync>() {}
const _: () = assert_send_sync::<AppState>();

/// A bound, not-yet-running server. [`Server::bind`] opens the stores
/// and the listener; [`Server::run`] blocks until a `POST /shutdown`
/// drains the pool. Tests bind to port 0 and read
/// [`Server::local_addr`].
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    threads: usize,
}

impl Server {
    /// Opens every store directory into a [`StoreHandle`] (name = the
    /// directory's basename) and binds `addr`, with options from the
    /// environment (`VX_SLOW_MS`, `VX_SERVE_CACHE`). Duplicate basenames
    /// and unopenable stores are errors — a server that silently dropped
    /// a store would answer 404s for data the operator pointed it at.
    pub fn bind(store_dirs: &[&Path], addr: &str, threads: usize) -> crate::Result<Server> {
        Server::bind_with(store_dirs, addr, threads, &ServeOptions::from_env())
    }

    /// [`Server::bind`] with explicit [`ServeOptions`].
    pub fn bind_with(
        store_dirs: &[&Path],
        addr: &str,
        threads: usize,
        options: &ServeOptions,
    ) -> crate::Result<Server> {
        if store_dirs.is_empty() {
            return Err(crate::Error::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "serve: at least one store directory is required",
            )));
        }
        let mut stores = HashMap::new();
        let mut order = Vec::new();
        for dir in store_dirs {
            let handle = StoreHandle::open(dir).map_err(crate::Error::Core)?;
            let name = handle.name().to_string();
            let slot = StoreSlot {
                dir: dir.to_path_buf(),
                handle: RwLock::new(handle),
            };
            if stores.insert(name.clone(), slot).is_some() {
                return Err(crate::Error::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("serve: duplicate store name `{name}`"),
                )));
            }
            order.push(name);
        }
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            state: Arc::new(AppState {
                stores,
                order,
                queries: RwLock::new(QueryCache::new(options.query_cache_capacity)),
                lat_query: Histogram::new(),
                lat_stats: Histogram::new(),
                lat_metrics: Histogram::new(),
                lat_healthz: Histogram::new(),
                requests: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                cache_hits: AtomicU64::new(0),
                cache_misses: AtomicU64::new(0),
                cache_evictions: AtomicU64::new(0),
                reloads: AtomicU64::new(0),
                connections: AtomicU64::new(0),
                inflight: AtomicU64::new(0),
                engine_totals: Mutex::new(Counters::new()),
                slow_log: Ring::new(options.slow_log_capacity),
                slow_ms: options.slow_ms,
                shutdown: AtomicBool::new(false),
                started: Instant::now(),
            }),
            threads: threads.max(1),
        })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// Runs the accept loop on `threads` worker threads and blocks until
    /// shutdown. Each worker accepts connections from the shared
    /// listener and serves keep-alive requests until the client closes
    /// or `POST /shutdown` flips the flag; the shutdown handler then
    /// wakes every blocked `accept` with self-connections so the pool
    /// drains promptly and deterministically. After the pool drains, the
    /// slow-query flight recorder is dumped to stderr so a graceful
    /// shutdown never discards the evidence it collected.
    pub fn run(self) -> crate::Result<()> {
        let addr = self.local_addr();
        std::thread::scope(|scope| {
            for _ in 0..self.threads {
                let listener = self
                    .listener
                    .try_clone()
                    .expect("listener handles are clonable");
                let state = Arc::clone(&self.state);
                scope.spawn(move || {
                    while !state.shutdown.load(Ordering::SeqCst) {
                        match listener.accept() {
                            Ok((stream, _)) => serve_connection(stream, &state, addr),
                            Err(_) => break,
                        }
                    }
                });
            }
        });
        let entries = self.state.slow_log.snapshot();
        if !entries.is_empty() {
            eprintln!(
                "vx serve: flight recorder held {} slow quer{} at shutdown \
                 ({} recorded over the process lifetime):",
                entries.len(),
                if entries.len() == 1 { "y" } else { "ies" },
                self.state.slow_log.total_pushed(),
            );
            for entry in &entries {
                eprintln!("{}", json::to_string_pretty(entry));
            }
        }
        Ok(())
    }
}

/// Serves one TCP connection: keep-alive request loop until the client
/// closes, errors, or shutdown begins.
fn serve_connection(stream: TcpStream, state: &Arc<AppState>, addr: SocketAddr) {
    struct ConnGuard<'a>(&'a AtomicU64);
    impl Drop for ConnGuard<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::Relaxed);
        }
    }
    state.connections.fetch_add(1, Ordering::Relaxed);
    let _guard = ConnGuard(&state.connections);

    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return, // clean EOF between requests
            Err(RequestError::Io) => return,
            Err(RequestError::Malformed(message)) => {
                let trace = TraceId::next();
                log_error(state, "bad_request", &message, trace);
                let body = error_json(400, "bad_request", &message, trace);
                let _ = write_response(&mut writer, 400, "Bad Request", &body, JSON, false);
                return;
            }
        };
        // One trace id per request, echoed in every answer and attached
        // to every event the request's evaluation emits.
        let trace = TraceId::next();
        let keep_alive = request.keep_alive && !state.shutdown.load(Ordering::SeqCst);
        let start = Instant::now();
        state.inflight.fetch_add(1, Ordering::Relaxed);
        let reply = handle(&request, state, trace);
        state.inflight.fetch_sub(1, Ordering::Relaxed);
        state.requests.fetch_add(1, Ordering::Relaxed);
        if reply.status >= 400 {
            state.errors.fetch_add(1, Ordering::Relaxed);
        }
        let secs = start.elapsed().as_secs_f64();
        if let Some(hist) = endpoint_histogram(state, &request) {
            hist.record_secs(secs);
        }
        if vx_obs::log_enabled() {
            let id = trace.to_string();
            vx_obs::event(
                "serve.request",
                &[
                    ("method", vx_obs::Value::Str(&request.method)),
                    ("path", vx_obs::Value::Str(&request.path)),
                    ("status", vx_obs::Value::U64(reply.status as u64)),
                    ("secs", vx_obs::Value::F64(secs)),
                    ("trace", vx_obs::Value::Str(&id)),
                ],
            );
        }
        let reason = match reply.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            _ => "Internal Server Error",
        };
        if write_response(
            &mut writer,
            reply.status,
            reason,
            &reply.body,
            reply.content_type,
            keep_alive,
        )
        .is_err()
        {
            return;
        }
        // A shutdown request is answered first, then the pool is woken.
        if request.method == "POST" && request.path == "/shutdown" {
            state.shutdown.store(true, Ordering::SeqCst);
            for _ in 0..64 {
                match TcpStream::connect(addr) {
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            return;
        }
        if !keep_alive {
            return;
        }
    }
}

fn endpoint_histogram<'a>(state: &'a AppState, request: &Request) -> Option<&'a Histogram> {
    match request.path.as_str() {
        "/query" => Some(&state.lat_query),
        "/stats" => Some(&state.lat_stats),
        "/metrics" => Some(&state.lat_metrics),
        "/healthz" => Some(&state.lat_healthz),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Minimal HTTP/1.1 parsing and writing
// ---------------------------------------------------------------------

struct Request {
    method: String,
    path: String,
    keep_alive: bool,
    body: Vec<u8>,
}

/// One computed answer: status, body, and its media type.
struct Reply {
    status: u16,
    body: String,
    content_type: &'static str,
}

const JSON: &str = "application/json";
/// The Prometheus text exposition media type.
const PROM: &str = "text/plain; version=0.0.4; charset=utf-8";

impl Reply {
    fn json(status: u16, body: String) -> Reply {
        Reply {
            status,
            body,
            content_type: JSON,
        }
    }
}

enum RequestError {
    /// Read failure or timeout: drop the connection silently.
    Io,
    /// The bytes arrived but are not HTTP we accept: answer 400.
    Malformed(String),
}

fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Option<Request>, RequestError> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(_) => return Err(RequestError::Io),
    }
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_string(), t.to_string(), v),
        _ => return Err(RequestError::Malformed("malformed request line".into())),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(RequestError::Malformed(format!(
            "unsupported protocol version {version}"
        )));
    }
    let mut keep_alive = version == "HTTP/1.1";
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(0) => return Ok(None),
            Ok(_) => {}
            Err(_) => return Err(RequestError::Io),
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .parse()
                    .map_err(|_| RequestError::Malformed("bad Content-Length".into()))?;
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(RequestError::Malformed(format!(
            "request body exceeds {MAX_BODY} bytes"
        )));
    }
    let mut body = vec![0u8; content_length];
    if reader.read_exact(&mut body).is_err() {
        return Err(RequestError::Io);
    }
    // Strip a `?query` suffix; no endpoint takes URL parameters today.
    let path = target.split('?').next().unwrap_or(&target).to_string();
    Ok(Some(Request {
        method,
        path,
        keep_alive,
        body,
    }))
}

fn write_response(
    writer: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &str,
    content_type: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n",
        body.len()
    );
    writer.write_all(head.as_bytes())?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

// ---------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------

fn error_json(code: u16, kind: &str, message: &str, trace: TraceId) -> String {
    let error = Json::Object(vec![
        ("code".into(), Json::Num(code as f64)),
        ("kind".into(), Json::Str(kind.into())),
        ("message".into(), Json::Str(message.into())),
        ("request_id".into(), Json::Str(trace.to_string())),
    ]);
    json::to_string_pretty(&Json::Object(vec![("error".into(), error)]))
}

/// Mirrors a structured error into the `VX_LOG` sink (keyed by the same
/// `request_id` the client received, so a client-reported failure greps
/// straight to the server-side record).
fn log_error(_state: &AppState, kind: &str, message: &str, trace: TraceId) {
    if !vx_obs::log_enabled() {
        return;
    }
    let id = trace.to_string();
    vx_obs::event(
        "serve.error",
        &[
            ("kind", vx_obs::Value::Str(kind)),
            ("message", vx_obs::Value::Str(message)),
            ("request_id", vx_obs::Value::Str(&id)),
        ],
    );
}

/// Maps an engine failure onto `(status, kind)`: the caller's fault
/// (unparseable, unsupported, unknown document) is a 400; a store that
/// fails mid-query is a 500.
fn engine_error_reply(state: &AppState, e: &EngineError, trace: TraceId) -> Reply {
    let (code, kind) = match e {
        EngineError::Xq(_) => (400, "bad_query"),
        EngineError::Unsupported { .. } => (400, "unsupported_query"),
        EngineError::UnknownDocument(_) => (400, "unknown_document"),
        EngineError::Corrupt(_) | EngineError::Core(_) => (500, "store_error"),
    };
    let message = e.to_string();
    log_error(state, kind, &message, trace);
    Reply::json(code, error_json(code, kind, &message, trace))
}

fn bad_request(state: &AppState, message: &str, trace: TraceId) -> Reply {
    log_error(state, "bad_request", message, trace);
    Reply::json(400, error_json(400, "bad_request", message, trace))
}

fn handle(request: &Request, state: &Arc<AppState>, trace: TraceId) -> Reply {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/query") => handle_query(request, state, trace),
        ("POST", "/reload") => handle_reload(state),
        ("GET", "/stats") => Reply::json(200, stats_json(state)),
        ("GET", "/metrics") => Reply {
            status: 200,
            body: metrics_text(state),
            content_type: PROM,
        },
        ("GET", "/debug/slow") => Reply::json(200, slow_json(state)),
        ("GET", "/healthz") => Reply::json(200, healthz_json(state)),
        ("POST", "/shutdown") => Reply::json(
            200,
            json::to_string_pretty(&Json::Object(vec![(
                "status".into(),
                Json::Str("shutting down".into()),
            )])),
        ),
        ("POST" | "GET", path) if known_path(path) => {
            let message = format!("wrong method for {path}");
            log_error(state, "method_not_allowed", &message, trace);
            Reply::json(405, error_json(405, "method_not_allowed", &message, trace))
        }
        (_, path) => {
            let message = format!("no such endpoint {path}");
            log_error(state, "not_found", &message, trace);
            Reply::json(404, error_json(404, "not_found", &message, trace))
        }
    }
}

fn known_path(path: &str) -> bool {
    matches!(
        path,
        "/query" | "/stats" | "/metrics" | "/debug/slow" | "/healthz" | "/reload" | "/shutdown"
    )
}

/// `POST /reload`: reopens every store directory and swaps the slots.
/// In-flight queries keep the handle they already cloned; new requests
/// see the fresh one — appended WAL records become visible, a compacted
/// generation takes over, all without dropping a connection. A store
/// that fails to reopen keeps its old handle and turns the response
/// into a 500 listing the failure; the other stores still swap.
fn handle_reload(state: &Arc<AppState>) -> Reply {
    let mut stores = Vec::new();
    let mut failures = 0u64;
    for name in &state.order {
        let slot = &state.stores[name];
        let start = Instant::now();
        match StoreHandle::open(&slot.dir) {
            Ok(new_handle) => {
                let generation = new_handle.generation();
                let wal_pending = new_handle.wal().pending_docs;
                let vectors = new_handle.catalog().vectors.len();
                slot.swap(new_handle);
                state.reloads.fetch_add(1, Ordering::Relaxed);
                if vx_obs::log_enabled() {
                    vx_obs::event(
                        "serve.reload",
                        &[
                            ("store", vx_obs::Value::Str(name)),
                            ("generation", vx_obs::Value::U64(generation as u64)),
                            ("wal_pending", vx_obs::Value::U64(wal_pending)),
                            ("secs", vx_obs::Value::F64(start.elapsed().as_secs_f64())),
                        ],
                    );
                }
                stores.push(Json::Object(vec![
                    ("name".into(), Json::Str(name.clone())),
                    ("status".into(), Json::Str("reloaded".into())),
                    ("generation".into(), Json::Num(generation as f64)),
                    ("wal_pending".into(), Json::Num(wal_pending as f64)),
                    ("vectors".into(), Json::Num(vectors as f64)),
                ]));
            }
            Err(e) => {
                failures += 1;
                stores.push(Json::Object(vec![
                    ("name".into(), Json::Str(name.clone())),
                    ("status".into(), Json::Str("error".into())),
                    ("message".into(), Json::Str(e.to_string())),
                ]));
            }
        }
    }
    let status = if failures == 0 { 200 } else { 500 };
    let body = json::to_string_pretty(&Json::Object(vec![
        (
            "status".into(),
            Json::Str(if failures == 0 { "ok" } else { "partial" }.into()),
        ),
        ("stores".into(), Json::Array(stores)),
    ]));
    Reply::json(status, body)
}

fn handle_query(request: &Request, state: &Arc<AppState>, trace: TraceId) -> Reply {
    let body = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return bad_request(state, "body is not UTF-8", trace),
    };
    let parsed = match json::parse(body) {
        Ok(parsed) => parsed,
        Err(e) => return bad_request(state, &format!("bad JSON: {e}"), trace),
    };
    let Some(query_text) = parsed.get("query").and_then(Json::as_str) else {
        return bad_request(state, "missing string field `query`", trace);
    };
    // `store` present: every doc("…") name in the query resolves to
    // that store (the CLI's semantics). Absent with one store: same.
    // Absent with several: doc("name") resolves across the stores by
    // name, so cross-store queries need no disambiguation.
    let store_name = match parsed.get("store").and_then(Json::as_str) {
        Some(name) => Some(name.to_string()),
        None if state.order.len() == 1 => Some(state.order[0].clone()),
        None => None,
    };
    let out_mode = match parsed.get("out").and_then(Json::as_str) {
        None | Some("values") => "values",
        Some("xml") => "xml",
        Some(other) => {
            return bad_request(
                state,
                &format!("`out` must be \"values\" or \"xml\", got \"{other}\""),
                trace,
            )
        }
    };
    let want_profile = parsed
        .get("profile")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    // Clone the served handle out of its slot (an `Arc` bump); the
    // evaluation below never holds the slot lock, so a concurrent
    // reload swaps freely while this query finishes on its snapshot.
    let store: Option<StoreHandle> = match &store_name {
        Some(name) => match state.stores.get(name) {
            Some(slot) => Some(slot.get()),
            None => {
                let message = format!("no store named `{name}`");
                log_error(state, "unknown_store", &message, trace);
                return Reply::json(404, error_json(404, "unknown_store", &message, trace));
            }
        },
        None => None,
    };

    // Compiled-query cache: a read-locked probe on the hot path; misses
    // compile outside any lock and publish under a brief write lock
    // (last writer wins — both compiled the same source). The cross-
    // store resolution mode caches under the reserved name `*`.
    let cache_store = store_name.clone().unwrap_or_else(|| "*".into());
    let key = (cache_store.clone(), query_text.to_string());
    let cached = state.queries.read().ok().and_then(|cache| cache.get(&key));
    let (query, was_cached) = match cached {
        Some(query) => {
            state.cache_hits.fetch_add(1, Ordering::Relaxed);
            (query, true)
        }
        None => {
            state.cache_misses.fetch_add(1, Ordering::Relaxed);
            match Query::new(query_text) {
                Ok(compiled) => {
                    let compiled = Arc::new(compiled);
                    if let Ok(mut cache) = state.queries.write() {
                        if let Some((evicted_store, evicted_query)) =
                            cache.insert(key, Arc::clone(&compiled))
                        {
                            state.cache_evictions.fetch_add(1, Ordering::Relaxed);
                            if vx_obs::log_enabled() {
                                let id = trace.to_string();
                                vx_obs::event(
                                    "serve.cache.evict",
                                    &[
                                        ("store", vx_obs::Value::Str(&evicted_store)),
                                        ("query", vx_obs::Value::Str(&evicted_query)),
                                        ("trace", vx_obs::Value::Str(&id)),
                                    ],
                                );
                            }
                        }
                    }
                    (compiled, false)
                }
                Err(e) => return engine_error_reply(state, &e, trace),
            }
        }
    };

    let explain = parsed
        .get("explain")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let all: Vec<StoreHandle>;
    let targets = match &store {
        Some(store) => Targets::Handle(store),
        None => {
            all = state
                .order
                .iter()
                .map(|name| state.stores[name].get())
                .collect();
            Targets::Handles(&all)
        }
    };
    let mut fields = vec![
        ("store".into(), Json::Str(cache_store.clone())),
        ("query".into(), Json::Str(query_text.into())),
        ("cached".into(), Json::Bool(was_cached)),
        ("trace".into(), Json::Str(trace.to_string())),
    ];
    if explain {
        // Plan only: collection runs for exact cardinalities, but no
        // tuple is ever enumerated.
        return match query.explain(targets) {
            Ok(plan) => {
                fields.push(("plan".into(), Json::Str(plan.render())));
                Reply::json(200, json::to_string_pretty(&Json::Object(fields)))
            }
            Err(e) => engine_error_reply(state, &e, trace),
        };
    }
    // Every served query runs instrumented with its request's trace id:
    // the profile feeds the flight recorder (slowness is only known
    // after the run) and the per-request counters fold into the process
    // totals behind `/stats` and `/metrics`.
    let options = RunOptions {
        profile: true,
        trace: Some(trace),
        ..RunOptions::default()
    };
    let run_started = Instant::now();
    let outcome = match query.run_with(targets, &options) {
        Ok(outcome) => outcome,
        Err(e) => return engine_error_reply(state, &e, trace),
    };
    let elapsed = run_started.elapsed();
    let output = outcome.output;
    let profile = outcome
        .profile
        .expect("run_with profiles when options.profile is set");
    state.merge_engine_counters(&profile.counters);
    if elapsed.as_secs_f64() * 1e3 >= state.slow_ms as f64 {
        record_slow_query(
            state,
            &cache_store,
            query_text,
            &profile,
            targets,
            &query,
            trace,
            elapsed.as_secs_f64(),
        );
    }
    match out_mode {
        "xml" => match output.to_xml() {
            Ok(xml) => fields.push(("xml".into(), Json::Str(xml))),
            Err(e) => return engine_error_reply(state, &e, trace),
        },
        _ => {
            let values: Vec<Json> = output.strings().into_iter().map(Json::Str).collect();
            fields.push(("count".into(), Json::Num(values.len() as f64)));
            fields.push(("values".into(), Json::Array(values)));
        }
    }
    if want_profile {
        fields.push(("profile".into(), crate::bench::profile_json(&profile)));
    }
    Reply::json(200, json::to_string_pretty(&Json::Object(fields)))
}

/// Captures one slow request into the flight recorder: profile, rendered
/// plan (with each join edge's access), trace id. The plan is
/// reconstructed with `explain` (collection re-runs; enumeration never
/// starts) — acceptable for requests that already crossed the slow
/// threshold, and the only way to attach a plan without paying for it on
/// every fast request.
#[allow(clippy::too_many_arguments)]
fn record_slow_query(
    state: &AppState,
    store: &str,
    query_text: &str,
    profile: &vx_engine::QueryProfile,
    targets: Targets<'_>,
    query: &Query,
    trace: TraceId,
    elapsed_secs: f64,
) {
    let plan_text = match query.explain(targets) {
        Ok(plan) => Json::Str(plan.render()),
        Err(_) => Json::Null,
    };
    let entry = Json::Object(vec![
        ("trace".into(), Json::Str(trace.to_string())),
        ("store".into(), Json::Str(store.to_string())),
        ("query".into(), Json::Str(query_text.to_string())),
        ("elapsed_ms".into(), Json::Num(elapsed_secs * 1e3)),
        ("plan".into(), plan_text),
        ("profile".into(), crate::bench::profile_json(profile)),
    ]);
    state.slow_log.push(entry);
    if vx_obs::log_enabled() {
        let id = trace.to_string();
        vx_obs::event(
            "serve.slow",
            &[
                ("store", vx_obs::Value::Str(store)),
                ("query", vx_obs::Value::Str(query_text)),
                ("ms", vx_obs::Value::F64(elapsed_secs * 1e3)),
                ("trace", vx_obs::Value::Str(&id)),
            ],
        );
    }
}

fn healthz_json(state: &AppState) -> String {
    let stores: Vec<Json> = state
        .order
        .iter()
        .map(|name| Json::Str(name.clone()))
        .collect();
    json::to_string_pretty(&Json::Object(vec![
        ("status".into(), Json::Str("ok".into())),
        ("stores".into(), Json::Array(stores)),
    ]))
}

fn histogram_json(hist: &Histogram) -> Json {
    Json::Object(vec![
        ("count".into(), Json::Num(hist.count() as f64)),
        ("p50_us".into(), Json::Num(hist.p50_us() as f64)),
        ("p99_us".into(), Json::Num(hist.p99_us() as f64)),
        ("mean_us".into(), Json::Num(hist.mean_us().round())),
        ("max_us".into(), Json::Num(hist.max_us() as f64)),
    ])
}

/// Current (connections − in-flight) — keep-alive connections sitting
/// idle between requests. Until real admission control lands this is the
/// closest observable to a queue depth: sockets the pool owns but is not
/// actively serving.
fn queue_depth(state: &AppState) -> u64 {
    let connections = state.connections.load(Ordering::Relaxed);
    let inflight = state.inflight.load(Ordering::Relaxed);
    connections.saturating_sub(inflight)
}

/// `GET /stats`: one JSON document covering the server counters, the
/// process-total engine counters, the slow-log occupancy, and the
/// per-store catalog summaries.
fn stats_json(state: &AppState) -> String {
    let server = Json::Object(vec![
        (
            "uptime_secs".into(),
            Json::Num(state.started.elapsed().as_secs_f64()),
        ),
        (
            "requests".into(),
            Json::Num(state.requests.load(Ordering::Relaxed) as f64),
        ),
        (
            "errors".into(),
            Json::Num(state.errors.load(Ordering::Relaxed) as f64),
        ),
        (
            "query_cache_hits".into(),
            Json::Num(state.cache_hits.load(Ordering::Relaxed) as f64),
        ),
        (
            "query_cache_misses".into(),
            Json::Num(state.cache_misses.load(Ordering::Relaxed) as f64),
        ),
        (
            "query_cache_evictions".into(),
            Json::Num(state.cache_evictions.load(Ordering::Relaxed) as f64),
        ),
        (
            "query_cache_entries".into(),
            Json::Num(state.queries.read().map(|c| c.len()).unwrap_or(0) as f64),
        ),
        (
            "reloads".into(),
            Json::Num(state.reloads.load(Ordering::Relaxed) as f64),
        ),
        (
            "connections".into(),
            Json::Num(state.connections.load(Ordering::Relaxed) as f64),
        ),
        (
            "inflight".into(),
            Json::Num(state.inflight.load(Ordering::Relaxed) as f64),
        ),
        ("queue_depth".into(), Json::Num(queue_depth(state) as f64)),
        (
            "endpoints".into(),
            Json::Object(vec![
                ("query".into(), histogram_json(&state.lat_query)),
                ("stats".into(), histogram_json(&state.lat_stats)),
                ("metrics".into(), histogram_json(&state.lat_metrics)),
                ("healthz".into(), histogram_json(&state.lat_healthz)),
            ]),
        ),
    ]);
    let engine = Json::Object(
        state
            .engine_totals_snapshot()
            .iter()
            .map(|(name, value)| (name.to_string(), Json::Num(value as f64)))
            .collect(),
    );
    let slowlog = Json::Object(vec![
        ("threshold_ms".into(), Json::Num(state.slow_ms as f64)),
        (
            "capacity".into(),
            Json::Num(state.slow_log.capacity() as f64),
        ),
        ("entries".into(), Json::Num(state.slow_log.len() as f64)),
        (
            "recorded".into(),
            Json::Num(state.slow_log.total_pushed() as f64),
        ),
    ]);
    let stores: Vec<Json> = state
        .order
        .iter()
        .map(|name| {
            let handle = state.stores[name].get();
            let catalog = handle.catalog();
            Json::Object(vec![
                ("name".into(), Json::Str(name.clone())),
                ("vectors".into(), Json::Num(catalog.vectors.len() as f64)),
                ("nodes".into(), Json::Num(catalog.node_count as f64)),
                (
                    "dag_nodes".into(),
                    Json::Num(handle.skeleton().dag_size(handle.root()) as f64),
                ),
                ("text_bytes".into(), Json::Num(catalog.text_bytes as f64)),
                ("generation".into(), Json::Num(handle.generation() as f64)),
                (
                    "wal_pending".into(),
                    Json::Num(handle.wal().pending_docs as f64),
                ),
            ])
        })
        .collect();
    json::to_string_pretty(&Json::Object(vec![
        ("server".into(), server),
        ("engine".into(), engine),
        ("slowlog".into(), slowlog),
        ("stores".into(), Json::Array(stores)),
    ]))
}

/// `GET /debug/slow`: the flight recorder, oldest entry first.
fn slow_json(state: &AppState) -> String {
    json::to_string_pretty(&Json::Object(vec![
        ("threshold_ms".into(), Json::Num(state.slow_ms as f64)),
        (
            "capacity".into(),
            Json::Num(state.slow_log.capacity() as f64),
        ),
        (
            "recorded".into(),
            Json::Num(state.slow_log.total_pushed() as f64),
        ),
        ("entries".into(), Json::Array(state.slow_log.snapshot())),
    ]))
}

/// `GET /metrics`: the Prometheus text exposition. Server counters and
/// gauges, per-endpoint cumulative latency buckets, process-total engine
/// counters (dots in counter names become underscores), and per-store
/// gauges.
fn metrics_text(state: &AppState) -> String {
    let mut reg = Registry::new();
    reg.gauge(
        "vx_serve_uptime_seconds",
        "Seconds since the server started.",
        &[],
        state.started.elapsed().as_secs_f64(),
    );
    reg.counter(
        "vx_serve_requests_total",
        "HTTP requests answered (error answers included).",
        &[],
        state.requests.load(Ordering::Relaxed),
    );
    reg.counter(
        "vx_serve_errors_total",
        "HTTP requests answered with status >= 400.",
        &[],
        state.errors.load(Ordering::Relaxed),
    );
    reg.counter(
        "vx_serve_reloads_total",
        "Successful store reloads (one per store per POST /reload).",
        &[],
        state.reloads.load(Ordering::Relaxed),
    );
    reg.counter(
        "vx_serve_query_cache_hits_total",
        "Compiled-query cache hits.",
        &[],
        state.cache_hits.load(Ordering::Relaxed),
    );
    reg.counter(
        "vx_serve_query_cache_misses_total",
        "Compiled-query cache misses (compilations).",
        &[],
        state.cache_misses.load(Ordering::Relaxed),
    );
    reg.counter(
        "vx_serve_query_cache_evictions_total",
        "Compiled queries evicted by the FIFO bound.",
        &[],
        state.cache_evictions.load(Ordering::Relaxed),
    );
    reg.gauge(
        "vx_serve_query_cache_entries",
        "Compiled queries currently cached.",
        &[],
        state.queries.read().map(|c| c.len()).unwrap_or(0) as f64,
    );
    reg.gauge(
        "vx_serve_connections_active",
        "Open TCP connections (keep-alive idlers included).",
        &[],
        state.connections.load(Ordering::Relaxed) as f64,
    );
    reg.gauge(
        "vx_serve_inflight_requests",
        "Requests currently being handled.",
        &[],
        state.inflight.load(Ordering::Relaxed) as f64,
    );
    reg.gauge(
        "vx_serve_queue_depth",
        "Connections owned but not actively served (keep-alive idle); \
         the queue-depth proxy until admission control lands.",
        &[],
        queue_depth(state) as f64,
    );
    reg.counter(
        "vx_serve_slow_queries_total",
        "Requests recorded by the slow-query flight recorder.",
        &[],
        state.slow_log.total_pushed(),
    );
    reg.gauge(
        "vx_serve_slowlog_entries",
        "Slow-query entries currently held in the flight recorder.",
        &[],
        state.slow_log.len() as f64,
    );
    reg.gauge(
        "vx_serve_slowlog_capacity",
        "Flight recorder ring capacity.",
        &[],
        state.slow_log.capacity() as f64,
    );
    for (endpoint, hist) in [
        ("query", &state.lat_query),
        ("stats", &state.lat_stats),
        ("metrics", &state.lat_metrics),
        ("healthz", &state.lat_healthz),
    ] {
        reg.histogram_us(
            "vx_serve_request_seconds",
            "Request latency by endpoint.",
            &[("endpoint", endpoint)],
            hist,
            &LATENCY_BOUNDS_US,
        );
    }
    for (name, value) in state.engine_totals_snapshot().iter() {
        let metric = format!("vx_engine_{}_total", name.replace('.', "_"));
        reg.counter(
            &metric,
            "Process total of the per-request engine counter of the same dotted name.",
            &[],
            value,
        );
    }
    for name in &state.order {
        let handle = state.stores[name].get();
        let labels = [("store", name.as_str())];
        reg.gauge(
            "vx_store_generation",
            "Store generation currently served.",
            &labels,
            handle.generation() as f64,
        );
        reg.gauge(
            "vx_store_vectors",
            "Path vectors in the served catalog.",
            &labels,
            handle.catalog().vectors.len() as f64,
        );
        reg.gauge(
            "vx_store_wal_pending_docs",
            "WAL documents appended but not yet compacted into a generation.",
            &labels,
            handle.wal().pending_docs as f64,
        );
        reg.gauge(
            "vx_store_wal_segments",
            "WAL segment files on disk.",
            &labels,
            handle.wal().segments as f64,
        );
        reg.gauge(
            "vx_store_struct_index_loaded",
            "1 when the structural self-index is loaded for this store.",
            &labels,
            if handle.structural_loaded() { 1.0 } else { 0.0 },
        );
    }
    reg.render()
}
