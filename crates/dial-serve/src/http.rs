//! Hand-rolled HTTP/1.1 front-end over `std::net::TcpListener`.
//!
//! The protocol surface is deliberately tiny: GET plus one POST
//! (`/v1/ingest`), JSON responses, `Connection: close` on every reply.
//! Each accepted connection gets its own short-lived thread (connections
//! are cheap; the expensive part — running experiments — is bounded by
//! the engine's admission scheduler, which is where load is shed). The
//! one long-lived route is `GET /v1/stream`: a chunked
//! `text/event-stream` of seal deltas and era transitions that holds its
//! connection thread until the client leaves, `?max=N` frames have been
//! sent, or a drain begins.
//!
//! # API v1
//!
//! All endpoints live under `/v1`; the original unversioned paths answer
//! `308 Permanent Redirect` with a `Location` header pointing at their
//! `/v1` successor, so old clients keep working with one extra hop.
//! Every non-200 response carries the same JSON envelope:
//!
//! ```json
//! {"error": {"code": "<machine_code>", "message": "<human text>", "detail": {...}}}
//! ```
//!
//! `code` is stable and machine-matchable; `detail` carries structured
//! context (the valid ids on `unknown_experiment`, the target on
//! `moved_permanently`) and is `{}` when there is nothing to add.
//!
//! # Front-door protection (DESIGN §12)
//!
//! The request head must arrive whole within `read_timeout` — the budget
//! covers the *entire* header window, so a slow-loris client dribbling a
//! byte per second is cut off at the same deadline as a silent one (408).
//! Heads over `max_header_bytes` answer 431; a `Content-Length` above
//! `max_body_bytes` answers 413 without reading the body. Writes carry
//! `write_timeout` so a client that stops reading cannot wedge a
//! connection thread. During a graceful drain every request answers
//! `503` + `Retry-After` while in-flight work finishes.

use crate::engine::{
    AnalyzeError, Engine, IngestError, PromoteError, Role, ScenarioServeError, SyncExportError,
};
use crate::store::StoreSummary;
use serde::Serialize;
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle `/v1/stream` connection waits before emitting an SSE
/// comment so intermediaries keep the connection alive.
const SSE_HEARTBEAT: Duration = Duration::from_secs(2);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP port to bind on 127.0.0.1 (0 = ephemeral, for tests).
    pub port: u16,
    /// Concurrent experiment runs admitted onto the shared pool.
    pub threads: usize,
    /// Bounded admission queue in front of the running slots; a full
    /// queue sheds requests with 503.
    pub queue_capacity: usize,
    /// Total budget for the request head to arrive — not per read() but
    /// for the whole header window, so slow-loris clients get 408 too.
    pub read_timeout: Duration,
    /// Socket write timeout; a client that stops reading is disconnected.
    pub write_timeout: Duration,
    /// Request heads larger than this answer 431.
    pub max_header_bytes: usize,
    /// A declared `Content-Length` above this answers 413.
    pub max_body_bytes: usize,
    /// Optional per-request deadline budget; expired requests answer 504
    /// and cooperative experiment code unwinds early to free its slot.
    pub request_deadline: Option<Duration>,
    /// How long a graceful drain waits for in-flight work before
    /// abandoning it.
    pub drain_timeout: Duration,
    /// Live mode: events a [`crate::Engine`] may hold unsealed before
    /// ingest batches are shed with 429 (watermarks drain the buffer).
    pub max_pending_events: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        Self {
            port: 8080,
            threads,
            queue_capacity: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_header_bytes: 16 * 1024,
            max_body_bytes: 64 * 1024,
            request_deadline: None,
            drain_timeout: Duration::from_secs(10),
            max_pending_events: 512 * 1024,
        }
    }
}

/// A running server; dropping it without [`Server::shutdown`] leaves the
/// accept thread running until process exit.
pub struct Server {
    addr: SocketAddr,
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    drain_timeout: Duration,
    accept_handle: Option<JoinHandle<()>>,
}

/// One count in a server's in-flight connection gauge, released on drop:
/// when the connection thread finishes, when it unwinds from a panic, and
/// when it never runs because its `spawn` failed. A graceful drain waits
/// for the gauge to reach zero, so a leaked count would make every drain
/// wait out the full `drain_timeout`.
struct ConnSlot(Arc<AtomicUsize>);

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Counts one connection in `active` and returns `body` wrapped to hold
/// that count until it returns or unwinds — or until the wrapper is
/// dropped without running.
fn counted(
    active: &Arc<AtomicUsize>,
    body: impl FnOnce() + Send + 'static,
) -> impl FnOnce() + Send + 'static {
    active.fetch_add(1, Ordering::SeqCst);
    let slot = ConnSlot(Arc::clone(active));
    move || {
        let _slot = slot;
        body();
    }
}

impl Server {
    /// Binds, spawns the accept loop, and returns immediately.
    pub fn start(engine: Arc<Engine>, cfg: &ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let accept_handle = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let draining = Arc::clone(&draining);
            let active = Arc::clone(&active);
            let cfg = Arc::new(cfg.clone());
            std::thread::Builder::new().name("dial-serve-accept".into()).spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let engine = Arc::clone(&engine);
                    let draining = Arc::clone(&draining);
                    let cfg = Arc::clone(&cfg);
                    let task = counted(&active, move || {
                        let _ = handle_connection(stream, &engine, &cfg, &draining);
                    });
                    let _ = std::thread::Builder::new().name("dial-serve-conn".into()).spawn(task);
                }
            })?
        };
        Ok(Self {
            addr,
            engine,
            stop,
            draining,
            active,
            drain_timeout: cfg.drain_timeout,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server is shut down from another thread.
    pub fn join(mut self) {
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }

    /// Immediate shutdown: stop accepting, wait for in-flight connections
    /// and scheduler jobs up to the drain deadline, then abandon and log
    /// whatever is still running. Returns the abandoned job ids.
    pub fn shutdown(mut self) -> Vec<u64> {
        let deadline = Instant::now() + self.drain_timeout;
        self.stop_accepting();
        self.wait_connections(deadline);
        self.finish_engine(deadline)
    }

    /// Graceful drain (DESIGN §12): keep the listener up but answer every
    /// new request `503` + `Retry-After` while in-flight requests finish;
    /// when they have (or the drain deadline passes) stop accepting and
    /// wind down the scheduler within the same deadline. Returns the ids
    /// of any jobs the deadline forced us to abandon.
    pub fn graceful_shutdown(mut self) -> Vec<u64> {
        let deadline = Instant::now() + self.drain_timeout;
        self.draining.store(true, Ordering::SeqCst);
        self.wait_connections(deadline);
        self.stop_accepting();
        self.finish_engine(deadline)
    }

    /// Stops the accept loop: set the flag, poke the listener (it only
    /// observes the flag around an accept), join the thread.
    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }

    /// Waits for in-flight connection threads, bounded by `deadline`.
    fn wait_connections(&self, deadline: Instant) {
        while self.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Bounded engine wind-down; logs and returns the abandoned job ids.
    fn finish_engine(&self, deadline: Instant) -> Vec<u64> {
        let abandoned = self.engine.shutdown_within(Some(deadline));
        if !abandoned.is_empty() {
            let ids: Vec<String> = abandoned.iter().map(|id| id.to_string()).collect();
            eprintln!(
                "dial-serve: drain deadline passed with {} job(s) abandoned: [{}]",
                abandoned.len(),
                ids.join(", ")
            );
        }
        abandoned
    }
}

// Owned fields throughout: the vendored serde derive does not support
// lifetime parameters, and these bodies are tiny.
#[derive(Serialize)]
struct ErrorEnvelope {
    error: ErrorBody,
}

#[derive(Serialize)]
struct ErrorBody {
    code: String,
    message: String,
    detail: Value,
}

#[derive(Serialize)]
struct ExperimentRow {
    id: String,
    title: String,
    paper_claim: String,
}

#[derive(Serialize)]
struct SummaryBody {
    snapshot: String,
    params: String,
    experiments: usize,
    counts: StoreSummary,
}

/// One routed reply: status, JSON body (or raw octets for sync segment
/// fetches), and optional `Location` (308/421) / `Retry-After` (drain
/// 503) headers.
struct Response {
    status: u16,
    body: String,
    /// When set, the reply is `application/octet-stream` of these bytes
    /// and `body` is ignored — the sync segment wire format.
    raw: Option<Vec<u8>>,
    location: Option<String>,
    retry_after: Option<u64>,
}

impl Response {
    fn json(status: u16, body: String) -> Self {
        Self { status, body, raw: None, location: None, retry_after: None }
    }

    /// A 200 of raw bytes (CRC-framed sync batches).
    fn octets(bytes: Vec<u8>) -> Self {
        Self {
            status: 200,
            body: String::new(),
            raw: Some(bytes),
            location: None,
            retry_after: None,
        }
    }

    /// The uniform error envelope; `detail` is `{}` when `None`.
    fn error(status: u16, code: &str, message: String, detail: Option<Value>) -> Self {
        let envelope = ErrorEnvelope {
            error: ErrorBody {
                code: code.to_string(),
                message,
                detail: detail.unwrap_or_else(|| Value::Object(Default::default())),
            },
        };
        Self::json(status, to_json(&envelope))
    }

    /// A 308 to `location`, with the envelope as body for JSON clients
    /// that do not follow redirects.
    fn redirect(location: String) -> Self {
        let mut detail = BTreeMap::new();
        detail.insert("location".to_string(), Value::String(location.clone()));
        let mut r = Self::error(
            308,
            "moved_permanently",
            format!("this endpoint moved to {location}"),
            Some(Value::Object(detail)),
        );
        r.location = Some(location);
        r
    }

    /// The drain-mode answer: 503 with a `Retry-After` hint.
    fn draining(retry_after_secs: u64) -> Self {
        let mut r = Self::error(
            503,
            "draining",
            "server is draining for shutdown, retry shortly".to_string(),
            None,
        );
        r.retry_after = Some(retry_after_secs);
        r
    }
}

fn handle_connection(
    mut stream: TcpStream,
    engine: &Engine,
    cfg: &ServeConfig,
    draining: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_write_timeout(Some(cfg.write_timeout))?;
    let (head, leftover) = match read_request_head(&mut stream, engine, cfg) {
        Ok(pair) => pair,
        Err(kind) => {
            engine.metrics().request_rejected();
            let r = match kind {
                HeadError::TooLarge => Response::error(
                    431,
                    "headers_too_large",
                    format!("request head exceeds {} bytes", cfg.max_header_bytes),
                    None,
                ),
                HeadError::Timeout => Response::error(
                    408,
                    "request_timeout",
                    format!("request head did not arrive within {:?}", cfg.read_timeout),
                    None,
                ),
            };
            return respond_and_drain(&mut stream, engine, &r);
        }
    };
    let request_line = head.lines().next().unwrap_or_default().to_string();
    let mut parts = request_line.split_whitespace();
    let (method, raw_path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => {
            let r = Response::error(
                400,
                "malformed_request",
                "could not parse the request line".to_string(),
                None,
            );
            return respond(&mut stream, engine, &r);
        }
    };
    if let Some(len) = content_length(&head) {
        if len > cfg.max_body_bytes {
            engine.metrics().request_rejected();
            let r = Response::error(
                413,
                "payload_too_large",
                format!("declared body of {len} bytes exceeds {} bytes", cfg.max_body_bytes),
                None,
            );
            return respond_and_drain(&mut stream, engine, &r);
        }
    }
    let is_ingest = raw_path == "/v1/ingest" || raw_path.starts_with("/v1/ingest?");
    let is_promote = raw_path == "/v1/promote" || raw_path.starts_with("/v1/promote?");
    if !(method == "GET" || (method == "POST" && (is_ingest || is_promote))) {
        let r = Response::error(
            405,
            "method_not_allowed",
            format!(
                "method {method} is not supported here; use GET (or POST /v1/ingest, /v1/promote)"
            ),
            None,
        );
        return respond(&mut stream, engine, &r);
    }
    // During a drain, every parsed request is turned away with the
    // retry hint — in-flight requests (already past this gate) finish.
    if draining.load(Ordering::SeqCst) {
        engine.metrics().drain_rejection();
        let r = Response::draining(cfg.drain_timeout.as_secs().max(1));
        return respond(&mut stream, engine, &r);
    }
    // Split the query off for routing but keep `raw_path` whole so
    // redirects preserve it verbatim.
    let (path, query) = match raw_path.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (raw_path, None),
    };
    if method == "POST" {
        // The only POSTs past the gate above are ingest and promote.
        if is_promote {
            return handle_promote(&mut stream, engine, cfg, &head, leftover);
        }
        return handle_ingest(&mut stream, engine, cfg, &head, leftover);
    }
    if path == "/v1/stream" {
        // The stream holds its connection open for as long as the client
        // stays; it must not sit under the per-request deadline budget.
        return handle_stream(&mut stream, engine, query, draining);
    }

    // The request deadline budget starts once the head has arrived (the
    // header window has its own budget above).
    let deadline = cfg.request_deadline.map(|d| Instant::now() + d);
    // Chaos hook: a stalled handler burns request time; with a deadline
    // configured the stall converts into a prompt 504 below.
    if let Some(dial_fault::FaultAction::Delay(d)) =
        dial_fault::inject(dial_fault::FaultPoint::HandlerStall)
    {
        engine.metrics().fault("stall");
        std::thread::sleep(d);
    }
    let response = if deadline.is_some_and(|d| Instant::now() >= d) {
        engine.metrics().deadline_exceeded();
        deadline_response()
    } else {
        route(engine, path, query, raw_path, deadline)
    };
    if response.status >= 500 {
        engine.metrics().server_error();
    }
    respond(&mut stream, engine, &response)
}

/// Why reading the request head failed.
enum HeadError {
    /// Grew past `max_header_bytes` (431).
    TooLarge,
    /// The total header window elapsed — silent *or* dribbling client
    /// (408).
    Timeout,
}

/// Reads the request head (everything through `\r\n\r\n`) under one
/// total deadline: the socket read timeout is re-armed with the
/// *remaining* window before every read, so a slow-loris client trickling
/// bytes cannot extend its welcome past `read_timeout`. Any body bytes
/// that arrived in the same reads are returned alongside the head.
fn read_request_head(
    stream: &mut TcpStream,
    engine: &Engine,
    cfg: &ServeConfig,
) -> Result<(String, Vec<u8>), HeadError> {
    let deadline = Instant::now() + cfg.read_timeout;
    // Chaos hook: pretend the client (or the kernel) is slow by burning
    // header-window time before the read. Injected exactly once per
    // request head — a per-read() injection would key the fault sequence
    // to TCP fragmentation, which is not deterministic across runs.
    if let Some(dial_fault::FaultAction::Delay(d)) =
        dial_fault::inject(dial_fault::FaultPoint::SlowRead)
    {
        engine.metrics().fault("slow_read");
        std::thread::sleep(d);
    }
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    // lint:allow(missing-checkpoint): every iteration re-checks its own read deadline; the loop cannot outlive it
    loop {
        let now = Instant::now();
        if now >= deadline {
            return Err(HeadError::Timeout);
        }
        if stream.set_read_timeout(Some(deadline - now)).is_err() {
            return Err(HeadError::Timeout);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok((String::from_utf8_lossy(&buf).into_owned(), Vec::new())),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.len() > cfg.max_header_bytes {
                    return Err(HeadError::TooLarge);
                }
                if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    let body = buf.split_off(pos + 4);
                    return Ok((String::from_utf8_lossy(&buf).into_owned(), body));
                }
            }
            Err(_) => return Err(HeadError::Timeout),
        }
    }
}

/// `POST /v1/ingest`: reads the NDJSON batch body and applies it to the
/// live stream engine. The declared length was already bounds-checked
/// against `max_body_bytes` before dispatch.
fn handle_ingest(
    stream: &mut TcpStream,
    engine: &Engine,
    cfg: &ServeConfig,
    head: &str,
    mut body: Vec<u8>,
) -> std::io::Result<()> {
    engine.metrics().request("/v1/ingest");
    // Epoch fencing. The router stamps forwarded writes with the cluster
    // epoch it is operating at: a write from a *lower* epoch is a ghost
    // of a pre-failover view and must not land (409, so the sender
    // refreshes its view), while a write carrying a *higher* epoch is
    // proof this leader has been superseded — it steps aside instead of
    // split-braining, adopting the leader the header names.
    if let Some(remote) = header_value(head, "x-dial-epoch").and_then(|v| v.parse::<u64>().ok()) {
        let local = engine.epoch();
        if remote < local {
            engine.metrics().epoch_rejection();
            let mut detail = BTreeMap::new();
            detail.insert("epoch".to_string(), Value::Number(local as f64));
            let r = Response::error(
                409,
                "stale_epoch",
                format!("write carries epoch {remote} but this node is at epoch {local}"),
                Some(Value::Object(detail)),
            );
            return respond_and_drain(stream, engine, &r);
        }
        if remote > local && engine.role() == Role::Leader {
            let named = header_value(head, "x-dial-leader").map(str::to_string);
            if let Some(leader) = &named {
                // Failure to adopt leaves this node fenced but leading at
                // the old epoch; the 421 below still bounces the write.
                let _ = engine.adopt(remote, leader.clone());
            }
            let leader = named.unwrap_or_else(|| "unknown".to_string());
            let mut detail = BTreeMap::new();
            detail.insert("leader".to_string(), Value::String(leader.clone()));
            detail.insert("epoch".to_string(), Value::Number(remote as f64));
            let mut r = Response::error(
                421,
                "not_leader",
                format!("epoch {remote} has a new leader at {leader}; this node stepped down"),
                Some(Value::Object(detail)),
            );
            r.location = Some(format!("http://{leader}/v1/ingest"));
            return respond_and_drain(stream, engine, &r);
        }
    }
    // A follower never takes writes: 421 + `Location` naming the leader,
    // before any body bytes are consumed (the drain below mops them up).
    if engine.role() == Role::Follower {
        let leader = engine.leader_addr().unwrap_or_else(|| "unknown".to_string());
        let mut detail = BTreeMap::new();
        detail.insert("leader".to_string(), Value::String(leader.clone()));
        let mut r = Response::error(
            421,
            "not_leader",
            format!("this node is a follower; send writes to the leader at {leader}"),
            Some(Value::Object(detail)),
        );
        r.location = Some(format!("http://{leader}/v1/ingest"));
        return respond_and_drain(stream, engine, &r);
    }
    let Some(len) = content_length(head) else {
        let r = Response::error(
            411,
            "length_required",
            "POST /v1/ingest needs a Content-Length header".to_string(),
            None,
        );
        return respond(stream, engine, &r);
    };
    // Chaos hook: a stalled ingest pipeline (slow disk, slow upstream);
    // the batch still applies after the delay.
    if let Some(dial_fault::FaultAction::Delay(d)) =
        dial_fault::inject(dial_fault::FaultPoint::IngestStall)
    {
        engine.metrics().fault("ingest_stall");
        std::thread::sleep(d);
    }
    // Read the rest of the body under one total deadline, mirroring the
    // header window's slow-loris defence.
    let deadline = Instant::now() + cfg.read_timeout;
    let mut chunk = [0u8; 4096];
    // lint:allow(missing-checkpoint): every iteration re-checks its own read deadline; the loop cannot outlive it
    while body.len() < len {
        let now = Instant::now();
        if now >= deadline || stream.set_read_timeout(Some(deadline - now)).is_err() {
            engine.metrics().request_rejected();
            let r = Response::error(
                408,
                "request_timeout",
                format!("request body did not arrive within {:?}", cfg.read_timeout),
                None,
            );
            return respond(stream, engine, &r);
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(_) => {
                engine.metrics().request_rejected();
                let r = Response::error(
                    408,
                    "request_timeout",
                    format!("request body did not arrive within {:?}", cfg.read_timeout),
                    None,
                );
                return respond(stream, engine, &r);
            }
        }
    }
    if body.len() < len {
        engine.metrics().request_rejected();
        let r = Response::error(
            400,
            "truncated_body",
            format!("body ended after {} of {len} declared bytes", body.len()),
            None,
        );
        return respond(stream, engine, &r);
    }
    body.truncate(len);
    let text = String::from_utf8_lossy(&body);
    let response = match engine.ingest(&text) {
        Ok(report) => Response::json(
            200,
            format!(
                "{{\"accepted\":{},\"seals\":{},\"pending\":{},\"snapshot\":{}}}",
                report.events,
                report.seals,
                report.pending,
                json_str(&report.snapshot)
            ),
        ),
        Err(IngestError::NotLive) => not_live_response(),
        Err(IngestError::Parse(e)) => Response::error(400, "bad_event", e, None),
        Err(IngestError::Gap(e)) => Response::error(400, "event_gap", e, None),
        Err(IngestError::Backpressure { pending }) => {
            let mut r = Response::error(
                429,
                "ingest_backpressure",
                format!("{pending} events already pending; retry after the next seal"),
                None,
            );
            r.retry_after = Some(1);
            r
        }
        Err(IngestError::SealFailed) => Response::error(
            500,
            "seal_failed",
            "the seal panicked before commit; earlier events remain pending, retry the watermark"
                .to_string(),
            None,
        ),
    };
    if response.status >= 500 {
        engine.metrics().server_error();
    }
    respond(stream, engine, &response)
}

/// `POST /v1/promote`: a leadership transition. Two body shapes:
///
/// * Empty (or `{}`) — **self-promotion**. The node surveys its
///   reachable peers' `/v1/cluster`; if any reachable peer holds a
///   strictly higher sealed tip the promotion is refused with 409
///   `not_highest_tip` (promote *that* node instead), otherwise this
///   node takes leadership at `max(observed cluster epoch) + 1`.
///   Unreachable peers cannot veto — being able to promote around a dead
///   node is the point of failover. The tie-break among equal tips
///   (lowest address wins) is the caller's job: a node does not know its
///   own public address, the router does.
/// * `{"epoch": E, "leader": "host:port"}` — **adopt**: become a
///   follower of `leader` at epoch `E`. Refused with 409 `stale_epoch`
///   when `E` is below this node's persisted epoch — the fencing that
///   keeps a revived old leader from dragging the cluster backwards.
fn handle_promote(
    stream: &mut TcpStream,
    engine: &Engine,
    cfg: &ServeConfig,
    head: &str,
    mut body: Vec<u8>,
) -> std::io::Result<()> {
    engine.metrics().request("/v1/promote");
    // Chaos hook: promote is part of the coordination surface the
    // netsplit fault isolates (see /v1/cluster).
    if let Some(dial_fault::FaultAction::Delay(d)) =
        dial_fault::inject(dial_fault::FaultPoint::Netsplit)
    {
        engine.metrics().fault("netsplit");
        std::thread::sleep(d);
    }
    // Read the (tiny) body under the same total deadline as ingest.
    let len = content_length(head).unwrap_or(0);
    let deadline = Instant::now() + cfg.read_timeout;
    let mut chunk = [0u8; 1024];
    // lint:allow(missing-checkpoint): every iteration re-checks its own read deadline; the loop cannot outlive it
    while body.len() < len {
        let now = Instant::now();
        if now >= deadline || stream.set_read_timeout(Some(deadline - now)).is_err() {
            engine.metrics().request_rejected();
            let r = Response::error(
                408,
                "request_timeout",
                format!("request body did not arrive within {:?}", cfg.read_timeout),
                None,
            );
            return respond(stream, engine, &r);
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(_) => {
                engine.metrics().request_rejected();
                let r = Response::error(
                    408,
                    "request_timeout",
                    format!("request body did not arrive within {:?}", cfg.read_timeout),
                    None,
                );
                return respond(stream, engine, &r);
            }
        }
    }
    body.truncate(len);
    let text = String::from_utf8_lossy(&body);
    let parsed: Option<Value> = serde_json::from_str(text.trim()).ok();
    let adopt_fields = parsed.as_ref().and_then(|v| {
        let epoch = v.get("epoch").as_u64()?;
        let leader = v.get("leader").as_str()?.to_string();
        Some((epoch, leader))
    });
    let response = match adopt_fields {
        Some((epoch, leader)) => match engine.adopt(epoch, leader.clone()) {
            Ok(()) => Response::json(
                200,
                format!(
                    "{{\"role\":\"follower\",\"leader\":{},\"epoch\":{epoch}}}",
                    json_str(&leader)
                ),
            ),
            Err(e) => promote_error_response(&e),
        },
        None => {
            // Self-promotion: survey every peer we know of — including
            // the (presumed dead) old leader, whose answer matters if it
            // is actually alive and ahead.
            let mut targets = engine.peers();
            if let Some(old) = engine.leader_addr() {
                if !targets.contains(&old) {
                    targets.push(old);
                }
            }
            let (local_tip, _) = engine.sealed_tip();
            let mut cluster_epoch = engine.epoch();
            let mut veto: Option<(String, u64)> = None;
            for peer in &targets {
                let Some((peer_tip, peer_epoch)) = peer_view(peer) else { continue };
                cluster_epoch = cluster_epoch.max(peer_epoch);
                if peer_tip > local_tip {
                    veto = Some((peer.clone(), peer_tip.unwrap_or(0)));
                }
            }
            // Chaos hook: a promotion that stalls between the survey and
            // the epoch bump — the window where a competing promotion can
            // land first and fence this one off.
            if let Some(dial_fault::FaultAction::Delay(d)) =
                dial_fault::inject(dial_fault::FaultPoint::PromoteStall)
            {
                engine.metrics().fault("promote_stall");
                std::thread::sleep(d);
            }
            match veto {
                Some((peer, tip)) => {
                    let mut detail = BTreeMap::new();
                    detail.insert("peer".to_string(), Value::String(peer.clone()));
                    detail.insert("peer_sealed_seq".to_string(), Value::Number(tip as f64));
                    Response::error(
                        409,
                        "not_highest_tip",
                        format!(
                            "peer {peer} holds seal {tip}, ahead of this node; promote it instead"
                        ),
                        Some(Value::Object(detail)),
                    )
                }
                None => match engine.promote(cluster_epoch + 1) {
                    Ok(epoch) => Response::json(
                        200,
                        format!(
                            "{{\"role\":\"leader\",\"epoch\":{epoch},\"sealed_seq\":{}}}",
                            local_tip.map_or("null".to_string(), |s| s.to_string())
                        ),
                    ),
                    Err(e) => promote_error_response(&e),
                },
            }
        }
    };
    if response.status >= 500 {
        engine.metrics().server_error();
    }
    respond(stream, engine, &response)
}

/// Maps an engine [`PromoteError`] onto the error envelope.
fn promote_error_response(e: &PromoteError) -> Response {
    match e {
        PromoteError::StaleEpoch { current } => {
            let mut detail = BTreeMap::new();
            detail.insert("epoch".to_string(), Value::Number(*current as f64));
            Response::error(409, "stale_epoch", e.to_string(), Some(Value::Object(detail)))
        }
        PromoteError::NotLive => not_live_response(),
        PromoteError::Store(_) => Response::error(500, "epoch_not_persisted", e.to_string(), None),
    }
}

/// One short-deadline `GET /v1/cluster` against a peer: its sealed tip
/// and epoch, or `None` when the peer is unreachable (connection refused,
/// timed out, or answering garbage). Kept deliberately primitive — the
/// serve crate cannot use dial-replicate's client without a dependency
/// cycle, and a promotion survey needs nothing more than this.
fn peer_view(addr: &str) -> Option<(Option<u64>, u64)> {
    let timeout = Duration::from_secs(2);
    let sock_addr: SocketAddr = addr.parse().ok()?;
    let mut sock = TcpStream::connect_timeout(&sock_addr, timeout).ok()?;
    sock.set_read_timeout(Some(timeout)).ok()?;
    sock.set_write_timeout(Some(timeout)).ok()?;
    write!(sock, "GET /v1/cluster HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").ok()?;
    let mut buf = Vec::new();
    sock.read_to_end(&mut buf).ok()?;
    let text = String::from_utf8_lossy(&buf);
    let body = text.split("\r\n\r\n").nth(1)?;
    let v: Value = serde_json::from_str(body.trim()).ok()?;
    let sealed = v.get("sealed_seq").as_u64();
    let epoch = v.get("epoch").as_u64().unwrap_or(0);
    Some((sealed, epoch))
}

/// `GET /v1/stream`: a chunked `text/event-stream` of seal deltas. New
/// subscribers first replay every frame published so far, then follow
/// live. `?max=N` closes the stream after N frames (for curl-able
/// examples and tests); a drain closes every stream promptly.
fn handle_stream(
    stream: &mut TcpStream,
    engine: &Engine,
    query: Option<&str>,
    draining: &AtomicBool,
) -> std::io::Result<()> {
    engine.metrics().request("/v1/stream");
    let Some((history, rx)) = engine.subscribe() else {
        let r = not_live_response();
        return respond(stream, engine, &r);
    };
    engine.metrics().sse_client();
    let max_frames: Option<usize> = query
        .and_then(|q| q.split('&').find_map(|p| p.strip_prefix("max=")))
        .and_then(|v| v.parse().ok());
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
    )?;
    let reached = |sent: usize| max_frames.is_some_and(|m| sent >= m);
    let mut sent = 0usize;
    for frame in history {
        if reached(sent) {
            break;
        }
        write_chunk(stream, frame.as_bytes())?;
        engine.metrics().sse_frame();
        sent += 1;
    }
    let mut last_write = Instant::now();
    while !reached(sent) && !draining.load(Ordering::SeqCst) {
        match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(frame) => {
                write_chunk(stream, frame.as_bytes())?;
                engine.metrics().sse_frame();
                sent += 1;
                last_write = Instant::now();
            }
            Err(RecvTimeoutError::Timeout) => {
                if last_write.elapsed() >= SSE_HEARTBEAT {
                    write_chunk(stream, b": keep-alive\n\n")?;
                    last_write = Instant::now();
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Terminal chunk: the client sees a clean end of stream.
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// One HTTP/1.1 chunk.
fn write_chunk(stream: &mut TcpStream, data: &[u8]) -> std::io::Result<()> {
    write!(stream, "{:x}\r\n", data.len())?;
    stream.write_all(data)?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// The 409 answered when a sync endpoint is hit on a node without a
/// durable store.
fn no_sync_store_response() -> Response {
    Response::error(
        409,
        "no_store",
        "sync requires a durable store; start the leader with --live --data-dir".to_string(),
        None,
    )
}

/// The 409 answered when a live-only endpoint is hit on a snapshot
/// server.
fn not_live_response() -> Response {
    Response::error(
        409,
        "not_live",
        "this server serves a fixed snapshot; start it with --live to ingest or stream".to_string(),
        None,
    )
}

/// The declared `Content-Length`, if any header carries one.
fn content_length(head: &str) -> Option<usize> {
    header_value(head, "content-length").and_then(|v| v.parse().ok())
}

/// The value of header `name` (case-insensitive), if the head carries it.
fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().skip(1).find_map(|line| {
        let (n, value) = line.split_once(':')?;
        if n.trim().eq_ignore_ascii_case(name) {
            Some(value.trim())
        } else {
            None
        }
    })
}

/// The unversioned v0 endpoints, kept answering as permanent redirects.
const LEGACY_PREFIXES: [&str; 5] = ["/healthz", "/experiments", "/summary", "/metrics", "/analyze"];

/// Dispatches a GET to a [`Response`].
fn route(
    engine: &Engine,
    path: &str,
    query: Option<&str>,
    raw_path: &str,
    deadline: Option<Instant>,
) -> Response {
    match path {
        "/v1/healthz" => {
            engine.metrics().request("/v1/healthz");
            // Schema v2: the v1 fields (status, mode, snapshot) keep
            // their names and order; role + sync join them.
            let body = format!(
                "{{\"version\":2,\"status\":\"ok\",\"mode\":{},\"snapshot\":{},\"role\":{},\"sync\":{}}}",
                json_str(if engine.is_live() { "live" } else { "snapshot" }),
                json_str(engine.store().fingerprint()),
                json_str(engine.role().name()),
                to_json(&engine.sync_status()),
            );
            Response::json(200, body)
        }
        "/v1/cluster" => {
            engine.metrics().request("/v1/cluster");
            // Chaos hook: a partitioned node. Stalling exactly the
            // coordination surface (cluster status + promote) makes this
            // node look dead to the router's prober while its sync and
            // analyze paths keep working — a netsplit, not a crash.
            if let Some(dial_fault::FaultAction::Delay(d)) =
                dial_fault::inject(dial_fault::FaultPoint::Netsplit)
            {
                engine.metrics().fault("netsplit");
                std::thread::sleep(d);
            }
            Response::json(200, engine.cluster_json())
        }
        "/v1/sync/manifest" => {
            engine.metrics().request("/v1/sync/manifest");
            match engine.sync_manifest_json() {
                Some(body) => Response::json(200, body),
                None => no_sync_store_response(),
            }
        }
        _ if path.starts_with("/v1/sync/segment/") => {
            engine.metrics().request("/v1/sync/segment");
            let seq = &path["/v1/sync/segment/".len()..];
            match seq.parse::<u64>() {
                Err(_) => {
                    Response::error(400, "bad_seq", format!("`{seq}` is not a seal seq"), None)
                }
                Ok(seq) => match engine.export_sync_batch(seq) {
                    Ok(bytes) => Response::octets(bytes),
                    Err(SyncExportError::NoStore) => no_sync_store_response(),
                    Err(SyncExportError::NotFound) => Response::error(
                        404,
                        "unknown_segment",
                        format!("seal {seq} is not in the log (never sealed, or compacted away)"),
                        None,
                    ),
                    Err(SyncExportError::Store(e)) => Response::error(500, "store_error", e, None),
                },
            }
        }
        "/v1/experiments" => {
            engine.metrics().request("/v1/experiments");
            let rows: Vec<ExperimentRow> = engine
                .experiments()
                .iter()
                .map(|e| ExperimentRow {
                    id: e.id.clone(),
                    title: e.title.clone(),
                    paper_claim: e.paper_claim.clone(),
                })
                .collect();
            Response::json(200, to_json(&rows))
        }
        "/v1/summary" => {
            engine.metrics().request("/v1/summary");
            let body = SummaryBody {
                snapshot: engine.store().fingerprint().to_string(),
                params: engine.params().to_string(),
                experiments: engine.experiments().len(),
                counts: engine.store().summary().clone(),
            };
            Response::json(200, to_json(&body))
        }
        "/v1/metrics" => {
            engine.metrics().request("/v1/metrics");
            Response::json(200, to_json(&engine.metrics().snapshot()))
        }
        "/v1/store" => {
            engine.metrics().request("/v1/store");
            match engine.store_status() {
                Some(body) => Response::json(200, body),
                None => Response::error(
                    409,
                    "no_store",
                    "this server has no durable store; start with --live --data-dir".to_string(),
                    None,
                ),
            }
        }
        // GETs to the ingest endpoint (POSTs dispatch before routing).
        "/v1/ingest" => Response::error(
            405,
            "method_not_allowed",
            "ingest is write-only; use POST /v1/ingest".to_string(),
            None,
        ),
        "/v1/analyze" => {
            engine.metrics().request("/v1/analyze?ids");
            route_batch(engine, query, deadline)
        }
        "/v1/scenario" => {
            engine.metrics().request("/v1/scenario");
            route_scenario(engine, query, deadline)
        }
        _ if path.starts_with("/v1/analyze/") => {
            engine.metrics().request("/v1/analyze");
            let id = &path["/v1/analyze/".len()..];
            match engine.analyze_deadline(id, deadline) {
                Ok(body) => Response::json(200, body.as_str().to_string()),
                Err(err) => analyze_error_response(engine, &err, id),
            }
        }
        _ if LEGACY_PREFIXES.iter().any(|p| {
            path == *p || (path.starts_with(*p) && path.as_bytes().get(p.len()) == Some(&b'/'))
        }) =>
        {
            Response::redirect(format!("/v1{raw_path}"))
        }
        _ => Response::error(404, "unknown_endpoint", format!("no such endpoint: {path}"), None),
    }
}

/// `GET /v1/analyze?ids=a,b,c`: runs the batch concurrently on the shared
/// pool and returns `{"results": {id: body}, "errors": {id: envelope}}`.
fn route_batch(engine: &Engine, query: Option<&str>, deadline: Option<Instant>) -> Response {
    let Some(ids_param) = query.and_then(|q| {
        q.split('&').find_map(|pair| pair.strip_prefix("ids=")).filter(|v| !v.is_empty())
    }) else {
        return Response::error(
            400,
            "missing_ids",
            "batch analyze needs a non-empty `ids` query parameter, e.g. /v1/analyze?ids=table1,fig2".to_string(),
            None,
        );
    };
    // Deduplicate while keeping first-occurrence order, so the response
    // maps have one entry per id.
    let mut ids: Vec<String> = Vec::new();
    for id in ids_param.split(',').filter(|s| !s.is_empty()) {
        if !ids.iter().any(|seen| seen == id) {
            ids.push(id.to_string());
        }
    }
    if ids.is_empty() {
        return Response::error(
            400,
            "missing_ids",
            "the `ids` parameter contained no experiment ids".to_string(),
            None,
        );
    }

    let outcomes = match engine.analyze_many_deadline(&ids, deadline) {
        Ok(outcomes) => outcomes,
        // Name only the offending ids in the message, not the whole batch.
        Err(err) => {
            let label = match &err {
                AnalyzeError::Unknown { valid } => ids
                    .iter()
                    .filter(|id| !valid.contains(id))
                    .cloned()
                    .collect::<Vec<_>>()
                    .join(", "),
                _ => ids.join(", "),
            };
            return analyze_error_response(engine, &err, &label);
        }
    };

    // Splice cached bodies in verbatim: each `results` value stays
    // byte-identical to its single-experiment `/v1/analyze/{id}` body.
    let mut results = Vec::new();
    let mut errors = Vec::new();
    for (id, outcome) in &outcomes {
        match outcome {
            Ok(body) => results.push(format!("{}:{}", json_str(id), body)),
            Err(err) => {
                let r = analyze_error_response(engine, err, id);
                errors.push(format!("{}:{}", json_str(id), r.body));
            }
        }
    }
    let body =
        format!("{{\"results\":{{{}}},\"errors\":{{{}}}}}", results.join(","), errors.join(","));
    Response::json(200, body)
}

/// `GET /v1/scenario[?ids=a,b]`: the registered scenario's comparison
/// document, byte-identical to `dial scenario run --json` on the same
/// file. `ids` narrows the diff to those experiments (first-occurrence
/// dedup, the `/v1/analyze?ids` convention); omitted means the full
/// registry.
fn route_scenario(engine: &Engine, query: Option<&str>, deadline: Option<Instant>) -> Response {
    let mut ids: Vec<String> = Vec::new();
    if let Some(ids_param) =
        query.and_then(|q| q.split('&').find_map(|pair| pair.strip_prefix("ids=")))
    {
        for id in ids_param.split(',').filter(|s| !s.is_empty()) {
            if !ids.iter().any(|seen| seen == id) {
                ids.push(id.to_string());
            }
        }
    }
    match engine.scenario_json(&ids, deadline) {
        Ok(body) => Response::json(200, body.as_str().to_string()),
        Err(ScenarioServeError::NotConfigured) => Response::error(
            409,
            "no_scenario",
            "this server has no scenario registered; start with --scenario <file>".to_string(),
            None,
        ),
        Err(ScenarioServeError::UnknownExperiments(unknown)) => {
            let mut detail = BTreeMap::new();
            detail.insert(
                "valid".to_string(),
                Value::Array(
                    engine.experiments().iter().map(|e| Value::String(e.id.clone())).collect(),
                ),
            );
            Response::error(
                404,
                "unknown_experiment",
                format!("unknown experiments: {}", unknown.join(", ")),
                Some(Value::Object(detail)),
            )
        }
        Err(ScenarioServeError::Saturated) => {
            engine.metrics().shed();
            Response::error(503, "saturated", "server saturated, retry later".to_string(), None)
        }
        Err(ScenarioServeError::DeadlineExceeded) => deadline_response(),
        Err(ScenarioServeError::Failed(detail)) => Response::error(
            500,
            "scenario_failed",
            format!("scenario comparison failed: {detail}"),
            None,
        ),
    }
}

/// The 504 answered when a request's deadline budget runs out.
fn deadline_response() -> Response {
    Response::error(
        504,
        "deadline_exceeded",
        "the request deadline expired before a result was ready".to_string(),
        None,
    )
}

/// Maps an [`AnalyzeError`] to its enveloped response.
fn analyze_error_response(engine: &Engine, err: &AnalyzeError, id: &str) -> Response {
    match err {
        AnalyzeError::Unknown { valid } => {
            let mut detail = BTreeMap::new();
            detail.insert(
                "valid".to_string(),
                Value::Array(valid.iter().map(|v| Value::String(v.clone())).collect()),
            );
            Response::error(
                404,
                "unknown_experiment",
                format!("unknown experiment `{id}`"),
                Some(Value::Object(detail)),
            )
        }
        AnalyzeError::Saturated => {
            engine.metrics().shed();
            Response::error(503, "saturated", "server saturated, retry later".to_string(), None)
        }
        // The engine already counted deadlines_exceeded when it gave up.
        AnalyzeError::DeadlineExceeded => deadline_response(),
        AnalyzeError::Failed => Response::error(
            500,
            "experiment_failed",
            format!("experiment `{id}` failed to run"),
            None,
        ),
    }
}

fn to_json<T: Serialize>(value: &T) -> String {
    // lint:allow(unwrap-in-serve): serialising an in-memory value; failure is a serde bug, not a request error
    serde_json::to_string(value).expect("response bodies serialise")
}

/// JSON string literal for `s` (quotes + escaping).
fn json_str(s: &str) -> String {
    // lint:allow(unwrap-in-serve): serialising an in-memory value; failure is a serde bug, not a request error
    serde_json::to_string(&s).expect("strings serialise")
}

/// [`respond`] for requests rejected before their bytes were consumed:
/// after writing the reply, briefly drain whatever the client already
/// sent so closing the socket doesn't RST the unread data and destroy
/// the response before the client reads it.
fn respond_and_drain(
    stream: &mut TcpStream,
    engine: &Engine,
    response: &Response,
) -> std::io::Result<()> {
    let result = respond(stream, engine, response);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut sink = [0u8; 1024];
    for _ in 0..64 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    result
}

fn respond(stream: &mut TcpStream, engine: &Engine, response: &Response) -> std::io::Result<()> {
    let reason = match response.status {
        200 => "OK",
        308 => "Permanent Redirect",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        421 => "Misdirected Request",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    };
    let (ctype, payload): (&str, &[u8]) = match &response.raw {
        Some(bytes) => ("application/octet-stream", bytes.as_slice()),
        None => ("application/json", response.body.as_bytes()),
    };
    let location =
        response.location.as_ref().map(|l| format!("Location: {l}\r\n")).unwrap_or_default();
    let retry_after =
        response.retry_after.map(|s| format!("Retry-After: {s}\r\n")).unwrap_or_default();
    let head = format!(
        "HTTP/1.1 {} {reason}\r\nContent-Type: {ctype}\r\n{location}{retry_after}Content-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        payload.len()
    );
    // Chaos hook: a truncated write simulates the peer (or a middlebox)
    // cutting the stream mid-response; the client sees a short read and
    // the server must shrug and move on.
    if let Some(dial_fault::FaultAction::Truncate(keep)) =
        dial_fault::inject(dial_fault::FaultPoint::TruncWrite)
    {
        engine.metrics().fault("trunc_write");
        let mut wire = head.into_bytes();
        wire.extend_from_slice(payload);
        wire.truncate(keep);
        stream.write_all(&wire)?;
        return stream.flush();
    }
    stream.write_all(head.as_bytes())?;
    stream.write_all(payload)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_connection_task_releases_its_count_unrun_or_unwound() {
        let active = Arc::new(AtomicUsize::new(0));
        // A failed `spawn` drops the task without running it.
        let task = counted(&active, || {});
        assert_eq!(active.load(Ordering::SeqCst), 1);
        drop(task);
        assert_eq!(active.load(Ordering::SeqCst), 0);

        let task = counted(&active, || panic!("connection handler panicked"));
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)).is_err());
        assert_eq!(active.load(Ordering::SeqCst), 0);

        counted(&active, || {})();
        assert_eq!(active.load(Ordering::SeqCst), 0);
    }
}
