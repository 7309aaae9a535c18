//! The `dial serve` node's HTTP/1.1 routes, over the shared wire code in
//! [`crate::wire`].
//!
//! The protocol surface is deliberately tiny: GET plus two POSTs
//! (`/v1/ingest`, `/v1/promote`), JSON responses, `Connection: close` on
//! every reply. Each accepted connection gets its own short-lived thread
//! (connections are cheap; the expensive part — running experiments — is
//! bounded by the engine's admission scheduler, which is where load is
//! shed). The one long-lived route is `GET /v1/stream`: a chunked
//! `text/event-stream` of seal deltas and era transitions that holds its
//! connection thread until the client leaves, `?max=N` frames have been
//! sent, or a drain begins.
//!
//! # API v1
//!
//! All endpoints live under `/v1`; the original unversioned paths answer
//! `308 Permanent Redirect` with a `Location` header pointing at their
//! `/v1` successor, so old clients keep working with one extra hop.
//! Every non-200 response carries the error envelope [`crate::wire`]
//! documents, with structured context in `detail` (the valid ids on
//! `unknown_experiment`, the target on `moved_permanently`).
//!
//! # Front-door protection (DESIGN §12)
//!
//! [`crate::wire::read_request`] enforces the header window (408), the
//! head cap (431) and the declared-body cap (413) with this server's
//! [`ServeConfig`] limits; this module adds the fault hooks and counters
//! around it. Writes carry `write_timeout` so a client that stops reading
//! cannot wedge a connection thread. During a graceful drain every
//! request answers `503` + `Retry-After` while in-flight work finishes.

use crate::engine::{
    AnalyzeError, Engine, IngestError, PromoteError, Role, ScenarioServeError, SyncExportError,
};
use crate::httpc;
use crate::store::StoreSummary;
use crate::wire::{self, json_str, to_json, Acceptor, Refusal, Request, Response};
use serde::Serialize;
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
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
            read_timeout: wire::WINDOW,
            write_timeout: wire::WRITE_TIMEOUT,
            max_header_bytes: wire::MAX_HEAD_BYTES,
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
    engine: Arc<Engine>,
    acceptor: Acceptor,
    draining: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    drain_timeout: Duration,
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
        let draining = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let acceptor = {
            let engine = Arc::clone(&engine);
            let draining = Arc::clone(&draining);
            let active = Arc::clone(&active);
            let cfg = Arc::new(cfg.clone());
            Acceptor::spawn(listener, "dial-serve", move |stream| {
                let engine = Arc::clone(&engine);
                let draining = Arc::clone(&draining);
                let cfg = Arc::clone(&cfg);
                counted(&active, move || {
                    let _ = handle_connection(stream, &engine, &cfg, &draining);
                })
            })?
        };
        Ok(Self { engine, acceptor, draining, active, drain_timeout: cfg.drain_timeout })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Immediate shutdown: stop accepting, wait for in-flight connections
    /// and scheduler jobs up to the drain deadline, then abandon and log
    /// whatever is still running. Returns the abandoned job ids.
    pub fn shutdown(mut self) -> Vec<u64> {
        let deadline = Instant::now() + self.drain_timeout;
        self.acceptor.stop();
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
        self.acceptor.stop();
        self.finish_engine(deadline)
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

/// A 308 to `location`, with the envelope as body for JSON clients that
/// do not follow redirects.
fn redirect_response(location: String) -> Response {
    let mut detail = BTreeMap::new();
    detail.insert("location".to_string(), Value::String(location.clone()));
    let mut r = Response::error(
        308,
        "moved_permanently",
        format!("this endpoint moved to {location}"),
        Some(Value::Object(detail)),
    );
    r.location = Some(location);
    r
}

/// The drain-mode answer: 503 with a `Retry-After` hint.
fn draining_response(retry_after_secs: u64) -> Response {
    let mut r = Response::error(
        503,
        "draining",
        "server is draining for shutdown, retry shortly".to_string(),
        None,
    );
    r.retry_after = Some(retry_after_secs);
    r
}

fn handle_connection(
    mut stream: TcpStream,
    engine: &Engine,
    cfg: &ServeConfig,
    draining: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_write_timeout(Some(cfg.write_timeout))?;
    let started = Instant::now();
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
    let (window, max_head, max_body) = (cfg.read_timeout, cfg.max_header_bytes, cfg.max_body_bytes);
    let Request { head, method, target, body: leftover } =
        match wire::read_request(&mut stream, started, window, max_head, max_body) {
            Ok(request) => request,
            Err(Refusal { response, over_limit: true }) => {
                engine.metrics().requests_rejected.inc();
                return respond_and_drain(&mut stream, engine, &response);
            }
            Err(Refusal { response, .. }) => return respond(&mut stream, engine, &response),
        };
    let (method, raw_path) = (method.as_str(), target.as_str());
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
        engine.metrics().drain_rejected.inc();
        let r = draining_response(cfg.drain_timeout.as_secs().max(1));
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
        engine.metrics().deadlines_exceeded.inc();
        deadline_response()
    } else {
        route(engine, path, query, raw_path, deadline)
    };
    respond(&mut stream, engine, &response)
}

/// `POST /v1/ingest`: reads the NDJSON batch body and applies it to the
/// live stream engine. The declared length was already bounds-checked
/// against `max_body_bytes` before dispatch.
fn handle_ingest(
    stream: &mut TcpStream,
    engine: &Engine,
    cfg: &ServeConfig,
    head: &str,
    body: Vec<u8>,
) -> std::io::Result<()> {
    engine.metrics().request("/v1/ingest");
    // Epoch fencing. The router stamps forwarded writes with the cluster
    // epoch it is operating at: a write from a *lower* epoch is a ghost
    // of a pre-failover view and must not land (409, so the sender
    // refreshes its view), while a write carrying a *higher* epoch is
    // proof this leader has been superseded — it steps aside instead of
    // split-braining, adopting the leader the header names.
    if let Some(remote) =
        wire::header_value(head, "x-dial-epoch").and_then(|v| v.parse::<u64>().ok())
    {
        let local = engine.epoch();
        if remote < local {
            engine.metrics().epoch_rejections.inc();
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
            let named = wire::header_value(head, "x-dial-leader").map(str::to_string);
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
    let Some(len) = wire::content_length(head) else {
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
    let body = match wire::read_body(stream, body, len, cfg.read_timeout) {
        Ok(body) if body.len() == len => body,
        Ok(short) => {
            engine.metrics().requests_rejected.inc();
            return respond(stream, engine, &wire::truncated_body(short.len(), len));
        }
        Err(late) => {
            engine.metrics().requests_rejected.inc();
            return respond(stream, engine, &late);
        }
    };
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
    body: Vec<u8>,
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
    // The (tiny) body gets the same total window as an ingest batch.
    let len = wire::content_length(head).unwrap_or(0);
    let body = match wire::read_body(stream, body, len, cfg.read_timeout) {
        Ok(body) => body,
        Err(late) => {
            engine.metrics().requests_rejected.inc();
            return respond(stream, engine, &late);
        }
    };
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
/// timed out, or answering garbage).
fn peer_view(addr: &str) -> Option<(Option<u64>, u64)> {
    let reply = httpc::get_with_timeout(addr, "/v1/cluster", Duration::from_secs(2)).ok()?;
    let v: Value = serde_json::from_str(reply.text().trim()).ok()?;
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
    engine.metrics().sse_clients.inc();
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
        engine.metrics().sse_frames.inc();
        sent += 1;
    }
    let mut last_write = Instant::now();
    while !reached(sent) && !draining.load(Ordering::SeqCst) {
        match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(frame) => {
                write_chunk(stream, frame.as_bytes())?;
                engine.metrics().sse_frames.inc();
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
            Response::json(200, to_json(engine.metrics()))
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
            redirect_response(format!("/v1{raw_path}"))
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
                errors.push(format!("{}:{}", json_str(id), String::from_utf8_lossy(&r.body)));
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
            engine.metrics().shed_total.inc();
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
            engine.metrics().shed_total.inc();
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

/// [`respond`] for requests rejected before their bytes were consumed:
/// the reply, then a brief [`wire::drain`] of what the client already
/// sent.
fn respond_and_drain(
    stream: &mut TcpStream,
    engine: &Engine,
    response: &Response,
) -> std::io::Result<()> {
    let result = respond(stream, engine, response);
    wire::drain(stream);
    result
}

/// [`wire::write_response`] behind the `trunc_write` fault hook. Every
/// reply but the SSE stream goes out through here, so this is the one
/// place that counts 5xx responses.
fn respond(stream: &mut TcpStream, engine: &Engine, response: &Response) -> std::io::Result<()> {
    if response.status >= 500 {
        engine.metrics().responses_5xx.inc();
    }
    // Chaos hook: a truncated write simulates the peer (or a middlebox)
    // cutting the stream mid-response; the client sees a short read and
    // the server must shrug and move on.
    if let Some(dial_fault::FaultAction::Truncate(keep)) =
        dial_fault::inject(dial_fault::FaultPoint::TruncWrite)
    {
        engine.metrics().fault("trunc_write");
        let mut bytes = wire::head(response).into_bytes();
        bytes.extend_from_slice(&response.body);
        bytes.truncate(keep);
        stream.write_all(&bytes)?;
        return stream.flush();
    }
    wire::write_response(stream, response)
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

    #[test]
    fn a_drain_rejection_counts_as_a_5xx() {
        let engine = Engine::new_live(7, 3, Vec::new(), 1, 1, 64);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.write_all(b"GET /v1/healthz HTTP/1.1\r\n\r\n").unwrap();
        let (conn, _) = listener.accept().unwrap();
        handle_connection(conn, &engine, &ServeConfig::default(), &AtomicBool::new(true)).unwrap();
        let mut reply = String::new();
        std::io::Read::read_to_string(&mut client, &mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 503"), "{reply}");
        assert_eq!(engine.metrics().drain_rejected.get(), 1);
        assert_eq!(engine.metrics().responses_5xx.get(), 1);
    }
}
