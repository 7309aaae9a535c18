//! `dial route`: a health-checked scatter-gather front over one leader
//! and a set of read replicas.
//!
//! The router holds no market state and runs no experiments — it only
//! decides *which node answers*:
//!
//! - `POST /v1/ingest` goes to the leader, stamped with the router's
//!   cluster epoch (`X-Dial-Epoch`) and leader address (`X-Dial-Leader`)
//!   so a superseded leader fences the write instead of accepting it.
//!   If the cached leader answers `421 not_leader` the router follows
//!   the `Location` header once and updates its cache; a `409
//!   stale_epoch` teaches the router the node's newer epoch and retries
//!   once.
//! - `GET /v1/analyze/*` rendezvous-hashes the request path across the
//!   *healthy* read replicas, so each experiment's repeated queries land
//!   on the same node and reuse its warm cache. After a hedge delay
//!   (fixed via `hedge_ms`, or derived from the p99 of recent read
//!   latencies) with no answer, the router issues the same read to the
//!   next-ranked healthy replica and takes the first 200 — bounding
//!   tail latency when a replica is sick but not yet evicted. A 503
//!   carrying `Retry-After` (a draining replica) is never relayed while
//!   another replica remains untried.
//! - `GET /v1/stream` fans out round-robin across healthy followers.
//! - `GET /v1/cluster` answers locally with `role: "router"` (schema
//!   v3: per-peer liveness, circuit state, sealed tip, and epoch).
//!
//! # Health checking and failover
//!
//! A background prober polls every node's `/v1/cluster` each
//! `probe_interval` and runs one circuit breaker per replica: closed →
//! open after `breaker_threshold` consecutive failures; once open, the
//! replica is evicted from the read ring and each subsequent probe is
//! the half-open trial — one success closes the circuit again.
//!
//! After every probe sweep the router reconciles leadership: a reachable
//! node claiming `leader` at an epoch ≥ the router's becomes the cached
//! leader; any reachable node with a stale epoch (or a stale leadership
//! claim — a revived old leader) is sent an adopt
//! (`POST /v1/promote {"epoch", "leader"}`) that fences it into a
//! follower. With `auto_failover` enabled, losing the leader (its
//! breaker opens) triggers a promotion: the router picks the reachable
//! follower with the highest sealed tip (lowest address on ties — see
//! [`crate::promote`]) and asks it to promote itself; the node's own
//! peer survey re-verifies before the epoch bumps.
//!
//! The front door is the node's own ([`wire`]: the header window, 408,
//! 413 and 431, the error envelope, a blocking accept), and every proxied
//! exchange is one fresh upstream connection through [`httpc`] — the
//! same close-delimited HTTP/1.1 the in-tree server speaks.

use crate::promote::{pick_leader, PeerView};
use dial_serve::httpc::{self, HttpReply};
use dial_serve::wire::{self, json_str, Acceptor, Refusal, Response};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Read latencies kept for the adaptive hedge delay.
const LATENCY_WINDOW: usize = 128;

/// Bounds on the adaptive hedge delay: never hedge inside 25ms (that is
/// just a warm cache hit racing itself), never wait past 1s to hedge.
const HEDGE_MIN_MS: u64 = 25;
const HEDGE_MAX_MS: u64 = 1000;

/// The router's cap on a declared request body, sized for whole ingest
/// batches; the head window and head cap are the node's defaults.
const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// How the router is wired at startup.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// TCP port to bind on 127.0.0.1 (0 = ephemeral, for tests).
    pub port: u16,
    /// The write node. May be stale: a 421 redirect corrects it.
    pub leader: String,
    /// Read replicas (`host:port`). Empty means the leader serves reads
    /// too — a single-node cluster behind a stable front address.
    pub followers: Vec<String>,
    /// Promote a surviving follower automatically when the leader's
    /// circuit opens. Off by default: an operator who wants manual
    /// control keeps it and uses `dial promote`.
    pub auto_failover: bool,
    /// How often the prober polls every node's `/v1/cluster`.
    pub probe_interval: Duration,
    /// Consecutive probe failures that open a replica's circuit.
    pub breaker_threshold: u32,
    /// Fixed hedge delay in milliseconds; `None` derives it from the
    /// p99 of recent read latencies.
    pub hedge_ms: Option<u64>,
}

impl RouterConfig {
    /// A router over `leader`/`followers` with the default health knobs:
    /// 500ms probes, breaker opens after 2 consecutive failures (so a
    /// dead leader is detected — and auto-failover can fire — within two
    /// probe intervals), adaptive hedge delay.
    pub fn new(port: u16, leader: String, followers: Vec<String>) -> Self {
        Self {
            port,
            leader,
            followers,
            auto_failover: false,
            probe_interval: Duration::from_millis(500),
            breaker_threshold: 2,
            hedge_ms: None,
        }
    }
}

/// One replica's health as the prober last saw it.
#[derive(Debug, Clone, Default)]
struct ReplicaHealth {
    /// Consecutive probe failures; reaching the breaker threshold opens
    /// the circuit.
    failures: u32,
    /// Open = evicted from the read ring; every probe while open is the
    /// half-open trial.
    open: bool,
    /// The probe tick that last saw this replica answer.
    last_seen_tick: Option<u64>,
    /// Last reported sealed tip.
    sealed_seq: Option<u64>,
    /// Last reported leadership epoch.
    epoch: u64,
    /// Last reported role.
    role: String,
}

struct RouterState {
    leader: Mutex<String>,
    followers: Vec<String>,
    /// Every node the router was configured with (initial leader +
    /// followers). The prober never forgets a seed: a failed-over-from
    /// leader that comes back on its old address must be seen — and
    /// fenced — even though the cached leader moved on.
    seeds: Vec<String>,
    round_robin: AtomicUsize,
    auto_failover: bool,
    breaker_threshold: u32,
    hedge_ms: Option<u64>,
    /// The epoch of the leader the router currently routes writes to —
    /// what it stamps into `X-Dial-Epoch`. Only ever raised.
    epoch: AtomicU64,
    health: Mutex<BTreeMap<String, ReplicaHealth>>,
    /// Recent successful read latencies (ms), for the adaptive hedge.
    latencies: Mutex<Vec<f64>>,
    probes: AtomicU64,
    hedged_reads: AtomicU64,
    retry_after_retries: AtomicU64,
    failovers: AtomicU64,
}

/// A running router; [`Router::stop`] shuts the accept loop down.
pub struct Router {
    acceptor: Acceptor,
    stop: Arc<AtomicBool>,
    probe_handle: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds and starts serving in a background accept loop, plus the
    /// health prober.
    pub fn start(cfg: RouterConfig) -> Result<Self, String> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))
            .map_err(|e| format!("bind 127.0.0.1:{}: {e}", cfg.port))?;
        let seeds = cluster_nodes_from(&cfg.leader, &cfg.followers);
        let state = Arc::new(RouterState {
            leader: Mutex::new(cfg.leader),
            followers: cfg.followers,
            seeds,
            round_robin: AtomicUsize::new(0),
            auto_failover: cfg.auto_failover,
            breaker_threshold: cfg.breaker_threshold.max(1),
            hedge_ms: cfg.hedge_ms,
            epoch: AtomicU64::new(0),
            health: Mutex::new(BTreeMap::new()),
            latencies: Mutex::new(Vec::new()),
            probes: AtomicU64::new(0),
            hedged_reads: AtomicU64::new(0),
            retry_after_retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
        });
        let acceptor = {
            let state = Arc::clone(&state);
            Acceptor::spawn(listener, "dial-route", move |stream| {
                let state = Arc::clone(&state);
                move || handle_conn(stream, &state)
            })
            .map_err(|e| format!("spawn router thread: {e}"))?
        };
        let stop = Arc::new(AtomicBool::new(false));
        let probe_handle = {
            let stop = Arc::clone(&stop);
            let interval = cfg.probe_interval;
            std::thread::Builder::new()
                .name("dial-route-probe".into())
                .spawn(move || probe_loop(&state, interval, &stop))
                .map_err(|e| format!("spawn prober thread: {e}"))?
        };
        Ok(Self { acceptor, stop, probe_handle: Some(probe_handle) })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Stops accepting and joins the accept loop and prober. In-flight
    /// proxied requests finish on their own threads.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.acceptor.stop();
        if let Some(handle) = self.probe_handle.take() {
            let _ = handle.join();
        }
    }
}

fn handle_conn(mut stream: TcpStream, state: &RouterState) {
    let _ = stream.set_write_timeout(Some(wire::WRITE_TIMEOUT));
    let (window, max_head) = (wire::WINDOW, wire::MAX_HEAD_BYTES);
    let request =
        match wire::read_request(&mut stream, Instant::now(), window, max_head, MAX_BODY_BYTES) {
            Ok(request) => request,
            Err(Refusal { response, over_limit }) => {
                let _ = wire::write_response(&mut stream, &response);
                if over_limit {
                    wire::drain(&mut stream);
                }
                return;
            }
        };
    let path = request.target.as_str();
    let response = match (request.method.as_str(), path) {
        ("POST", "/v1/ingest") => {
            let len = wire::content_length(&request.head).unwrap_or(0);
            match wire::read_body(&mut stream, request.body, len, window) {
                Ok(body) if body.len() == len => relay(forward_ingest(state, &body)),
                Ok(short) => wire::truncated_body(short.len(), len),
                Err(late) => late,
            }
        }
        ("GET", "/v1/cluster") => Response::json(200, router_cluster_json(state)),
        ("GET", p) if p == "/v1/stream" || p.starts_with("/v1/stream?") => {
            return proxy_stream(&mut stream, state, path);
        }
        ("GET", p) if p.starts_with("/v1/analyze") => {
            let replicas = read_replicas(state);
            let ranked: Vec<String> =
                rank_replicas(&replicas, path).into_iter().map(str::to_string).collect();
            relay(forward_read(state, &ranked, path))
        }
        ("GET", _) => {
            let leader = lock_leader(state).clone();
            relay(httpc::get(&leader, path))
        }
        _ => Response::error(
            405,
            "method_not_allowed",
            "router accepts GET, and POST /v1/ingest".to_string(),
            None,
        ),
    };
    let _ = wire::write_response(&mut stream, &response);
}

fn lock_leader(state: &RouterState) -> std::sync::MutexGuard<'_, String> {
    state.leader.lock().expect("leader lock")
}

fn lock_health(state: &RouterState) -> std::sync::MutexGuard<'_, BTreeMap<String, ReplicaHealth>> {
    state.health.lock().expect("health lock")
}

/// The nodes that answer reads: followers whose circuit is closed. When
/// every follower's circuit is open the full follower list is used
/// anyway (trying beats refusing); with no followers at all, the leader
/// serves reads.
fn read_replicas(state: &RouterState) -> Vec<String> {
    if state.followers.is_empty() {
        return vec![lock_leader(state).clone()];
    }
    let health = lock_health(state);
    let healthy: Vec<String> = state
        .followers
        .iter()
        .filter(|f| health.get(*f).is_none_or(|h| !h.open))
        .cloned()
        .collect();
    drop(health);
    if healthy.is_empty() {
        state.followers.clone()
    } else {
        healthy
    }
}

/// Writes go to the cached leader, stamped with the router's epoch. One
/// `421 Location` hop re-aims them; one `409 stale_epoch` teaches the
/// router the node's newer epoch and retries at it.
fn forward_ingest(state: &RouterState, body: &[u8]) -> Result<HttpReply, String> {
    let leader = lock_leader(state).clone();
    let reply = post_ingest_at(state, &leader, body)?;
    if reply.status == 421 {
        let Some(corrected) = reply.header("location").and_then(addr_of_url) else {
            return Ok(reply); // 421 without a usable Location: relay as-is
        };
        let retry = post_ingest_at(state, &corrected, body)?;
        *lock_leader(state) = corrected;
        return Ok(retry);
    }
    if reply.status == 409 && reply.text().contains("stale_epoch") {
        // The node has persisted a newer epoch than the router knows
        // (e.g. the router restarted mid-cluster-life). Its refusal
        // names the real epoch; adopt it and retry once.
        if let Some(epoch) = epoch_of_error(&reply.text()) {
            state.epoch.fetch_max(epoch, Ordering::SeqCst);
            return post_ingest_at(state, &leader, body);
        }
    }
    Ok(reply)
}

/// One stamped ingest POST.
fn post_ingest_at(state: &RouterState, addr: &str, body: &[u8]) -> Result<HttpReply, String> {
    let epoch = state.epoch.load(Ordering::SeqCst).to_string();
    let headers = [("X-Dial-Epoch", epoch.as_str()), ("X-Dial-Leader", addr)];
    httpc::post_with_headers(addr, "/v1/ingest", body, &headers)
}

/// Pulls `detail.epoch` out of a `stale_epoch` error envelope.
fn epoch_of_error(body: &str) -> Option<u64> {
    let v: Value = serde_json::from_str(body).ok()?;
    v.get("error").get("detail").get("epoch").as_u64()
}

/// The hedge delay: the configured override, or the p99 of recent read
/// latencies clamped to [25ms, 1s] (100ms until enough samples exist).
fn hedge_delay(state: &RouterState) -> Duration {
    if let Some(ms) = state.hedge_ms {
        return Duration::from_millis(ms);
    }
    let lat = state.latencies.lock().expect("latency lock");
    if lat.len() < 8 {
        return Duration::from_millis(100);
    }
    let mut sorted = lat.clone();
    drop(lat);
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() as f64) * 0.99).ceil() as usize;
    let p99 = sorted[idx.saturating_sub(1).min(sorted.len() - 1)];
    Duration::from_millis((p99 as u64).clamp(HEDGE_MIN_MS, HEDGE_MAX_MS))
}

/// Records one successful read's latency for the adaptive hedge.
fn record_latency(state: &RouterState, elapsed: Duration) {
    let mut lat = state.latencies.lock().expect("latency lock");
    if lat.len() >= LATENCY_WINDOW {
        lat.remove(0);
    }
    lat.push(elapsed.as_secs_f64() * 1e3);
}

/// Tries replicas in rendezvous order with hedging: the primary gets
/// `hedge_delay` to answer before the same read is issued to the
/// next-ranked replica, and the first 200 wins. Transport failures fail
/// over immediately; a 503 carrying `Retry-After` (a draining replica)
/// is retried on the next-ranked replica instead of being relayed while
/// any replica remains untried. Any other HTTP response — errors
/// included — is the answer.
fn forward_read(state: &RouterState, ranked: &[String], path: &str) -> Result<HttpReply, String> {
    if ranked.is_empty() {
        return Err("no read replicas configured".to_string());
    }
    let started = Instant::now();
    let overall_deadline = started + Duration::from_secs(30);
    let (tx, rx) = channel::<Result<HttpReply, String>>();
    let launch = |i: usize| {
        let tx = tx.clone();
        let addr = ranked[i].clone();
        let path = path.to_string();
        std::thread::spawn(move || {
            let _ = tx.send(httpc::get(&addr, &path));
        });
    };
    launch(0);
    let mut launched = 1usize;
    let mut received = 0usize;
    let mut hedged = false;
    let mut held_reject: Option<HttpReply> = None;
    let mut last_err = String::new();
    loop {
        let wait = if !hedged && launched < ranked.len() {
            hedge_delay(state)
        } else {
            overall_deadline.saturating_duration_since(Instant::now())
        };
        match rx.recv_timeout(wait) {
            Ok(Ok(reply)) => {
                received += 1;
                if reply.status == 503 && reply.header("retry-after").is_some() {
                    // Draining: hold the reply, try the next replica.
                    state.retry_after_retries.fetch_add(1, Ordering::Relaxed);
                    held_reject = Some(reply);
                    if launched < ranked.len() {
                        launch(launched);
                        launched += 1;
                    } else if received == launched {
                        // Everyone is draining; relay what we held.
                        return Ok(held_reject.expect("held reply"));
                    }
                } else {
                    record_latency(state, started.elapsed());
                    return Ok(reply);
                }
            }
            Ok(Err(e)) => {
                received += 1;
                last_err = e;
                if launched < ranked.len() {
                    launch(launched);
                    launched += 1;
                } else if received == launched {
                    return match held_reject {
                        Some(reply) => Ok(reply),
                        None => Err(last_err),
                    };
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if !hedged && launched < ranked.len() {
                    // The primary is slow: hedge once to the next-ranked
                    // replica and race the two.
                    hedged = true;
                    state.hedged_reads.fetch_add(1, Ordering::Relaxed);
                    launch(launched);
                    launched += 1;
                } else if Instant::now() >= overall_deadline {
                    return Err(format!("read timed out across {launched} replica(s)"));
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                return match held_reject {
                    Some(reply) => Ok(reply),
                    None => Err(if last_err.is_empty() {
                        "all read attempts disconnected".to_string()
                    } else {
                        last_err
                    }),
                };
            }
        }
    }
}

/// Pipes a long-lived `/v1/stream` feed from a round-robin-chosen
/// healthy follower straight through to the client, byte for byte.
fn proxy_stream(client: &mut TcpStream, state: &RouterState, path: &str) {
    let replicas = read_replicas(state);
    let pick = state.round_robin.fetch_add(1, Ordering::Relaxed) % replicas.len();
    let mut upstream = match httpc::get_stream(&replicas[pick], path, Duration::from_secs(2)) {
        Ok(s) => s,
        Err(e) => {
            let _ = wire::write_response(client, &relay(Err(e)));
            return;
        }
    };
    // Feeds idle between seals; only a dead upstream should cut the pipe.
    let _ = upstream.set_read_timeout(Some(Duration::from_secs(300)));
    let mut buf = [0u8; 8192];
    loop {
        match upstream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if client.write_all(&buf[..n]).is_err() {
                    break; // client went away; drop the upstream too
                }
                let _ = client.flush();
            }
        }
    }
}

// ---- health prober and failover ----------------------------------------

/// Every node the prober watches: the configured seed nodes plus the
/// current cached leader (which may have moved off the seed list).
fn cluster_nodes(state: &RouterState) -> Vec<String> {
    let mut nodes = state.seeds.clone();
    let leader = lock_leader(state).clone();
    if !nodes.contains(&leader) {
        nodes.push(leader);
    }
    nodes
}

/// The prober: polls every node's `/v1/cluster` each `interval`, runs
/// the circuit breakers, then reconciles leadership from what it saw.
fn probe_loop(state: &Arc<RouterState>, interval: Duration, stop: &AtomicBool) {
    let timeout = interval.clamp(Duration::from_millis(100), Duration::from_secs(2));
    while !stop.load(Ordering::SeqCst) {
        let tick = state.probes.fetch_add(1, Ordering::SeqCst) + 1;
        let mut views: Vec<PeerView> = Vec::new();
        for addr in cluster_nodes(state) {
            let result = httpc::get_with_timeout(&addr, "/v1/cluster", timeout);
            let parsed = result.ok().filter(|r| r.status == 200).and_then(|r| {
                serde_json::from_str::<Value>(&r.text()).ok().map(|v| {
                    (
                        v.get("sealed_seq").as_u64(),
                        v.get("epoch").as_u64().unwrap_or(0),
                        v.get("role").as_str().unwrap_or("unknown").to_string(),
                    )
                })
            });
            let mut health = lock_health(state);
            let entry = health.entry(addr.clone()).or_default();
            let reachable = parsed.is_some();
            match parsed {
                Some((sealed, epoch, role)) => {
                    entry.failures = 0;
                    entry.open = false;
                    entry.last_seen_tick = Some(tick);
                    entry.sealed_seq = sealed;
                    entry.epoch = epoch;
                    entry.role = role;
                }
                None => {
                    entry.failures = entry.failures.saturating_add(1);
                    if entry.failures >= state.breaker_threshold {
                        entry.open = true;
                    }
                }
            }
            views.push(PeerView {
                addr,
                reachable,
                sealed_seq: entry.sealed_seq,
                epoch: entry.epoch,
                role: entry.role.clone(),
            });
        }
        reconcile(state, &views);
        // Sleep in stop-aware slices so shutdown never waits a full
        // interval.
        let slice = Duration::from_millis(10);
        let mut slept = Duration::ZERO;
        while slept < interval && !stop.load(Ordering::SeqCst) {
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// Leadership reconciliation after one probe sweep. All decisions are
/// pure functions of the sweep (`views`) and the router's own state, so
/// a replayed probe history reconciles identically.
fn reconcile(state: &RouterState, views: &[PeerView]) {
    // 1. Adopt any reachable leadership claim at our epoch or above —
    //    this is how a manual `dial promote` (or another router's
    //    failover) reaches us. Highest epoch wins; ties keep the cached
    //    leader if it is among the claimants, else lowest address.
    let cached = lock_leader(state).clone();
    let claims: Vec<&PeerView> =
        views.iter().filter(|v| v.reachable && v.role == "leader").collect();
    if let Some(best) = claims
        .iter()
        .max_by_key(|v| (v.epoch, v.addr == cached, std::cmp::Reverse(v.addr.as_str())))
    {
        if best.epoch >= state.epoch.load(Ordering::SeqCst) {
            state.epoch.fetch_max(best.epoch, Ordering::SeqCst);
            let mut leader = lock_leader(state);
            if *leader != best.addr {
                state.failovers.fetch_add(1, Ordering::SeqCst);
                *leader = best.addr.clone();
            }
        }
    }
    // 2. Auto-failover: the leader's circuit is open and nobody
    //    reachable claims the lead — promote the best follower.
    let leader_now = lock_leader(state).clone();
    let leader_reachable = views.iter().any(|v| v.addr == leader_now && v.reachable);
    let leader_open = lock_health(state).get(&leader_now).is_some_and(|h| h.open);
    if state.auto_failover
        && !leader_reachable
        && leader_open
        && !views.iter().any(|v| v.reachable && v.role == "leader")
    {
        let candidates: Vec<PeerView> =
            views.iter().filter(|v| v.addr != leader_now).cloned().collect();
        if let Some(candidate) = pick_leader(&candidates) {
            // The empty body asks the node to survey its own peers and
            // promote itself; its survey re-verifies it holds the
            // highest tip even if our probe view is stale.
            match httpc::post(&candidate.addr, "/v1/promote", b"{}") {
                Ok(reply) if reply.status == 200 => {
                    let epoch = serde_json::from_str::<Value>(&reply.text())
                        .ok()
                        .and_then(|v| v.get("epoch").as_u64())
                        .unwrap_or(0);
                    state.epoch.fetch_max(epoch, Ordering::SeqCst);
                    *lock_leader(state) = candidate.addr.clone();
                    state.failovers.fetch_add(1, Ordering::SeqCst);
                }
                _ => {} // refused or unreachable; the next sweep retries
            }
        }
    }
    // 3. Fence stragglers: any reachable node at a stale epoch, or
    //    still claiming the lead from one (a revived old leader), is
    //    adopted into the current epoch as a follower of the current
    //    leader.
    let epoch_now = state.epoch.load(Ordering::SeqCst);
    let leader_now = lock_leader(state).clone();
    for v in views {
        if v.reachable && v.addr != leader_now && (v.epoch < epoch_now || v.role == "leader") {
            let body = format!("{{\"epoch\":{epoch_now},\"leader\":{}}}", json_str(&leader_now));
            let _ = httpc::post(&v.addr, "/v1/promote", body.as_bytes());
        }
    }
}

/// The router's own `/v1/cluster` body (schema v3): cached leader and
/// epoch, the follower list, per-peer health, and failover counters.
fn router_cluster_json(state: &RouterState) -> String {
    let leader = lock_leader(state).clone();
    let nodes = cluster_nodes(state);
    let health = lock_health(state);
    let peers_health: Vec<String> = nodes
        .iter()
        .map(|addr| {
            let h = health.get(addr).cloned().unwrap_or_default();
            format!(
                "{{\"addr\":{},\"circuit\":{},\"last_seen_tick\":{},\"sealed_seq\":{},\"epoch\":{},\"role\":{}}}",
                json_str(addr),
                json_str(if h.open { "open" } else { "closed" }),
                h.last_seen_tick.map_or("null".to_string(), |t| t.to_string()),
                h.sealed_seq.map_or("null".to_string(), |s| s.to_string()),
                h.epoch,
                json_str(if h.role.is_empty() { "unknown" } else { &h.role }),
            )
        })
        .collect();
    drop(health);
    format!(
        "{{\"version\":3,\"role\":\"router\",\"leader\":{},\"epoch\":{},\"peers\":{},\"auto_failover\":{},\"health\":[{}],\"counters\":{{\"probes\":{},\"hedged_reads\":{},\"retry_after_retries\":{},\"failovers\":{}}}}}",
        json_str(&leader),
        state.epoch.load(Ordering::SeqCst),
        serde_json::to_string(&state.followers).unwrap_or_else(|_| "[]".into()),
        state.auto_failover,
        peers_health.join(","),
        state.probes.load(Ordering::SeqCst),
        state.hedged_reads.load(Ordering::SeqCst),
        state.retry_after_retries.load(Ordering::SeqCst),
        state.failovers.load(Ordering::SeqCst),
    )
}

/// [`cluster_nodes`] without needing the state (for rendering while the
/// health lock is held).
fn cluster_nodes_from(leader: &str, followers: &[String]) -> Vec<String> {
    let mut nodes = vec![leader.to_string()];
    for f in followers {
        if !nodes.iter().any(|n| n == f) {
            nodes.push(f.clone());
        }
    }
    nodes
}

/// Extracts `host:port` from an `http://host:port/...` URL.
fn addr_of_url(url: &str) -> Option<String> {
    let rest = url.strip_prefix("http://")?;
    let addr = rest.split('/').next()?;
    (!addr.is_empty()).then(|| addr.to_string())
}

// ---- rendezvous hashing ------------------------------------------------

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn hash_str(s: &str) -> u64 {
    s.bytes().fold(0x9e37_79b9_7f4a_7c15, |h, b| splitmix64(h ^ u64::from(b)))
}

/// Ranks replicas for `key` by highest rendezvous score. Every node
/// scores each (replica, key) pair independently, so removing one
/// replica remaps only the keys it owned — the property that keeps the
/// other replicas' caches warm through a failover.
pub fn rank_replicas<'a>(replicas: &'a [String], key: &str) -> Vec<&'a str> {
    let k = hash_str(key);
    let mut scored: Vec<(u64, &str)> =
        replicas.iter().map(|r| (splitmix64(hash_str(r) ^ k), r.as_str())).collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));
    scored.into_iter().map(|(_, r)| r).collect()
}

// ---- replies ---------------------------------------------------------

/// An upstream reply as the router's answer, keeping the headers that
/// carry meaning across the hop (Content-Type, Location, Retry-After);
/// no reply at all answers 502.
fn relay(upstream: Result<HttpReply, String>) -> Response {
    let reply = match upstream {
        Ok(reply) => reply,
        Err(detail) => return Response::error(502, "bad_upstream", detail, None),
    };
    let content_type = reply.header("content-type").unwrap_or("application/json").to_string();
    Response {
        status: reply.status,
        content_type: content_type.into(),
        location: reply.header("location").map(str::to_string),
        retry_after: reply.header("retry-after").and_then(|v| v.parse().ok()),
        body: reply.body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replicas(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
    }

    fn test_state(leader: &str, followers: Vec<String>) -> RouterState {
        RouterState {
            leader: Mutex::new(leader.to_string()),
            seeds: cluster_nodes_from(leader, &followers),
            followers,
            round_robin: AtomicUsize::new(0),
            auto_failover: false,
            breaker_threshold: 2,
            hedge_ms: None,
            epoch: AtomicU64::new(0),
            health: Mutex::new(BTreeMap::new()),
            latencies: Mutex::new(Vec::new()),
            probes: AtomicU64::new(0),
            hedged_reads: AtomicU64::new(0),
            retry_after_retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
        }
    }

    #[test]
    fn rendezvous_ranking_is_deterministic_and_total() {
        let reps = replicas(4);
        let a = rank_replicas(&reps, "/v1/analyze/table1");
        let b = rank_replicas(&reps, "/v1/analyze/table1");
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "ranking must be a permutation");
    }

    #[test]
    fn rendezvous_spreads_keys_and_survives_replica_loss() {
        let reps = replicas(4);
        let keys: Vec<String> = (0..200).map(|i| format!("/v1/analyze/exp-{i}")).collect();
        let mut owners = std::collections::BTreeMap::new();
        for key in &keys {
            *owners.entry(rank_replicas(&reps, key)[0].to_string()).or_insert(0u32) += 1;
        }
        assert_eq!(owners.len(), 4, "all replicas should own some keys: {owners:?}");

        // Drop one replica: only its keys may move.
        let lost = rank_replicas(&reps, &keys[0])[0].to_string();
        let survivors: Vec<String> = reps.iter().filter(|r| **r != lost).cloned().collect();
        for key in &keys {
            let before = rank_replicas(&reps, key)[0];
            let after = rank_replicas(&survivors, key)[0];
            if before != lost {
                assert_eq!(before, after, "key {key} moved although its owner survived");
            } else {
                assert_ne!(after, lost);
            }
        }
    }

    #[test]
    fn location_urls_resolve_to_host_port() {
        assert_eq!(addr_of_url("http://127.0.0.1:8080/v1/ingest"), Some("127.0.0.1:8080".into()));
        assert_eq!(addr_of_url("http://h:1"), Some("h:1".into()));
        assert_eq!(addr_of_url("https://h:1/x"), None);
        assert_eq!(addr_of_url("http:///x"), None);
    }

    #[test]
    fn open_circuits_evict_replicas_from_the_read_ring() {
        let state = test_state("127.0.0.1:9000", replicas(3).split_off(1));
        assert_eq!(read_replicas(&state).len(), 2, "all healthy at start");
        lock_health(&state).entry("127.0.0.1:9001".to_string()).or_default().open = true;
        let ring = read_replicas(&state);
        assert_eq!(ring, vec!["127.0.0.1:9002".to_string()]);
        // Every circuit open: the full list comes back (try > refuse).
        lock_health(&state).entry("127.0.0.1:9002".to_string()).or_default().open = true;
        assert_eq!(read_replicas(&state).len(), 2);
    }

    #[test]
    fn hedge_delay_clamps_and_defaults() {
        let mut state = test_state("127.0.0.1:9000", Vec::new());
        assert_eq!(hedge_delay(&state), Duration::from_millis(100), "no samples: default");
        for _ in 0..32 {
            record_latency(&state, Duration::from_millis(2));
        }
        assert_eq!(hedge_delay(&state), Duration::from_millis(HEDGE_MIN_MS), "fast reads clamp up");
        for _ in 0..LATENCY_WINDOW {
            record_latency(&state, Duration::from_secs(30));
        }
        assert_eq!(
            hedge_delay(&state),
            Duration::from_millis(HEDGE_MAX_MS),
            "slow reads clamp down"
        );
        state.hedge_ms = Some(7);
        assert_eq!(hedge_delay(&state), Duration::from_millis(7), "override wins");
    }

    #[test]
    fn latency_window_is_bounded() {
        let state = test_state("127.0.0.1:9000", Vec::new());
        for _ in 0..(LATENCY_WINDOW * 2) {
            record_latency(&state, Duration::from_millis(10));
        }
        assert_eq!(state.latencies.lock().unwrap().len(), LATENCY_WINDOW);
    }

    #[test]
    fn stale_epoch_detail_parses() {
        let body = r#"{"error":{"code":"stale_epoch","message":"m","detail":{"epoch":4}}}"#;
        assert_eq!(epoch_of_error(body), Some(4));
        assert_eq!(epoch_of_error(r#"{"error":{"detail":null}}"#), None);
        assert_eq!(epoch_of_error("not json"), None);
    }

    #[test]
    fn router_cluster_json_is_v3_with_health() {
        let state = test_state("127.0.0.1:9000", vec!["127.0.0.1:9001".to_string()]);
        {
            let mut health = lock_health(&state);
            let entry = health.entry("127.0.0.1:9001".to_string()).or_default();
            entry.open = true;
            entry.last_seen_tick = Some(3);
            entry.sealed_seq = Some(11);
            entry.epoch = 2;
            entry.role = "follower".to_string();
        }
        let body = router_cluster_json(&state);
        let v: Value = serde_json::from_str(&body).expect("valid json");
        assert_eq!(v.get("version").as_u64(), Some(3));
        assert_eq!(v.get("role").as_str(), Some("router"));
        let health = v.get("health").as_array().expect("health array");
        assert_eq!(health.len(), 2);
        assert_eq!(health[1].get("circuit").as_str(), Some("open"));
        assert_eq!(health[1].get("sealed_seq").as_u64(), Some(11));
        // The v2 fields survive the bump.
        assert!(v.get("leader").as_str().is_some());
        assert!(v.get("peers").as_array().is_some());
    }
}
