//! dial-replicate: leader/follower replication for `dial serve`
//! clusters, plus a thin scatter-gather routing front.
//!
//! The replication design leans on two invariants the store already
//! guarantees (DESIGN §15–16):
//!
//! 1. **The sealed batch is the unit of truth.** Every seal lays down a
//!    self-contained run of CRC-framed records ending in a seal record
//!    that carries the sealed-prefix fingerprint. Shipping those bytes
//!    verbatim and replaying them through the same `StreamEngine` seal
//!    path *must* reproduce the identical snapshot — and the follower
//!    proves it on receipt by recomputing the fingerprint.
//! 2. **Determinism is the replication protocol.** There is no state
//!    transfer beyond the event log itself; a follower is just the
//!    leader's ingest history replayed. Byte-identical `/v1/analyze`
//!    bodies at the same watermark fall out, they are not a goal to
//!    approximate.
//!
//! Three modules, speaking HTTP/1.1 through dial-serve's `wire` (the
//! router's front door) and `httpc` (every request they send):
//! - [`sync`] — [`sync::SyncRunner`], the follower's background tailing
//!   loop over `GET /v1/sync/manifest` + `GET /v1/sync/segment/{seq}`,
//!   with an SSE nudge that turns a leader seal into an immediate poll.
//! - [`route`] — [`route::Router`], the `dial route` front: writes to
//!   the leader (following `421 not_leader` redirects), `/v1/analyze`
//!   rendezvous-hashed across read replicas with hedging, `/v1/stream`
//!   fanned out round-robin, plus the health prober, circuit breakers,
//!   and (opt-in) automatic failover.
//! - [`promote`] — the pure promotion choice: given a survey of peer
//!   states, which node should lead. Deterministic by construction.
//!
//! There is no quorum election; self-healing is epoch-fenced promotion
//! instead (DESIGN §17). Losing the leader leaves followers serving
//! their stale-but-fingerprinted sealed prefix; a router running with
//! `--auto-failover` (or an operator running `dial promote`) raises the
//! best follower to leader at a higher epoch, and the monotonic epoch in
//! every manifest and stamped write fences the old leader out if it
//! comes back.

pub mod promote;
pub mod route;
pub mod sync;

pub use promote::{cluster_epoch, pick_leader, reachable_leader, PeerView};
pub use route::{rank_replicas, Router, RouterConfig};
pub use sync::{SyncClient, SyncRunner, STALE_AFTER_FAILURES};

#[cfg(test)]
mod tests {
    use super::*;
    use dial_serve::httpc::{get, post};
    use dial_serve::{Engine, Role, ServeConfig, Server};
    use dial_sim::SimConfig;
    use dial_store::{MemBackend, SegmentLog, StoreOptions};
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn serve_cfg() -> ServeConfig {
        ServeConfig { port: 0, threads: 2, queue_capacity: 16, ..ServeConfig::default() }
    }

    fn leader_engine() -> Engine {
        let opts = StoreOptions::new(9, 3).with_checkpoint_interval(0);
        let (log, stream, report) = SegmentLog::open(Box::new(MemBackend::new()), opts).unwrap();
        let mut engine = Engine::new_live_durable(
            9,
            3,
            dial_serve::registry_experiments(),
            2,
            16,
            1 << 20,
            log,
            stream,
            report,
        );
        engine.set_role(Role::Leader, None, Vec::new());
        engine
    }

    fn follower_engine(leader_addr: &str) -> Engine {
        let mut engine = Engine::new_live(9, 3, dial_serve::registry_experiments(), 2, 16, 1 << 20);
        engine.set_role(Role::Follower, Some(leader_addr.to_string()), Vec::new());
        engine
    }

    fn month_bodies() -> Vec<String> {
        let out = SimConfig::paper_default().with_seed(9).with_scale(0.01).simulate_full();
        dial_stream::segments(&out).iter().map(|s| dial_stream::encode_ndjson(s)).collect()
    }

    fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        false
    }

    /// End-to-end over real sockets: a follower's SyncRunner tails a
    /// leader Server to byte-identical bodies, and the Router fronts
    /// both — including the 421 self-heal when aimed at the follower.
    #[test]
    fn runner_and_router_converge_over_real_sockets() {
        let leader = Arc::new(leader_engine());
        let leader_srv = Server::start(Arc::clone(&leader), &serve_cfg()).unwrap();
        let leader_addr = leader_srv.addr().to_string();

        let follower = Arc::new(follower_engine(&leader_addr));
        let follower_srv = Server::start(Arc::clone(&follower), &serve_cfg()).unwrap();
        let follower_addr = follower_srv.addr().to_string();

        let months = month_bodies();
        let tip = months.len() as u64 - 1;
        for body in &months {
            leader.ingest(body).unwrap();
        }

        let runner = SyncRunner::start(
            Arc::clone(&follower),
            leader_addr.clone(),
            Duration::from_millis(25),
        );
        assert!(
            wait_until(Duration::from_secs(60), || follower.sync_status().synced_seq == Some(tip)),
            "follower never caught up: {:?}",
            follower.sync_status()
        );
        assert_eq!(
            leader.analyze("table1").unwrap().as_str(),
            follower.analyze("table1").unwrap().as_str()
        );
        assert_eq!(leader.store().fingerprint(), follower.store().fingerprint());
        let fetched = follower.metrics().sync_segments_fetched.get();
        assert_eq!(fetched, months.len() as u64);

        // Router aimed at the *follower* as leader: the first write 421s,
        // the router follows the Location header and lands on the leader.
        let router =
            Router::start(RouterConfig::new(0, follower_addr.clone(), vec![follower_addr.clone()]))
                .unwrap();
        let router_addr = router.addr().to_string();

        // Reads go to the (caught-up) follower and match the leader.
        let via_router = get(&router_addr, "/v1/analyze/fig1").unwrap();
        assert_eq!(via_router.status, 200);
        assert_eq!(
            via_router.text(),
            leader.analyze("fig1").unwrap().as_str(),
            "routed read must serve the leader's bytes"
        );

        // A write through the router: empty watermark-only batch is not
        // meaningful here, so re-send month 0 — the follower answers 421
        // + Location, the router retries against the real leader, whose
        // monotonicity check answers a non-421 HTTP error. Either way
        // the router must NOT surface the 421.
        let reply = post(&router_addr, "/v1/ingest", months[0].as_bytes()).unwrap();
        assert_ne!(reply.status, 421, "router must follow the not_leader redirect");
        // The redirect healed the router's cached leader: /v1/cluster
        // (served locally) now names the true leader.
        let cluster = get(&router_addr, "/v1/cluster").unwrap();
        let v: serde_json::Value = serde_json::from_str(&cluster.text()).unwrap();
        assert_eq!(v.get("role").as_str(), Some("router"));
        assert_eq!(v.get("leader").as_str(), Some(leader_addr.as_str()));

        // Kill the leader: the follower keeps serving its sealed prefix
        // and flags staleness in /v1/cluster.
        leader_srv.shutdown();
        assert!(
            wait_until(Duration::from_secs(30), || follower.sync_status().stale),
            "follower never marked itself stale: {:?}",
            follower.sync_status()
        );
        let direct = get(&follower_addr, "/v1/analyze/fig1").unwrap();
        assert_eq!(direct.status, 200, "stale follower must keep serving");

        runner.stop();
        router.stop();
        follower_srv.shutdown();
    }

    /// A rarely-probing router in front of a port nothing listens on.
    fn idle_router() -> Router {
        let closed = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let mut cfg = RouterConfig::new(0, closed.to_string(), Vec::new());
        cfg.probe_interval = Duration::from_secs(60);
        Router::start(cfg).unwrap()
    }

    /// A node's `Retry-After` survives the hop: a leader shedding month 0
    /// with 429 + `Retry-After: 1` is relayed with the same header.
    #[test]
    fn router_relays_retry_after_from_the_leader() {
        // An 8-event pending buffer cannot take a whole month.
        let leader = Arc::new(Engine::new_live(9, 3, Vec::new(), 1, 4, 8));
        let leader_srv = Server::start(Arc::clone(&leader), &serve_cfg()).unwrap();
        let leader_addr = leader_srv.addr().to_string();
        let router = Router::start(RouterConfig::new(0, leader_addr.clone(), Vec::new())).unwrap();
        let month0 = month_bodies().swap_remove(0);

        for addr in [leader_addr, router.addr().to_string()] {
            let reply = post(&addr, "/v1/ingest", month0.as_bytes()).unwrap();
            assert_eq!(reply.status, 429, "{addr}: {}", reply.text());
            assert_eq!(reply.header("retry-after"), Some("1"), "{addr} dropped Retry-After");
        }

        router.stop();
        leader_srv.shutdown();
    }

    /// A client dribbling its head at one byte a second is cut off with
    /// the node's 408 inside the 5 s header window.
    #[test]
    fn router_answers_a_slow_loris_head_with_408() {
        let router = idle_router();
        let mut sock = TcpStream::connect(router.addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        let started = Instant::now();
        let mut raw = Vec::new();
        // Never a whole head: the request line alone, one byte per second
        // (each read waits out the 1 s timeout) until the router answers.
        for byte in b"GET /v1/cluster HTTP/1.1\r\n" {
            if sock.write_all(&[*byte]).is_err() || sock.read_to_end(&mut raw).is_ok() {
                break;
            }
        }
        let (elapsed, text) = (started.elapsed(), String::from_utf8_lossy(&raw));
        assert!(text.starts_with("HTTP/1.1 408"), "got {text:?} after {elapsed:?}");
        assert!(text.contains("\"code\":\"request_timeout\""), "{text}");
        assert!(elapsed < Duration::from_secs(8), "408 took {elapsed:?}");
        router.stop();
    }

    /// A head over the node's 16 KiB cap answers 431 at the router too.
    #[test]
    fn router_refuses_an_oversized_head_with_431() {
        let router = idle_router();
        let mut sock = TcpStream::connect(router.addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let pad = "a".repeat(20_000);
        let head = format!("GET /v1/cluster HTTP/1.1\r\nHost: x\r\nX-Pad: {pad}\r\n\r\n");
        sock.write_all(head.as_bytes()).unwrap();
        let mut raw = String::new();
        let _ = sock.read_to_string(&mut raw);
        assert!(raw.starts_with("HTTP/1.1 431"), "oversized head must 431, got {raw:.200}");
        assert!(raw.contains("\"code\":\"headers_too_large\""), "{raw:.400}");
        router.stop();
    }

    /// The router's own errors read exactly like a node's: the same
    /// envelope, with `detail` an empty object rather than `null`.
    #[test]
    fn router_errors_use_the_node_envelope() {
        let router = idle_router();
        let mut sock = TcpStream::connect(router.addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        sock.write_all(b"DELETE /v1/cluster HTTP/1.1\r\n\r\n").unwrap();
        let mut raw = String::new();
        sock.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
        assert!(raw.contains("\r\n\r\n{\"error\":{\"code\":\"method_not_allowed\""), "{raw}");
        assert!(raw.ends_with("\"detail\":{}}}"), "{raw}");
        router.stop();
    }

    /// A follower whose identity differs from the leader's refuses to
    /// apply anything — the mismatch is named before state is touched.
    #[test]
    fn identity_mismatch_is_refused_with_a_named_error() {
        let leader = Arc::new(leader_engine());
        let leader_srv = Server::start(Arc::clone(&leader), &serve_cfg()).unwrap();
        let leader_addr = leader_srv.addr().to_string();
        leader.ingest(&month_bodies()[0]).unwrap();

        let mut wrong = Engine::new_live(7, 3, Vec::new(), 1, 4, 1 << 20);
        wrong.set_role(Role::Follower, Some(leader_addr.clone()), Vec::new());
        let wrong = Arc::new(wrong);
        let runner = SyncRunner::start(Arc::clone(&wrong), leader_addr, Duration::from_millis(25));
        assert!(
            wait_until(Duration::from_secs(30), || wrong
                .sync_status()
                .last_error
                .as_deref()
                .is_some_and(|e| e.contains("identity mismatch"))),
            "expected an identity mismatch error, got {:?}",
            wrong.sync_status()
        );
        assert_eq!(wrong.sync_status().synced_seq, None, "nothing may be applied");
        runner.stop();
        leader_srv.shutdown();
    }
}
