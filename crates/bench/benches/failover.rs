//! Failover benchmarks: how long self-healing actually takes.
//!
//! A three-node in-process cluster (durable leader, two durable
//! followers tailing it over real sockets) sits behind a `Router` with
//! auto-failover on a 50 ms probe interval. The leader's server is shut
//! down mid-run and three times are measured:
//!
//! * `failover_detect_ms` — leader loss to the router naming a promoted
//!   follower at a higher epoch (breaker trip + promotion + adoption).
//! * `failover_write_resume_ms` — leader loss to the first write acked
//!   through the router again: the full time-to-recover a client sees.
//! * `promotion_ms` — one `POST /v1/promote` round trip by itself (peer
//!   survey + epoch bump + manifest persist), the floor under both
//!   figures above.
//!
//! Headline figures land in `BENCH_failover.json` at the repo root,
//! alongside `BENCH_replicate.json`.

use criterion::{criterion_group, Criterion};
use dial_replicate::{Router, RouterConfig, SyncRunner};
use dial_serve::{httpc, Engine, Role, ServeConfig, Server};
use dial_sim::SimConfig;
use dial_store::{MemBackend, SegmentLog, StoreOptions};
use dial_stream::{encode_ndjson, segments};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

static HEADLINES: Mutex<Vec<(&'static str, f64)>> = Mutex::new(Vec::new());

fn record(name: &'static str, value: f64) {
    HEADLINES.lock().expect("headline lock").push((name, value));
}

fn headline_json() -> String {
    let rows = HEADLINES.lock().expect("headline lock");
    let body: Vec<String> =
        rows.iter().map(|(name, value)| format!("\"{name}\":{value:.2}")).collect();
    format!("{{{}}}\n", body.join(","))
}

fn write_bench_json(file: &str, body: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(file);
    match std::fs::write(&path, body) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("write {}: {e}", path.display()),
    }
}

/// A durable live engine over a MemBackend (disk speed is
/// `BENCH_store.json`'s subject, not this one's).
fn durable_engine(role: Role, leader: Option<String>) -> Engine {
    let opts = StoreOptions::new(9, 3).with_checkpoint_interval(0);
    let (log, stream, report) =
        SegmentLog::open(Box::new(MemBackend::new()), opts).expect("mem store opens");
    let mut engine =
        Engine::new_live_durable(9, 3, Vec::new(), 2, 32, 1 << 20, log, stream, report);
    engine.set_role(role, leader, Vec::new());
    engine
}

fn serve_cfg() -> ServeConfig {
    ServeConfig { port: 0, threads: 2, queue_capacity: 32, ..Default::default() }
}

fn wait_until(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out after {deadline:?} waiting for {what}");
}

fn router_view(addr: &str) -> Option<serde_json::Value> {
    let reply = httpc::get(addr, "/v1/cluster").ok()?;
    serde_json::from_str(&reply.text()).ok()
}

/// Kill the leader under a live router and time detection, promotion,
/// and write resumption.
fn bench_failover_recovery(_c: &mut Criterion) {
    let months: Vec<String> = {
        let out = SimConfig::paper_default().with_seed(9).with_scale(0.01).simulate_full();
        segments(&out).iter().map(|s| encode_ndjson(s)).collect()
    };
    let tip_before = 11u64;

    let leader = Arc::new(durable_engine(Role::Leader, None));
    let leader_srv = Server::start(Arc::clone(&leader), &serve_cfg()).expect("leader starts");
    let leader_addr = leader_srv.addr().to_string();
    for body in &months[..=(tip_before as usize)] {
        leader.ingest(body).expect("leader ingest");
    }

    let mut followers = Vec::new();
    for _ in 0..2 {
        let engine = Arc::new(durable_engine(Role::Follower, Some(leader_addr.clone())));
        let srv = Server::start(Arc::clone(&engine), &serve_cfg()).expect("follower starts");
        let runner =
            SyncRunner::start(Arc::clone(&engine), leader_addr.clone(), Duration::from_millis(10));
        followers.push((engine, srv, runner));
    }
    wait_until("followers to reach the tip", Duration::from_secs(60), || {
        followers.iter().all(|(e, _, _)| e.sync_status().synced_seq == Some(tip_before))
    });

    let mut cfg = RouterConfig::new(
        0,
        leader_addr.clone(),
        followers.iter().map(|(_, s, _)| s.addr().to_string()).collect(),
    );
    cfg.auto_failover = true;
    cfg.probe_interval = Duration::from_millis(50);
    cfg.breaker_threshold = 2;
    let router = Router::start(cfg).expect("router starts");
    let router_addr = router.addr().to_string();
    wait_until("the prober to see a healthy cluster", Duration::from_secs(10), || {
        router_view(&router_addr)
            .is_some_and(|v| v.get("counters").get("probes").as_u64() >= Some(3))
    });

    // Kill the leader; the clock starts now.
    leader_srv.shutdown();
    let killed = Instant::now();

    let follower_addrs: Vec<String> =
        followers.iter().map(|(_, s, _)| s.addr().to_string()).collect();
    wait_until("the router to promote a follower", Duration::from_secs(30), || {
        router_view(&router_addr).is_some_and(|v| {
            v.get("epoch").as_u64() >= Some(1)
                && follower_addrs.iter().any(|a| v.get("leader").as_str() == Some(a.as_str()))
        })
    });
    let detect_ms = killed.elapsed().as_secs_f64() * 1e3;

    // Time-to-recover as a writer sees it: retry the next month until
    // it acks through the router again.
    let resume_ms = loop {
        if httpc::post(&router_addr, "/v1/ingest", months[tip_before as usize + 1].as_bytes())
            .map(|r| r.status)
            == Ok(200)
        {
            break killed.elapsed().as_secs_f64() * 1e3;
        }
        assert!(killed.elapsed() < Duration::from_secs(30), "write never resumed");
        std::thread::sleep(Duration::from_millis(5));
    };

    // The promotion call by itself: re-promote the current leader (it
    // holds the highest tip, so its self-survey approves) and time the
    // round trip.
    let current = router_view(&router_addr)
        .and_then(|v| v.get("leader").as_str().map(String::from))
        .expect("router names a leader");
    let started = Instant::now();
    let reply = httpc::post(&current, "/v1/promote", b"{}").expect("promote RTT");
    assert_eq!(reply.status, 200, "self re-promotion must succeed: {}", reply.text());
    let promote_ms = started.elapsed().as_secs_f64() * 1e3;

    record("failover_detect_ms", detect_ms);
    record("failover_write_resume_ms", resume_ms);
    record("promotion_ms", promote_ms);
    println!(
        "failover: detected+promoted in {detect_ms:.0} ms, writes resumed in {resume_ms:.0} ms, one promotion RTT {promote_ms:.1} ms"
    );

    router.stop();
    for (_, srv, runner) in followers {
        runner.stop();
        srv.shutdown();
    }
}

/// Flushes the headline figures; listed last in the group.
fn bench_emit_json(_c: &mut Criterion) {
    write_bench_json("BENCH_failover.json", &headline_json());
}

criterion_group!(failover, bench_failover_recovery, bench_emit_json);

// Manual `main` (see benches/replicate.rs): size the shared pool before
// any in-process replica builds it.
fn main() {
    dial_par::configure_global_threads(16);
    failover();
}
