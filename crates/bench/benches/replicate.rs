//! Replication benchmarks: follower sync throughput and read scaling
//! across replicas.
//!
//! Sync throughput drives a volatile follower through the same
//! export-batch/apply-synced path the HTTP sync runner uses, minus the
//! sockets — so the figure is the ceiling the protocol itself imposes:
//! CRC decode, event replay, fingerprint proof, snapshot swap, per
//! sealed batch. Read scaling starts 1/2/4 fully-synced replica
//! servers on real sockets and hammers `/v1/analyze` from client
//! threads routed by the same rendezvous ranking `dial route` uses,
//! reporting requests/sec per replica count — the number that says
//! whether adding followers actually buys read capacity.
//!
//! Headline figures land in `BENCH_replicate.json` at the repo root,
//! alongside `BENCH_store.json`.

use criterion::{criterion_group, Criterion};
use dial_replicate::rank_replicas;
use dial_serve::{httpc, Engine, EraScope, Role, ServeConfig, ServeExperiment, Server};
use dial_sim::SimConfig;
use dial_store::{MemBackend, SegmentLog, StoreOptions};
use dial_stream::{encode_ndjson, segments};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Same collector shape as `benches/store.rs`: figures accumulate here
/// and the last group member flushes them to `BENCH_replicate.json`.
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

/// A durable leader (MemBackend — disk speed is `BENCH_store.json`'s
/// subject, not this one's) with a mid-sized market fully ingested,
/// plus its exported sync batches in seal order.
fn leader_with_batches() -> (Engine, Vec<Vec<u8>>) {
    let opts = StoreOptions::new(9, 3).with_checkpoint_interval(0);
    let (log, stream, report) =
        SegmentLog::open(Box::new(MemBackend::new()), opts).expect("mem store opens");
    let mut leader =
        Engine::new_live_durable(9, 3, Vec::new(), 2, 16, 1 << 20, log, stream, report);
    leader.set_role(Role::Leader, None, Vec::new());
    let out = SimConfig::paper_default().with_seed(9).with_scale(0.05).simulate_full();
    for seg in segments(&out) {
        leader.ingest(&encode_ndjson(&seg)).expect("leader ingest");
    }
    let tip = out.marks.len() as u64 - 1;
    let batches: Vec<Vec<u8>> =
        (0..=tip).map(|seq| leader.export_sync_batch(seq).expect("export batch")).collect();
    (leader, batches)
}

/// A volatile follower with every exported batch applied.
fn synced_follower(batches: &[Vec<u8>], experiments: Vec<dial_serve::ServeExperiment>) -> Engine {
    let mut follower = Engine::new_live(9, 3, experiments, 2, 32, 1 << 20);
    follower.set_role(Role::Follower, Some("bench:0".into()), Vec::new());
    for bytes in batches {
        follower.apply_synced(bytes).expect("apply batch");
    }
    follower
}

/// Follower-side sync throughput: decode + replay + fingerprint proof
/// + snapshot swap, per sealed batch, sockets excluded.
fn bench_sync_throughput(_c: &mut Criterion) {
    let (leader, batches) = leader_with_batches();
    let total_bytes: usize = batches.iter().map(Vec::len).sum();

    let started = Instant::now();
    let follower = synced_follower(&batches, Vec::new());
    let elapsed = started.elapsed();
    assert_eq!(leader.store().fingerprint(), follower.store().fingerprint());

    let seg_rate = batches.len() as f64 / elapsed.as_secs_f64();
    let mb_rate = total_bytes as f64 / 1e6 / elapsed.as_secs_f64();
    record("sync_segments_per_sec", seg_rate);
    record("sync_mb_per_sec", mb_rate);
    println!(
        "replicate_sync: {} batch(es) / {:.1} MB applied in {elapsed:?} ({seg_rate:.0} segments/sec, {mb_rate:.1} MB/sec)",
        batches.len(),
        total_bytes as f64 / 1e6
    );
}

/// One cold registry sweep: every experiment fetched once, each from
/// its rendezvous-owned replica, one client thread per experiment.
/// Replica-side scheduling (2 worker threads per node) bounds the
/// concurrency, so wall time measures the cluster's compute capacity.
fn sweep(addrs: &[String], ids: &[String]) -> Duration {
    let started = Instant::now();
    std::thread::scope(|scope| {
        for id in ids {
            let addrs = &addrs;
            scope.spawn(move || {
                let path = format!("/v1/analyze/{id}");
                for owner in rank_replicas(addrs, &path) {
                    // 503 = shed by a full admission queue; the ranking
                    // is the retry order, same as `dial route` failover.
                    match httpc::get(owner, &path).map(|r| r.status) {
                        Ok(200) => return,
                        Ok(503) | Err(_) => continue,
                        Ok(other) => panic!("GET {path} from {owner}: HTTP {other}"),
                    }
                }
                panic!("GET {path}: every replica shed the request");
            });
        }
    });
    started.elapsed()
}

/// A bank of fixed-service-time probe experiments, each a distinct id
/// so every request is a cold cache miss. The sleep stands in for any
/// latency-bound analytical read (cold storage, remote joins): it holds
/// one of the node's admission slots for `service` without burning CPU,
/// so the capacity figure reflects the *architecture* (slots × replicas)
/// rather than however many cores this benchmark host happens to have.
fn probe_experiments(count: usize, service: Duration) -> Vec<ServeExperiment> {
    (0..count)
        .map(|i| ServeExperiment {
            id: format!("probe-{i}"),
            title: "fixed-service-time probe".into(),
            paper_claim: "synthetic capacity probe".into(),
            scope: EraScope::All,
            run: Arc::new(move |_ctx| {
                std::thread::sleep(service);
                format!("{{\"probe\":{i}}}")
            }),
        })
        .collect()
}

/// Read capacity at 1/2/4 replicas under a fixed 20 ms service time:
/// every probe id fetched once from its rendezvous-owned replica, one
/// client thread per probe. Each node admits `threads = 2` concurrent
/// runs, so ideal capacity is `replicas × 2 / 20ms` — the figure that
/// says whether adding followers buys read throughput.
fn bench_read_capacity(_c: &mut Criterion) {
    const PROBES: usize = 200;
    const SERVICE: Duration = Duration::from_millis(20);
    let ids: Vec<String> = (0..PROBES).map(|i| format!("probe-{i}")).collect();

    let mut baseline = 0.0f64;
    for n in [1usize, 2, 4] {
        let mut servers = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..n {
            let engine =
                Engine::new_live(9, 3, probe_experiments(PROBES, SERVICE), 2, 256, 1 << 20);
            let cfg =
                ServeConfig { port: 0, threads: 2, queue_capacity: 256, ..Default::default() };
            let srv = Server::start(Arc::new(engine), &cfg).expect("server starts");
            addrs.push(srv.addr().to_string());
            servers.push(srv);
        }
        let elapsed = sweep(&addrs, &ids);
        let rps = PROBES as f64 / elapsed.as_secs_f64();
        let name = match n {
            1 => "read_rps_1_replica",
            2 => "read_rps_2_replicas",
            _ => "read_rps_4_replicas",
        };
        record(name, rps);
        if n == 1 {
            baseline = rps;
        }
        println!(
            "replicate_capacity/{n}_replica(s): {PROBES} probe(s) in {elapsed:?} ({rps:.0} req/sec, {:.2}x vs 1 replica)",
            if baseline > 0.0 { rps / baseline } else { 1.0 }
        );
        for srv in servers {
            srv.shutdown();
        }
    }
}

/// Real-workload sweep at 1/2/4 replicas: freshly-started (cold-cache)
/// replica sets serving the actual registry. On a many-core host this
/// scales with replicas; on a starved one it shows the CPU floor — both
/// are worth tracking next to the architectural capacity figure above.
fn bench_read_scaling(_c: &mut Criterion) {
    let (_leader, batches) = leader_with_batches();
    // The sweep mix is the registry minus table9/table10: those two are
    // single multi-second bootstrap jobs, and replication scales
    // *throughput*, not one query's latency — with them in the mix every
    // replica count just measures the longest single job.
    let ids: Vec<String> = dial_serve::registry_experiments()
        .iter()
        .map(|e| e.id.clone())
        .filter(|id| id != "table9" && id != "table10")
        .collect();
    const ROUNDS: u32 = 3;

    let mut baseline = 0.0f64;
    for n in [1usize, 2, 4] {
        // Fresh servers per round: the sweep must hit cold caches.
        let mut total = Duration::ZERO;
        for _ in 0..ROUNDS {
            let mut servers = Vec::new();
            let mut addrs = Vec::new();
            for _ in 0..n {
                let follower = synced_follower(&batches, dial_serve::registry_experiments());
                let cfg =
                    ServeConfig { port: 0, threads: 2, queue_capacity: 64, ..Default::default() };
                let srv = Server::start(Arc::new(follower), &cfg).expect("server starts");
                addrs.push(srv.addr().to_string());
                servers.push(srv);
            }
            total += sweep(&addrs, &ids);
            for srv in servers {
                srv.shutdown();
            }
        }
        let elapsed = total / ROUNDS;
        let rps = ids.len() as f64 / elapsed.as_secs_f64();
        let name = match n {
            1 => "sweep_rps_1_replica",
            2 => "sweep_rps_2_replicas",
            _ => "sweep_rps_4_replicas",
        };
        record(name, rps);
        if n == 1 {
            baseline = rps;
        }
        println!(
            "replicate_read/{n}_replica(s): {} cold experiment(s) in {elapsed:?} ({rps:.1} req/sec, {:.2}x vs 1 replica)",
            ids.len(),
            if baseline > 0.0 { rps / baseline } else { 1.0 }
        );
    }

    // Steady-state cached serving from one node, for context: this is
    // the socket-bound ceiling replicas do NOT need to raise.
    let follower = synced_follower(&batches, dial_serve::registry_experiments());
    let cfg = ServeConfig { port: 0, threads: 2, queue_capacity: 64, ..Default::default() };
    let srv = Server::start(Arc::new(follower), &cfg).expect("server starts");
    let addr = srv.addr().to_string();
    // Warm every cache entry first so the window measures steady-state
    // cached serving, not first-run compute.
    sweep(std::slice::from_ref(&addr), &ids);
    let served = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    const CLIENTS: usize = 8;
    const WINDOW: Duration = Duration::from_millis(1000);
    let cached_rps = std::thread::scope(|scope| {
        for worker in 0..CLIENTS {
            let (addr, ids, served, stop) = (&addr, &ids, &served, &stop);
            scope.spawn(move || {
                let mut i = worker;
                while !stop.load(Ordering::Relaxed) {
                    let path = format!("/v1/analyze/{}", ids[i % ids.len()]);
                    if httpc::get(addr, &path).map(|r| r.status) == Ok(200) {
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    i += 1;
                }
            });
        }
        let started = Instant::now();
        std::thread::sleep(WINDOW);
        stop.store(true, Ordering::Relaxed);
        served.load(Ordering::Relaxed) as f64 / started.elapsed().as_secs_f64()
    });
    record("read_rps_cached_single_node", cached_rps);
    println!("replicate_read/cached_single_node: {cached_rps:.0} req/sec");
    srv.shutdown();
}

/// Flushes the headline figures; listed last in the group.
fn bench_emit_json(_c: &mut Criterion) {
    write_bench_json("BENCH_replicate.json", &headline_json());
}

criterion_group!(
    replicate,
    bench_sync_throughput,
    bench_read_capacity,
    bench_read_scaling,
    bench_emit_json
);

// Manual `main` (instead of `criterion_main!`) so the shared compute
// pool is sized before anything builds it: every in-process replica's
// scheduler dispatches onto `dial_par::global()`, and on a small bench
// host `available_parallelism` can leave that pool a single worker —
// which would serialize all replicas' latency-bound probe jobs behind
// one thread and flatten the capacity curve. 4 replicas × 2 admission
// slots need 8 concurrent jobs; 16 leaves headroom for nested work.
fn main() {
    dial_par::configure_global_threads(16);
    replicate();
}
