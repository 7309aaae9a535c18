//! `dial` — command-line interface to the dial-market reproduction.
//!
//! ```text
//! dial generate --scale 0.1 --seed 7 --out market.json
//!              [--sybil ERA:TARGETS:FAKES]
//!     Simulate a market and write a JSON snapshot (dataset + ledger).
//!     `dial sim` is an alias. `--sybil setup:40:20` injects the §7
//!     reputation-poisoning attack (era, top takers targeted per month,
//!     fake negatives per target); invalid specs are rejected with the
//!     offending field named.
//!
//! dial summary market.json
//!     Print the dataset's headline statistics.
//!
//! dial analyze market.json --experiment table1,fig7 [--experiment table2 ...]
//! dial analyze market.json --all [--classes 12] [--threads N]
//!     Regenerate paper tables/figures from a snapshot. `--experiment`
//!     takes comma-separated lists and may repeat; unknown ids abort
//!     with the valid ids listed. `--threads` sizes the shared compute
//!     pool (default: available parallelism); `--threads 1` is the
//!     documented serial path and produces byte-identical output.
//!
//! dial serve --snapshot market.json [--port 8080] [--threads N]
//!           [--request-deadline MS] [--drain-timeout SECS]
//! dial serve --live [--seed 7] [--classes 12] [--port 8080] ...
//!     Serve the snapshot as a long-running JSON query service.
//!     `--threads` both sizes the shared compute pool and caps the
//!     number of concurrently admitted experiment runs.
//!     `--request-deadline` gives every request a budget in
//!     milliseconds (expired requests answer 504); `--drain-timeout`
//!     bounds the graceful drain on SIGINT/SIGTERM. A hidden
//!     `--chaos <spec>` flag installs a deterministic fault plan
//!     (see `dial_fault::ChaosPlan::parse`) for resilience testing.
//!     With `--live` the server starts from an *empty* snapshot and
//!     grows it through `POST /v1/ingest`; `GET /v1/stream` feeds
//!     sealed deltas to subscribers as server-sent events.
//!
//! dial serve --live --data-dir store/ [--checkpoint-interval 6] ...
//!     Durable live mode: every sealed month is appended to a
//!     crash-recoverable segment log under --data-dir (plus periodic
//!     checkpoint snapshots). On startup the server replays the log
//!     from the last checkpoint and proves recovery by re-deriving
//!     every sealed-prefix fingerprint; `GET /v1/store` reports the
//!     store's stats and what recovery replayed. A durable live
//!     server is the cluster *leader*: it exports its sealed batches
//!     via `GET /v1/sync/manifest` + `GET /v1/sync/segment/{seq}`.
//!
//! dial serve --live --follow <host:port> [--data-dir store/]
//!           [--sync-interval 100] [--peers a:1,b:2] ...
//!     Follower mode: a background runner tails the leader's sealed
//!     batches and replays them through the local engine, so this
//!     node's `/v1/analyze` bodies are byte-identical to the leader's
//!     at the same watermark. Writes answer `421 not_leader` with a
//!     `Location` naming the leader. With `--data-dir` the follower
//!     persists what it syncs and resumes from its recovered tip
//!     after a restart. `GET /v1/cluster` reports role + sync lag.
//!
//! dial route --leader <host:port> [--followers a:1,b:2] [--port 8080]
//!           [--auto-failover] [--probe-interval-ms 500]
//!           [--breaker-threshold 2] [--hedge-ms N]
//!     A health-checked routing front: forwards writes to the leader
//!     (following 421 redirects, stamping X-Dial-Epoch so a superseded
//!     leader fences them), rendezvous-hashes /v1/analyze reads across
//!     the healthy followers with tail-latency hedging, and fans
//!     /v1/stream out round-robin. A background prober runs one
//!     circuit breaker per replica and — with --auto-failover — raises
//!     the best follower to leader when the leader's breaker opens.
//!     Holds no market state of its own.
//!
//! dial promote <host:port>
//!     Ask a node to promote itself to leader at the next epoch. The
//!     node surveys its peers first and refuses (409 not_highest_tip)
//!     if any reachable peer holds a higher sealed tip. The manual
//!     escape hatch when a router runs without --auto-failover.
//!
//! dial store <inspect|verify|compact> --data-dir store/
//!           [--seed 7] [--classes 12]
//!     Operate on a durable store offline. `inspect` prints stats and
//!     the recovery report as JSON; `verify` runs the full recovery
//!     state machine (CRC scan + fingerprint proof) and reports any
//!     torn tail it repaired; `compact` drops whole segments already
//!     covered by the latest checkpoint.
//!
//! dial replay --target 127.0.0.1:8080 [--seed 7] [--scale 0.1]
//!            [--speed 0]
//!     Re-simulate a market and feed its event log, month by month,
//!     into a live server's /v1/ingest. `--speed` is simulated days
//!     per wall-clock second (0 = as fast as possible). Each POST has a
//!     10s IO timeout: a target that stops answering fails the replay
//!     instead of hanging it.
//!
//! dial scenario run <file.scn> [--experiment ids] [--json] [--classes 12] [--threads N]
//! dial scenario check <file.scn>
//!     Run (or just validate) a declarative counterfactual scenario
//!     (DESIGN §18): the file names a baseline seed/scale plus
//!     interventions — move/disable the contract mandate, scale demand
//!     over a month window, stage a takedown with migration to a second
//!     market, or inject the §7 Sybil attack. `run` executes baseline
//!     and counterfactual through the seal pipeline and prints the
//!     experiment-by-experiment diff (`--json` emits the canonical
//!     document, byte-identical to `GET /v1/scenario`); `check` parses
//!     and reports every error as `file:line: message`.
//!
//! dial serve ... --scenario <file.scn>
//!     Register a scenario at startup; the server then answers
//!     `GET /v1/scenario[?ids=...]` with the comparison document,
//!     cached under the scenario file's content fingerprint.
//!
//! dial lint [--json] [--json-schema 1|2] [--rule <ids>] [--allows] [path]
//!     Run the in-tree static-analysis pass (dial-lint) over the
//!     workspace (default: current directory) or a single file.
//!     Exits nonzero on any unsuppressed finding. Pointing it at a
//!     single `.rs` file applies every rule regardless of crate scope.
//!     `--rule` takes a comma-separated list of rule ids or R-codes
//!     (`--rule R5,R7`). `--json` emits schema 2 (per-finding severity
//!     plus a summary block); `--json-schema 1` keeps the PR 5 shape.
//!     `--allows` prints the suppression-debt ledger instead and exits
//!     nonzero when any reasoned allow no longer suppresses a finding.
//!
//! dial list
//!     List the available experiment ids.
//! ```

use dial_market::core::experiments::{all_experiments, extension_experiments, ExperimentContext};
use dial_market::prelude::*;
use dial_replicate::{Router, RouterConfig, SyncRunner};
use dial_serve::{httpc, Engine, Role, ServeConfig, Server, Snapshot, SnapshotStore};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set from the signal handler; the serve loop polls it.
static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Async-signal-safe handler: a relaxed atomic store is all that is
/// allowed (and all that is needed) inside a signal context.
extern "C" fn request_shutdown(_signum: i32) {
    SHUTDOWN_REQUESTED.store(true, Ordering::Relaxed);
}

/// Installs [`request_shutdown`] for SIGINT and SIGTERM via the libc
/// `signal(2)` entry point — declared by hand because this workspace
/// vendors no `libc` crate.
fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(SIGINT, request_shutdown);
        signal(SIGTERM, request_shutdown);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("generate" | "sim") => generate(&args[1..]),
        Some("summary") => summary(&args[1..]),
        Some("scenario") => scenario_cmd(&args[1..]),
        Some("analyze") => analyze(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("route") => route(&args[1..]),
        Some("promote") => promote_cmd(&args[1..]),
        Some("store") => store_cmd(&args[1..]),
        Some("replay") => replay(&args[1..]),
        Some("export") => export(&args[1..]),
        Some("lint") => lint(&args[1..]),
        Some("list") => {
            for e in all_experiments().into_iter().chain(extension_experiments()) {
                println!("{:<12} {}", e.id, e.title);
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: dial <generate|summary|analyze|scenario|serve|route|promote|store|replay|export|lint|list> [options]"
            );
            eprintln!(
                "  dial generate --scale 0.1 --seed 7 --out market.json [--sybil setup:40:20]"
            );
            eprintln!("  dial summary market.json");
            eprintln!(
                "  dial analyze market.json --experiment table1,fig7 | --all [--classes 12] [--threads N]"
            );
            eprintln!(
                "  dial serve --snapshot market.json | --live [--port 8080] [--threads N] [--queue 64]"
            );
            eprintln!(
                "  dial serve --live --follow <host:port> [--data-dir store/] [--sync-interval 100]"
            );
            eprintln!(
                "  dial route --leader <host:port> [--followers a:1,b:2] [--port 8080] [--auto-failover]"
            );
            eprintln!("  dial promote <host:port>");
            eprintln!(
                "  dial store <inspect|verify|compact> --data-dir store/ [--seed 7] [--classes 12]"
            );
            eprintln!(
                "  dial scenario run <file.scn> [--experiment ids] [--json] | check <file.scn>"
            );
            eprintln!("  dial replay --target 127.0.0.1:8080 [--seed 7] [--scale 0.1] [--speed 0]");
            eprintln!("  dial export market.json --dir csv_out");
            eprintln!("  dial lint [--json] [--json-schema 1|2] [--rule <ids>] [--allows] [path]");
            ExitCode::FAILURE
        }
    }
}

/// Reads `--flag value` style options.
fn opt(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

/// Resolves `--threads` (default: available parallelism), sizes the
/// process-wide compute pool with it, and reports the choice. Returns
/// `None` (after printing the error) when the value is invalid or the
/// pool was already built with a different width — the printed size must
/// never lie about the pool actually in use.
fn configure_threads(args: &[String]) -> Option<usize> {
    let default_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let threads = match opt(args, "--threads") {
        Some(v) => match v.parse::<usize>() {
            Ok(t) if t >= 1 => t,
            _ => {
                eprintln!("--threads must be an integer >= 1, got {v:?}");
                return None;
            }
        },
        None => default_threads,
    };
    if !dial_par::configure_global_threads(threads) {
        let actual = dial_par::global().threads();
        eprintln!(
            "--threads {threads} rejected: compute pool already running with {actual} thread(s)"
        );
        return None;
    }
    let mode = if threads == 1 { " (serial)" } else { "" };
    eprintln!("compute pool: {threads} thread(s){mode}");
    Some(threads)
}

/// Resolves `--scale` through [`dial_sim::parse_scale`], which rejects
/// zero, negative, and non-finite values instead of silently falling
/// back to the default.
fn scale_opt(args: &[String]) -> Result<f64, String> {
    match opt(args, "--scale") {
        Some(raw) => dial_market::sim::parse_scale(&raw),
        None => Ok(0.1),
    }
}

fn generate(args: &[String]) -> ExitCode {
    let scale = match scale_opt(args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let seed: u64 = opt(args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(0xD1A1);
    let out = opt(args, "--out").unwrap_or_else(|| "market.json".into());
    let sybil = match opt(args, "--sybil") {
        Some(raw) => match dial_market::sim::parse_sybil(&raw) {
            Ok(attack) => Some(attack),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    eprintln!("simulating at scale {scale}, seed {seed}...");
    let mut cfg = SimConfig::paper_default().with_seed(seed).with_scale(scale);
    if let Some(attack) = sybil {
        eprintln!(
            "sybil attack armed: {} fake negative(s)/target on the top {} taker(s)/month during {:?}",
            attack.fakes_per_target, attack.targets_per_month, attack.era
        );
        cfg = cfg.with_sybil(attack);
    }
    let sim = cfg.simulate_full();
    eprintln!("{} + {} chain txs", sim.dataset.summary(), sim.ledger.len());
    let snapshot = Snapshot { dataset: sim.dataset, ledger: sim.ledger };
    match serde_json::to_string(&snapshot).map(|json| std::fs::write(&out, json)) {
        Ok(Ok(())) => {
            eprintln!("wrote {out}");
            ExitCode::SUCCESS
        }
        err => {
            eprintln!("failed to write {out}: {err:?}");
            ExitCode::FAILURE
        }
    }
}

fn load(path: &str) -> Result<Snapshot, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let snap: Snapshot = serde_json::from_str(&raw).map_err(|e| format!("parse {path}: {e}"))?;
    Ok(Snapshot { dataset: snap.dataset.reindex(), ledger: snap.ledger.reindex() })
}

fn summary(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: dial summary <snapshot.json>");
        return ExitCode::FAILURE;
    };
    let snap = match load(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", snap.dataset.summary());
    let t = dial_market::core::taxonomy::taxonomy_table(&snap.dataset);
    println!("{t}");
    let v = dial_market::core::visibility::visibility_table(&snap.dataset);
    println!(
        "public: {:.1}% of created, {:.1}% of completed",
        v.public_share_created() * 100.0,
        v.public_share_completed() * 100.0
    );
    ExitCode::SUCCESS
}

/// Writes the four flat CSV tables next to each other in `--dir`.
fn export(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: dial export <snapshot.json> --dir <directory>");
        return ExitCode::FAILURE;
    };
    let dir = opt(args, "--dir").unwrap_or_else(|| "csv_out".into());
    let snap = match load(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("create {dir}: {e}");
        return ExitCode::FAILURE;
    }
    use dial_market::model::export as csv;
    let tables = [
        ("contracts.csv", csv::contracts_csv(&snap.dataset)),
        ("users.csv", csv::users_csv(&snap.dataset)),
        ("threads.csv", csv::threads_csv(&snap.dataset)),
        ("posts.csv", csv::posts_csv(&snap.dataset)),
    ];
    for (name, content) in tables {
        let target = format!("{dir}/{name}");
        if let Err(e) = std::fs::write(&target, content) {
            eprintln!("write {target}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {target}");
    }
    ExitCode::SUCCESS
}

fn analyze(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: dial analyze <snapshot.json> --experiment <id> | --all");
        return ExitCode::FAILURE;
    };
    let snap = match load(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let classes: usize = opt(args, "--classes").and_then(|v| v.parse().ok()).unwrap_or(12);
    // Each `--experiment` value is a comma-separated list; the flag may
    // also repeat, so `--experiment table1,fig7 --experiment table2` works.
    let wanted: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--experiment")
        .filter_map(|(i, _)| args.get(i + 1))
        .flat_map(|v| v.split(','))
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    let run_all = args.iter().any(|a| a == "--all");
    if wanted.is_empty() && !run_all {
        eprintln!("nothing to run: pass --experiment <id>[,<id>...] (see `dial list`) or --all");
        return ExitCode::FAILURE;
    }

    let registry: Vec<_> = all_experiments().into_iter().chain(extension_experiments()).collect();
    let unknown: Vec<&String> =
        wanted.iter().filter(|w| !registry.iter().any(|e| e.id == w.as_str())).collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiment id(s): {unknown:?}");
        eprintln!("valid ids: {}", registry.iter().map(|e| e.id).collect::<Vec<_>>().join(", "));
        return ExitCode::FAILURE;
    }

    let Some(_threads) = configure_threads(args) else {
        return ExitCode::FAILURE;
    };

    // Run the selected experiments on the shared pool, then print in
    // registry order — the rendered output is byte-identical to the old
    // one-by-one serial loop no matter how wide the pool is.
    let ctx = ExperimentContext::new(snap.dataset, snap.ledger, 0xD1A1, classes);
    let selected: Vec<_> =
        registry.iter().filter(|e| run_all || wanted.iter().any(|w| w == e.id)).collect();
    let outputs =
        dial_par::parallel_map((0..selected.len()).collect(), |i| (selected[i].run)(&ctx));
    for (e, output) in selected.iter().zip(outputs) {
        println!("== [{}] {} ==", e.id, e.title);
        println!("{output}\n");
    }
    ExitCode::SUCCESS
}

/// Dispatches `dial scenario <run|check>`.
fn scenario_cmd(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("run") => scenario_run(&args[1..]),
        Some("check") => scenario_check(&args[1..]),
        _ => {
            eprintln!(
                "usage: dial scenario run <file.scn> [--experiment ids] [--json] [--classes 12] [--threads N]"
            );
            eprintln!("       dial scenario check <file.scn>");
            ExitCode::FAILURE
        }
    }
}

/// Parses a scenario file and reports success or the first `file:line`
/// diagnostic — the fast feedback loop for authoring scenarios.
fn scenario_check(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: dial scenario check <file.scn>");
        return ExitCode::FAILURE;
    };
    match dial_market::scenario::Scenario::load(std::path::Path::new(path)) {
        Ok(s) => {
            println!(
                "{path}: ok — scenario {:?} (seed {}, scale {}, {} intervention(s))",
                s.name,
                s.seed,
                s.scale,
                s.interventions.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs a scenario's baseline and counterfactual and prints the diff —
/// human summary by default, the canonical document with `--json`
/// (byte-identical to `GET /v1/scenario` on the same file).
fn scenario_run(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!(
            "usage: dial scenario run <file.scn> [--experiment ids] [--json] [--classes 12] [--threads N]"
        );
        return ExitCode::FAILURE;
    };
    let scn = match dial_market::scenario::Scenario::load(std::path::Path::new(path)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Same flag grammar as `dial analyze`: comma-separated, repeatable.
    let ids: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--experiment")
        .filter_map(|(i, _)| args.get(i + 1))
        .flat_map(|v| v.split(','))
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    let classes: usize = opt(args, "--classes").and_then(|v| v.parse().ok()).unwrap_or(12);
    if configure_threads(args).is_none() {
        return ExitCode::FAILURE;
    }
    eprintln!(
        "running scenario {:?} (seed {}, scale {}, {} intervention(s))...",
        scn.name,
        scn.seed,
        scn.scale,
        scn.interventions.len()
    );
    let opts = dial_market::scenario::CompareOptions { ids, lca_classes: classes };
    match dial_market::scenario::compare(&scn, &opts) {
        Ok(cmp) => {
            if args.iter().any(|a| a == "--json") {
                println!("{}", cmp.to_json());
            } else {
                print!("{}", cmp.summary());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Boots the dial-serve subsystem on a snapshot and blocks until killed.
fn serve(args: &[String]) -> ExitCode {
    let live = args.iter().any(|a| a == "--live");
    let path = opt(args, "--snapshot");
    if path.is_none() && !live {
        eprintln!(
            "usage: dial serve --snapshot <snapshot.json> | --live [--port 8080] [--threads N] [--queue 64] [--request-deadline MS] [--drain-timeout SECS] [--scenario <file.scn>]"
        );
        return ExitCode::FAILURE;
    }
    if path.is_some() && live {
        eprintln!("--snapshot and --live are mutually exclusive: a live server starts empty");
        return ExitCode::FAILURE;
    }
    let mut cfg = ServeConfig::default();
    if let Some(p) = opt(args, "--port").and_then(|v| v.parse().ok()) {
        cfg.port = p;
    }
    if let Some(q) = opt(args, "--queue").and_then(|v| v.parse().ok()) {
        cfg.queue_capacity = q;
    }
    if let Some(ms) = opt(args, "--request-deadline").and_then(|v| v.parse().ok()) {
        cfg.request_deadline = Some(Duration::from_millis(ms));
    }
    if let Some(secs) = opt(args, "--drain-timeout").and_then(|v| v.parse().ok()) {
        cfg.drain_timeout = Duration::from_secs(secs);
    }
    // Hidden: install a deterministic fault plan for resilience testing.
    // The guard must outlive the server, so it lives in this scope.
    let _chaos = match opt(args, "--chaos") {
        Some(spec) => match dial_fault::ChaosPlan::parse(&spec) {
            Ok(plan) => {
                eprintln!("chaos plan installed: {spec}");
                Some(dial_fault::install(plan))
            }
            Err(e) => {
                eprintln!("--chaos {spec:?}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    // `--threads` sizes the shared compute pool AND the engine's
    // admission limit, so one flag controls both layers.
    let Some(threads) = configure_threads(args) else {
        return ExitCode::FAILURE;
    };
    cfg.threads = threads;
    let seed: u64 = opt(args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(0xD1A1);
    let classes: usize = opt(args, "--classes").and_then(|v| v.parse().ok()).unwrap_or(12);

    // Parse --scenario before anything heavyweight: a bad file should
    // fail fast with its file:line diagnostic, not after a store opens.
    let scenario = match opt(args, "--scenario") {
        Some(path) => match dial_market::scenario::Scenario::load(std::path::Path::new(&path)) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let data_dir = opt(args, "--data-dir");
    if data_dir.is_some() && !live {
        eprintln!("--data-dir requires --live: snapshot servers are read-only and need no store");
        return ExitCode::FAILURE;
    }

    // Replication wiring: --follow makes this node a follower of the
    // named leader; a durable live node without --follow is a leader
    // (it can export sync batches); anything else is standalone.
    let follow = opt(args, "--follow");
    if follow.is_some() && !live {
        eprintln!("--follow requires --live: a follower replays the leader's sealed batches");
        return ExitCode::FAILURE;
    }
    let peers: Vec<String> = opt(args, "--peers")
        .map(|v| v.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect())
        .unwrap_or_default();
    let sync_interval: u64 =
        opt(args, "--sync-interval").and_then(|v| v.parse().ok()).unwrap_or(100);

    let mut engine = if live {
        // A month-sized NDJSON segment easily exceeds the 64 KiB default
        // body cap meant for query traffic; give ingest real headroom.
        cfg.max_body_bytes = cfg.max_body_bytes.max(32 << 20);
        if let Some(dir) = &data_dir {
            let mut opts = dial_store::StoreOptions::new(seed, classes);
            if let Some(n) = opt(args, "--checkpoint-interval").and_then(|v| v.parse().ok()) {
                opts = opts.with_checkpoint_interval(n);
            }
            if args.iter().any(|a| a == "--no-fsync") {
                opts = opts.with_fsync(false);
            }
            eprintln!("live mode: opening durable store at {dir} (seed {seed})");
            let (log, recovered, report) = match dial_store::open_fs(dir, opts) {
                Ok(opened) => opened,
                Err(e) => {
                    eprintln!("open store {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                "store recovered: sealed seq {}, {} seal(s) / {} event(s) replayed, {} byte(s) truncated, {} segment(s) dropped",
                report
                    .sealed_seq
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| "none".into()),
                report.replayed_seals,
                report.replayed_events,
                report.truncated_bytes,
                report.dropped_segments,
            );
            Engine::new_live_durable(
                seed,
                classes,
                dial_serve::registry_experiments(),
                cfg.threads,
                cfg.queue_capacity,
                cfg.max_pending_events,
                log,
                recovered,
                report,
            )
        } else {
            eprintln!("live mode: starting from an empty snapshot (seed {seed})");
            Engine::new_live(
                seed,
                classes,
                dial_serve::registry_experiments(),
                cfg.threads,
                cfg.queue_capacity,
                cfg.max_pending_events,
            )
        }
    } else {
        let path = path.expect("checked above");
        eprintln!("loading snapshot {path}...");
        let store = match SnapshotStore::load(&path, seed, classes) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "snapshot {} loaded ({} contracts)",
            store.fingerprint(),
            store.summary().contracts
        );
        Engine::new(store, dial_serve::registry_experiments(), cfg.threads, cfg.queue_capacity)
    };
    match &follow {
        Some(leader) => engine.set_role(Role::Follower, Some(leader.clone()), peers),
        None if live && data_dir.is_some() => engine.set_role(Role::Leader, None, peers),
        None => {} // standalone: the default role
    }
    if let Some(scn) = scenario {
        let fingerprint = dial_market::scenario::diff::scenario_fingerprint(&scn);
        eprintln!("scenario {:?} registered (fingerprint {fingerprint})", scn.name);
        let lca_classes = classes;
        engine.set_scenario(dial_serve::ScenarioHandle {
            name: scn.name.clone(),
            fingerprint,
            run: std::sync::Arc::new(move |ids: &[String]| {
                let opts = dial_market::scenario::CompareOptions { ids: ids.to_vec(), lca_classes };
                dial_market::scenario::compare(&scn, &opts).map(|c| c.to_json()).map_err(
                    |e| match e {
                        dial_market::scenario::CompareError::UnknownExperiments(unknown) => {
                            dial_serve::ScenarioRunError::UnknownExperiments(unknown)
                        }
                        other => dial_serve::ScenarioRunError::Failed(other.to_string()),
                    },
                )
            }),
        });
    }
    let engine = std::sync::Arc::new(engine);
    install_signal_handlers();
    let drain_probe = std::sync::Arc::clone(&engine);
    match Server::start(engine, &cfg) {
        Ok(server) => {
            eprintln!(
                "serving on http://{} ({} workers, queue {}, role {})",
                server.addr(),
                cfg.threads,
                cfg.queue_capacity,
                drain_probe.role().name(),
            );
            // Every live node gets a sync runner, not just configured
            // followers: the runner re-reads the engine's role each
            // cycle and idles while this node is not a follower — so a
            // leader demoted by an epoch-fenced failover starts tailing
            // its new leader without a restart.
            let runner = live.then(|| {
                match &follow {
                    Some(leader) => {
                        eprintln!("follower: syncing from http://{leader} every {sync_interval}ms")
                    }
                    None => eprintln!("sync runner armed (idle until demoted to follower)"),
                }
                SyncRunner::start(
                    std::sync::Arc::clone(&drain_probe),
                    follow.clone().unwrap_or_default(),
                    Duration::from_millis(sync_interval),
                )
            });
            // Park until a signal asks for the drain; the accept loop
            // runs on its own thread the whole time.
            while !SHUTDOWN_REQUESTED.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(25));
            }
            eprintln!("signal received: draining (up to {:?})...", cfg.drain_timeout);
            // Stop the sync runner first so the exit counters are final
            // when printed below.
            if let Some(runner) = runner {
                runner.stop();
            }
            // Seal-or-nothing: events past the last watermark were never
            // written to the store, so a drain abandons them by design.
            // Count them before the drain so operators see what is lost.
            let unsealed = drain_probe.pending_events();
            if let Some(n) = unsealed {
                if n > 0 {
                    eprintln!(
                        "warning: {n} pending event(s) are unsealed and will not be persisted (seal-or-nothing durability)"
                    );
                }
            }
            let abandoned = server.graceful_shutdown();
            match unsealed {
                Some(n) => eprintln!(
                    "drained ({} job(s) abandoned, {n} unsealed event(s) discarded)",
                    abandoned.len()
                ),
                None => eprintln!("drained ({} job(s) abandoned)", abandoned.len()),
            }
            let m = drain_probe.metrics();
            eprintln!(
                "replication [{}]: sync_segments_fetched {} sync_bytes {} sync_retries {} fingerprint_rejects {}",
                drain_probe.role().name(),
                m.sync_segments_fetched.get(),
                m.sync_bytes.get(),
                m.sync_retries.get(),
                m.fingerprint_rejects.get(),
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bind 127.0.0.1:{}: {e}", cfg.port);
            ExitCode::FAILURE
        }
    }
}

/// Boots the routing front (with its health prober) over a leader and
/// its followers and blocks until killed.
fn route(args: &[String]) -> ExitCode {
    let Some(leader) = opt(args, "--leader") else {
        eprintln!(
            "usage: dial route --leader <host:port> [--followers a:1,b:2] [--port 8080] [--auto-failover] [--probe-interval-ms 500] [--breaker-threshold 2] [--hedge-ms N]"
        );
        return ExitCode::FAILURE;
    };
    let followers: Vec<String> = opt(args, "--followers")
        .map(|v| v.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect())
        .unwrap_or_default();
    let port: u16 = opt(args, "--port").and_then(|v| v.parse().ok()).unwrap_or(8080);
    let mut cfg = RouterConfig::new(port, leader.clone(), followers.clone());
    cfg.auto_failover = args.iter().any(|a| a == "--auto-failover");
    if let Some(ms) = opt(args, "--probe-interval-ms").and_then(|v| v.parse().ok()) {
        cfg.probe_interval = Duration::from_millis(ms);
    }
    if let Some(k) = opt(args, "--breaker-threshold").and_then(|v| v.parse().ok()) {
        cfg.breaker_threshold = k;
    }
    if let Some(ms) = opt(args, "--hedge-ms").and_then(|v| v.parse().ok()) {
        cfg.hedge_ms = Some(ms);
    }
    install_signal_handlers();
    match Router::start(cfg) {
        Ok(router) => {
            eprintln!(
                "routing on http://{} (leader {leader}, {} follower(s){})",
                router.addr(),
                followers.len(),
                if args.iter().any(|a| a == "--auto-failover") { ", auto-failover" } else { "" },
            );
            while !SHUTDOWN_REQUESTED.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(25));
            }
            eprintln!("signal received: stopping router");
            router.stop();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dial route: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Asks a node to promote itself to leader at the next epoch (the
/// manual failover escape hatch). The node's own peer survey decides:
/// 200 with the new epoch on success, 409 `not_highest_tip` when a
/// reachable peer is further ahead, 409 `stale_epoch` when raced.
fn promote_cmd(args: &[String]) -> ExitCode {
    let Some(addr) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: dial promote <host:port>");
        return ExitCode::FAILURE;
    };
    match httpc::post(addr, "/v1/promote", b"{}") {
        Ok(reply) => {
            println!("{}", reply.text());
            if reply.status == 200 {
                eprintln!("{addr} promoted");
                ExitCode::SUCCESS
            } else {
                eprintln!("{addr} refused promotion ({})", reply.status);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("dial promote: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Offline operations on a durable store directory.
///
/// Opening a store *is* the recovery state machine — CRC scan, torn-tail
/// truncation, checkpoint load, and the per-seal fingerprint proof — so
/// `verify` simply opens the store and reports what recovery found and
/// repaired. `inspect` prints the stats and recovery report as JSON;
/// `compact` additionally drops whole segments the latest checkpoint
/// already covers. All three require an existing `manifest.json`
/// (opening a blank directory would silently create a fresh store).
fn store_cmd(args: &[String]) -> ExitCode {
    let usage =
        "usage: dial store <inspect|verify|compact> --data-dir <path> [--seed N] [--classes N]";
    let action = match args.first().map(String::as_str) {
        Some(a @ ("inspect" | "verify" | "compact")) => a,
        _ => {
            eprintln!("{usage}");
            return ExitCode::FAILURE;
        }
    };
    let Some(dir) = opt(args, "--data-dir") else {
        eprintln!("{usage}");
        return ExitCode::FAILURE;
    };
    let seed: u64 = opt(args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(0xD1A1);
    let classes: usize = opt(args, "--classes").and_then(|v| v.parse().ok()).unwrap_or(12);
    if !std::path::Path::new(&dir).join("manifest.json").is_file() {
        eprintln!("no store at {dir}: manifest.json not found (a durable server creates one via --data-dir)");
        return ExitCode::FAILURE;
    }
    let (mut log, _engine, report) =
        match dial_store::open_fs(&dir, dial_store::StoreOptions::new(seed, classes)) {
            Ok(opened) => opened,
            Err(e) => {
                eprintln!("store {dir}: {e}");
                return ExitCode::FAILURE;
            }
        };
    match action {
        "inspect" => {
            let stats = serde_json::to_string(&log.stats()).expect("stats serialize");
            let recovery = serde_json::to_string(&report).expect("report serialize");
            println!("{{\"stats\":{stats},\"recovery\":{recovery}}}");
        }
        "verify" => {
            if report.truncated_bytes > 0 || report.dropped_segments > 0 {
                eprintln!(
                    "repaired: {} torn byte(s) truncated, {} unreachable segment(s) dropped",
                    report.truncated_bytes, report.dropped_segments
                );
            }
            println!(
                "verify OK: sealed seq {}, {} seal(s) / {} event(s) replayed from checkpoint {}, fingerprints proven",
                report
                    .sealed_seq
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| "none".into()),
                report.replayed_seals,
                report.replayed_events,
                report
                    .checkpoint_seq
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| "none".into()),
            );
        }
        _ => {
            let before = log.stats();
            match log.compact() {
                Ok(c) => println!(
                    "compacted: {} segment(s) / {} byte(s) removed ({} segment(s) remain)",
                    c.removed_segments,
                    c.removed_bytes,
                    before.segments - c.removed_segments
                ),
                Err(e) => {
                    eprintln!("compact {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

/// Runs the dial-lint static-analysis pass. Exit codes: 0 clean, 1 on
/// findings or bad usage — the same contract `ci.sh` gates on. With
/// `--allows` the run instead prints the suppression-debt ledger and
/// exits nonzero on stale allows (an allow whose rule no longer fires).
fn lint(args: &[String]) -> ExitCode {
    let json = args.iter().any(|a| a == "--json");
    let allows = args.iter().any(|a| a == "--allows");
    // `--rule R5,R7` or `--rule lock-order-inversion` — comma-separated,
    // ids and codes both accepted (the `dial analyze --experiment` list
    // convention).
    let rules: Vec<String> = opt(args, "--rule")
        .map(|v| v.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect())
        .unwrap_or_default();
    let schema = match opt(args, "--json-schema").as_deref() {
        None => 2u32,
        Some("1") => 1,
        Some("2") => 2,
        Some(other) => {
            eprintln!("dial lint: unknown JSON schema {other:?}; known schemas: 1, 2");
            return ExitCode::FAILURE;
        }
    };
    // First non-flag argument (that isn't a flag's value) is the root.
    let value_flags = ["--rule", "--json-schema"];
    let root = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--") && (*i == 0 || !value_flags.contains(&args[i - 1].as_str()))
        })
        .map(|(_, a)| a.clone())
        .next()
        .unwrap_or_else(|| ".".into());

    let path = std::path::PathBuf::from(&root);
    let mut config = if path.is_file() {
        dial_lint::Config::single_file(path)
    } else {
        dial_lint::Config::workspace(path)
    };
    config.rules = rules;

    match dial_lint::run(&config) {
        Ok(report) => {
            if allows {
                print!("{}", report.render_allows());
                return if report.stale_allow_count() == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                };
            }
            if json {
                if schema == 1 {
                    println!("{}", report.render_json_v1());
                } else {
                    println!("{}", report.render_json());
                }
            } else {
                print!("{}", report.render_human());
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("dial lint: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Re-simulates a market and feeds its event log into a live server,
/// one watermarked month segment per POST.
fn replay(args: &[String]) -> ExitCode {
    let Some(target) = opt(args, "--target") else {
        eprintln!("usage: dial replay --target <host:port> [--seed 7] [--scale 0.1] [--speed 0]");
        return ExitCode::FAILURE;
    };
    let scale = match scale_opt(args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let seed: u64 = opt(args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(0xD1A1);
    // Simulated days per wall-clock second; 0 replays at full speed.
    // Parsed strictly: a typo'd value must not silently replay at full
    // speed into a live server.
    let speed = match opt(args, "--speed") {
        Some(raw) => match dial_market::sim::parse_speed(&raw) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        None => 0.0,
    };

    eprintln!("simulating at scale {scale}, seed {seed}...");
    let sim = SimConfig::paper_default().with_seed(seed).with_scale(scale).simulate_full();
    let segments = dial_market::stream::segments(&sim);
    let months = segments.len();
    eprintln!("replaying {months} month(s) into http://{target}/v1/ingest");

    for (i, seg) in segments.iter().enumerate() {
        let body = dial_market::stream::encode_ndjson(seg);
        let reply = match httpc::post(&target, "/v1/ingest", body.as_bytes()) {
            Ok(reply) => reply,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let resp = reply.text();
        if reply.status != 200 {
            eprintln!("month {}/{months}: server answered {}: {resp}", i + 1, reply.status);
            return ExitCode::FAILURE;
        }
        eprintln!("month {}/{months}: {} event(s) -> {resp}", i + 1, seg.len());
        if speed > 0.0 && i + 1 < months {
            // Each segment covers roughly one 30-day study month.
            std::thread::sleep(Duration::from_secs_f64(30.0 / speed));
        }
    }
    eprintln!("replay complete");
    ExitCode::SUCCESS
}
