//! Durable-store benchmarks: sealed-batch append throughput and crash
//! recovery replay rate.
//!
//! Append is measured through the same path `Engine::ingest` takes — a
//! `StreamEngine` replay whose every seal is mirrored into a
//! [`SegmentLog`] as one framed batch — in both fsync modes, because
//! the fsync-per-seal delta is the price of the durability guarantee
//! and the number an operator weighs when choosing `--no-fsync`.
//! Recovery reopens the fsync'd store cold (no checkpoint, so the whole
//! log replays) and times the full recovery state machine: CRC scan,
//! JSON decode, aggregate replay, and the per-seal fingerprint proof.
//!
//! Headline figures land in `BENCH_store.json` at the repo root, so the
//! trajectory is tracked in-tree.

use criterion::{criterion_group, criterion_main, Criterion};
use dial_sim::SimConfig;
use dial_store::{MemBackend, SegmentLog, StoreOptions};
use dial_stream::{segments, Event, StreamEngine};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Figures accumulate here and the last group member flushes them to
/// `BENCH_store.json`.
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

/// One mid-sized market's watermarked event log (25 months).
fn bench_segments() -> Vec<Vec<Event>> {
    let out = SimConfig::paper_default().with_seed(9).with_scale(0.05).simulate_full();
    segments(&out)
}

/// Checkpoints off so a cold reopen replays the whole log — that is the
/// worst-case recovery the replay-rate figure should describe.
fn opts() -> StoreOptions {
    StoreOptions::new(9, 3).with_checkpoint_interval(0)
}

/// Scratch store directory, fresh per call.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dial-bench-store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Replays every month through a `StreamEngine`, mirroring each sealed
/// batch into `log` — the persistence half of `Engine::ingest`. Returns
/// the number of events appended.
fn mirror_replay(log: &mut SegmentLog, segs: &[Vec<Event>]) -> usize {
    let mut engine = StreamEngine::new();
    let mut batch: Vec<Event> = Vec::new();
    let mut appended = 0usize;
    for seg in segs {
        for ev in seg {
            batch.push(ev.clone());
            if let Some(delta) = engine.apply(ev.clone()).expect("replay is gap-free") {
                log.append_seal(&batch, &delta).expect("append succeeds");
                appended += batch.len();
                batch.clear();
            }
        }
    }
    appended
}

/// Durable append in both fsync modes; the ratio is the fsync delta.
fn bench_append(c: &mut Criterion) {
    let segs = bench_segments();

    let mut group = c.benchmark_group("store_append");
    group.sample_size(10);
    group.bench_function("mem_full_replay", |b| {
        b.iter(|| {
            let (mut log, _, _) =
                SegmentLog::open(Box::new(MemBackend::new()), opts()).expect("mem store opens");
            black_box(mirror_replay(&mut log, &segs))
        });
    });
    group.finish();

    let mut rates = [0.0f64; 2];
    for (i, fsync) in [true, false].into_iter().enumerate() {
        let dir = scratch_dir(if fsync { "fsync" } else { "nofsync" });
        let started = Instant::now();
        let (mut log, _, _) = dial_store::open_fs(
            dir.to_str().expect("scratch path is utf-8"),
            opts().with_fsync(fsync),
        )
        .expect("fs store opens");
        let appended = mirror_replay(&mut log, &segs);
        let elapsed = started.elapsed();
        rates[i] = appended as f64 / elapsed.as_secs_f64();
        let name =
            if fsync { "append_fsync_events_per_sec" } else { "append_nofsync_events_per_sec" };
        record(name, rates[i]);
        println!(
            "store_append/{}: {appended} events in {elapsed:?} ({:.0} events/sec)",
            if fsync { "fsync" } else { "nofsync" },
            rates[i]
        );
        if !fsync {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    if rates[0] > 0.0 {
        record("fsync_slowdown_x", rates[1] / rates[0]);
    }
}

/// Cold recovery of the fsync'd store written by [`bench_append`]:
/// full-log scan + replay + fingerprint proof, timed end to end.
fn bench_recovery(_c: &mut Criterion) {
    let dir = scratch_dir("fsync");
    // `scratch_dir` wipes its target; rebuild the store it measured.
    let segs = bench_segments();
    let (mut log, _, _) = dial_store::open_fs(dir.to_str().expect("scratch path is utf-8"), opts())
        .expect("fs store opens");
    mirror_replay(&mut log, &segs);
    drop(log);

    let started = Instant::now();
    let (log, _engine, report) =
        dial_store::open_fs(dir.to_str().expect("scratch path is utf-8"), opts())
            .expect("recovery succeeds");
    let elapsed = started.elapsed();
    let rate = report.replayed_events as f64 / elapsed.as_secs_f64();
    record("recovery_events_per_sec", rate);
    println!(
        "store_recovery: {} seal(s) / {} event(s) replayed in {elapsed:?} ({rate:.0} events/sec)",
        report.replayed_seals, report.replayed_events
    );
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flushes the headline figures; listed last in the group.
fn bench_emit_json(_c: &mut Criterion) {
    write_bench_json("BENCH_store.json", &headline_json());
}

criterion_group!(store, bench_append, bench_recovery, bench_emit_json);
criterion_main!(store);
