//! `live_mixed`: `dial_serve::Server` on a live durable engine. One
//! open-loop writer posts one month to `/v1/ingest` every fixed interval;
//! one closed-loop reader cycles the descriptive experiments. Every
//! registry experiment reads the whole window, so each seal swaps the
//! snapshot and invalidates the whole cache: misses, swaps and reads
//! contend only here.

use super::{monthly_batches, ms, pooled, Batches, E2e, Facts, Workload};
use crate::Ctx;
use dial_perfbench::http::{self, string_field};
use dial_perfbench::loadgen::Schedule;
use dial_perfbench::report::Report;
use dial_perfbench::stats::{median, Summary};
use dial_perfbench::trace::Tracer;
use dial_serve::{Engine, ServeConfig, Server};
use dial_store::StoreOptions;
use std::collections::{BTreeMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The streamed market: fixed, so every seed streams the same history;
/// the run's seed orders each month's events and the reader's mix.
const MARKET_SEED: u64 = 7;
/// Market scale of the streamed months.
const SCALE: f64 = 0.05;
/// LCA classes bound into the engine identity (the mix reads no LTM).
const CLASSES: usize = 12;
/// The reader's fixed mix: descriptive experiments that recompute in
/// tens of milliseconds.
const MIX: [&str; 8] = ["table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6"];

pub struct LiveMixed;

pub struct Inputs {
    batches: Batches,
    /// The reader's first mix entry.
    offset: usize,
    passes: usize,
}

/// One completed read.
struct Read {
    start: Duration,
    end: Duration,
    id: usize,
    status: u16,
    snapshot: Option<String>,
}

/// One acknowledged month.
struct Ack {
    late: Duration,
    backlog: usize,
    service_ms: f64,
    snapshot: Option<String>,
    status: u16,
}

fn cache_counts(addr: SocketAddr) -> Option<(f64, f64)> {
    let r = http::request(addr, "GET", "/v1/metrics", None).ok()?;
    let v: serde_json::Value = serde_json::from_str(&r.body).ok()?;
    Some((v.get("cache_hits").as_f64()?, v.get("cache_misses").as_f64()?))
}

impl Workload for LiveMixed {
    type Inputs = Inputs;

    fn facts(&self, ctx: &Ctx) -> Facts {
        Facts {
            scale: SCALE,
            lca_classes: CLASSES,
            pool_width: ctx.width,
            engine_threads: ctx.width,
            client_threads: 2,
        }
    }

    fn setup(&self, ctx: &Ctx) -> Inputs {
        let batches = monthly_batches(MARKET_SEED, SCALE, ctx.seed);
        Inputs { batches, offset: (ctx.seed % MIX.len() as u64) as usize, passes: 0 }
    }

    fn measure(
        &self,
        ctx: &Ctx,
        inputs: &mut Inputs,
        tracer: Option<&Tracer>,
        report: &mut Report,
    ) -> E2e {
        let dir = ctx.work.join(format!("live-{}", inputs.passes));
        inputs.passes += 1;
        let _ = std::fs::remove_dir_all(&dir);
        let opts = StoreOptions::new(MARKET_SEED, CLASSES).with_fsync(false);
        let engine = match dial_store::open_fs(&dir, opts) {
            Ok((log, stream, rep)) => Engine::new_live_durable(
                MARKET_SEED,
                CLASSES,
                dial_serve::registry_experiments(),
                ctx.width,
                64,
                1 << 22,
                log,
                stream,
                rep,
            ),
            Err(e) => {
                report.op(false, || format!("open store: {e}"));
                return E2e::empty();
            }
        };
        let cfg = ServeConfig {
            port: 0,
            threads: ctx.width,
            queue_capacity: 64,
            max_body_bytes: 64 << 20,
            ..ServeConfig::default()
        };
        let server = match Server::start(Arc::new(engine), &cfg) {
            Ok(s) => s,
            Err(e) => {
                report.op(false, || format!("bind: {e}"));
                return E2e::empty();
            }
        };
        let addr = server.addr();
        let months = inputs.batches.bodies.len();
        let schedule = Schedule { interval: Duration::from_secs_f64(ctx.seconds / months as f64) };
        let before = cache_counts(addr);
        let writer_done = AtomicBool::new(false);
        let final_fp = inputs.batches.expected.last().cloned().unwrap_or_default();
        let t0 = Instant::now();
        let bodies = &inputs.batches.bodies;
        let offset = inputs.offset;

        let (acks, reads) = std::thread::scope(|scope| {
            let (first_tx, first_rx) = mpsc::channel::<()>();
            let writer_done = &writer_done;
            let writer = scope.spawn(move || {
                let mut acks = Vec::with_capacity(months);
                for (m, body) in bodies.iter().enumerate() {
                    let due = t0 + schedule.due(m);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let sent = t0.elapsed();
                    let backlog = schedule.backlog(sent, m + 1);
                    let t = Instant::now();
                    let resp = http::request(addr, "POST", "/v1/ingest", Some(body));
                    if let Some(tr) = tracer {
                        tr.record("loadgen.ingest", None, m as u64, t, Instant::now());
                    }
                    let (status, snapshot) = match &resp {
                        Ok(r) => (r.status, string_field(&r.body, "snapshot").map(str::to_string)),
                        Err(_) => (0, None),
                    };
                    acks.push(Ack {
                        late: schedule.late(m, sent),
                        backlog,
                        service_ms: ms(t),
                        snapshot,
                        status,
                    });
                    if m == 0 {
                        let _ = first_tx.send(());
                    }
                }
                writer_done.store(true, Ordering::SeqCst);
                acks
            });
            let reader = scope.spawn(move || {
                let mut reads = Vec::new();
                if first_rx.recv().is_err() {
                    return reads;
                }
                let mut k = 0usize;
                let mut done_at: Option<Instant> = None;
                loop {
                    let id = (offset + k) % MIX.len();
                    let start = t0.elapsed();
                    let resp =
                        http::request(addr, "GET", &format!("/v1/analyze/{}", MIX[id]), None);
                    let end = t0.elapsed();
                    if let Some(tr) = tracer {
                        tr.record("loadgen.read", None, 1_000_000 + k as u64, t0 + start, t0 + end);
                    }
                    let (status, snapshot) = match &resp {
                        Ok(r) => (r.status, string_field(&r.body, "snapshot").map(str::to_string)),
                        Err(_) => (0, None),
                    };
                    let fresh = snapshot.as_deref() == Some(final_fp.as_str());
                    reads.push(Read { start, end, id, status, snapshot });
                    k += 1;
                    if writer_done.load(Ordering::SeqCst) {
                        let since = *done_at.get_or_insert_with(Instant::now);
                        if (fresh && k.is_multiple_of(MIX.len()))
                            || since.elapsed() > Duration::from_secs(2)
                        {
                            break;
                        }
                    }
                }
                reads
            });
            (writer.join().expect("writer thread"), reader.join().expect("reader thread"))
        });
        let after = cache_counts(addr);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);

        // Checks: every month acknowledged with its reference seal; every
        // read a 200 naming a seal the writer produced.
        let mut seal_of: BTreeMap<&str, usize> = BTreeMap::new();
        for (m, ack) in acks.iter().enumerate() {
            let ok = ack.status == 200
                && ack.snapshot.as_deref() == Some(inputs.batches.expected[m].as_str());
            report
                .op(ok, || format!("month {m}: status {} snapshot {:?}", ack.status, ack.snapshot));
            if let Some(s) = &ack.snapshot {
                seal_of.insert(s.as_str(), m);
            }
        }
        let mut read_ms = Vec::new();
        let mut seen: HashSet<(usize, &str)> = HashSet::new();
        let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
        let mut first_read_of = vec![None::<Duration>; months];
        for r in &reads {
            let seal = r.snapshot.as_deref().and_then(|s| seal_of.get(s).copied());
            report.op(r.status == 200 && seal.is_some(), || {
                format!("read {}: status {} snapshot {:?}", MIX[r.id], r.status, r.snapshot)
            });
            let took = (r.end - r.start).as_secs_f64() * 1e3;
            read_ms.push(took);
            if let Some(s) = seal {
                // With one reader, the first read of an id under a seal is
                // the one that computed it.
                if seen.insert((r.id, r.snapshot.as_deref().unwrap_or_default())) {
                    miss_ms.push(took);
                } else {
                    hit_ms.push(took);
                }
                for slot in first_read_of.iter_mut().take(s + 1) {
                    if slot.is_none() {
                        *slot = Some(r.end);
                    }
                }
            }
        }
        let fresh_ms: Vec<f64> = first_read_of
            .iter()
            .enumerate()
            .filter_map(|(m, end)| end.map(|e| schedule.latency(m, e).as_secs_f64() * 1e3))
            .collect();
        report.op(fresh_ms.len() == months, || {
            format!("only {} of {months} seals were read", fresh_ms.len())
        });

        let reader_wall = reads.last().map_or(0.0, |r| (r.end - reads[0].start).as_secs_f64());
        let per_s = reads.len() as f64 / reader_wall.max(1e-9);
        let service: Vec<f64> = acks.iter().map(|a| a.service_ms).collect();
        if tracer.is_some() {
            if let (Some((h0, m0)), Some((h1, m1))) = (before, after) {
                let (dh, dm) = (h1 - h0, m1 - m0);
                report.set("dial-serve.cache_hit_ratio", dh / (dh + dm).max(1.0));
            }
            report.set("dial-serve.hit_read_ms_p50", median(&hit_ms));
            report.set("dial-serve.miss_read_ms_p50", median(&miss_ms));
            report.set("dial-serve.reads_per_seal", reads.len() as f64 / months as f64);
            report.set("dial-serve.live_ingest_ms_p50", median(&service));
            let late_max = acks.iter().map(|a| a.late.as_secs_f64() * 1e3).fold(0.0, f64::max);
            report.set("loadgen.late_ms_max", late_max);
            report.set(
                "loadgen.backlog_max",
                acks.iter().map(|a| a.backlog).max().unwrap_or(0) as f64,
            );
        }
        let s = Summary::of(&read_ms);
        let fresh = median(&fresh_ms);
        E2e {
            throughput_per_s: per_s,
            job_s: fresh / 1e3,
            lines: vec![
                format!("live_read_ms_p50={:.4} ms", s.as_ref().map_or(0.0, |s| s.p50)),
                format!(
                    "live_read_ms_p{}={:.4} ms (n={})",
                    s.as_ref().map_or(50.0, |s| s.tail.0),
                    s.as_ref().map_or(0.0, |s| s.tail.1),
                    read_ms.len()
                ),
                format!("live_fresh_ms_p50={fresh:.3} ms (n={})", fresh_ms.len()),
                format!(
                    "writer: {months} months every {:.0} ms, ingest p50 {:.2} ms, max late {:.2} ms, reads {} ({per_s:.0}/s; {} misses)",
                    schedule.interval.as_secs_f64() * 1e3,
                    median(&service),
                    acks.iter().map(|a| a.late.as_secs_f64() * 1e3).fold(0.0, f64::max),
                    reads.len(),
                    miss_ms.len()
                ),
            ],
            op: pooled(&read_ms),
        }
    }

    fn probe(&self, _: &Ctx, _: &mut Inputs, _: &Tracer, _: &E2e, _: &mut Report) {}
}
