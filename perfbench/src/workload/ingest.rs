//! `ingest`: the 25 monthly NDJSON batches of one simulated market,
//! replayed through `Engine::ingest` on a live durable engine by one
//! closed-loop caller, then recovered from the store.
//!
//! The traced run also drives the same batches through the layer calls
//! `Engine::ingest` makes, in its order — decode, buffer, seal, append /
//! checkpoint, clone + snapshot build — on a shadow engine, and checks
//! every seal fingerprint against the reference replay.

use super::{monthly_batches, ms, pooled, secs, Batches, E2e, Facts, Workload};
use crate::Ctx;
use dial_perfbench::report::Report;
use dial_perfbench::stats::{median, percentile_sorted};
use dial_perfbench::trace::{durations_ms, Tracer};
use dial_serve::{Engine, SnapshotStore};
use dial_store::{Checkpoint, StoreOptions};
use dial_stream::{decode_ndjson, Event};
use std::path::Path;
use std::time::Instant;

/// The simulated market: fixed, so every seed replays the same history.
const MARKET_SEED: u64 = 7;
/// Market scale: ~100k events over 25 months.
const SCALE: f64 = 0.3;
/// LCA classes bound into the store identity (no experiment runs here).
const CLASSES: usize = 12;
/// Replays per pass: at least this many, so p90 has 100 batches under it.
const MIN_REPLAYS: usize = 4;
/// Shadow replays in the traced run (seal p90 needs 100 seals).
const SHADOW_REPLAYS: usize = 4;

pub struct Ingest;

type Inputs = Batches;

fn opts() -> StoreOptions {
    StoreOptions::new(MARKET_SEED, CLASSES).with_fsync(false)
}

fn open_engine(ctx: &Ctx, dir: &Path) -> Result<(Engine, dial_store::RecoveryReport), String> {
    let (log, stream, rep) = dial_store::open_fs(dir, opts()).map_err(|e| e.to_string())?;
    let engine = Engine::new_live_durable(
        MARKET_SEED,
        CLASSES,
        dial_serve::registry_experiments(),
        ctx.width,
        64,
        1 << 22,
        log,
        stream,
        rep.clone(),
    );
    Ok((engine, rep))
}

impl Workload for Ingest {
    type Inputs = Inputs;

    fn facts(&self, ctx: &Ctx) -> Facts {
        Facts {
            scale: SCALE,
            lca_classes: CLASSES,
            pool_width: ctx.width,
            engine_threads: ctx.width,
            client_threads: 1,
        }
    }

    fn setup(&self, ctx: &Ctx) -> Inputs {
        monthly_batches(MARKET_SEED, SCALE, ctx.seed)
    }

    fn measure(
        &self,
        ctx: &Ctx,
        inputs: &mut Inputs,
        tracer: Option<&Tracer>,
        report: &mut Report,
    ) -> E2e {
        let total_events: usize = inputs.events.iter().sum();
        let last = inputs.expected.last().cloned().unwrap_or_default();
        let mut batch_ms = Vec::new();
        let mut rates = Vec::new();
        let mut recover_s = Vec::new();
        let started = Instant::now();
        let mut r = 0usize;
        while r < MIN_REPLAYS || (secs(started) < ctx.seconds && r < 4 * MIN_REPLAYS) {
            let dir = ctx.work.join(format!("ingest-{r}"));
            let _ = std::fs::remove_dir_all(&dir);
            let engine = match open_engine(ctx, &dir) {
                Ok((engine, _)) => engine,
                Err(e) => {
                    report.op(false, || format!("open store: {e}"));
                    break;
                }
            };
            let replay = Instant::now();
            for (m, body) in inputs.bodies.iter().enumerate() {
                let t = Instant::now();
                let outcome = match tracer {
                    Some(tr) => {
                        tr.span("dial-serve.ingest", None, m as u64, |_| engine.ingest(body)).0
                    }
                    None => engine.ingest(body),
                };
                batch_ms.push(ms(t));
                let ok = matches!(&outcome, Ok(rep) if rep.seals == 1
                    && rep.events == inputs.events[m]
                    && rep.snapshot == inputs.expected[m]);
                report.op(ok, || format!("replay {r} month {m}: {outcome:?}"));
            }
            rates.push(total_events as f64 / secs(replay));
            drop(engine);

            let t = Instant::now();
            let recovered = open_engine(ctx, &dir);
            recover_s.push(secs(t));
            let ok = matches!(&recovered, Ok((engine, rep))
                if rep.sealed_fingerprint.as_deref() == Some(last.as_str())
                    && engine.store().fingerprint() == last);
            report.op(ok, || format!("replay {r}: recovery did not reproduce {last}"));
            drop(recovered);
            let _ = std::fs::remove_dir_all(&dir);
            r += 1;
        }
        // Other tenants' load only ever adds time, so the replay-level
        // figures come from the least disturbed replay; the tail pools
        // every batch so it has 100 samples under it.
        let months = inputs.bodies.len();
        let best_p50 = batch_ms.chunks(months).map(median).fold(f64::INFINITY, f64::min);
        let events_per_s = rates.iter().copied().fold(0.0, f64::max);
        let recover = recover_s.iter().copied().fold(f64::INFINITY, f64::min);
        let mut op = pooled(&batch_ms);
        op.p50 = best_p50;
        E2e {
            throughput_per_s: events_per_s,
            job_s: recover,
            lines: vec![
                format!("ingest_events_per_s={events_per_s:.1} events/s (best of {r} replays, {total_events} events each: {rates:.0?})"),
                format!("ingest_batch_ms_p50={best_p50:.3} ms (best replay's median; pooled {:.3})", median(&batch_ms)),
                format!("ingest_batch_ms_p{}={:.3} ms (pooled, n={})", op.tail.0, op.tail.1, op.n),
                format!("recover_s={recover:.4} s (best of {r}: {recover_s:.3?})"),
            ],
            op,
        }
    }

    fn probe(
        &self,
        ctx: &Ctx,
        inputs: &mut Inputs,
        tracer: &Tracer,
        traced: &E2e,
        report: &mut Report,
    ) {
        let mut stage_ms = Vec::new();
        let mut fp_bytes = Vec::new();
        let mut append_bytes = Vec::new();
        let mut checkpoints = Vec::new();
        let mut recover_rates = Vec::new();
        let mut growth = Vec::new();
        for k in 0..SHADOW_REPLAYS {
            let dir = ctx.work.join(format!("shadow-{k}"));
            let _ = std::fs::remove_dir_all(&dir);
            let (mut log, mut stream, _) = match dial_store::open_fs(&dir, opts()) {
                Ok(parts) => parts,
                Err(e) => {
                    report.op(false, || format!("shadow store: {e}"));
                    return;
                }
            };
            let mut bytes = 0usize;
            let mut stages = 0.0;
            for (m, body) in inputs.bodies.iter().enumerate() {
                let trace = (k * 100 + m) as u64;
                let (sealed, took) = tracer.span("dial-serve.ingest_shadow", None, trace, |root| {
                    let events = tracer
                        .span("dial-stream.decode", Some(root), trace, |_| decode_ndjson(body))
                        .0
                        .expect("the benchmark's own batches decode");
                    let mut events = events.into_iter();
                    let watermark = events.next_back().expect("a month ends in its watermark");
                    // `Engine::ingest` mirrors every event for the durable
                    // log before applying it; the clone is part of buffering.
                    let mut batch: Vec<Event> = Vec::new();
                    tracer.span("dial-stream.buffer", Some(root), trace, |_| {
                        for ev in events {
                            batch.push(ev.clone());
                            stream.apply(ev).expect("buffering never fails");
                        }
                    });
                    batch.push(watermark.clone());
                    let delta = tracer
                        .span("dial-stream.seal", Some(root), trace, |_| stream.apply(watermark))
                        .0
                        .ok()
                        .flatten()?;
                    tracer.span("dial-store.append", Some(root), trace, |_| {
                        log.append_seal(&batch, &delta).expect("shadow append")
                    });
                    if log.should_checkpoint(delta.seq) {
                        tracer.span("dial-store.checkpoint", Some(root), trace, |_| {
                            let ckpt = Checkpoint::from_engine(&stream).expect("sealed engine");
                            log.write_checkpoint(&ckpt).expect("shadow checkpoint")
                        });
                    }
                    let (parts, _) =
                        tracer.span("dial-serve.snapshot_clone", Some(root), trace, |_| {
                            (stream.dataset().clone(), stream.ledger().clone())
                        });
                    let store = tracer
                        .span("dial-serve.snapshot_build", Some(root), trace, |_| {
                            SnapshotStore::from_parts(parts.0, parts.1, MARKET_SEED, CLASSES)
                        })
                        .0;
                    Some((delta.fingerprint, store.fingerprint().to_string()))
                });
                stages += took.as_secs_f64() * 1e3;
                let ok = matches!(&sealed, Some((seal, snap))
                    if *seal == inputs.expected[m] && *snap == inputs.expected[m]);
                report.op(ok, || format!("shadow {k} month {m}: seal fingerprint {sealed:?}"));
                // Re-measure both content fingerprints on the sealed prefix,
                // outside the shadow batch so coverage is not inflated.
                tracer.span("dial-model.fingerprint", None, trace, |_| {
                    stream.dataset().fingerprint()
                });
                tracer
                    .span("dial-chain.fingerprint", None, trace, |_| stream.ledger().fingerprint());
                bytes += serde_json::to_string(stream.dataset()).map_or(0, |s| s.len());
            }
            stage_ms.push(stages);
            fp_bytes.push(bytes as f64);
            let stats = log.stats();
            append_bytes.push(stats.log_bytes as f64);
            checkpoints.push(stats.checkpoints_written as f64);
            drop(log);
            let t = Instant::now();
            let recovered = tracer
                .span("dial-store.recover", None, k as u64, |_| dial_store::open_fs(&dir, opts()));
            match recovered.0 {
                Ok((_, _, rep)) => recover_rates.push(rep.replayed_events as f64 / secs(t)),
                Err(e) => report.op(false, || format!("shadow recovery: {e}")),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }

        let spans = tracer.spans();
        let per_replay =
            |name: &str| durations_ms(&spans, name).iter().sum::<f64>() / SHADOW_REPLAYS as f64;
        let mut seal_ms = durations_ms(&spans, "dial-stream.seal");
        let months = inputs.bodies.len();
        for replay in seal_ms.chunks(months) {
            if let (Some(first), Some(last)) = (replay.first(), replay.last()) {
                growth.push(last / first);
            }
        }
        seal_ms.sort_by(f64::total_cmp);
        report.set("dial-stream.decode_ms", per_replay("dial-stream.decode"));
        report.set("dial-stream.buffer_ms", per_replay("dial-stream.buffer"));
        report.set("dial-stream.seal_ms_p50", median(&seal_ms));
        report.set("dial-stream.seal_ms_p90", percentile_sorted(&seal_ms, 90.0));
        report.set("dial-stream.seal_growth_x", median(&growth));
        report.set("dial-model.fingerprint_ms", per_replay("dial-model.fingerprint"));
        report.set("dial-chain.fingerprint_ms", per_replay("dial-chain.fingerprint"));
        report.set("dial-model.fingerprint_bytes", median(&fp_bytes));
        report.set("dial-serve.snapshot_clone_ms", per_replay("dial-serve.snapshot_clone"));
        report.set("dial-serve.snapshot_build_ms", per_replay("dial-serve.snapshot_build"));
        report.set("dial-store.append_ms", per_replay("dial-store.append"));
        report.set("dial-store.append_bytes", median(&append_bytes));
        report.set("dial-store.checkpoint_ms", per_replay("dial-store.checkpoint"));
        report.set("dial-store.checkpoints", median(&checkpoints));
        report.set("dial-store.recover_events_per_s", median(&recover_rates));
        // Coverage: the shadow stages of one replay against the wall time
        // of one traced `Engine::ingest` replay.
        let ingest_ms = durations_ms(&spans, "dial-serve.ingest");
        let replays = (ingest_ms.len() / months).max(1);
        let wall = ingest_ms.iter().sum::<f64>() / replays as f64;
        let shadow = median(&stage_ms);
        report.set("dial-serve.ingest_coverage", if wall > 0.0 { shadow / wall } else { 0.0 });
        println!(
            "traced   shadow stages {shadow:.1} ms per replay vs Engine::ingest {wall:.1} ms; seal p50 {:.2} ms, month25/month1 {:.1}x; e2e batches n={}",
            median(&seal_ms),
            median(&growth),
            traced.op.n
        );
    }
}
