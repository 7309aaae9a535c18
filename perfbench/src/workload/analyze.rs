//! `analyze`: a fresh `Engine` over a fixed snapshot. Phase one is a cold
//! `analyze_many` over all 30 registry ids; phase two is a closed loop of
//! two socket clients sending warm `GET /v1/analyze/{id}`, cycling every
//! id. No seal runs in either phase.

use super::{ms, pooled, secs, E2e, Facts, Workload};
use crate::Ctx;
use dial_core::experiments::ExperimentContext;
use dial_perfbench::http;
use dial_perfbench::inputs::permutation;
use dial_perfbench::report::Report;
use dial_perfbench::stats::{mean, median, Summary};
use dial_perfbench::trace::{durations_ms, totals_by_name, Tracer};
use dial_serve::{Engine, ServeConfig, Server, SnapshotStore};
use dial_sim::SimConfig;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The analysed snapshot is fixed: the bench market's seed. The run's
/// seed orders the warm-phase requests.
const MARKET_SEED: u64 = 0xBE9C;
/// Market scale of the analysed snapshot.
const SCALE: f64 = 0.05;
/// LCA classes for the latent-transition experiments.
const CLASSES: usize = 6;
/// Cold sweeps per pass; each runs on a freshly built snapshot store.
const COLD_SWEEPS: usize = 5;
/// Experiments that read the memoised LTM fit.
const LTM_READERS: [&str; 5] = ["table6", "table8", "fig12", "fig13", "ext-dynamics"];

pub struct Analyze;

/// One warm client's `(second, latency ms)` reads, body bytes and failures.
type ClientLog = (Vec<(usize, f64)>, u64, Vec<String>);

pub struct Inputs {
    dataset: dial_model::Dataset,
    ledger: dial_chain::Ledger,
    /// Stores built by set-up and not yet consumed by a cold sweep.
    stores: Vec<SnapshotStore>,
    ids: Vec<String>,
}

impl Inputs {
    fn store(&mut self) -> SnapshotStore {
        self.stores.pop().unwrap_or_else(|| {
            SnapshotStore::from_parts(
                self.dataset.clone(),
                self.ledger.clone(),
                MARKET_SEED,
                CLASSES,
            )
        })
    }
}

impl Workload for Analyze {
    type Inputs = Inputs;

    fn facts(&self, ctx: &Ctx) -> Facts {
        Facts {
            scale: SCALE,
            lca_classes: CLASSES,
            pool_width: ctx.width,
            engine_threads: ctx.width,
            client_threads: ctx.width,
        }
    }

    fn setup(&self, _ctx: &Ctx) -> Inputs {
        let out =
            SimConfig::paper_default().with_seed(MARKET_SEED).with_scale(SCALE).simulate_full();
        let store = SnapshotStore::from_parts(
            out.dataset.clone(),
            out.ledger.clone(),
            MARKET_SEED,
            CLASSES,
        );
        let ids = dial_serve::registry_experiments().into_iter().map(|e| e.id).collect();
        Inputs { dataset: out.dataset, ledger: out.ledger, stores: vec![store], ids }
    }

    fn measure(
        &self,
        ctx: &Ctx,
        inputs: &mut Inputs,
        tracer: Option<&Tracer>,
        report: &mut Report,
    ) -> E2e {
        // Cold: every sweep on a new engine over a new store, so neither
        // the result cache nor the LTM memo carries over.
        let mut cold_s = Vec::new();
        let mut reference: Option<Vec<Arc<String>>> = None;
        let mut engine = None;
        for sweep in 0..COLD_SWEEPS {
            let fresh =
                Engine::new(inputs.store(), dial_serve::registry_experiments(), ctx.width, 64);
            let t = Instant::now();
            let outcome = match tracer {
                Some(tr) => {
                    tr.span("dial-serve.analyze_many", None, sweep as u64, |_| {
                        fresh.analyze_many(&inputs.ids)
                    })
                    .0
                }
                None => fresh.analyze_many(&inputs.ids),
            };
            cold_s.push(secs(t));
            let bodies: Option<Vec<Arc<String>>> =
                outcome.ok().and_then(|rows| rows.into_iter().map(|(_, r)| r.ok()).collect());
            let ok = match (&bodies, &reference) {
                (Some(b), Some(first)) => b == first,
                (Some(_), None) => true,
                (None, _) => false,
            };
            report.op(ok, || format!("cold sweep {sweep}: failed or differs from sweep 0"));
            if reference.is_none() {
                reference = bodies;
            }
            engine = Some(fresh);
        }
        let engine = Arc::new(engine.expect("at least one sweep"));
        let reference = reference.unwrap_or_default();

        // Warm: closed-loop socket clients, each cycling every id in its
        // own seeded order.
        let cfg = ServeConfig {
            port: 0,
            threads: ctx.width,
            queue_capacity: 64,
            ..ServeConfig::default()
        };
        let server = match Server::start(Arc::clone(&engine), &cfg) {
            Ok(s) => s,
            Err(e) => {
                report.op(false, || format!("bind: {e}"));
                return E2e::empty();
            }
        };
        let addr = server.addr();
        let warm_for = Duration::from_secs_f64((ctx.seconds * 0.3).max(2.0));
        let ids = &inputs.ids;
        let reference = &reference;
        let started = Instant::now();
        let results: Vec<ClientLog> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..ctx.width)
                .map(|c| {
                    let order = permutation(ids.len(), ctx.seed.wrapping_add(c as u64));
                    scope.spawn(move || {
                        let mut lat = Vec::new();
                        let mut bytes = 0u64;
                        let mut bad = Vec::new();
                        let mut k = 0usize;
                        while started.elapsed() < warm_for {
                            let i = order[k % order.len()];
                            let path = format!("/v1/analyze/{}", ids[i]);
                            let t = Instant::now();
                            let resp = http::request(addr, "GET", &path, None);
                            let took = ms(t);
                            if let Some(tr) = tracer {
                                tr.record(
                                    "loadgen.read",
                                    None,
                                    (c * 1_000_000 + k) as u64,
                                    t,
                                    Instant::now(),
                                );
                            }
                            // Reads are binned by the whole second they
                            // finished in.
                            lat.push((started.elapsed().as_secs() as usize, took));
                            match resp {
                                Ok(r)
                                    if r.status == 200
                                        && reference.get(i).is_some_and(|b| **b == r.body) =>
                                {
                                    bytes += r.body.len() as u64;
                                }
                                Ok(r) => bad.push(format!(
                                    "warm {path}: status {} or body differs from cold",
                                    r.status
                                )),
                                Err(e) => bad.push(format!("warm {path}: {e}")),
                            }
                            k += 1;
                        }
                        (lat, bytes, bad)
                    })
                })
                .collect();
            clients.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        // Complete one-second windows only; the last partial one is dropped.
        let full = (secs(started) as usize).max(1);
        let mut windows: Vec<Vec<f64>> = vec![Vec::new(); full];
        let mut reads = Vec::new();
        let mut bytes = 0u64;
        for (lat, b, bad) in results {
            for why in &bad {
                report.op(false, || why.clone());
            }
            for _ in 0..lat.len() - bad.len() {
                report.op(true, String::new);
            }
            for (w, took) in lat {
                if let Some(window) = windows.get_mut(w) {
                    window.push(took);
                }
                reads.push(took);
            }
            bytes += b;
        }

        if tracer.is_some() {
            // In-process warm hits on the same engine, no sockets.
            let mut hit_us = Vec::new();
            for round in 0..20 {
                for id in ids {
                    let t = Instant::now();
                    let ok = engine.analyze(id).is_ok();
                    hit_us.push(t.elapsed().as_secs_f64() * 1e6);
                    report.op(ok, || format!("in-process hit {id} round {round}"));
                }
            }
            let hit = median(&hit_us);
            report.set("dial-serve.cache_hit_us", hit);
            report.set("dial-serve.http_overhead_ms_p50", median(&reads) - hit / 1e3);
            report.set("dial-serve.read_bytes_mean", bytes as f64 / reads.len().max(1) as f64);
        }
        server.shutdown();

        // Other tenants' load only ever slows reads down, so the warm
        // figures come from the least disturbed one-second window.
        let per_window: Vec<Summary> = windows.iter().map(|w| pooled(w)).collect();
        let best = per_window
            .iter()
            .min_by(|a, b| a.p50.total_cmp(&b.p50))
            .cloned()
            .unwrap_or_else(|| pooled(&[]));
        let best_tail = per_window.iter().map(|s| s.tail.1).fold(f64::INFINITY, f64::min);
        let per_s = per_window.iter().map(|s| s.n as f64).fold(0.0, f64::max);
        let op = Summary { tail: (best.tail.0, best_tail), ..best };
        let all = pooled(&reads);
        E2e {
            throughput_per_s: per_s,
            job_s: mean(&cold_s),
            lines: vec![
                format!(
                    "analyze_cold_s={:.4} s (mean of {COLD_SWEEPS}: {cold_s:.3?})",
                    mean(&cold_s)
                ),
                format!(
                    "read_ms_p50={:.4} ms (best of {full} one-second windows; all reads {:.4})",
                    op.p50, all.p50
                ),
                format!(
                    "read_ms_p{}={:.4} ms (best window; all reads {:.4}, n={})",
                    op.tail.0, op.tail.1, all.tail.1, all.n
                ),
                format!("read_per_s={per_s:.1} req/s (best window, {} clients)", ctx.width),
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
        let single = dial_par::Pool::new(1);
        let ctx_w1 = ExperimentContext::new(
            inputs.dataset.clone(),
            inputs.ledger.clone(),
            MARKET_SEED,
            CLASSES,
        );
        let experiments = dial_serve::registry_experiments();
        let (ids, sweep) = dial_par::with_pool(&single, || {
            tracer.span("dial-par.width1_sweep", None, 0, |root| {
                let (rows, _) = tracer
                    .span("core.ltm_features", Some(root), 0, |_| {
                        dial_core::ltm::user_month_features(&inputs.dataset)
                    })
                    .0;
                tracer.span("dial-stats.lca_fit", Some(root), 0, |_| {
                    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(MARKET_SEED);
                    dial_stats::LcaModel { k: CLASSES }.fit_best(&rows, 2, &mut rng)
                });
                tracer.span("core.ltm_fit", Some(root), 0, |_| ctx_w1.ltm().n_observations);
                for e in &experiments {
                    tracer.span(&format!("core.exp.{}", e.id), Some(root), 0, |_| (e.run)(&ctx_w1));
                }
                experiments.iter().map(|e| e.id.clone()).collect::<Vec<_>>()
            })
        });
        let spans = tracer.spans();
        let totals = totals_by_name(&spans);
        let exp_ms: Vec<(String, f64)> = ids
            .into_iter()
            .map(|id| {
                let self_ns = totals.get(&format!("core.exp.{id}")).map_or(0, |t| t.2);
                (id, self_ns as f64 / 1e6)
            })
            .collect();
        let one = |name: &str| durations_ms(&spans, name).first().copied().unwrap_or(0.0);
        let ltm_fit_s = one("core.ltm_fit") / 1e3;
        let lca_fit_s = one("dial-stats.lca_fit") / 1e3;
        let exp_sum: f64 = exp_ms.iter().map(|(_, t)| t).sum();
        for (id, t) in &exp_ms {
            report.set(&format!("core.exp_ms.{id}"), *t);
        }
        let longest_reader = exp_ms
            .iter()
            .filter(|(id, _)| LTM_READERS.contains(&id.as_str()))
            .map(|(_, t)| *t)
            .fold(0.0, f64::max);
        let width1_s = ltm_fit_s + exp_sum / 1e3;
        let critical_s = ltm_fit_s + longest_reader / 1e3;
        let cold_s = traced.job_s;
        report.set("core.ltm_features_ms", one("core.ltm_features"));
        report.set("dial-stats.lca_fit_s", lca_fit_s);
        report.set("core.ltm_fit_s", ltm_fit_s);
        report.set("core.exp_ms_sum", exp_sum);
        report.set("dial-par.width1_sweep_s", width1_s);
        report.set("dial-par.critical_path_s", critical_s);
        let ideal = critical_s.max(width1_s / ctx.width as f64);
        report.set("dial-par.sweep_efficiency", if cold_s > 0.0 { ideal / cold_s } else { 0.0 });
        println!(
            "traced   width-1 sweep {width1_s:.2} s (LTM fit {ltm_fit_s:.2} s, experiments {:.2} s), critical path {critical_s:.2} s, cold at width {} {cold_s:.2} s; sweep span {:.2} s",
            exp_sum / 1e3,
            ctx.width,
            sweep.as_secs_f64()
        );
    }
}
