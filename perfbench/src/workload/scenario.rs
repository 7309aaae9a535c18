//! `scenario`: `dial_scenario::compare` over the full registry for a
//! two-intervention scenario (mandate moved, demand shock).
//!
//! Compare runs on a one-thread pool, so its time is the sum of its
//! stages. At width 2 one compare moves by ±20% from run to run with the
//! order its 60 experiment bodies are scheduled in and which worker
//! blocks on the memoised LTM fit; that scheduling is measured on
//! `analyze` instead.
//!
//! The traced run replays compare's own steps through public calls in its
//! order and with its parallel structure — parse, the two simulations as
//! a pool join, two sealed replays, two analysis contexts, the experiment
//! fan-out — so the unattributed remainder is what compare spends
//! elsewhere.

use super::{ms, pooled, secs, E2e, Facts, Workload};
use crate::Ctx;
use dial_core::experiments::{all_experiments, extension_experiments, ExperimentContext};
use dial_par::Pool;
use dial_perfbench::http::string_field;
use dial_perfbench::report::Report;
use dial_perfbench::stats::{mean, median};
use dial_perfbench::trace::{durations_ms, Tracer};
use dial_scenario::{compare, scenario_fingerprint, CompareOptions, Scenario};
use dial_sim::{simulate_with_plan, InterventionPlan, SimConfig};
use dial_stream::{replay_sealed, segments};
use std::sync::Arc;
use std::time::Instant;

/// Simulation seed of both runs. Fixed: compare's cost moves by up to 2x
/// between simulation seeds (EM convergence), so the run's seed names the
/// scenario and orders its interventions instead.
const SIM_SEED: u64 = 1;
/// Market scale of both runs.
const SCALE: f64 = 0.02;
/// LCA classes for the latent-transition experiments.
const CLASSES: usize = 4;
/// Compares per pass at the least.
const MIN_COMPARES: usize = 3;
/// Pool width compare runs at.
const POOL_WIDTH: usize = 1;

pub struct ScenarioWorkload;

pub struct Inputs {
    pool: Arc<Pool>,
    source: String,
    scenario: Scenario,
    /// The baseline snapshot fingerprint from a direct simulate + sealed
    /// replay, which compare's baseline run must reproduce.
    baseline: String,
}

fn source(seed: u64) -> String {
    let mandate = "  - kind: mandate\n    month: 14\n";
    let shock = "  - kind: demand_shock\n    from_month: 21\n    to_month: 24\n    factor: 1.5\n";
    let (first, second) = if seed.is_multiple_of(2) { (mandate, shock) } else { (shock, mandate) };
    format!(
        "# benchmark scenario: the mandate arrives five months late, then a demand shock\n\
         name: bench-mandate-shock-{seed}\nseed: {SIM_SEED}\nscale: {SCALE}\ninterventions:\n{first}{second}"
    )
}

fn options() -> CompareOptions {
    CompareOptions { ids: Vec::new(), lca_classes: CLASSES }
}

impl Workload for ScenarioWorkload {
    type Inputs = Inputs;

    fn facts(&self, _ctx: &Ctx) -> Facts {
        Facts {
            scale: SCALE,
            lca_classes: CLASSES,
            pool_width: POOL_WIDTH,
            engine_threads: 0,
            client_threads: 1,
        }
    }

    fn setup(&self, ctx: &Ctx) -> Inputs {
        let source = source(ctx.seed);
        let scenario = Scenario::parse(&source, "bench.scn").expect("benchmark scenario parses");
        let out = SimConfig::paper_default().with_seed(SIM_SEED).with_scale(SCALE).simulate_full();
        let (_, seals) = replay_sealed(segments(&out)).expect("the baseline log seals");
        let baseline = seals.last().map(|s| s.fingerprint.clone()).unwrap_or_default();
        Inputs { pool: Pool::new(POOL_WIDTH), source, scenario, baseline }
    }

    fn measure(
        &self,
        ctx: &Ctx,
        inputs: &mut Inputs,
        tracer: Option<&Tracer>,
        report: &mut Report,
    ) -> E2e {
        let opts = options();
        let mut compare_ms = Vec::new();
        let mut document_s = Vec::new();
        let mut first_fp: Option<String> = None;
        let started = Instant::now();
        let mut n = 0usize;
        while n < MIN_COMPARES || (secs(started) < ctx.seconds && n < 4 * MIN_COMPARES) {
            let t = Instant::now();
            let run = || dial_par::with_pool(&inputs.pool, || compare(&inputs.scenario, &opts));
            let cmp = match tracer {
                Some(tr) => tr.span("dial-scenario.compare", None, n as u64, |_| run()).0,
                None => run(),
            };
            compare_ms.push(ms(t));
            let doc = cmp.as_ref().ok().map(|c| match tracer {
                Some(tr) => tr.span("dial-scenario.render", None, n as u64, |_| c.to_json()).0,
                None => c.to_json(),
            });
            document_s.push(secs(t));
            let fp = doc
                .as_deref()
                .and_then(|d| string_field(d, "diff_fingerprint"))
                .map(str::to_string);
            let ok = match (&cmp, &fp) {
                (Ok(c), Some(fp)) => {
                    c.rows.len() == 30
                        && !c.changed_ids().is_empty()
                        && c.baseline.snapshot == inputs.baseline
                        && first_fp.as_ref().is_none_or(|first| first == fp)
                }
                _ => false,
            };
            report.op(ok, || {
                format!(
                    "compare {n}: {:?} diff_fingerprint {fp:?} first {first_fp:?}",
                    cmp.as_ref().err()
                )
            });
            if first_fp.is_none() {
                first_fp = fp;
            }
            n += 1;
        }
        let compare_s = median(&compare_ms) / 1e3;
        E2e {
            throughput_per_s: 60.0 / compare_s,
            job_s: mean(&document_s),
            lines: vec![
                format!("scenario_compare_s={compare_s:.4} s (median of {n}: {compare_ms:.0?} ms)"),
                format!(
                    "scenario_document_s={:.4} s (compare + render, mean of {n})",
                    mean(&document_s)
                ),
            ],
            op: pooled(&compare_ms),
        }
    }

    fn probe(
        &self,
        _ctx: &Ctx,
        inputs: &mut Inputs,
        tracer: &Tracer,
        traced: &E2e,
        report: &mut Report,
    ) {
        const SHADOWS: usize = 2;
        let mut stage_s = Vec::new();
        for k in 0..SHADOWS {
            let trace = 1000 + k as u64;
            let ((), took) = dial_par::with_pool(&inputs.pool, || {
                tracer.span("dial-scenario.shadow", None, trace, |root| {
                    let scn = tracer
                        .span("dial-scenario.parse", Some(root), trace, |_| {
                            let s = Scenario::parse(&inputs.source, "bench.scn").expect("parses");
                            let _ = scenario_fingerprint(&s);
                            s
                        })
                        .0;
                    let cfg = SimConfig::paper_default().with_seed(scn.seed).with_scale(scn.scale);
                    let plan = scn.plan();
                    let (base, cf) = tracer
                        .span("dial-sim.simulate", Some(root), trace, |_| {
                            dial_par::join(
                                || simulate_with_plan(&cfg, &InterventionPlan::default()),
                                || simulate_with_plan(&cfg, &plan),
                            )
                        })
                        .0;
                    let (base, cf) = tracer
                        .span("dial-stream.replay_sealed", Some(root), trace, |_| {
                            let b = replay_sealed(segments(&base)).expect("baseline seals").0;
                            let c = replay_sealed(segments(&cf)).expect("counterfactual seals").0;
                            (b, c)
                        })
                        .0;
                    let ok = base.seals().last().map(|s| s.fingerprint.as_str())
                        == Some(inputs.baseline.as_str());
                    report.op(ok, || "shadow baseline seal differs from the reference".to_string());
                    let (bctx, cctx) = tracer
                        .span("core.context", Some(root), trace, |_| {
                            let b = ExperimentContext::new(
                                base.dataset().clone(),
                                base.ledger().clone(),
                                scn.seed,
                                CLASSES,
                            );
                            let c = ExperimentContext::new(
                                cf.dataset().clone(),
                                cf.ledger().clone(),
                                scn.seed,
                                CLASSES,
                            );
                            (b, c)
                        })
                        .0;
                    tracer.span("core.experiments", Some(root), trace, |_| {
                        let registry: Vec<_> =
                            all_experiments().into_iter().chain(extension_experiments()).collect();
                        dial_par::parallel_map(registry, |e| (e.run_json(&bctx), e.run_json(&cctx)))
                    });
                })
            });
            stage_s.push(took.as_secs_f64());
        }
        let spans = tracer.spans();
        let mean_s = |name: &str| {
            let d = durations_ms(&spans, name);
            d.iter().sum::<f64>() / d.len().max(1) as f64 / 1e3
        };
        let simulate = mean_s("dial-sim.simulate");
        let replay = mean_s("dial-stream.replay_sealed");
        let context = mean_s("core.context");
        let experiments = mean_s("core.experiments");
        let compare_s = traced.op.p50 / 1e3;
        report.set("dial-scenario.parse_us", mean_s("dial-scenario.parse") * 1e6);
        report.set("dial-sim.simulate_s", simulate);
        report.set("dial-stream.replay_sealed_s", replay);
        report.set("core.context_ms", context * 1e3);
        report.set("core.experiments_s", experiments);
        report.set("dial-scenario.render_ms", mean_s("dial-scenario.render") * 1e3);
        report.set(
            "dial-scenario.unattributed_s",
            compare_s - (simulate + replay + context + experiments),
        );
        println!(
            "traced   compare {compare_s:.3} s vs shadow {:.3} s (simulate {simulate:.3}, replay {replay:.3}, context {:.1} ms, experiments {experiments:.3})",
            median(&stage_s),
            context * 1e3
        );
    }
}
