//! The four workloads and what they share: repeated set-up, the
//! plain/traced pass pair, and the end-to-end summary every workload
//! fills in.

mod analyze;
mod ingest;
mod live;
mod scenario;

use crate::Ctx;
use dial_perfbench::inputs::SplitMix64;
use dial_perfbench::report::Report;
use dial_perfbench::stats::{median, Summary};
use dial_perfbench::trace::Tracer;
use dial_sim::SimConfig;
use dial_stream::{encode_ndjson, replay_sealed, segments};
use std::time::Instant;

pub use dial_perfbench::report::WORKLOADS as NAMES;

/// How many times set-up runs; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Run facts a workload contributes to the `facts` line.
pub struct Facts {
    pub scale: f64,
    pub pool_width: usize,
    pub lca_classes: usize,
    pub engine_threads: usize,
    pub client_threads: usize,
}

/// One pass's end-to-end figures. Each workload maps its own operation
/// onto these (README, "Metric glossary").
pub struct E2e {
    /// Work items per second of measured time.
    pub throughput_per_s: f64,
    /// Per-operation latency, ms: median and supported tail.
    pub op: Summary,
    /// The workload's whole job, s.
    pub job_s: f64,
    /// `name value unit` lines under the issue-level metric names.
    pub lines: Vec<String>,
}

impl E2e {
    /// A pass that could not start: every figure 0, so the run fails.
    pub fn empty() -> Self {
        Self { throughput_per_s: 0.0, op: pooled(&[]), job_s: 0.0, lines: Vec::new() }
    }

    fn apply(&self, report: &mut Report) {
        report.set("throughput_per_s", self.throughput_per_s);
        report.set("op_ms_p50", self.op.p50);
        report.set("op_ms_tail", self.op.tail.1);
        report.set("job_s", self.job_s);
    }

    fn print(&self, label: &str) {
        let s = &self.op;
        println!(
            "{label} throughput_per_s={:.3} op_ms_p50={:.4} op_ms_tail={:.4} (p{} of n={}) job_s={:.4}",
            self.throughput_per_s, s.p50, s.tail.1, s.tail.0, s.n, self.job_s
        );
        for line in &self.lines {
            println!("{label}   {line}");
        }
    }
}

/// Median and supported tail of one pooled sample (zeros when empty).
pub fn pooled(ms: &[f64]) -> Summary {
    Summary::of(ms).unwrap_or(Summary { n: 0, p50: 0.0, tail: (50.0, 0.0) })
}

/// Runs `f` [`SETUP_REPEATS`] times, returning the last result and the
/// median wall time in seconds.
pub fn repeated_setup<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        last = Some(f());
        times.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// One market's monthly batches as sent to `Engine::ingest`.
pub struct Batches {
    /// NDJSON bodies, one per month; events in a seeded arrival order,
    /// the month's watermark last.
    pub bodies: Vec<String>,
    /// Events per body, watermark included.
    pub events: Vec<usize>,
    /// Reference seal fingerprints from a sealed replay of the log in
    /// its original order.
    pub expected: Vec<String>,
}

/// Simulates the market `market_seed` at `scale` and cuts it into its
/// monthly batches, shuffling each month's events with `order_seed`. A
/// watermark promises its month is complete whatever order the events
/// came in, so every seal must reproduce the reference fingerprints.
pub fn monthly_batches(market_seed: u64, scale: f64, order_seed: u64) -> Batches {
    let out = SimConfig::paper_default().with_seed(market_seed).with_scale(scale).simulate_full();
    let segs = segments(&out);
    let mut rng = SplitMix64::new(order_seed);
    let bodies = segs
        .iter()
        .map(|seg| {
            let mut seg = seg.clone();
            let body = seg.len().saturating_sub(1);
            rng.shuffle(&mut seg[..body]);
            encode_ndjson(&seg)
        })
        .collect();
    let events = segs.iter().map(Vec::len).collect();
    let (_, seals) = replay_sealed(segs).expect("the simulated log seals");
    Batches { bodies, events, expected: seals.into_iter().map(|s| s.fingerprint).collect() }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unknown.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What each workload module provides.
trait Workload {
    type Inputs;
    fn facts(&self, ctx: &Ctx) -> Facts;
    fn setup(&self, ctx: &Ctx) -> Self::Inputs;
    fn measure(
        &self,
        ctx: &Ctx,
        inputs: &mut Self::Inputs,
        tracer: Option<&Tracer>,
        report: &mut Report,
    ) -> E2e;
    /// Traced-run probes that turn spans into per-layer metrics. `traced`
    /// is the traced pass's end-to-end result.
    fn probe(
        &self,
        ctx: &Ctx,
        inputs: &mut Self::Inputs,
        tracer: &Tracer,
        traced: &E2e,
        report: &mut Report,
    );
}

fn drive<W: Workload>(w: W, ctx: &Ctx, report: &mut Report) -> Facts {
    let (mut inputs, setup_s) = repeated_setup(|| w.setup(ctx));
    report.set("setup_s", setup_s);
    println!("setup_s={setup_s:.4} (median of {SETUP_REPEATS})");
    if ctx.trace {
        let plain = w.measure(ctx, &mut inputs, None, report);
        plain.print("untraced");
        let tracer = Tracer::new();
        let traced = w.measure(ctx, &mut inputs, Some(&tracer), report);
        traced.print("traced");
        let (p, t) = (plain.op.p50, traced.op.p50);
        report.set("trace.overhead_pct", if p > 0.0 { (t / p - 1.0) * 100.0 } else { 0.0 });
        w.probe(ctx, &mut inputs, &tracer, &traced, report);
        let spans = tracer.spans().len();
        report.set("trace.spans", spans as f64);
        let path = ctx.out_dir.join(format!("trace-{}-{}.jsonl", ctx.workload, ctx.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("wrote {spans} spans to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    } else {
        let e2e = w.measure(ctx, &mut inputs, None, report);
        e2e.print("e2e");
        e2e.apply(report);
    }
    let rss = peak_rss_mb();
    report.set("peak_rss_mb", rss);
    println!("peak_rss_mb={rss:.1}");
    w.facts(ctx)
}

/// Runs the named workload, filling `report`.
pub fn run(ctx: &Ctx, report: &mut Report) -> Facts {
    match ctx.workload.as_str() {
        "ingest" => drive(ingest::Ingest, ctx, report),
        "analyze" => drive(analyze::Analyze, ctx, report),
        "scenario" => drive(scenario::ScenarioWorkload, ctx, report),
        "live_mixed" => drive(live::LiveMixed, ctx, report),
        other => unreachable!("workload {other} was validated at parse time"),
    }
}

/// Seconds since `t` as f64.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds since `t` as f64.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
