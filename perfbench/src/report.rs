//! The metric catalogue and the result line.
//!
//! Every workload reports the same end-to-end metrics (each workload gives
//! them its own meaning; see the README's glossary) and, in a traced run,
//! the same per-layer metrics. A layer a workload bypasses reads 0 there.
//! `tests/catalog.rs` keeps this catalogue and `BENCHMARK.json` in step.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes, memory).
    Lower,
    /// Larger is better (rates, ratios of useful work).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 4] = ["ingest", "analyze", "scenario", "live_mixed"];

/// End-to-end metrics: `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, Better); 6] = [
    ("setup_s", "s", Better::Lower),
    ("peak_rss_mb", "MB", Better::Lower),
    ("throughput_per_s", "1/s", Better::Higher),
    ("op_ms_p50", "ms", Better::Lower),
    ("op_ms_tail", "ms", Better::Lower),
    ("job_s", "s", Better::Lower),
];

/// The experiment ids of the registry, in registry order; each has a
/// `core.exp_ms.<id>` per-layer metric.
pub const EXPERIMENT_IDS: [&str; 30] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "ext-stimulus",
    "ext-disputes",
    "ext-repeat",
    "ext-eras",
    "ext-dynamics",
    "ext-forum",
    "ext-mixing",
];

/// Per-layer metrics other than the per-experiment ones:
/// `(name, unit, better)`.
pub const PER_LAYER_FIXED: [(&str, &str, Better); 42] = [
    // ingest
    ("dial-stream.decode_ms", "ms", Better::Lower),
    ("dial-stream.buffer_ms", "ms", Better::Lower),
    ("dial-stream.seal_ms_p50", "ms", Better::Lower),
    ("dial-stream.seal_ms_p90", "ms", Better::Lower),
    ("dial-stream.seal_growth_x", "x", Better::Lower),
    ("dial-model.fingerprint_ms", "ms", Better::Lower),
    ("dial-chain.fingerprint_ms", "ms", Better::Lower),
    ("dial-model.fingerprint_bytes", "B", Better::Lower),
    ("dial-serve.snapshot_clone_ms", "ms", Better::Lower),
    ("dial-serve.snapshot_build_ms", "ms", Better::Lower),
    ("dial-store.append_ms", "ms", Better::Lower),
    ("dial-store.append_bytes", "B", Better::Lower),
    ("dial-store.checkpoint_ms", "ms", Better::Lower),
    ("dial-store.checkpoints", "count", Better::Lower),
    ("dial-store.recover_events_per_s", "1/s", Better::Higher),
    ("dial-serve.ingest_coverage", "ratio", Better::Higher),
    // analyze
    ("core.ltm_features_ms", "ms", Better::Lower),
    ("dial-stats.lca_fit_s", "s", Better::Lower),
    ("core.ltm_fit_s", "s", Better::Lower),
    ("core.exp_ms_sum", "ms", Better::Lower),
    ("dial-par.width1_sweep_s", "s", Better::Lower),
    ("dial-par.critical_path_s", "s", Better::Lower),
    ("dial-par.sweep_efficiency", "ratio", Better::Higher),
    ("dial-serve.cache_hit_us", "us", Better::Lower),
    ("dial-serve.http_overhead_ms_p50", "ms", Better::Lower),
    ("dial-serve.read_bytes_mean", "B", Better::Lower),
    // scenario
    ("dial-scenario.parse_us", "us", Better::Lower),
    ("dial-sim.simulate_s", "s", Better::Lower),
    ("dial-stream.replay_sealed_s", "s", Better::Lower),
    ("core.context_ms", "ms", Better::Lower),
    ("core.experiments_s", "s", Better::Lower),
    ("dial-scenario.render_ms", "ms", Better::Lower),
    ("dial-scenario.unattributed_s", "s", Better::Lower),
    // live_mixed
    ("dial-serve.cache_hit_ratio", "ratio", Better::Higher),
    ("dial-serve.hit_read_ms_p50", "ms", Better::Lower),
    ("dial-serve.miss_read_ms_p50", "ms", Better::Lower),
    ("dial-serve.reads_per_seal", "count", Better::Higher),
    ("dial-serve.live_ingest_ms_p50", "ms", Better::Lower),
    ("loadgen.late_ms_max", "ms", Better::Lower),
    ("loadgen.backlog_max", "count", Better::Lower),
    // every workload
    ("trace.overhead_pct", "%", Better::Lower),
    ("trace.spans", "count", Better::Lower),
];

/// Every per-layer metric in reporting order: the fixed ones, then one
/// `core.exp_ms.<id>` per registry experiment.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    PER_LAYER_FIXED
        .iter()
        .map(|(n, u, b)| (n.to_string(), *u, *b))
        .chain(EXPERIMENT_IDS.iter().map(|id| (format!("core.exp_ms.{id}"), "ms", Better::Lower)))
        .collect()
}

/// Operations attempted and failed, the failed checks, and the metric
/// values of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (batches, reads, sweeps, compares, recoveries).
    pub attempted: u64,
    /// Operations that errored or whose output failed its check.
    pub failed: u64,
    /// The first few failure messages, for stderr.
    pub failures: Vec<String>,
    values: BTreeMap<String, f64>,
}

impl Report {
    /// Counts one operation; `ok == false` counts it failed and keeps
    /// `why` for the log.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why());
            }
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// The result line: `correct`, `attempted`, `failed`, and the listed
    /// metrics in order. A metric never set reads 0; a non-finite value
    /// is reported as 0 and fails the run.
    pub fn result_json(&mut self, metrics: &[(String, &'static str)]) -> String {
        let mut body = Vec::with_capacity(metrics.len());
        for (name, unit) in metrics {
            let mut value = self.values.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                self.op(false, || format!("metric {name} is not finite"));
                value = 0.0;
            }
            body.push(format!("{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}"));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}
