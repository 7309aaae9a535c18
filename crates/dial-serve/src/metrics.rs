//! Server metrics: request counters, cache hit/miss counters, and
//! per-experiment latency histograms, all cheap enough to update on every
//! request. [`Metrics`] serialises itself as the `/v1/metrics` body: one
//! key per field, in declaration order.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Histogram bucket upper bounds in milliseconds; the final implicit
/// bucket is unbounded.
pub const LATENCY_BOUNDS_MS: [u64; 7] = [1, 5, 25, 100, 500, 2500, 10_000];

/// A fixed-bucket latency histogram.
#[derive(Default, Serialize)]
pub struct Histogram {
    /// Observation counts per bucket; `buckets[i]` counts observations
    /// `<= LATENCY_BOUNDS_MS[i]`, and the last slot is the overflow.
    pub buckets: [u64; 8],
    /// Total observations.
    pub count: u64,
    /// Sum of all observations (milliseconds).
    pub sum_ms: f64,
}

impl Histogram {
    fn observe(&mut self, ms: f64) {
        let idx = LATENCY_BOUNDS_MS
            .iter()
            .position(|&b| ms <= b as f64)
            .unwrap_or(LATENCY_BOUNDS_MS.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ms += ms;
    }
}

/// A monotonic counter, bumped with relaxed atomics (no counter orders
/// any other memory access). It serialises as its current value.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Serialize for Counter {
    fn serialize_json(&self, out: &mut String) {
        self.get().serialize_json(out);
    }
}

/// Live counters, shared across connection and worker threads. Call
/// sites bump a counter by name (`metrics.cache_hits.inc()`); the three
/// methods below also tally a per-key map.
#[derive(Default, Serialize)]
pub struct Metrics {
    /// Requests accepted (any endpoint, any outcome).
    pub requests_total: Counter,
    /// Responses with a 5xx status (shed and drain rejections included),
    /// counted once where the HTTP layer writes the reply.
    pub responses_5xx: Counter,
    /// Requests shed with 503 because the scheduler queue was full.
    pub shed_total: Counter,
    /// Analyze requests answered from the result cache.
    pub cache_hits: Counter,
    /// Analyze requests that had to run the experiment.
    pub cache_misses: Counter,
    /// Chaos faults applied at dial-serve injection points (dial-par
    /// fires live in `dial_fault::events`, not here).
    pub faults_injected: Counter,
    /// Experiment panics caught by the engine; the worker survived and
    /// the request was answered with the error envelope.
    pub panics_recovered: Counter,
    /// Requests whose deadline budget expired (answered 504).
    pub deadlines_exceeded: Counter,
    /// Tampered cache inserts rejected by the fingerprint check.
    pub poison_rejected: Counter,
    /// Requests rejected at the front door: oversized bodies (413),
    /// oversized headers (431), and header timeouts (408).
    pub requests_rejected: Counter,
    /// Connections answered 503 + `Retry-After` because a graceful drain
    /// was in progress.
    pub drain_rejected: Counter,
    /// Scheduler jobs a drain deadline forced us to abandon.
    pub drain_abandoned_jobs: Counter,
    /// Ingest batches accepted past admission (parse + backpressure).
    pub ingest_batches: Counter,
    /// Events applied to the live stream (entity events and watermarks).
    pub ingest_events: Counter,
    /// Ingest batches refused: parse errors, gaps, backpressure.
    pub ingest_rejected: Counter,
    /// Watermarks sealed (each swapped in a fresh snapshot store).
    pub seals_total: Counter,
    /// Seals that panicked before commit (`seal_panic` chaos included).
    pub seal_failures: Counter,
    /// `/v1/stream` subscriptions accepted over this server's lifetime.
    pub sse_clients: Counter,
    /// SSE frames written to stream clients (history and live).
    pub sse_frames: Counter,
    /// Sealed batches appended to the durable store.
    pub store_appends: Counter,
    /// Store appends that failed (the store is degraded: memory is ahead
    /// of disk until a restart).
    pub store_append_failures: Counter,
    /// Checkpoint snapshots written to the durable store.
    pub store_checkpoints: Counter,
    /// Checkpoint writes that failed or panicked (`ckpt_panic` chaos
    /// included); the next interval retries.
    pub store_checkpoint_failures: Counter,
    /// Seals replayed from the store at startup.
    pub store_recovered_seals: Counter,
    /// Events replayed from the store at startup.
    pub store_recovered_events: Counter,
    /// Sealed batches a follower fetched from its leader and applied.
    pub sync_segments_fetched: Counter,
    /// Batch bytes fetched over the sync protocol.
    pub sync_bytes: Counter,
    /// Sync fetch/apply attempts that failed and were retried (network
    /// errors, stalls, and rejected batches alike).
    pub sync_retries: Counter,
    /// Fetched batches rejected before apply because a frame failed CRC
    /// or the replayed fingerprint disagreed with the recorded seal.
    pub fingerprint_rejects: Counter,
    /// Times this node took leadership (promoted itself to a new epoch).
    pub promotions: Counter,
    /// Times this node stepped down: adopted another leader after seeing
    /// proof of a higher epoch.
    pub demotions: Counter,
    /// Messages refused by epoch fencing: ingests or adopts carrying an
    /// epoch lower than the one this node has persisted.
    pub epoch_rejections: Counter,
    /// Immediate sync polls triggered by a leader's SSE seal frame
    /// (rather than the interval timer).
    pub sync_nudges: Counter,
    /// Scenario comparisons actually computed (cache misses that ran the
    /// counterfactual engine; `/v1/scenario` cache hits count as hits).
    pub scenario_runs: Counter,
    /// Requests per normalised endpoint (`/analyze/{id}` collapses to
    /// `/analyze`).
    by_endpoint: Mutex<BTreeMap<String, u64>>,
    /// dial-serve fault fires per injection point name.
    faults_by_point: Mutex<BTreeMap<String, u64>>,
    /// Experiment wall-clock latency per experiment id (cache misses
    /// only — hits do not run anything worth timing).
    pub(crate) latency_ms: Mutex<BTreeMap<String, Histogram>>,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one request against a normalised endpoint name.
    pub fn request(&self, endpoint: &str) {
        self.requests_total.inc();
        let mut map = self.by_endpoint.lock().expect("metrics lock");
        *map.entry(endpoint.to_string()).or_default() += 1;
    }

    /// Counts one chaos fault applied at a dial-serve injection point.
    pub fn fault(&self, point: &str) {
        self.faults_injected.inc();
        let mut map = self.faults_by_point.lock().expect("metrics lock");
        *map.entry(point.to_string()).or_default() += 1;
    }

    /// Records one experiment run's wall-clock latency.
    pub fn observe_latency(&self, experiment: &str, ms: f64) {
        let mut map = self.latency_ms.lock().expect("metrics lock");
        map.entry(experiment.to_string()).or_default().observe(ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `/v1/metrics` body for the counts in `metrics_body_is_pinned`.
    const GOLDEN: &str = r#"{"requests_total":1,"responses_5xx":0,"shed_total":0,"cache_hits":1,"cache_misses":0,"faults_injected":1,"panics_recovered":0,"deadlines_exceeded":0,"poison_rejected":0,"requests_rejected":0,"drain_rejected":0,"drain_abandoned_jobs":0,"ingest_batches":0,"ingest_events":26,"ingest_rejected":0,"seals_total":0,"seal_failures":0,"sse_clients":0,"sse_frames":0,"store_appends":0,"store_append_failures":0,"store_checkpoints":0,"store_checkpoint_failures":0,"store_recovered_seals":0,"store_recovered_events":0,"sync_segments_fetched":0,"sync_bytes":0,"sync_retries":0,"fingerprint_rejects":0,"promotions":0,"demotions":0,"epoch_rejections":0,"sync_nudges":0,"scenario_runs":0,"by_endpoint":{"/v1/metrics":1},"faults_by_point":{"slow_read":1},"latency_ms":{"table1":{"buckets":[0,1,0,0,0,0,0,0],"count":1,"sum_ms":3.25}}}"#;

    #[test]
    fn request_and_fault_tally_their_maps() {
        let m = Metrics::new();
        m.request("/healthz");
        m.request("/analyze");
        m.request("/analyze");
        m.fault("slow_read");
        m.fault("slow_read");
        m.fault("trunc_write");
        assert_eq!(m.requests_total.get(), 3);
        assert_eq!(m.by_endpoint.lock().unwrap()["/analyze"], 2);
        assert_eq!(m.faults_injected.get(), 3);
        let faults = m.faults_by_point.lock().unwrap();
        assert_eq!((faults["slow_read"], faults["trunc_write"]), (2, 1));
        assert_eq!(m.responses_5xx.get(), 0, "the HTTP layer owns the 5xx count");
    }

    #[test]
    fn histogram_buckets_by_bound() {
        let mut h = Histogram::default();
        h.observe(0.4); // <= 1ms
        h.observe(12.0); // <= 25ms
        h.observe(60_000.0); // overflow
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[7], 1);
        assert_eq!(h.count, 3);
        assert!(h.sum_ms > 60_012.0);
    }

    #[test]
    fn metrics_body_is_pinned() {
        let m = Metrics::new();
        m.request("/v1/metrics");
        m.cache_hits.inc();
        m.ingest_events.add(26);
        m.fault("slow_read");
        m.observe_latency("table1", 3.25);
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(json, GOLDEN);
    }
}
