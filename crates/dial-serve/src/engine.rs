//! The analysis engine: store → scheduler → cache, with metrics on every
//! edge. This is the whole serving pipeline minus sockets — the HTTP
//! layer and the benches both drive it directly.
//!
//! # Deadlines
//!
//! Every analyze entry point has a `_deadline` variant carrying an
//! optional absolute budget. The budget rides into the submitted job,
//! where it is re-established as the worker's thread-local deadline
//! (`dial_fault::deadline`), and `dial-par` re-establishes it again on
//! every chunk it fans out — so cooperative checkpoints anywhere down
//! the compute stack unwind timed-out work promptly and free its pool
//! slot instead of burning it to completion. The waiting caller gives up
//! at the deadline regardless (a non-cooperative experiment then runs to
//! completion unobserved; its slot frees when it finishes).

use crate::cache::{CacheKey, ResultCache};
use crate::metrics::Metrics;
use crate::scheduler::Scheduler;
use crate::store::SnapshotStore;
use crate::{EraScope, ScenarioHandle, ScenarioRunError, ServeExperiment};
use dial_store::{Checkpoint, RecoveryReport, SegmentLog};
use dial_stream::{Event, SealDelta, StreamEngine};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Why an analyze call produced no result body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// The experiment id is not registered; carries the valid ids.
    Unknown {
        /// Every registered experiment id, for the error payload.
        valid: Vec<String>,
    },
    /// The scheduler queue was full — the caller should shed load (503).
    Saturated,
    /// The request's deadline budget expired before a result was ready —
    /// the caller should answer 504.
    DeadlineExceeded,
    /// The experiment panicked or the worker disappeared.
    Failed,
}

/// Why `GET /v1/scenario` produced no document. Maps to 409 / 404 / 503 /
/// 504 / 500 in declaration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioServeError {
    /// No scenario was registered at startup (`--scenario`).
    NotConfigured,
    /// The request named experiment ids the registry does not have.
    UnknownExperiments(Vec<String>),
    /// The scheduler queue was full — shed load (503).
    Saturated,
    /// The deadline budget expired before the comparison finished (504).
    DeadlineExceeded,
    /// The comparison failed or panicked; carries the detail.
    Failed(String),
}

/// What [`Engine::subscribe`] hands a new `/v1/stream` client: every
/// frame published so far, plus the channel future frames arrive on.
pub type FeedSubscription = (Vec<Arc<String>>, Receiver<Arc<String>>);

/// Which part this server plays in a replication cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Role {
    /// No replication configured — the single-node default.
    #[default]
    Standalone,
    /// Accepts writes and serves the `/v1/sync/*` endpoints.
    Leader,
    /// Syncs sealed batches from a leader and refuses writes with 421.
    Follower,
}

impl Role {
    /// Stable lowercase name used across the `/v1` surface.
    pub fn name(self) -> &'static str {
        match self {
            Role::Standalone => "standalone",
            Role::Leader => "leader",
            Role::Follower => "follower",
        }
    }
}

/// A follower's view of its own replication progress, serialised into
/// `/v1/cluster`, `/v1/healthz`, and `/v1/store`.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct SyncStatus {
    /// Last seal seq applied from the leader (or recovered locally).
    pub synced_seq: Option<u64>,
    /// Prefix fingerprint at that seal.
    pub synced_fingerprint: Option<String>,
    /// The leader's sealed tip as of the last manifest poll.
    pub leader_seq: Option<u64>,
    /// True once the leader has been unreachable long enough that served
    /// results must be assumed behind the cluster tip. The follower keeps
    /// serving — every body is still fingerprint-proven for the prefix it
    /// names — but readers can see the staleness here.
    pub stale: bool,
    /// The most recent sync failure, cleared on the next success.
    pub last_error: Option<String>,
}

/// Replication identity and leadership epoch. Since failover landed the
/// role is no longer fixed at construction — a promotion or adoption
/// rewrites it on a running node — so the identity half lives behind its
/// own lock, as the sync status always has (the sync runner writes that
/// from a background thread).
#[derive(Default)]
struct Replication {
    state: RwLock<ReplState>,
    sync: Mutex<SyncStatus>,
}

/// The mutable half of [`Replication`]: everything a promotion or an
/// adoption rewrites together, read together by `/v1/cluster`.
#[derive(Debug, Clone, Default)]
struct ReplState {
    role: Role,
    leader: Option<String>,
    peers: Vec<String>,
    /// The leadership epoch this node has persisted — the fencing token.
    /// Any coordination message carrying a lower epoch is refused, which
    /// is what demotes a revived old leader instead of split-braining.
    epoch: u64,
}

/// Why a promotion, adoption, or epoch observation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PromoteError {
    /// The proposed epoch is fenced off: not strictly above this node's
    /// epoch (promote), or below it (adopt). Carries the epoch this node
    /// holds so the caller can tell how far behind it is.
    StaleEpoch {
        /// The epoch this node has persisted.
        current: u64,
    },
    /// Leadership transitions only make sense on a live engine; a fixed
    /// snapshot has no stream to lead or follow.
    NotLive,
    /// The store refused to persist the new epoch. Nothing in memory was
    /// changed — the node still answers at its old epoch.
    Store(String),
}

impl std::fmt::Display for PromoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PromoteError::StaleEpoch { current } => {
                write!(f, "stale epoch: this node is at epoch {current}")
            }
            PromoteError::NotLive => write!(f, "engine is not live"),
            PromoteError::Store(d) => write!(f, "epoch not persisted: {d}"),
        }
    }
}

/// What [`Engine::apply_synced`] did with a fetched batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncApplied {
    /// The batch extended the local prefix to this seal seq.
    Applied(u64),
    /// The batch's seal was already in the local prefix (a resume
    /// re-fetch); nothing changed.
    Skipped(u64),
}

/// Why a fetched batch was not applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncApplyError {
    /// This engine serves a fixed snapshot; it cannot apply batches.
    NotLive,
    /// A frame failed CRC or did not parse — the bytes were damaged in
    /// flight (or by `segment_corrupt`); refetch the same seq.
    Corrupt(String),
    /// The batch seals further ahead than the local prefix; fetch the
    /// missing seqs first.
    Gap {
        /// The seal seq this engine needs next.
        expected: u64,
        /// The seal seq the batch carried.
        got: u64,
    },
    /// The locally replayed seal disagreed with the leader's recorded
    /// one — the prefixes have diverged and only a resync from scratch
    /// recovers. Fatal for the sync loop.
    Diverged(String),
}

impl std::fmt::Display for SyncApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncApplyError::NotLive => write!(f, "engine is not live"),
            SyncApplyError::Corrupt(d) => write!(f, "batch corrupt: {d}"),
            SyncApplyError::Gap { expected, got } => {
                write!(f, "sync gap: need seal {expected}, batch carries {got}")
            }
            SyncApplyError::Diverged(d) => write!(f, "prefix diverged: {d}"),
        }
    }
}

/// Why a leader could not export a sync batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncExportError {
    /// No durable store attached (sync requires `--data-dir`).
    NoStore,
    /// The seq is not in the log: never sealed, or compacted away.
    NotFound,
    /// The store failed to read the batch.
    Store(String),
}

/// Why an ingest batch was refused. Each maps to one HTTP status in the
/// front-end: 409, 400, 400, 429, 500 in declaration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// This engine serves a fixed snapshot; it has no live stream.
    NotLive,
    /// The NDJSON body failed to decode; carries the line-level error.
    Parse(String),
    /// A watermark found the pending buffer non-contiguous with the
    /// sealed prefix. Nothing was committed; the gap message names the
    /// first missing entity.
    Gap(String),
    /// The pending buffer would exceed the configured bound — the client
    /// should back off and retry after the next seal.
    Backpressure {
        /// Events already pending when the batch was refused.
        pending: usize,
    },
    /// A seal panicked before its commit stage (e.g. the `seal_panic`
    /// fault point); the engine state is unchanged and still usable.
    SealFailed,
}

/// What an accepted ingest batch did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// Events applied from the batch.
    pub events: usize,
    /// Watermarks that sealed (each swapped in a fresh snapshot).
    pub seals: usize,
    /// Events still buffered after the batch (awaiting a watermark).
    pub pending: usize,
    /// The store fingerprint after the batch settled.
    pub snapshot: String,
}

/// The live-ingestion half of an [`Engine`]: the stream engine behind a
/// mutex (ingest batches serialise), and the SSE feed. `feed.history`
/// holds every frame ever published so a late subscriber replays the
/// whole story before going live.
struct Live {
    stream: Mutex<LiveStream>,
    feed: Mutex<Feed>,
    max_pending_events: usize,
    /// What startup recovery replayed, kept for `GET /v1/store`.
    recovery: Option<RecoveryReport>,
}

/// Everything that must stay mutually consistent under the stream mutex:
/// the engine, an arrival-order mirror of its unsealed events, and the
/// durable log those events flush to when a watermark seals. The mirror
/// only fills when a store is attached; on a gap or a panicked seal it is
/// left exactly as the engine's pending buffers are — a later retry of
/// the same watermark persists the same batch.
struct LiveStream {
    engine: StreamEngine,
    unsealed: Vec<Event>,
    store: Option<SegmentLog>,
}

#[derive(Default)]
struct Feed {
    history: Vec<Arc<String>>,
    subscribers: Vec<Sender<Arc<String>>>,
}

/// How a submitted run ended, as reported over the result channel.
enum RunError {
    /// A cooperative checkpoint (or the pre-run check) saw the deadline
    /// expire; the slot was freed without a result.
    DeadlineExceeded,
    /// The experiment panicked; the worker caught it and lives on.
    Panicked,
}

/// An analyze call that has been admitted but not yet collected.
enum Pending {
    /// The cache already held the body; nothing was submitted.
    Cached(Arc<String>),
    /// The run is on the pool; `finish` blocks on the channel.
    Submitted {
        key: CacheKey,
        scope: EraScope,
        rx: Receiver<Result<String, RunError>>,
        started: Instant,
    },
}

/// The concurrent query engine behind the HTTP front-end.
///
/// The store sits behind an `RwLock<Arc<_>>` so a live seal can swap in
/// a fresh snapshot while readers keep the one they started with: an
/// analyze call pins its `Arc` once in `begin` and runs against that
/// snapshot to completion even if ingests land mid-flight.
pub struct Engine {
    store: RwLock<Arc<SnapshotStore>>,
    experiments: Vec<ServeExperiment>,
    scheduler: Scheduler,
    cache: ResultCache,
    metrics: Arc<Metrics>,
    params: String,
    seed: u64,
    lca_classes: usize,
    live: Option<Live>,
    replication: Replication,
    scenario: Option<ScenarioHandle>,
}

impl Engine {
    /// Assembles an engine: `threads` workers and a `queue_capacity`-slot
    /// admission queue in front of them.
    pub fn new(
        store: SnapshotStore,
        experiments: Vec<ServeExperiment>,
        threads: usize,
        queue_capacity: usize,
    ) -> Self {
        let ctx = store.context();
        let params = format!("seed={}&classes={}", ctx.seed, ctx.lca_classes);
        let (seed, lca_classes) = (ctx.seed, ctx.lca_classes);
        Self {
            store: RwLock::new(Arc::new(store)),
            experiments,
            scheduler: Scheduler::new(threads, queue_capacity),
            cache: ResultCache::new(),
            metrics: Arc::new(Metrics::new()),
            params,
            seed,
            lca_classes,
            live: None,
            replication: Replication::default(),
            scenario: None,
        }
    }

    /// Assembles a *live* engine: it starts from an empty snapshot and
    /// grows it through [`Engine::ingest`]; every seal swaps in a fresh
    /// fingerprinted store and pushes a frame to `/v1/stream`
    /// subscribers. `max_pending_events` bounds the unsealed buffer —
    /// batches that would exceed it are shed with
    /// [`IngestError::Backpressure`].
    pub fn new_live(
        seed: u64,
        lca_classes: usize,
        experiments: Vec<ServeExperiment>,
        threads: usize,
        queue_capacity: usize,
        max_pending_events: usize,
    ) -> Self {
        Self::live_engine(
            seed,
            lca_classes,
            experiments,
            threads,
            queue_capacity,
            max_pending_events,
            StreamEngine::new(),
            None,
            None,
        )
    }

    /// Assembles a live engine whose stream is durably mirrored into
    /// `store`: the engine starts from the recovered sealed prefix (its
    /// snapshot, seal history, and `/v1/stream` replay history are all
    /// rebuilt from it) and every future seal appends to the log. The
    /// recovery report stays visible via `GET /v1/store`.
    #[allow(clippy::too_many_arguments)]
    pub fn new_live_durable(
        seed: u64,
        lca_classes: usize,
        experiments: Vec<ServeExperiment>,
        threads: usize,
        queue_capacity: usize,
        max_pending_events: usize,
        store: SegmentLog,
        recovered: StreamEngine,
        report: RecoveryReport,
    ) -> Self {
        Self::live_engine(
            seed,
            lca_classes,
            experiments,
            threads,
            queue_capacity,
            max_pending_events,
            recovered,
            Some(store),
            Some(report),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn live_engine(
        seed: u64,
        lca_classes: usize,
        experiments: Vec<ServeExperiment>,
        threads: usize,
        queue_capacity: usize,
        max_pending_events: usize,
        stream: StreamEngine,
        store: Option<SegmentLog>,
        recovery: Option<RecoveryReport>,
    ) -> Self {
        let snapshot = sealed_snapshot(&stream, seed, lca_classes);
        let mut engine = Self::new(snapshot, experiments, threads, queue_capacity);
        if let Some(report) = &recovery {
            engine.metrics.store_recovered_seals.add(report.replayed_seals);
            engine.metrics.store_recovered_events.add(report.replayed_events);
        }
        // A durable node resumes at the epoch its manifest recorded, so a
        // restarted old leader comes back *fenced at its old epoch* and
        // the first higher-epoch message it sees demotes it.
        if let Some(log) = &store {
            // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
            engine.replication.state.write().expect("replication lock").epoch = log.epoch();
        }
        // A late subscriber must replay recovered history too: rebuild
        // the feed from the sealed deltas exactly as publishing them
        // live would have.
        let mut feed = Feed::default();
        for delta in stream.seals() {
            feed.history.extend(seal_frames(delta));
        }
        engine.live = Some(Live {
            stream: Mutex::new(LiveStream { engine: stream, unsealed: Vec::new(), store }),
            feed: Mutex::new(feed),
            max_pending_events,
            recovery,
        });
        engine
    }

    /// The snapshot store currently backing this engine. Callers get a
    /// pinned `Arc`: the snapshot it names stays valid even if a live
    /// seal swaps the engine to a newer one.
    pub fn store(&self) -> Arc<SnapshotStore> {
        // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
        Arc::clone(&self.store.read().expect("store lock"))
    }

    /// Whether this engine accepts `POST /v1/ingest` and serves
    /// `GET /v1/stream`.
    pub fn is_live(&self) -> bool {
        self.live.is_some()
    }

    /// The registered experiments, in registry order.
    pub fn experiments(&self) -> &[ServeExperiment] {
        &self.experiments
    }

    /// Live metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Canonical analysis parameters (part of every cache key).
    pub fn params(&self) -> &str {
        &self.params
    }

    /// Registers the scenario this engine serves at `GET /v1/scenario`.
    /// Called before the engine is shared (same discipline as
    /// [`Engine::set_role`]).
    pub fn set_scenario(&mut self, handle: ScenarioHandle) {
        self.scenario = Some(handle);
    }

    /// The registered scenario, if any.
    pub fn scenario(&self) -> Option<&ScenarioHandle> {
        self.scenario.as_ref()
    }

    /// Serves one `GET /v1/scenario` request: runs (or recalls) the
    /// registered scenario's comparison for `ids` (empty = the full
    /// registry) and returns the canonical document — byte-identical to
    /// `dial scenario run --json` on the same file.
    ///
    /// Cache keying differs from analyze on purpose: a comparison runs
    /// its *own* pair of simulations from the scenario file, so the
    /// document depends on the registration-time fingerprint, never on
    /// the served snapshot — live ingests do not invalidate it. That is
    /// also why the insert below bypasses `cache_insert_checked` (whose
    /// whole job is pinning keys to the current snapshot): the
    /// `scenario-` prefix keeps the two key families disjoint.
    pub fn scenario_json(
        &self,
        ids: &[String],
        deadline: Option<Instant>,
    ) -> Result<Arc<String>, ScenarioServeError> {
        let Some(handle) = &self.scenario else { return Err(ScenarioServeError::NotConfigured) };
        let key = CacheKey {
            snapshot: format!("scenario-{}", handle.fingerprint),
            experiment: if ids.is_empty() {
                "scenario".to_string()
            } else {
                format!("scenario?ids={}", ids.join(","))
            },
            params: self.params.clone(),
        };
        if let Some(body) = self.cache.get(&key) {
            self.metrics.cache_hits.inc();
            return Ok(body);
        }
        self.metrics.cache_misses.inc();

        let run = Arc::clone(&handle.run);
        let ids: Vec<String> = ids.to_vec();
        let metrics = Arc::clone(&self.metrics);
        let (tx, rx) = channel();
        self.scheduler
            .submit(move || {
                let result = if deadline.is_some_and(|d| Instant::now() >= d) {
                    Err(RunError::DeadlineExceeded)
                } else {
                    let unwound = dial_fault::deadline::with_deadline(deadline, || {
                        catch_unwind(AssertUnwindSafe(|| run(&ids)))
                    });
                    match unwound {
                        Ok(outcome) => Ok(outcome),
                        Err(payload)
                            if dial_fault::deadline::is_deadline_panic(payload.as_ref()) =>
                        {
                            Err(RunError::DeadlineExceeded)
                        }
                        Err(_) => {
                            metrics.panics_recovered.inc();
                            Err(RunError::Panicked)
                        }
                    }
                };
                let _ = tx.send(result);
            })
            .map_err(|_| ScenarioServeError::Saturated)?;

        let started = Instant::now();
        let result = match deadline {
            None => rx.recv().map_err(|_| ScenarioServeError::Failed("worker lost".into()))?,
            Some(d) => match rx.recv_timeout(d.saturating_duration_since(Instant::now())) {
                Ok(result) => result,
                Err(RecvTimeoutError::Timeout) => {
                    self.metrics.deadlines_exceeded.inc();
                    return Err(ScenarioServeError::DeadlineExceeded);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ScenarioServeError::Failed("worker lost".into()))
                }
            },
        };
        match result {
            Ok(Ok(body)) => {
                self.metrics.scenario_runs.inc();
                self.metrics.observe_latency("scenario", started.elapsed().as_secs_f64() * 1e3);
                Ok(self.cache.insert(key, body))
            }
            Ok(Err(ScenarioRunError::UnknownExperiments(unknown))) => {
                Err(ScenarioServeError::UnknownExperiments(unknown))
            }
            Ok(Err(ScenarioRunError::Failed(detail))) => Err(ScenarioServeError::Failed(detail)),
            Err(RunError::DeadlineExceeded) => {
                self.metrics.deadlines_exceeded.inc();
                Err(ScenarioServeError::DeadlineExceeded)
            }
            Err(RunError::Panicked) => {
                Err(ScenarioServeError::Failed("scenario comparison panicked".into()))
            }
        }
    }

    /// Runs (or recalls) one experiment, returning the complete response
    /// body. Bodies are byte-for-byte identical between the computing
    /// call and every later cache hit.
    pub fn analyze(&self, id: &str) -> Result<Arc<String>, AnalyzeError> {
        self.analyze_deadline(id, None)
    }

    /// [`Engine::analyze`] under an absolute deadline budget.
    pub fn analyze_deadline(
        &self,
        id: &str,
        deadline: Option<Instant>,
    ) -> Result<Arc<String>, AnalyzeError> {
        let pending = self.begin(id, deadline)?;
        self.finish(pending, deadline)
    }

    /// Runs (or recalls) several experiments concurrently, returning
    /// `(id, outcome)` pairs in request order.
    ///
    /// Validation is all-or-nothing: if *any* id is unknown, nothing is
    /// submitted and the whole batch fails with [`AnalyzeError::Unknown`].
    /// Likewise a saturated scheduler sheds the whole batch (already
    /// submitted jobs still finish and warm the cache). Per-experiment
    /// failures do not abort the rest — they come back as `Err` entries.
    #[allow(clippy::type_complexity)]
    pub fn analyze_many(
        &self,
        ids: &[String],
    ) -> Result<Vec<(String, Result<Arc<String>, AnalyzeError>)>, AnalyzeError> {
        self.analyze_many_deadline(ids, None)
    }

    /// [`Engine::analyze_many`] under one shared absolute deadline.
    #[allow(clippy::type_complexity)]
    pub fn analyze_many_deadline(
        &self,
        ids: &[String],
        deadline: Option<Instant>,
    ) -> Result<Vec<(String, Result<Arc<String>, AnalyzeError>)>, AnalyzeError> {
        if ids.iter().any(|id| !self.experiments.iter().any(|e| &e.id == id)) {
            return Err(AnalyzeError::Unknown {
                valid: self.experiments.iter().map(|e| e.id.clone()).collect(),
            });
        }
        // Fan out first (cache misses land on the shared pool), then
        // collect in request order; the calling thread only ever blocks
        // on jobs that are already admitted, so this cannot deadlock.
        let mut pending = Vec::with_capacity(ids.len());
        for id in ids {
            pending.push(self.begin(id, deadline)?);
        }
        Ok(ids.iter().cloned().zip(pending.into_iter().map(|p| self.finish(p, deadline))).collect())
    }

    /// Resolves `id`, consults the cache, and on a miss submits the run
    /// to the scheduler — without waiting for the result.
    fn begin(&self, id: &str, deadline: Option<Instant>) -> Result<Pending, AnalyzeError> {
        let Some(exp) = self.experiments.iter().find(|e| e.id == id) else {
            return Err(AnalyzeError::Unknown {
                valid: self.experiments.iter().map(|e| e.id.clone()).collect(),
            });
        };
        let store = self.store();
        let key = CacheKey {
            snapshot: scope_key(exp.scope, &store),
            experiment: exp.id.clone(),
            params: self.params.clone(),
        };
        if let Some(body) = self.cache.get(&key) {
            self.metrics.cache_hits.inc();
            return Ok(Pending::Cached(body));
        }
        self.metrics.cache_misses.inc();

        // Run on the shared pool; the caller blocks on the result in
        // `finish`. Two concurrent misses for the same key both compute —
        // the cache converges on the first insert and both answers are
        // identical, so the only cost is the duplicated work.
        let ctx = store.context();
        let run = Arc::clone(&exp.run);
        let metrics = Arc::clone(&self.metrics);
        let (tx, rx) = channel();
        self.scheduler
            .submit(move || {
                // A job whose budget is already spent when it reaches the
                // front of the queue frees its slot immediately.
                let result = if deadline.is_some_and(|d| Instant::now() >= d) {
                    Err(RunError::DeadlineExceeded)
                } else {
                    let unwound = dial_fault::deadline::with_deadline(deadline, || {
                        catch_unwind(AssertUnwindSafe(|| run(&ctx)))
                    });
                    match unwound {
                        Ok(json) => Ok(json),
                        Err(payload)
                            if dial_fault::deadline::is_deadline_panic(payload.as_ref()) =>
                        {
                            Err(RunError::DeadlineExceeded)
                        }
                        Err(_) => {
                            metrics.panics_recovered.inc();
                            Err(RunError::Panicked)
                        }
                    }
                };
                // Release the snapshot before answering: a reader that
                // has answered must not pin the sealed prefix the stream
                // engine's next seal wants to reuse.
                drop(ctx);
                // The receiver may have given up; a dead letter is fine.
                let _ = tx.send(result);
            })
            .map_err(|_| AnalyzeError::Saturated)?;
        Ok(Pending::Submitted { key, scope: exp.scope, rx, started: Instant::now() })
    }

    /// Blocks until a [`Pending`] run settles (or its deadline passes)
    /// and caches the body.
    fn finish(
        &self,
        pending: Pending,
        deadline: Option<Instant>,
    ) -> Result<Arc<String>, AnalyzeError> {
        let (key, scope, rx, started) = match pending {
            Pending::Cached(body) => return Ok(body),
            Pending::Submitted { key, scope, rx, started } => (key, scope, rx, started),
        };
        let result = match deadline {
            None => rx.recv().map_err(|_| AnalyzeError::Failed)?,
            Some(d) => match rx.recv_timeout(d.saturating_duration_since(Instant::now())) {
                Ok(result) => result,
                Err(RecvTimeoutError::Timeout) => {
                    // Non-cooperative run: answer 504 now; the job keeps
                    // its slot until it finishes, then goes uncollected.
                    self.metrics.deadlines_exceeded.inc();
                    return Err(AnalyzeError::DeadlineExceeded);
                }
                Err(RecvTimeoutError::Disconnected) => return Err(AnalyzeError::Failed),
            },
        };
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(result_json) => {
                self.metrics.observe_latency(&key.experiment, elapsed_ms);
                let body = format!(
                    "{{\"id\":{},\"snapshot\":{},\"params\":{},\"result\":{}}}",
                    json_str(&key.experiment),
                    json_str(&key.snapshot),
                    json_str(&key.params),
                    result_json,
                );
                // Chaos hook: attempt a tampered insert under a forged
                // fingerprint; the checked path below must reject it.
                if let Some(dial_fault::FaultAction::Poison) =
                    dial_fault::inject(dial_fault::FaultPoint::CachePoison)
                {
                    self.metrics.fault("poison");
                    let mut forged = key.clone();
                    forged.snapshot = format!("forged-{}", key.snapshot);
                    if self
                        .cache_insert_checked(scope, forged, "{\"tampered\":true}".into())
                        .is_err()
                    {
                        self.metrics.poison_rejected.inc();
                    }
                }
                // A refused legitimate insert means the snapshot advanced
                // while the run was in flight (live ingest). The body is
                // still a correct answer for the snapshot it names — serve
                // it, just don't let it key the new snapshot's cache.
                Ok(match self.cache_insert_checked(scope, key, body) {
                    Ok(shared) => shared,
                    Err(body) => Arc::new(body),
                })
            }
            Err(RunError::DeadlineExceeded) => {
                self.metrics.deadlines_exceeded.inc();
                Err(AnalyzeError::DeadlineExceeded)
            }
            Err(RunError::Panicked) => Err(AnalyzeError::Failed),
        }
    }

    /// The only write path into the result cache: refuses any key whose
    /// snapshot fingerprint or params disagree with this engine's
    /// *current* store, so a corrupted (or injected) writer cannot poison
    /// future readers — and a result computed against an already-swapped
    /// snapshot cannot masquerade as current. Refusal hands the body
    /// back to the caller.
    fn cache_insert_checked(
        &self,
        scope: EraScope,
        key: CacheKey,
        body: String,
    ) -> Result<Arc<String>, String> {
        if key.params != self.params || key.snapshot != scope_key(scope, &self.store()) {
            return Err(body);
        }
        Ok(self.cache.insert(key, body))
    }

    /// Applies one NDJSON batch to the live stream.
    ///
    /// Entity events buffer; each watermark seals the buffered month:
    /// the stream engine re-checks id density, appends to its dataset and
    /// ledger, and this engine then swaps in a freshly fingerprinted
    /// [`SnapshotStore`] and publishes the seal's delta (plus any era
    /// transition) to `/v1/stream` subscribers. Batches serialise on the
    /// stream mutex, so clients may post concurrently.
    pub fn ingest(&self, body: &str) -> Result<IngestReport, IngestError> {
        let Some(live) = &self.live else { return Err(IngestError::NotLive) };
        let events = match dial_stream::decode_ndjson(body) {
            Ok(events) => events,
            Err(e) => {
                self.metrics.ingest_rejected.inc();
                return Err(IngestError::Parse(e));
            }
        };
        // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
        let mut guard = live.stream.lock().expect("stream lock");
        let ls = &mut *guard;
        if ls.engine.pending_len() + events.len() > live.max_pending_events {
            self.metrics.ingest_rejected.inc();
            return Err(IngestError::Backpressure { pending: ls.engine.pending_len() });
        }
        self.metrics.ingest_batches.inc();
        let mut seals = 0usize;
        let mut applied = 0usize;
        for event in events {
            let sealing = matches!(event, Event::Watermark { .. });
            // Mirror events for the durable log: the mirror and the
            // engine's pending buffers move in lockstep, so a failed seal
            // leaves both ready for the retry.
            let mirror = ls.store.is_some().then(|| event.clone());
            let outcome = if sealing {
                // The `seal_panic` fault point fires before the seal's
                // commit stage; catching it here leaves the stream state
                // untouched and the engine fully usable.
                match catch_unwind(AssertUnwindSafe(|| ls.engine.apply(event))) {
                    Ok(outcome) => outcome,
                    Err(_) => {
                        self.metrics.panics_recovered.inc();
                        self.metrics.seal_failures.inc();
                        self.metrics.ingest_events.add(applied as u64);
                        return Err(IngestError::SealFailed);
                    }
                }
            } else {
                ls.engine.apply(event)
            };
            match outcome {
                Ok(None) => {
                    if let Some(ev) = mirror {
                        ls.unsealed.push(ev);
                    }
                }
                Ok(Some(delta)) => {
                    seals += 1;
                    self.metrics.seals_total.inc();
                    if let Some(ev) = mirror {
                        // The watermark rides at the end of its own batch
                        // so a recovery replay re-seals on it.
                        ls.unsealed.push(ev);
                    }
                    self.persist_seal(ls, &delta);
                    self.swap_in(&ls.engine);
                    self.publish(live, &delta);
                }
                Err(gap) => {
                    self.metrics.ingest_rejected.inc();
                    self.metrics.ingest_events.add(applied as u64);
                    return Err(IngestError::Gap(gap.to_string()));
                }
            }
            applied += 1;
        }
        self.metrics.ingest_events.add(applied as u64);
        Ok(IngestReport {
            events: applied,
            seals,
            pending: ls.engine.pending_len(),
            snapshot: self.store().fingerprint().to_string(),
        })
    }

    /// Publishes the stream's sealed prefix as the current snapshot. The
    /// old snapshot's handle is released here, which is what frees the
    /// stream engine's spare buffer for the next seal unless a reader
    /// still pins it.
    fn swap_in(&self, stream: &StreamEngine) {
        let store = Arc::new(sealed_snapshot(stream, self.seed, self.lca_classes));
        // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
        *self.store.write().expect("store lock") = store;
    }

    /// Flushes the just-sealed batch to the durable log (commit-then-log:
    /// the engine already owns the seal) and writes a checkpoint when the
    /// policy asks. Neither failure mode fails the ingest — the answer
    /// stays correct from memory — but both are counted, logged, and the
    /// log flips to degraded so `/v1/store` shows durability is gone.
    fn persist_seal(&self, ls: &mut LiveStream, delta: &SealDelta) {
        let Some(store) = ls.store.as_mut() else { return };
        let batch = std::mem::take(&mut ls.unsealed);
        match store.append_seal(&batch, delta) {
            Ok(()) => self.metrics.store_appends.inc(),
            Err(e) => {
                self.metrics.store_append_failures.inc();
                eprintln!(
                    "store append failed at seal {}: {e}; serving from memory, durability degraded",
                    delta.seq
                );
            }
        }
        if store.should_checkpoint(delta.seq) {
            let Some(ckpt) = Checkpoint::from_engine(&ls.engine) else { return };
            // The `ckpt_panic` fault fires before the write mutates
            // anything, so a panicked checkpoint is a clean no-op and the
            // next interval simply retries.
            match catch_unwind(AssertUnwindSafe(|| store.write_checkpoint(&ckpt))) {
                Ok(Ok(())) => self.metrics.store_checkpoints.inc(),
                Ok(Err(e)) => {
                    self.metrics.store_checkpoint_failures.inc();
                    eprintln!("store checkpoint failed at seal {}: {e}", delta.seq);
                }
                Err(_) => {
                    self.metrics.panics_recovered.inc();
                    self.metrics.store_checkpoint_failures.inc();
                    eprintln!(
                        "store checkpoint panicked at seal {}; retrying next interval",
                        delta.seq
                    );
                }
            }
        }
    }

    /// Configures this engine's replication role before it is shared.
    /// A follower's sync status starts at the locally recovered sealed
    /// tip, so a restarted follower resumes instead of refetching. For
    /// any other role the block stays empty: it reports *follower
    /// progress*, and a seeded value on a leader would freeze at the
    /// startup tip while ingestion moves on (the live tip is already in
    /// `/v1/cluster`'s `sealed_seq`).
    pub fn set_role(&mut self, role: Role, leader: Option<String>, peers: Vec<String>) {
        let mut sync = SyncStatus::default();
        if let (Role::Follower, Some(live)) = (role, &self.live) {
            // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
            let guard = live.stream.lock().expect("stream lock");
            if let Some(last) = guard.engine.seals().last() {
                sync.synced_seq = Some(last.seq);
                sync.synced_fingerprint = Some(last.fingerprint.clone());
            }
        }
        // The epoch survives role wiring: it was recovered from the
        // manifest before the role was known.
        // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
        let epoch = self.replication.state.read().expect("replication lock").epoch;
        self.replication = Replication {
            state: RwLock::new(ReplState { role, leader, peers, epoch }),
            sync: Mutex::new(sync),
        };
    }

    /// A snapshot of the replication identity, read under one lock so
    /// role/leader/epoch are mutually consistent.
    fn repl_state(&self) -> ReplState {
        // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
        self.replication.state.read().expect("replication lock").clone()
    }

    /// This engine's replication role.
    pub fn role(&self) -> Role {
        // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
        self.replication.state.read().expect("replication lock").role
    }

    /// The leadership epoch this node has persisted — its fencing token.
    pub fn epoch(&self) -> u64 {
        // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
        self.replication.state.read().expect("replication lock").epoch
    }

    /// The peer addresses this node can survey during a promotion.
    pub fn peers(&self) -> Vec<String> {
        // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
        self.replication.state.read().expect("replication lock").peers.clone()
    }

    /// Writes `epoch` into the durable manifest if a store is attached.
    /// Memory-only engines keep the epoch in `ReplState` alone — they
    /// lose it on restart exactly as they lose everything else.
    ///
    /// Callers hold the replication state write lock across this (state
    /// and manifest move together); that ordering is safe because no
    /// path acquires the state lock while holding the stream lock.
    fn persist_epoch(&self, epoch: u64) -> Result<(), PromoteError> {
        let Some(live) = &self.live else { return Ok(()) };
        // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
        let mut guard = live.stream.lock().expect("stream lock");
        if let Some(store) = guard.store.as_mut() {
            store.set_epoch(epoch).map_err(|e| PromoteError::Store(e.to_string()))?;
        }
        Ok(())
    }

    /// Takes leadership at `new_epoch`. The caller (the `/v1/promote`
    /// handler) has already surveyed reachable peers and established
    /// that this node holds the highest sealed tip; this method owns the
    /// fencing: the new epoch must be strictly above the persisted one,
    /// and it is written to the manifest *before* the role flips, so a
    /// crash mid-promotion leaves a node that simply retries — never two
    /// leaders at one epoch.
    pub fn promote(&self, new_epoch: u64) -> Result<u64, PromoteError> {
        if self.live.is_none() {
            return Err(PromoteError::NotLive);
        }
        // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
        let mut state = self.replication.state.write().expect("replication lock");
        if new_epoch <= state.epoch {
            self.metrics.epoch_rejections.inc();
            return Err(PromoteError::StaleEpoch { current: state.epoch });
        }
        self.persist_epoch(new_epoch)?;
        // The old leader, if one was configured, becomes a peer: when it
        // revives, the promotion survey and the router can still find it.
        if let Some(old) = state.leader.take() {
            if !state.peers.contains(&old) {
                state.peers.push(old);
            }
        }
        state.role = Role::Leader;
        state.epoch = new_epoch;
        drop(state);
        self.metrics.promotions.inc();
        // Leading means no sync target: clear follower progress so
        // `/v1/cluster` stops implying this node trails anyone.
        self.with_sync_status(|s| *s = SyncStatus::default());
        Ok(new_epoch)
    }

    /// Accepts `leader` as the cluster's leader at `epoch`, stepping down
    /// if this node was leading. Fencing: an adopt carrying an epoch
    /// *below* the persisted one is refused — that is exactly what a
    /// revived old leader must never accept silently, and the refusal
    /// tells the router to re-send at the real cluster epoch.
    pub fn adopt(&self, epoch: u64, leader: String) -> Result<(), PromoteError> {
        if self.live.is_none() {
            return Err(PromoteError::NotLive);
        }
        // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
        let mut state = self.replication.state.write().expect("replication lock");
        if epoch < state.epoch {
            self.metrics.epoch_rejections.inc();
            return Err(PromoteError::StaleEpoch { current: state.epoch });
        }
        self.persist_epoch(epoch)?;
        let was_leader = state.role == Role::Leader;
        state.peers.retain(|p| p != &leader);
        if let Some(old) = state.leader.take() {
            if old != leader && !state.peers.contains(&old) {
                state.peers.push(old);
            }
        }
        state.role = Role::Follower;
        state.leader = Some(leader);
        state.epoch = epoch;
        drop(state);
        if was_leader {
            self.metrics.demotions.inc();
        }
        // Seed follower progress from the local sealed tip so the sync
        // runner resumes from here instead of reporting from zero.
        let tip = self.live.as_ref().and_then(|live| {
            // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
            let guard = live.stream.lock().expect("stream lock");
            guard.engine.seals().last().map(|s| (s.seq, s.fingerprint.clone()))
        });
        self.with_sync_status(|s| {
            *s = SyncStatus::default();
            if let Some((seq, fp)) = tip {
                s.synced_seq = Some(seq);
                s.synced_fingerprint = Some(fp);
            }
        });
        Ok(())
    }

    /// Records proof that the cluster has reached `epoch` (e.g. a sync
    /// manifest from the leader). Only ever raises the local epoch; the
    /// fencing rejection of *lower* epochs belongs to whichever message
    /// carried them.
    pub fn observe_epoch(&self, epoch: u64) -> Result<(), PromoteError> {
        // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
        let mut state = self.replication.state.write().expect("replication lock");
        if epoch <= state.epoch {
            return Ok(());
        }
        self.persist_epoch(epoch)?;
        state.epoch = epoch;
        Ok(())
    }

    /// The simulation identity this engine serves: `(seed, lca_classes)`.
    /// A follower refuses to sync from a leader with a different one —
    /// replaying someone else's events would fingerprint-diverge anyway,
    /// but the mismatch should be named before any state is touched.
    pub fn identity(&self) -> (u64, usize) {
        (self.seed, self.lca_classes)
    }

    /// The leader address a follower syncs from (and redirects writes
    /// to). Owned: the underlying slot can be rewritten by a failover.
    pub fn leader_addr(&self) -> Option<String> {
        // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
        self.replication.state.read().expect("replication lock").leader.clone()
    }

    /// A copy of the current sync status.
    pub fn sync_status(&self) -> SyncStatus {
        // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
        self.replication.sync.lock().expect("sync lock").clone()
    }

    /// Mutates the sync status under its lock — how the sync runner
    /// reports leader polls, failures, and staleness.
    pub fn with_sync_status<R>(&self, f: impl FnOnce(&mut SyncStatus) -> R) -> R {
        // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
        f(&mut self.replication.sync.lock().expect("sync lock"))
    }

    /// Serves `GET /v1/sync/manifest`: what this leader's store can offer
    /// a follower. `None` without a durable store.
    pub fn sync_manifest_json(&self) -> Option<String> {
        let live = self.live.as_ref()?;
        // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
        let guard = live.stream.lock().expect("stream lock");
        let manifest = guard.store.as_ref()?.sync_manifest();
        // lint:allow(unwrap-in-serve): serialising an in-memory value; failure is a serde bug, not a request error
        Some(serde_json::to_string(&manifest).expect("sync manifest serialises"))
    }

    /// Serves `GET /v1/sync/segment/{seq}`: one sealed batch as the
    /// CRC-framed bytes it occupies on disk.
    pub fn export_sync_batch(&self, seq: u64) -> Result<Vec<u8>, SyncExportError> {
        let live = self.live.as_ref().ok_or(SyncExportError::NoStore)?;
        // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
        let guard = live.stream.lock().expect("stream lock");
        let store = guard.store.as_ref().ok_or(SyncExportError::NoStore)?;
        match store.export_batch(seq) {
            Ok(Some(bytes)) => Ok(bytes),
            Ok(None) => Err(SyncExportError::NotFound),
            Err(e) => Err(SyncExportError::Store(e.to_string())),
        }
    }

    /// Applies one fetched sync batch: decodes the CRC frames (rejecting
    /// the whole batch before any state is touched if a frame is
    /// damaged), replays the events through the stream engine under the
    /// fingerprint proof, persists the batch to this follower's own store
    /// (if one is attached), swaps in the sealed snapshot, and publishes
    /// the seal to `/v1/stream` subscribers — a synced seal is
    /// indistinguishable from an ingested one downstream.
    pub fn apply_synced(&self, bytes: &[u8]) -> Result<SyncApplied, SyncApplyError> {
        let live = self.live.as_ref().ok_or(SyncApplyError::NotLive)?;
        let corrupt = |d: String| SyncApplyError::Corrupt(d);
        let mut events: Vec<Event> = Vec::new();
        let mut recorded: Option<SealDelta> = None;
        let mut off = 0usize;
        while off < bytes.len() {
            let (kind, payload, next) = dial_store::frame::decode(bytes, off)
                .map_err(|e| corrupt(format!("frame at byte {off}: {e}")))?;
            let text = std::str::from_utf8(payload)
                .map_err(|e| corrupt(format!("frame payload at byte {off}: {e}")))?;
            if recorded.is_some() {
                return Err(corrupt("frames after the seal record".into()));
            }
            if kind == dial_store::frame::KIND_EVENT {
                let ev = serde_json::from_str::<Event>(text)
                    .map_err(|e| corrupt(format!("event record: {e}")))?;
                events.push(ev);
            } else {
                let delta = serde_json::from_str::<SealDelta>(text)
                    .map_err(|e| corrupt(format!("seal record: {e}")))?;
                recorded = Some(delta);
            }
            off = next;
        }
        let recorded = recorded.ok_or_else(|| corrupt("batch carries no seal record".into()))?;

        // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
        let mut guard = live.stream.lock().expect("stream lock");
        let ls = &mut *guard;
        let local = ls.engine.seals().len() as u64;
        if recorded.seq < local {
            return Ok(SyncApplied::Skipped(recorded.seq));
        }
        if recorded.seq > local {
            return Err(SyncApplyError::Gap { expected: local, got: recorded.seq });
        }
        let mirror = ls.store.is_some().then(|| events.clone());
        let delta = ls.engine.apply_sealed(events, &recorded).map_err(SyncApplyError::Diverged)?;
        self.metrics.seals_total.inc();
        if let Some(evs) = mirror {
            ls.unsealed.extend(evs);
        }
        self.persist_seal(ls, &delta);
        self.swap_in(&ls.engine);
        drop(guard);
        self.publish(live, &delta);
        self.with_sync_status(|s| {
            s.synced_seq = Some(delta.seq);
            s.synced_fingerprint = Some(delta.fingerprint.clone());
        });
        Ok(SyncApplied::Applied(delta.seq))
    }

    /// The sealed tip: last seal seq (live engines only) and the current
    /// store fingerprint.
    pub fn sealed_tip(&self) -> (Option<u64>, String) {
        let seq = self.live.as_ref().and_then(|live| {
            // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
            live.stream.lock().expect("stream lock").engine.seals().last().map(|s| s.seq)
        });
        (seq, self.store().fingerprint().to_string())
    }

    /// JSON body for `GET /v1/cluster`: this node's role, its peers, and
    /// its replication progress.
    pub fn cluster_json(&self) -> String {
        let (sealed_seq, fingerprint) = self.sealed_tip();
        let sync = self.sync_status();
        let state = self.repl_state();
        format!(
            "{{\"version\":3,\"role\":{},\"leader\":{},\"epoch\":{},\"peers\":{},\"sealed_seq\":{},\"sealed_fingerprint\":{},\"sync\":{}}}",
            json_str(state.role.name()),
            state.leader.as_deref().map_or("null".to_string(), json_str),
            state.epoch,
            // lint:allow(unwrap-in-serve): serialising an in-memory value; failure is a serde bug, not a request error
            serde_json::to_string(&state.peers).expect("peers serialise"),
            sealed_seq.map_or("null".to_string(), |s| s.to_string()),
            json_str(&fingerprint),
            // lint:allow(unwrap-in-serve): serialising an in-memory value; failure is a serde bug, not a request error
            serde_json::to_string(&sync).expect("sync status serialises"),
        )
    }

    /// Events buffered but unsealed on the live stream — what a drain
    /// reports as *not* persisted (seal-or-nothing durability). `None` on
    /// a snapshot engine.
    pub fn pending_events(&self) -> Option<usize> {
        let live = self.live.as_ref()?;
        // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
        Some(live.stream.lock().expect("stream lock").engine.pending_len())
    }

    /// JSON body for `GET /v1/store` (schema v2): live store stats plus
    /// what startup recovery replayed — the v1 fields — joined by the
    /// node's role and sync status. `None` when no durable store is
    /// attached.
    pub fn store_status(&self) -> Option<String> {
        let live = self.live.as_ref()?;
        // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
        let guard = live.stream.lock().expect("stream lock");
        let stats = guard.store.as_ref()?.stats();
        drop(guard);
        // lint:allow(unwrap-in-serve): serialising an in-memory value; failure is a serde bug, not a request error
        let stats_json = serde_json::to_string(&stats).expect("store stats serialise");
        let recovery_json = match &live.recovery {
            // lint:allow(unwrap-in-serve): serialising an in-memory value; failure is a serde bug, not a request error
            Some(report) => serde_json::to_string(report).expect("recovery report serialises"),
            None => "null".to_string(),
        };
        // lint:allow(unwrap-in-serve): serialising an in-memory value; failure is a serde bug, not a request error
        let sync_json = serde_json::to_string(&self.sync_status()).expect("sync serialises");
        Some(format!(
            "{{\"version\":2,\"role\":{},\"stats\":{stats_json},\"recovery\":{recovery_json},\"sync\":{sync_json}}}",
            json_str(self.role().name()),
        ))
    }

    /// Subscribes to the live feed: returns every frame published so far
    /// plus a receiver for frames to come, atomically (no frame is lost
    /// or duplicated between the two). `None` on a snapshot engine.
    pub fn subscribe(&self) -> Option<FeedSubscription> {
        let live = self.live.as_ref()?;
        let (tx, rx) = channel();
        // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
        let mut feed = live.feed.lock().expect("feed lock");
        let history = feed.history.clone();
        feed.subscribers.push(tx);
        Some((history, rx))
    }

    /// Publishes a seal's SSE frames: an `era` frame when the seal
    /// crossed an era boundary, then the `seal` delta itself.
    fn publish(&self, live: &Live, delta: &SealDelta) {
        let frames = seal_frames(delta);
        // lint:allow(unwrap-in-serve): lock poisoning means a sibling already panicked; propagating is the designed failure mode
        let mut feed = live.feed.lock().expect("feed lock");
        for frame in frames {
            // Dead subscribers (dropped receivers) are pruned on send.
            feed.subscribers.retain(|tx| tx.send(Arc::clone(&frame)).is_ok());
            feed.history.push(frame);
        }
    }

    /// Stops the worker pool, finishing queued work first.
    pub fn shutdown(&self) {
        self.scheduler.shutdown();
    }

    /// [`Engine::shutdown`] bounded by a deadline: jobs still uncollected
    /// when it passes are abandoned and their ids returned (also counted
    /// in the metrics).
    pub fn shutdown_within(&self, deadline: Option<Instant>) -> Vec<u64> {
        let abandoned = self.scheduler.shutdown_within(deadline);
        self.metrics.drain_abandoned_jobs.add(abandoned.len() as u64);
        abandoned
    }
}

/// A snapshot over the stream's sealed prefix: it shares the prefix
/// rather than copying it.
fn sealed_snapshot(stream: &StreamEngine, seed: u64, lca_classes: usize) -> SnapshotStore {
    let (dataset, ledger) = stream.shared();
    SnapshotStore::from_parts(dataset, ledger, seed, lca_classes)
}

/// The SSE frames one seal publishes: an `era` frame when it crossed an
/// era boundary, then the `seal` delta. Shared by live publishing and by
/// feed-history reconstruction after recovery, so a subscriber cannot
/// tell whether history was witnessed or replayed.
fn seal_frames(delta: &SealDelta) -> Vec<Arc<String>> {
    let mut frames: Vec<Arc<String>> = Vec::with_capacity(2);
    if let Some(t) = &delta.era_transition {
        let data = format!(
            "{{\"month\":{},\"transition\":{}}}",
            // lint:allow(unwrap-in-serve): serialising an in-memory value; failure is a serde bug, not a request error
            serde_json::to_string(&delta.month).expect("months serialise"),
            // lint:allow(unwrap-in-serve): serialising an in-memory value; failure is a serde bug, not a request error
            serde_json::to_string(t).expect("transitions serialise"),
        );
        frames.push(Arc::new(format!("event: era\ndata: {data}\n\n")));
    }
    frames.push(Arc::new(format!("event: seal\ndata: {}\n\n", delta.to_json())));
    frames
}

/// JSON string literal for `s` (quotes + escaping).
fn json_str(s: &str) -> String {
    // lint:allow(unwrap-in-serve): serialising an in-memory value; failure is a serde bug, not a request error
    serde_json::to_string(&s).expect("strings serialise")
}

/// The cache-key snapshot component for an experiment scope: the full
/// store fingerprint for whole-window readers, that era's content hash
/// for era-scoped ones. The era prefix keeps the two key families
/// disjoint.
fn scope_key(scope: EraScope, store: &SnapshotStore) -> String {
    match scope {
        EraScope::All => store.fingerprint().to_string(),
        EraScope::Era(era) => {
            format!("era-{}-{:016x}", era.short_label(), store.era_fingerprint(era))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeExperiment;
    use dial_sim::SimConfig;
    use std::time::Duration;

    fn tiny_engine(threads: usize, queue: usize) -> Engine {
        let out = SimConfig::paper_default().with_seed(5).with_scale(0.01).simulate_full();
        let store = SnapshotStore::from_parts(out.dataset, out.ledger, 5, 4);
        Engine::new(store, crate::registry_experiments(), threads, queue)
    }

    #[test]
    fn analyze_computes_then_hits_cache_with_identical_bodies() {
        let engine = tiny_engine(2, 8);
        let first = engine.analyze("table1").unwrap();
        let second = engine.analyze("table1").unwrap();
        assert_eq!(first.as_str(), second.as_str());
        let m = engine.metrics();
        assert_eq!(m.cache_misses.get(), 1);
        assert_eq!(m.cache_hits.get(), 1);
        assert_eq!(m.latency_ms.lock().unwrap()["table1"].count, 1);
        // The body is a valid JSON envelope around the result.
        let v: serde_json::Value = serde_json::from_str(&first).unwrap();
        assert_eq!(v.get("id").as_str(), Some("table1"));
        assert!(v.as_object().is_some_and(|o| o.contains_key("result")));
    }

    #[test]
    fn unknown_id_lists_valid_experiments() {
        let engine = tiny_engine(1, 4);
        match engine.analyze("nope") {
            Err(AnalyzeError::Unknown { valid }) => {
                assert!(valid.iter().any(|v| v == "table1"));
                assert!(valid.iter().any(|v| v == "ext-mixing"));
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn analyze_many_returns_results_in_request_order() {
        let engine = tiny_engine(2, 8);
        let ids = vec!["table2".to_string(), "table1".to_string(), "table2".to_string()];
        let results = engine.analyze_many(&ids).unwrap();
        assert_eq!(results.len(), 3);
        for ((id, body), want) in results.iter().zip(&ids) {
            assert_eq!(id, want);
            let v: serde_json::Value = serde_json::from_str(body.as_ref().unwrap()).unwrap();
            assert_eq!(v.get("id").as_str(), Some(want.as_str()));
        }
        // The duplicated id computes at most once thanks to the cache
        // (the second occurrence may race the first, so only the bodies
        // are asserted identical).
        assert_eq!(results[0].1.as_ref().unwrap(), results[2].1.as_ref().unwrap());
    }

    #[test]
    fn analyze_many_rejects_the_whole_batch_on_one_unknown_id() {
        let engine = tiny_engine(2, 8);
        let ids = vec!["table1".to_string(), "nope".to_string()];
        match engine.analyze_many(&ids) {
            Err(AnalyzeError::Unknown { valid }) => {
                assert!(valid.iter().any(|v| v == "table1"));
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
        // Nothing was submitted: no cache misses were recorded.
        assert_eq!(engine.metrics().cache_misses.get(), 0);
    }

    fn custom_engine(experiments: Vec<ServeExperiment>, threads: usize, queue: usize) -> Engine {
        let out = SimConfig::paper_default().with_seed(5).with_scale(0.01).simulate_full();
        let store = SnapshotStore::from_parts(out.dataset, out.ledger, 5, 4);
        Engine::new(store, experiments, threads, queue)
    }

    fn constant_experiment(id: &str) -> ServeExperiment {
        ServeExperiment {
            id: id.into(),
            title: "constant".into(),
            paper_claim: String::new(),
            scope: EraScope::All,
            run: Arc::new(|_| "{\"fine\":true}".to_string()),
        }
    }

    #[test]
    fn panicking_experiment_reports_failed_not_poisoned() {
        let boom = ServeExperiment {
            id: "boom".into(),
            title: "always panics".into(),
            paper_claim: String::new(),
            scope: EraScope::All,
            run: Arc::new(|_| panic!("injected failure")),
        };
        let engine = custom_engine(vec![boom, constant_experiment("ok")], 1, 4);
        assert_eq!(engine.analyze("boom"), Err(AnalyzeError::Failed));
        assert_eq!(engine.metrics().panics_recovered.get(), 1);
        // The worker survives the panic and keeps serving.
        assert!(engine.analyze("ok").is_ok());
    }

    #[test]
    fn cooperative_deadline_frees_the_slot_for_the_next_request() {
        // The experiment sleeps in short hops, volunteering cancellation
        // between them; with a 60ms budget it must give up early.
        let coop = ServeExperiment {
            id: "coop".into(),
            title: "cooperative sleeper".into(),
            paper_claim: String::new(),
            scope: EraScope::All,
            run: Arc::new(|_| {
                for _ in 0..100 {
                    std::thread::sleep(Duration::from_millis(10));
                    dial_fault::deadline::checkpoint();
                }
                "{\"slept\":true}".to_string()
            }),
        };
        // One running slot, zero queue: a burnt slot would starve the
        // follow-up request entirely.
        let engine = custom_engine(vec![coop, constant_experiment("fast")], 1, 0);
        let deadline = Instant::now() + Duration::from_millis(60);
        let begun = Instant::now();
        let out = engine.analyze_deadline("coop", Some(deadline));
        assert_eq!(out, Err(AnalyzeError::DeadlineExceeded));
        assert!(
            begun.elapsed() < Duration::from_millis(160),
            "504 must land within deadline + 100ms, took {:?}",
            begun.elapsed()
        );
        assert_eq!(engine.metrics().deadlines_exceeded.get(), 1);
        // The slot frees at the run's next checkpoint (within one 10ms
        // hop); retry briefly rather than racing it.
        let retry = dial_fault::retry::RetryPolicy::quick(7);
        let follow_up = retry.run(|_| {
            engine.analyze_deadline("fast", Some(Instant::now() + Duration::from_secs(5)))
        });
        assert!(follow_up.is_ok(), "slot not reusable: {follow_up:?}");
    }

    #[test]
    fn expired_deadline_skips_the_run_entirely() {
        let engine = custom_engine(vec![constant_experiment("fast")], 1, 4);
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(
            engine.analyze_deadline("fast", Some(past)),
            Err(AnalyzeError::DeadlineExceeded)
        );
        // Without a deadline the same experiment runs fine afterwards.
        assert!(engine.analyze("fast").is_ok());
    }

    fn scoped_experiment(id: &str, scope: EraScope) -> ServeExperiment {
        ServeExperiment {
            id: id.into(),
            title: "scoped constant".into(),
            paper_claim: String::new(),
            scope,
            run: Arc::new(|_| "{\"fine\":true}".to_string()),
        }
    }

    #[test]
    fn snapshot_engine_rejects_ingest_and_stream() {
        let engine = tiny_engine(1, 4);
        assert!(!engine.is_live());
        assert_eq!(engine.ingest(""), Err(IngestError::NotLive));
        assert!(engine.subscribe().is_none());
    }

    #[test]
    fn live_ingest_seals_swap_snapshots_and_publish_frames() {
        let engine = Engine::new_live(9, 3, crate::registry_experiments(), 2, 8, 1 << 20);
        assert!(engine.is_live());
        let empty_fp = engine.store().fingerprint().to_string();
        let (history, rx) = engine.subscribe().unwrap();
        assert!(history.is_empty(), "no frames before the first seal");

        let out = SimConfig::paper_default().with_seed(9).with_scale(0.01).simulate_full();
        let segs = dial_stream::segments(&out);
        let report = engine.ingest(&dial_stream::encode_ndjson(&segs[0])).unwrap();
        assert_eq!(report.seals, 1);
        assert_eq!(report.pending, 0);
        assert_ne!(report.snapshot, empty_fp, "the seal must swap in a new snapshot");
        assert_eq!(engine.store().fingerprint(), report.snapshot);

        // The first seal enters SET-UP: an era frame, then the seal frame.
        let era_frame = rx.try_recv().expect("era frame");
        assert!(era_frame.starts_with("event: era\n"), "got {era_frame}");
        let seal_frame = rx.try_recv().expect("seal frame");
        assert!(seal_frame.starts_with("event: seal\n"), "got {seal_frame}");

        // A late subscriber replays the same two frames from history.
        let (history, _rx2) = engine.subscribe().unwrap();
        assert_eq!(history.len(), 2);
        assert_eq!(history[0].as_str(), era_frame.as_str());

        // Analysis runs against the freshly sealed snapshot.
        assert!(engine.analyze("table1").is_ok());
        let m = engine.metrics();
        assert_eq!(m.seals_total.get(), 1);
        assert_eq!(m.ingest_batches.get(), 1);
        assert_eq!(m.ingest_events.get() as usize, segs[0].len());
    }

    #[test]
    fn over_full_pending_buffer_sheds_the_batch() {
        let engine = Engine::new_live(9, 3, Vec::new(), 1, 4, 8);
        let out = SimConfig::paper_default().with_seed(9).with_scale(0.01).simulate_full();
        let segs = dial_stream::segments(&out);
        assert!(segs[0].len() > 8, "the first month must overflow the tiny buffer");
        match engine.ingest(&dial_stream::encode_ndjson(&segs[0])) {
            Err(IngestError::Backpressure { pending }) => assert_eq!(pending, 0),
            other => panic!("expected Backpressure, got {other:?}"),
        }
        // Nothing was applied; a retry after raising nothing still fails
        // identically, and the stream state is untouched.
        assert_eq!(engine.metrics().ingest_rejected.get(), 1);
        assert_eq!(engine.metrics().ingest_events.get(), 0);
    }

    #[test]
    fn malformed_ndjson_rejects_the_whole_batch() {
        let engine = Engine::new_live(9, 3, Vec::new(), 1, 4, 1 << 20);
        match engine.ingest("{\"not\":\"an event\"}\n") {
            Err(IngestError::Parse(msg)) => assert!(msg.contains("line 1"), "got {msg}"),
            other => panic!("expected Parse, got {other:?}"),
        }
        assert_eq!(engine.metrics().ingest_rejected.get(), 1);
    }

    #[test]
    fn era_scoped_cache_entries_survive_unrelated_ingests() {
        use dial_stream::Event;
        use dial_time::Era;

        let engine = Engine::new_live(
            9,
            3,
            vec![
                scoped_experiment("setup-view", EraScope::Era(Era::SetUp)),
                scoped_experiment("covid-view", EraScope::Era(Era::Covid19)),
            ],
            2,
            8,
            1 << 20,
        );
        let out = SimConfig::paper_default().with_seed(9).with_scale(0.01).simulate_full();
        let segs = dial_stream::segments(&out);
        // The first three study months are all deep inside SET-UP.
        for seg in &segs[..3] {
            let Some(Event::Watermark { month }) = seg.last() else { panic!("no watermark") };
            assert_eq!(Era::of_month(*month), Some(Era::SetUp));
        }

        for seg in &segs[..2] {
            engine.ingest(&dial_stream::encode_ndjson(seg)).unwrap();
        }
        engine.analyze("setup-view").unwrap();
        engine.analyze("covid-view").unwrap();
        let m = engine.metrics();
        assert_eq!((m.cache_misses.get(), m.cache_hits.get()), (2, 0));

        // Month 3 touches only the SET-UP slice: the SET-UP reader's
        // entry must be invalidated, the COVID-19 reader's must survive.
        engine.ingest(&dial_stream::encode_ndjson(&segs[2])).unwrap();
        engine.analyze("setup-view").unwrap();
        engine.analyze("covid-view").unwrap();
        assert_eq!(m.cache_misses.get(), 3, "setup entry must miss");
        assert_eq!(m.cache_hits.get(), 1, "covid entry must survive");
    }

    #[test]
    fn synced_follower_reproduces_leader_bodies_byte_for_byte() {
        use dial_store::{MemBackend, SegmentLog, StoreOptions, SyncManifest};

        // Leader: live + durable (sync needs a store to export from).
        let opts = StoreOptions::new(9, 3).with_checkpoint_interval(0);
        let (log, stream, report) = SegmentLog::open(Box::new(MemBackend::new()), opts).unwrap();
        let mut leader = Engine::new_live_durable(
            9,
            3,
            crate::registry_experiments(),
            2,
            8,
            1 << 20,
            log,
            stream,
            report,
        );
        leader.set_role(Role::Leader, None, vec!["f1:0".into()]);
        let out = SimConfig::paper_default().with_seed(9).with_scale(0.01).simulate_full();
        for seg in dial_stream::segments(&out) {
            leader.ingest(&dial_stream::encode_ndjson(&seg)).unwrap();
        }

        let manifest: SyncManifest =
            serde_json::from_str(&leader.sync_manifest_json().unwrap()).unwrap();
        assert_eq!(manifest.base_seq, Some(0));
        let tip = manifest.sealed_seq.unwrap();
        assert_eq!(tip as usize, out.marks.len() - 1);

        // Follower: volatile live engine fed only exported batches.
        let mut follower = Engine::new_live(9, 3, crate::registry_experiments(), 2, 8, 1 << 20);
        follower.set_role(Role::Follower, Some("leader:0".into()), Vec::new());
        for seq in 0..=tip {
            let bytes = leader.export_sync_batch(seq).unwrap();
            assert_eq!(follower.apply_synced(&bytes), Ok(SyncApplied::Applied(seq)));
        }

        // Byte-identical serving at the same watermark.
        assert_eq!(
            leader.analyze("table1").unwrap().as_str(),
            follower.analyze("table1").unwrap().as_str()
        );
        assert_eq!(leader.store().fingerprint(), follower.store().fingerprint());

        // A resume re-fetch is skipped, not re-applied.
        let bytes = leader.export_sync_batch(0).unwrap();
        assert_eq!(follower.apply_synced(&bytes), Ok(SyncApplied::Skipped(0)));

        // A damaged fetch is rejected before any state is touched.
        let mut bad = leader.export_sync_batch(tip).unwrap();
        bad[3] ^= 0xFF;
        assert!(matches!(follower.apply_synced(&bad), Err(SyncApplyError::Corrupt(_))));

        // A batch from the future is a gap.
        let mut fresh = Engine::new_live(9, 3, Vec::new(), 1, 4, 1 << 20);
        fresh.set_role(Role::Follower, Some("leader:0".into()), Vec::new());
        let ahead = leader.export_sync_batch(1).unwrap();
        assert_eq!(fresh.apply_synced(&ahead), Err(SyncApplyError::Gap { expected: 0, got: 1 }));

        // /v1/cluster reflects role and progress.
        let v: serde_json::Value = serde_json::from_str(&follower.cluster_json()).unwrap();
        assert_eq!(v.get("role").as_str(), Some("follower"));
        assert_eq!(v.get("leader").as_str(), Some("leader:0"));
        assert_eq!(v.get("sealed_seq").as_u64(), Some(tip));
        assert_eq!(v.get("sync").get("synced_seq").as_u64(), Some(tip));
        assert_eq!(v.get("sync").get("stale").as_bool(), Some(false));
        let lv: serde_json::Value = serde_json::from_str(&leader.cluster_json()).unwrap();
        assert_eq!(lv.get("role").as_str(), Some("leader"));
        let peers = lv.get("peers").as_array().expect("peers is an array");
        assert_eq!(peers.first().and_then(|p| p.as_str()), Some("f1:0"));

        // /v1/store carries the v2 role + sync blocks, old fields intact.
        let sv: serde_json::Value = serde_json::from_str(&leader.store_status().unwrap()).unwrap();
        assert_eq!(sv.get("version").as_u64(), Some(2));
        assert_eq!(sv.get("role").as_str(), Some("leader"));
        assert!(sv.get("stats").get("sealed_seq").as_u64().is_some());
        assert!(sv.as_object().is_some_and(|o| o.contains_key("sync")));
    }

    /// Whether the served snapshot is the stream engine's own sealed
    /// prefix, not a copy of it, and how many seals so far copied the
    /// whole prefix. Every handle taken here is released on return.
    fn publishes_shared_prefix(engine: &Engine) -> (bool, u64) {
        let ctx = engine.store().context();
        let live = engine.live.as_ref().expect("live engine");
        let guard = live.stream.lock().unwrap();
        let (dataset, ledger) = guard.engine.shared();
        let shared = Arc::ptr_eq(&ctx.dataset, &dataset) && Arc::ptr_eq(&ctx.ledger, &ledger);
        (shared, guard.engine.prefix_copies())
    }

    #[test]
    fn live_seals_publish_the_sealed_prefix_without_copying_it() {
        let engine = Engine::new_live(9, 3, Vec::new(), 1, 4, 1 << 20);
        assert_eq!(publishes_shared_prefix(&engine), (true, 0), "the empty prefix is shared");
        let out = SimConfig::paper_default().with_seed(9).with_scale(0.01).simulate_full();
        for seg in dial_stream::segments(&out) {
            engine.ingest(&dial_stream::encode_ndjson(&seg)).unwrap();
            // Only the first seal after the prefix was first shared has
            // no spare to catch up, so it is the one full copy.
            assert_eq!(publishes_shared_prefix(&engine), (true, 1));
        }
        let (batch, _) = dial_stream::replay_sealed(dial_stream::segments(&out)).unwrap();
        assert_eq!(engine.store().fingerprint(), sealed_snapshot(&batch, 9, 3).fingerprint());
    }

    #[test]
    fn a_pinned_snapshot_forces_a_full_copy_and_stays_exact() {
        let out = SimConfig::paper_default().with_seed(9).with_scale(0.01).simulate_full();
        let segs = dial_stream::segments(&out);
        let (_, reference) = dial_stream::replay_sealed(segs.clone()).unwrap();
        let table1 = crate::registry_experiments().into_iter().find(|e| e.id == "table1").unwrap();
        let engine = Engine::new_live(9, 3, Vec::new(), 1, 4, 1 << 20);
        let ingest = |m: usize| {
            let report = engine.ingest(&dial_stream::encode_ndjson(&segs[m])).unwrap();
            assert_eq!(report.snapshot, reference[m].fingerprint, "seal {m}");
        };
        let k = 3;
        for m in 0..k {
            ingest(m);
        }
        let pinned = engine.store();
        let (batch, _) = dial_stream::replay_sealed(segs[..k].iter().cloned()).unwrap();
        let batch = sealed_snapshot(&batch, 9, 3);
        let body = (table1.run)(&pinned.context());
        assert_eq!(body, (table1.run)(&batch.context()));
        assert_eq!(publishes_shared_prefix(&engine), (true, 1));

        // Seal k+1 catches up the spare; seal k+2 finds the spare pinned
        // by this reader and copies the whole prefix instead.
        ingest(k);
        assert_eq!(publishes_shared_prefix(&engine), (true, 1));
        ingest(k + 1);
        assert_eq!(publishes_shared_prefix(&engine), (true, 2));
        assert_eq!(pinned.fingerprint(), batch.fingerprint());
        assert_eq!((table1.run)(&pinned.context()), body);

        // Once the reader lets go, later seals go back to O(delta).
        drop(pinned);
        for m in k + 2..segs.len() {
            ingest(m);
            assert_eq!(publishes_shared_prefix(&engine), (true, 2));
        }
    }

    #[test]
    fn a_follower_without_readers_copies_the_prefix_once() {
        use dial_store::{MemBackend, SegmentLog, StoreOptions};

        let opts = StoreOptions::new(9, 3);
        let (log, stream, report) = SegmentLog::open(Box::new(MemBackend::new()), opts).unwrap();
        let leader = Engine::new_live_durable(9, 3, Vec::new(), 1, 4, 1 << 20, log, stream, report);
        let out = SimConfig::paper_default().with_seed(9).with_scale(0.01).simulate_full();
        let segs = dial_stream::segments(&out);
        for seg in &segs {
            leader.ingest(&dial_stream::encode_ndjson(seg)).unwrap();
        }
        // The leader's checkpoints share the prefix too.
        assert_eq!(publishes_shared_prefix(&leader), (true, 1));

        let follower = Engine::new_live(9, 3, Vec::new(), 1, 4, 1 << 20);
        for seq in 0..segs.len() as u64 {
            let bytes = leader.export_sync_batch(seq).unwrap();
            assert_eq!(follower.apply_synced(&bytes), Ok(SyncApplied::Applied(seq)));
            assert_eq!(publishes_shared_prefix(&follower), (true, 1), "seal {seq}");
        }
        assert_eq!(follower.store().fingerprint(), leader.store().fingerprint());
    }

    #[test]
    fn forged_fingerprint_inserts_are_rejected() {
        let engine = custom_engine(vec![constant_experiment("fast")], 1, 4);
        let body = engine.analyze("fast").unwrap();
        let forged = CacheKey {
            snapshot: "not-the-real-fingerprint".into(),
            experiment: "fast".into(),
            params: engine.params().to_string(),
        };
        assert!(engine
            .cache_insert_checked(EraScope::All, forged, "{\"tampered\":true}".into())
            .is_err());
        // The legitimate entry is untouched.
        assert_eq!(engine.analyze("fast").unwrap().as_str(), body.as_str());
    }
}
