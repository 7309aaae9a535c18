//! dial-serve: a concurrent analytics server over dial snapshots.
//!
//! The batch pipelines elsewhere in this workspace answer one question per
//! process. This crate turns them into a long-running query service with
//! four layers, each its own module:
//!
//! 1. [`store`] — loads a snapshot, rebuilds indexes, and pins a stable
//!    content fingerprint that keys everything downstream.
//! 2. [`scheduler`] — a fixed pool of plain worker threads behind a
//!    bounded queue; a full queue sheds load instead of growing latency.
//! 3. [`cache`] — finished response bodies keyed by (snapshot
//!    fingerprint, experiment id, params) behind an `RwLock`.
//! 4. [`http`] — the node's HTTP/1.1 routes, one short-lived thread per
//!    connection.
//!
//! [`engine`] composes layers 1–3 into the no-sockets pipeline that both
//! the HTTP layer and the benches drive; [`metrics`] counts everything.
//! [`wire`] (the server side, shared with `dial route`) and [`httpc`]
//! (the one client) are the workspace's only HTTP/1.1 wire code.
//! Per DESIGN §7 there is no async runtime anywhere: experiment runs are
//! CPU-bound, so plain threads + channels are the right concurrency model.

pub mod cache;
pub mod engine;
pub mod http;
pub mod httpc;
pub mod metrics;
pub mod scheduler;
pub mod store;
pub mod wire;

pub use engine::{
    AnalyzeError, Engine, IngestError, IngestReport, PromoteError, Role, ScenarioServeError,
    SyncApplied, SyncApplyError, SyncExportError, SyncStatus,
};
pub use http::{ServeConfig, Server};
pub use store::{Snapshot, SnapshotStore};

use dial_core::experiments::ExperimentContext;
use dial_time::Era;
use std::sync::Arc;

/// What slice of the snapshot an experiment reads — the grain of cache
/// invalidation under live ingestion.
///
/// An [`EraScope::All`] experiment keys its cache entries on the full
/// snapshot fingerprint: any ingest invalidates them. An era-scoped
/// experiment keys on that era's content fingerprint alone, so a warm
/// entry survives every ingest that only touches *other* eras — e.g. a
/// COVID-19 reader stays warm while SET-UP months are still streaming in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EraScope {
    /// Reads the whole study window (the default, and the only scope the
    /// registry experiments use — their bodies must stay byte-identical
    /// to the batch pipeline's).
    All,
    /// Reads one era's slice only.
    Era(Era),
}

/// One servable experiment: the registry metadata plus a shareable run
/// closure returning the machine-readable JSON result.
#[derive(Clone)]
pub struct ServeExperiment {
    /// Stable id, e.g. `"table1"` — the `/analyze/{id}` path segment.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The paper claim this experiment reproduces.
    pub paper_claim: String,
    /// The snapshot slice the experiment reads (governs cache keying).
    pub scope: EraScope,
    /// Runs the experiment and returns its JSON result.
    pub run: Arc<dyn Fn(&ExperimentContext) -> String + Send + Sync>,
}

/// Why a registered scenario's run closure produced no document.
///
/// The closure lives above this crate (dial-serve does not depend on the
/// counterfactual engine), so its failure modes cross the boundary as
/// this enum rather than as the engine's own error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioRunError {
    /// The request named experiment ids the registry does not have.
    UnknownExperiments(Vec<String>),
    /// The comparison itself failed (a stream/seal violation — a bug,
    /// not a request error).
    Failed(String),
}

/// A scenario registered at startup (`dial serve --scenario <file>`),
/// servable at `GET /v1/scenario`.
///
/// The handle is a closure so the dependency points the right way:
/// dial-scenario depends on the analysis stack, dial-serve depends on
/// neither — the binary that owns both injects the glue. The
/// `fingerprint` is the scenario file's content fingerprint, fixed at
/// registration, and keys the result cache: a scenario document depends
/// only on the file and the calibration, never on the served snapshot.
#[derive(Clone)]
pub struct ScenarioHandle {
    /// The scenario's declared name (diagnostics only).
    pub name: String,
    /// Content fingerprint of the scenario file (cache key component).
    pub fingerprint: String,
    /// Runs the comparison for the requested experiment ids (empty =
    /// every registry experiment) and returns the canonical JSON
    /// document — byte-identical to `dial scenario run --json`.
    pub run: Arc<ScenarioRunFn>,
}

/// The injected comparison closure carried by [`ScenarioHandle`].
pub type ScenarioRunFn = dyn Fn(&[String]) -> Result<String, ScenarioRunError> + Send + Sync;

/// Every experiment in the dial-core registry (paper tables/figures plus
/// extensions), wrapped for serving via [`Engine`].
pub fn registry_experiments() -> Vec<ServeExperiment> {
    dial_core::experiments::all_experiments()
        .into_iter()
        .chain(dial_core::experiments::extension_experiments())
        .map(|e| ServeExperiment {
            id: e.id.to_string(),
            title: e.title.to_string(),
            paper_claim: e.paper_claim.to_string(),
            scope: EraScope::All,
            run: Arc::new(move |ctx| e.run_json(ctx)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_paper_and_extension_experiments() {
        let exps = registry_experiments();
        assert!(exps.len() >= 30, "expected the full registry, got {}", exps.len());
        assert!(exps.iter().any(|e| e.id == "table1"));
        assert!(exps.iter().any(|e| e.id == "ext-mixing"));
        // Ids are unique — they are URL path segments and cache key parts.
        let mut ids: Vec<_> = exps.iter().map(|e| e.id.clone()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), exps.len());
    }
}
