//! Scenario execution: baseline and counterfactual runs through the
//! watermark/seal pipeline, then an experiment-by-experiment diff.
//!
//! Both runs take the exact path production data takes: simulate →
//! segment into the event stream → [`dial_stream::replay_sealed`] → a
//! sealed dataset/ledger snapshot. The counterfactual is not a fork of
//! the analysis code — it is the same registry experiments executed
//! against a differently-dialed history.

use crate::diff::{scenario_fingerprint, Comparison, DiffRow, RunSummary};
use crate::parse::Scenario;
use dial_core::experiments::{
    all_experiments, extension_experiments, Experiment, ExperimentContext,
};
use dial_sim::{simulate_with_plan, InterventionPlan, SimConfig, SimOutput};
use dial_stream::{replay_sealed, segments, StreamEngine};
use std::fmt;

/// Options controlling a [`compare`] run.
#[derive(Debug, Clone)]
pub struct CompareOptions {
    /// Experiment ids to diff. Empty means every registry experiment, in
    /// registry order. Non-empty lists keep request order with
    /// first-occurrence dedup (the `/v1/batch` convention).
    pub ids: Vec<String>,
    /// Latent-class count for the LTM experiments (the paper selects 12).
    pub lca_classes: usize,
}

impl Default for CompareOptions {
    fn default() -> Self {
        Self { ids: Vec::new(), lca_classes: 12 }
    }
}

/// Why a comparison could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompareError {
    /// Requested experiment ids that are not in the registry.
    UnknownExperiments(Vec<String>),
    /// The event stream rejected a run (watermark/seal violation) — a
    /// calibration bug, not a user error.
    Stream(String),
}

impl fmt::Display for CompareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompareError::UnknownExperiments(ids) => {
                write!(f, "unknown experiments: {}", ids.join(", "))
            }
            CompareError::Stream(msg) => write!(f, "stream replay failed: {msg}"),
        }
    }
}

impl std::error::Error for CompareError {}

/// Runs the scenario's baseline and counterfactual and diffs the selected
/// experiments between the two sealed snapshots.
///
/// Deterministic in the scenario file alone: the sim is seed-driven, the
/// intervention hooks draw no randomness, and the experiment fan-out is
/// `dial_par::parallel_map`, which returns results in input order at any
/// pool width.
pub fn compare(scenario: &Scenario, opts: &CompareOptions) -> Result<Comparison, CompareError> {
    let registry: Vec<Experiment> =
        all_experiments().into_iter().chain(extension_experiments()).collect();
    let selected = select(&registry, &opts.ids)?;

    let cfg = SimConfig::paper_default().with_seed(scenario.seed).with_scale(scenario.scale);
    let plan = scenario.plan();
    // The two simulations are independent; run them as a pool join so a
    // scenario costs roughly one simulation of wall clock on a warm pool.
    let (baseline_out, counterfactual_out) = dial_par::join(
        || simulate_with_plan(&cfg, &InterventionPlan::default()),
        || simulate_with_plan(&cfg, &plan),
    );

    let (baseline_engine, baseline_summary) = seal(&baseline_out)?;
    let (counterfactual_engine, counterfactual_summary) = seal(&counterfactual_out)?;

    let (baseline_dataset, baseline_ledger) = baseline_engine.shared();
    let baseline_ctx =
        ExperimentContext::new(baseline_dataset, baseline_ledger, scenario.seed, opts.lca_classes);
    let (counterfactual_dataset, counterfactual_ledger) = counterfactual_engine.shared();
    let counterfactual_ctx = ExperimentContext::new(
        counterfactual_dataset,
        counterfactual_ledger,
        scenario.seed,
        opts.lca_classes,
    );

    let rows = dial_par::parallel_map(selected, |exp| DiffRow {
        id: exp.id.to_string(),
        baseline: exp.run_json(&baseline_ctx),
        counterfactual: exp.run_json(&counterfactual_ctx),
    });

    Ok(Comparison {
        fingerprint: scenario_fingerprint(scenario),
        scenario: scenario.clone(),
        baseline: baseline_summary,
        counterfactual: counterfactual_summary,
        rows,
    })
}

/// Resolves the requested ids against the registry: empty means the full
/// registry in registry order, otherwise request order with
/// first-occurrence dedup. Unknown ids are collected and reported together.
fn select(registry: &[Experiment], ids: &[String]) -> Result<Vec<Experiment>, CompareError> {
    if ids.is_empty() {
        return Ok(registry.iter().map(clone_experiment).collect());
    }
    let mut out: Vec<Experiment> = Vec::with_capacity(ids.len());
    let mut unknown = Vec::new();
    for id in ids {
        if out.iter().any(|e| e.id == id.as_str()) {
            continue;
        }
        match registry.iter().find(|e| e.id == id.as_str()) {
            Some(exp) => out.push(clone_experiment(exp)),
            None => unknown.push(id.clone()),
        }
    }
    if unknown.is_empty() {
        Ok(out)
    } else {
        Err(CompareError::UnknownExperiments(unknown))
    }
}

fn clone_experiment(e: &Experiment) -> Experiment {
    Experiment { id: e.id, title: e.title, paper_claim: e.paper_claim, run: e.run }
}

/// Pushes a simulated history through the sealed replay pipeline and
/// summarises the resulting snapshot.
fn seal(out: &SimOutput) -> Result<(StreamEngine, RunSummary), CompareError> {
    let (engine, seals) =
        replay_sealed(segments(out)).map_err(|e| CompareError::Stream(e.to_string()))?;
    debug_assert_eq!(engine.pending_len(), 0, "sealed replay leaves no pending events");
    let snapshot = seals
        .last()
        .map(|s| s.fingerprint.clone())
        .unwrap_or_else(|| "0000000000000000-0000000000000000".to_string());
    let summary = RunSummary {
        snapshot,
        contracts: engine.dataset().contracts().len(),
        users: engine.dataset().users().len(),
        second_market: out.second_market.clone(),
    };
    Ok((engine, summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(body: &str) -> Scenario {
        Scenario::parse(body, "test.scn").expect("scenario parses")
    }

    #[test]
    fn unknown_ids_are_rejected_together() {
        let s = tiny("name: t\nscale: 0.01\n");
        let opts = CompareOptions {
            ids: vec!["table1".into(), "nope".into(), "fig99".into()],
            ..CompareOptions::default()
        };
        match compare(&s, &opts) {
            Err(CompareError::UnknownExperiments(ids)) => {
                assert_eq!(ids, vec!["nope".to_string(), "fig99".to_string()]);
            }
            other => panic!("expected UnknownExperiments, got {other:?}"),
        }
    }

    #[test]
    fn empty_scenario_diffs_nothing() {
        let s = tiny("name: noop\nseed: 7\nscale: 0.02\n");
        let opts = CompareOptions { ids: vec!["table1".into(), "fig2".into()], lca_classes: 4 };
        let cmp = compare(&s, &opts).expect("comparison runs");
        assert_eq!(cmp.baseline.snapshot, cmp.counterfactual.snapshot, "same dial, same seal");
        assert!(cmp.changed_ids().is_empty(), "no intervention, no diff");
        assert_eq!(cmp.rows.len(), 2);
        let json = cmp.to_json();
        assert!(json.contains("\"diff\":{}"), "diff object is empty: {json}");
        assert!(json.contains("\"diff_fingerprint\":\""));
    }

    #[test]
    fn takedown_scenario_changes_results_and_opens_second_market() {
        let s = tiny(
            "name: takedown\nseed: 7\nscale: 0.02\ninterventions:\n  - kind: takedown\n    month: 12\n    top_k: 5\n    migrate_fraction: 0.5\n",
        );
        let opts = CompareOptions { ids: vec!["table1".into()], lca_classes: 4 };
        let cmp = compare(&s, &opts).expect("comparison runs");
        assert_ne!(cmp.baseline.snapshot, cmp.counterfactual.snapshot);
        assert!(cmp.counterfactual.second_market.is_some(), "migration opens a second market");
        assert_eq!(cmp.changed_ids(), vec!["table1"]);
        // Same scenario, same bytes: the document is a pure function of the file.
        let again = compare(&s, &opts).expect("comparison reruns");
        assert_eq!(cmp.to_json(), again.to_json());
    }
}
