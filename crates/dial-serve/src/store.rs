//! Snapshot store: loads a dataset + ledger snapshot from disk, rebuilds
//! the secondary indexes, and pins the content fingerprint that keys every
//! downstream cache entry.

use dial_chain::Ledger;
use dial_core::experiments::ExperimentContext;
use dial_model::{ContentHash, Dataset};
use dial_time::Era;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The on-disk snapshot layout shared with `dial generate`.
#[derive(Serialize, Deserialize)]
pub struct Snapshot {
    /// The marketplace dataset.
    pub dataset: Dataset,
    /// The simulated blockchain.
    pub ledger: Ledger,
}

/// Headline counts surfaced by `/summary`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreSummary {
    /// Users in the dataset.
    pub users: usize,
    /// Contracts in the dataset.
    pub contracts: usize,
    /// Forum threads in the dataset.
    pub threads: usize,
    /// Forum posts in the dataset.
    pub posts: usize,
    /// Transactions on the simulated chain.
    pub chain_txs: usize,
}

/// An immutable, fingerprinted snapshot ready for concurrent analysis.
///
/// The wrapped [`ExperimentContext`] is shared by reference across worker
/// threads; its latent-class memoisation (`OnceLock`) makes the expensive
/// LTM fit once per snapshot regardless of how many experiments need it.
pub struct SnapshotStore {
    ctx: Arc<ExperimentContext>,
    fingerprint: String,
    era_fingerprints: [u64; 3],
    summary: StoreSummary,
}

impl SnapshotStore {
    /// Loads a snapshot file written by `dial generate`.
    pub fn load(path: &str, seed: u64, lca_classes: usize) -> Result<Self, String> {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let snap: Snapshot =
            serde_json::from_str(&raw).map_err(|e| format!("parse {path}: {e}"))?;
        Ok(Self::from_parts(snap.dataset.reindex(), snap.ledger.reindex(), seed, lca_classes))
    }

    /// Builds a store from in-memory parts, owned or shared. Every
    /// fingerprint is read from the parts' content digests in O(1) and a
    /// shared part is not copied, so a live engine can build one per seal.
    pub fn from_parts(
        dataset: impl Into<Arc<Dataset>>,
        ledger: impl Into<Arc<Ledger>>,
        seed: u64,
        lca_classes: usize,
    ) -> Self {
        let (dataset, ledger) = (dataset.into(), ledger.into());
        // The fingerprints pair both content hashes: experiments read the
        // ledger too, so a dataset-only key would alias distinct snapshots.
        let fingerprint = format!("{:016x}-{:016x}", dataset.fingerprint(), ledger.fingerprint());
        let era_fingerprints = Era::ALL.map(|era| {
            let mut h = ContentHash::new();
            h.update(&dataset.era_fingerprint(era).to_le_bytes());
            h.update(&ledger.era_fingerprint(era).to_le_bytes());
            h.finish()
        });
        let summary = StoreSummary {
            users: dataset.users().len(),
            contracts: dataset.contracts().len(),
            threads: dataset.threads().len(),
            posts: dataset.posts().len(),
            chain_txs: ledger.len(),
        };
        let ctx = Arc::new(ExperimentContext::new(dataset, ledger, seed, lca_classes));
        Self { ctx, fingerprint, era_fingerprints, summary }
    }

    /// The shared analysis context.
    pub fn context(&self) -> Arc<ExperimentContext> {
        Arc::clone(&self.ctx)
    }

    /// The snapshot's stable content fingerprint.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// One era's content fingerprint — the cache key for era-scoped
    /// experiments. It covers the dataset and ledger entities whose own
    /// timestamp falls in `era`, so only ingests that change this era's
    /// slice move it, which is what lets warm era-scoped entries survive
    /// unrelated seals.
    pub fn era_fingerprint(&self, era: Era) -> u64 {
        let i = Era::ALL.iter().position(|e| *e == era).unwrap();
        self.era_fingerprints[i]
    }

    /// Headline counts for `/summary`.
    pub fn summary(&self) -> &StoreSummary {
        &self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dial_sim::SimConfig;

    #[test]
    fn load_round_trips_through_disk_and_keeps_the_fingerprint() {
        let out = SimConfig::paper_default().with_seed(3).with_scale(0.01).simulate_full();
        let in_memory = SnapshotStore::from_parts(out.dataset, out.ledger, 3, 4);

        let out = SimConfig::paper_default().with_seed(3).with_scale(0.01).simulate_full();
        let snap = Snapshot { dataset: out.dataset, ledger: out.ledger };
        let path = std::env::temp_dir().join("dial-serve-store-test.json");
        std::fs::write(&path, serde_json::to_string(&snap).unwrap()).unwrap();
        let loaded = SnapshotStore::load(path.to_str().unwrap(), 3, 4).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.fingerprint(), in_memory.fingerprint());
        assert_eq!(loaded.summary().contracts, in_memory.summary().contracts);
        // The reloaded context answers queries (indexes were rebuilt).
        let ctx = loaded.context();
        assert!(!ctx.dataset.contracts().is_empty());
    }

    #[test]
    fn different_seeds_fingerprint_differently() {
        let a = SimConfig::paper_default().with_seed(3).with_scale(0.01).simulate_full();
        let b = SimConfig::paper_default().with_seed(4).with_scale(0.01).simulate_full();
        let fa = SnapshotStore::from_parts(a.dataset, a.ledger, 0, 4);
        let fb = SnapshotStore::from_parts(b.dataset, b.ledger, 0, 4);
        assert_ne!(fa.fingerprint(), fb.fingerprint());
    }
}
