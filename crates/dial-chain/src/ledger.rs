//! The append-only transaction ledger and the verification query.

use dial_model::fingerprint::EraDigest;
use dial_time::{Era, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A confirmed on-chain transaction paying `to_address`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainTx {
    /// Transaction id (64 hex chars).
    pub hash: String,
    /// Receiving address.
    pub to_address: String,
    /// Transferred value, denominated in USD at confirmation time. The
    /// verification step compares USD values, so the ledger stores the
    /// already-converted amount.
    pub value_usd: f64,
    /// Confirmation time.
    pub confirmed_at: Timestamp,
}

/// Outcome of verifying a contractual value claim against the ledger,
/// mirroring the paper's manual-check categories (§4.5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    /// A matching transaction was found within tolerance of the claim.
    Confirmed,
    /// A transaction was found but its value differs beyond tolerance;
    /// carries the observed on-chain USD value (usually lower — private
    /// renegotiation — occasionally higher).
    Mismatch { observed_usd: f64 },
    /// No transaction was found for the quoted hash/address near the
    /// completion time.
    NotFound,
}

/// Relative tolerance for treating a claim as confirmed. On-chain values
/// rarely match advertised prices to the cent (fees, rate drift between
/// agreement and settlement), so a 10% band is used.
pub const CONFIRM_TOLERANCE: f64 = 0.10;

/// A deterministic, append-only ledger with hash and address indexes and
/// a per-era content digest of its transactions.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Ledger {
    txs: Vec<ChainTx>,
    #[serde(skip)]
    by_hash: HashMap<String, usize>,
    #[serde(skip)]
    by_address: HashMap<String, Vec<usize>>,
    /// Per-era content hashes of `txs`, by confirmation date.
    #[serde(skip)]
    digest: EraDigest<1>,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a transaction.
    ///
    /// # Panics
    /// Panics if the hash already exists — txids are unique by construction.
    pub fn insert(&mut self, tx: ChainTx) {
        let duplicate = self.take_in(tx);
        assert!(!duplicate, "duplicate tx hash {}", self.txs[self.txs.len() - 1].hash);
    }

    /// Rebuilds indexes and the content digest after deserialisation.
    pub fn reindex(self) -> Self {
        let mut ledger = Self::new();
        for tx in self.txs {
            ledger.take_in(tx);
        }
        ledger
    }

    /// Brings `self`, a prefix of `newer`, up to `newer` by cloning and
    /// indexing only the transactions past its own length, and adopts
    /// `newer`'s content digest instead of re-hashing them: the contents
    /// are then identical. See `Dataset::catch_up`.
    ///
    /// # Panics
    /// Panics if `self` holds more transactions than `newer`; that `self`
    /// is a prefix of `newer` is the caller's contract.
    pub fn catch_up(&mut self, newer: &Ledger) {
        let from = self.txs.len();
        assert!(
            from <= newer.txs.len(),
            "catch_up from a shorter ledger: {from} > {}",
            newer.txs.len()
        );
        for (idx, tx) in newer.txs.iter().enumerate().skip(from) {
            self.by_hash.insert(tx.hash.clone(), idx);
            self.by_address.entry(tx.to_address.clone()).or_default().push(idx);
        }
        self.txs.extend_from_slice(&newer.txs[from..]);
        self.digest = newer.digest.clone();
    }

    /// Indexes, hashes and stores `tx` — the one path every transaction
    /// enters by, apart from [`Ledger::catch_up`], which copies an
    /// already-indexed one. Returns whether its hash was already indexed.
    fn take_in(&mut self, tx: ChainTx) -> bool {
        let idx = self.txs.len();
        let duplicate = self.by_hash.insert(tx.hash.clone(), idx).is_some();
        self.by_address.entry(tx.to_address.clone()).or_default().push(idx);
        self.digest.fold(0, tx.confirmed_at.date(), &tx);
        self.txs.push(tx);
        duplicate
    }

    /// A stable content fingerprint, combined in O(1) from the per-era
    /// FNV-1a hashes of every transaction's canonical JSON. Used alongside
    /// `Dataset::fingerprint` to key snapshot-scoped caches.
    ///
    /// # Panics
    /// Panics on a ledger deserialised without [`Ledger::reindex`].
    pub fn fingerprint(&self) -> u64 {
        self.digest.verified([self.txs.len()]).whole()
    }

    /// The fingerprint of the transactions confirmed in `era` (dates
    /// outside the study eras clamp to the nearest one).
    ///
    /// # Panics
    /// Panics on a ledger deserialised without [`Ledger::reindex`].
    pub fn era_fingerprint(&self, era: Era) -> u64 {
        self.digest.verified([self.txs.len()]).era(era)
    }

    /// Number of transactions recorded.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// True if no transactions are recorded.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Iterates all transactions in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &ChainTx> {
        self.txs.iter()
    }

    /// Looks up a transaction by its hash.
    pub fn by_hash(&self, hash: &str) -> Option<&ChainTx> {
        self.by_hash.get(hash).map(|&i| &self.txs[i])
    }

    /// Transactions paying `address` confirmed inside `[from, to]`.
    pub fn to_address_within(
        &self,
        address: &str,
        from: Timestamp,
        to: Timestamp,
    ) -> Vec<&ChainTx> {
        self.by_address
            .get(address)
            .into_iter()
            .flatten()
            .map(|&i| &self.txs[i])
            .filter(|tx| tx.confirmed_at >= from && tx.confirmed_at <= to)
            .collect()
    }

    /// Verifies a contractual claim of `claimed_usd`, quoted with an optional
    /// tx hash and a receiving address, against the chain near the contract
    /// completion time (±`window_hours`).
    ///
    /// Resolution order mirrors the manual procedure: an explicit hash is
    /// authoritative if present; otherwise the address is scanned for the
    /// closest transaction in the window.
    pub fn verify(
        &self,
        claimed_usd: f64,
        tx_hash: Option<&str>,
        address: &str,
        completed_at: Timestamp,
        window_hours: f64,
    ) -> Verdict {
        let tx = match tx_hash.and_then(|h| self.by_hash(h)) {
            Some(tx) => Some(tx),
            None => {
                let from = completed_at.plus_hours(-window_hours);
                let to = completed_at.plus_hours(window_hours);
                self.to_address_within(address, from, to)
                    .into_iter()
                    .min_by_key(|tx| (tx.confirmed_at.minutes() - completed_at.minutes()).abs())
            }
        };
        match tx {
            None => Verdict::NotFound,
            Some(tx) => {
                let denom = claimed_usd.abs().max(f64::EPSILON);
                if ((tx.value_usd - claimed_usd) / denom).abs() <= CONFIRM_TOLERANCE {
                    Verdict::Confirmed
                } else {
                    Verdict::Mismatch { observed_usd: tx.value_usd }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dial_time::Date;

    fn ts(h: u8) -> Timestamp {
        Timestamp::at(Date::from_ymd(2020, 1, 10), h, 0)
    }

    fn ledger() -> Ledger {
        let mut l = Ledger::new();
        l.insert(ChainTx {
            hash: "aa".repeat(32),
            to_address: "1AddrOne".into(),
            value_usd: 1000.0,
            confirmed_at: ts(12),
        });
        l.insert(ChainTx {
            hash: "bb".repeat(32),
            to_address: "1AddrOne".into(),
            value_usd: 200.0,
            confirmed_at: ts(18),
        });
        l
    }

    #[test]
    fn hash_lookup_wins() {
        let l = ledger();
        let v = l.verify(1000.0, Some(&"aa".repeat(32)), "1AddrOne", ts(23), 1.0);
        assert_eq!(v, Verdict::Confirmed);
    }

    #[test]
    fn address_scan_picks_closest_in_window() {
        let l = ledger();
        // Near 18:00, the $200 tx is closest: a $1000 claim is a mismatch.
        let v = l.verify(1000.0, None, "1AddrOne", ts(19), 6.0);
        assert_eq!(v, Verdict::Mismatch { observed_usd: 200.0 });
    }

    #[test]
    fn tolerance_band() {
        let l = ledger();
        assert_eq!(
            l.verify(1080.0, Some(&"aa".repeat(32)), "x", ts(12), 1.0),
            Verdict::Confirmed,
            "8% over is within tolerance"
        );
        assert_eq!(
            l.verify(1250.0, Some(&"aa".repeat(32)), "x", ts(12), 1.0),
            Verdict::Mismatch { observed_usd: 1000.0 },
        );
    }

    #[test]
    fn outside_window_is_not_found() {
        let l = ledger();
        let v = l.verify(1000.0, None, "1AddrOne", ts(23), 1.0);
        assert_eq!(v, Verdict::NotFound);
        let v = l.verify(1000.0, None, "1Unknown", ts(12), 100.0);
        assert_eq!(v, Verdict::NotFound);
    }

    #[test]
    #[should_panic]
    fn duplicate_hash_panics() {
        let mut l = ledger();
        l.insert(ChainTx {
            hash: "aa".repeat(32),
            to_address: "1X".into(),
            value_usd: 1.0,
            confirmed_at: ts(1),
        });
    }

    #[test]
    fn reindex_restores_lookups() {
        let l = ledger();
        let json = serde_json::to_string(&l).unwrap();
        let back: Ledger = serde_json::from_str(&json).unwrap();
        assert!(back.by_hash(&"aa".repeat(32)).is_none(), "indexes not serialised");
        let back = back.reindex();
        assert!(back.by_hash(&"aa".repeat(32)).is_some());
    }

    #[test]
    fn fingerprint_survives_round_trip_and_tracks_content() {
        let l = ledger();
        let fp = l.fingerprint();
        let json = serde_json::to_string(&l).unwrap();
        let back: Ledger = serde_json::from_str::<Ledger>(&json).unwrap().reindex();
        assert_eq!(back.fingerprint(), fp);

        let mut grown = l.clone();
        grown.insert(ChainTx {
            hash: "ff".repeat(32),
            to_address: "1Y".into(),
            value_usd: 2.0,
            confirmed_at: ts(2),
        });
        assert_ne!(grown.fingerprint(), fp);
        assert_ne!(Ledger::new().fingerprint(), fp);
    }

    #[test]
    #[should_panic(expected = "reindex() after deserialising")]
    fn fingerprint_refuses_a_ledger_deserialised_without_reindex() {
        let json = serde_json::to_string(&ledger()).unwrap();
        let raw: Ledger = serde_json::from_str(&json).unwrap();
        raw.fingerprint();
    }
}
