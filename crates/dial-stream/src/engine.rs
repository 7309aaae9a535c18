//! The watermark-driven incremental engine.
//!
//! Entity events accumulate in per-kind pending buffers; a watermark
//! seals everything pending into the growing [`Dataset`] / [`Ledger`]
//! pair. Sealing sorts each buffer back into id order (the wire carries
//! events in *event-time* order, which interleaves kinds and shuffles ids
//! within a month), verifies the ids continue densely from the sealed
//! prefix, applies the delta to the incremental aggregates and to the
//! dataset, and fingerprints the result.
//!
//! A seal costs O(delta), not O(history): `Dataset::append` and
//! `Ledger::insert` hash each new entity once into per-(era, kind)
//! accumulators, and the seal's fingerprint combines those in O(1).
//! Because the sealed prefix after watermark *m* contains exactly the
//! entities the batch generator had produced after month *m*, in the same
//! id order, those accumulators — and therefore the fingerprint — equal
//! the ones `Dataset::new` builds over that generation prefix. That is
//! the equivalence `tests/stream_equivalence.rs` enforces.
//!
//! A seal is staged: all validation (and the `seal_panic` fault hook)
//! runs before the first mutation, and every operation after that point
//! is infallible, so a failed or chaos-panicked seal leaves the engine
//! exactly as it was — callers can catch the panic, report, and continue
//! ingesting.
//!
//! The sealed prefix sits behind `Arc`, so a server publishing a snapshot
//! per seal takes a handle ([`StreamEngine::shared`]) rather than a copy.
//! A seal appends in place while the engine owns its prefix alone. While a
//! snapshot still holds it, the seal appends to a spare buffer instead:
//! the prefix published one seal earlier, brought up to date by cloning
//! only the entities sealed since (`Dataset::catch_up`), which is
//! O(delta). The two buffers then swap. Only the first seal after the
//! prefix is first shared, or a seal whose spare a reader still pins,
//! copies the whole prefix.

use crate::aggregates::StreamAggregates;
use crate::event::Event;
use dial_chain::{ChainTx, Ledger};
use dial_model::{Contract, Dataset, Post, Thread, User};
use dial_time::{Era, YearMonth};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Why an event batch (or a seal) was rejected. The engine state is
/// unchanged when any of these is returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A sealed buffer does not continue densely from the sealed prefix:
    /// an event is missing, duplicated, or from the wrong producer.
    Gap {
        /// Entity kind ("user", "contract", "thread", "post", "chain_tx").
        kind: &'static str,
        /// The id the sealed prefix expects next.
        expected: u64,
        /// The id actually found at that position.
        got: u64,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Gap { kind, expected, got } => {
                write!(f, "{kind} ids must stay dense: expected {expected}, got {got}")
            }
        }
    }
}

/// Entity counts, used for both per-seal deltas and running totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SealCounts {
    /// Members.
    pub users: u64,
    /// Contracts.
    pub contracts: u64,
    /// Threads.
    pub threads: u64,
    /// Posts.
    pub posts: u64,
    /// Chain transactions.
    pub chain_txs: u64,
}

/// An era boundary crossed by a seal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EraTransition {
    /// The era the previous seal closed in (`None` for the first seal).
    pub from: Option<Era>,
    /// The era now current.
    pub to: Option<Era>,
}

/// Everything one seal changed — the payload of a `/v1/stream` frame,
/// and (via `Deserialize`) the seal record dial-store replays from disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SealDelta {
    /// Seal index, 0-based and contiguous.
    pub seq: u64,
    /// The study month this watermark closed.
    pub month: YearMonth,
    /// The era that month belongs to.
    pub era: Option<Era>,
    /// Present when this seal crossed an era boundary.
    pub era_transition: Option<EraTransition>,
    /// Entities added by this seal.
    pub added: SealCounts,
    /// Entities in the sealed prefix after this seal.
    pub totals: SealCounts,
    /// `dataset-ledger` FNV fingerprint of the sealed prefix, in the same
    /// `{:016x}-{:016x}` format the serve snapshot store uses.
    pub fingerprint: String,
    /// The sealed month's created contracts by type (`ContractType::ALL`
    /// order).
    pub month_created_by_type: [u64; 5],
    /// The sealed month's completed contracts by type.
    pub month_completed_by_type: [u64; 5],
    /// Public share among the month's created contracts (Figure 2 point).
    pub month_public_share: f64,
    /// Mean completion hours pooled over the month's timed completions.
    pub month_mean_completion_hours: Option<f64>,
    /// Share of the month's contract involvement carried by its key (top
    /// 5%) members (Figure 6 point).
    pub month_key_member_share: f64,
    /// Whole-prefix share carried by the top 5% of members so far.
    pub top_member_share: f64,
}

impl SealDelta {
    /// Stable JSON rendering used for stream frames and logs.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("seal delta serialises")
    }
}

/// The incremental ingestion engine.
#[derive(Debug)]
pub struct StreamEngine {
    dataset: Arc<Dataset>,
    ledger: Arc<Ledger>,
    /// The dataset and ledger as they stood one seal earlier, kept once
    /// the current ones were shared, so the next seal can catch them up
    /// instead of copying.
    spare_dataset: Option<Arc<Dataset>>,
    spare_ledger: Option<Arc<Ledger>>,
    /// Seals that had to copy the whole sealed prefix.
    prefix_copies: u64,
    pend_users: Vec<User>,
    pend_threads: Vec<Thread>,
    pend_contracts: Vec<Contract>,
    pend_posts: Vec<Post>,
    pend_txs: Vec<(u64, ChainTx)>,
    aggregates: StreamAggregates,
    seals: Vec<SealDelta>,
}

impl Default for StreamEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamEngine {
    /// An engine with an empty sealed prefix.
    pub fn new() -> Self {
        Self::from_sealed(
            Dataset::new(Vec::new(), Vec::new(), Vec::new(), Vec::new()),
            Ledger::new(),
            Vec::new(),
        )
    }

    /// Rebuilds an engine around a recovered sealed prefix: the dataset
    /// and ledger exactly as last sealed, plus the seal history that
    /// produced them. The incremental aggregates are replayed from the
    /// sealed contracts in id order — the same order every live seal
    /// applied them in — so the rebuilt engine is history-equivalent to
    /// one that ingested the stream from the start: the next watermark
    /// seals the same delta, with the same fingerprint, either way.
    pub fn from_sealed(dataset: Dataset, ledger: Ledger, seals: Vec<SealDelta>) -> Self {
        let mut aggregates = StreamAggregates::new();
        for contract in dataset.contracts() {
            aggregates.apply_contract(contract);
        }
        Self {
            dataset: Arc::new(dataset),
            ledger: Arc::new(ledger),
            spare_dataset: None,
            spare_ledger: None,
            prefix_copies: 0,
            pend_users: Vec::new(),
            pend_threads: Vec::new(),
            pend_contracts: Vec::new(),
            pend_posts: Vec::new(),
            pend_txs: Vec::new(),
            aggregates,
            seals,
        }
    }

    /// Applies one event. Entity events buffer and return `Ok(None)`; a
    /// watermark seals and returns the delta. On `Err` nothing changed.
    pub fn apply(&mut self, event: Event) -> Result<Option<SealDelta>, StreamError> {
        match event {
            Event::UserJoined { user } => self.pend_users.push(user),
            Event::ThreadStarted { thread } => self.pend_threads.push(thread),
            Event::ContractCreated { contract } => self.pend_contracts.push(contract),
            Event::PostAdded { post } => self.pend_posts.push(post),
            Event::ChainObserved { seq, tx } => self.pend_txs.push((seq, tx)),
            Event::Watermark { month } => return self.seal(month).map(Some),
        }
        Ok(None)
    }

    /// Applies one replicated batch — the events a leader sealed as
    /// `recorded`, watermark last — and proves the local commit
    /// reproduced the leader's seal byte-for-byte. This is the follower
    /// resume path: after a restart, a follower rebuilt from its own
    /// store calls this for each seq past its sealed prefix.
    ///
    /// Preconditions checked up front (engine untouched on error): the
    /// engine must be exactly at `recorded.seq` with nothing pending —
    /// skipping already-applied batches is the caller's job. After the
    /// events apply, the sealed fingerprint must match the recorded one;
    /// a mismatch there is fatal for the follower (its prefix has
    /// diverged and only a resync from scratch recovers), which is why
    /// the error is a plain string and not a retryable [`StreamError`].
    pub fn apply_sealed(
        &mut self,
        events: Vec<Event>,
        recorded: &SealDelta,
    ) -> Result<SealDelta, String> {
        if self.seals.len() as u64 != recorded.seq {
            return Err(format!(
                "sync gap: engine is at seal {}, batch carries seal {}",
                self.seals.len(),
                recorded.seq
            ));
        }
        if self.pending_len() != 0 {
            return Err(format!(
                "{} unsealed event(s) pending; a synced batch must land on a sealed boundary",
                self.pending_len()
            ));
        }
        let mut outcome = None;
        for ev in events {
            outcome = self
                .apply(ev)
                .map_err(|e| format!("replicated batch for seal {} rejected: {e}", recorded.seq))?;
        }
        let delta = outcome
            .ok_or_else(|| format!("batch for seal {} did not end in a watermark", recorded.seq))?;
        if delta.fingerprint != recorded.fingerprint {
            return Err(format!(
                "fingerprint diverged at seal {}: local {}, leader {}",
                recorded.seq, delta.fingerprint, recorded.fingerprint
            ));
        }
        Ok(delta)
    }

    /// Events buffered but not yet sealed (the ingest backpressure gauge).
    pub fn pending_len(&self) -> usize {
        self.pend_users.len()
            + self.pend_threads.len()
            + self.pend_contracts.len()
            + self.pend_posts.len()
            + self.pend_txs.len()
    }

    /// The sealed dataset prefix.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The sealed ledger prefix.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Handles on the sealed prefix, for a snapshot or checkpoint that
    /// must outlive the next seal: O(1), nothing is copied. While a handle
    /// lives, the next seal appends to the spare buffer instead (see the
    /// module docs).
    pub fn shared(&self) -> (Arc<Dataset>, Arc<Ledger>) {
        (Arc::clone(&self.dataset), Arc::clone(&self.ledger))
    }

    /// Seals that copied the whole sealed prefix: the first seal after it
    /// was first shared, and any seal whose spare buffer a reader still
    /// held. Every other seal costs O(delta).
    pub fn prefix_copies(&self) -> u64 {
        self.prefix_copies
    }

    /// The incremental aggregates over the sealed prefix.
    pub fn aggregates(&self) -> &StreamAggregates {
        &self.aggregates
    }

    /// Every seal so far, in order — the history a late stream subscriber
    /// replays before going live.
    pub fn seals(&self) -> &[SealDelta] {
        &self.seals
    }

    fn seal(&mut self, month: YearMonth) -> Result<SealDelta, StreamError> {
        // Stage 1: order and validate, touching nothing the engine owns
        // beyond re-sorting the pending buffers (content-preserving).
        self.pend_users.sort_by_key(|u| u.id.index());
        self.pend_threads.sort_by_key(|t| t.id.index());
        self.pend_contracts.sort_by_key(|c| c.id.index());
        self.pend_posts.sort_by_key(|p| p.id.index());
        self.pend_txs.sort_by_key(|(seq, _)| *seq);
        check_dense(
            "user",
            self.dataset.users().len(),
            self.pend_users.iter().map(|u| u.id.index()),
        )?;
        check_dense(
            "thread",
            self.dataset.threads().len(),
            self.pend_threads.iter().map(|t| t.id.index()),
        )?;
        check_dense(
            "contract",
            self.dataset.contracts().len(),
            self.pend_contracts.iter().map(|c| c.id.index()),
        )?;
        check_dense(
            "post",
            self.dataset.posts().len(),
            self.pend_posts.iter().map(|p| p.id.index()),
        )?;
        check_dense("chain_tx", self.ledger.len(), self.pend_txs.iter().map(|(s, _)| *s as usize))?;

        // Chaos hook: a seal that dies *here* must leave the engine
        // ingestable — everything below is infallible.
        if let Some(dial_fault::FaultAction::Panic) =
            dial_fault::inject(dial_fault::FaultPoint::SealPanic)
        {
            panic!("{}", dial_fault::INJECTED_PANIC);
        }

        // Stage 2: commit.
        let added = SealCounts {
            users: self.pend_users.len() as u64,
            contracts: self.pend_contracts.len() as u64,
            threads: self.pend_threads.len() as u64,
            posts: self.pend_posts.len() as u64,
            chain_txs: self.pend_txs.len() as u64,
        };
        for c in &self.pend_contracts {
            self.aggregates.apply_contract(c);
        }
        let copied = unshare(&mut self.dataset, &mut self.spare_dataset, Dataset::catch_up)
            | unshare(&mut self.ledger, &mut self.spare_ledger, Ledger::catch_up);
        self.prefix_copies += u64::from(copied);
        Arc::get_mut(&mut self.dataset).expect("unshared above").append(
            std::mem::take(&mut self.pend_users),
            std::mem::take(&mut self.pend_contracts),
            std::mem::take(&mut self.pend_threads),
            std::mem::take(&mut self.pend_posts),
        );
        let ledger = Arc::get_mut(&mut self.ledger).expect("unshared above");
        for (_, tx) in self.pend_txs.drain(..) {
            ledger.insert(tx);
        }

        let era = Era::of_month(month);
        let prev_era = self.seals.last().map(|s| s.era).unwrap_or(None);
        let era_transition = (self.seals.is_empty() || prev_era != era).then_some(EraTransition {
            from: if self.seals.is_empty() { None } else { prev_era },
            to: era,
        });
        let delta = SealDelta {
            seq: self.seals.len() as u64,
            month,
            era,
            era_transition,
            added,
            totals: SealCounts {
                users: self.dataset.users().len() as u64,
                contracts: self.dataset.contracts().len() as u64,
                threads: self.dataset.threads().len() as u64,
                posts: self.dataset.posts().len() as u64,
                chain_txs: self.ledger.len() as u64,
            },
            fingerprint: format!(
                "{:016x}-{:016x}",
                self.dataset.fingerprint(),
                self.ledger.fingerprint()
            ),
            month_created_by_type: self.aggregates.month_counts(month).0,
            month_completed_by_type: self.aggregates.month_counts(month).1,
            month_public_share: self.aggregates.month_public_share(month),
            month_mean_completion_hours: self.aggregates.month_mean_completion_hours(month),
            month_key_member_share: self.aggregates.month_key_member_share(month),
            top_member_share: self.aggregates.top_member_share(),
        };
        self.seals.push(delta.clone());
        Ok(delta)
    }
}

/// Makes `current` owned alone so a seal can append to it in place, and
/// returns whether that took a full copy.
///
/// While a handle from [`StreamEngine::shared`] holds `current`, the spare
/// takes its place: caught up from `current` if nothing else holds the
/// spare either, otherwise replaced by a full copy of `current`. The
/// displaced `current` becomes the next spare.
fn unshare<T: Clone>(
    current: &mut Arc<T>,
    spare: &mut Option<Arc<T>>,
    catch_up: fn(&mut T, &T),
) -> bool {
    if Arc::get_mut(current).is_some() {
        return false;
    }
    let reused = spare.take().and_then(|mut old| {
        catch_up(Arc::get_mut(&mut old)?, current);
        Some(old)
    });
    let copied = reused.is_none();
    let fresh = reused.unwrap_or_else(|| Arc::new(T::clone(current)));
    *spare = Some(std::mem::replace(current, fresh));
    copied
}

fn check_dense(
    kind: &'static str,
    base: usize,
    ids: impl Iterator<Item = usize>,
) -> Result<(), StreamError> {
    for (offset, id) in ids.enumerate() {
        let expected = base + offset;
        if id != expected {
            return Err(StreamError::Gap { kind, expected: expected as u64, got: id as u64 });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::segments;
    use dial_sim::SimConfig;

    #[test]
    fn replaying_every_segment_rebuilds_the_batch_dataset() {
        let out = SimConfig::paper_default().with_seed(9).with_scale(0.01).simulate_full();
        let mut engine = StreamEngine::new();
        let mut deltas = Vec::new();
        for seg in segments(&out) {
            for ev in seg {
                if let Some(delta) = engine.apply(ev).expect("replay is gap-free") {
                    deltas.push(delta);
                }
            }
        }
        assert_eq!(deltas.len(), out.marks.len());
        assert_eq!(engine.pending_len(), 0);
        assert_eq!(engine.dataset().fingerprint(), out.dataset.fingerprint());
        assert_eq!(engine.ledger().fingerprint(), out.ledger.fingerprint());
        // Seal seqs are contiguous and totals are monotone.
        for (i, d) in deltas.iter().enumerate() {
            assert_eq!(d.seq, i as u64);
        }
        // Exactly three era transitions: into SET-UP, STABLE, COVID-19.
        let transitions: Vec<_> = deltas.iter().filter_map(|d| d.era_transition).collect();
        assert_eq!(transitions.len(), 3, "{transitions:?}");
    }

    #[test]
    fn apply_sealed_replays_leader_batches_and_rejects_gaps() {
        let out = SimConfig::paper_default().with_seed(9).with_scale(0.01).simulate_full();
        let segs = segments(&out);

        // Leader: seal every month the normal way, keeping each batch.
        let mut leader = StreamEngine::new();
        let mut batches: Vec<(Vec<Event>, SealDelta)> = Vec::new();
        for seg in &segs {
            let mut batch = Vec::new();
            let mut sealed = None;
            for ev in seg {
                batch.push(ev.clone());
                sealed = leader.apply(ev.clone()).expect("replay is gap-free");
            }
            batches.push((batch, sealed.expect("month ends in a watermark")));
        }

        // Follower: a batch from the future is a gap, refused untouched.
        let mut follower = StreamEngine::new();
        let (events, recorded) = batches[1].clone();
        let err = follower.apply_sealed(events, &recorded).unwrap_err();
        assert!(err.contains("sync gap"), "{err}");
        assert_eq!(follower.pending_len(), 0);

        // In order, every batch lands and reproduces the leader's seal.
        for (events, recorded) in &batches {
            let delta = follower.apply_sealed(events.clone(), recorded).expect("batch applies");
            assert_eq!(&delta, recorded);
        }
        assert_eq!(follower.seals(), leader.seals());
        assert_eq!(follower.dataset().fingerprint(), leader.dataset().fingerprint());

        // A replayed (already-applied) batch is also a gap: skipping
        // applied seqs is the sync loop's job, not the engine's.
        let (events, recorded) = batches[0].clone();
        let err = follower.apply_sealed(events, &recorded).unwrap_err();
        assert!(err.contains("sync gap"), "{err}");
    }

    #[test]
    fn a_gap_is_rejected_and_the_engine_stays_usable() {
        let out = SimConfig::paper_default().with_seed(9).with_scale(0.01).simulate_full();
        let segs = segments(&out);
        let mut engine = StreamEngine::new();

        // Drop one event from the first segment, keep its watermark.
        let mut broken = segs[0].clone();
        let victim = broken
            .iter()
            .position(|e| matches!(e, Event::UserJoined { .. }))
            .expect("first month spawns users");
        let missing = broken.remove(victim);
        let mut sealed_err = None;
        for ev in broken {
            match engine.apply(ev) {
                Ok(_) => {}
                Err(e) => sealed_err = Some(e),
            }
        }
        assert!(
            matches!(sealed_err, Some(StreamError::Gap { kind: "user", .. })),
            "{sealed_err:?}"
        );
        assert_eq!(engine.dataset().users().len(), 0, "failed seal must not commit");

        // Supplying the missing event lets the same watermark succeed.
        engine.apply(missing).unwrap();
        let delta = engine
            .apply(Event::Watermark { month: out.marks[0].month })
            .unwrap()
            .expect("watermark seals");
        assert_eq!(delta.totals.users as usize, out.marks[0].users);
    }
}
