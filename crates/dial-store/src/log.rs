//! The append-only segment log: framing, recovery, checkpoints, rotation.
//!
//! # Commit-then-log
//!
//! A seal's fingerprint is only known *after* the in-memory commit, so
//! classic write-ahead logging is impossible here. Instead the log writes
//! one atomic buffered append per seal — the month's event records in
//! arrival order (watermark last) followed by a seal record carrying the
//! committed [`SealDelta`] — and fsyncs once. Recovery therefore has a
//! simple invariant: an event batch is durable iff a valid seal record
//! follows it. Any tail without one (torn header, short payload, bad CRC,
//! trailing events) is truncated, and every later segment is dropped —
//! seal-or-nothing.
//!
//! # Recovery state machine
//!
//! 1. Manifest: parse, check version and `(seed, lca_classes)` identity.
//!    Another format version is refused before anything is written.
//! 2. Checkpoint (if named by the manifest): parse, reindex (which
//!    rehashes every entity), recompute the prefix fingerprint, and
//!    reject the store if it disagrees.
//! 3. Scan every segment in name order, collecting post-checkpoint
//!    `(events, seal)` batches; truncate at the first invalid frame.
//! 4. Validate seal contiguity: kept batches must run `ckpt+1, ckpt+2, …`.
//! 5. Replay the batches through a [`StreamEngine`] rebuilt from the
//!    checkpoint; every replayed seal must reproduce the recorded seq and
//!    fingerprint byte-for-byte — the proof that the recovered prefix is
//!    identical to the one the dead process had sealed.

use dial_chain::Ledger;
use dial_fault::{inject, FaultAction, FaultPoint, INJECTED_PANIC};
use dial_model::Dataset;
use dial_stream::{Event, SealDelta, StreamEngine};
use dial_time::YearMonth;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

use crate::backend::StoreEngine;
use crate::frame::{self, KIND_EVENT, KIND_SEAL};
use crate::{StoreError, StoreOptions};

/// Store format versions. Version 2 changed how the dataset and ledger
/// fingerprints in seal records, checkpoint names and sync manifests are
/// computed, so a version-1 store is refused rather than failing its
/// fingerprint proofs.
const MANIFEST_VERSION: u32 = 2;
const CHECKPOINT_VERSION: u32 = 2;

fn corrupt(detail: String) -> StoreError {
    StoreError::Corrupt { detail }
}

/// The store's identity record: which stream this log belongs to and
/// which checkpoint (if any) recovery may start from. Rewritten
/// atomically; never appended.
#[derive(Debug, Serialize, Deserialize)]
struct Manifest {
    version: u32,
    seed: u64,
    lca_classes: usize,
    checkpoint: Option<String>,
    /// Leadership epoch this store last served under. Monotonic; the
    /// fencing token for failover. Defaults to 0 so stores written
    /// before epochs existed open cleanly.
    #[serde(default)]
    epoch: u64,
}

/// A full materialised snapshot of the sealed prefix, keyed by the prefix
/// fingerprint from its closing [`SealDelta`]. Recovery loads the latest
/// checkpoint and replays only the log batches sealed after it.
#[derive(Debug, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version.
    pub version: u32,
    /// Seal seq this checkpoint captures (its last sealed watermark).
    pub seq: u64,
    /// The study month that seal closed.
    pub month: YearMonth,
    /// Prefix fingerprint at `seq` — re-verified on load.
    pub fingerprint: String,
    /// Full seal history through `seq` (stream subscribers replay it).
    pub seals: Vec<SealDelta>,
    /// The sealed dataset prefix (serialised exactly like a `Dataset`).
    pub dataset: Arc<Dataset>,
    /// The sealed ledger prefix (serialised exactly like a `Ledger`).
    pub ledger: Arc<Ledger>,
}

impl Checkpoint {
    /// Captures the engine's sealed prefix; `None` before the first seal.
    /// The prefix is shared with the engine, not copied.
    pub fn from_engine(engine: &StreamEngine) -> Option<Self> {
        let last = engine.seals().last()?;
        let (dataset, ledger) = engine.shared();
        Some(Self {
            version: CHECKPOINT_VERSION,
            seq: last.seq,
            month: last.month,
            fingerprint: last.fingerprint.clone(),
            seals: engine.seals().to_vec(),
            dataset,
            ledger,
        })
    }
}

/// What one `open` recovered, for logs, `/v1/store`, and `dial store`.
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryReport {
    /// Seal seq of the checkpoint recovery started from.
    pub checkpoint_seq: Option<u64>,
    /// Post-checkpoint seals replayed (and fingerprint-verified).
    pub replayed_seals: u64,
    /// Events replayed inside those seals (watermarks included).
    pub replayed_events: u64,
    /// Torn-tail bytes truncated from the active segment.
    pub truncated_bytes: u64,
    /// Segments dropped because they followed a torn tail.
    pub dropped_segments: u64,
    /// Last durable seal seq after recovery.
    pub sealed_seq: Option<u64>,
    /// Prefix fingerprint at that seal.
    pub sealed_fingerprint: Option<String>,
}

/// Counters and shape of an open log, for `/v1/store` and `dial store`.
#[derive(Debug, Clone, Serialize)]
pub struct StoreStats {
    /// Backend kind (`"fs"` / `"mem"`).
    pub backend: String,
    /// Whether seal appends fsync.
    pub fsync: bool,
    /// Live segment count.
    pub segments: u64,
    /// Total durable log bytes across segments.
    pub log_bytes: u64,
    /// Last durable seal seq.
    pub sealed_seq: Option<u64>,
    /// Prefix fingerprint at that seal.
    pub sealed_fingerprint: Option<String>,
    /// Seal seq of the newest on-disk checkpoint.
    pub checkpoint_seq: Option<u64>,
    /// Seals between checkpoint writes (0 = never).
    pub checkpoint_interval: u64,
    /// Seal batches appended since open.
    pub appended_seals: u64,
    /// Event records appended since open.
    pub appended_events: u64,
    /// Torn-write faults injected since open.
    pub torn_writes: u64,
    /// Fsync-stall faults injected since open.
    pub fsync_stalls: u64,
    /// Checkpoints written since open.
    pub checkpoints_written: u64,
    /// True once a backend write has failed: the in-memory engine is
    /// ahead of disk and only a restart re-establishes durability.
    pub degraded: bool,
    /// Leadership epoch persisted in the manifest.
    pub epoch: u64,
}

/// What `GET /v1/sync/manifest` advertises: the store's stream identity
/// and the window of sealed batches a follower can fetch. Followers check
/// the identity, then pull `base_seq ..= sealed_seq` one batch at a time
/// (each batch carries its own seal record, so every fetch is
/// self-verifying).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyncManifest {
    /// Sync protocol version.
    pub version: u32,
    /// Simulation seed the log's stream identity is bound to.
    pub seed: u64,
    /// LCA class count bound into the same identity.
    pub lca_classes: usize,
    /// Last durable seal seq (`None` for a virgin store).
    pub sealed_seq: Option<u64>,
    /// Prefix fingerprint at that seal.
    pub sealed_fingerprint: Option<String>,
    /// First seal seq still present in the log (compaction may have
    /// removed earlier ones; a follower behind `base_seq` cannot sync
    /// from this leader).
    pub base_seq: Option<u64>,
    /// Leadership epoch the advertising node is serving under. Followers
    /// fence: a manifest from a lower epoch than their own is rejected.
    /// Defaults to 0 when syncing from a pre-epoch leader.
    #[serde(default)]
    pub epoch: u64,
}

/// Sync protocol version served in [`SyncManifest`]; it moves with the
/// store format because the manifest carries a seal fingerprint.
pub const SYNC_MANIFEST_VERSION: u32 = 2;

/// Where one sealed batch lives on disk: the frames from the end of the
/// previous seal record through this batch's own seal record.
#[derive(Debug, Clone)]
struct BatchLoc {
    seq: u64,
    segment: String,
    offset: u64,
    len: u64,
}

/// What `compact` removed.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct CompactReport {
    /// Whole segments removed (all their seals were checkpoint-covered).
    pub removed_segments: u64,
    /// Bytes those segments held.
    pub removed_bytes: u64,
}

#[derive(Debug, Clone)]
struct SegmentMeta {
    name: String,
    bytes: u64,
    last_seal: Option<u64>,
}

fn segment_name(n: u64) -> String {
    format!("seg-{n:08}.log")
}

fn segment_number(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?.strip_suffix(".log")?.parse().ok()
}

/// The durable log over a [`StoreEngine`] backend. All framing, fault
/// injection, recovery, and checkpoint policy lives here, shared by both
/// backends.
pub struct SegmentLog {
    backend: Box<dyn StoreEngine>,
    opts: StoreOptions,
    segments: Vec<SegmentMeta>,
    /// Every sealed batch still on disk, ascending by seq — the index
    /// `export_batch` serves replication fetches from.
    batches: Vec<BatchLoc>,
    next_segment: u64,
    sealed_seq: Option<u64>,
    sealed_fingerprint: Option<String>,
    checkpoint_seq: Option<u64>,
    checkpoint_name: Option<String>,
    epoch: u64,
    appended_seals: u64,
    appended_events: u64,
    torn_writes: u64,
    fsync_stalls: u64,
    checkpoints_written: u64,
    degraded: bool,
}

impl std::fmt::Debug for SegmentLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentLog")
            .field("backend", &self.backend.kind())
            .field("segments", &self.segments.len())
            .field("sealed_seq", &self.sealed_seq)
            .field("checkpoint_seq", &self.checkpoint_seq)
            .field("degraded", &self.degraded)
            .finish()
    }
}

impl SegmentLog {
    /// Opens (or creates) the store on `backend`, runs the full recovery
    /// state machine, and returns the log alongside the recovered engine
    /// and the recovery report. A fingerprint-proof failure anywhere —
    /// checkpoint or replay — rejects the store rather than serving
    /// silently wrong history.
    pub fn open(
        mut backend: Box<dyn StoreEngine>,
        opts: StoreOptions,
    ) -> Result<(Self, StreamEngine, RecoveryReport), StoreError> {
        // 1. Manifest: identity and version.
        let manifest = match backend.read_manifest()? {
            Some(json) => {
                let m: Manifest = serde_json::from_str(&json)
                    .map_err(|e| corrupt(format!("manifest does not parse: {e}")))?;
                if m.version != MANIFEST_VERSION {
                    return Err(StoreError::UnsupportedVersion {
                        what: "manifest",
                        found: m.version,
                        supported: MANIFEST_VERSION,
                    });
                }
                if m.seed != opts.seed || m.lca_classes != opts.lca_classes {
                    return Err(StoreError::Mismatch {
                        detail: format!(
                            "store was built with seed={} classes={}, opened with seed={} classes={}",
                            m.seed, m.lca_classes, opts.seed, opts.lca_classes
                        ),
                    });
                }
                m
            }
            None => {
                if !backend.segments()?.is_empty() {
                    return Err(corrupt("segments exist but the manifest is missing".into()));
                }
                let m = Manifest {
                    version: MANIFEST_VERSION,
                    seed: opts.seed,
                    lca_classes: opts.lca_classes,
                    checkpoint: None,
                    epoch: 0,
                };
                backend.write_manifest(&serde_json::to_string(&m).expect("manifest serialises"))?;
                m
            }
        };

        // 2. Checkpoint named by the manifest.
        let checkpoint: Option<Checkpoint> = match &manifest.checkpoint {
            Some(name) => {
                let json = backend.read_checkpoint(name)?;
                let c: Checkpoint = serde_json::from_str(&json)
                    .map_err(|e| corrupt(format!("checkpoint {name} does not parse: {e}")))?;
                if c.version != CHECKPOINT_VERSION {
                    return Err(StoreError::UnsupportedVersion {
                        what: "checkpoint",
                        found: c.version,
                        supported: CHECKPOINT_VERSION,
                    });
                }
                Some(c)
            }
            None => None,
        };
        let ckpt_seq = checkpoint.as_ref().map(|c| c.seq);

        let mut names = backend.segments()?;
        if names.is_empty() {
            let first = segment_name(1);
            backend.create_segment(&first)?;
            names.push(first);
        }

        // 3. Scan: collect post-checkpoint batches, cut torn tails. The
        // same pass indexes every durable batch (pre-checkpoint ones
        // included, while they remain on disk) for replication export.
        let mut segments: Vec<SegmentMeta> = Vec::new();
        let mut batches: Vec<(Vec<Event>, SealDelta)> = Vec::new();
        let mut batch_index: Vec<BatchLoc> = Vec::new();
        let mut current: Vec<Event> = Vec::new();
        let mut last_seal: Option<(u64, String)> = None;
        let mut truncated_bytes = 0u64;
        let mut dropped_segments = 0u64;
        for (si, name) in names.iter().enumerate() {
            let bytes = backend.read_segment(name)?;
            let mut off = 0usize;
            let mut durable_end = 0usize;
            // Segments rotate on batch boundaries, so each batch's frames
            // start where the previous seal record in this segment ended.
            let mut batch_start = 0usize;
            let mut seg_last_seal = None;
            let mut torn = false;
            while off < bytes.len() {
                let Ok((kind, payload, next)) = frame::decode(&bytes, off) else {
                    torn = true;
                    break;
                };
                // CRC-valid payloads are bytes we wrote, so these parses
                // only fail on genuine corruption — same cure: truncate.
                let Ok(text) = std::str::from_utf8(payload) else {
                    torn = true;
                    break;
                };
                if kind == KIND_EVENT {
                    match serde_json::from_str::<Event>(text) {
                        Ok(ev) => current.push(ev),
                        Err(_) => {
                            torn = true;
                            break;
                        }
                    }
                } else {
                    match serde_json::from_str::<SealDelta>(text) {
                        Ok(delta) => {
                            let batch = std::mem::take(&mut current);
                            seg_last_seal = Some(delta.seq);
                            last_seal = Some((delta.seq, delta.fingerprint.clone()));
                            batch_index.push(BatchLoc {
                                seq: delta.seq,
                                segment: name.clone(),
                                offset: batch_start as u64,
                                len: (next - batch_start) as u64,
                            });
                            if ckpt_seq.is_none_or(|c| delta.seq > c) {
                                batches.push((batch, delta));
                            }
                            durable_end = next;
                            batch_start = next;
                        }
                        Err(_) => {
                            torn = true;
                            break;
                        }
                    }
                }
                off = next;
            }
            if torn || durable_end < bytes.len() {
                // Seal-or-nothing: the tail after the last valid seal
                // record — and everything in later segments — is gone.
                current.clear();
                truncated_bytes += (bytes.len() - durable_end) as u64;
                backend.truncate_segment(name, durable_end as u64)?;
                for later in &names[si + 1..] {
                    truncated_bytes += backend.read_segment(later)?.len() as u64;
                    backend.remove_segment(later)?;
                    dropped_segments += 1;
                }
                segments.push(SegmentMeta {
                    name: name.clone(),
                    bytes: durable_end as u64,
                    last_seal: seg_last_seal,
                });
                break;
            }
            segments.push(SegmentMeta {
                name: name.clone(),
                bytes: bytes.len() as u64,
                last_seal: seg_last_seal,
            });
        }

        // 4. Contiguity: kept batches must continue the checkpoint.
        let base = ckpt_seq.map_or(0, |c| c + 1);
        for (offset, (_, delta)) in batches.iter().enumerate() {
            let expected = base + offset as u64;
            if delta.seq != expected {
                return Err(corrupt(format!(
                    "seal sequence hole: expected seq {expected}, log has {}",
                    delta.seq
                )));
            }
        }

        let sealed = match (&last_seal, ckpt_seq) {
            (Some((s, fp)), Some(c)) if *s >= c => Some((*s, fp.clone())),
            (_, Some(c)) => {
                let fp = checkpoint.as_ref().map(|ck| ck.fingerprint.clone());
                fp.map(|fp| (c, fp))
            }
            (Some((s, fp)), None) => Some((*s, fp.clone())),
            (None, None) => None,
        };

        // 5. Replay with the fingerprint proof.
        let (engine, replayed_seals, replayed_events) = rebuild(checkpoint, batches)?;

        let report = RecoveryReport {
            checkpoint_seq: ckpt_seq,
            replayed_seals,
            replayed_events,
            truncated_bytes,
            dropped_segments,
            sealed_seq: sealed.as_ref().map(|(s, _)| *s),
            sealed_fingerprint: sealed.as_ref().map(|(_, fp)| fp.clone()),
        };
        let next_segment =
            segments.iter().filter_map(|s| segment_number(&s.name)).max().unwrap_or(1) + 1;
        let log = Self {
            backend,
            opts,
            segments,
            batches: batch_index,
            next_segment,
            sealed_seq: report.sealed_seq,
            sealed_fingerprint: report.sealed_fingerprint.clone(),
            checkpoint_seq: ckpt_seq,
            checkpoint_name: manifest.checkpoint.clone(),
            epoch: manifest.epoch,
            appended_seals: 0,
            appended_events: 0,
            torn_writes: 0,
            fsync_stalls: 0,
            checkpoints_written: 0,
            degraded: false,
        };
        Ok((log, engine, report))
    }

    /// Appends one sealed batch — the month's events in arrival order
    /// (watermark last) plus the seal record — as a single buffered write
    /// with one fsync. Called *after* the engine committed the seal, so a
    /// failure here flips the log into degraded mode: the process keeps
    /// serving from memory, but this seal is not durable.
    pub fn append_seal(&mut self, events: &[Event], delta: &SealDelta) -> Result<(), StoreError> {
        let mut buf = Vec::with_capacity(events.len() * 128 + 512);
        // One payload buffer for the whole batch: the serializer appends
        // to a `String`, so each event reuses the last one's allocation.
        let mut payload = String::new();
        for ev in events {
            payload.clear();
            ev.serialize_json(&mut payload);
            frame::encode(KIND_EVENT, payload.as_bytes(), &mut buf);
        }
        frame::encode(KIND_SEAL, delta.to_json().as_bytes(), &mut buf);

        if let Some(FaultAction::Delay(d)) = inject(FaultPoint::FsyncStall) {
            self.fsync_stalls += 1;
            std::thread::sleep(d);
        }

        let active = self.segments.last().expect("log always has an active segment");
        let active_name = active.name.clone();
        let write = match inject(FaultPoint::TornWrite) {
            Some(FaultAction::Truncate(keep)) => {
                // A lying disk: a prefix lands, the fsync never happens,
                // and the caller is told everything succeeded. Only the
                // next recovery scan discovers the tear.
                self.torn_writes += 1;
                let keep = keep.min(buf.len());
                self.backend.append_segment(&active_name, &buf[..keep], false)
            }
            _ => self.backend.append_segment(&active_name, &buf, self.opts.fsync),
        };
        if let Err(e) = write {
            self.degraded = true;
            return Err(e);
        }

        let active = self.segments.last_mut().expect("log always has an active segment");
        // Indexed at the pre-write offset. A torn write makes this entry
        // a lie, exactly like `active.bytes` — recovery is what exposes
        // it, and recovery rebuilds the index from the surviving frames.
        self.batches.push(BatchLoc {
            seq: delta.seq,
            segment: active.name.clone(),
            offset: active.bytes,
            len: buf.len() as u64,
        });
        active.bytes += buf.len() as u64;
        active.last_seal = Some(delta.seq);
        self.appended_events += events.len() as u64;
        self.appended_seals += 1;
        self.sealed_seq = Some(delta.seq);
        self.sealed_fingerprint = Some(delta.fingerprint.clone());

        // Rotate at a batch boundary so every segment starts on one —
        // the invariant that makes whole-segment compaction safe.
        if active.bytes >= self.opts.segment_bytes {
            let name = segment_name(self.next_segment);
            if let Err(e) = self.backend.create_segment(&name) {
                self.degraded = true;
                return Err(e);
            }
            self.next_segment += 1;
            self.segments.push(SegmentMeta { name, bytes: 0, last_seal: None });
        }
        Ok(())
    }

    /// Whether the checkpoint policy wants a snapshot after seal `seq`.
    pub fn should_checkpoint(&self, seq: u64) -> bool {
        self.opts.checkpoint_interval > 0 && (seq + 1).is_multiple_of(self.opts.checkpoint_interval)
    }

    /// Writes a checkpoint, repoints the manifest at it, and prunes the
    /// superseded ones. The `ckpt_panic` fault fires before any state is
    /// touched, so a chaos-panicked checkpoint is a clean no-op.
    pub fn write_checkpoint(&mut self, ckpt: &Checkpoint) -> Result<(), StoreError> {
        if let Some(FaultAction::Panic) = inject(FaultPoint::CheckpointPanic) {
            panic!("{INJECTED_PANIC}");
        }
        let name = format!("ckpt-{:08}-{}.json", ckpt.seq, ckpt.fingerprint);
        let json = serde_json::to_string(ckpt).expect("checkpoint serialises");
        if let Err(e) = self.backend.write_checkpoint(&name, &json).and_then(|()| {
            let manifest = Manifest {
                version: MANIFEST_VERSION,
                seed: self.opts.seed,
                lca_classes: self.opts.lca_classes,
                checkpoint: Some(name.clone()),
                epoch: self.epoch,
            };
            self.backend
                .write_manifest(&serde_json::to_string(&manifest).expect("manifest serialises"))
        }) {
            self.degraded = true;
            return Err(e);
        }
        self.checkpoint_name = Some(name.clone());
        // Pruning is best-effort: a stale checkpoint file is dead weight,
        // not a correctness problem (the manifest no longer names it).
        if let Ok(names) = self.backend.checkpoints() {
            for old in names.iter().filter(|n| **n != name) {
                let _ = self.backend.remove_checkpoint(old);
            }
        }
        self.checkpoint_seq = Some(ckpt.seq);
        self.checkpoints_written += 1;
        Ok(())
    }

    /// Removes leading segments whose every seal the current checkpoint
    /// covers. The active segment is never removed.
    pub fn compact(&mut self) -> Result<CompactReport, StoreError> {
        let mut report = CompactReport::default();
        let Some(ckpt) = self.checkpoint_seq else {
            return Ok(report);
        };
        while self.segments.len() > 1 {
            match self.segments[0].last_seal {
                Some(s) if s <= ckpt => {
                    let meta = self.segments.remove(0);
                    self.backend.remove_segment(&meta.name)?;
                    self.batches.retain(|b| b.segment != meta.name);
                    report.removed_segments += 1;
                    report.removed_bytes += meta.bytes;
                }
                _ => break,
            }
        }
        Ok(report)
    }

    /// Current counters and shape.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            backend: self.backend.kind().to_string(),
            fsync: self.opts.fsync,
            segments: self.segments.len() as u64,
            log_bytes: self.segments.iter().map(|s| s.bytes).sum(),
            sealed_seq: self.sealed_seq,
            sealed_fingerprint: self.sealed_fingerprint.clone(),
            checkpoint_seq: self.checkpoint_seq,
            checkpoint_interval: self.opts.checkpoint_interval,
            appended_seals: self.appended_seals,
            appended_events: self.appended_events,
            torn_writes: self.torn_writes,
            fsync_stalls: self.fsync_stalls,
            checkpoints_written: self.checkpoints_written,
            degraded: self.degraded,
            epoch: self.epoch,
        }
    }

    /// What this log can offer a syncing follower.
    pub fn sync_manifest(&self) -> SyncManifest {
        SyncManifest {
            version: SYNC_MANIFEST_VERSION,
            seed: self.opts.seed,
            lca_classes: self.opts.lca_classes,
            sealed_seq: self.sealed_seq,
            sealed_fingerprint: self.sealed_fingerprint.clone(),
            base_seq: self.batches.first().map(|b| b.seq),
            epoch: self.epoch,
        }
    }

    /// Leadership epoch persisted in the manifest.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Persists a new leadership epoch by atomically rewriting the
    /// manifest. Epochs are fencing tokens and only move forward; a
    /// regression is an internal-logic error and is rejected. The write
    /// happens *before* the in-memory bump so a crash mid-call leaves the
    /// store at the old epoch — safe, because a node at an old epoch can
    /// only be fenced, never split-brain.
    pub fn set_epoch(&mut self, epoch: u64) -> Result<(), StoreError> {
        if epoch < self.epoch {
            return Err(corrupt(format!(
                "epoch regression: store is at {}, asked to persist {epoch}",
                self.epoch
            )));
        }
        if epoch == self.epoch {
            return Ok(());
        }
        let manifest = Manifest {
            version: MANIFEST_VERSION,
            seed: self.opts.seed,
            lca_classes: self.opts.lca_classes,
            checkpoint: self.checkpoint_name.clone(),
            epoch,
        };
        if let Err(e) = self
            .backend
            .write_manifest(&serde_json::to_string(&manifest).expect("manifest serialises"))
        {
            self.degraded = true;
            return Err(e);
        }
        self.epoch = epoch;
        Ok(())
    }

    /// Exports one sealed batch as the CRC-framed bytes it occupies on
    /// disk — event records in arrival order, then the seal record. The
    /// receiver re-validates every frame and replays the batch under the
    /// fingerprint proof, so these bytes need no extra envelope. Returns
    /// `None` when `seq` is not in the log (never sealed, or compacted
    /// away). The `segment_corrupt` fault flips one byte of the export so
    /// chaos runs can prove the receiver rejects a damaged fetch.
    pub fn export_batch(&self, seq: u64) -> Result<Option<Vec<u8>>, StoreError> {
        let Ok(i) = self.batches.binary_search_by_key(&seq, |b| b.seq) else {
            return Ok(None);
        };
        let loc = &self.batches[i];
        let bytes = self.backend.read_segment(&loc.segment)?;
        let (start, end) = (loc.offset as usize, (loc.offset + loc.len) as usize);
        if end > bytes.len() {
            return Err(corrupt(format!(
                "batch {seq} indexed at {start}..{end} but segment {} holds {} byte(s)",
                loc.segment,
                bytes.len()
            )));
        }
        let mut out = bytes[start..end].to_vec();
        if let Some(FaultAction::Corrupt(at)) = inject(FaultPoint::SegmentCorrupt) {
            if let Some(byte) = out.get_mut(at.min(end - start - 1)) {
                *byte ^= 0xFF;
            }
        }
        Ok(Some(out))
    }

    /// True once a backend write failed under this open.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Tears the log down to its backend — how tests simulate a process
    /// death and reopen the same in-memory store.
    pub fn into_backend(self) -> Box<dyn StoreEngine> {
        self.backend
    }
}

/// Rebuilds the engine from the checkpoint, replays the post-checkpoint
/// batches, and enforces the fingerprint proof at every step.
fn rebuild(
    checkpoint: Option<Checkpoint>,
    batches: Vec<(Vec<Event>, SealDelta)>,
) -> Result<(StreamEngine, u64, u64), StoreError> {
    let mut engine = match checkpoint {
        Some(c) => {
            // A freshly decoded checkpoint is the only holder of its
            // prefix, so unwrapping it copies nothing.
            let dataset = Arc::unwrap_or_clone(c.dataset).reindex();
            let ledger = Arc::unwrap_or_clone(c.ledger).reindex();
            let fp = format!("{:016x}-{:016x}", dataset.fingerprint(), ledger.fingerprint());
            if fp != c.fingerprint {
                return Err(corrupt(format!(
                    "checkpoint fingerprint proof failed: recomputed {fp}, stored {}",
                    c.fingerprint
                )));
            }
            let consistent =
                c.seals.last().is_some_and(|s| s.seq == c.seq && s.fingerprint == c.fingerprint);
            if !consistent {
                return Err(corrupt(
                    "checkpoint seal history does not end at the checkpoint seal".into(),
                ));
            }
            StreamEngine::from_sealed(dataset, ledger, c.seals)
        }
        None => StreamEngine::new(),
    };
    let mut replayed_events = 0u64;
    let mut replayed_seals = 0u64;
    for (events, recorded) in batches {
        let mut outcome = None;
        for ev in events {
            replayed_events += 1;
            outcome = engine
                .apply(ev)
                .map_err(|e| corrupt(format!("replay of seal {} rejected: {e}", recorded.seq)))?;
        }
        let delta = outcome.ok_or_else(|| {
            corrupt(format!("batch for seal {} did not end in a watermark", recorded.seq))
        })?;
        if delta.seq != recorded.seq || delta.fingerprint != recorded.fingerprint {
            return Err(corrupt(format!(
                "replay fingerprint proof failed at seal {}: replayed {} (seq {}), recorded {}",
                recorded.seq, delta.fingerprint, delta.seq, recorded.fingerprint
            )));
        }
        replayed_seals += 1;
    }
    Ok((engine, replayed_seals, replayed_events))
}
