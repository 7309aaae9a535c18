//! dial-store: durable storage for the live event stream.
//!
//! `dial serve --live` previously kept every ingested event in RAM — a
//! restart lost the whole stream. This crate gives the stream a durable
//! home: an append-only segment log of CRC-framed records (the same
//! NDJSON event encoding the wire uses, plus seal records carrying each
//! watermark's [`dial_stream::SealDelta`]) and periodic checkpoint
//! snapshots keyed by the sealed-prefix fingerprint.
//!
//! Layering, bottom-up:
//!
//! - [`frame`](crate::frame) — the record codec. CRC-32 framing makes a
//!   torn tail detectable instead of misparseable.
//! - [`StoreEngine`] — byte-level backends: [`FsBackend`] (segment files,
//!   atomic manifest/checkpoint writes, fsync'd seal appends) and
//!   [`MemBackend`] (volatile, for tests). Both run the *same* log logic.
//! - [`SegmentLog`] — framing, recovery, rotation, checkpoints, and the
//!   fault-injection hooks (`torn_write`, `fsync_stall`, `ckpt_panic`).
//!
//! Durability is seal-or-nothing: a batch of events is durable exactly
//! when the seal record that closes it is fully on disk. Recovery replays
//! the log from the last checkpoint and proves itself by recomputing
//! every seal's prefix fingerprint — byte-identical or the store is
//! rejected. See DESIGN §15 for the full state machine.

mod backend;
pub mod frame;
mod log;

pub use backend::{FsBackend, MemBackend, StoreEngine};
pub use log::{
    Checkpoint, CompactReport, RecoveryReport, SegmentLog, StoreStats, SyncManifest,
    SYNC_MANIFEST_VERSION,
};

/// Why a store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A backend read/write failed (context includes the OS error).
    Io {
        /// What the store was doing, plus the underlying error.
        context: String,
    },
    /// The on-disk state is internally inconsistent: a fingerprint proof
    /// failed, a control file does not parse, or seals have holes.
    Corrupt {
        /// What exactly did not line up.
        detail: String,
    },
    /// The store belongs to a different stream identity than the one it
    /// was opened for (seed / LCA class count disagree).
    Mismatch {
        /// Stored vs requested identity.
        detail: String,
    },
    /// A control file was written in a format version this build does not
    /// read. Nothing was modified; the stream must be re-ingested into a
    /// fresh store.
    UnsupportedVersion {
        /// Which control file (`"manifest"` / `"checkpoint"`).
        what: &'static str,
        /// The version on disk.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { context } => write!(f, "store io error: {context}"),
            StoreError::Corrupt { detail } => write!(f, "store corrupt: {detail}"),
            StoreError::Mismatch { detail } => write!(f, "store identity mismatch: {detail}"),
            StoreError::UnsupportedVersion { what, found, supported } => write!(
                f,
                "store {what} is format version {found}, this build reads version {supported}; \
                 the store was left untouched: re-ingest the stream into an empty data directory"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// Identity and policy for one open of the log.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Simulation seed the stream identity is bound to.
    pub seed: u64,
    /// LCA class count bound into the same identity.
    pub lca_classes: usize,
    /// Fsync each seal append (`false` trades durability for throughput;
    /// the bench measures the delta).
    pub fsync: bool,
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// Write a checkpoint every this many seals (0 disables).
    pub checkpoint_interval: u64,
}

impl StoreOptions {
    /// Default policy bound to a stream identity: fsync on, ~4 MiB
    /// segments, a checkpoint every 6 seals.
    pub fn new(seed: u64, lca_classes: usize) -> Self {
        Self { seed, lca_classes, fsync: true, segment_bytes: 4 << 20, checkpoint_interval: 6 }
    }

    /// Overrides the fsync policy.
    pub fn with_fsync(mut self, fsync: bool) -> Self {
        self.fsync = fsync;
        self
    }

    /// Overrides the segment rotation threshold.
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Overrides the checkpoint interval (0 disables checkpoints).
    pub fn with_checkpoint_interval(mut self, seals: u64) -> Self {
        self.checkpoint_interval = seals;
        self
    }
}

/// Opens (creating if needed) a filesystem store at `dir` and runs
/// recovery: the one-call entry point `dial serve --live --data-dir`
/// uses.
pub fn open_fs(
    dir: impl AsRef<std::path::Path>,
    opts: StoreOptions,
) -> Result<(SegmentLog, dial_stream::StreamEngine, RecoveryReport), StoreError> {
    SegmentLog::open(Box::new(FsBackend::open(dir)?), opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dial_sim::{SimConfig, SimOutput};
    use dial_stream::{segments, Event, StreamEngine};

    fn simulate() -> SimOutput {
        SimConfig::paper_default().with_seed(9).with_scale(0.01).simulate_full()
    }

    fn opts() -> StoreOptions {
        // Tiny segments force rotation even at 0.01 scale.
        StoreOptions::new(9, 3).with_segment_bytes(64 << 10).with_checkpoint_interval(0)
    }

    /// Streams the whole sim through an engine while mirroring every
    /// sealed batch into the log, checkpointing per the log's policy.
    fn mirror_ingest(log: &mut SegmentLog, engine: &mut StreamEngine, out: &SimOutput) {
        let mut batch: Vec<Event> = Vec::new();
        for seg in segments(out) {
            for ev in seg {
                batch.push(ev.clone());
                if let Some(delta) = engine.apply(ev).expect("replay is gap-free") {
                    log.append_seal(&batch, &delta).expect("append succeeds");
                    batch.clear();
                    if log.should_checkpoint(delta.seq) {
                        let ckpt = Checkpoint::from_engine(engine).expect("sealed engine");
                        log.write_checkpoint(&ckpt).expect("checkpoint succeeds");
                    }
                }
            }
        }
        assert!(batch.is_empty(), "every month must end in a watermark");
    }

    fn reopen(
        log: SegmentLog,
        options: StoreOptions,
    ) -> (SegmentLog, StreamEngine, RecoveryReport) {
        SegmentLog::open(log.into_backend(), options).expect("reopen recovers")
    }

    /// Decodes one exported batch and applies it: event records first,
    /// the closing seal record last, with the replayed fingerprint
    /// checked against the recorded one — a follower in miniature.
    fn replay_exported(engine: &mut StreamEngine, bytes: &[u8], seq: u64) {
        let mut off = 0usize;
        let mut sealed = None;
        while off < bytes.len() {
            let (kind, payload, next) =
                frame::decode(bytes, off).expect("exported frames are valid");
            let text = std::str::from_utf8(payload).expect("payloads are JSON");
            if kind == frame::KIND_EVENT {
                let ev: Event = serde_json::from_str(text).expect("event parses");
                sealed = engine.apply(ev).expect("replay is gap-free");
            } else {
                let recorded: dial_stream::SealDelta =
                    serde_json::from_str(text).expect("seal parses");
                let delta = sealed.as_ref().expect("seal record follows a watermark");
                assert_eq!(delta.seq, seq);
                assert_eq!(delta.fingerprint, recorded.fingerprint);
            }
            off = next;
        }
    }

    #[test]
    fn export_batch_serves_replayable_frames_and_survives_reopen() {
        let out = simulate();
        let (mut log, mut engine, _) =
            SegmentLog::open(Box::new(MemBackend::new()), opts()).unwrap();
        mirror_ingest(&mut log, &mut engine, &out);
        let total = out.marks.len() as u64;

        let manifest = log.sync_manifest();
        assert_eq!(manifest.version, SYNC_MANIFEST_VERSION);
        assert_eq!((manifest.seed, manifest.lca_classes), (9, 3));
        assert_eq!(manifest.base_seq, Some(0));
        assert_eq!(manifest.sealed_seq, Some(total - 1));
        assert_eq!(manifest.sealed_fingerprint, log.stats().sealed_fingerprint);

        // A fresh engine fed nothing but exported batches must rebuild
        // the exact sealed prefix.
        let mut follower = StreamEngine::new();
        for seq in 0..total {
            let bytes = log.export_batch(seq).unwrap().expect("sealed batch exports");
            replay_exported(&mut follower, &bytes, seq);
        }
        assert_eq!(follower.seals(), engine.seals());
        assert_eq!(log.export_batch(total).unwrap(), None, "beyond the sealed tip");

        // The batch index is rebuilt by the recovery scan, not persisted.
        let (relog, _, _) = reopen(log, opts());
        let mut again = StreamEngine::new();
        for seq in 0..total {
            let bytes = relog.export_batch(seq).unwrap().expect("exports after reopen");
            replay_exported(&mut again, &bytes, seq);
        }
        assert_eq!(again.seals(), engine.seals());
    }

    #[test]
    fn mem_round_trip_recovers_identical_state() {
        let out = simulate();
        let (mut log, mut engine, fresh) =
            SegmentLog::open(Box::new(MemBackend::new()), opts()).unwrap();
        assert_eq!(fresh.sealed_seq, None);
        mirror_ingest(&mut log, &mut engine, &out);
        assert!(log.stats().segments > 1, "rotation must have happened");

        let (relog, rengine, report) = reopen(log, opts());
        assert_eq!(report.replayed_seals, out.marks.len() as u64);
        assert_eq!(report.sealed_seq, Some(out.marks.len() as u64 - 1));
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(rengine.dataset().fingerprint(), engine.dataset().fingerprint());
        assert_eq!(rengine.ledger().fingerprint(), engine.ledger().fingerprint());
        assert_eq!(rengine.seals(), engine.seals());
        assert_eq!(relog.stats().sealed_fingerprint, report.sealed_fingerprint);
    }

    #[test]
    fn torn_tail_is_truncated_to_the_last_seal() {
        let out = simulate();
        let (mut log, mut engine, _) =
            SegmentLog::open(Box::new(MemBackend::new()), opts()).unwrap();
        mirror_ingest(&mut log, &mut engine, &out);
        let mut backend = log.into_backend();
        // The last non-empty segment holds the final sealed batch (a
        // fresh active segment may trail it after a rotation).
        let (tail, len) = backend
            .segments()
            .unwrap()
            .into_iter()
            .rev()
            .find_map(|name| {
                let len = backend.read_segment(&name).unwrap().len();
                (len > 0).then_some((name, len))
            })
            .expect("the log holds batches");

        // Chop into the middle of the final seal record: the final month
        // must roll back, everything before it must survive.
        backend.truncate_segment(&tail, (len - 7) as u64).unwrap();
        let (_, rengine, report) = SegmentLog::open(backend, opts()).unwrap();
        assert_eq!(report.sealed_seq, Some(out.marks.len() as u64 - 2));
        assert!(report.truncated_bytes > 0, "the torn tail must be counted");
        let expect = engine.seals()[out.marks.len() - 2].fingerprint.clone();
        assert_eq!(report.sealed_fingerprint, Some(expect));
        assert_eq!(rengine.seals().len(), out.marks.len() - 1);
    }

    #[test]
    fn bit_rot_mid_log_drops_everything_after_it() {
        let out = simulate();
        let (mut log, mut engine, _) =
            SegmentLog::open(Box::new(MemBackend::new()), opts()).unwrap();
        mirror_ingest(&mut log, &mut engine, &out);
        let segments_before = log.stats().segments;
        assert!(segments_before >= 3, "need a middle segment to corrupt");

        let mut backend = log.into_backend();
        // Garble segment 2 from its midpoint: recovery must keep only its
        // leading sealed batches and drop every later segment.
        let name = "seg-00000002.log";
        let len = backend.read_segment(name).unwrap().len();
        backend.truncate_segment(name, (len / 2) as u64).unwrap();
        backend.append_segment(name, b"garbage-where-a-frame-should-be", false).unwrap();
        let (relog, rengine, report) = SegmentLog::open(backend, opts()).unwrap();
        assert_eq!(report.dropped_segments, segments_before - 2);
        assert!(report.truncated_bytes > 0);
        let sealed = report.sealed_seq.expect("segment 1 holds sealed batches");
        assert!((sealed as usize) < out.marks.len() - 1);
        assert_eq!(
            rengine.seals().last().map(|s| s.fingerprint.clone()),
            report.sealed_fingerprint
        );
        assert_eq!(relog.stats().segments as usize, 2, "seg 2 truncated, later dropped");
    }

    #[test]
    fn checkpoint_bounds_replay_and_compact_removes_covered_segments() {
        let out = simulate();
        let options = opts().with_checkpoint_interval(5);
        let (mut log, mut engine, _) =
            SegmentLog::open(Box::new(MemBackend::new()), options.clone()).unwrap();
        mirror_ingest(&mut log, &mut engine, &out);
        let stats = log.stats();
        assert!(stats.checkpoints_written >= 1);
        let ckpt_seq = stats.checkpoint_seq.expect("interval 5 checkpointed");

        let compacted = log.compact().expect("compact succeeds");
        let (relog, rengine, report) = reopen(log, options);
        assert_eq!(report.checkpoint_seq, Some(ckpt_seq));
        assert_eq!(
            report.replayed_seals,
            out.marks.len() as u64 - (ckpt_seq + 1),
            "replay must start after the checkpoint"
        );
        assert_eq!(rengine.dataset().fingerprint(), engine.dataset().fingerprint());
        assert_eq!(rengine.seals(), engine.seals());
        // Compaction only ever removes whole checkpoint-covered segments,
        // and the sync window shrinks with them: a follower can no longer
        // fetch batches whose bytes are gone.
        if compacted.removed_segments > 0 {
            assert!(compacted.removed_bytes > 0);
            match relog.sync_manifest().base_seq {
                // The checkpoint may cover every batch, leaving nothing
                // to export at all — only an empty active segment.
                None => assert_eq!(relog.export_batch(0).unwrap(), None),
                Some(base) => {
                    assert!(base > 0, "compaction advances the sync base");
                    assert_eq!(relog.export_batch(base - 1).unwrap(), None, "compacted batch gone");
                }
            }
        }
    }

    #[test]
    fn identity_mismatch_is_rejected() {
        let (log, _, _) = SegmentLog::open(Box::new(MemBackend::new()), opts()).unwrap();
        let err = SegmentLog::open(log.into_backend(), StoreOptions::new(10, 3)).unwrap_err();
        assert!(matches!(err, StoreError::Mismatch { .. }), "{err}");
    }

    #[test]
    fn a_tampered_checkpoint_fails_its_fingerprint_proof() {
        let out = simulate();
        let options = opts().with_checkpoint_interval(5);
        let (mut log, mut engine, _) =
            SegmentLog::open(Box::new(MemBackend::new()), options.clone()).unwrap();
        mirror_ingest(&mut log, &mut engine, &out);
        let mut backend = log.into_backend();
        let name = backend.checkpoints().unwrap().pop().expect("interval 5 checkpointed");
        let json = backend.read_checkpoint(&name).unwrap();

        // One field of one contract: the recomputed fingerprint must come
        // from the entities on disk, not from anything the file asserts.
        let flipped = json.replacen("\"visibility\":\"Private\"", "\"visibility\":\"Public\"", 1);
        assert_ne!(flipped, json, "the checkpoint holds a private contract");
        backend.write_checkpoint(&name, &flipped).unwrap();
        let err = SegmentLog::open(backend, options).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("checkpoint fingerprint proof failed"), "{err}");
    }

    /// Every file under `dir` with its bytes, in path order.
    fn tree(dir: &std::path::Path) -> Vec<(std::path::PathBuf, Vec<u8>)> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                out.extend(tree(&path));
            } else {
                let bytes = std::fs::read(&path).unwrap();
                out.push((path, bytes));
            }
        }
        out.sort();
        out
    }

    #[test]
    fn an_old_format_store_is_refused_by_name_and_left_untouched() {
        let dir = std::env::temp_dir().join(format!("dial-store-v1-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = simulate();
        let options = opts().with_checkpoint_interval(4);
        let (mut log, mut engine, _) = open_fs(&dir, options.clone()).unwrap();
        mirror_ingest(&mut log, &mut engine, &out);
        drop(log);

        // Rewrite the manifest as the version-1 format wrote it.
        let manifest = dir.join("manifest.json");
        let v2 = std::fs::read_to_string(&manifest).unwrap();
        let v1 = v2.replacen("\"version\":2", "\"version\":1", 1);
        assert_ne!(v1, v2, "the manifest records its version");
        std::fs::write(&manifest, v1).unwrap();

        let before = tree(&dir);
        let err = open_fs(&dir, options).unwrap_err();
        assert_eq!(
            err,
            StoreError::UnsupportedVersion { what: "manifest", found: 1, supported: 2 }
        );
        assert!(err.to_string().contains("re-ingest"), "{err}");
        assert_eq!(tree(&dir), before, "a refused store must not be modified");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fs_round_trip_survives_a_real_reopen() {
        let dir = std::env::temp_dir().join(format!("dial-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = simulate();
        let options = opts().with_checkpoint_interval(4);
        let (mut log, mut engine, _) = open_fs(&dir, options.clone()).unwrap();
        mirror_ingest(&mut log, &mut engine, &out);
        drop(log); // no clean shutdown step exists, and none is needed

        let (_, rengine, report) = open_fs(&dir, options).unwrap();
        assert_eq!(report.sealed_seq, Some(out.marks.len() as u64 - 1));
        assert_eq!(rengine.dataset().fingerprint(), engine.dataset().fingerprint());
        assert_eq!(rengine.seals(), engine.seals());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
