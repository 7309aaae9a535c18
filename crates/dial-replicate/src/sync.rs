//! Follower-side segment sync: a background runner that tails a
//! leader's sealed batches over `/v1/sync/*` and replays them through
//! the local [`Engine`].
//!
//! The unit of transfer is one sealed batch, exactly as dial-store laid
//! it down: CRC-framed event records, the watermark, then the seal
//! record carrying the leader's `SealDelta` with its sealed-prefix
//! fingerprint. [`Engine::apply_synced`] refuses the whole batch if any
//! frame fails its checksum and refuses the seal if the locally
//! recomputed fingerprint disagrees with the leader's — so a follower
//! that reports `synced_seq = N` is *provably* byte-identical to the
//! leader at seal `N`, not just hopefully so.
//!
//! Progress is resumable by construction: a durable follower recovers
//! its sealed prefix at startup ([`Engine::set_role`] seeds the sync
//! status from it) and the runner fetches only `synced_seq + 1`
//! onwards. Losing the leader is not an error state, just staleness:
//! after [`STALE_AFTER_FAILURES`] consecutive failed polls the runner
//! flags `stale: true` in `/v1/cluster` and keeps serving the sealed
//! prefix it has — until a promotion (its own, or a peer's that it
//! adopts) rewires the engine's role, which the runner follows live: it
//! re-reads [`Engine::leader_addr`] every cycle and idles whenever the
//! node is not a follower.
//!
//! Two refinements ride on the poll loop:
//!
//! * **Epoch fencing** — the manifest carries the leader's epoch. A
//!   manifest from a *lower* epoch than this node's is a revived old
//!   leader and is refused before any state is touched; a *higher* one
//!   is adopted ([`Engine::observe_epoch`]), so followers converge on
//!   the cluster epoch just by syncing.
//! * **SSE nudge** — a second thread holds a `GET /v1/stream`
//!   subscription to the leader and flips a flag on every `seal` frame,
//!   which the poll loop's sleep notices within ~10ms. Replication lag
//!   drops from O(poll interval) to near-instant while the interval
//!   poll stays as the fallback when the subscription drops.

use dial_fault::{inject, FaultAction, FaultPoint};
use dial_serve::httpc;
use dial_serve::{Engine, Role, SyncApplied, SyncApplyError};
use dial_store::{SyncManifest, SYNC_MANIFEST_VERSION};
use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Consecutive failed leader polls before the follower marks itself
/// stale in `/v1/cluster`. One failure is a blip; three in a row with
/// nothing applied in between is a dead or unreachable leader.
pub const STALE_AFTER_FAILURES: u32 = 3;

/// A blocking client for a leader's `/v1/sync/*` endpoints.
pub struct SyncClient {
    leader: String,
}

impl SyncClient {
    /// A client for the leader at `addr` (`host:port`).
    pub fn new(addr: &str) -> Self {
        Self { leader: addr.to_string() }
    }

    /// Fetches and parses `GET /v1/sync/manifest`.
    pub fn manifest(&self) -> Result<SyncManifest, String> {
        let reply = httpc::get(&self.leader, "/v1/sync/manifest")?;
        if reply.status != 200 {
            return Err(format!("manifest: HTTP {} from {}", reply.status, self.leader));
        }
        let manifest: SyncManifest = serde_json::from_str(&reply.text())
            .map_err(|e| format!("manifest from {}: {e:?}", self.leader))?;
        if manifest.version != SYNC_MANIFEST_VERSION {
            return Err(format!(
                "manifest version {} from {}, this build speaks {}",
                manifest.version, self.leader, SYNC_MANIFEST_VERSION
            ));
        }
        Ok(manifest)
    }

    /// Fetches one sealed batch's raw frame bytes via
    /// `GET /v1/sync/segment/{seq}`.
    pub fn fetch(&self, seq: u64) -> Result<Vec<u8>, String> {
        let reply = httpc::get(&self.leader, &format!("/v1/sync/segment/{seq}"))?;
        if reply.status != 200 {
            return Err(format!("batch {seq}: HTTP {} from {}", reply.status, self.leader));
        }
        Ok(reply.body)
    }
}

/// The background sync thread a follower runs for its lifetime, plus
/// the SSE nudge listener that keeps it prompt.
pub struct SyncRunner {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    sse_handle: Option<JoinHandle<()>>,
}

impl SyncRunner {
    /// Spawns the runner: every `poll` it fetches the current leader's
    /// manifest and applies any batches the local engine is missing.
    /// `leader` is only the address the engine was wired with — the
    /// runner re-reads [`Engine::leader_addr`] each cycle, so failover
    /// re-targets it without a restart.
    pub fn start(engine: Arc<Engine>, leader: String, poll: Duration) -> Self {
        let _ = leader; // the engine's role wiring is the live source
        let stop = Arc::new(AtomicBool::new(false));
        let nudge = Arc::new(AtomicBool::new(false));
        let handle = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let nudge = Arc::clone(&nudge);
            std::thread::Builder::new()
                .name("dial-sync".into())
                .spawn(move || run_loop(&engine, poll, &stop, &nudge))
                .expect("spawn sync runner thread")
        };
        let sse_handle = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("dial-sync-sse".into())
                .spawn(move || nudge_loop(&engine, &stop, &nudge))
                .expect("spawn sync nudge thread")
        };
        Self { stop, handle: Some(handle), sse_handle: Some(sse_handle) }
    }

    /// Signals the runner to stop and joins it — called on drain so the
    /// exit counters are final when printed.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.sse_handle.take() {
            let _ = handle.join();
        }
    }
}

fn run_loop(engine: &Engine, poll: Duration, stop: &AtomicBool, nudge: &AtomicBool) {
    let mut failures = 0u32;
    while !stop.load(Ordering::SeqCst) {
        // Failover-aware: the leader can change (an adopt) or disappear
        // as a target entirely (this node got promoted) between cycles.
        let target = (engine.role() == Role::Follower).then(|| engine.leader_addr()).flatten();
        if let Some(leader) = target {
            let client = SyncClient::new(&leader);
            match sync_once(engine, &client, stop) {
                Ok(()) => {
                    failures = 0;
                    engine.with_sync_status(|s| {
                        s.stale = false;
                        s.last_error = None;
                    });
                }
                Err(e) => {
                    failures += 1;
                    let stale = failures >= STALE_AFTER_FAILURES;
                    engine.with_sync_status(|s| {
                        s.last_error = Some(e);
                        if stale {
                            s.stale = true;
                        }
                    });
                }
            }
        } else {
            failures = 0;
        }
        // Sleep in slices so neither a drain nor a seal nudge waits out
        // a full poll interval.
        let slice = Duration::from_millis(10);
        let mut slept = Duration::ZERO;
        while slept < poll && !stop.load(Ordering::SeqCst) {
            if nudge.swap(false, Ordering::SeqCst) && engine.role() == Role::Follower {
                engine.metrics().sync_nudges.inc();
                break;
            }
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// The SSE nudge listener: holds a `/v1/stream` subscription to the
/// current leader and flips `nudge` whenever a `seal` frame arrives, so
/// the poll loop wakes immediately instead of at the next interval.
/// Purely an accelerator — any failure here just falls back to polling.
fn nudge_loop(engine: &Engine, stop: &AtomicBool, nudge: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        let target = (engine.role() == Role::Follower).then(|| engine.leader_addr()).flatten();
        if let Some(leader) = target {
            listen_for_seals(engine, &leader, stop, nudge);
        }
        // Reconnect (or re-check the role) after a short backoff, in
        // stop-aware slices.
        for _ in 0..20 {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// One `/v1/stream` subscription: reads the chunked SSE byte stream and
/// sets `nudge` for every `event: seal` marker seen. Returns when the
/// connection drops, the node stops being a follower of `leader`, or a
/// stop is signalled. The markers are scanned straight off the wire —
/// chunk framing and partial reads don't matter because the marker text
/// never spans anything the 16-byte carry-over can't bridge.
fn listen_for_seals(engine: &Engine, leader: &str, stop: &AtomicBool, nudge: &AtomicBool) {
    const MARKER: &[u8] = b"event: seal";
    let Ok(mut sock) = httpc::get_stream(leader, "/v1/stream", Duration::from_secs(2)) else {
        return;
    };
    if sock.set_read_timeout(Some(Duration::from_millis(100))).is_err() {
        return;
    }
    let mut chunk = [0u8; 4096];
    let mut window: Vec<u8> = Vec::new();
    loop {
        if stop.load(Ordering::SeqCst)
            || engine.role() != Role::Follower
            || engine.leader_addr().as_deref() != Some(leader)
        {
            return;
        }
        match sock.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                window.extend_from_slice(&chunk[..n]);
                let hits = window.windows(MARKER.len()).filter(|w| *w == MARKER).count();
                if hits > 0 {
                    nudge.store(true, Ordering::SeqCst);
                }
                // Keep a marker-sized tail so a marker split across two
                // reads is still seen.
                let keep = window.len().saturating_sub(MARKER.len() - 1);
                window.drain(..keep);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

/// One poll cycle: manifest, identity check, then fetch-and-apply every
/// batch past the local tip.
fn sync_once(engine: &Engine, client: &SyncClient, stop: &AtomicBool) -> Result<(), String> {
    let manifest = client.manifest()?;
    let (seed, classes) = engine.identity();
    if manifest.seed != seed || manifest.lca_classes != classes {
        return Err(format!(
            "leader identity mismatch: leader is seed={} classes={}, local is seed={seed} classes={classes}",
            manifest.seed, manifest.lca_classes
        ));
    }
    // Epoch fencing: a manifest from a lower epoch than ours is a
    // revived old leader still answering at its pre-failover epoch.
    // Refuse it before any state is touched — syncing from it would
    // re-adopt a history the cluster already moved past. A higher epoch
    // is the normal post-failover case and is adopted on the spot.
    let local_epoch = engine.epoch();
    if manifest.epoch < local_epoch {
        engine.metrics().epoch_rejections.inc();
        return Err(format!(
            "leader manifest is at epoch {} but this node is fenced at epoch {local_epoch}",
            manifest.epoch
        ));
    }
    if manifest.epoch > local_epoch {
        engine
            .observe_epoch(manifest.epoch)
            .map_err(|e| format!("could not adopt epoch {}: {e}", manifest.epoch))?;
    }
    engine.with_sync_status(|s| s.leader_seq = manifest.sealed_seq);
    let Some(leader_seq) = manifest.sealed_seq else {
        return Ok(()); // empty leader: in sync by definition
    };
    let mut next = engine.sync_status().synced_seq.map_or(0, |s| s + 1);
    while next <= leader_seq && !stop.load(Ordering::SeqCst) {
        // Chaos hook: `sync_stall` paces individual batch transfers, so
        // a kill-mid-sync test can land between two applied batches.
        if let Some(FaultAction::Delay(d)) = inject(FaultPoint::SyncStall) {
            std::thread::sleep(d);
        }
        let bytes = client.fetch(next)?;
        match engine.apply_synced(&bytes) {
            Ok(SyncApplied::Applied(seq)) => {
                engine.metrics().sync_segments_fetched.inc();
                engine.metrics().sync_bytes.add(bytes.len() as u64);
                next = seq + 1;
            }
            Ok(SyncApplied::Skipped(_)) => {
                // Already had it (e.g. a racing restart recovered it);
                // still a successful transfer.
                engine.metrics().sync_segments_fetched.inc();
                engine.metrics().sync_bytes.add(bytes.len() as u64);
                next += 1;
            }
            Err(SyncApplyError::Corrupt(detail)) => {
                // Damaged in flight or at rest on the leader — reject
                // the whole batch, refetch on the next poll.
                engine.metrics().fingerprint_rejects.inc();
                engine.metrics().sync_retries.inc();
                return Err(format!("batch {next} rejected: {detail}"));
            }
            Err(SyncApplyError::Diverged(detail)) => {
                // The leader's events replayed to a *different*
                // fingerprint locally: not a transfer error, a split
                // history. Refetching cannot fix it; surface loudly.
                engine.metrics().fingerprint_rejects.inc();
                return Err(format!("batch {next} diverged: {detail}"));
            }
            Err(SyncApplyError::Gap { expected, .. }) => {
                // Local tip moved under us (startup recovery finishing
                // late); realign and continue.
                engine.metrics().sync_retries.inc();
                next = expected;
            }
            Err(SyncApplyError::NotLive) => {
                return Err("local engine is not live; cannot apply sync batches".into());
            }
        }
    }
    Ok(())
}
