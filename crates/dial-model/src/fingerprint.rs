//! Content fingerprints that cost O(1) to read.
//!
//! [`ContentHash`] is the workspace's one content hash (64-bit FNV-1a).
//! [`EraDigest`] is what keeps fingerprints cheap on a growing history:
//! [`Dataset`](crate::Dataset) and `dial_chain::Ledger` serialise each
//! entity exactly once, as they take it in, and fold its canonical JSON
//! into a running hash per (era, entity kind), picking the era from the
//! entity's own timestamp. A whole or per-era fingerprint then combines a
//! dozen running states instead of re-serialising the history.
//!
//! Entities are only ever appended, in id order, so any split of a
//! history into appends folds the same bytes into the same slots in the
//! same order as one batch build: the fingerprints agree by construction.

use dial_time::{Date, Era};
use serde::Serialize;

/// A running 64-bit FNV-1a hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentHash(u64);

impl Default for ContentHash {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHash {
    /// The hash of no bytes (the FNV-1a offset basis).
    pub const fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of every byte folded in so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// One-shot hash of `bytes`.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Self::new();
        h.update(bytes);
        h.finish()
    }
}

/// The era whose slice an entity dated `date` belongs to; dates outside
/// the study eras clamp to the nearest one so the partition is total.
pub fn era_of_clamped(date: Date) -> Era {
    if date <= Era::SetUp.end() {
        return Era::SetUp;
    }
    if date >= Era::Covid19.start() {
        return Era::Covid19;
    }
    Era::of(date).unwrap_or(Era::Stable)
}

fn era_slot(era: Era) -> usize {
    match era {
        Era::SetUp => 0,
        Era::Stable => 1,
        Era::Covid19 => 2,
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: ContentHash,
    count: u64,
}

/// Running content hashes of a collection with `KINDS` entity kinds, one
/// per (era, kind), each with the number of entities folded into it.
///
/// Not serialised: an owner rebuilds it from its entities, and checks it
/// with [`EraDigest::verified`] before handing out a fingerprint.
#[derive(Debug, Clone)]
pub struct EraDigest<const KINDS: usize> {
    slots: [[Slot; KINDS]; 3],
    /// Reused serialisation buffer, so folding an entity allocates nothing.
    buf: String,
}

impl<const KINDS: usize> Default for EraDigest<KINDS> {
    fn default() -> Self {
        let empty = Slot { hash: ContentHash::new(), count: 0 };
        Self { slots: [[empty; KINDS]; 3], buf: String::new() }
    }
}

impl<const KINDS: usize> EraDigest<KINDS> {
    /// Serialises `entity` once and folds its canonical JSON into the
    /// slot of `kind` in the era `date` falls in.
    pub fn fold(&mut self, kind: usize, date: Date, entity: &impl Serialize) {
        self.buf.clear();
        // The vendored serializer appends JSON text to a `String`, which
        // is what lets one buffer serve every entity.
        entity.serialize_json(&mut self.buf);
        let slot = &mut self.slots[era_slot(era_of_clamped(date))][kind];
        slot.hash.update(self.buf.as_bytes());
        slot.count += 1;
    }

    /// Returns `self` after checking it covers exactly `lens[kind]`
    /// entities of each kind.
    ///
    /// # Panics
    /// Panics when the counts disagree: the owner was deserialised
    /// without `reindex()`, so its digest is empty and any fingerprint
    /// read from it would be silently wrong.
    pub fn verified(&self, lens: [usize; KINDS]) -> &Self {
        for (kind, len) in lens.into_iter().enumerate() {
            let folded: u64 = self.slots.iter().map(|era| era[kind].count).sum();
            assert_eq!(
                folded, len as u64,
                "content digest covers {folded} of {len} entities of kind {kind}: reindex() after deserialising"
            );
        }
        self
    }

    /// The fingerprint of one era's slice: each kind's hash and count.
    pub fn era(&self, era: Era) -> u64 {
        let mut h = ContentHash::new();
        for slot in &self.slots[era_slot(era)] {
            h.update(&slot.hash.finish().to_le_bytes());
            h.update(&slot.count.to_le_bytes());
        }
        h.finish()
    }

    /// The fingerprint of the whole collection: its three era
    /// fingerprints, in era order.
    pub fn whole(&self) -> u64 {
        let mut h = ContentHash::new();
        for era in Era::ALL {
            h.update(&self.era(era).to_le_bytes());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_is_fnv1a_and_streams() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(ContentHash::of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(ContentHash::of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(ContentHash::of(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = ContentHash::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), ContentHash::of(b"foobar"), "split updates equal one update");
    }

    #[test]
    fn era_partition_clamps_outside_the_study_window() {
        assert_eq!(era_of_clamped(Date::from_ymd(2017, 1, 1)), Era::SetUp);
        assert_eq!(era_of_clamped(Era::SetUp.end()), Era::SetUp);
        assert_eq!(era_of_clamped(Era::Stable.start()), Era::Stable);
        assert_eq!(era_of_clamped(Era::Stable.end()), Era::Stable);
        assert_eq!(era_of_clamped(Era::Covid19.start()), Era::Covid19);
        assert_eq!(era_of_clamped(Date::from_ymd(2021, 1, 1)), Era::Covid19);
    }
}
