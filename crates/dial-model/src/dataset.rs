//! The dataset container and its query API.

use crate::contract::{Contract, ContractStatus, ContractType};
use crate::fingerprint::EraDigest;
use crate::ids::{ContractId, ThreadId, UserId};
use crate::social::{Post, Thread, User};
use dial_time::{Era, YearMonth};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// A complete marketplace dataset: the synthetic analogue of the CrimeBB
/// HACK FORUMS contract dump.
///
/// Entities are stored densely (entity `i` has id `i`), which the
/// constructor verifies. Secondary indexes (per-user contract lists) and
/// the content digest behind [`Dataset::fingerprint`] are extended as
/// entities are taken in and shared by all pipelines.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    users: Vec<User>,
    contracts: Vec<Contract>,
    threads: Vec<Thread>,
    posts: Vec<Post>,
    /// contracts made by each user, in id order.
    #[serde(skip)]
    by_maker: HashMap<UserId, Vec<ContractId>>,
    /// contracts offered to each user, in id order.
    #[serde(skip)]
    by_taker: HashMap<UserId, Vec<ContractId>>,
    /// Per-(era, kind) content hashes, kinds indexed by the `*_KIND`
    /// constants.
    #[serde(skip)]
    digest: EraDigest<4>,
}

const USER_KIND: usize = 0;
const CONTRACT_KIND: usize = 1;
const THREAD_KIND: usize = 2;
const POST_KIND: usize = 3;

/// Moves `more` onto the end of `into`, adopting its allocation when
/// `into` is empty (a batch build) instead of copying it.
fn extend<T>(into: &mut Vec<T>, more: Vec<T>) {
    if into.is_empty() {
        *into = more;
    } else {
        into.extend(more);
    }
}

impl Dataset {
    /// Assembles a dataset and builds the secondary indexes and the
    /// content digest. This is [`Dataset::append`] onto an empty dataset,
    /// so a batch build and any sequence of appends share one code path.
    ///
    /// # Panics
    /// Panics if ids are not dense (`entity[i].id != i`) or if a contract
    /// references a missing user/thread — these indicate a broken producer.
    pub fn new(
        users: Vec<User>,
        contracts: Vec<Contract>,
        threads: Vec<Thread>,
        posts: Vec<Post>,
    ) -> Self {
        let mut ds = Self {
            users: Vec::new(),
            contracts: Vec::new(),
            threads: Vec::new(),
            posts: Vec::new(),
            by_maker: HashMap::new(),
            by_taker: HashMap::new(),
            digest: EraDigest::default(),
        };
        ds.append(users, contracts, threads, posts);
        ds
    }

    /// Rebuilds the (non-serialised) secondary indexes and content digest
    /// after deserialising.
    pub fn reindex(self) -> Self {
        Self::new(self.users, self.contracts, self.threads, self.posts)
    }

    /// Applies a delta: appends new entities in id order and extends the
    /// secondary indexes and the content digest incrementally, serialising
    /// each new entity once and nothing already taken in. A dataset grown
    /// through a sequence of `append`s is structurally identical (same
    /// serialisation, same whole and per-era fingerprints) to one built
    /// in a single batch from the concatenated vectors.
    ///
    /// # Panics
    /// Panics if the new ids do not continue densely from the current
    /// lengths, or if a contract/post references an entity that exists
    /// neither in the sealed prefix nor in this delta — both indicate a
    /// broken producer, exactly as in [`Dataset::new`].
    pub fn append(
        &mut self,
        users: Vec<User>,
        contracts: Vec<Contract>,
        threads: Vec<Thread>,
        posts: Vec<Post>,
    ) {
        let n_users = self.users.len() + users.len();
        let n_threads = self.threads.len() + threads.len();
        for (i, u) in users.iter().enumerate() {
            assert_eq!(u.id.index(), self.users.len() + i, "user ids must be dense");
        }
        for (i, c) in contracts.iter().enumerate() {
            assert_eq!(c.id.index(), self.contracts.len() + i, "contract ids must be dense");
            assert!(c.maker.index() < n_users, "maker out of range");
            assert!(c.taker.index() < n_users, "taker out of range");
            if let Some(t) = c.thread {
                assert!(t.index() < n_threads, "thread out of range");
            }
        }
        for (i, t) in threads.iter().enumerate() {
            assert_eq!(t.id.index(), self.threads.len() + i, "thread ids must be dense");
        }
        for (i, p) in posts.iter().enumerate() {
            assert_eq!(p.id.index(), self.posts.len() + i, "post ids must be dense");
            assert!(p.thread.index() < n_threads, "post thread out of range");
            assert!(p.author.index() < n_users, "post author out of range");
        }

        for u in &users {
            self.digest.fold(USER_KIND, u.joined, u);
        }
        for c in &contracts {
            self.by_maker.entry(c.maker).or_default().push(c.id);
            self.by_taker.entry(c.taker).or_default().push(c.id);
            self.digest.fold(CONTRACT_KIND, c.created.date(), c);
        }
        for t in &threads {
            self.digest.fold(THREAD_KIND, t.created.date(), t);
        }
        for p in &posts {
            self.digest.fold(POST_KIND, p.at.date(), p);
        }
        extend(&mut self.users, users);
        extend(&mut self.contracts, contracts);
        extend(&mut self.threads, threads);
        extend(&mut self.posts, posts);
    }

    /// Brings `self`, a sealed prefix of `newer`, up to `newer` by cloning
    /// only the entities past its own lengths and indexing the new
    /// contracts. The contents are then identical, so `newer`'s content
    /// digest is adopted instead of re-hashing the delta. This is what lets
    /// a stream engine refresh a spare copy of its prefix in O(delta).
    ///
    /// # Panics
    /// Panics if any collection of `self` is longer than `newer`'s; that
    /// `self` is a prefix of `newer` is the caller's contract.
    pub fn catch_up(&mut self, newer: &Dataset) {
        let lens = [self.users.len(), self.contracts.len(), self.threads.len(), self.posts.len()];
        let newer_lens =
            [newer.users.len(), newer.contracts.len(), newer.threads.len(), newer.posts.len()];
        assert!(
            lens.iter().zip(&newer_lens).all(|(own, new)| own <= new),
            "catch_up from a shorter dataset: {lens:?} > {newer_lens:?}"
        );
        let fresh = &newer.contracts[self.contracts.len()..];
        for c in fresh {
            self.by_maker.entry(c.maker).or_default().push(c.id);
            self.by_taker.entry(c.taker).or_default().push(c.id);
        }
        self.contracts.extend_from_slice(fresh);
        self.users.extend_from_slice(&newer.users[self.users.len()..]);
        self.threads.extend_from_slice(&newer.threads[self.threads.len()..]);
        self.posts.extend_from_slice(&newer.posts[self.posts.len()..]);
        self.digest = newer.digest.clone();
    }

    /// All members.
    pub fn users(&self) -> &[User] {
        &self.users
    }

    /// All contracts in id (creation) order.
    pub fn contracts(&self) -> &[Contract] {
        &self.contracts
    }

    /// All threads.
    pub fn threads(&self) -> &[Thread] {
        &self.threads
    }

    /// All posts.
    pub fn posts(&self) -> &[Post] {
        &self.posts
    }

    /// Looks up a user by id.
    pub fn user(&self, id: UserId) -> &User {
        &self.users[id.index()]
    }

    /// Looks up a contract by id.
    pub fn contract(&self, id: ContractId) -> &Contract {
        &self.contracts[id.index()]
    }

    /// A stable content fingerprint, combined in O(1) from the per-(era,
    /// kind) FNV-1a hashes of every entity's canonical JSON (see
    /// [`crate::fingerprint`]). Two datasets fingerprint equal iff their
    /// entities serialise identically, so the value is safe to use as a
    /// cache key across process restarts.
    ///
    /// # Panics
    /// Panics on a dataset deserialised without [`Dataset::reindex`].
    pub fn fingerprint(&self) -> u64 {
        self.digest().whole()
    }

    /// The fingerprint of the entities whose own timestamp falls in `era`
    /// (clamped, see [`crate::fingerprint::era_of_clamped`]): members by
    /// join date, contracts and threads by creation, posts by posting time.
    ///
    /// # Panics
    /// Panics on a dataset deserialised without [`Dataset::reindex`].
    pub fn era_fingerprint(&self, era: Era) -> u64 {
        self.digest().era(era)
    }

    fn digest(&self) -> &EraDigest<4> {
        // Lengths in `*_KIND` order.
        let lens = [self.users.len(), self.contracts.len(), self.threads.len(), self.posts.len()];
        self.digest.verified(lens)
    }

    /// Looks up a thread by id.
    pub fn thread(&self, id: ThreadId) -> &Thread {
        &self.threads[id.index()]
    }

    /// Contracts created by `user`, in creation order.
    pub fn contracts_made_by(&self, user: UserId) -> impl Iterator<Item = &Contract> {
        self.by_maker.get(&user).into_iter().flatten().map(move |id| self.contract(*id))
    }

    /// Contracts offered to `user` (whether or not accepted), in creation order.
    pub fn contracts_offered_to(&self, user: UserId) -> impl Iterator<Item = &Contract> {
        self.by_taker.get(&user).into_iter().flatten().map(move |id| self.contract(*id))
    }

    /// Contracts created in the given month.
    pub fn contracts_in_month(&self, ym: YearMonth) -> impl Iterator<Item = &Contract> {
        self.contracts.iter().filter(move |c| c.created_month() == ym)
    }

    /// Contracts created in the given era.
    pub fn contracts_in_era(&self, era: Era) -> impl Iterator<Item = &Contract> {
        self.contracts.iter().filter(move |c| c.created_era() == Some(era))
    }

    /// Completed contracts.
    pub fn completed_contracts(&self) -> impl Iterator<Item = &Contract> {
        self.contracts.iter().filter(|c| c.is_complete())
    }

    /// Completed *public* contracts: the subset with observable obligations
    /// used by all content analyses (activities, payments, values).
    pub fn completed_public_contracts(&self) -> impl Iterator<Item = &Contract> {
        self.contracts.iter().filter(|c| c.is_complete() && c.is_public())
    }

    /// Count of contracts of a given type and status (a Table 1 cell).
    pub fn count_by_type_status(&self, ty: ContractType, status: ContractStatus) -> usize {
        self.contracts.iter().filter(|c| c.contract_type == ty && c.status == status).count()
    }

    /// Marketplace post count per user (a cold-start control variable).
    /// Returned in sorted key order (`BTreeMap`): consumers iterate and
    /// serialise these counts, and hash order would leak into results.
    pub fn marketplace_post_counts(&self) -> BTreeMap<UserId, usize> {
        let mut out: BTreeMap<UserId, usize> = BTreeMap::new();
        for p in &self.posts {
            if p.in_marketplace {
                *out.entry(p.author).or_default() += 1;
            }
        }
        out
    }

    /// Total post count per user. Sorted key order, same reasoning as
    /// [`Dataset::marketplace_post_counts`].
    pub fn post_counts(&self) -> BTreeMap<UserId, usize> {
        let mut out: BTreeMap<UserId, usize> = BTreeMap::new();
        for p in &self.posts {
            *out.entry(p.author).or_default() += 1;
        }
        out
    }

    /// Validates every contract's structural invariants; returns all
    /// violations (empty ⇒ dataset is well-formed).
    pub fn validate(&self) -> Vec<String> {
        self.contracts.iter().filter_map(|c| c.validate().err()).collect()
    }

    /// Summary line used in logs and example output.
    pub fn summary(&self) -> String {
        format!(
            "{} contracts, {} users, {} threads, {} posts",
            self.contracts.len(),
            self.users.len(),
            self.threads.len(),
            self.posts.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::Visibility;
    use dial_time::{Date, Timestamp};

    fn tiny_dataset() -> Dataset {
        let users = vec![
            User {
                id: UserId(0),
                joined: Date::from_ymd(2018, 1, 1),
                first_post: None,
                reputation: 0,
            },
            User {
                id: UserId(1),
                joined: Date::from_ymd(2018, 2, 1),
                first_post: None,
                reputation: 5,
            },
        ];
        let contracts = vec![Contract {
            id: ContractId(0),
            contract_type: ContractType::Sale,
            status: ContractStatus::Complete,
            visibility: Visibility::Private,
            maker: UserId(0),
            taker: UserId(1),
            created: Timestamp::at(Date::from_ymd(2018, 7, 2), 12, 0),
            completed: Some(Timestamp::at(Date::from_ymd(2018, 7, 3), 12, 0)),
            maker_obligation: String::new(),
            taker_obligation: String::new(),
            thread: None,
            maker_rating: Some(1),
            taker_rating: None,
            chain_ref: None,
        }];
        Dataset::new(users, contracts, vec![], vec![])
    }

    #[test]
    fn indexes_work() {
        let ds = tiny_dataset();
        assert_eq!(ds.contracts_made_by(UserId(0)).count(), 1);
        assert_eq!(ds.contracts_made_by(UserId(1)).count(), 0);
        assert_eq!(ds.contracts_offered_to(UserId(1)).count(), 1);
        assert_eq!(ds.contracts_in_month(YearMonth::new(2018, 7)).count(), 1);
        assert_eq!(ds.contracts_in_month(YearMonth::new(2018, 8)).count(), 0);
        assert_eq!(ds.contracts_in_era(Era::SetUp).count(), 1);
        assert_eq!(ds.count_by_type_status(ContractType::Sale, ContractStatus::Complete), 1);
        assert!(ds.validate().is_empty());
    }

    #[test]
    #[should_panic]
    fn rejects_sparse_ids() {
        let users = vec![User {
            id: UserId(3),
            joined: Date::from_ymd(2018, 1, 1),
            first_post: None,
            reputation: 0,
        }];
        let _ = Dataset::new(users, vec![], vec![], vec![]);
    }

    #[test]
    fn serde_reindex_round_trip() {
        let ds = tiny_dataset();
        let json = serde_json::to_string(&ds).unwrap();
        let back: Dataset = serde_json::from_str(&json).unwrap();
        let back = back.reindex();
        assert_eq!(back.contracts().len(), ds.contracts().len());
        assert_eq!(back.contracts_made_by(UserId(0)).count(), 1);
    }

    #[test]
    #[should_panic(expected = "reindex() after deserialising")]
    fn fingerprint_refuses_a_dataset_deserialised_without_reindex() {
        let json = serde_json::to_string(&tiny_dataset()).unwrap();
        let raw: Dataset = serde_json::from_str(&json).unwrap();
        raw.fingerprint();
    }

    #[test]
    fn append_matches_batch_construction() {
        let batch = tiny_dataset();
        let mut grown = Dataset::new(vec![batch.users()[0].clone()], vec![], vec![], vec![]);
        grown.append(vec![batch.users()[1].clone()], batch.contracts().to_vec(), vec![], vec![]);
        assert_eq!(grown.fingerprint(), batch.fingerprint());
        for era in Era::ALL {
            assert_eq!(grown.era_fingerprint(era), batch.era_fingerprint(era));
        }
        assert_eq!(grown.contracts_made_by(UserId(0)).count(), 1);
        assert_eq!(grown.contracts_offered_to(UserId(1)).count(), 1);
    }

    #[test]
    #[should_panic]
    fn append_rejects_non_dense_delta() {
        let mut ds = tiny_dataset();
        let stray = User {
            id: UserId(7),
            joined: Date::from_ymd(2019, 1, 1),
            first_post: None,
            reputation: 0,
        };
        ds.append(vec![stray], vec![], vec![], vec![]);
    }

    #[test]
    fn fingerprint_stable_across_round_trip_and_sensitive_to_content() {
        let ds = tiny_dataset();
        let fp = ds.fingerprint();
        assert_eq!(fp, ds.clone().fingerprint(), "fingerprint must be deterministic");
        let json = serde_json::to_string(&ds).unwrap();
        let back: Dataset = serde_json::from_str::<Dataset>(&json).unwrap().reindex();
        assert_eq!(back.fingerprint(), fp, "round-trip must preserve the fingerprint");

        let mut users = ds.users().to_vec();
        users[0].reputation += 1;
        let changed = Dataset::new(
            users,
            ds.contracts().to_vec(),
            ds.threads().to_vec(),
            ds.posts().to_vec(),
        );
        assert_ne!(changed.fingerprint(), fp, "content change must change the fingerprint");
    }
}
