//! The incremental content fingerprints against batch builds: however a
//! simulated history is split into `append`/`insert` runs, the whole and
//! per-era fingerprints equal those of the batch-built dataset and ledger.
//! A prefix brought up to a longer one with `catch_up` is that longer one.

use dial_chain::{ChainTx, Ledger};
use dial_model::fingerprint::era_of_clamped;
use dial_model::{Contract, Dataset, Post, Thread, User, UserId};
use dial_sim::{SimConfig, SimOutput};
use dial_time::{Date, Era, Timestamp};
use proptest::prelude::*;
use std::sync::OnceLock;

fn simulate(seed: u64) -> SimOutput {
    SimConfig::paper_default().with_seed(seed).with_scale(0.01).simulate_full()
}

/// One small market shared by every property case.
fn market() -> &'static SimOutput {
    static MARKET: OnceLock<SimOutput> = OnceLock::new();
    MARKET.get_or_init(|| simulate(3))
}

/// Each era's `(dataset, ledger)` fingerprint pair — the two halves a
/// served snapshot's era cache key combines.
fn era_fingerprints(dataset: &Dataset, ledger: &Ledger) -> [(u64, u64); 3] {
    Era::ALL.map(|era| (dataset.era_fingerprint(era), ledger.era_fingerprint(era)))
}

fn empty_dataset() -> Dataset {
    Dataset::new(Vec::new(), Vec::new(), Vec::new(), Vec::new())
}

/// Maps sorted fractions in `[0, 1)` to non-decreasing cut points over
/// `len` entities, ending at `len`.
fn cuts(fractions: &[f64], len: usize) -> Vec<usize> {
    let mut out: Vec<usize> = fractions.iter().map(|f| (f * len as f64) as usize).collect();
    out.sort_unstable();
    out.push(len);
    out
}

/// For each prefix length `n`, one past the largest id the first `n`
/// entities reference (0 when they reference none).
fn referenced_prefix<T>(items: &[T], refs: impl Fn(&T) -> Vec<usize>) -> Vec<usize> {
    let mut out = vec![0];
    for item in items {
        let need = refs(item).into_iter().map(|id| id + 1).max().unwrap_or(0);
        out.push(need.max(*out.last().expect("seeded with 0")));
    }
    out
}

fn slice<T: Clone>(items: &[T], from: usize, to: usize) -> Vec<T> {
    items[from..to].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The first run takes the batch path (`Dataset::new`, or a serde
    /// round trip plus `reindex` for the ledger); every later run goes
    /// through `append`/`insert`. Users and threads are cut at their own
    /// arbitrary points, raised only as far as the contracts and posts
    /// of the same run reference.
    #[test]
    fn any_split_into_runs_fingerprints_like_the_batch_build(
        user_cuts in prop::collection::vec(0.0f64..1.0, 0..4),
        thread_cuts in prop::collection::vec(0.0f64..1.0, 0..4),
        contract_cuts in prop::collection::vec(0.0f64..1.0, 0..4),
        post_cuts in prop::collection::vec(0.0f64..1.0, 0..4),
        tx_cut in 0.0f64..1.0,
    ) {
        let out = market();
        let (users, threads) = (out.dataset.users(), out.dataset.threads());
        let (contracts, posts) = (out.dataset.contracts(), out.dataset.posts());
        let runs = user_cuts.len().max(thread_cuts.len()).max(contract_cuts.len()).max(post_cuts.len());
        let pad = |mut f: Vec<f64>| {
            f.resize(runs, 1.0);
            f
        };
        let (uc, tc) = (cuts(&pad(user_cuts), users.len()), cuts(&pad(thread_cuts), threads.len()));
        let (cc, pc) = (cuts(&pad(contract_cuts), contracts.len()), cuts(&pad(post_cuts), posts.len()));
        let users_for_contracts =
            referenced_prefix(contracts, |c: &Contract| vec![c.maker.index(), c.taker.index()]);
        let threads_for_contracts =
            referenced_prefix(contracts, |c: &Contract| c.thread.iter().map(|t| t.index()).collect());
        let users_for_posts = referenced_prefix(posts, |p: &Post| vec![p.author.index()]);
        let threads_for_posts = referenced_prefix(posts, |p: &Post| vec![p.thread.index()]);

        let mut grown: Option<Dataset> = None;
        let (mut u0, mut t0, mut c0, mut p0) = (0, 0, 0, 0);
        for run in 0..=runs {
            let (c1, p1) = (cc[run], pc[run]);
            let u1 = uc[run].max(users_for_contracts[c1]).max(users_for_posts[p1]).max(u0);
            let t1 = tc[run].max(threads_for_contracts[c1]).max(threads_for_posts[p1]).max(t0);
            let delta: (Vec<User>, Vec<Contract>, Vec<Thread>, Vec<Post>) = (
                slice(users, u0, u1),
                slice(contracts, c0, c1),
                slice(threads, t0, t1),
                slice(posts, p0, p1),
            );
            match grown.as_mut() {
                None => grown = Some(Dataset::new(delta.0, delta.1, delta.2, delta.3)),
                Some(ds) => ds.append(delta.0, delta.1, delta.2, delta.3),
            }
            (u0, t0, c0, p0) = (u1, t1, c1, p1);
        }
        let grown = grown.expect("at least one run");
        prop_assert_eq!(grown.fingerprint(), out.dataset.fingerprint());
        for era in Era::ALL {
            prop_assert_eq!(grown.era_fingerprint(era), out.dataset.era_fingerprint(era));
        }

        let txs: Vec<ChainTx> = out.ledger.iter().cloned().collect();
        let split = (tx_cut * txs.len() as f64) as usize;
        let mut head = Ledger::new();
        for tx in &txs[..split] {
            head.insert(tx.clone());
        }
        let json = serde_json::to_string(&head).expect("ledger serialises");
        let mut ledger = serde_json::from_str::<Ledger>(&json).expect("ledger parses").reindex();
        for tx in &txs[split..] {
            ledger.insert(tx.clone());
        }
        prop_assert_eq!(ledger.fingerprint(), out.ledger.fingerprint());
        for era in Era::ALL {
            prop_assert_eq!(ledger.era_fingerprint(era), out.ledger.era_fingerprint(era));
        }
    }
}

#[test]
fn era_fingerprints_are_stable_distinct_and_delta_sensitive() {
    let out = simulate(3);
    let fps = era_fingerprints(&out.dataset, &out.ledger);
    // Each era actually has content, and the slices differ.
    let empty = era_fingerprints(&empty_dataset(), &Ledger::new());
    assert!(fps.iter().zip(&empty).all(|(f, e)| f != e));
    assert_ne!(fps[0], fps[1]);
    assert_ne!(fps[1], fps[2]);

    // Rebuilding from the same parts is deterministic.
    let again = simulate(3);
    assert_eq!(fps, era_fingerprints(&again.dataset, &again.ledger));

    // Dropping the last post (timestamped in the final era) moves the
    // COVID-19 hash only: the earlier eras' slices are untouched.
    let truncated = again;
    let last = truncated.dataset.posts().last().cloned().unwrap();
    assert_eq!(era_of_clamped(last.at.date()), Era::Covid19);
    let short = Dataset::new(
        truncated.dataset.users().to_vec(),
        truncated.dataset.contracts().to_vec(),
        truncated.dataset.threads().to_vec(),
        truncated.dataset.posts()[..truncated.dataset.posts().len() - 1].to_vec(),
    );
    let cut = era_fingerprints(&short, &truncated.ledger);
    assert_eq!(cut[0], fps[0]);
    assert_eq!(cut[1], fps[1]);
    assert_ne!(cut[2], fps[2]);
}

/// The dataset holding the first `frac` of each kind of entity, raised
/// only as far as its own contracts and posts reference. Prefixes taken
/// at `a <= b` nest: the `a` prefix is a prefix of the `b` one.
fn dataset_prefix(out: &SimOutput, frac: f64) -> Dataset {
    let ds = &out.dataset;
    let at = |len: usize| ((frac * len as f64) as usize).min(len);
    let (c, p) = (at(ds.contracts().len()), at(ds.posts().len()));
    let users_for_contracts =
        referenced_prefix(ds.contracts(), |c: &Contract| vec![c.maker.index(), c.taker.index()]);
    let threads_for_contracts = referenced_prefix(ds.contracts(), |c: &Contract| {
        c.thread.iter().map(|t| t.index()).collect()
    });
    let users_for_posts = referenced_prefix(ds.posts(), |p: &Post| vec![p.author.index()]);
    let threads_for_posts = referenced_prefix(ds.posts(), |p: &Post| vec![p.thread.index()]);
    let u = at(ds.users().len()).max(users_for_contracts[c]).max(users_for_posts[p]);
    let t = at(ds.threads().len()).max(threads_for_contracts[c]).max(threads_for_posts[p]);
    Dataset::new(
        slice(ds.users(), 0, u),
        slice(ds.contracts(), 0, c),
        slice(ds.threads(), 0, t),
        slice(ds.posts(), 0, p),
    )
}

/// The simulated chain plus synthetic transactions spread over all three
/// eras and seven shared addresses, so the hash and address indexes have
/// something to answer at this scale.
fn chain_txs(out: &SimOutput) -> Vec<ChainTx> {
    let mut txs: Vec<ChainTx> = out.ledger.iter().cloned().collect();
    txs.extend((0..60u8).map(|i| ChainTx {
        hash: format!("{i:064x}"),
        to_address: format!("1Addr{}", i % 7),
        value_usd: 10.0 + f64::from(i) * 1.5,
        confirmed_at: Timestamp::at(
            Date::from_ymd(2018 + i32::from(i / 20), 1 + i % 12, 1 + i % 28),
            12,
            0,
        ),
    }));
    txs
}

fn ledger_prefix(txs: &[ChainTx], frac: f64) -> Ledger {
    let mut ledger = Ledger::new();
    for tx in &txs[..((frac * txs.len() as f64) as usize).min(txs.len())] {
        ledger.insert(tx.clone());
    }
    ledger
}

fn json(value: &impl serde::Serialize) -> String {
    serde_json::to_string(value).expect("serialises")
}

/// Every per-user index answer, as contract ids.
fn user_index(ds: &Dataset) -> Vec<(Vec<u32>, Vec<u32>)> {
    (0..ds.users().len())
        .map(|u| {
            let user = UserId(u as u32);
            (
                ds.contracts_made_by(user).map(|c| c.id.0).collect(),
                ds.contracts_offered_to(user).map(|c| c.id.0).collect(),
            )
        })
        .collect()
}

/// Every hash and address lookup the ledger answers.
fn ledger_index(ledger: &Ledger, txs: &[ChainTx]) -> Vec<(bool, usize)> {
    let (from, to) = (
        Timestamp::at(Date::from_ymd(2010, 1, 1), 0, 0),
        Timestamp::at(Date::from_ymd(2030, 1, 1), 0, 0),
    );
    txs.iter()
        .map(|tx| {
            let by_hash = ledger.by_hash(&tx.hash).is_some_and(|found| found == tx);
            (by_hash, ledger.to_address_within(&tx.to_address, from, to).len())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A prefix caught up from a longer prefix is that longer prefix: the
    /// same bytes, fingerprints and index answers, and appending the rest
    /// of the history to it still fingerprints like the batch build.
    #[test]
    fn a_caught_up_prefix_is_the_longer_prefix(x in 0.0f64..=1.0, y in 0.0f64..=1.0) {
        let out = market();
        let (a, b) = (x.min(y), x.max(y));
        let mut caught = dataset_prefix(out, a);
        let target = dataset_prefix(out, b);
        caught.catch_up(&target);
        prop_assert_eq!(json(&caught), json(&target));
        prop_assert_eq!(caught.fingerprint(), target.fingerprint());
        for era in Era::ALL {
            prop_assert_eq!(caught.era_fingerprint(era), target.era_fingerprint(era));
        }
        prop_assert_eq!(user_index(&caught), user_index(&target));

        let ds = &out.dataset;
        caught.append(
            ds.users()[caught.users().len()..].to_vec(),
            ds.contracts()[caught.contracts().len()..].to_vec(),
            ds.threads()[caught.threads().len()..].to_vec(),
            ds.posts()[caught.posts().len()..].to_vec(),
        );
        prop_assert_eq!(caught.fingerprint(), ds.fingerprint());
        prop_assert_eq!(user_index(&caught), user_index(ds));

        let txs = chain_txs(out);
        let mut caught = ledger_prefix(&txs, a);
        let target = ledger_prefix(&txs, b);
        caught.catch_up(&target);
        prop_assert_eq!(json(&caught), json(&target));
        prop_assert_eq!(caught.fingerprint(), target.fingerprint());
        for era in Era::ALL {
            prop_assert_eq!(caught.era_fingerprint(era), target.era_fingerprint(era));
        }
        prop_assert_eq!(ledger_index(&caught, &txs), ledger_index(&target, &txs));
        for tx in &txs[caught.len()..] {
            caught.insert(tx.clone());
        }
        prop_assert_eq!(caught.fingerprint(), ledger_prefix(&txs, 1.0).fingerprint());
    }
}

#[test]
#[should_panic(expected = "catch_up from a shorter dataset")]
fn a_dataset_does_not_catch_up_from_a_shorter_one() {
    let mut longer = dataset_prefix(market(), 0.6);
    longer.catch_up(&dataset_prefix(market(), 0.3));
}

#[test]
#[should_panic(expected = "catch_up from a shorter ledger")]
fn a_ledger_does_not_catch_up_from_a_shorter_one() {
    let txs = chain_txs(market());
    let mut longer = ledger_prefix(&txs, 0.6);
    longer.catch_up(&ledger_prefix(&txs, 0.3));
}
