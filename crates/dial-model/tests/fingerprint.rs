//! The incremental content fingerprints against batch builds: however a
//! simulated history is split into `append`/`insert` runs, the whole and
//! per-era fingerprints equal those of the batch-built dataset and ledger.

use dial_chain::{ChainTx, Ledger};
use dial_model::fingerprint::era_of_clamped;
use dial_model::{Contract, Dataset, Post, Thread, User};
use dial_sim::{SimConfig, SimOutput};
use dial_time::Era;
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
