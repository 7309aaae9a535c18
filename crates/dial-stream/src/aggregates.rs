//! Incrementally-maintained era-windowed aggregates.
//!
//! Every figure the batch pipeline derives from contracts keys its months
//! by *creation* month, and the event log delivers each contract as a
//! single settled record — so the entire aggregate state advances O(1)
//! per contract event, no retraction or re-scan. The only super-linear
//! work is deferred to the moment a value is *read*: top-`k` key-entity
//! shares need a sort of the month's involvement table (O(U log U) in
//! that month's population), exactly the cost the batch pipeline pays in
//! `key_share_series`.
//!
//! The derivation methods reproduce, number for number, what
//! `dial-core` computes from the sealed dataset: `tests/stream_equivalence.rs`
//! asserts equality against `type_mix_series`, `public_share_by_month`,
//! `visibility_table`, `completion_series` and `key_share_series`.

use dial_model::{Contract, ContractType, ThreadId, UserId};
use dial_time::{MonthlySeries, StudyWindow, YearMonth};
use std::collections::HashMap;

/// The fraction of entities considered "key" each month (Figure 6).
pub const KEY_FRACTION: f64 = 0.05;

/// `(private, public)` counts per contract type, `ContractType::ALL` order.
pub type VisibilityCounts = [(u64, u64); 5];

fn type_idx(ty: ContractType) -> usize {
    ContractType::ALL.iter().position(|t| *t == ty).unwrap()
}

/// Running aggregate state over the contract stream.
#[derive(Debug, Clone)]
pub struct StreamAggregates {
    /// Created contracts per (creation month, type) — Figure 3 numerators.
    created: MonthlySeries<[u64; 5]>,
    /// Completed contracts per (creation month, type).
    completed: MonthlySeries<[u64; 5]>,
    /// Public created / completed contracts per creation month (Figure 2).
    public_created: MonthlySeries<u64>,
    public_completed: MonthlySeries<u64>,
    /// `(private, public)` per type, created and completed (Table 2).
    vis_created: [(u64, u64); 5],
    vis_completed: [(u64, u64); 5],
    /// Completion-hour sums/counts per (creation month, type) (Figure 4).
    hours_sum: MonthlySeries<[f64; 5]>,
    hours_count: MonthlySeries<[u64; 5]>,
    /// Timed / all completed contracts, window-independent (Figure 4's
    /// `timed_share` counts these before the month filter, as batch does).
    timed: u64,
    completed_total: u64,
    /// Per-month involvement tables `[created, completed]` (Figure 6).
    month_members: [MonthlySeries<HashMap<UserId, f64>>; 2],
    month_threads: [MonthlySeries<HashMap<ThreadId, f64>>; 2],
    /// Whole-window member involvement over created contracts (the running
    /// concentration headline reported on each seal).
    global_members: HashMap<UserId, f64>,
    global_involvement: f64,
}

impl Default for StreamAggregates {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamAggregates {
    /// Empty state covering the study window.
    pub fn new() -> Self {
        let first = StudyWindow::first_month();
        let last = StudyWindow::last_month();
        Self {
            created: MonthlySeries::zeros(first, last),
            completed: MonthlySeries::zeros(first, last),
            public_created: MonthlySeries::zeros(first, last),
            public_completed: MonthlySeries::zeros(first, last),
            vis_created: [(0, 0); 5],
            vis_completed: [(0, 0); 5],
            hours_sum: MonthlySeries::zeros(first, last),
            hours_count: MonthlySeries::zeros(first, last),
            timed: 0,
            completed_total: 0,
            month_members: [MonthlySeries::zeros(first, last), MonthlySeries::zeros(first, last)],
            month_threads: [MonthlySeries::zeros(first, last), MonthlySeries::zeros(first, last)],
            global_members: HashMap::new(),
            global_involvement: 0.0,
        }
    }

    /// Applies one sealed contract. Only contracts move these aggregates —
    /// member, thread, post and chain records feed the dataset (and other
    /// pipelines) but none of the figures maintained here.
    pub fn apply_contract(&mut self, c: &Contract) {
        let ti = type_idx(c.contract_type);
        let vis =
            if c.is_public() { &mut self.vis_created[ti].1 } else { &mut self.vis_created[ti].0 };
        *vis += 1;
        if c.is_complete() {
            self.completed_total += 1;
            let vis = if c.is_public() {
                &mut self.vis_completed[ti].1
            } else {
                &mut self.vis_completed[ti].0
            };
            *vis += 1;
            if c.completion_hours().is_some() {
                self.timed += 1;
            }
        }
        for p in c.parties() {
            *self.global_members.entry(p).or_default() += 1.0;
            self.global_involvement += 1.0;
        }

        let ym = c.created_month();
        let Some(row) = self.created.get_mut(ym) else {
            return; // outside the study window: no monthly figure reads it
        };
        row[ti] += 1;
        if c.is_public() {
            *self.public_created.get_mut(ym).unwrap() += 1;
        }
        if c.is_complete() {
            self.completed.get_mut(ym).unwrap()[ti] += 1;
            if c.is_public() {
                *self.public_completed.get_mut(ym).unwrap() += 1;
            }
            if let Some(hours) = c.completion_hours() {
                self.hours_sum.get_mut(ym).unwrap()[ti] += hours;
                self.hours_count.get_mut(ym).unwrap()[ti] += 1;
            }
        }
        for (selector, complete_only) in [(0usize, false), (1usize, true)] {
            if complete_only && !c.is_complete() {
                continue;
            }
            let members = self.month_members[selector].get_mut(ym).unwrap();
            for p in c.parties() {
                *members.entry(p).or_default() += 1.0;
            }
            if let Some(t) = c.thread {
                *self.month_threads[selector].get_mut(ym).unwrap().entry(t).or_default() += 1.0;
            }
        }
    }

    /// Figure 3: normalised per-month type shares `(created, completed)`.
    pub fn type_shares(&self) -> (MonthlySeries<[f64; 5]>, MonthlySeries<[f64; 5]>) {
        let normalise = |series: &MonthlySeries<[u64; 5]>| {
            series.map(|counts| {
                let mut row = counts.map(|v| v as f64);
                let total: f64 = row.iter().sum();
                if total > 0.0 {
                    row.iter_mut().for_each(|v| *v /= total);
                }
                row
            })
        };
        (normalise(&self.created), normalise(&self.completed))
    }

    /// Table 2: `(private, public)` per type `(created, completed)`.
    pub fn visibility(&self) -> (VisibilityCounts, VisibilityCounts) {
        (self.vis_created, self.vis_completed)
    }

    /// Figure 2: per-month public shares `(created, completed)`.
    pub fn public_shares(&self) -> (MonthlySeries<f64>, MonthlySeries<f64>) {
        let share = |public: &MonthlySeries<u64>, totals: &MonthlySeries<[u64; 5]>| {
            public.zip_with(totals, |pu, row| {
                let total: u64 = row.iter().sum();
                if total == 0 {
                    0.0
                } else {
                    *pu as f64 / total as f64
                }
            })
        };
        (share(&self.public_created, &self.created), share(&self.public_completed, &self.completed))
    }

    /// Figure 4: mean completion hours per type per creation month.
    pub fn mean_completion_hours(&self) -> [MonthlySeries<Option<f64>>; 5] {
        std::array::from_fn(|ti| {
            self.hours_sum.zip_with(&self.hours_count, |sums, counts| {
                if counts[ti] == 0 {
                    None
                } else {
                    Some(sums[ti] / counts[ti] as f64)
                }
            })
        })
    }

    /// Figure 4: share of completed contracts with a completion time.
    pub fn timed_share(&self) -> f64 {
        self.timed as f64 / self.completed_total.max(1) as f64
    }

    /// Figure 6: the four key-share series in `KeyShareSeries` order
    /// (members created/completed, threads created/completed).
    pub fn key_shares(&self) -> [MonthlySeries<f64>; 4] {
        [
            self.month_members[0].map(key_share),
            self.month_members[1].map(key_share),
            self.month_threads[0].map(key_share),
            self.month_threads[1].map(key_share),
        ]
    }

    /// One month's key-member share over created contracts (the Figure 6
    /// point reported in that month's seal delta).
    pub fn month_key_member_share(&self, ym: YearMonth) -> f64 {
        self.month_members[0].get(ym).map_or(0.0, key_share)
    }

    /// Whole-window share of contract involvement carried by the current
    /// top-[`KEY_FRACTION`] of members.
    pub fn top_member_share(&self) -> f64 {
        key_share_of(&self.global_members, self.global_involvement)
    }

    /// One month's created/completed counts by type.
    pub fn month_counts(&self, ym: YearMonth) -> ([u64; 5], [u64; 5]) {
        (
            self.created.get(ym).copied().unwrap_or([0; 5]),
            self.completed.get(ym).copied().unwrap_or([0; 5]),
        )
    }

    /// One month's public share among created contracts.
    pub fn month_public_share(&self, ym: YearMonth) -> f64 {
        let total: u64 = self.created.get(ym).map_or(0, |row| row.iter().sum());
        if total == 0 {
            return 0.0;
        }
        self.public_created.get(ym).copied().unwrap_or(0) as f64 / total as f64
    }

    /// One month's mean completion hours pooled over types.
    pub fn month_mean_completion_hours(&self, ym: YearMonth) -> Option<f64> {
        let sum: f64 = self.hours_sum.get(ym)?.iter().sum();
        let count: u64 = self.hours_count.get(ym)?.iter().sum();
        (count > 0).then(|| sum / count as f64)
    }
}

fn key_share<K: std::hash::Hash + Eq + Copy>(counts: &HashMap<K, f64>) -> f64 {
    // Sum after sorting: a hash-order f64 total would differ in the last
    // ulp between runs (float addition is not associative).
    let mut values: Vec<f64> = counts.values().copied().collect();
    values.sort_by(|a, b| b.total_cmp(a));
    let total: f64 = values.iter().sum();
    key_share_of(counts, total)
}

/// Share of `total` carried by the top [`KEY_FRACTION`] of entities —
/// the same tally `dial-core`'s `key_share_series` computes per month.
fn key_share_of<K: std::hash::Hash + Eq + Copy>(counts: &HashMap<K, f64>, total: f64) -> f64 {
    if counts.is_empty() || total <= 0.0 {
        return 0.0;
    }
    let mut values: Vec<f64> = counts.values().copied().collect();
    values.sort_by(|a, b| b.total_cmp(a));
    let k = ((values.len() as f64 * KEY_FRACTION).ceil() as usize).clamp(1, values.len());
    let covered: f64 = values[..k].iter().sum();
    (covered / total).min(1.0)
}
