//! R7 fixture: every drift direction between the `Metrics` counters and
//! the DESIGN.md table beside this file.
//!
//! * `dropped` is declared but never incremented — dead weight that
//!   reads as a permanently-zero statistic.
//! * `sealed` is incremented but has no DESIGN row — an undocumented
//!   `/v1/metrics` key.
//! * DESIGN.md documents `ghost`, which no counter backs — a stale
//!   rename.
//!
//! `served` is fully wired and must stay silent.

use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[derive(Default)]
pub struct Metrics {
    pub served: Counter,
    pub dropped: Counter,
    pub sealed: Counter,
}

impl Metrics {
    pub fn record_request(&self) {
        self.served.inc();
    }

    pub fn record_seal(&self) {
        self.sealed.inc();
    }
}
