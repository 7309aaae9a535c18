//! Open-loop schedule arithmetic.
//!
//! An open-loop sender owes request `i` at `start + i * interval` whether
//! or not earlier requests have finished. Latency is timed from that due
//! time, so a stall is charged to every request it delays, and the
//! generator reports how late it ran and how many due requests were still
//! waiting when it sent each one.

use std::time::Duration;

/// A fixed-interval send schedule, expressed as offsets from its start.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Gap between consecutive due times.
    pub interval: Duration,
}

impl Schedule {
    /// Offset of request `i`'s due time from the schedule start.
    pub fn due(&self, i: usize) -> Duration {
        self.interval * i as u32
    }

    /// How late request `i` went out if it was sent at offset `sent`
    /// (zero when it went out on time).
    pub fn late(&self, i: usize, sent: Duration) -> Duration {
        sent.saturating_sub(self.due(i))
    }

    /// Latency of request `i` completed at offset `done`, timed from its
    /// due time rather than from when it was actually sent.
    pub fn latency(&self, i: usize, done: Duration) -> Duration {
        done.saturating_sub(self.due(i))
    }

    /// Requests due by offset `now` that have not been sent yet, when
    /// `sent` requests have gone out: the generator's backlog.
    pub fn backlog(&self, now: Duration, sent: usize) -> usize {
        let due = if self.interval.is_zero() {
            usize::MAX
        } else {
            (now.as_nanos() / self.interval.as_nanos()) as usize + 1
        };
        due.saturating_sub(sent)
    }
}
