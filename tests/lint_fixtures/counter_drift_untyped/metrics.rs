//! R7 fixture: a DESIGN table beside a `Metrics` with no `Counter` field
//! (plain `u64` tallies). The index finds no counter, so every DESIGN row
//! is an orphan and each one fires: a counter scan that matches nothing
//! must fail loudly, not go quiet.

#[derive(Default)]
pub struct Metrics {
    pub served: u64,
    pub dropped: u64,
}

impl Metrics {
    pub fn record_request(&mut self) {
        self.served += 1;
    }

    pub fn record_drop(&mut self) {
        self.dropped += 1;
    }
}
