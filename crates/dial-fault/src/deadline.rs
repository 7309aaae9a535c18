//! Per-request deadline budgets with cooperative cancellation.
//!
//! The HTTP layer stamps a deadline when a request head finishes
//! parsing; the engine carries it onto the worker that runs the
//! experiment; `dial-par` re-establishes it on whichever worker executes
//! each chunk. Long-running code volunteers cancellation by calling
//! [`checkpoint`] — past the deadline it unwinds with a recognisable
//! payload, the nearest `catch_unwind` (every pool chunk and the
//! engine's run wrapper have one) converts it to a timeout error, and
//! the pool slot frees immediately instead of burning to completion.
//!
//! The budget is a plain thread-local `Instant`: no clock reads happen
//! unless a deadline is actually set, and code outside a request (CLI
//! batch runs, tests) sees `None` and pays one TLS read per checkpoint.

use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    static CURRENT: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Panic payload used by [`checkpoint`]; [`is_deadline_panic`] matches it
/// even after `dial-par` flattens payloads to their message strings.
pub const DEADLINE_PANIC: &str = "dial-fault: request deadline exceeded";

/// The deadline governing this thread, if any.
pub fn current() -> Option<Instant> {
    CURRENT.with(Cell::get)
}

/// Time left in the budget; `None` when no deadline is set.
pub fn remaining() -> Option<Duration> {
    current().map(|d| d.saturating_duration_since(Instant::now()))
}

/// True when a deadline is set and has passed.
pub fn expired() -> bool {
    current().is_some_and(|d| Instant::now() >= d)
}

/// Runs `f` under `deadline` (restoring the previous budget afterwards,
/// panic or not). When both an inherited and a new deadline exist the
/// *earlier* one wins — a nested scope can only tighten the budget.
pub fn with_deadline<R>(deadline: Option<Instant>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Instant>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| c.set(self.0));
        }
    }
    let prev = current();
    let effective = match (prev, deadline) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    let _restore = Restore(prev);
    CURRENT.with(|c| c.set(effective));
    f()
}

/// Cooperative cancellation point: past the deadline this unwinds with
/// [`DEADLINE_PANIC`] out of the timed-out work so its pool slot frees
/// immediately. A no-op when no deadline is set. `resume_unwind` skips
/// the panic hook, which would otherwise capture a backtrace (under
/// `RUST_BACKTRACE`) while the job still holds its slot.
pub fn checkpoint() {
    if expired() {
        std::panic::resume_unwind(Box::new(DEADLINE_PANIC.to_string()));
    }
}

/// True when `payload` is a [`checkpoint`] panic — either the original
/// `String` payload or the `&str` constant, covering payloads that were
/// re-raised through `dial-par`'s message flattening.
pub fn is_deadline_panic(payload: &(dyn std::any::Any + Send)) -> bool {
    if let Some(s) = payload.downcast_ref::<String>() {
        return s == DEADLINE_PANIC;
    }
    if let Some(s) = payload.downcast_ref::<&str>() {
        return *s == DEADLINE_PANIC;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn no_deadline_means_free_running() {
        assert_eq!(current(), None);
        assert!(!expired());
        checkpoint(); // must not panic
    }

    #[test]
    fn with_deadline_scopes_and_restores() {
        let d = Instant::now() + Duration::from_secs(60);
        with_deadline(Some(d), || {
            assert_eq!(current(), Some(d));
            assert!(!expired());
            checkpoint();
        });
        assert_eq!(current(), None);
    }

    #[test]
    fn nested_deadlines_keep_the_tighter_budget() {
        let loose = Instant::now() + Duration::from_secs(60);
        let tight = Instant::now() + Duration::from_secs(1);
        with_deadline(Some(loose), || {
            with_deadline(Some(tight), || assert_eq!(current(), Some(tight)));
            // An inner `None` inherits rather than clears.
            with_deadline(None, || assert_eq!(current(), Some(loose)));
            assert_eq!(current(), Some(loose));
        });
    }

    #[test]
    fn checkpoint_panics_past_the_deadline_and_is_recognisable() {
        let past = Instant::now() - Duration::from_millis(1);
        let err = catch_unwind(AssertUnwindSafe(|| with_deadline(Some(past), checkpoint)))
            .expect_err("expired checkpoint must unwind");
        assert!(is_deadline_panic(err.as_ref()));
        // The budget was restored despite the unwind.
        assert_eq!(current(), None);
        // The flattened form (what dial-par re-raises) also matches.
        let flattened: Box<dyn std::any::Any + Send> = Box::new(DEADLINE_PANIC.to_string());
        assert!(is_deadline_panic(flattened.as_ref()));
        let other: Box<dyn std::any::Any + Send> = Box::new("other".to_string());
        assert!(!is_deadline_panic(other.as_ref()));
    }
}
