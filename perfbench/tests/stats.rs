//! Order statistics, the ten-beyond tail rule, failure ratios and the
//! open-loop schedule.

use dial_perfbench::loadgen::Schedule;
use dial_perfbench::stats::{
    failure_ratio, mean, median, percentile_sorted, quartiles, relative_spread, tail_percentile,
    Summary,
};
use std::time::Duration;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn median_of_odd_and_even_counts() {
    assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
    assert!(close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5));
    assert!(median(&[]).is_nan());
    assert!(close(mean(&[1.0, 2.0, 6.0]), 3.0));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let q = quartiles(&ten).unwrap();
    assert!(close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25), "{q:?}");
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    let q = quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]).unwrap();
    assert!(close(q[0], 1.5) && close(q[1], 3.0) && close(q[2], 4.5), "{q:?}");
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    let q = quartiles(&[1.0, 2.0]).unwrap();
    assert!(close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25), "{q:?}");
    assert_eq!(quartiles(&[1.0]), None);
    // (8.25 - 2.75) / 5.5
    assert!(close(relative_spread(&ten).unwrap(), 1.0));
}

#[test]
fn tail_needs_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(99), Some(50.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(999), Some(90.0));
    assert_eq!(tail_percentile(1000), Some(99.0));

    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    // Nearest rank: exactly ten samples lie above p90.
    assert!(close(percentile_sorted(&hundred, 90.0), 90.0));
    let s = Summary::of(&hundred).unwrap();
    assert_eq!(s.n, 100);
    assert!(close(s.p50, 50.5));
    assert_eq!(s.tail, (90.0, 90.0));

    // Too few samples for any tail: the median stands in for it.
    let few = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
    assert_eq!(few.tail, (50.0, 2.0));
    assert_eq!(Summary::of(&[]), None);
}

#[test]
fn failure_ratio_counts_against_attempts() {
    assert!(close(failure_ratio(0, 0), 0.0));
    assert!(close(failure_ratio(10, 1), 0.1));
    assert!(close(failure_ratio(4, 4), 1.0));
}

#[test]
fn open_loop_lateness_is_timed_from_the_due_time() {
    let s = Schedule { interval: Duration::from_millis(100) };
    assert_eq!(s.due(3), Duration::from_millis(300));
    // Sent 50 ms after it was due: 50 ms late; early sends are not late.
    assert_eq!(s.late(3, Duration::from_millis(350)), Duration::from_millis(50));
    assert_eq!(s.late(3, Duration::from_millis(250)), Duration::ZERO);
    // Latency runs from the due time, so the 50 ms the send was held
    // back counts against the request.
    assert_eq!(s.latency(3, Duration::from_millis(420)), Duration::from_millis(120));
    // At 350 ms requests 0..=3 are due; with two sent, two are waiting.
    assert_eq!(s.backlog(Duration::from_millis(350), 2), 2);
    assert_eq!(s.backlog(Duration::from_millis(350), 4), 0);
}
