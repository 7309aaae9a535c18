//! Order statistics for benchmark samples.
//!
//! Timings are summarised as a median plus the highest percentile that
//! still has at least ten samples beyond it, so a tail figure is never
//! read off a handful of points. Quartiles follow Python's
//! `statistics.quantiles(data, n=4)` (the default "exclusive" method), so
//! spreads computed here and by external tooling agree.

/// Percentiles a tail figure may be reported at, highest first.
pub const TAIL_PERCENTILES: [f64; 3] = [99.0, 90.0, 50.0];

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); `NaN`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The arithmetic mean; `NaN` for an empty slice. Used for small sets of
/// whole-job timings, where a median of a two-mode distribution would
/// jump between the modes.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)`. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the spread measure
/// the benchmark's bounds are checked against.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of [`TAIL_PERCENTILES`] with at least [`MIN_BEYOND`]
/// samples beyond it out of `n`, or `None` when not even the median
/// qualifies (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES.into_iter().find(|p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        n >= rank + MIN_BEYOND
    })
}

/// A timing summary: sample count, median, and the tail percentile the
/// sample count supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median sample.
    pub p50: f64,
    /// `(percentile, value)` of the highest supported tail, or the median
    /// at percentile 50 when the count supports no tail at all.
    pub tail: (f64, f64),
}

impl Summary {
    /// Summarises `values`; `None` for an empty slice.
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let v = sorted(values);
        let p50 = median(&v);
        let tail = match tail_percentile(v.len()) {
            Some(p) if p > 50.0 => (p, percentile_sorted(&v, p)),
            _ => (50.0, p50),
        };
        Some(Self { n: v.len(), p50, tail })
    }
}

/// Failed operations as a share of those attempted (0 when none were).
pub fn failure_ratio(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}
