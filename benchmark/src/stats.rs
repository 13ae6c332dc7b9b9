//! Order statistics for the harness.
//!
//! Two rules from the metrics guide are enforced here instead of at every
//! call site: a percentile is only reported when at least
//! [`SAMPLES_BEYOND`] samples lie beyond it, and every metric is a median
//! over reps carried together with its quartiles and sample count.

/// A percentile needs this many samples strictly beyond its rank.
pub const SAMPLES_BEYOND: usize = 10;

/// Median, quartiles and sample count of one metric over reps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the exclusive method: position `k(n+1)/4`, linear interpolation,
/// clamped to the data). One sample is its own quartiles.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let at = |k: usize| -> f64 {
        if n == 1 {
            return v[0];
        }
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - j as f64).clamp(0.0, 1.0);
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some(Summary {
        median: at(2),
        q1: at(1),
        q3: at(3),
        n,
    })
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.median)
}

/// Nearest-rank percentile as `(value, samples strictly beyond its rank)`.
fn nearest_rank(values: &[f64], pct: f64) -> Option<(f64, usize)> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some((v[rank - 1], n - rank))
}

/// Nearest-rank percentile, or `None` when fewer than [`SAMPLES_BEYOND`]
/// samples lie strictly beyond its rank. `lenient` waives the rule: quick
/// runs are too short for it and are not comparable anyway.
pub fn percentile(values: &[f64], pct: f64, lenient: bool) -> Option<f64> {
    nearest_rank(values, pct)
        .filter(|&(_, beyond)| lenient || beyond >= SAMPLES_BEYOND)
        .map(|(value, _)| value)
}

/// The highest percentile the sample supports (ten samples beyond it), as
/// `(percent, value)`.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    (n > SAMPLES_BEYOND).then(|| {
        let rank = n - SAMPLES_BEYOND;
        (100.0 * rank as f64 / n as f64, v[rank - 1])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0, false), Some(90.0));
        assert_eq!(percentile(&hundred, 50.0, false), Some(50.0));
        // p91 of 100 samples has only nine beyond it; p99 has one.
        assert_eq!(percentile(&hundred, 91.0, false), None);
        assert_eq!(percentile(&hundred, 99.0, false), None);
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&ninety_nine, 90.0, false), None);
        assert_eq!(percentile(&[], 50.0, false), None);
        // A quick run waives the rule and takes the plain nearest rank.
        assert_eq!(percentile(&hundred, 99.0, true), Some(99.0));
        assert_eq!(percentile(&[], 99.0, true), None);
    }

    #[test]
    fn tail_is_the_highest_supported_percentile() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        let (pct, value) = tail(&v).expect("400 samples support a tail");
        assert_eq!(value, 390.0);
        assert!((pct - 97.5).abs() < 1e-9);
        assert_eq!(percentile(&v, pct, false), Some(390.0));
        assert_eq!(tail(&v[..10]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let s = summarize(&[8.0, 1.0, 4.0, 2.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (1.25, 3.0, 7.0));
        let one = summarize(&[7.0]).expect("non-empty");
        assert_eq!((one.q1, one.median, one.q3, one.n), (7.0, 7.0, 7.0, 1));
        assert_eq!(summarize(&[]), None);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
