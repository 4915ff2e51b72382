//! Order statistics over host-time samples.

/// Percentiles tried for the tail, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The median of `xs` (mean of the two middle values for even lengths).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// The nearest-rank value at percentile `p` (0 < p ≤ 100).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let s = sorted(xs);
    s[rank(p, s.len()) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// A tail percentile together with the sample that supports it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (100 when the sample supports none).
    pub percentile: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

impl Tail {
    /// Whether at least [`TAIL_MIN_BEYOND`] samples lie beyond the value.
    pub fn supported(&self) -> bool {
        self.beyond >= TAIL_MIN_BEYOND
    }
}

/// The highest percentile (nearest rank) with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. When the sample is too small
/// for any, the maximum is returned with percentile 100 and
/// [`Tail::supported`] false, so the caller can say so.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(xs: &[f64]) -> Tail {
    assert!(!xs.is_empty(), "tail of no samples");
    let s = sorted(xs);
    let n = s.len();
    for p in TAIL_PERCENTILES {
        let r = rank(p, n);
        if n - r >= TAIL_MIN_BEYOND {
            return Tail {
                percentile: p,
                value: s[r - 1],
                samples: n,
                beyond: n - r,
            };
        }
    }
    Tail {
        percentile: 100.0,
        value: s[n - 1],
        samples: n,
        beyond: 0,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 99.0), 10.0);
        assert_eq!(percentile(&xs, 1.0), 1.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert!(t.supported());
    }

    #[test]
    fn tail_falls_back_to_lower_percentiles() {
        // 100 samples: p99.9 and p99 leave 0 and 1 beyond; p90 leaves 10.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        // 25 samples: p75 leaves 6, p50 leaves 12.
        let xs: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(tail(&xs).percentile, 50.0);
    }

    #[test]
    fn tail_reports_unsupported_small_samples() {
        let t = tail(&[5.0, 1.0, 9.0]);
        assert_eq!((t.percentile, t.value, t.samples), (100.0, 9.0, 3));
        assert!(!t.supported());
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_samples_are_a_bug() {
        median(&[]);
    }
}
