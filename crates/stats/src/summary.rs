//! Streaming summary statistics (Welford's algorithm).

use std::fmt;

/// Incremental mean/min/max/variance accumulator.
///
/// Uses Welford's online algorithm so long experiment streams never need to be
/// buffered.
///
/// # Example
///
/// ```
/// use satin_stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     s.push(v);
/// }
/// let summary = s.summary().unwrap();
/// assert_eq!(summary.mean, 2.5);
/// assert_eq!(summary.min, 1.0);
/// assert_eq!(summary.max, 4.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN — a NaN observation is always an upstream bug.
    pub fn push(&mut self, value: f64) {
        assert!(!value.is_nan(), "NaN observation");
        self.n += 1;
        let delta = value - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Finalizes into a [`Summary`], or `None` if no observations were added.
    pub fn summary(&self) -> Option<Summary> {
        if self.n == 0 {
            return None;
        }
        let var = if self.n > 1 {
            self.m2 / (self.n - 1) as f64
        } else {
            0.0
        };
        Some(Summary {
            count: self.n,
            mean: self.mean,
            min: self.min,
            max: self.max,
            stddev: var.sqrt(),
        })
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = OnlineStats::new();
        s.extend(iter);
        s
    }
}

/// Finalized summary statistics over a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Sample standard deviation (0 for a single observation).
    pub stddev: f64,
}

impl Summary {
    /// Summarizes a slice.
    ///
    /// Returns `None` for an empty slice.
    pub fn of(values: &[f64]) -> Option<Summary> {
        values.iter().copied().collect::<OnlineStats>().summary()
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} min={} max={} sd={}",
            self.count,
            crate::fmt_sci(self.mean, 2),
            crate::fmt_sci(self.min, 2),
            crate::fmt_sci(self.max, 2),
            crate::fmt_sci(self.stddev, 2)
        )
    }
}

/// Geometric mean of strictly positive values (UnixBench-style index).
///
/// Returns `None` if `values` is empty or any value is not strictly positive.
///
/// # Example
///
/// ```
/// let g = satin_stats::summary::geometric_mean(&[1.0, 4.0]).unwrap();
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_has_no_summary() {
        assert!(OnlineStats::new().summary().is_none());
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn single_value() {
        let s = Summary::of(&[3.5]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.min, 3.5);
        assert_eq!(s.max, 3.5);
        assert_eq!(s.stddev, 0.0);
    }

    #[test]
    fn known_variance() {
        // Sample variance of [2,4,4,4,5,5,7,9] is 32/7.
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.mean, 5.0);
        assert!((s.stddev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        OnlineStats::new().push(f64::NAN);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut s: OnlineStats = [1.0, 2.0].into_iter().collect();
        s.extend([3.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.summary().unwrap().mean, 2.0);
    }

    #[test]
    fn display_contains_fields() {
        let s = Summary::of(&[1e-4, 3e-4]).unwrap();
        let out = s.to_string();
        assert!(out.contains("n=2"));
        assert!(out.contains("2.00e-4"));
    }

    #[test]
    fn geometric_mean_rejects_nonpositive() {
        assert!(geometric_mean(&[]).is_none());
        assert!(geometric_mean(&[1.0, 0.0]).is_none());
        assert!(geometric_mean(&[1.0, -2.0]).is_none());
    }

    proptest! {
        #[test]
        fn prop_welford_matches_naive(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let s = Summary::of(&values).unwrap();
            let n = values.len() as f64;
            let naive_mean: f64 = values.iter().sum::<f64>() / n;
            prop_assert!((s.mean - naive_mean).abs() < 1e-6 * (1.0 + naive_mean.abs()));
            let mn = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let mx = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(s.min, mn);
            prop_assert_eq!(s.max, mx);
            if values.len() > 1 {
                let naive_var: f64 = values.iter().map(|v| (v - naive_mean).powi(2)).sum::<f64>() / (n - 1.0);
                prop_assert!((s.stddev.powi(2) - naive_var).abs() < 1e-3 * (1.0 + naive_var.abs()));
            }
        }

        #[test]
        fn prop_mean_within_min_max(values in proptest::collection::vec(-1e9f64..1e9, 1..100)) {
            let s = Summary::of(&values).unwrap();
            prop_assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
        }
    }
}
