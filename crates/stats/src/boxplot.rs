//! Five-number summaries and Tukey boxplot statistics (Figure 4 of the paper).

/// Boxplot statistics for one sample: quartiles, Tukey whiskers, outliers.
///
/// Quartiles use linear interpolation between order statistics (R type-7 /
/// NumPy default). Whiskers extend to the most extreme data points within
/// 1.5 × IQR of the quartiles; everything beyond is an outlier — the same
/// convention Figure 4 of the paper uses (its caption discusses "upper
/// whiskers" and "extreme large outliers").
///
/// # Example
///
/// ```
/// use satin_stats::FiveNumber;
/// let fv = FiveNumber::of(&[1.0, 2.0, 3.0, 4.0, 100.0]).unwrap();
/// assert_eq!(fv.median, 3.0);
/// assert_eq!(fv.outliers, vec![100.0]);
/// assert_eq!(fv.whisker_high, 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FiveNumber {
    /// Smallest observation (including outliers).
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest observation (including outliers).
    pub max: f64,
    /// Lowest observation within `q1 - 1.5*IQR`.
    pub whisker_low: f64,
    /// Highest observation within `q3 + 1.5*IQR`.
    pub whisker_high: f64,
    /// Observations outside the whiskers, ascending.
    pub outliers: Vec<f64>,
}

impl FiveNumber {
    /// Computes boxplot statistics for `values`.
    ///
    /// Returns `None` if `values` is empty.
    ///
    /// # Panics
    ///
    /// Panics if any value is NaN.
    pub fn of(values: &[f64]) -> Option<FiveNumber> {
        if values.is_empty() {
            return None;
        }
        assert!(values.iter().all(|v| !v.is_nan()), "NaN observation");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN checked above"));
        let q1 = quantile_sorted(&sorted, 0.25);
        let median = quantile_sorted(&sorted, 0.5);
        let q3 = quantile_sorted(&sorted, 0.75);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let whisker_low = sorted
            .iter()
            .copied()
            .find(|v| *v >= lo_fence)
            .unwrap_or(sorted[0]);
        let whisker_high = sorted
            .iter()
            .rev()
            .copied()
            .find(|v| *v <= hi_fence)
            .unwrap_or(*sorted.last().expect("nonempty"));
        let outliers = sorted
            .iter()
            .copied()
            .filter(|v| *v < lo_fence || *v > hi_fence)
            .collect();
        Some(FiveNumber {
            min: sorted[0],
            q1,
            median,
            q3,
            max: *sorted.last().expect("nonempty"),
            whisker_low,
            whisker_high,
            outliers,
        })
    }
}

/// Quantile of a **sorted** slice with linear interpolation (R type-7).
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
pub(crate) fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quantiles_of_known_sample() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 4.0);
        assert_eq!(quantile_sorted(&sorted, 0.5), 2.5);
        assert!((quantile_sorted(&sorted, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn empty_returns_none() {
        assert!(FiveNumber::of(&[]).is_none());
    }

    #[test]
    fn single_value_collapses() {
        let fv = FiveNumber::of(&[7.0]).unwrap();
        assert_eq!(fv.min, 7.0);
        assert_eq!(fv.q1, 7.0);
        assert_eq!(fv.median, 7.0);
        assert_eq!(fv.q3, 7.0);
        assert_eq!(fv.max, 7.0);
        assert!(fv.outliers.is_empty());
    }

    #[test]
    fn outlier_detection() {
        let mut vals: Vec<f64> = (1..=20).map(f64::from).collect();
        vals.push(1000.0);
        let fv = FiveNumber::of(&vals).unwrap();
        assert_eq!(fv.outliers, vec![1000.0]);
        assert_eq!(fv.max, 1000.0);
        assert_eq!(fv.whisker_high, 20.0);
    }

    #[test]
    fn unsorted_input_handled() {
        let fv = FiveNumber::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(fv.median, 3.0);
        assert_eq!(fv.min, 1.0);
        assert_eq!(fv.max, 5.0);
    }

    proptest! {
        #[test]
        fn prop_ordering_invariants(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let fv = FiveNumber::of(&values).unwrap();
            prop_assert!(fv.min <= fv.q1);
            prop_assert!(fv.q1 <= fv.median);
            prop_assert!(fv.median <= fv.q3);
            prop_assert!(fv.q3 <= fv.max);
            prop_assert!(fv.whisker_low >= fv.min);
            prop_assert!(fv.whisker_high <= fv.max);
            prop_assert!(fv.whisker_low <= fv.whisker_high);
        }

        #[test]
        fn prop_outliers_outside_fences(values in proptest::collection::vec(-1e6f64..1e6, 4..200)) {
            let fv = FiveNumber::of(&values).unwrap();
            let lo = fv.q1 - 1.5 * (fv.q3 - fv.q1);
            let hi = fv.q3 + 1.5 * (fv.q3 - fv.q1);
            for o in &fv.outliers {
                prop_assert!(*o < lo || *o > hi);
            }
            // Non-outliers count + outliers count == total.
            let inside = values.iter().filter(|v| **v >= lo && **v <= hi).count();
            prop_assert_eq!(inside + fv.outliers.len(), values.len());
        }
    }
}
