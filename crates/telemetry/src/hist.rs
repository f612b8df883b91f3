//! Deterministically mergeable aggregates: log-bucket duration histograms
//! and named counters.
//!
//! Both types have a *fixed shape* — 65 power-of-two buckets, name-sorted
//! counters — so merging per-worker copies is plain element-wise addition:
//! commutative, associative, and therefore bit-identical for any worker
//! count or merge order. This is what lets `CampaignRunner` fan campaigns
//! across threads while `--metrics-json` output stays byte-identical for
//! `--jobs 1` and `--jobs N`.

use satin_sim::SimDuration;
use std::fmt;

/// Number of buckets in a [`DurationHistogram`]: one zero bucket plus one
/// per power of two of nanoseconds.
pub const NUM_BUCKETS: usize = 65;

/// A histogram of [`SimDuration`] observations in log₂-scaled buckets.
///
/// Bucket 0 holds exact zeros; bucket *k* (k ≥ 1) holds durations in
/// `[2^(k-1), 2^k)` nanoseconds. The shape is fixed, so [`merge`] is
/// element-wise addition and deterministic in any order.
///
/// # Example
///
/// ```
/// use satin_telemetry::DurationHistogram;
/// use satin_sim::SimDuration;
///
/// let mut h = DurationHistogram::new();
/// h.record(SimDuration::from_nanos(3));
/// h.record(SimDuration::from_micros(2));
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.min(), Some(SimDuration::from_nanos(3)));
/// let (lo, hi) = DurationHistogram::bucket_range(2);
/// assert_eq!((lo, hi), (2, 4)); // bucket 2 covers [2, 4) ns
/// ```
///
/// [`merge`]: DurationHistogram::merge
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurationHistogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum_nanos: u128,
    min_nanos: u64,
    max_nanos: u64,
}

impl DurationHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        DurationHistogram {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum_nanos: 0,
            min_nanos: u64::MAX,
            max_nanos: 0,
        }
    }

    /// The bucket index for a duration of `nanos` nanoseconds.
    pub fn bucket_index(nanos: u64) -> usize {
        if nanos == 0 {
            0
        } else {
            64 - nanos.leading_zeros() as usize
        }
    }

    /// The `[lo, hi)` nanosecond range of bucket `idx` (the last bucket's
    /// `hi` saturates to `u64::MAX`).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= NUM_BUCKETS`.
    pub fn bucket_range(idx: usize) -> (u64, u64) {
        assert!(idx < NUM_BUCKETS, "bucket index out of range");
        match idx {
            0 => (0, 1),
            64 => (1 << 63, u64::MAX),
            k => (1 << (k - 1), 1 << k),
        }
    }

    /// Records one observation.
    pub fn record(&mut self, d: SimDuration) {
        self.record_nanos(d.as_nanos());
    }

    /// Records one observation given in nanoseconds.
    pub fn record_nanos(&mut self, nanos: u64) {
        self.buckets[Self::bucket_index(nanos)] += 1;
        self.count += 1;
        self.sum_nanos += u128::from(nanos);
        self.min_nanos = self.min_nanos.min(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Adds all of `other`'s observations to `self`. Element-wise and
    /// order-independent: `a.merge(&b)` equals `b.merge(&a)` bucket for
    /// bucket.
    pub fn merge(&mut self, other: &DurationHistogram) {
        for (acc, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *acc += b;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        self.min_nanos = self.min_nanos.min(other.min_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all observations, in nanoseconds.
    pub fn sum_nanos(&self) -> u128 {
        self.sum_nanos
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<SimDuration> {
        (self.count > 0).then(|| SimDuration::from_nanos(self.min_nanos))
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<SimDuration> {
        (self.count > 0).then(|| SimDuration::from_nanos(self.max_nanos))
    }

    /// Mean observation, if any (integer nanoseconds, rounded down).
    pub fn mean(&self) -> Option<SimDuration> {
        (self.count > 0)
            .then(|| SimDuration::from_nanos((self.sum_nanos / u128::from(self.count)) as u64))
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; NUM_BUCKETS] {
        &self.buckets
    }

    /// `(bucket index, lo ns, hi ns, count)` for every nonempty bucket, in
    /// bucket order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_range(i);
                (i, lo, hi, c)
            })
    }

    /// An upper-bound estimate of the `q`-quantile (`0.0..=1.0`): the upper
    /// edge of the bucket containing the ⌈q·count⌉-th observation, clamped
    /// to the recorded `[min, max]`. Integer math only, so deterministic.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        if self.count == 0 {
            return None;
        }
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let (_, hi) = Self::bucket_range(i);
                return Some(SimDuration::from_nanos(
                    hi.clamp(self.min_nanos, self.max_nanos),
                ));
            }
        }
        Some(SimDuration::from_nanos(self.max_nanos))
    }
}

impl Default for DurationHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for DurationHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.mean(), self.min(), self.max()) {
            (Some(mean), Some(min), Some(max)) => write!(
                f,
                "n={} mean={mean} min={min} max={max} p50={} p99={}",
                self.count,
                self.quantile(0.5).expect("nonempty"),
                self.quantile(0.99).expect("nonempty"),
            ),
            _ => write!(f, "n=0"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(DurationHistogram::bucket_index(0), 0);
        assert_eq!(DurationHistogram::bucket_index(1), 1);
        assert_eq!(DurationHistogram::bucket_index(2), 2);
        assert_eq!(DurationHistogram::bucket_index(3), 2);
        assert_eq!(DurationHistogram::bucket_index(4), 3);
        assert_eq!(DurationHistogram::bucket_index(u64::MAX), 64);
        for idx in 0..NUM_BUCKETS {
            let (lo, hi) = DurationHistogram::bucket_range(idx);
            assert!(lo < hi);
            assert_eq!(DurationHistogram::bucket_index(lo), idx);
            if idx < 64 {
                assert_eq!(DurationHistogram::bucket_index(hi - 1), idx);
            }
        }
    }

    #[test]
    fn record_and_stats() {
        let mut h = DurationHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        for nanos in [0u64, 5, 5, 100, 1_000_000] {
            h.record_nanos(nanos);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_nanos(), 1_000_110);
        assert_eq!(h.min(), Some(SimDuration::ZERO));
        assert_eq!(h.max(), Some(SimDuration::from_nanos(1_000_000)));
        assert_eq!(h.mean(), Some(SimDuration::from_nanos(200_022)));
        assert_eq!(h.nonzero_buckets().count(), 4);
        // Median falls in the [4, 8) bucket; clamped upper edge is 8 ns.
        assert_eq!(h.quantile(0.5), Some(SimDuration::from_nanos(8)));
        // q=0 reports the zero bucket's upper edge; q=1 clamps to the max.
        assert_eq!(h.quantile(0.0), Some(SimDuration::from_nanos(1)));
        assert_eq!(h.quantile(1.0), Some(SimDuration::from_nanos(1_000_000)));
    }

    #[test]
    fn merge_is_elementwise() {
        let mut a = DurationHistogram::new();
        a.record_nanos(10);
        let mut b = DurationHistogram::new();
        b.record_nanos(1_000);
        b.record_nanos(0);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 3);
        assert_eq!(ab.min(), Some(SimDuration::ZERO));
        assert_eq!(ab.max(), Some(SimDuration::from_micros(1)));
    }

    #[test]
    fn display_summary() {
        let mut h = DurationHistogram::new();
        assert_eq!(h.to_string(), "n=0");
        h.record(SimDuration::from_micros(3));
        assert!(h.to_string().starts_with("n=1 "));
    }

    proptest! {
        /// Merging any 3-way split of a value stream in any association
        /// order equals recording the stream directly.
        #[test]
        fn prop_merge_associative(values in proptest::collection::vec(0u64..1_000_000_000, 0..200)) {
            let mut direct = DurationHistogram::new();
            for &v in &values {
                direct.record_nanos(v);
            }
            let thirds = values.len() / 3;
            let mut parts = [
                DurationHistogram::new(),
                DurationHistogram::new(),
                DurationHistogram::new(),
            ];
            for (i, &v) in values.iter().enumerate() {
                parts[(i / thirds.max(1)).min(2)].record_nanos(v);
            }
            // (p0 + p1) + p2
            let mut left = parts[0].clone();
            left.merge(&parts[1]);
            left.merge(&parts[2]);
            // p2 + (p1 + p0)
            let mut right = parts[2].clone();
            let mut inner = parts[1].clone();
            inner.merge(&parts[0]);
            right.merge(&inner);
            prop_assert_eq!(&left, &right);
            prop_assert_eq!(&left, &direct);
        }

        /// Merging per-worker histograms in ANY permutation yields identical
        /// buckets — the property the `--jobs` guarantee rests on.
        #[test]
        fn prop_merge_permutation_invariant(
            worker_values in proptest::collection::vec(
                proptest::collection::vec(0u64..1_000_000_000, 0..40),
                1..8,
            ),
            perm_seed in 0u64..u64::MAX,
        ) {
            let workers: Vec<DurationHistogram> = worker_values
                .iter()
                .map(|vs| {
                    let mut h = DurationHistogram::new();
                    for &v in vs {
                        h.record_nanos(v);
                    }
                    h
                })
                .collect();
            // Fisher-Yates driven by a tiny LCG: an arbitrary permutation.
            let mut order: Vec<usize> = (0..workers.len()).collect();
            let mut state = perm_seed;
            for i in (1..order.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                order.swap(i, (state % (i as u64 + 1)) as usize);
            }
            let mut in_order = DurationHistogram::new();
            for w in &workers {
                in_order.merge(w);
            }
            let mut permuted = DurationHistogram::new();
            for &i in &order {
                permuted.merge(&workers[i]);
            }
            prop_assert_eq!(&in_order, &permuted);
            prop_assert_eq!(in_order.buckets(), permuted.buckets());
        }
    }
}
