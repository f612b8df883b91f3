//! Probability distributions calibrated from the paper's avg/max/min triples.
//!
//! The SATIN paper reports most timing quantities as (average, maximum,
//! minimum) over 50 rounds (Tables I and II, §IV-B). We reproduce each as a
//! bounded distribution whose support is the paper's [min, max] and whose mean
//! equals the paper's average: [`Triangular::from_min_mean_max`] solves the
//! mode for a given mean. Rare cross-core publication delays (§IV-B2, "up to
//! 1.3e-3 s") are a [`HeavyTail`] mixture whose per-round maximum grows with
//! the number of samples — which is precisely the Table II shape.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// A distribution over nonnegative durations expressed in seconds.
///
/// The trait is object-safe; the simulator stores timing models as
/// `Box<dyn SecondsDist>` where heterogeneous mixtures are needed.
pub trait SecondsDist: std::fmt::Debug {
    /// Draws one sample, in seconds.
    fn sample_secs(&self, rng: &mut SimRng) -> f64;

    /// Draws one sample as a [`SimDuration`] (rounded up to whole ns).
    fn sample(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64(self.sample_secs(rng))
    }

    /// The distribution's mean, in seconds (used for analytical bounds).
    fn mean_secs(&self) -> f64;
}

/// A degenerate (constant) distribution.
///
/// # Example
///
/// ```
/// use satin_sim::dist::{Constant, SecondsDist};
/// use satin_sim::SimRng;
/// let d = Constant::new(2e-4);
/// assert_eq!(d.sample_secs(&mut SimRng::seed_from(0)), 2e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant {
    value: f64,
}

impl Constant {
    /// A constant distribution at `value` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or non-finite.
    pub fn new(value: f64) -> Self {
        assert!(
            value.is_finite() && value >= 0.0,
            "invalid constant {value}"
        );
        Constant { value }
    }
}

impl SecondsDist for Constant {
    fn sample_secs(&self, _rng: &mut SimRng) -> f64 {
        self.value
    }
    fn mean_secs(&self) -> f64 {
        self.value
    }
}

/// Uniform distribution over `[lo, hi)` seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformSecs {
    lo: f64,
    hi: f64,
}

impl UniformSecs {
    /// Uniform over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not finite, negative, or `lo >= hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo < hi,
            "invalid uniform bounds [{lo}, {hi})"
        );
        UniformSecs { lo, hi }
    }

    /// Lower bound, seconds.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound, seconds.
    pub fn hi(&self) -> f64 {
        self.hi
    }
}

impl SecondsDist for UniformSecs {
    fn sample_secs(&self, rng: &mut SimRng) -> f64 {
        rng.uniform_range(self.lo, self.hi)
    }
    fn mean_secs(&self) -> f64 {
        (self.lo + self.hi) / 2.0
    }
}

/// Triangular distribution on `[min, max]` with a given `mode`.
///
/// Used to reproduce the paper's (average, max, min) triples: the mean of a
/// triangular distribution is `(min + mode + max) / 3`, so
/// [`Triangular::from_min_mean_max`] recovers the mode from the published
/// average.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangular {
    min: f64,
    mode: f64,
    max: f64,
}

impl Triangular {
    /// Triangular with explicit `(min, mode, max)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= min <= mode <= max` and all finite.
    pub(crate) fn new(min: f64, mode: f64, max: f64) -> Self {
        assert!(
            min.is_finite() && mode.is_finite() && max.is_finite(),
            "non-finite triangular parameter"
        );
        assert!(
            0.0 <= min && min <= mode && mode <= max,
            "invalid triangular parameters min={min} mode={mode} max={max}"
        );
        Triangular { min, mode, max }
    }

    /// Calibrates the mode so the distribution's mean equals `mean`, given the
    /// paper's published `min` and `max`. The mode is clamped into
    /// `[min, max]`, which slightly biases the mean when the published average
    /// sits outside the feasible triangular range — acceptable for this
    /// reproduction since only the (min, mean, max) *shape* matters.
    ///
    /// # Panics
    ///
    /// Panics unless `min <= mean <= max`.
    pub fn from_min_mean_max(min: f64, mean: f64, max: f64) -> Self {
        assert!(
            min <= mean && mean <= max,
            "mean {mean} outside [{min}, {max}]"
        );
        let mode = (3.0 * mean - min - max).clamp(min, max);
        Triangular::new(min, mode, max)
    }
}

impl SecondsDist for Triangular {
    fn sample_secs(&self, rng: &mut SimRng) -> f64 {
        let (a, c, b) = (self.min, self.mode, self.max);
        if a == b {
            return a;
        }
        let u = rng.uniform_f64();
        let fc = (c - a) / (b - a);
        if u < fc {
            a + ((b - a) * (c - a) * u).sqrt()
        } else {
            b - ((b - a) * (b - c) * (1.0 - u)).sqrt()
        }
    }
    fn mean_secs(&self) -> f64 {
        (self.min + self.mode + self.max) / 3.0
    }
}

/// Exponential distribution with a hard cap (inverse-CDF sampling).
///
/// Used for scheduler dispatch jitter: most wake-ups dispatch almost
/// immediately, with an exponential tail of contention, and a cap so a single
/// draw can never exceed physical plausibility.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
    cap: f64,
}

impl Exponential {
    /// Exponential with the given `mean`, truncated at `cap`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < mean <= cap` and both are finite.
    pub fn new(mean: f64, cap: f64) -> Self {
        assert!(
            mean.is_finite() && cap.is_finite() && mean > 0.0 && mean <= cap,
            "invalid exponential parameters mean={mean} cap={cap}"
        );
        Exponential { mean, cap }
    }
}

impl SecondsDist for Exponential {
    fn sample_secs(&self, rng: &mut SimRng) -> f64 {
        let u = rng.uniform_f64();
        (-self.mean * (1.0 - u).ln()).min(self.cap)
    }
    fn mean_secs(&self) -> f64 {
        // Mean of the untruncated distribution; the cap's effect is small for
        // cap >> mean, and callers only use this for rough analytical bounds.
        self.mean
    }
}

/// Pareto (power-law) distribution with scale `xm`, shape `alpha`, truncated
/// at `cap`.
///
/// Models the rare, abnormally large cross-core reading delays of §IV-B2
/// ("up to 1.3e-3 s"): the maximum of N power-law draws grows like
/// `N^(1/alpha)`, which is exactly how the paper's per-round maximum threshold
/// grows with the probing period in Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncPareto {
    xm: f64,
    alpha: f64,
    cap: f64,
}

impl TruncPareto {
    /// Pareto with scale `xm` (minimum value), shape `alpha`, cap `cap`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < xm <= cap` and `alpha > 0`, all finite.
    pub fn new(xm: f64, alpha: f64, cap: f64) -> Self {
        assert!(
            xm.is_finite() && alpha.is_finite() && cap.is_finite(),
            "non-finite pareto parameter"
        );
        assert!(
            xm > 0.0 && xm <= cap && alpha > 0.0,
            "invalid pareto parameters xm={xm} alpha={alpha} cap={cap}"
        );
        TruncPareto { xm, alpha, cap }
    }
}

impl SecondsDist for TruncPareto {
    fn sample_secs(&self, rng: &mut SimRng) -> f64 {
        let u = rng.uniform_f64();
        (self.xm / (1.0 - u).powf(1.0 / self.alpha)).min(self.cap)
    }
    fn mean_secs(&self) -> f64 {
        if self.alpha > 1.0 {
            (self.alpha * self.xm / (self.alpha - 1.0)).min(self.cap)
        } else {
            self.cap
        }
    }
}

/// A two-component mixture: a common "body" distribution plus a rare heavy
/// tail. Models the cross-core reading delays of §IV-B2: mostly ordinary
/// scheduling jitter, occasionally an abnormally large delay up to ~1.3 ms.
///
/// Because each probing round takes the **maximum** observed delay as its
/// threshold, more samples (a longer probing period) make tail hits more
/// likely — reproducing Table II's growth of the average threshold with the
/// probing period without any period-specific tuning.
#[derive(Debug, Clone)]
pub struct HeavyTail<B, T> {
    body: B,
    tail: T,
    tail_prob: f64,
}

impl<B: SecondsDist, T: SecondsDist> HeavyTail<B, T> {
    /// Mixture drawing from `tail` with probability `tail_prob`, else `body`.
    ///
    /// # Panics
    ///
    /// Panics if `tail_prob` is not in `[0, 1]`.
    pub fn new(body: B, tail: T, tail_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&tail_prob),
            "tail probability {tail_prob} out of range"
        );
        HeavyTail {
            body,
            tail,
            tail_prob,
        }
    }
}

impl<B: SecondsDist, T: SecondsDist> SecondsDist for HeavyTail<B, T> {
    fn sample_secs(&self, rng: &mut SimRng) -> f64 {
        if rng.chance(self.tail_prob) {
            self.tail.sample_secs(rng)
        } else {
            self.body.sample_secs(rng)
        }
    }
    fn mean_secs(&self) -> f64 {
        self.tail_prob * self.tail.mean_secs() + (1.0 - self.tail_prob) * self.body.mean_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mean_of(d: &dyn SecondsDist, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::seed_from(seed);
        (0..n).map(|_| d.sample_secs(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = Constant::new(5e-4);
        let mut rng = SimRng::seed_from(0);
        for _ in 0..10 {
            assert_eq!(d.sample_secs(&mut rng), 5e-4);
        }
    }

    #[test]
    fn uniform_bounds_respected() {
        let d = UniformSecs::new(2.38e-6, 3.60e-6);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..10_000 {
            let v = d.sample_secs(&mut rng);
            assert!((2.38e-6..3.60e-6).contains(&v));
        }
    }

    #[test]
    fn uniform_empirical_mean_close() {
        let d = UniformSecs::new(0.0, 1.0);
        let m = mean_of(&d, 50_000, 2);
        assert!((m - 0.5).abs() < 0.01, "mean {m}");
    }

    #[test]
    fn triangular_from_paper_table1_row() {
        // A57 hash 1-byte: avg 6.71e-9, max 7.50e-9, min 6.67e-9 (Table I).
        let d = Triangular::from_min_mean_max(6.67e-9, 6.71e-9, 7.50e-9);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..10_000 {
            let v = d.sample_secs(&mut rng);
            assert!((6.67e-9..=7.50e-9).contains(&v));
        }
        // Mode clamps to min here (3*mean - min - max < min), so the
        // distribution leans hard toward the minimum, like the paper's data.
        assert_eq!(d.mode, 6.67e-9);
    }

    #[test]
    fn triangular_mean_matches_when_feasible() {
        let d = Triangular::from_min_mean_max(1.0, 2.0, 3.0);
        assert!((d.mean_secs() - 2.0).abs() < 1e-12);
        let m = mean_of(&d, 50_000, 4);
        assert!((m - 2.0).abs() < 0.02, "mean {m}");
    }

    #[test]
    fn triangular_degenerate_point() {
        let d = Triangular::new(2.0, 2.0, 2.0);
        assert_eq!(d.sample_secs(&mut SimRng::seed_from(0)), 2.0);
    }

    #[test]
    fn heavy_tail_rarely_fires() {
        let d = HeavyTail::new(Constant::new(1e-4), Constant::new(1.3e-3), 0.001);
        let mut rng = SimRng::seed_from(5);
        let n = 100_000;
        let tail_hits = (0..n).filter(|_| d.sample_secs(&mut rng) > 1e-3).count();
        let rate = tail_hits as f64 / n as f64;
        assert!((rate - 0.001).abs() < 0.0005, "tail rate {rate}");
    }

    #[test]
    fn heavy_tail_max_grows_with_samples() {
        // Few samples rarely contain a tail hit; many samples almost surely do.
        let d = HeavyTail::new(Constant::new(1e-4), Constant::new(1.3e-3), 0.0005);
        let max_of = |n: usize, seed: u64| {
            let mut rng = SimRng::seed_from(seed);
            (0..n)
                .map(|_| d.sample_secs(&mut rng))
                .fold(0.0f64, f64::max)
        };
        let small: f64 = (0..20).map(|s| max_of(100, s)).sum::<f64>() / 20.0;
        let large: f64 = (0..20).map(|s| max_of(20_000, 100 + s)).sum::<f64>() / 20.0;
        assert!(
            large > small,
            "expected per-round max to grow: {small} vs {large}"
        );
    }

    #[test]
    fn exponential_capped_and_positive() {
        let d = Exponential::new(1e-5, 1e-4);
        let mut rng = SimRng::seed_from(9);
        for _ in 0..10_000 {
            let v = d.sample_secs(&mut rng);
            assert!((0.0..=1e-4).contains(&v));
        }
        let m = mean_of(&d, 100_000, 10);
        assert!((m - 1e-5).abs() < 2e-6, "mean {m}");
    }

    #[test]
    fn pareto_support_and_growth() {
        let d = TruncPareto::new(1e-4, 1.6, 1.3e-3);
        let mut rng = SimRng::seed_from(11);
        let mut max_small = 0.0f64;
        let mut max_large = 0.0f64;
        for i in 0..100_000 {
            let v = d.sample_secs(&mut rng);
            assert!((1e-4..=1.3e-3).contains(&v));
            if i < 100 {
                max_small = max_small.max(v);
            }
            max_large = max_large.max(v);
        }
        assert!(max_large >= max_small);
    }

    #[test]
    fn pareto_mean_formula() {
        let d = TruncPareto::new(1.0, 2.0, 1e9);
        assert!((d.mean_secs() - 2.0).abs() < 1e-9);
        // alpha <= 1: mean reported as the cap.
        let d = TruncPareto::new(1.0, 0.5, 10.0);
        assert_eq!(d.mean_secs(), 10.0);
    }

    proptest! {
        #[test]
        fn prop_triangular_in_support(
            min in 0.0f64..1.0,
            spread in 0.001f64..1.0,
            frac in 0.0f64..=1.0,
            seed: u64,
        ) {
            let max = min + spread;
            let mode = min + frac * spread;
            let d = Triangular::new(min, mode, max);
            let v = d.sample_secs(&mut SimRng::seed_from(seed));
            prop_assert!(v >= min - 1e-12 && v <= max + 1e-12);
        }

        #[test]
        fn prop_from_min_mean_max_mode_in_support(
            min in 0.0f64..1.0,
            spread in 0.001f64..1.0,
            frac in 0.0f64..=1.0,
        ) {
            let max = min + spread;
            let mean = min + frac * spread;
            let d = Triangular::from_min_mean_max(min, mean, max);
            prop_assert!(d.mode >= min && d.mode <= max);
        }
    }
}
