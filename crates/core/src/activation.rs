//! Self-activation wake-time policy (§V-C).
//!
//! "The self activation module decides the next awake time by a base period
//! `tp` (e.g. 8s) plus a random deviation `td` (a random time from `−tp` to
//! `tp`). … the interval between two consecutive rounds of introspection is
//! among `[0, 2·tp]`, which means at any moment the introspection could
//! start." `tp = Tgoal / m` where `Tgoal` is the full-coverage period.

use satin_sim::{SimDuration, SimRng};

/// Wake-interval policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakePolicy {
    /// Base period `tp`.
    pub tp: SimDuration,
    /// Apply the random deviation `td ∈ [−tp, tp]`? Disabling this is the
    /// predictable-schedule ablation that evasion attacks exploit.
    pub randomize: bool,
}

impl WakePolicy {
    /// Derives `tp = Tgoal / m` for `m` areas (§V-C).
    ///
    /// # Panics
    ///
    /// Panics if `areas == 0` or the resulting `tp` is zero.
    pub fn from_goal(tgoal: SimDuration, areas: usize, randomize: bool) -> Self {
        assert!(areas > 0, "no areas");
        let tp = tgoal / areas as u64;
        assert!(!tp.is_zero(), "Tgoal too small for {areas} areas");
        WakePolicy { tp, randomize }
    }

    /// The paper's experiment policy: tp = 8 s, randomized.
    pub fn paper() -> Self {
        WakePolicy {
            tp: SimDuration::from_secs(8),
            randomize: true,
        }
    }

    /// Draws the next inter-round interval: uniform in `[0, 2·tp]` when
    /// randomized, exactly `tp` otherwise.
    pub(crate) fn next_interval(&self, rng: &mut SimRng) -> SimDuration {
        if self.randomize {
            SimDuration::from_nanos(rng.int_range_inclusive(0, 2 * self.tp.as_nanos()))
        } else {
            self.tp
        }
    }

    /// Expected coverage time for `m` areas (`m · tp` plus scan time,
    /// §VI-B1's "approximately 152 s" for m = 19, tp = 8 s).
    pub fn expected_coverage(&self, areas: usize) -> SimDuration {
        self.tp * areas as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_policy_coverage_is_152s() {
        let p = WakePolicy::paper();
        assert_eq!(p.expected_coverage(19), SimDuration::from_secs(152));
    }

    #[test]
    fn from_goal_divides() {
        let p = WakePolicy::from_goal(SimDuration::from_secs(152), 19, true);
        assert_eq!(p.tp, SimDuration::from_secs(8));
    }

    #[test]
    fn fixed_policy_is_constant() {
        let p = WakePolicy {
            tp: SimDuration::from_secs(8),
            randomize: false,
        };
        let mut rng = SimRng::seed_from(0);
        for _ in 0..10 {
            assert_eq!(p.next_interval(&mut rng), SimDuration::from_secs(8));
        }
    }

    #[test]
    fn randomized_mean_is_tp() {
        let p = WakePolicy::paper();
        let mut rng = SimRng::seed_from(9);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| p.next_interval(&mut rng).as_nanos()).sum();
        let mean = sum as f64 / n as f64;
        let tp = p.tp.as_nanos() as f64;
        assert!((mean - tp).abs() < 0.02 * tp, "mean {mean} vs tp {tp}");
    }

    proptest! {
        /// Intervals always lie in [0, 2·tp].
        #[test]
        fn prop_interval_bounds(tp_ms in 1u64..20_000, seed: u64) {
            let p = WakePolicy {
                tp: SimDuration::from_millis(tp_ms),
                randomize: true,
            };
            let mut rng = SimRng::seed_from(seed);
            let d = p.next_interval(&mut rng);
            prop_assert!(d <= p.tp * 2);
        }
    }
}
