//! Test Secure Payload bookkeeping.
//!
//! The paper's prototype "modif\[ies\] the secure timer interrupt handler in
//! the TSP to perform the integrity check over the normal world" (§IV-A).
//! The payload model here tracks what the real TSP tracks: which handler is
//! installed for the secure timer, per-core invocation statistics, and
//! cumulative secure-world residency (used by the Figure 7 overhead study).

use satin_hw::CoreId;
use satin_sim::SimDuration;

/// Per-core invocation record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoreStats {
    /// Number of secure timer invocations handled.
    pub invocations: u64,
    /// Total time spent in the secure world.
    pub residency: SimDuration,
}

/// The secure payload's bookkeeping state.
///
/// # Example
///
/// ```
/// use satin_secure::TestSecurePayload;
/// use satin_hw::CoreId;
/// use satin_sim::SimDuration;
///
/// let mut tsp = TestSecurePayload::new(6);
/// tsp.record_invocation(CoreId::new(2), SimDuration::from_millis(4));
/// assert_eq!(tsp.stats(CoreId::new(2)).invocations, 1);
/// assert_eq!(tsp.total_invocations(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TestSecurePayload {
    stats: Vec<CoreStats>,
}

impl TestSecurePayload {
    /// A payload for `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores == 0`.
    pub fn new(num_cores: usize) -> Self {
        assert!(num_cores > 0, "TSP needs at least one core");
        TestSecurePayload {
            stats: vec![CoreStats::default(); num_cores],
        }
    }

    /// Records one secure timer invocation on `core` that spent `residency`
    /// in the secure world.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn record_invocation(&mut self, core: CoreId, residency: SimDuration) {
        let s = self
            .stats
            .get_mut(core.index())
            .expect("core id within TSP topology");
        s.invocations += 1;
        s.residency += residency;
    }

    /// Stats for one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn stats(&self, core: CoreId) -> CoreStats {
        self.stats
            .get(core.index())
            .copied()
            .expect("core id within TSP topology")
    }

    /// Total invocations across cores.
    pub fn total_invocations(&self) -> u64 {
        self.stats.iter().map(|s| s.invocations).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_core() {
        let mut tsp = TestSecurePayload::new(3);
        tsp.record_invocation(CoreId::new(0), SimDuration::from_millis(5));
        tsp.record_invocation(CoreId::new(0), SimDuration::from_millis(5));
        tsp.record_invocation(CoreId::new(2), SimDuration::from_millis(3));
        assert_eq!(tsp.stats(CoreId::new(0)).invocations, 2);
        assert_eq!(
            tsp.stats(CoreId::new(0)).residency,
            SimDuration::from_millis(10)
        );
        assert_eq!(tsp.stats(CoreId::new(1)).invocations, 0);
        assert_eq!(tsp.total_invocations(), 3);
        let residency = tsp
            .stats
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.residency);
        assert_eq!(residency, SimDuration::from_millis(13));
    }

    #[test]
    #[should_panic]
    fn bad_core_panics() {
        let tsp = TestSecurePayload::new(1);
        let _ = tsp.stats(CoreId::new(5));
    }
}
