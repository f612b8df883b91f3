//! Test Secure Payload bookkeeping.
//!
//! The paper's prototype "modif\[ies\] the secure timer interrupt handler in
//! the TSP to perform the integrity check over the normal world" (§IV-A).
//! The payload model here tracks what the real TSP tracks: which handler is
//! installed for the secure timer, per-core invocation statistics, and
//! cumulative secure-world residency (used by the Figure 7 overhead study).

use crate::storage::MeasurementSlots;
use satin_hw::{CoreId, World};
use satin_sim::{SimDuration, SimTime};
use std::num::NonZeroUsize;

/// How many recent invocation records the TSP's fixed slot region keeps.
const RECENT_SLOTS: usize = 32;

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
/// use satin_sim::{SimDuration, SimTime};
///
/// let mut tsp = TestSecurePayload::new(6);
/// tsp.record_invocation(CoreId::new(2), SimTime::from_secs(8), SimDuration::from_millis(4));
/// assert_eq!(tsp.stats(CoreId::new(2)).invocations, 1);
/// assert_eq!(tsp.total_invocations(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TestSecurePayload {
    stats: Vec<CoreStats>,
    recent: MeasurementSlots<(CoreId, SimTime)>,
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
            recent: MeasurementSlots::new(
                "recent invocation slots",
                NonZeroUsize::new(RECENT_SLOTS).expect("RECENT_SLOTS is non-zero"),
            ),
        }
    }

    /// Records one secure timer invocation on `core` at `at`, spending
    /// `residency` in the secure world.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn record_invocation(&mut self, core: CoreId, at: SimTime, residency: SimDuration) {
        let s = self
            .stats
            .get_mut(core.index())
            .expect("core id within TSP topology");
        s.invocations += 1;
        s.residency += residency;
        // The TSP itself runs in the secure world; once the fixed slot
        // region fills, the oldest record is evicted (a typed outcome,
        // not a panic — long campaigns keep a sliding window).
        let _ = self.recent.push(World::Secure, (core, at));
    }

    /// The bounded log of recent invocations (secure-world only).
    #[cfg(test)]
    pub(crate) fn recent_invocations(&self) -> &MeasurementSlots<(CoreId, SimTime)> {
        &self.recent
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
        tsp.record_invocation(
            CoreId::new(0),
            SimTime::from_secs(1),
            SimDuration::from_millis(5),
        );
        tsp.record_invocation(
            CoreId::new(0),
            SimTime::from_secs(2),
            SimDuration::from_millis(5),
        );
        tsp.record_invocation(
            CoreId::new(2),
            SimTime::from_secs(3),
            SimDuration::from_millis(3),
        );
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
        let recent: Vec<_> = tsp
            .recent_invocations()
            .read(World::Secure)
            .unwrap()
            .copied()
            .collect();
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[2], (CoreId::new(2), SimTime::from_secs(3)));
    }

    #[test]
    fn recent_log_slides_instead_of_overflowing() {
        let mut tsp = TestSecurePayload::new(1);
        for s in 0..100 {
            tsp.record_invocation(
                CoreId::new(0),
                SimTime::from_secs(s),
                SimDuration::from_millis(1),
            );
        }
        let slots = tsp.recent_invocations();
        assert_eq!(slots.len(), slots.capacity().get());
        assert_eq!(slots.evictions(), 100 - slots.capacity().get() as u64);
        let oldest = slots.read(World::Secure).unwrap().next().copied().unwrap();
        assert_eq!(
            oldest.1,
            SimTime::from_secs(100 - slots.capacity().get() as u64)
        );
    }

    #[test]
    #[should_panic]
    fn bad_core_panics() {
        let tsp = TestSecurePayload::new(1);
        let _ = tsp.stats(CoreId::new(5));
    }
}
