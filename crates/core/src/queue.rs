//! The Wake-Up Time Queue: multi-core collaboration (§V-D).
//!
//! ARMv8-A gives no way for one core to program another core's secure timer,
//! and notifying cores with cross-core secure interrupts would leak the
//! wake-up sequence through the very side channel TZ-Evader probes. SATIN
//! instead coordinates through secure memory: a queue of `n` future wake
//! times; every core entering the self activation module extracts a randomly
//! assigned slot and arms *its own* timer with it; when the last slot is
//! extracted, the queue refreshes with `n` new times.
//!
//! The queue lives in [`satin_secure::SecureStorage`], so a normal-world read
//! is a type-level impossibility — the attacker can never learn which core
//! wakes next, or when.

use crate::activation::WakePolicy;
use satin_sim::{SimDuration, SimRng, SimTime};

/// The wake-up time queue (store it inside `SecureStorage`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WakeQueue {
    slots: Vec<SimTime>,
    /// The last generated wake instant; new batches continue from here so
    /// the average inter-round spacing stays `tp` across refreshes.
    horizon: SimTime,
    num_cores: usize,
    refreshes: u64,
}

impl WakeQueue {
    /// Builds the initial queue during trusted boot: `num_cores` cumulative
    /// wake times starting from `now`.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores == 0`.
    pub fn new(now: SimTime, num_cores: usize, policy: &WakePolicy, rng: &mut SimRng) -> Self {
        assert!(num_cores > 0, "queue needs at least one core");
        let mut q = WakeQueue {
            slots: Vec::with_capacity(num_cores),
            horizon: now,
            num_cores,
            refreshes: 0,
        };
        q.refill(policy, rng);
        q
    }

    /// Extracts a randomly assigned slot for the calling core, refreshing
    /// the queue first if all slots were taken. The returned time is clamped
    /// to be strictly after `now` (a core that overslept a slot fires as
    /// soon as possible).
    pub(crate) fn extract(
        &mut self,
        now: SimTime,
        policy: &WakePolicy,
        rng: &mut SimRng,
    ) -> SimTime {
        if self.slots.is_empty() {
            // Refill from the previous horizon (not from `now`): this keeps
            // a non-randomized policy exactly on its tp grid, with per-slot
            // clamping below handling any genuinely overdue slots.
            self.refill(policy, rng);
            self.refreshes += 1;
        }
        let idx = rng.pick_index(&self.slots);
        let t = self.slots.swap_remove(idx);
        let min = now + SimDuration::from_micros(1);
        t.max_of(min)
    }

    fn refill(&mut self, policy: &WakePolicy, rng: &mut SimRng) {
        let mut t = self.horizon;
        for _ in 0..self.num_cores {
            t += policy.next_interval(rng);
            self.slots.push(t);
        }
        self.horizon = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn policy() -> WakePolicy {
        WakePolicy {
            tp: SimDuration::from_secs(8),
            randomize: true,
        }
    }

    #[test]
    fn initial_queue_has_one_slot_per_core() {
        let mut rng = SimRng::seed_from(1);
        let q = WakeQueue::new(SimTime::ZERO, 6, &policy(), &mut rng);
        assert_eq!(q.slots.len(), 6);
        assert_eq!(q.refreshes, 0);
    }

    #[test]
    fn extraction_drains_then_refreshes() {
        let mut rng = SimRng::seed_from(2);
        let p = policy();
        let mut q = WakeQueue::new(SimTime::ZERO, 4, &p, &mut rng);
        for _ in 0..4 {
            let _ = q.extract(SimTime::ZERO, &p, &mut rng);
        }
        assert_eq!(q.slots.len(), 0);
        let _ = q.extract(SimTime::from_secs(1), &p, &mut rng);
        assert_eq!(q.refreshes, 1);
        assert_eq!(q.slots.len(), 3);
    }

    #[test]
    fn extracted_times_always_in_future() {
        let mut rng = SimRng::seed_from(3);
        let p = policy();
        let mut q = WakeQueue::new(SimTime::ZERO, 6, &p, &mut rng);
        // Even if "now" is far past every slot, extraction clamps forward.
        let late = SimTime::from_secs(10_000);
        for _ in 0..12 {
            let t = q.extract(late, &p, &mut rng);
            assert!(t > late);
        }
    }

    #[test]
    fn average_spacing_is_tp() {
        let mut rng = SimRng::seed_from(4);
        let p = policy();
        let mut q = WakeQueue::new(SimTime::ZERO, 6, &p, &mut rng);
        let mut times: Vec<SimTime> = Vec::new();
        for _ in 0..600 {
            times.push(q.extract(SimTime::ZERO, &p, &mut rng));
        }
        times.sort_unstable();
        let span = times.last().unwrap().since(times[0]).as_secs_f64();
        let avg = span / (times.len() - 1) as f64;
        assert!((6.5..9.5).contains(&avg), "avg spacing {avg}s, want ≈8s");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let p = policy();
        let run = |seed| {
            let mut rng = SimRng::seed_from(seed);
            let mut q = WakeQueue::new(SimTime::ZERO, 6, &p, &mut rng);
            (0..10)
                .map(|_| q.extract(SimTime::ZERO, &p, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    proptest! {
        /// Invariant 5 (DESIGN.md): each refresh hands out exactly one slot
        /// per core before refreshing again.
        #[test]
        fn prop_one_slot_per_core_per_refresh(cores in 1usize..12, seed: u64) {
            let p = policy();
            let mut rng = SimRng::seed_from(seed);
            let mut q = WakeQueue::new(SimTime::ZERO, cores, &p, &mut rng);
            for round in 0..3u64 {
                for _ in 0..cores {
                    let _ = q.extract(SimTime::ZERO, &p, &mut rng);
                }
                prop_assert_eq!(q.slots.len(), 0);
                prop_assert_eq!(q.refreshes, round);
            }
        }
    }
}
