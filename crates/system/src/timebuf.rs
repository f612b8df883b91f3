//! The probers' shared time-report buffer with cross-core visibility delays.
//!
//! Paper §III-B1: "the Time Reporter obtains the latest time from a shared
//! timer among all CPU cores and then reports the time into a buffer that is
//! readable to all threads." On real hardware a report written on one core
//! becomes visible to another core only after the store drains through the
//! cache hierarchy; §IV-B2 measured this cross-core reading delay at up to
//! 1.3 ms in rare cases. [`SharedTimeBuffer`] models publication explicitly:
//! each report carries a *visible-at* instant (drawn by the system from the
//! calibrated heavy-tail distribution), and readers only see reports whose
//! visibility instant has passed.

use satin_hw::CoreId;
use satin_sim::SimTime;
use std::collections::VecDeque;

/// One published report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Report {
    /// When the reporter wrote the value.
    published: SimTime,
    /// When other cores can first see it.
    visible_at: SimTime,
    /// The reported value (the counter read, ≈ publish time).
    value: SimTime,
}

/// Per-core report slots with bounded history.
///
/// # Example
///
/// ```
/// use satin_system::SharedTimeBuffer;
/// use satin_hw::CoreId;
/// use satin_sim::SimTime;
///
/// let mut buf = SharedTimeBuffer::new(2);
/// let c0 = CoreId::new(0);
/// buf.publish(c0, SimTime::from_micros(10), SimTime::from_micros(25), SimTime::from_micros(10));
/// // Before the store drains, a remote reader sees nothing:
/// assert_eq!(buf.read_remote(c0, SimTime::from_micros(20)), None);
/// // After it drains, the report is visible:
/// assert_eq!(
///     buf.read_remote(c0, SimTime::from_micros(25)),
///     Some(SimTime::from_micros(10))
/// );
/// ```
#[derive(Debug, Clone)]
pub struct SharedTimeBuffer {
    slots: Vec<Slot>,
    /// Reports retained per core (enough to cover any realistic delay).
    depth: usize,
}

/// One core's retained reports, oldest first.
#[derive(Debug, Clone)]
struct Slot {
    reports: VecDeque<Report>,
    /// Every report published since the last clear was published no
    /// earlier than the one before it. Reporters publish in time order, so
    /// this almost always holds; a body that publishes inside another
    /// report's busy period (the KProber-I tick hook can) breaks it.
    in_order: bool,
}

impl Slot {
    fn new() -> Self {
        Slot {
            reports: VecDeque::new(),
            in_order: true,
        }
    }

    /// The value of the latest-published report passing `visible`; among
    /// equal publish times, the newest of them.
    ///
    /// While the reports are in publish order, the newest visible report
    /// is that answer, so the scan runs newest-first and stops at the first
    /// hit. Otherwise it falls back to the full `max_by_key` scan.
    fn freshest(&self, visible: impl Fn(&Report) -> bool) -> Option<SimTime> {
        let found = if self.in_order {
            self.reports.iter().rev().find(|r| visible(r))
        } else {
            self.reports
                .iter()
                .filter(|r| visible(r))
                .max_by_key(|r| r.published)
        };
        found.map(|r| r.value)
    }
}

impl SharedTimeBuffer {
    /// A buffer for `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores == 0`.
    pub fn new(num_cores: usize) -> Self {
        assert!(num_cores > 0, "buffer needs at least one core");
        SharedTimeBuffer {
            slots: vec![Slot::new(); num_cores],
            depth: 16,
        }
    }

    /// Publishes a report from `core`: written at `published`, visible to
    /// remote cores at `visible_at`, carrying `value`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or `visible_at < published`.
    pub fn publish(
        &mut self,
        core: CoreId,
        published: SimTime,
        visible_at: SimTime,
        value: SimTime,
    ) {
        assert!(visible_at >= published, "visibility before publication");
        let slot = &mut self.slots[core.index()];
        if slot.reports.back().is_some_and(|r| published < r.published) {
            slot.in_order = false;
        }
        let q = &mut slot.reports;
        if q.len() == self.depth {
            q.pop_front();
        }
        q.push_back(Report {
            published,
            visible_at,
            value,
        });
    }

    /// The freshest value of `core`'s reports visible to a *remote* reader
    /// at `now`, or `None` if nothing is visible yet.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn read_remote(&self, core: CoreId, now: SimTime) -> Option<SimTime> {
        self.slots[core.index()].freshest(|r| r.visible_at <= now)
    }

    /// The freshest value as seen from the *publishing* core itself (no
    /// cross-core delay: a core always sees its own stores).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub(crate) fn read_local(&self, core: CoreId, now: SimTime) -> Option<SimTime> {
        self.slots[core.index()].freshest(|r| r.published <= now)
    }

    /// Clears all reports.
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.reports.clear();
            slot.in_order = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn visibility_gates_remote_reads() {
        let mut b = SharedTimeBuffer::new(1);
        b.publish(CoreId::new(0), t(10), t(30), t(10));
        assert_eq!(b.read_remote(CoreId::new(0), t(29)), None);
        assert_eq!(b.read_remote(CoreId::new(0), t(30)), Some(t(10)));
    }

    #[test]
    fn local_reads_ignore_visibility() {
        let mut b = SharedTimeBuffer::new(1);
        b.publish(CoreId::new(0), t(10), t(1000), t(10));
        assert_eq!(b.read_local(CoreId::new(0), t(10)), Some(t(10)));
    }

    #[test]
    fn freshest_visible_wins_even_when_out_of_order() {
        let mut b = SharedTimeBuffer::new(1);
        let c = CoreId::new(0);
        // Older report with a *huge* delay; newer report with a small one.
        b.publish(c, t(10), t(500), t(10));
        b.publish(c, t(20), t(22), t(20));
        // At t=25 only the newer one is visible.
        assert_eq!(b.read_remote(c, t(25)), Some(t(20)));
        // At t=500 both are visible; the newer (by publish time) still wins.
        assert_eq!(b.read_remote(c, t(500)), Some(t(20)));
    }

    #[test]
    fn stale_core_goes_quiet() {
        // The side channel: a core in the secure world stops publishing, so
        // its freshest visible report ages.
        let mut b = SharedTimeBuffer::new(2);
        let victim = CoreId::new(1);
        b.publish(victim, t(100), t(105), t(100));
        // Much later, the freshest visible value is still t(100):
        assert_eq!(b.read_remote(victim, t(5_000)), Some(t(100)));
    }

    #[test]
    fn history_bounded() {
        let mut b = SharedTimeBuffer::new(1);
        let c = CoreId::new(0);
        for i in 0..100 {
            b.publish(c, t(i), t(i), t(i));
        }
        assert_eq!(b.read_remote(c, t(1000)), Some(t(99)));
        b.clear();
        assert_eq!(b.read_remote(c, t(1000)), None);
    }

    /// The full-scan answer over every report ever published to a core,
    /// cut to the newest `depth`: what the buffer must return.
    fn oracle(
        history: &[Report],
        depth: usize,
        visible: impl Fn(&Report) -> bool,
    ) -> Option<SimTime> {
        history[history.len().saturating_sub(depth)..]
            .iter()
            .filter(|r| visible(r))
            .max_by_key(|r| r.published)
            .map(|r| r.value)
    }

    proptest! {
        /// Reads match the full-scan oracle for any publish sequence:
        /// mostly in publish order with occasional out-of-order reports,
        /// equal publish times, more reports than the depth retains, clears,
        /// and reads at any instant.
        #[test]
        fn prop_reads_match_the_full_scan(
            ops in proptest::collection::vec((0u8..64, 0u64..40, 0u64..60, 0usize..2), 0..200),
        ) {
            let mut b = SharedTimeBuffer::new(2);
            let mut history: Vec<Vec<Report>> = vec![Vec::new(); 2];
            let mut clock = 0u64;
            for (op, step, delay, core) in ops {
                let c = CoreId::new(core);
                match op {
                    // In-order publish (step 0 repeats the last publish time).
                    0..=39 => clock += step % 10,
                    // Out-of-order publish: back in time.
                    40..=43 => clock = clock.saturating_sub(step),
                    // A rare clear, so most runs still evict past the depth.
                    44 if step < 4 => {
                        b.clear();
                        history.iter_mut().for_each(Vec::clear);
                        continue;
                    }
                    // Read at any instant around the clock.
                    _ => {
                        let now = t((clock + step).saturating_sub(20));
                        let h = &history[core];
                        prop_assert_eq!(
                            b.read_remote(c, now),
                            oracle(h, b.depth, |r| r.visible_at <= now)
                        );
                        prop_assert_eq!(
                            b.read_local(c, now),
                            oracle(h, b.depth, |r| r.published <= now)
                        );
                        continue;
                    }
                }
                let report = Report {
                    published: t(clock),
                    visible_at: t(clock + delay),
                    // The value marks the publish slot so ties are told apart.
                    value: t(history[core].len() as u64),
                };
                b.publish(c, report.published, report.visible_at, report.value);
                history[core].push(report);
            }
        }
    }

    #[test]
    #[should_panic(expected = "visibility before publication")]
    fn bad_visibility_rejected() {
        let mut b = SharedTimeBuffer::new(1);
        b.publish(CoreId::new(0), t(10), t(5), t(10));
    }
}
