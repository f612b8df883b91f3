//! Normal-world coordination between the prober and the attack module.
//!
//! In the paper TZ-Evader is one kernel module: "Once the prober module
//! reports that one core may be switched to the secure world, TZ-Evader
//! begins to remove its attacking trace" (§III-C). The channel is shared
//! normal-world state (an `Rc<RefCell<…>>`, since the simulation is single
//! threaded) through which the prober raises the hide signal and the rootkit
//! reports its own lifecycle.

use satin_hw::CoreId;
use satin_sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// One prober detection event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// When the prober concluded a core was gone.
    pub at: SimTime,
    /// Which core it believes entered the secure world.
    pub core: CoreId,
    /// The observed staleness that triggered the detection.
    pub staleness: SimDuration,
}

#[derive(Debug, Default)]
struct ChannelState {
    hide_requested: bool,
    detections: Vec<Detection>,
    last_detection: Option<SimTime>,
    hides_started: u64,
    hides_completed: u64,
    reinstalls: u64,
}

/// Shared prober↔rootkit channel.
///
/// Cloning clones the handle, not the state.
#[derive(Debug, Clone, Default)]
pub struct EvaderChannel {
    state: Rc<RefCell<ChannelState>>,
}

impl EvaderChannel {
    /// A fresh channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prober side: report that `core` looks frozen with the given
    /// staleness at time `at`. Sets the hide signal.
    pub fn report_detection(&self, at: SimTime, core: CoreId, staleness: SimDuration) {
        let mut s = self.state.borrow_mut();
        s.hide_requested = true;
        s.last_detection = Some(at);
        s.detections.push(Detection {
            at,
            core,
            staleness,
        });
    }

    /// Rootkit side: is a hide currently requested?
    pub(crate) fn hide_requested(&self) -> bool {
        self.state.borrow().hide_requested
    }

    /// Rootkit side: acknowledge the hide request and start recovering.
    pub(crate) fn begin_hide(&self) {
        let mut s = self.state.borrow_mut();
        s.hide_requested = false;
        s.hides_started += 1;
    }

    /// Rootkit side: the traces are clean.
    pub(crate) fn hide_completed(&self) {
        self.state.borrow_mut().hides_completed += 1;
    }

    /// Rootkit side: the attack was reinstalled.
    pub(crate) fn record_reinstall(&self) {
        self.state.borrow_mut().reinstalls += 1;
    }

    /// Rootkit side: drop a pending hide request without counting a hide
    /// (used when reinstalling after a stale detection burst).
    pub(crate) fn clear_hide_request(&self) {
        self.state.borrow_mut().hide_requested = false;
    }

    /// `true` if no detection has fired in the last `quiet` before `now` —
    /// the rootkit's signal that the introspection round is over and it is
    /// safe to resume attacking.
    pub(crate) fn all_clear(&self, now: SimTime, quiet: SimDuration) -> bool {
        match self.state.borrow().last_detection {
            None => true,
            Some(t) => now.saturating_since(t) >= quiet,
        }
    }

    /// All detections so far.
    pub fn detections(&self) -> Vec<Detection> {
        self.state.borrow().detections.clone()
    }

    /// Number of detections so far.
    pub fn detection_count(&self) -> usize {
        self.state.borrow().detections.len()
    }

    /// (hides started, hides completed, reinstalls).
    pub fn lifecycle_counts(&self) -> (u64, u64, u64) {
        let s = self.state.borrow();
        (s.hides_started, s.hides_completed, s.reinstalls)
    }

    /// Groups raw detections into distinct introspection sessions: events
    /// separated by less than `gap` count as one session. Returns the first
    /// detection time of each session.
    pub fn distinct_sessions(&self, gap: SimDuration) -> Vec<SimTime> {
        let s = self.state.borrow();
        let mut out: Vec<SimTime> = Vec::new();
        for d in &s.detections {
            match out.last() {
                Some(last) if d.at.saturating_since(*last) < gap => {
                    // same session; keep first timestamp but remember nothing
                }
                _ => out.push(d.at),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn hide_signal_round_trip() {
        let ch = EvaderChannel::new();
        assert!(!ch.hide_requested());
        ch.report_detection(t(5), CoreId::new(2), SimDuration::from_millis(2));
        assert!(ch.hide_requested());
        ch.begin_hide();
        assert!(!ch.hide_requested());
        ch.hide_completed();
        assert_eq!(ch.lifecycle_counts(), (1, 1, 0));
    }

    #[test]
    fn all_clear_respects_quiet_period() {
        let ch = EvaderChannel::new();
        assert!(ch.all_clear(t(0), SimDuration::from_millis(10)));
        ch.report_detection(t(100), CoreId::new(0), SimDuration::ZERO);
        assert!(!ch.all_clear(t(105), SimDuration::from_millis(10)));
        assert!(ch.all_clear(t(110), SimDuration::from_millis(10)));
    }

    #[test]
    fn session_grouping() {
        let ch = EvaderChannel::new();
        // A burst of detections for one introspection, then another later.
        for ms in [100u64, 101, 102, 103] {
            ch.report_detection(t(ms), CoreId::new(1), SimDuration::ZERO);
        }
        ch.report_detection(t(500), CoreId::new(4), SimDuration::ZERO);
        let sessions = ch.distinct_sessions(SimDuration::from_millis(50));
        assert_eq!(sessions, vec![t(100), t(500)]);
        assert_eq!(ch.detection_count(), 5);
    }

    #[test]
    fn sessions_gap_inclusive_behaviour() {
        let ch = EvaderChannel::new();
        ch.report_detection(t(0), CoreId::new(0), SimDuration::ZERO);
        ch.report_detection(t(50), CoreId::new(0), SimDuration::ZERO);
        // Exactly at the gap counts as a new session.
        let sessions = ch.distinct_sessions(SimDuration::from_millis(50));
        assert_eq!(sessions.len(), 2);
    }

    #[test]
    fn clones_share_state() {
        let a = EvaderChannel::new();
        let b = a.clone();
        a.report_detection(t(1), CoreId::new(0), SimDuration::ZERO);
        assert!(b.hide_requested());
        assert_eq!(b.detection_count(), 1);
    }
}
