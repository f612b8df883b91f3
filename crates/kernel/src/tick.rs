//! The scheduler tick with `CONFIG_NO_HZ_IDLE` semantics.
//!
//! Paper §III-C1: "Linux kernel is typically configured as the
//! `CONFIG_NO_HZ_IDLE` mode, which means when the core is not in the IDLE
//! state, the per-core timer raises the timer interrupt for scheduling-clock
//! ticks periodically with the frequency of HZ. … To avoid any core entering
//! the idle mode, KProber-I keeps running a user-level multi-threads program
//! on each core." The tick model here captures exactly that dependence:
//! a busy core ticks at HZ; an idle core's tick is suppressed.

use crate::config::KernelConfig;
use satin_sim::{SimDuration, SimTime};

/// Per-core tick state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickState {
    period: SimDuration,
    nohz_idle: bool,
}

impl TickState {
    /// Tick state for a kernel configuration.
    pub fn new(config: &KernelConfig) -> Self {
        TickState {
            period: config.tick_period(),
            nohz_idle: config.nohz_idle,
        }
    }

    /// The next tick boundary strictly after `now` (ticks are aligned to
    /// multiples of the period, like a periodic hardware timer).
    pub fn next_boundary(&self, now: SimTime) -> SimTime {
        let p = self.period.as_nanos();
        let n = now.as_nanos() / p + 1;
        SimTime::from_nanos(n * p)
    }

    /// Processes a tick boundary: returns `true` if the tick is delivered
    /// (the core is busy, or NO_HZ_IDLE is off), `false` if suppressed.
    pub fn on_boundary(&self, core_idle: bool) -> bool {
        !(core_idle && self.nohz_idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> TickState {
        TickState::new(&KernelConfig::lsk_4_4())
    }

    #[test]
    fn boundary_alignment() {
        let t = state(); // HZ=250 → 4ms period
        assert_eq!(t.next_boundary(SimTime::ZERO), SimTime::from_millis(4));
        assert_eq!(
            t.next_boundary(SimTime::from_millis(4)),
            SimTime::from_millis(8)
        );
        assert_eq!(
            t.next_boundary(SimTime::from_nanos(3_999_999)),
            SimTime::from_millis(4)
        );
    }

    #[test]
    fn idle_suppression() {
        let t = state();
        assert!(t.on_boundary(false));
        assert!(!t.on_boundary(true));
    }

    #[test]
    fn periodic_mode_always_ticks() {
        let mut cfg = KernelConfig::lsk_4_4();
        cfg.nohz_idle = false;
        let t = TickState::new(&cfg);
        assert!(t.on_boundary(true));
    }

    #[test]
    fn hz_1000_period() {
        let mut cfg = KernelConfig::lsk_4_4();
        cfg.hz = 1000;
        let t = TickState::new(&cfg);
        assert_eq!(t.period, SimDuration::from_millis(1));
    }
}
