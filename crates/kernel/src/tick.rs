//! The scheduler tick with `CONFIG_NO_HZ_IDLE` semantics.
//!
//! Paper §III-C1: "Linux kernel is typically configured as the
//! `CONFIG_NO_HZ_IDLE` mode, which means when the core is not in the IDLE
//! state, the per-core timer raises the timer interrupt for scheduling-clock
//! ticks periodically with the frequency of HZ. … To avoid any core entering
//! the idle mode, KProber-I keeps running a user-level multi-threads program
//! on each core." The tick model here captures exactly that dependence:
//! a busy core ticks at HZ; an idle core's tick is suppressed.

use crate::config::TICK_PERIOD;
use satin_sim::SimTime;

/// The next tick boundary strictly after `now` (ticks are aligned to
/// multiples of [`TICK_PERIOD`], like a periodic hardware timer).
pub fn next_boundary(now: SimTime) -> SimTime {
    let p = TICK_PERIOD.as_nanos();
    SimTime::from_nanos((now.as_nanos() / p + 1) * p)
}

/// Whether a tick boundary is delivered to a core: the kernel runs with
/// `CONFIG_NO_HZ_IDLE`, so a busy core ticks and an idle core does not.
pub fn delivered(core_idle: bool) -> bool {
    !core_idle
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_alignment() {
        // HZ=250 → 4ms period
        assert_eq!(next_boundary(SimTime::ZERO), SimTime::from_millis(4));
        assert_eq!(
            next_boundary(SimTime::from_millis(4)),
            SimTime::from_millis(8)
        );
        assert_eq!(
            next_boundary(SimTime::from_nanos(3_999_999)),
            SimTime::from_millis(4)
        );
    }

    #[test]
    fn idle_suppression() {
        assert!(delivered(false));
        assert!(!delivered(true));
    }
}
