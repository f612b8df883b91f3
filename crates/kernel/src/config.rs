//! The rich OS's build-time configuration: the lsk-4.4 kernel the paper's
//! board ran (§III-C1). As in a Linux `.config`, these are constants of the
//! kernel image, not run-time settings.

use satin_sim::SimDuration;

/// Scheduler tick period, `1/HZ` at `CONFIG_HZ = 250`. "For most versions of
/// the Linux kernel, 100 ≤ HZ ≤ 1000" (§III-C1); ARM defconfigs commonly use
/// 250.
pub const TICK_PERIOD: SimDuration = SimDuration::from_millis(4);

/// CFS scheduling latency target (`sysctl_sched_latency`).
const SCHED_LATENCY: SimDuration = SimDuration::from_millis(6);

/// CFS minimum preemption granularity (`sysctl_sched_min_granularity`).
const MIN_GRANULARITY: SimDuration = SimDuration::from_micros(750);

/// CFS timeslice for a queue of `nr_running` tasks: latency divided by the
/// number of runnable tasks, floored at the minimum granularity.
pub(crate) fn cfs_timeslice(nr_running: usize) -> SimDuration {
    if nr_running == 0 {
        return SCHED_LATENCY;
    }
    let slice = SCHED_LATENCY / nr_running as u64;
    if slice < MIN_GRANULARITY {
        MIN_GRANULARITY
    } else {
        slice
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        assert_eq!(1_000_000_000 / TICK_PERIOD.as_nanos(), 250, "HZ");
    }

    #[test]
    fn timeslice_scaling() {
        assert_eq!(cfs_timeslice(0), SimDuration::from_millis(6));
        assert_eq!(cfs_timeslice(1), SimDuration::from_millis(6));
        assert_eq!(cfs_timeslice(3), SimDuration::from_millis(2));
        // Heavily loaded: floors at min granularity.
        assert_eq!(cfs_timeslice(100), SimDuration::from_micros(750));
    }
}
