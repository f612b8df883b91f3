//! Kernel configuration knobs.

use satin_sim::SimDuration;

/// Tunables of the simulated rich OS, defaulting to the lsk-4.4 values the
/// paper's board ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelConfig {
    /// Scheduler tick frequency. "For most versions of the Linux kernel,
    /// 100 ≤ HZ ≤ 1000" (§III-C1); ARM defconfigs commonly use 250.
    pub hz: u32,
    /// `CONFIG_NO_HZ_IDLE`: the per-core tick stops while the core idles
    /// (§III-C1) — which is why KProber-I must keep every core busy.
    pub nohz_idle: bool,
    /// CFS scheduling latency target (`sysctl_sched_latency`).
    pub sched_latency: SimDuration,
    /// CFS minimum preemption granularity.
    pub min_granularity: SimDuration,
}

impl KernelConfig {
    /// The configuration of the paper's rich OS.
    pub fn lsk_4_4() -> Self {
        KernelConfig {
            hz: 250,
            nohz_idle: true,
            sched_latency: SimDuration::from_millis(6),
            min_granularity: SimDuration::from_micros(750),
        }
    }

    /// Tick period (`1/HZ`).
    ///
    /// # Panics
    ///
    /// Panics if `hz == 0`.
    pub fn tick_period(&self) -> SimDuration {
        assert!(self.hz > 0, "HZ must be positive");
        SimDuration::from_nanos(1_000_000_000 / u64::from(self.hz))
    }

    /// CFS timeslice for a queue of `nr_running` tasks: latency divided by
    /// the number of runnable tasks, floored at the minimum granularity.
    pub(crate) fn cfs_timeslice(&self, nr_running: usize) -> SimDuration {
        if nr_running == 0 {
            return self.sched_latency;
        }
        let slice = self.sched_latency / nr_running as u64;
        if slice < self.min_granularity {
            self.min_granularity
        } else {
            slice
        }
    }

    /// Validates the configuration against the paper's stated HZ range.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is outside `[100, 1000]`.
    pub(crate) fn validate(&self) {
        assert!(
            (100..=1000).contains(&self.hz),
            "HZ {} outside the paper's 100..=1000 range",
            self.hz
        );
    }
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self::lsk_4_4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = KernelConfig::lsk_4_4();
        c.validate();
        assert_eq!(c.hz, 250);
        assert_eq!(c.tick_period(), SimDuration::from_millis(4));
        assert!(c.nohz_idle);
    }

    #[test]
    fn timeslice_scaling() {
        let c = KernelConfig::lsk_4_4();
        assert_eq!(c.cfs_timeslice(0), SimDuration::from_millis(6));
        assert_eq!(c.cfs_timeslice(1), SimDuration::from_millis(6));
        assert_eq!(c.cfs_timeslice(3), SimDuration::from_millis(2));
        // Heavily loaded: floors at min granularity.
        assert_eq!(c.cfs_timeslice(100), SimDuration::from_micros(750));
    }

    #[test]
    #[should_panic(expected = "outside the paper")]
    fn hz_range_enforced() {
        let mut c = KernelConfig::lsk_4_4();
        c.hz = 50;
        c.validate();
    }
}
