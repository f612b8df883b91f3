//! System-wide counters and per-task work accounting.

use crate::metrics::SysMetrics;
use satin_sim::{SimDuration, SimTime};

/// Global counters maintained by the event loop.
#[derive(Debug, Clone, Default)]
pub struct SysStats {
    /// Time reports published into the shared buffer.
    pub time_reports: u64,
    /// Kernel memory writes performed by normal-world tasks.
    pub kernel_writes: u64,
    /// Syscall handler resolutions.
    pub syscall_resolutions: u64,
    /// Resolutions that returned a non-genuine (hijacked) pointer.
    pub hijacked_resolutions: u64,
    /// Scheduler ticks delivered across cores.
    pub ticks_delivered: u64,
    /// Preemptions (any cause).
    pub preemptions: u64,
    /// Secure-world entries.
    pub secure_entries: u64,
    /// Cumulative time the tick hook (KProber-I) spent in IRQ context.
    pub tick_hook_time: SimDuration,
    /// Secure-world remediation writes to normal memory.
    pub secure_repairs: u64,
    /// Integrity alarms raised by the secure service (via
    /// [`SecureCtx::raise_alarm`](crate::service::SecureCtx::raise_alarm)).
    pub alarms: u64,
    /// Per-core, per-subsystem breakdown (see [`SysMetrics`]).
    pub metrics: SysMetrics,
    /// Genuine syscall pointers recorded at boot, for hijack detection,
    /// indexed by syscall number (the table is dense from 0).
    genuine_syscalls: Vec<u64>,
}

impl SysStats {
    /// Creates zeroed stats.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records the boot-time (genuine) pointer of the next syscall number:
    /// boot records the table in order, from syscall 0.
    pub(crate) fn push_genuine_syscall(&mut self, ptr: u64) {
        self.genuine_syscalls.push(ptr);
    }

    /// The genuine pointer of syscall `nr`, if recorded.
    pub fn genuine_syscall(&self, nr: u64) -> Option<u64> {
        let nr = usize::try_from(nr).ok()?;
        self.genuine_syscalls.get(nr).copied()
    }
}

/// Per-task effective-work accounting, the basis of the Figure 7 overhead
/// study.
///
/// While a task runs, it accrues *effective seconds*: wall CPU seconds scaled
/// by (a) the core's relative speed (A57 vs A53) and (b) the cache-pollution
/// penalty if the secure world recently ran on that core, weighted by the
/// task's sensitivity. A workload's score is then effective seconds × its
/// nominal operation rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TaskWork {
    /// Accumulated effective seconds.
    pub effective_secs: f64,
    /// How strongly pollution windows slow this task (0 = immune,
    /// 1 = full slowdown). Cache-hungry workloads (small-buffer file copy,
    /// context switching) sit near 1.
    pub sensitivity: f64,
}

impl Default for TaskWork {
    fn default() -> Self {
        TaskWork {
            effective_secs: 0.0,
            sensitivity: 0.5,
        }
    }
}

impl TaskWork {
    /// Accrues one run span `[start, end]` on a core whose pollution window
    /// lasts until `pollution_until` with slowdown factor `slowdown`, at
    /// relative core speed `core_speed`.
    pub(crate) fn accrue(
        &mut self,
        start: SimTime,
        end: SimTime,
        pollution_until: SimTime,
        slowdown: f64,
        core_speed: f64,
    ) {
        debug_assert!(end >= start);
        let total = end.since(start).as_secs_f64();
        let polluted = if pollution_until > start {
            (pollution_until.min(end)).since(start).as_secs_f64()
        } else {
            0.0
        };
        let clean = total - polluted;
        let factor = 1.0 - slowdown * self.sensitivity;
        self.effective_secs += core_speed * (clean + polluted * factor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genuine_syscall_round_trip() {
        let mut s = SysStats::new();
        for nr in 0..=178 {
            s.push_genuine_syscall(0xdead_0000 + nr);
        }
        assert_eq!(s.genuine_syscall(0), Some(0xdead_0000));
        assert_eq!(s.genuine_syscall(178), Some(0xdead_00b2));
        assert_eq!(s.genuine_syscall(179), None);
        assert_eq!(s.genuine_syscall(u64::MAX), None);
    }

    #[test]
    fn accrue_clean_span() {
        let mut w = TaskWork {
            effective_secs: 0.0,
            sensitivity: 1.0,
        };
        w.accrue(
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            SimTime::ZERO, // no pollution
            0.35,
            1.0,
        );
        assert!((w.effective_secs - 1.0).abs() < 1e-9);
    }

    #[test]
    fn accrue_fully_polluted_span() {
        let mut w = TaskWork {
            effective_secs: 0.0,
            sensitivity: 1.0,
        };
        w.accrue(
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            SimTime::from_secs(10), // pollution outlasts the span
            0.35,
            1.0,
        );
        assert!((w.effective_secs - 0.65).abs() < 1e-9);
    }

    #[test]
    fn accrue_partial_pollution_and_speed() {
        let mut w = TaskWork {
            effective_secs: 0.0,
            sensitivity: 0.5,
        };
        // 1s span, first half polluted, slowdown 0.4, core speed 0.63.
        w.accrue(
            SimTime::from_secs(0),
            SimTime::from_secs(1),
            SimTime::from_millis(500),
            0.4,
            0.63,
        );
        let expected = 0.63 * (0.5 + 0.5 * (1.0 - 0.4 * 0.5));
        assert!((w.effective_secs - expected).abs() < 1e-9);
    }

    #[test]
    fn insensitive_task_ignores_pollution() {
        let mut w = TaskWork {
            effective_secs: 0.0,
            sensitivity: 0.0,
        };
        w.accrue(
            SimTime::from_secs(0),
            SimTime::from_secs(1),
            SimTime::from_secs(5),
            0.9,
            1.0,
        );
        assert!((w.effective_secs - 1.0).abs() < 1e-9);
    }
}
