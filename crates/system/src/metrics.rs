//! Per-core, per-subsystem counters maintained by the event loop.
//!
//! Where [`SysStats`](crate::stats::SysStats) keeps the global counters the
//! paper's tables are built from, [`SysMetrics`] breaks the machine's
//! activity down by core and subsystem: how often each core crossed the
//! world boundary, how its scans fared (started / completed / torn by a
//! racing writer), how often the RT class preempted it, and how long secure
//! rounds took to publish their results. All counters are pure observations —
//! updating them consumes no randomness and schedules no events, so enabling
//! or reading them can never perturb an experiment.

use satin_hw::CoreId;
use satin_sim::SimDuration;
use satin_telemetry::DurationHistogram;

/// Counters for one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreMetrics {
    /// World transitions (each secure entry and each secure exit counts
    /// one switch, so an uninterrupted round contributes two).
    pub world_switches: u64,
    /// Introspection scan windows opened on this core.
    pub scans_started: u64,
    /// Scan windows that ran to completion and delivered a result.
    pub scans_completed: u64,
    /// Completed scans that raced at least one concurrent kernel write
    /// inside their range (see
    /// [`ScanWindow::is_torn`](satin_mem::ScanWindow::is_torn)) — the
    /// TOCTTOU surface the paper's Equation 1 quantifies.
    pub scans_torn: u64,
    /// Preemptions of a running task by a higher-priority RT task.
    pub rt_preemptions: u64,
    /// Cache-pollution windows opened by a secure exit on this core.
    pub pollution_windows: u64,
}

impl CoreMetrics {
    fn absorb(&mut self, other: &CoreMetrics) {
        self.world_switches += other.world_switches;
        self.scans_started += other.scans_started;
        self.scans_completed += other.scans_completed;
        self.scans_torn += other.scans_torn;
        self.rt_preemptions += other.rt_preemptions;
        self.pollution_windows += other.pollution_windows;
    }
}

/// The machine's per-core counters plus cross-core aggregates.
#[derive(Debug, Clone, Default)]
pub struct SysMetrics {
    cores: Vec<CoreMetrics>,
    /// Completed secure rounds whose publication delay was recorded.
    pub publications: u64,
    /// Total delay from secure timer fire to the round's results being
    /// published back to the normal world (the world-switch out).
    pub publication_delay_total: SimDuration,
    /// Distribution of publication delays (fire → world-switch out), the
    /// histogram behind [`SysMetrics::mean_publication_delay`].
    pub publication_delay_hist: DurationHistogram,
    /// Distribution of introspection hash-window lengths (scan begin →
    /// scan end) across completed scans.
    pub hash_window_hist: DurationHistogram,
    /// Distribution of detection latencies: for each secure round that
    /// raised at least one alarm, the delay from the round's timer fire to
    /// the result being published back to the normal world.
    pub detection_latency_hist: DurationHistogram,
}

impl SysMetrics {
    /// Creates zeroed metrics for `num_cores` cores.
    #[must_use]
    pub(crate) fn new(num_cores: usize) -> Self {
        SysMetrics {
            cores: vec![CoreMetrics::default(); num_cores],
            ..SysMetrics::default()
        }
    }

    /// One core's counters.
    ///
    /// # Panics
    ///
    /// Panics if `core` is beyond the tracked topology.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn core(&self, core: CoreId) -> &CoreMetrics {
        &self.cores[core.index()]
    }

    pub(crate) fn core_mut(&mut self, core: CoreId) -> &mut CoreMetrics {
        &mut self.cores[core.index()]
    }

    /// Iterates over `(core, counters)` pairs.
    pub fn per_core(&self) -> impl Iterator<Item = (CoreId, &CoreMetrics)> {
        self.cores
            .iter()
            .enumerate()
            .map(|(i, m)| (CoreId::new(i), m))
    }

    /// Sums the per-core counters across the machine.
    #[must_use]
    pub fn total(&self) -> CoreMetrics {
        let mut total = CoreMetrics::default();
        for m in &self.cores {
            total.absorb(m);
        }
        total
    }

    pub(crate) fn record_publication_delay(&mut self, delay: SimDuration) {
        self.publications += 1;
        self.publication_delay_total += delay;
        self.publication_delay_hist.record(delay);
    }

    pub(crate) fn record_hash_window(&mut self, length: SimDuration) {
        self.hash_window_hist.record(length);
    }

    pub(crate) fn record_detection_latency(&mut self, latency: SimDuration) {
        self.detection_latency_hist.record(latency);
    }

    /// Mean delay from secure timer fire to result publication, if any
    /// round completed.
    #[must_use]
    pub fn mean_publication_delay(&self) -> Option<SimDuration> {
        if self.publications == 0 {
            return None;
        }
        Some(SimDuration::from_nanos(
            self.publication_delay_total.as_nanos() / self.publications,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_across_cores() {
        let mut m = SysMetrics::new(3);
        m.core_mut(CoreId::new(0)).world_switches = 4;
        m.core_mut(CoreId::new(2)).world_switches = 6;
        m.core_mut(CoreId::new(2)).scans_torn = 1;
        let total = m.total();
        assert_eq!(total.world_switches, 10);
        assert_eq!(total.scans_torn, 1);
        assert_eq!(m.per_core().count(), 3);
    }

    #[test]
    fn total_equals_per_core_sum() {
        let mut m = SysMetrics::new(4);
        for (i, core) in (0..4).map(CoreId::new).enumerate() {
            let c = m.core_mut(core);
            c.world_switches = 2 * i as u64 + 1;
            c.scans_started = i as u64;
            c.scans_completed = i as u64;
            c.scans_torn = (i % 2) as u64;
            c.rt_preemptions = 3;
            c.pollution_windows = i as u64 * 5;
        }
        let mut summed = CoreMetrics::default();
        for (_, c) in m.per_core() {
            summed.absorb(c);
        }
        assert_eq!(m.total(), summed);
    }

    #[test]
    fn histograms_track_recorded_delays() {
        let mut m = SysMetrics::new(1);
        m.record_publication_delay(SimDuration::from_micros(10));
        m.record_publication_delay(SimDuration::from_micros(30));
        m.record_hash_window(SimDuration::from_micros(7));
        m.record_detection_latency(SimDuration::from_micros(12));
        assert_eq!(m.publication_delay_hist.count(), 2);
        assert_eq!(
            m.publication_delay_hist.max(),
            Some(SimDuration::from_micros(30))
        );
        assert_eq!(m.hash_window_hist.count(), 1);
        assert_eq!(m.detection_latency_hist.count(), 1);
    }

    #[test]
    fn publication_delay_mean() {
        let mut m = SysMetrics::new(1);
        assert_eq!(m.mean_publication_delay(), None);
        m.record_publication_delay(SimDuration::from_micros(10));
        m.record_publication_delay(SimDuration::from_micros(30));
        assert_eq!(
            m.mean_publication_delay(),
            Some(SimDuration::from_micros(20))
        );
    }
}
