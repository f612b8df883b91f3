//! The Time Reporter / Time Comparer prober (Figure 2) and the
//! probing-threshold measurement campaign (Table II, Figure 4).
//!
//! Each probed core gets a thread pinned to it (so the OS cannot migrate it
//! off a frozen core) that *reports* its current counter value into the
//! shared buffer and *compares* every other core's freshest visible report
//! against its own time. When a core enters the secure world its thread
//! stops reporting, its buffered value goes stale, and every other comparer
//! sees the staleness exceed the learned threshold.

use crate::channel::EvaderChannel;
use satin_hw::CoreId;
use satin_kernel::{Affinity, SchedClass, TaskId};
use satin_sim::{MarkTag, SimDuration, SimTime};
use satin_system::{RunCtx, RunOutcome, System, ThreadBody};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Which cores the prober watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeTargets {
    /// Watch every core (each core runs a reporter+comparer thread).
    AllCores,
    /// Watch one specific core from one observer core — the paper's
    /// fixed-affinity probing mode (§IV-A1), which achieves ~4× smaller
    /// thresholds (§IV-B2).
    Single {
        /// The core being watched (runs a reporter-only thread).
        target: CoreId,
        /// The core running the reporter+comparer thread.
        observer: CoreId,
    },
}

/// Prober configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProberConfig {
    /// Reporting cadence (`Tsleep = Tns_sched = 2e-4 s` in §IV-A1).
    pub sleep: SimDuration,
    /// Staleness threshold above which a core is reported as gone;
    /// `None` runs in measurement-only mode (Table II calibration).
    pub threshold: Option<SimDuration>,
    /// Which cores to watch.
    pub targets: ProbeTargets,
}

impl ProberConfig {
    /// The paper's KProber configuration: the `juno-r1` attacker's cadence
    /// (200 µs) and learned threshold (1.8 ms), all cores.
    pub fn paper_kprober() -> Self {
        Self::from_profile(&satin_scenario::Scenario::paper().attack)
    }

    /// The all-cores prober an attack profile describes.
    pub(crate) fn from_profile(profile: &satin_scenario::AttackProfile) -> Self {
        ProberConfig {
            sleep: profile.sleep,
            threshold: profile.threshold,
            targets: ProbeTargets::AllCores,
        }
    }

    /// Measurement-only mode (no detections reported).
    pub fn measurement(sleep: SimDuration, targets: ProbeTargets) -> Self {
        ProberConfig {
            sleep,
            threshold: None,
            targets,
        }
    }
}

#[derive(Debug, Default)]
struct SharedState {
    round_max: SimDuration,
    observations: u64,
    detections_suppressed_until: BTreeMap<usize, SimTime>,
}

/// State shared by all prober threads (and read by experiments).
#[derive(Debug, Clone, Default)]
pub struct ProberShared {
    state: Rc<RefCell<SharedState>>,
    channel: Option<EvaderChannel>,
}

impl ProberShared {
    /// Measurement-only shared state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared state that reports detections into `channel`.
    pub fn with_channel(channel: EvaderChannel) -> Self {
        ProberShared {
            state: Rc::default(),
            channel: Some(channel),
        }
    }

    /// The largest staleness observed since the last reset.
    pub fn round_max(&self) -> SimDuration {
        self.state.borrow().round_max
    }

    /// Number of comparer observations since construction.
    pub fn observations(&self) -> u64 {
        self.state.borrow().observations
    }

    /// Resets the per-round maximum (used between measurement rounds).
    pub fn reset_round(&self) {
        self.state.borrow_mut().round_max = SimDuration::ZERO;
    }

    /// Returns `true` when an over-threshold staleness was reported into the
    /// evader channel (i.e. a detection survived the debounce window).
    pub(crate) fn record(
        &self,
        now: SimTime,
        core: CoreId,
        diff: SimDuration,
        threshold: Option<SimDuration>,
    ) -> bool {
        let mut s = self.state.borrow_mut();
        s.observations += 1;
        if diff > s.round_max {
            s.round_max = diff;
        }
        if let (Some(th), Some(ch)) = (threshold, &self.channel) {
            if diff > th {
                // Debounce: one detection per core per 5 ms window, so one
                // introspection round produces one burst, not thousands.
                let until = s
                    .detections_suppressed_until
                    .get(&core.index())
                    .copied()
                    .unwrap_or(SimTime::ZERO);
                if now >= until {
                    s.detections_suppressed_until
                        .insert(core.index(), now + SimDuration::from_millis(5));
                    ch.report_detection(now, core, diff);
                    return true;
                }
            }
        }
        false
    }
}

/// A reporter+comparer thread body, pinned to one core.
pub struct ReporterComparerBody {
    my_core: CoreId,
    watched: Vec<CoreId>,
    shared: ProberShared,
    config: ProberConfig,
    /// Phase offset past each cadence boundary. The single-core probing
    /// mode (§IV-A1) deliberately lags the observer ~65 µs behind the
    /// reporter so the target's report has drained through the cache
    /// hierarchy by read time — which is what makes fixed-target probing
    /// ≈4× more precise than all-core probing (§IV-B2).
    phase_offset: SimDuration,
}

impl ThreadBody for ReporterComparerBody {
    fn on_run(&mut self, ctx: &mut RunCtx<'_>) -> RunOutcome {
        let now = ctx.now();
        // Time Reporter: publish this core's current time.
        let mut busy = ctx.publish_time_report();
        // Time Comparer: read every watched core's freshest visible report.
        for &x in &self.watched {
            if x == self.my_core {
                continue;
            }
            if let Some(tx) = ctx.read_time_report(x) {
                let diff = now.saturating_since(tx);
                if self.shared.record(now, x, diff, self.config.threshold) {
                    ctx.mark_args(MarkTag::AttackObserve, x.index() as u64, 0);
                }
            }
        }
        busy += ctx.compare_exec_cost(self.watched.len());
        if self.phase_offset.is_zero() {
            RunOutcome::sleep_aligned(busy, self.config.sleep)
        } else {
            RunOutcome::sleep_aligned_offset(busy, self.config.sleep, self.phase_offset)
        }
    }
}

/// A reporter-only thread body (the target thread of single-core probing).
pub struct ReporterOnlyBody {
    sleep: SimDuration,
}

impl ThreadBody for ReporterOnlyBody {
    fn on_run(&mut self, ctx: &mut RunCtx<'_>) -> RunOutcome {
        let busy = ctx.publish_time_report();
        RunOutcome::sleep_aligned(busy, self.sleep)
    }
}

/// Deploys prober threads onto `sys` with the given scheduling class
/// (RT = KProber-II, CFS = the user-level prober) and wakes them at `start`.
///
/// Returns the spawned task ids.
pub fn deploy_prober_threads(
    sys: &mut System,
    class: SchedClass,
    config: ProberConfig,
    shared: &ProberShared,
    start: SimTime,
) -> Vec<TaskId> {
    let n = sys.num_cores();
    let mut tasks = Vec::new();
    match config.targets {
        ProbeTargets::AllCores => {
            let all: Vec<CoreId> = (0..n).map(CoreId::new).collect();
            for &core in &all {
                let body = ReporterComparerBody {
                    my_core: core,
                    watched: all.clone(),
                    shared: shared.clone(),
                    config,
                    phase_offset: SimDuration::ZERO,
                };
                let t = sys.spawn(
                    format!("prober-{core}"),
                    class,
                    Affinity::pinned(core),
                    body,
                );
                tasks.push(t);
            }
        }
        ProbeTargets::Single { target, observer } => {
            assert!(target != observer, "observer must differ from target");
            let rep = sys.spawn(
                format!("reporter-{target}"),
                class,
                Affinity::pinned(target),
                ReporterOnlyBody {
                    sleep: config.sleep,
                },
            );
            let cmp = sys.spawn(
                format!("comparer-{observer}"),
                class,
                Affinity::pinned(observer),
                ReporterComparerBody {
                    my_core: observer,
                    watched: vec![target],
                    shared: shared.clone(),
                    config,
                    phase_offset: SimDuration::from_micros(60),
                },
            );
            tasks.push(rep);
            tasks.push(cmp);
        }
    }
    for &t in &tasks {
        sys.wake_at(t, start);
    }
    tasks
}

/// One round of the Table II measurement: run the prober alone (no secure
/// world activity) for `period` and return the largest observed staleness,
/// in seconds.
pub fn measure_round(seed: u64, period: SimDuration, targets: ProbeTargets) -> f64 {
    let mut sys = satin_system::SystemBuilder::new()
        .seed(seed)
        .trace(false)
        .build();
    let shared = ProberShared::new();
    let config = ProberConfig::measurement(ProberConfig::paper_kprober().sleep, targets);
    deploy_prober_threads(
        &mut sys,
        SchedClass::rt_max(),
        config,
        &shared,
        SimTime::ZERO,
    );
    // Warm up so every core has published at least once, then measure.
    let warmup = SimDuration::from_millis(5);
    sys.run_for(warmup);
    shared.reset_round();
    sys.run_for(period);
    shared.round_max().as_secs_f64()
}

/// The full Table II campaign: `rounds` independent rounds of `period` each.
/// Returns the per-round maxima, in seconds.
pub fn probing_threshold_campaign(
    base_seed: u64,
    period: SimDuration,
    rounds: usize,
    targets: ProbeTargets,
) -> Vec<f64> {
    (0..rounds)
        .map(|r| measure_round(base_seed.wrapping_add(r as u64 * 7919), period, targets))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_max_tracks_largest_diff() {
        let shared = ProberShared::new();
        let now = SimTime::from_millis(1);
        shared.record(now, CoreId::new(0), SimDuration::from_micros(50), None);
        shared.record(now, CoreId::new(1), SimDuration::from_micros(300), None);
        shared.record(now, CoreId::new(2), SimDuration::from_micros(100), None);
        assert_eq!(shared.round_max(), SimDuration::from_micros(300));
        assert_eq!(shared.observations(), 3);
        shared.reset_round();
        assert_eq!(shared.round_max(), SimDuration::ZERO);
    }

    #[test]
    fn detection_debounced_per_core() {
        let ch = EvaderChannel::new();
        let shared = ProberShared::with_channel(ch.clone());
        let th = Some(SimDuration::from_micros(100));
        let t0 = SimTime::from_millis(10);
        for i in 0..10u64 {
            shared.record(
                t0 + SimDuration::from_micros(i * 10),
                CoreId::new(3),
                SimDuration::from_micros(500),
                th,
            );
        }
        // Ten over-threshold observations in 100µs → one detection.
        assert_eq!(ch.detection_count(), 1);
        // After the 5ms debounce window another detection is allowed.
        shared.record(
            t0 + SimDuration::from_millis(6),
            CoreId::new(3),
            SimDuration::from_micros(500),
            th,
        );
        assert_eq!(ch.detection_count(), 2);
    }

    #[test]
    fn measurement_round_produces_plausible_threshold() {
        // One short round: the baseline staleness must be around the
        // reporting cadence (2e-4) — not zero, not milliseconds.
        let max = measure_round(42, SimDuration::from_millis(200), ProbeTargets::AllCores);
        assert!(max > 5e-5, "threshold {max} implausibly small");
        assert!(max < 3e-3, "threshold {max} implausibly large");
    }

    #[test]
    fn single_core_probing_smaller_threshold() {
        // §IV-B2: probing a single fixed core yields ~1/4 the threshold of
        // probing all cores. Check the direction (ratio checked in benches).
        let period = SimDuration::from_millis(300);
        let all: f64 = probing_threshold_campaign(7, period, 3, ProbeTargets::AllCores)
            .iter()
            .sum::<f64>()
            / 3.0;
        let single: f64 = probing_threshold_campaign(
            7,
            period,
            3,
            ProbeTargets::Single {
                target: CoreId::new(2),
                observer: CoreId::new(0),
            },
        )
        .iter()
        .sum::<f64>()
            / 3.0;
        assert!(
            single < all,
            "single-core threshold {single} should be below all-core {all}"
        );
    }

    #[test]
    fn prober_detects_secure_entry() {
        use satin_hw::timing::ScanStrategy;
        use satin_mem::MemRange;
        use satin_system::{BootCtx, ScanRequest, SecureCtx, SecureService};

        struct OneScan;
        impl SecureService for OneScan {
            fn on_boot(&mut self, ctx: &mut BootCtx<'_>) -> Result<(), satin_system::SatinError> {
                ctx.arm_core(CoreId::new(4), SimTime::from_millis(20))
                    .unwrap();
                Ok(())
            }
            fn on_secure_timer(
                &mut self,
                _core: CoreId,
                _ctx: &mut SecureCtx<'_>,
            ) -> Option<ScanRequest> {
                Some(ScanRequest {
                    area_id: 0,
                    range: MemRange::new(satin_mem::PhysAddr::new(0x8008_0000), 800_000),
                    strategy: ScanStrategy::DirectHash,
                })
            }
            fn on_scan_result(
                &mut self,
                _core: CoreId,
                _request: &ScanRequest,
                _observed: &[u8],
                _ctx: &mut SecureCtx<'_>,
            ) {
            }
        }

        let mut sys = satin_system::SystemBuilder::new()
            .seed(5)
            .trace(false)
            .build();
        let ch = EvaderChannel::new();
        let shared = ProberShared::with_channel(ch.clone());
        deploy_prober_threads(
            &mut sys,
            SchedClass::rt_max(),
            ProberConfig::paper_kprober(),
            &shared,
            SimTime::ZERO,
        );
        sys.install_secure_service(OneScan);
        sys.run_until(SimTime::from_millis(60));
        // The 800 KB scan freezes core 4 for ~5-9 ms; the prober must see it.
        let det = ch.detections();
        assert!(!det.is_empty(), "prober missed the secure-world entry");
        assert!(det.iter().all(|d| d.core == CoreId::new(4)));
        // Detection latency from the 20ms fire must be under Tns_delay ≈ 2ms.
        let first = det[0].at;
        let latency = first
            .saturating_since(SimTime::from_millis(20))
            .as_secs_f64();
        assert!(latency < 2.5e-3, "detection latency {latency}s too large");
    }
}
