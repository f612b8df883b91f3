//! §III-B1 — the user-level prober's detection capability, and why TZ-Evader
//! upgraded to a kernel-level prober.
//!
//! The paper measures that the user-level prober's detection delay
//! `Tns_delay` stays under 5.97e-3 s while a typical kernel integrity check
//! occupies a core for 8.04e-2 s — so even an unprivileged process can
//! detect TrustZone introspection. But "when one core is scheduled with
//! several threads that have the same or higher schedule priority than the
//! probing thread, the prober's `Tns_sched` is increased" (§IV-B) — which is
//! what motivates KProber-II's `SCHED_FIFO` priority. We measure both
//! effects: detection delay per prober variant, idle and under CPU load.

use satin_attack::channel::EvaderChannel;
use satin_attack::kprober::deploy_prober;
use satin_attack::prober::{ProberConfig, ProberShared};
use satin_hw::timing::ScanStrategy;
use satin_hw::CoreId;
use satin_kernel::{Affinity, SchedClass};
use satin_mem::MemRange;
use satin_scenario::ProberKind;
use satin_sim::{SimDuration, SimTime};
use satin_stats::Summary;
use satin_system::{
    BootCtx, RunCtx, RunOutcome, ScanRequest, SecureCtx, SecureService, SystemBuilder,
};
use std::cell::RefCell;
use std::rc::Rc;

/// One measurement configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserProberConfig {
    /// Prober implementation under test.
    pub variant: ProberKind,
    /// Number of competing CFS spinner tasks (0 = idle system).
    pub load_tasks: usize,
    /// Introspection rounds to sample.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
}

/// The outcome: detection delays and the scan they raced.
#[derive(Debug, Clone, PartialEq)]
pub struct UserProberResult {
    /// Detection delay from scan start, per detected round, seconds.
    pub delays: Summary,
    /// Rounds that were never detected at all (missed).
    pub missed: usize,
    /// Mean duration of one kernel integrity check, seconds (the paper's
    /// 8.04e-2 comparison point).
    pub check_secs: f64,
}

struct RecordingScanService {
    core: CoreId,
    period: SimDuration,
    fires: Rc<RefCell<Vec<SimTime>>>,
    ends: Rc<RefCell<Vec<SimTime>>>,
}

impl SecureService for RecordingScanService {
    fn on_boot(&mut self, ctx: &mut BootCtx<'_>) -> Result<(), satin_system::SatinError> {
        ctx.arm_core(self.core, SimTime::ZERO + self.period)?;
        Ok(())
    }

    fn on_secure_timer(&mut self, _core: CoreId, ctx: &mut SecureCtx<'_>) -> Option<ScanRequest> {
        self.fires.borrow_mut().push(ctx.now());
        let layout = satin_mem::KernelLayout::paper();
        Some(ScanRequest {
            area_id: 0,
            range: MemRange::new(layout.base(), layout.total_size()),
            strategy: ScanStrategy::DirectHash,
        })
    }

    fn on_scan_result(
        &mut self,
        _core: CoreId,
        _request: &ScanRequest,
        _observed: &[u8],
        ctx: &mut SecureCtx<'_>,
    ) {
        self.ends.borrow_mut().push(ctx.now());
        ctx.arm_self(ctx.now() + self.period);
    }
}

/// Runs the measurement.
pub fn measure(config: UserProberConfig) -> UserProberResult {
    let mut sys = SystemBuilder::new().seed(config.seed).trace(false).build();
    let n = sys.num_cores();

    // Background load: CFS spinners competing with the prober threads.
    for i in 0..config.load_tasks {
        let t = sys.spawn(
            format!("load-{i}"),
            SchedClass::cfs(),
            Affinity::any(n),
            |_: &mut RunCtx<'_>| RunOutcome::yield_after(SimDuration::from_millis(2)),
        );
        sys.wake_at(t, SimTime::ZERO);
    }

    // The prober, wired to a channel so detections carry timestamps.
    let channel = EvaderChannel::new();
    let shared = ProberShared::with_channel(channel.clone());
    let cfg = ProberConfig::paper_kprober();
    deploy_prober(&mut sys, config.variant, cfg, &shared, SimTime::ZERO);

    // The introspection: full-kernel scans every 300 ms on a fixed A53 core
    // (the paper's "typical TrustZone-based kernel integrity checking").
    let fires = Rc::new(RefCell::new(Vec::new()));
    let ends = Rc::new(RefCell::new(Vec::new()));
    sys.install_secure_service(RecordingScanService {
        core: CoreId::new(3),
        period: SimDuration::from_millis(300),
        fires: fires.clone(),
        ends: ends.clone(),
    });

    let horizon = SimDuration::from_millis(450) * (config.trials as u64 + 1);
    sys.run_until(SimTime::ZERO + horizon);

    let fires = fires.borrow();
    let ends = ends.borrow();
    let detections = channel.detections();
    let mut delays = Vec::new();
    let mut missed = 0usize;
    for (i, fire) in fires.iter().take(config.trials).enumerate() {
        let end = ends.get(i).copied().unwrap_or(SimTime::MAX);
        match detections
            .iter()
            .find(|d| d.at > *fire && d.at < end)
            .map(|d| d.at.since(*fire).as_secs_f64())
        {
            Some(delay) => delays.push(delay),
            None => missed += 1,
        }
    }
    let check_secs = fires
        .iter()
        .zip(ends.iter())
        .map(|(f, e)| e.since(*f).as_secs_f64())
        .sum::<f64>()
        / fires.len().max(1) as f64;
    UserProberResult {
        delays: Summary::of(&delays).unwrap_or(Summary {
            count: 0,
            mean: f64::NAN,
            min: f64::NAN,
            max: f64::NAN,
            stddev: 0.0,
        }),
        missed,
        check_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_prober_detects_well_within_the_check() {
        // §III-B1: Tns_delay ≪ the 8e-2..1.3e-1 s kernel check duration.
        let r = measure(UserProberConfig {
            variant: ProberKind::UserLevel,
            load_tasks: 0,
            trials: 5,
            seed: 81,
        });
        assert_eq!(r.missed, 0, "user prober missed a round on an idle system");
        assert!(
            r.delays.max < 5.97e-3,
            "Tns_delay {:.2e} above the paper's 5.97e-3 bound",
            r.delays.max
        );
        assert!(
            r.check_secs > 0.08,
            "full-kernel check only {:.3}s",
            r.check_secs
        );
    }

    #[test]
    fn load_hurts_user_prober_but_not_kprober() {
        let user_loaded = measure(UserProberConfig {
            variant: ProberKind::UserLevel,
            load_tasks: 18, // three runnable CFS tasks per core
            trials: 5,
            seed: 82,
        });
        let kprober_loaded = measure(UserProberConfig {
            variant: ProberKind::KProberII,
            load_tasks: 18,
            trials: 5,
            seed: 82,
        });
        assert_eq!(kprober_loaded.missed, 0, "KProber-II must shrug off load");
        assert!(
            kprober_loaded.delays.max < 3e-3,
            "KProber-II delay {:.2e}",
            kprober_loaded.delays.max
        );
        // The user prober degrades: slower detection or outright misses.
        let degraded =
            user_loaded.missed > 0 || user_loaded.delays.mean > 2.0 * kprober_loaded.delays.mean;
        assert!(
            degraded,
            "user prober should degrade under load: user {:?} vs kprober {:?}",
            user_loaded.delays, kprober_loaded.delays
        );
    }
}
