//! The schedule-predicting evader: what random wake-up (§V-C) defends
//! against.
//!
//! "Evasion attacks target at defeating asynchronous introspection by
//! predicting precisely the time of next security check and thus removing
//! all attacking evidence to avoid detection" (§I). Against a *fixed*
//! period the attacker needs no side channel at all: once the phase is
//! known, it hides shortly before each grid point and re-installs after.
//! SATIN's `td ∈ [−tp, tp]` deviation destroys the grid — "at any moment
//! the introspection could start" — and forces the attacker back to
//! probing, where the §V-B area bound wins the race.
//!
//! The predictor here is the *oracle-strength* version: it is handed the
//! exact period and phase (the best any schedule-learning attacker could
//! achieve), so the ablation measures the defense, not the attacker's
//! learning ability.

use crate::channel::EvaderChannel;
use crate::rootkit::{deploy_rootkit, RootkitConfig, RootkitHandle};
use satin_hw::CoreId;
use satin_kernel::{Affinity, SchedClass, TaskId};
use satin_sim::{SimDuration, SimTime, TraceCategory};
use satin_system::{RunCtx, RunOutcome, System, ThreadBody};

/// Configuration of the schedule predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorConfig {
    /// The believed introspection period (grid spacing).
    pub period: SimDuration,
    /// The believed phase: first expected wake at `phase`, then every
    /// `period`.
    pub phase: SimTime,
    /// How long before each predicted wake to be hidden. Must cover
    /// `Tns_recover` plus scheduling slack.
    pub hide_margin: SimDuration,
    /// How long after each predicted wake to stay hidden (covers the scan).
    pub reappear_after: SimDuration,
}

impl PredictorConfig {
    /// Oracle defaults for a known `(period, phase)`: hide 8 ms early,
    /// reappear 160 ms after (longer than any single-area or full-kernel
    /// round at the paper's rates).
    pub fn oracle(period: SimDuration, phase: SimTime) -> Self {
        PredictorConfig {
            period,
            phase,
            hide_margin: SimDuration::from_millis(8),
            reappear_after: SimDuration::from_millis(160),
        }
    }
}

/// The predictor body: drives the hide/reinstall cycle on the grid. It uses
/// the shared [`EvaderChannel`] purely as a signalling device into the
/// rootkit threads (reusing their recovery machinery), injecting synthetic
/// "detections" at predicted times.
struct PredictorBody {
    config: PredictorConfig,
    channel: EvaderChannel,
    next_grid: u64,
}

impl ThreadBody for PredictorBody {
    fn on_run(&mut self, ctx: &mut RunCtx<'_>) -> RunOutcome {
        let now = ctx.now();
        // Next predicted wake on the grid.
        let wake_at = self.config.phase
            + SimDuration::from_nanos(self.next_grid * self.config.period.as_nanos());
        let hide_at = wake_at - self.config.hide_margin.min(wake_at.since(SimTime::ZERO));
        if now >= hide_at {
            // Time to disappear: raise the hide signal (the rootkit's
            // recovery threads do the actual cleaning within Tns_recover,
            // which is why the margin must exceed it).
            self.channel
                .report_detection(now, ctx.core(), SimDuration::ZERO);
            ctx.trace(
                TraceCategory::AttackPredict,
                format!("hiding for wake #{}", self.next_grid),
            );
            self.next_grid += 1;
            // Sleep past the predicted scan so the quiet-period logic
            // reinstalls afterwards.
            RunOutcome::sleep_after(
                SimDuration::from_micros(2),
                self.config.reappear_after + self.config.hide_margin,
            )
        } else {
            // Poll again shortly before the hide point.
            let wait = hide_at.since(now).min(SimDuration::from_millis(1));
            RunOutcome::sleep_after(SimDuration::from_micros(1), wait)
        }
    }
}

/// A deployed predictive evader.
#[derive(Debug, Clone)]
pub struct PredictiveEvader {
    /// The signalling channel (synthetic detections appear here).
    pub channel: EvaderChannel,
    /// The underlying rootkit lifecycle handle.
    pub rootkit: RootkitHandle,
}

/// Deploys the oracle predictor plus the standard rootkit (with multi-core
/// recovery) onto `sys`.
pub fn deploy_predictive_evader(
    sys: &mut System,
    config: PredictorConfig,
) -> (PredictiveEvader, TaskId) {
    let channel = EvaderChannel::new();
    // Stay down for the whole predicted scan window: the rootkit's
    // autonomous reinstall must not fire mid-scan.
    let rk_cfg = RootkitConfig {
        quiet_before_reinstall: config.reappear_after,
        ..RootkitConfig::default()
    };
    let (_, rootkit) = deploy_rootkit(sys, CoreId::new(3), rk_cfg, &channel);
    let body = PredictorBody {
        config,
        channel: channel.clone(),
        next_grid: 1, // skip the boot wake at/near the phase itself
    };
    let t = sys.spawn(
        "predictor",
        SchedClass::RtFifo { priority: 97 },
        Affinity::pinned(CoreId::new(5)),
        body,
    );
    sys.wake_at(t, SimTime::ZERO);
    (PredictiveEvader { channel, rootkit }, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use satin_core::{CorePolicy, Satin, SatinConfig};
    use satin_system::SystemBuilder;

    fn campaign(randomize_wake: bool, seed: u64) -> (u64, u64) {
        // SATIN at tp = 500 ms for a fast test; fixed core so the grid
        // prediction is exact in the non-randomized case.
        let mut cfg = SatinConfig::paper();
        cfg.tgoal = SimDuration::from_millis(500 * 19);
        cfg.randomize_wake = randomize_wake;
        cfg.core_policy = CorePolicy::Fixed(CoreId::new(0));
        let mut sys = SystemBuilder::new().seed(seed).trace(false).build();
        let (satin, handle) = Satin::new(cfg);
        sys.install_secure_service(satin);
        // Oracle: with randomize_wake=false the queue hands out exact
        // tp-spaced times from t=0.
        let predictor = PredictorConfig::oracle(SimDuration::from_millis(500), SimTime::ZERO);
        let (_evader, _) = deploy_predictive_evader(&mut sys, predictor);
        sys.run_until(SimTime::from_secs(25));
        let rounds = handle.rounds();
        let area = satin_mem::PAPER_SYSCALL_AREA;
        let checks = rounds.iter().filter(|r| r.area == area).count() as u64;
        let caught = rounds
            .iter()
            .filter(|r| r.area == area && r.tampered)
            .count() as u64;
        (checks, caught)
    }

    #[test]
    fn fixed_schedule_is_fully_evaded_by_prediction() {
        let (checks, caught) = campaign(false, 301);
        assert!(checks >= 1, "no area-14 checks happened");
        assert_eq!(
            caught, 0,
            "oracle predictor must fully evade a fixed schedule ({caught}/{checks})"
        );
    }

    #[test]
    fn random_wake_defeats_the_predictor() {
        // With td ∈ [−tp, tp] the grid is useless: some rounds land while
        // the hijack is live and get caught.
        let mut total_caught = 0;
        for seed in [302u64, 303, 304] {
            let (_, caught) = campaign(true, seed);
            total_caught += caught;
        }
        assert!(
            total_caught >= 1,
            "randomized wake-up should catch the predictor at least once"
        );
    }
}
