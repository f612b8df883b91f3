//! §VII-B — how the attacker's threshold choice trades false positives
//! against reaction latency.
//!
//! "If too low a threshold is chosen the prober misfires on ordinary
//! scheduling noise; too high and the evader reacts late." The paper says
//! the attacker must *learn* `Tns_threshold` from the victim; this sweep
//! shows why the learning matters: below the baseline staleness the rootkit
//! spends its life hiding from ghosts; far above it the reaction latency
//! eats the evasion margin.

use satin_attack::prober::{deploy_prober_threads, ProberConfig, ProberShared};
use satin_attack::{channel::EvaderChannel, TzEvader, TzEvaderConfig};
use satin_core::baseline::{BaselineConfig, NaiveIntrospection};
use satin_kernel::SchedClass;
use satin_sim::{SimDuration, SimTime};
use satin_system::SystemBuilder;

/// Outcome at one threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdPoint {
    /// The threshold under test, seconds.
    pub threshold_secs: f64,
    /// False-positive detection sessions per minute on a quiet system
    /// (no secure-world activity at all).
    pub false_sessions_per_min: f64,
    /// Against a periodic monolithic baseline: rounds that observed
    /// tampering (0 = perfect evasion).
    pub caught_rounds: u64,
    /// Introspection rounds run in the evasion phase.
    pub total_rounds: u64,
    /// Attack uptime fraction in the evasion phase.
    pub attack_uptime: f64,
}

/// Measures one threshold: a quiet-system FP phase, then an evasion phase
/// against a periodic monolithic baseline.
pub fn measure(threshold_secs: f64, seed: u64) -> ThresholdPoint {
    // Phase 1: quiet system — count detection sessions with no secure world.
    let quiet_secs = 30u64;
    let false_sessions = {
        let mut sys = SystemBuilder::new().seed(seed).trace(false).build();
        let channel = EvaderChannel::new();
        let shared = ProberShared::with_channel(channel.clone());
        let mut cfg = ProberConfig::paper_kprober();
        cfg.threshold = Some(SimDuration::from_secs_f64(threshold_secs));
        deploy_prober_threads(&mut sys, SchedClass::rt_max(), cfg, &shared, SimTime::ZERO);
        sys.run_until(SimTime::from_secs(quiet_secs));
        channel
            .distinct_sessions(SimDuration::from_millis(100))
            .len()
    };

    // Phase 2: evasion against a periodic full-kernel scan.
    let mut sys = SystemBuilder::new()
        .seed(seed ^ 0xfeed)
        .trace(false)
        .build();
    let (svc, defense) = NaiveIntrospection::new(BaselineConfig::periodic_fixed(
        SimDuration::from_millis(400),
    ));
    sys.install_secure_service(svc);
    let mut evader_cfg = TzEvaderConfig::paper_default();
    evader_cfg.prober_config.threshold = Some(SimDuration::from_secs_f64(threshold_secs));
    let evader = TzEvader::deploy(&mut sys, evader_cfg);
    sys.run_until(SimTime::from_secs(4));
    let uptime = evader.rootkit.active_time(sys.now()).as_secs_f64() / sys.now().as_secs_f64();

    ThresholdPoint {
        threshold_secs,
        false_sessions_per_min: false_sessions as f64 * 60.0 / quiet_secs as f64,
        caught_rounds: defense.tampered_rounds(),
        total_rounds: defense.rounds(),
        attack_uptime: uptime,
    }
}

/// Sweeps thresholds expressed as multiples of the paper's learned 1.8e-3.
pub fn sweep(factors: &[f64], seed: u64) -> Vec<ThresholdPoint> {
    let learned = ProberConfig::paper_kprober()
        .threshold
        .expect("the paper's attacker has a learned threshold")
        .as_secs_f64();
    factors
        .iter()
        .map(|f| measure(learned * f, seed.wrapping_add((f * 100.0) as u64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learned_threshold_is_quiet_and_effective() {
        let p = measure(1.8e-3, 91);
        assert_eq!(
            p.false_sessions_per_min, 0.0,
            "the learned threshold must not misfire on a quiet system"
        );
        assert!(p.total_rounds >= 5);
        assert_eq!(p.caught_rounds, 0, "evasion must succeed at 1.8e-3");
        assert!(p.attack_uptime > 0.5, "uptime {}", p.attack_uptime);
    }

    #[test]
    fn too_low_threshold_misfires() {
        // Below the ~2.1e-4 baseline staleness, everything looks like an
        // introspection: the prober fires constantly.
        let p = measure(1.5e-4, 92);
        assert!(
            p.false_sessions_per_min > 10.0,
            "expected constant misfires, got {}/min",
            p.false_sessions_per_min
        );
        // The rootkit consequently spends its life hiding.
        assert!(
            p.attack_uptime < 0.7,
            "uptime {} should collapse under misfires",
            p.attack_uptime
        );
    }

    #[test]
    fn moderate_thresholds_still_evade_the_monolithic_scan() {
        // Even a sloppy 2x threshold evades a 130 ms monolithic scan: the
        // margin there is enormous (that is §IV-C's point).
        let p = measure(3.6e-3, 93);
        assert_eq!(p.caught_rounds, 0);
        assert!(p.false_sessions_per_min < 2.0);
    }
}
