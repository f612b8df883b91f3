//! §IV-B2 — trace-recovery time `Tns_recover`.
//!
//! The paper measures the rootkit's recovery 50 times per core kind:
//! A53 average 5.80e-3 s, A57 average 4.96e-3 s. We regenerate it through
//! the machine: trigger hides against a deployed rootkit pinned to a core of
//! each kind and measure detection→restore latency (which additionally
//! includes up to one 50 µs poll period — the attacker's real reaction
//! path).

use satin_attack::channel::EvaderChannel;
use satin_attack::rootkit::{deploy_rootkit, RootkitConfig};
use satin_hw::{CoreId, CoreKind};
use satin_scenario::Scenario;
use satin_sim::{SimDuration, SimTime};
use satin_stats::Summary;
use satin_system::SystemBuilder;

/// Measures `Tns_recover` on a core of `kind` of `scenario`'s platform over
/// `rounds` hide cycles. Returns the recovery-latency summary in seconds.
///
/// # Panics
///
/// Panics if the scenario's platform has no core of `kind`.
pub fn measure(scenario: &Scenario, kind: CoreKind, rounds: usize, seed: u64) -> Summary {
    // On Juno the original picks were core 0 (first A57) and core 4 (third
    // A53); preserve them, falling back to the first core of the kind on
    // platforms with fewer cores.
    let nth = match kind {
        CoreKind::A57 => 0,
        CoreKind::A53 => 2,
    };
    let core = CoreId::new(
        scenario
            .platform
            .nth_core_of_kind(kind, nth)
            .or_else(|| scenario.platform.nth_core_of_kind(kind, 0))
            .expect("scenario platform has no core of the requested kind"),
    );
    let mut sys = SystemBuilder::new()
        .seed(seed)
        .scenario(scenario)
        .trace(false)
        .build();
    let channel = EvaderChannel::new();
    let config = RootkitConfig {
        quiet_before_reinstall: SimDuration::from_millis(5),
        // Pin recovery to the measured core so the sample is per-kind.
        multi_core_recovery: false,
    };
    let (_, handle) = deploy_rootkit(&mut sys, core, config, &channel);
    let mut samples = Vec::with_capacity(rounds);
    let mut t = SimTime::from_millis(2);
    for _ in 0..rounds {
        sys.run_until(t);
        assert!(handle.is_active(), "rootkit must be active before a hide");
        let detect_at = sys.now();
        channel.report_detection(detect_at, CoreId::new(0), SimDuration::from_millis(2));
        // Recovery ≤ 6.2 ms, reinstall after 5 ms quiet: 15 ms covers a cycle.
        t += SimDuration::from_millis(15);
        sys.run_until(t);
        let restored = handle.last_restore_at().expect("restore happened");
        samples.push(restored.since(detect_at).as_secs_f64());
        t += SimDuration::from_millis(10);
    }
    Summary::of(&samples).expect("nonempty")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a53_recovery_matches_paper() {
        let s = measure(&Scenario::paper(), CoreKind::A53, 20, 5);
        // Paper: 5.80e-3 average; our path adds ≤ 50µs of poll latency.
        assert!(
            (5.4e-3..6.3e-3).contains(&s.mean),
            "A53 recovery mean {:.3e}",
            s.mean
        );
        assert!(s.max <= 6.3e-3, "max {:.3e}", s.max);
    }

    #[test]
    fn a57_recovers_faster_than_a53() {
        let paper = Scenario::paper();
        let a53 = measure(&paper, CoreKind::A53, 15, 6).mean;
        let a57 = measure(&paper, CoreKind::A57, 15, 7).mean;
        assert!(a57 < a53, "A57 {a57:.3e} vs A53 {a53:.3e}");
        // Paper: A57 average 4.96e-3.
        assert!((4.5e-3..5.5e-3).contains(&a57), "A57 mean {a57:.3e}");
    }
}
