//! Built-in scenario registry.
//!
//! `juno-r1` is the paper's exact evaluation setup and the default
//! everywhere; the other built-ins vary exactly one axis each so grid
//! sweeps read as controlled experiments.

use crate::faults::FaultPlan;
use crate::scenario::{
    AreaPolicy, AttackProfile, CampaignProfile, CorePolicy, ProberKind, SatinConfig, Scenario,
};
use satin_hash::HashAlgorithm;
use satin_hw::profile::PlatformSpec;
use satin_hw::timing::ScanStrategy;
use satin_hw::CoreKind;
use satin_sim::SimDuration;

/// The paper's attacker: KProber-II at 200 µs with the 1.8 ms learned
/// threshold, recovery pinned to `recovery_core`.
fn paper_attack(recovery_core: usize) -> AttackProfile {
    AttackProfile {
        prober: ProberKind::KProberII,
        sleep: SimDuration::from_micros(200),
        threshold: Some(SimDuration::from_secs_f64(1.8e-3)),
        recovery_core,
    }
}

impl SatinConfig {
    /// The paper's evaluated defender: `Tgoal = 152 s` (tp = 8 s over 19
    /// areas), djb2, direct hash, randomized wake on all cores, segment
    /// areas, safety enforced against `Tns_delay = Tns_sched +
    /// Tns_threshold`.
    pub fn paper() -> Self {
        SatinConfig {
            tgoal: SimDuration::from_secs(152),
            algorithm: HashAlgorithm::Djb2,
            strategy: ScanStrategy::DirectHash,
            randomize_wake: true,
            core_policy: CorePolicy::AllRandom,
            area_policy: AreaPolicy::Segments,
            tns_delay_secs: 2e-4 + 1.8e-3,
            enforce_safety: true,
            remediate: false,
        }
    }
}

/// The quick campaign shape: 57 rounds (3 sweeps of the 19 areas) at the
/// compressed `Tgoal = 19 s`, 3 seeds per scenario.
fn quick_campaign() -> CampaignProfile {
    CampaignProfile {
        rounds: 57,
        tgoal: SimDuration::from_secs(19),
        seeds: 3,
    }
}

/// The paper's scenario: Juno r1, TZ-Evader's strongest configuration,
/// SATIN's evaluated configuration. Every paper default in the workspace
/// (`SatinConfig::paper`, `TzEvaderConfig::paper_default`,
/// `TimingModel::paper_calibrated`, …) reads its numbers from here.
pub(crate) fn juno_r1() -> Scenario {
    Scenario {
        name: "juno-r1".to_string(),
        summary: "the paper's board: 2xA57+4xA53, KProber-II vs paper SATIN".to_string(),
        platform: PlatformSpec::juno_r1(),
        attack: paper_attack(3),
        defense: SatinConfig::paper(),
        campaign: quick_campaign(),
        faults: FaultPlan::default(),
    }
}

/// A platform variant of `juno-r1`: same attacker/defense, new silicon.
fn platform_variant(
    name: &str,
    summary: &str,
    cores: Vec<CoreKind>,
    recovery_core: usize,
) -> Scenario {
    let mut sc = juno_r1();
    sc.name = name.to_string();
    sc.summary = summary.to_string();
    sc.platform.name = name.to_string();
    sc.platform.cores = cores;
    sc.attack.recovery_core = recovery_core;
    sc
}

/// All built-in scenarios, `juno-r1` first.
pub fn builtins() -> Vec<Scenario> {
    let mut slow = platform_variant(
        "slow-switch",
        "Juno cores but a 50-100 us world switch (TEE cost variance study)",
        PlatformSpec::juno_r1().cores,
        3,
    );
    // World-switch costs vary by orders of magnitude across TrustZone
    // parts (Amacher & Schiavoni); 50–100 µs still keeps Eq.2's safe area
    // bound (~1.2 MB) above the largest kernel segment, so SATIN boots.
    slow.platform.ts_switch_secs = (5.0e-5, 1.0e-4);
    vec![
        juno_r1(),
        platform_variant(
            "all-big",
            "4 A57 cores only: the fastest defender and the fastest evader",
            vec![CoreKind::A57; 4],
            3,
        ),
        platform_variant(
            "all-little",
            "4 A53 cores only: slowest scans, longest race windows",
            vec![CoreKind::A53; 4],
            3,
        ),
        platform_variant(
            "big-little-4x4",
            "hypothetical 4xA57+4xA53 part; recovery on the last LITTLE core",
            {
                let mut cores = vec![CoreKind::A57; 4];
                cores.extend(vec![CoreKind::A53; 4]);
                cores
            },
            7,
        ),
        slow,
    ]
}

/// Looks up a built-in scenario by name.
pub fn builtin(name: &str) -> Option<Scenario> {
    builtins().into_iter().find(|s| s.name == name)
}

impl Scenario {
    /// The default scenario (`juno-r1`): the paper's exact setup.
    pub fn paper() -> Self {
        juno_r1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_are_valid_and_uniquely_named() {
        let all = builtins();
        assert!(all.len() >= 5, "need juno + at least 4 variants");
        for sc in &all {
            sc.validate().unwrap_or_else(|e| panic!("{}: {e}", sc.name));
            assert_eq!(sc.platform.name, sc.name);
        }
        let mut names: Vec<&str> = all.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate builtin names");
        assert_eq!(all[0].name, "juno-r1");
    }

    #[test]
    fn cell_label_is_scenario_qualified() {
        assert_eq!(Scenario::paper().cell_label(42), "juno-r1/s42");
        let little = builtin("all-little").expect("registered");
        assert_eq!(little.cell_label(1009), "all-little/s1009");
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(builtin("juno-r1").map(|s| s.platform.cores.len()), Some(6));
        assert_eq!(
            builtin("big-little-4x4").map(|s| s.platform.cores.len()),
            Some(8)
        );
        assert!(builtin("no-such-board").is_none());
    }

    #[test]
    fn variants_differ_only_where_intended() {
        let juno = juno_r1();
        let little = builtin("all-little").expect("registered");
        assert_eq!(little.defense, juno.defense);
        assert_eq!(little.campaign, juno.campaign);
        assert_eq!(little.attack.sleep, juno.attack.sleep);
        assert_eq!(little.platform.cores, vec![CoreKind::A53; 4]);

        let slow = builtin("slow-switch").expect("registered");
        assert_eq!(slow.platform.cores, juno.platform.cores);
        assert_eq!(slow.platform.ts_switch_secs, (5.0e-5, 1.0e-4));
    }

    #[test]
    fn paper_scenario_matches_paper_constants() {
        let sc = Scenario::paper();
        assert_eq!(sc.defense.tgoal, SimDuration::from_secs(152));
        assert_eq!(sc.attack.sleep, SimDuration::from_micros(200));
        assert_eq!(
            sc.attack.threshold,
            Some(SimDuration::from_secs_f64(1.8e-3))
        );
        assert_eq!(sc.attack.recovery_core, 3);
        assert!((sc.defense.tns_delay_secs - 2e-3).abs() < 1e-12);
    }
}
