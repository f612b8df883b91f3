//! Analyzed detection campaigns: the §VI-B1 campaign re-run with the
//! happens-before race detector riding the engine's observer seat, plus the
//! Eq.1/Eq.2 invariant audit over the recorded mark log.
//!
//! This is the dynamic half of the `satin-analyze` gate (`repro --analyze`,
//! and `ci.sh`'s invariant step over seeds 7/42/1009): a campaign is a pure
//! function of its seed, so the detector and audit either pass on every
//! machine or fail on every machine. Violations additionally land on the
//! machine's telemetry timeline as `analysis.violation` instants (one per
//! violation, on the offending core's track) so an exported race timeline
//! shows *where* the causal order broke.

use crate::detection::{self, Cell, DetectionConfig, DetectionResult};
use satin_analyze::{attach, audit, InvariantReport, RaceReport};
use satin_attack::race::RaceParams;
use satin_attack::TzEvaderConfig;
use satin_core::SatinConfig;
use satin_system::SystemBuilder;
use satin_telemetry::TrackId;

/// One analyzed campaign: the ordinary detection result plus the race
/// detector's report and the invariant audit.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisRun {
    /// The campaign summary, identical to an unanalyzed run's (the probe is
    /// a pure observer; golden traces pin this).
    pub detection: DetectionResult,
    /// The happens-before detector's findings.
    pub race: RaceReport,
    /// The Eq.1/Eq.2 audit of the recorded mark log.
    pub invariants: InvariantReport,
}

impl AnalysisRun {
    /// `true` when the run has no happens-before violations and every
    /// invariant residual is zero.
    pub fn is_clean(&self) -> bool {
        self.race.is_clean() && self.invariants.is_clean()
    }

    /// Deterministic multi-line rendering for CLI / CI output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "analysis: events={} marks={} violations={}\n",
            self.race.events,
            self.race.marks.len(),
            self.race.violations.len()
        ));
        for (tag, n) in &self.race.mark_counts {
            out.push_str(&format!("  mark {tag}: {n}\n"));
        }
        out.push_str(&self.race.render_violations());
        out.push_str(&self.invariants.to_string());
        out
    }
}

/// Runs the detection campaign with the race detector attached, then audits
/// the mark log. Mirrors [`detection::try_run_scenario`] on the paper
/// scenario exactly — same seed, same schedule, same summary — with the
/// probe observing from the side.
pub fn analyze_campaign(config: DetectionConfig) -> AnalysisRun {
    let mut satin_cfg = SatinConfig::paper();
    satin_cfg.tgoal = config.tgoal;
    let mut sys = SystemBuilder::new()
        .seed(config.seed)
        .trace(config.trace)
        .telemetry(config.telemetry)
        .build();
    let analyze = attach(&mut sys);
    let mut cell = Cell::new(sys, satin_cfg, TzEvaderConfig::paper_default()).expect("SATIN boots");
    cell.run_rounds(config.rounds, config.tgoal)
        .expect("no faults are armed");

    let race = analyze.report();
    // Surface each violation on the telemetry timeline, on the offending
    // core's track, so exported race timelines carry the finding in-place.
    for v in &race.violations {
        let detail = v.to_string();
        cell.sys.telemetry_mut().instant(
            "analysis.violation",
            TrackId(v.core as u32),
            v.at,
            detail,
        );
    }
    let detection = detection::summarize(&cell, config);
    let invariants = audit(&race.marks, &RaceParams::paper_worst_case());
    AnalysisRun {
        detection,
        race,
        invariants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_campaign_is_causally_clean() {
        let run = analyze_campaign(DetectionConfig::quick(42));
        // The tentpole gate: zero happens-before violations, zero residuals.
        assert!(run.race.is_clean(), "{}", run.race.render_violations());
        assert!(run.invariants.is_clean(), "{}", run.invariants);
        // The probe saw the campaign: every round fires and publishes.
        assert!(run.race.events > 0);
        assert!(run.race.mark_counts["secure.fire"] >= run.detection.rounds as u64);
        assert!(run.race.mark_counts["publish"] >= run.detection.rounds as u64);
        // Every fair-race window over the hijacked address was audited.
        assert!(run.invariants.audited_windows >= run.detection.rounds as u64);
        assert!(
            run.invariants.fair_race_windows >= run.detection.area14_attacked_checks,
            "audit found {} fair-race windows, campaign counted {}",
            run.invariants.fair_race_windows,
            run.detection.area14_attacked_checks
        );
    }

    #[test]
    fn probe_does_not_perturb_the_campaign() {
        // The analyzed run's detection summary is bit-identical to the
        // unanalyzed run's: the probe is a pure observer.
        let plain = detection::try_run_scenario(
            &satin_scenario::Scenario::paper(),
            DetectionConfig::sweep(7),
            1,
        )
        .expect("clean campaign");
        let analyzed = analyze_campaign(DetectionConfig::sweep(7));
        assert_eq!(plain, analyzed.detection);
    }

    #[test]
    fn violations_land_on_the_telemetry_timeline() {
        // With telemetry on and a clean run, no analysis.violation instants;
        // the mechanism itself is covered by the analyze crate's unit tests.
        let mut config = DetectionConfig::sweep(1);
        config.telemetry = true;
        let run = analyze_campaign(config);
        assert!(run.is_clean());
    }
}
