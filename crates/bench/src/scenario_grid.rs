//! Grid sweeps: the same detection campaign fanned over many scenarios.
//!
//! A [`ScenarioGrid`] takes a list of scenarios and a base seed, runs each
//! scenario's campaign shape (`campaign.rounds` rounds at `campaign.tgoal`,
//! `campaign.seeds` consecutive seeds) through the shared
//! [`CampaignRunner`], and aggregates the per-scenario detection/evasion
//! statistics into one comparative report. The flattened cartesian product
//! of scenarios × seeds is what the runner fans out, so a slow scenario
//! doesn't serialize the sweep — and because the runner returns results in
//! input order, the report is identical for any worker count.

use crate::detection::{self, DetectionAggregate, DetectionConfig};
use crate::runner::CampaignRunner;
use satin_scenario::Scenario;
use std::fmt;

/// A sweep: scenarios × seeds through one runner.
#[derive(Debug, Clone)]
pub struct ScenarioGrid {
    /// The scenarios to sweep, in report order.
    pub scenarios: Vec<Scenario>,
    /// Base master seed; scenario campaigns use `base_seed`,
    /// `base_seed + 1`, … per their `campaign.seeds` count.
    pub base_seed: u64,
}

/// One scenario's aggregated campaign results.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ScenarioOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Compact topology label (e.g. `2xA57+4xA53`).
    pub topology: String,
    /// Seeds run.
    pub seeds: usize,
    /// Aggregate detection/evasion statistics across those seeds.
    pub aggregate: DetectionAggregate,
}

impl ScenarioOutcome {
    /// Attacked checks the defender lost (the evader's score).
    pub(crate) fn evasions(&self) -> u64 {
        self.aggregate.area14_attacked_checks - self.aggregate.area14_detections
    }
}

/// The comparative report a grid sweep produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioGridReport {
    /// Base seed the sweep used.
    pub base_seed: u64,
    /// Per-scenario outcomes, in sweep order.
    pub(crate) outcomes: Vec<ScenarioOutcome>,
}

impl ScenarioGrid {
    /// A grid over `scenarios` starting at `base_seed`.
    pub fn new(scenarios: Vec<Scenario>, base_seed: u64) -> Self {
        ScenarioGrid {
            scenarios,
            base_seed,
        }
    }

    /// A grid over every built-in scenario.
    pub fn builtins(base_seed: u64) -> Self {
        ScenarioGrid::new(satin_scenario::builtins(), base_seed)
    }

    /// Quick mode: every campaign shrinks to one sweep of the 19 areas
    /// ([`DetectionConfig::sweep`]) over 2 seeds.
    pub fn quick(mut self) -> Self {
        let sweep = DetectionConfig::sweep(0);
        for sc in &mut self.scenarios {
            sc.campaign.rounds = sweep.rounds;
            sc.campaign.tgoal = sweep.tgoal;
            sc.campaign.seeds = 2;
        }
        self
    }

    /// Runs the sweep. The cartesian product of scenarios × seeds goes
    /// through `runner` as one flat work list; results are regrouped per
    /// scenario afterwards, in input order.
    pub fn run(&self, runner: &CampaignRunner) -> ScenarioGridReport {
        let jobs: Vec<(usize, u64)> = self
            .scenarios
            .iter()
            .enumerate()
            .flat_map(|(idx, sc)| {
                (0..sc.campaign.seeds as u64).map(move |s| (idx, self.base_seed + s))
            })
            .collect();
        let results = runner.run(&jobs, |_, _, &(idx, seed)| {
            let sc = &self.scenarios[idx];
            let config = DetectionConfig {
                seed,
                ..DetectionConfig::for_scenario(sc)
            };
            // The grid has no salvage path: `repro grid` strips fault plans.
            detection::try_run_scenario(sc, config, 1).expect("grid campaign failed")
        });
        let mut outcomes = Vec::with_capacity(self.scenarios.len());
        let mut cursor = 0usize;
        for sc in &self.scenarios {
            let n = sc.campaign.seeds;
            let slice = &results[cursor..cursor + n];
            cursor += n;
            outcomes.push(ScenarioOutcome {
                scenario: sc.name.clone(),
                topology: sc.platform.topology_label(),
                seeds: n,
                aggregate: DetectionAggregate::of(slice),
            });
        }
        ScenarioGridReport {
            base_seed: self.base_seed,
            outcomes,
        }
    }
}

impl fmt::Display for ScenarioGridReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scenario grid — base seed {} — detection vs evasion per scenario",
            self.base_seed
        )?;
        writeln!(
            f,
            "{:<16} {:<12} {:>5} {:>6} {:>8} {:>8} {:>7} {:>7} {:>6} {:>9}",
            "scenario",
            "topology",
            "seeds",
            "rounds",
            "attacked",
            "detected",
            "evaded",
            "rate",
            "early",
            "falsealarm"
        )?;
        for o in &self.outcomes {
            let a = &o.aggregate;
            writeln!(
                f,
                "{:<16} {:<12} {:>5} {:>6} {:>8} {:>8} {:>7} {:>6.1}% {:>6} {:>9}",
                o.scenario,
                o.topology,
                o.seeds,
                a.rounds,
                a.area14_attacked_checks,
                a.area14_detections,
                o.evasions(),
                100.0 * a.detection_rate(),
                a.area14_early_warning_checks,
                a.other_area_alarms
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_grid_runs_all_scenarios_deterministically() {
        let grid = ScenarioGrid::builtins(42).quick();
        let serial = grid.run(&CampaignRunner::serial());
        let parallel = grid.run(&CampaignRunner::new(2));
        // Campaigns are pure functions of (scenario, seed) and the runner
        // preserves input order, so the report is worker-count invariant.
        assert_eq!(serial, parallel);
        assert!(serial.outcomes.len() >= 5);
        assert_eq!(serial.outcomes[0].scenario, "juno-r1");
        for o in &serial.outcomes {
            assert_eq!(o.seeds, 2, "{}", o.scenario);
            assert!(
                o.aggregate.rounds >= 2 * 19,
                "{}: {} rounds",
                o.scenario,
                o.aggregate.rounds
            );
            // SATIN's safety bound holds on every built-in platform, so no
            // in-round race is ever lost and clean areas never alarm.
            assert_eq!(o.evasions(), 0, "{} lost a race", o.scenario);
            assert_eq!(o.aggregate.other_area_alarms, 0, "{}", o.scenario);
        }
    }

    #[test]
    fn report_renders_one_row_per_scenario() {
        let grid = ScenarioGrid::new(vec![satin_scenario::Scenario::paper()], 7).quick();
        let report = grid.run(&CampaignRunner::serial());
        let text = report.to_string();
        assert!(text.contains("base seed 7"), "{text}");
        assert!(text.contains("juno-r1"), "{text}");
        assert!(text.contains("2xA57+4xA53"), "{text}");
    }
}
