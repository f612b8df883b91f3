//! Every descriptor that parses can be built and run.
//!
//! For every built-in scenario, every numeric field of its descriptor and
//! every edge value (0, 1, equal bounds, reversed bounds, huge), the field
//! is pushed to the edge and the text parsed. `Scenario::validate` is the
//! one gate: whatever it accepts must round-trip through the text form and
//! boot the paper's cell (SATIN against TZ-Evader) for a few simulated
//! milliseconds without a panic. Boot errors are answers, not failures.
//! The space is finite (about 400 descriptors), so it is swept rather than
//! sampled.

use satin::attack::{TzEvader, TzEvaderConfig};
use satin::core::Satin;
use satin::scenario::{builtins, parse_scenario, Scenario};
use satin::sim::{SimDuration, SimTime};
use satin::system::SystemBuilder;

/// How many edge values [`push_to_edge`] knows.
const EDGES: usize = 5;

/// `value` with every number pushed to edge value `edge`, or `None` when
/// `value` is not a list of numbers.
fn push_to_edge(value: &str, edge: usize) -> Option<String> {
    let words: Vec<&str> = value.split_whitespace().collect();
    if words.is_empty() || words.iter().any(|w| w.parse::<f64>().is_err()) {
        return None;
    }
    let huge = |w: &str| {
        if w.parse::<u64>().is_ok() {
            u64::MAX.to_string()
        } else {
            "1e300".to_string()
        }
    };
    let pushed: Vec<String> = match edge {
        0 => words.iter().map(|_| "0".to_string()).collect(),
        1 => words.iter().map(|_| "1".to_string()).collect(),
        2 => words.iter().map(|_| words[0].to_string()).collect(),
        3 => words.iter().rev().map(|w| w.to_string()).collect(),
        _ => words.iter().map(|w| huge(w)).collect(),
    };
    Some(pushed.join(" "))
}

/// Boots the campaign cell `scenario` describes and runs it for a few
/// simulated milliseconds: the platform and fault plan from the scenario,
/// SATIN from its defense profile (at the campaign's `Tgoal` when
/// `campaign_goal`, as campaigns run it), TZ-Evader from its attack profile.
fn boot_and_run(scenario: &Scenario, campaign_goal: bool) {
    let mut sys = SystemBuilder::new()
        .seed(7)
        .scenario(scenario)
        .trace(false)
        .build();
    let mut defense = scenario.defense;
    if campaign_goal {
        defense.tgoal = scenario.campaign.tgoal;
    }
    let (satin, _handle) = Satin::new(defense);
    if sys.try_install_secure_service(satin).is_err() {
        return;
    }
    TzEvader::deploy(&mut sys, TzEvaderConfig::from_profile(&scenario.attack));
    sys.run_until(SimTime::ZERO + SimDuration::from_millis(3));
    let _ = sys.check_fault_abort();
}

#[test]
fn every_descriptor_that_parses_runs() {
    let mut booted = 0;
    for base in builtins() {
        let text = base.to_text();
        let lines: Vec<&str> = text.lines().collect();
        let mut section = "";
        for (at, line) in lines.iter().enumerate() {
            if line.starts_with('[') {
                section = line;
            }
            let Some((key, value)) = line.split_once(" = ") else {
                continue;
            };
            for edge in 0..EDGES {
                let Some(edged) = push_to_edge(value, edge).filter(|v| v != value) else {
                    continue;
                };
                let pushed = format!("{key} = {edged}");
                let mut mutated = lines.clone();
                mutated[at] = &pushed;
                let Ok(scenario) = parse_scenario(&mutated.join("\n")) else {
                    continue;
                };
                let again = parse_scenario(&scenario.to_text()).ok();
                assert_eq!(
                    again.as_ref(),
                    Some(&scenario),
                    "{}: `{pushed}` did not round-trip",
                    base.name
                );
                boot_and_run(&scenario, section == "[campaign]");
                booted += 1;
            }
        }
    }
    // The sweep must reach the boot path, not just the parser's errors.
    assert!(booted > 100, "only {booted} edge descriptors parsed");
}
