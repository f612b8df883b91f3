//! Golden scenario snapshots: a non-Juno built-in scenario's detection
//! campaign and the built-in grid sweep's comparative report are pinned
//! byte for byte, so the scenario layer cannot silently drift.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p satin-bench --test scenario_golden
//! ```

use satin_bench::detection::{self, DetectionConfig};
use satin_bench::{CampaignRunner, ScenarioGrid};
use std::fmt::Write as _;
use std::path::PathBuf;

const SEED: u64 = 42;

/// One quick campaign (one sweep of the 19 areas) on the all-LITTLE
/// built-in: a platform the paper never ran, summarized as counts.
fn summarize_all_little() -> String {
    let sc = satin_scenario::builtin("all-little").expect("all-little is a built-in");
    let r =
        detection::try_run_scenario(&sc, DetectionConfig::sweep(SEED), 1).expect("clean campaign");
    let mut out = String::new();
    writeln!(out, "# scenario golden, all-little, seed {SEED}").unwrap();
    writeln!(out, "topology {}", sc.platform.topology_label()).unwrap();
    writeln!(out, "rounds {}", r.rounds).unwrap();
    writeln!(out, "area14_attacked_checks {}", r.area14_attacked_checks).unwrap();
    writeln!(out, "area14_detections {}", r.area14_detections).unwrap();
    writeln!(
        out,
        "area14_early_warning_checks {}",
        r.area14_early_warning_checks
    )
    .unwrap();
    writeln!(out, "prober_sessions {}", r.prober_sessions).unwrap();
    writeln!(out, "other_area_alarms {}", r.other_area_alarms).unwrap();
    out
}

/// The comparative report of the built-in grid, shrunk exactly like
/// `repro grid` quick mode: one sweep per seed, two seeds per scenario.
fn grid_report() -> String {
    let grid = ScenarioGrid::builtins(SEED).quick();
    grid.run(&CampaignRunner::serial()).to_string()
}

fn snapshot_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check(name: &str, got: &str) {
    let path = snapshot_path(name);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("snapshot dir")).expect("mkdir");
        std::fs::write(&path, got).expect("write snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); run with GOLDEN_BLESS=1",
            path.display()
        )
    });
    assert_eq!(got, want, "{name} diverged from its snapshot");
}

#[test]
fn all_little_detection_matches_snapshot() {
    check("scenario_all_little_seed_42.snap", &summarize_all_little());
}

#[test]
fn builtin_grid_report_matches_snapshot() {
    check("scenario_grid_seed_42.snap", &grid_report());
}
