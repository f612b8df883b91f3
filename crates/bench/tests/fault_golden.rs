//! Golden fault-campaign snapshot: the ISSUE's acceptance campaign — seeds
//! {7, 42, 1009} under the built-in `smoke` plan (one dropped publication
//! for every seed, a worker abort that outlives its retries on seed 42) —
//! is pinned byte for byte, and the rendering is asserted identical for a
//! serial and a 4-worker runner, so fault injection can never introduce a
//! `--jobs` dependence or a panic.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p satin-bench --test fault_golden
//! ```

use satin_bench::detection::{self, DetectionConfig, DetectionResult};
use satin_bench::{CampaignRunner, SeedOutcome};
use satin_obs::CampaignObs;
use satin_scenario::{FaultPlan, Scenario};
use std::fmt::Write as _;
use std::path::PathBuf;

const SEEDS: [u64; 3] = [7, 42, 1009];

/// One sweep of the 19 areas, like the other golden tests — long enough
/// that the smoke plan's 3 s publication drop and 6 s abort both land.
fn config() -> DetectionConfig {
    DetectionConfig::sweep(0)
}

/// Runs the acceptance campaign; its event stream is pinned by
/// `events_golden`.
fn outcomes(runner: &CampaignRunner) -> Vec<SeedOutcome<DetectionResult>> {
    let mut sc = Scenario::paper();
    sc.faults = FaultPlan::smoke();
    let obs = CampaignObs::new("faults/smoke");
    detection::run_many_faulted_observed(&sc, config(), &SEEDS, runner, &obs).0
}

/// Renders every outcome — failed seeds included — as a deterministic text
/// block.
fn render(outcomes: &[SeedOutcome<DetectionResult>]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "# fault golden, paper scenario + smoke plan, seeds {SEEDS:?}"
    )
    .unwrap();
    for o in outcomes {
        match o.value() {
            Some(r) => writeln!(
                out,
                "seed {} ok attempts {} rounds {} detections {} faults {}",
                o.seed(),
                o.attempts(),
                r.rounds,
                r.area14_detections,
                r.metrics.faults_injected()
            )
            .unwrap(),
            None => writeln!(
                out,
                "seed {} FAILED attempts {} error {}",
                o.seed(),
                o.attempts(),
                o.error().expect("failed outcome has an error")
            )
            .unwrap(),
        }
    }
    out
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
fn fault_campaign_matches_snapshot_and_is_jobs_invariant() {
    let serial = render(&outcomes(&CampaignRunner::serial()));
    let parallel = render(&outcomes(&CampaignRunner::new(4)));
    assert_eq!(serial, parallel, "fault campaign depends on worker count");
    check("fault_campaign_smoke.snap", &serial);
}

#[test]
fn abort_seed_salvages_as_failed_row() {
    let outcomes = outcomes(&CampaignRunner::serial());
    assert_eq!(outcomes.len(), SEEDS.len());
    let failed: Vec<_> = outcomes.iter().filter(|o| o.is_failed()).collect();
    assert_eq!(failed.len(), 1, "exactly the abort seed fails");
    assert_eq!(failed[0].seed(), 42);
    // The smoke plan's abort outlives max_attempts, so both tries ran.
    assert_eq!(failed[0].attempts(), 2);
    assert!(
        failed[0].error().expect("error").contains("worker abort"),
        "error should name the injected fault: {:?}",
        failed[0].error()
    );
    // The surviving seeds still saw their dropped publication.
    for o in outcomes.iter().filter(|o| !o.is_failed()) {
        let r = o.value().expect("ok outcome");
        assert_eq!(r.metrics.fault_publications_dropped, 1, "seed {}", o.seed());
    }
}
