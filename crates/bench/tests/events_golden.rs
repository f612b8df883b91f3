//! Golden event-stream snapshot: the canonical JSONL campaign stream for
//! the ISSUE's acceptance campaign — seeds {7, 42, 1009} under the
//! built-in `smoke` fault plan — is pinned byte for byte, and asserted
//! identical for a serial and a 4-worker runner, so the observability
//! layer can never introduce a `--jobs` dependence into the stream.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p satin-bench --test events_golden
//! ```

use satin_bench::detection::{self, DetectionConfig};
use satin_bench::CampaignRunner;
use satin_obs::CampaignObs;
use satin_scenario::{FaultPlan, Scenario};
use std::path::PathBuf;

const SEEDS: [u64; 3] = [7, 42, 1009];

/// One sweep of the 19 areas — long enough that the smoke plan's 3 s
/// publication drop and 6 s abort both land (same shape as fault_golden).
fn config() -> DetectionConfig {
    DetectionConfig::sweep(0)
}

/// Runs the observed acceptance campaign and returns the canonical stream
/// serialized as JSONL.
fn stream_jsonl(runner: &CampaignRunner) -> String {
    let mut sc = Scenario::paper();
    sc.faults = FaultPlan::smoke();
    let obs = CampaignObs::new("faults/smoke");
    let (_outcomes, stream) =
        detection::run_many_faulted_observed(&sc, config(), &SEEDS, runner, &obs);
    stream.to_jsonl()
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
fn event_stream_matches_snapshot_and_is_jobs_invariant() {
    let serial = stream_jsonl(&CampaignRunner::serial());
    let parallel = stream_jsonl(&CampaignRunner::new(4));
    assert_eq!(
        serial, parallel,
        "canonical event stream depends on worker count"
    );
    check("events_smoke.jsonl.snap", &serial);
}

#[test]
fn event_stream_is_valid_versioned_jsonl() {
    let jsonl = stream_jsonl(&CampaignRunner::serial());
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(lines.len() >= 2 + SEEDS.len() * 2, "stream too short");
    for (i, line) in lines.iter().enumerate() {
        let doc = satin_obs::json::Json::parse(line)
            .unwrap_or_else(|e| panic!("line {i} is not valid JSON ({e}): {line}"));
        assert_eq!(
            doc.get("v").and_then(satin_obs::json::Json::as_u64),
            Some(u64::from(satin_obs::EVENT_SCHEMA_VERSION)),
            "line {i} schema version"
        );
        assert_eq!(
            doc.get("seq").and_then(satin_obs::json::Json::as_u64),
            Some(i as u64),
            "line {i} gapless seq"
        );
        assert!(
            doc.get("event").is_some(),
            "line {i} missing event kind: {line}"
        );
    }
    assert!(lines[0].contains("\"event\":\"campaign.started\""));
    assert!(lines
        .last()
        .expect("nonempty")
        .contains("\"event\":\"campaign.finished\""));
}
