//! Golden telemetry snapshots: the span taxonomy of a traced
//! SATIN-vs-TZ-Evader race is pinned per seed, and the merged
//! `--metrics-json` aggregate is byte-identical for any job count.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p satin-bench --test telemetry_golden
//! ```

use satin_bench::detection::{self, DetectionConfig};
use satin_bench::{run_traced_race_scenario, CampaignRunner, MetricsReport, TelemetryReport};
use satin_obs::CampaignObs;
use satin_scenario::Scenario;
use satin_sim::SimDuration;
use std::fmt::Write as _;
use std::path::PathBuf;

const SEEDS: [u64; 3] = [7, 42, 1009];

/// The same race `repro --trace-out` runs in quick mode (8 simulated
/// seconds), summarized as counts only — durations are pinned by the
/// machine-level golden traces, so this snapshot stays readable.
fn summarize(seed: u64) -> String {
    let horizon = SimDuration::from_secs(8);
    let race = run_traced_race_scenario(&Scenario::paper(), seed, horizon);
    let tl = &race.timeline;
    let mut out = String::new();
    writeln!(out, "# telemetry golden, seed {seed}").unwrap();
    writeln!(out, "horizon_ns {}", horizon.as_nanos()).unwrap();
    writeln!(out, "spans {}", tl.len()).unwrap();
    writeln!(out, "instants {}", tl.instants().len()).unwrap();
    writeln!(out, "open {}", tl.open_count()).unwrap();
    writeln!(out, "dropped {}", tl.dropped()).unwrap();
    writeln!(out, "publications {}", race.metrics.publications).unwrap();
    writeln!(out, "alarms {}", race.metrics.alarms).unwrap();
    for (name, n) in tl.span_counts() {
        writeln!(out, "span.{name} {n}").unwrap();
    }
    writeln!(
        out,
        "hist.publication_delay.count {}",
        race.metrics.publication_delay_hist.count()
    )
    .unwrap();
    writeln!(
        out,
        "hist.hash_window.count {}",
        race.metrics.hash_window_hist.count()
    )
    .unwrap();
    writeln!(
        out,
        "hist.detection_latency.count {}",
        race.metrics.detection_latency_hist.count()
    )
    .unwrap();
    out
}

fn snapshot_path(seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("telemetry_seed_{seed}.snap"))
}

#[test]
fn telemetry_span_counts_match_snapshots() {
    let bless = std::env::var_os("GOLDEN_BLESS").is_some();
    for seed in SEEDS {
        let got = summarize(seed);
        let path = snapshot_path(seed);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing snapshot {} ({e}); run with GOLDEN_BLESS=1",
                path.display()
            )
        });
        assert_eq!(got, want, "seed {seed}: telemetry summary diverged");
    }
}

#[test]
fn chrome_trace_covers_every_session() {
    let race = run_traced_race_scenario(&Scenario::paper(), 42, SimDuration::from_secs(8));
    let json = race.chrome_trace();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.trim_end().ends_with("]}"));
    // One complete "X" event per session root — every introspection session
    // is on the exported timeline.
    let sessions = json.matches("\"name\":\"secure.session\"").count() as u64;
    assert_eq!(sessions, race.metrics.publications);
    assert_eq!(race.timeline.open_count(), 0);
}

#[test]
fn metrics_json_is_identical_for_any_job_count() {
    let base = DetectionConfig {
        telemetry: true,
        ..DetectionConfig::sweep(0)
    };
    let seeds = [42u64, 43];
    let report_for = |runner: &CampaignRunner| {
        let obs = CampaignObs::new("telemetry");
        let (outcomes, _) =
            detection::run_many_faulted_observed(&Scenario::paper(), base, &seeds, runner, &obs);
        let reports: Vec<MetricsReport> = outcomes
            .iter()
            .map(|o| o.value().expect("clean campaign").metrics.clone())
            .collect();
        TelemetryReport::of(&reports).to_json()
    };
    let serial = report_for(&CampaignRunner::serial());
    let jobs4 = report_for(&CampaignRunner::new(4));
    assert_eq!(serial, jobs4, "--jobs 1 vs --jobs 4 diverged");
}
