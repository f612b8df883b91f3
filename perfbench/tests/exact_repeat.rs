//! The benchmark's deterministic counts repeat exactly, so later changes
//! can compare them exactly; and the traced forms of the ops return what
//! the program's own entry points return.

use satin_obs::json::Json;
use satin_perfbench::{cell_seed, cells, per_layer, END_TO_END};
use satin_scenario::Scenario;

#[test]
fn detect_cell_counts_repeat_exactly_traced_or_not() {
    let scenario = Scenario::paper();
    let seed = cell_seed(1, 0);
    let plain = cells::detect_cell(&scenario, seed).expect("untraced cell");
    let (first, a) = cells::detect_cell_traced(&scenario, seed).expect("traced cell");
    let (second, b) = cells::detect_cell_traced(&scenario, seed).expect("traced cell");

    let digest = cells::detect_digest_text(&plain);
    assert_eq!(digest, cells::detect_digest_text(&first));
    assert_eq!(digest, cells::detect_digest_text(&second));
    assert!(cells::detect_ok(&plain), "{plain:?}");
    // `sim.events`: the observer saw every event the untraced cell ran.
    assert_eq!(a.sim.total_events(), plain.metrics.events_dispatched);
    // `events.*`, `secure.*` counts and `attack.observations`.
    assert_eq!(a.sim.events, b.sim.events);
    assert_eq!(a.sim.queue_depth_max, b.sim.queue_depth_max);
    assert_eq!(a.sim.observations, b.sim.observations);
    assert_eq!(a.secure.bytes_scanned, b.secure.bytes_scanned);
    assert_eq!(a.secure.rounds, b.secure.rounds);
    assert!(a.secure.bytes_scanned > 0 && a.secure.rounds >= 19);
}

#[test]
fn traced_fig7_half_scores_like_run_single() {
    let row = cells::Fig7Row {
        workload: satin_workload::unixbench_suite()[0],
        tasks: 1,
        seed: cell_seed(1, 0),
    };
    for satin in [false, true] {
        let (score, profile) = cells::fig7_half_traced(&row, satin);
        assert_eq!(score, cells::fig7_half(&row, satin));
        assert_eq!(profile.secure.rounds > 0, satin);
    }
}

/// `BENCHMARK.json` at the repository root names exactly the metrics, with
/// the units, that the benchmark prints.
#[test]
fn benchmark_json_matches_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let printed: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("end_to_end"), printed);
    let printed: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), printed);
}
