//! Golden warm-replay test: a cached `satin-serve` job must reproduce the
//! cold run's report **byte-for-byte** without simulating — through the
//! real detection backend, not a stub (the service-level stub test lives in
//! `satin-serve` itself). `ci.sh` proves the same property end-to-end over
//! the Unix socket; this test pins it at the library boundary where a
//! failure names the faulty layer.

use satin_bench::{detection, CampaignRunner};
use satin_obs::{EventStream, ObsEvent};
use satin_scenario::{FaultPlan, Scenario};
use satin_serve::{CellRecord, JobService, ResultStore};
use satin_sim::SimDuration;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "satin-serve-golden-{tag}-{}-{n}.jsonl",
        std::process::id()
    ))
}

/// The scenario `repro submit --faults smoke` sends in quick mode: paper
/// platform, smoke plan, one sweep of the 19 areas.
fn smoke_scenario() -> Scenario {
    let mut sc = Scenario::paper();
    sc.faults = FaultPlan::smoke();
    sc.campaign.rounds = 19;
    sc.campaign.tgoal = SimDuration::from_millis(9_500);
    sc
}

/// The backend `repro serve` installs, on one worker.
fn backend(sc: &Scenario, seeds: &[u64]) -> (Vec<CellRecord>, EventStream) {
    detection::serve_cells(sc, seeds, &CampaignRunner::serial())
}

#[test]
fn warm_replay_matches_cold_run_through_the_real_simulator() {
    let path = scratch("smoke");
    let scenario = smoke_scenario();
    let seeds = [7u64, 42]; // 42 is the seed the smoke plan aborts

    let mut svc = JobService::new(ResultStore::open(&path).expect("open store"));
    let cold = svc
        .run_job(&scenario, &seeds, backend, |_, _| {})
        .expect("cold job");
    assert_eq!((cold.hits, cold.fresh), (0, 2));
    assert!(
        cold.report.contains("FAILED") && cold.report.contains("injected"),
        "seed 42 must salvage as a failed row:\n{}",
        cold.report
    );
    assert!(
        cold.stream
            .events()
            .iter()
            .any(|e| matches!(e, ObsEvent::CampaignStarted { .. })),
        "cold job must carry the backend's campaign events"
    );

    // Warm replay through a reopened store: the backend must never run —
    // it panics if the cache misses — and the report must be the same bytes.
    let mut svc = JobService::new(ResultStore::open(&path).expect("reopen store"));
    let poisoned = |_: &Scenario, _: &[u64]| -> (Vec<CellRecord>, EventStream) {
        panic!("warm replay must not simulate")
    };
    let warm = svc
        .run_job(&scenario, &seeds, poisoned, |_, _| {})
        .expect("warm job");
    assert_eq!(warm.report.as_bytes(), cold.report.as_bytes());
    assert_eq!((warm.hits, warm.fresh), (2, 0));
    let cache_hits = warm
        .stream
        .events()
        .iter()
        .filter(|e| matches!(e, ObsEvent::JobCacheHit { .. }))
        .count();
    assert_eq!(cache_hits, seeds.len());

    // A different fault plan under the same scenario is a different
    // content address — it must miss, not replay smoke's rows.
    let mut chaos = scenario.clone();
    chaos.faults = satin_scenario::builtin_fault_plan("chaos").expect("builtin chaos");
    let misses = AtomicUsize::new(0);
    let counting = |sc: &Scenario, seeds: &[u64]| {
        misses.fetch_add(seeds.len(), Ordering::Relaxed);
        backend(sc, seeds)
    };
    let out = svc
        .run_job(&chaos, &seeds[..1], counting, |_, _| {})
        .expect("chaos job");
    assert_eq!((out.hits, out.fresh), (0, 1));
    assert_eq!(misses.load(Ordering::Relaxed), 1);

    let _ = std::fs::remove_file(&path);
}
