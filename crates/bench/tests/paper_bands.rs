//! Paper-conformance bands: one row per headline quantity of EXPERIMENTS.md,
//! each checked against an explicit band around the SATIN paper's value.
//!
//! Every band is written from the paper's number and EXPERIMENTS.md's
//! "Reproduction deviations" list, never from this repository's output, so
//! it holds the reproduction to the paper even after a change that
//! regenerates every golden trace. The runs use `repro`'s quick shapes at
//! the default seed, except Table II (see its test).
//!
//! Where a deviation gives no tolerance, a calibrated input (deviation 1:
//! per-byte rates, `Ts_switch`, `Tns_recover`) must land inside the paper's
//! own measured envelope, and an emergent average is read as "within ~20%"
//! (deviation 2), i.e. within a factor of 1.25 either way.

use satin_bench::{detection, fig7, recover, switch, table1, table2, CampaignRunner, DEFAULT_SEED};
use satin_hw::timing::ScanStrategy;
use satin_hw::CoreKind;
use satin_mem::PAPER_KERNEL_SIZE;
use satin_scenario::Scenario;

/// "Within ~20%": a factor of 1.25 either way.
const WITHIN_20_PERCENT: f64 = 1.25;

/// Asserts `measured` is within a factor `factor` of `paper`, either way.
fn assert_within_factor(what: &str, measured: f64, paper: f64, factor: f64) {
    let ratio = measured / paper;
    assert!(
        (1.0 / factor..=factor).contains(&ratio),
        "{what}: measured {measured:.3e} vs paper {paper:.3e} (ratio {ratio:.3}, band ×{factor}^±1)"
    );
}

/// Asserts `lo <= measured <= hi`.
fn assert_in(what: &str, measured: f64, lo: f64, hi: f64) {
    assert!(
        (lo..=hi).contains(&measured),
        "{what}: measured {measured:.3e} outside [{lo:.3e}, {hi:.3e}]"
    );
}

/// Table I: each cell's average per-byte time lies inside the paper's
/// measured [min, max] for that cell; A57 is faster than A53 by the paper's
/// ~1.6× (within ~20%); direct hashing uses no secure memory and the
/// snapshot one kernel copy.
#[test]
fn table1_per_byte_rates() {
    // Paper Table I: (kind, strategy, avg, min, max), seconds per byte.
    let paper = [
        (
            CoreKind::A53,
            ScanStrategy::DirectHash,
            1.07e-8,
            9.23e-9,
            1.14e-8,
        ),
        (
            CoreKind::A53,
            ScanStrategy::SnapshotThenHash,
            1.08e-8,
            9.24e-9,
            1.57e-8,
        ),
        (
            CoreKind::A57,
            ScanStrategy::DirectHash,
            6.71e-9,
            6.67e-9,
            7.50e-9,
        ),
        (
            CoreKind::A57,
            ScanStrategy::SnapshotThenHash,
            6.75e-9,
            6.67e-9,
            7.83e-9,
        ),
    ];
    let rows = table1::run(&Scenario::paper(), 10, DEFAULT_SEED);
    assert_eq!(rows.len(), paper.len());
    let mean_of = |kind, strategy| {
        rows.iter()
            .find(|r| r.kind == kind && r.strategy == strategy)
            .expect("row present")
            .per_byte
            .mean
    };
    for (kind, strategy, _, min, max) in paper {
        assert_in(
            &format!("Table I {kind}-{strategy} avg"),
            mean_of(kind, strategy),
            min,
            max,
        );
    }
    let speedup = mean_of(CoreKind::A53, ScanStrategy::DirectHash)
        / mean_of(CoreKind::A57, ScanStrategy::DirectHash);
    assert_within_factor(
        "A53/A57 hash speedup",
        speedup,
        1.07e-8 / 6.71e-9,
        WITHIN_20_PERCENT,
    );
    for r in &rows {
        let want = match r.strategy {
            ScanStrategy::DirectHash => 0,
            ScanStrategy::SnapshotThenHash => PAPER_KERNEL_SIZE,
        };
        assert_eq!(r.secure_memory_bytes, want, "{}-{}", r.kind, r.strategy);
    }
}

/// §IV-B1: `Ts_switch` lies in the paper's 2.38–3.60 µs on both kinds.
#[test]
fn ts_switch_envelope() {
    let scenario = Scenario::paper();
    for kind in [CoreKind::A53, CoreKind::A57] {
        let s = switch::measure(&scenario, kind, 30, DEFAULT_SEED);
        for (what, v) in [("min", s.min), ("mean", s.mean), ("max", s.max)] {
            assert_in(&format!("Ts_switch {kind} {what}"), v, 2.38e-6, 3.60e-6);
        }
    }
}

/// §IV-B2: `Tns_recover` averages the paper's 5.80 ms (A53) and 4.96 ms
/// (A57) within ~20%, and A57 recovers faster.
#[test]
fn tns_recover_per_kind() {
    let scenario = Scenario::paper();
    let a53 = recover::measure(&scenario, CoreKind::A53, 20, DEFAULT_SEED).mean;
    let a57 = recover::measure(&scenario, CoreKind::A57, 20, DEFAULT_SEED.wrapping_add(1)).mean;
    assert_within_factor("Tns_recover A53", a53, 5.80e-3, WITHIN_20_PERCENT);
    assert_within_factor("Tns_recover A57", a57, 4.96e-3, WITHIN_20_PERCENT);
    assert!(a57 < a53, "A57 {a57:.3e} not faster than A53 {a53:.3e}");
}

/// Table II: averages within ~20% of the paper (deviation 2); minima no
/// lower than one 200 µs reporting cadence (deviation 2's floor); maxima
/// under the paper's ~1.8 ms ceiling. Runs the paper's 50 rounds per period,
/// the shape deviation 2 was stated for: the average of `repro`'s quick 8
/// rounds is too noisy for a 20% band.
#[test]
fn table2_thresholds() {
    let paper_avg = [(8, 2.61e-4), (16, 3.54e-4), (30, 4.21e-4)];
    let periods: Vec<u64> = paper_avg.iter().map(|(p, _)| *p).collect();
    let rows = table2::run(&periods, 50, DEFAULT_SEED, &CampaignRunner::new(2));
    for ((period, avg), row) in paper_avg.iter().zip(&rows) {
        assert_eq!(row.period_secs, *period);
        let t = &row.threshold;
        assert_within_factor(
            &format!("Table II {period} s avg"),
            t.mean,
            *avg,
            WITHIN_20_PERCENT,
        );
        assert!(
            t.min >= 2.0e-4,
            "Table II {period} s min {:.3e} below one cadence",
            t.min
        );
        assert!(
            t.max < 1.8e-3,
            "Table II {period} s max {:.3e} above the ceiling",
            t.max
        );
    }
}

/// §IV-B2: probing one fixed core gives thresholds at least 2× tighter
/// than all-core probing (paper ~4×; deviation 3 records ~2.3×).
#[test]
fn single_core_probing_advantage() {
    let (all, single) = table2::single_vs_all(8, 6, DEFAULT_SEED);
    let advantage = all / single;
    assert!(
        advantage >= 2.0,
        "single-core advantage {advantage:.2}× (all {all:.3e}, single {single:.3e})"
    );
}

/// §VI-B1: every fair race on the attacked area is detected, there is at
/// least one, and no other area raises an alarm (paper: 10/10, 0 false
/// alarms).
#[test]
fn detection_campaign_catches_every_attacked_check() {
    let config = detection::DetectionConfig::quick(DEFAULT_SEED);
    let r = detection::try_run_scenario(&Scenario::paper(), config, 0).expect("cell runs");
    assert_eq!(r.rounds, config.rounds);
    assert!(r.area14_attacked_checks >= 1, "no attacked area-14 check");
    assert_eq!(
        r.area14_detections, r.area14_attacked_checks,
        "SATIN lost a race: {}/{}",
        r.area14_detections, r.area14_attacked_checks
    );
    assert_eq!(r.other_area_alarms, 0, "false alarms outside area 14");
}

/// Figure 7: 1-task and 6-task means near the paper's 0.711% and 0.848%
/// (deviation 4: one global calibration sets the level, so a factor 1.5
/// either way); 6-task above 1-task; pipe-based context switching and the
/// 256 B file copy the two worst; the compute kernels near zero (under a
/// tenth of the worst workload).
#[test]
fn figure7_overheads() {
    let mut means = Vec::new();
    for (tasks, paper_mean) in [(1usize, 0.00711), (6, 0.00848)] {
        let report = fig7::run(tasks, 240, DEFAULT_SEED.wrapping_add(tasks as u64));
        let mean = report.mean_degradation();
        assert_within_factor(&format!("Fig 7 {tasks}-task mean"), mean, paper_mean, 1.5);
        means.push(mean);

        let mut by_degradation: Vec<_> = report.rows.iter().collect();
        by_degradation.sort_by(|a, b| b.degradation().total_cmp(&a.degradation()));
        let mut top2: Vec<&str> = by_degradation
            .iter()
            .take(2)
            .map(|r| r.name.as_str())
            .collect();
        top2.sort_unstable();
        assert_eq!(
            top2,
            ["file copy 256B", "pipe-based context switching"],
            "Fig 7 {tasks}-task top two"
        );
        let worst = by_degradation.first().expect("rows").degradation();
        for name in ["dhrystone 2", "whetstone"] {
            let row = report.rows.iter().find(|r| r.name == name).expect("row");
            assert!(
                row.degradation() < 0.1 * worst,
                "Fig 7 {tasks}-task {name}: {:.4} vs worst {worst:.4}",
                row.degradation()
            );
        }
    }
    assert!(
        means[1] > means[0],
        "6-task mean {} not above 1-task {}",
        means[1],
        means[0]
    );
}
