//! Every number the paper publishes that the reproduction hard-codes or
//! derives, checked in one place.

use satin::attack::race::RaceParams;
use satin::core::activation::WakePolicy;
use satin::core::areas::{max_safe_area_size, AreaPlan};
use satin::hw::{CoreKind, TimingModel, Topology};
use satin::mem::{
    KernelLayout, PAPER_AREA_COUNT, PAPER_KERNEL_SIZE, PAPER_LARGEST_AREA, PAPER_SMALLEST_AREA,
    PAPER_SYSCALL_AREA,
};
use satin_sim::SimDuration;

#[test]
fn platform_is_juno_r1() {
    // §IV-A: 4-core Cortex-A53 LITTLE + 2-core Cortex-A57 big.
    let t = Topology::juno_r1();
    assert_eq!(t.num_cores(), 6);
    assert_eq!(t.cores_of_kind(CoreKind::A57).count(), 2);
    assert_eq!(t.cores_of_kind(CoreKind::A53).count(), 4);
}

#[test]
fn kernel_layout_matches_section_6a2() {
    let l = KernelLayout::paper();
    assert_eq!(l.total_size(), PAPER_KERNEL_SIZE); // 11,916,240
    assert_eq!(l.num_segments(), PAPER_AREA_COUNT); // 19
    let plan = AreaPlan::from_segments(&l);
    assert_eq!(plan.largest(), PAPER_LARGEST_AREA); // 876,616
    assert_eq!(plan.smallest(), PAPER_SMALLEST_AREA); // 431,360
    assert_eq!(l.syscall_table().segment(), PAPER_SYSCALL_AREA); // area 14
}

#[test]
fn timing_constants_match_the_tables() {
    let t = TimingModel::paper_calibrated();
    // Table I extremes.
    assert_eq!(t.a57.hash_1byte.min, 6.67e-9);
    assert_eq!(t.a57.hash_1byte.max, 7.50e-9);
    assert_eq!(t.a53.hash_1byte.min, 9.23e-9);
    assert_eq!(t.a53.hash_1byte.max, 1.14e-8);
    // §IV-B1 switch bounds.
    assert_eq!(t.ts_switch.lo(), 2.38e-6);
    assert_eq!(t.ts_switch.hi(), 3.60e-6);
    // §IV-C worst-case recovery.
    assert!((t.slowest_recover_secs() - 6.13e-3).abs() < 1e-12);
}

#[test]
fn equation2_reproduces_1218351() {
    let p = RaceParams::paper_worst_case();
    let s = p.protected_prefix_bytes();
    // The paper rounds to 1,218,351; floating-point puts us within a byte.
    assert!(
        (1_218_350..=1_218_352).contains(&s),
        "S = {s}, paper says 1,218,351"
    );
    let f = p.unprotected_fraction(PAPER_KERNEL_SIZE);
    assert!((0.897..0.899).contains(&f), "fraction {f}, paper ≈90%");
}

#[test]
fn safety_bound_admits_the_paper_plan() {
    // §VI-A1: "for each area of the checking module, its size must be
    // smaller than 1218351 bytes" — and the 19-segment plan satisfies it.
    let bound = max_safe_area_size(&TimingModel::paper_calibrated(), 2e-4 + 1.8e-3);
    assert!((1_218_350..=1_218_352).contains(&bound));
    AreaPlan::from_segments(&KernelLayout::paper())
        .validate(bound)
        .unwrap();
}

#[test]
fn wake_policy_is_tp8_and_152s_coverage() {
    // §V-C / §VI-B1: tp = Tgoal/m = 152/19 = 8 s; sweep ≈ 152 s.
    let p = WakePolicy::from_goal(SimDuration::from_secs(152), 19, true);
    assert_eq!(p.tp, SimDuration::from_secs(8));
    assert_eq!(p.expected_coverage(19), SimDuration::from_secs(152));
}

#[test]
fn kprober_parameters() {
    // §IV-A1: Tsleep = 2e-4 s; threshold learned at 1.8e-3 (§VI-B1).
    let cfg = satin::attack::prober::ProberConfig::paper_kprober();
    assert_eq!(cfg.sleep, SimDuration::from_micros(200));
    assert_eq!(cfg.threshold, Some(SimDuration::from_secs_f64(1.8e-3)));
}
