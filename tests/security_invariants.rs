//! Cross-crate security invariants (DESIGN.md §7): the structural
//! TrustZone asymmetries the defense's security argument rests on.

use satin::hw::{CoreId, World};
use satin::prelude::*;
use satin::secure::SecureStorage;
use satin_sim::SimRng;

/// Invariant 8: secure timer registers reject normal-world access, always.
#[test]
fn secure_timers_unwritable_from_normal_world() {
    let mut p = Platform::juno_r1();
    for i in 0..6 {
        let t = p.secure_timer_mut(CoreId::new(i));
        assert!(t.write_cval(World::Normal, SimTime::from_secs(1)).is_err());
        assert!(t.set_enabled(World::Normal, true).is_err());
        assert!(t.read_cval(World::Normal).is_err());
        // And the failed writes had no effect.
        assert!(t.next_fire().is_none());
    }
}

/// Invariant 5: the wake-up time queue lives in secure storage; a
/// normal-world read is an error, never data.
#[test]
fn wake_queue_invisible_to_normal_world() {
    use satin::core::activation::WakePolicy;
    use satin::core::queue::WakeQueue;
    let mut rng = SimRng::seed_from(3);
    let q = WakeQueue::new(SimTime::ZERO, 6, &WakePolicy::paper(), &mut rng);
    let mut cell = SecureStorage::new("wake-up time queue", q);
    assert!(cell.read(World::Normal).is_err());
    assert!(cell.write(World::Normal).is_err());
    assert!(cell.read(World::Secure).is_ok());
}

/// §VII-A: a page protected by synchronous introspection faults on write
/// until the write-what-where exploit flips its AP bits.
#[test]
fn synchronous_protection_and_its_bypass() {
    let layout = KernelLayout::paper();
    let mut mem = satin::mem::PhysMemory::with_image(&layout, 11);
    let table = layout.syscall_table().range();
    mem.perms_mut().protect(table);
    let addr = layout.syscall_entry_addr(satin::mem::layout::GETTID_NR);
    // Checked write (what an unprivileged attacker without the exploit does):
    assert!(mem.write(addr, &[0u8; 8]).is_err());
    // The exploit flips the AP bits; now the checked write sails through.
    assert!(mem.perms_mut().exploit_write_what_where(addr));
    assert!(mem.write(addr, &[0u8; 8]).is_ok());
}

/// KProber-II leaves no kernel-memory traces (its advantage over KProber-I,
/// §III-C); KProber-I leaves the hijacked vector entry for SATIN to find.
#[test]
fn kprober_trace_asymmetry() {
    use satin::attack::kprober::{deploy_kprober_i, deploy_kprober_ii};
    use satin::attack::prober::{ProbeTargets, ProberConfig, ProberShared};

    let run = |which: u8| {
        let mut sys = SystemBuilder::new().seed(12).trace(false).build();
        let shared = ProberShared::new();
        let cfg = ProberConfig::measurement(SimDuration::from_micros(200), ProbeTargets::AllCores);
        match which {
            1 => {
                deploy_kprober_i(&mut sys, cfg, &shared, SimTime::ZERO);
            }
            _ => {
                deploy_kprober_ii(&mut sys, cfg, &shared, SimTime::ZERO);
            }
        }
        sys.run_until(SimTime::from_millis(300));
        sys.stats().kernel_writes
    };
    assert_eq!(run(2), 0, "KProber-II must not write kernel memory");
    assert!(run(1) > 0, "KProber-I must leave its vector hijack trace");
}

/// SATIN refuses to boot with areas above the §V-B safety bound.
#[test]
fn satin_enforces_area_safety_bound() {
    use satin::core::satin::{validate, AreaPolicy};
    let layout = KernelLayout::paper();
    let timing = satin::hw::TimingModel::paper_calibrated();
    let mut cfg = SatinConfig::paper();
    cfg.area_policy = AreaPolicy::Monolithic;
    assert!(validate(&cfg, &layout, &timing).is_err());
    cfg.area_policy = AreaPolicy::Segments;
    assert!(validate(&cfg, &layout, &timing).is_ok());
}

/// The scan-window race is exact: Equation 1's boundary is reproduced byte
/// for byte (Invariant 7 checked through the facade).
#[test]
fn race_boundary_exact() {
    use satin::attack::race::RaceParams;
    let p = RaceParams::paper_worst_case();
    let s = p.protected_prefix_bytes();
    assert!(!p.attacker_escapes(s));
    assert!(p.attacker_escapes(s + 1));
}
