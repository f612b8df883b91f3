//! Extending the library: a custom platform (octa-core, all-LITTLE) with a
//! custom secure service — a watchdog that only guards the syscall table and
//! the vector table, trading coverage for a tiny per-round footprint.
//!
//! ```sh
//! cargo run --release --example custom_platform
//! ```

use satin::hash::{hash_bytes, AuthorizedHashTable, HashAlgorithm};
use satin::hw::timing::ScanStrategy;
use satin::prelude::*;
use satin::system::{BootCtx, ScanRequest, SecureCtx, SecureService};
use std::cell::RefCell;
use std::rc::Rc;

/// A minimal secure service: alternately checks just the two hot targets.
struct TableWatchdog {
    period: SimDuration,
    targets: Vec<satin::mem::MemRange>,
    table: Option<AuthorizedHashTable>,
    next: usize,
    alarms: Rc<RefCell<Vec<(f64, usize)>>>,
}

impl SecureService for TableWatchdog {
    fn on_boot(&mut self, ctx: &mut BootCtx<'_>) -> Result<(), satin::system::SatinError> {
        let mut table = AuthorizedHashTable::new(HashAlgorithm::Fnv1a);
        for (i, r) in self.targets.iter().enumerate() {
            table.enroll(i, hash_bytes(HashAlgorithm::Fnv1a, ctx.mem().read(*r)?));
        }
        self.table = Some(table);
        // First wake on a random core.
        let n = ctx.num_cores() as u64;
        let core = CoreId::new(ctx.rng().below(n) as usize);
        ctx.arm_core(core, SimTime::ZERO + self.period)?;
        Ok(())
    }

    fn on_secure_timer(&mut self, _core: CoreId, _ctx: &mut SecureCtx<'_>) -> Option<ScanRequest> {
        let id = self.next;
        self.next = (self.next + 1) % self.targets.len();
        Some(ScanRequest {
            area_id: id,
            range: self.targets[id],
            strategy: ScanStrategy::DirectHash,
        })
    }

    fn on_scan_result(
        &mut self,
        _core: CoreId,
        request: &ScanRequest,
        observed: &[u8],
        ctx: &mut SecureCtx<'_>,
    ) {
        let digest = hash_bytes(HashAlgorithm::Fnv1a, observed);
        let table = self.table.as_ref().expect("booted");
        if table.verify(request.area_id, digest).is_tampered() {
            self.alarms
                .borrow_mut()
                .push((ctx.now().as_secs_f64(), request.area_id));
        }
        // Randomized re-arm, SATIN-style: uniform in [0, 2 * period].
        let ns = ctx.rng().int_range_inclusive(1, 2 * self.period.as_nanos());
        let next = ctx.now() + SimDuration::from_nanos(ns);
        ctx.arm_self(next);
    }
}

fn main() {
    // An octa-core all-A53 platform instead of the Juno: the paper scenario
    // with another core list keeps the Juno's calibration and routing.
    let mut scenario = Scenario::paper();
    scenario.platform.cores = vec![CoreKind::A53; 8];
    let mut sys = SystemBuilder::new().seed(808).scenario(&scenario).build();
    println!("custom platform: {} cores, all A53", sys.num_cores());

    let layout = sys.layout().clone();
    let alarms = Rc::new(RefCell::new(Vec::new()));
    sys.install_secure_service(TableWatchdog {
        period: SimDuration::from_millis(250),
        targets: vec![
            layout.syscall_table().range(),
            layout.vector_table().unwrap().range(),
        ],
        table: None,
        next: 0,
        alarms: alarms.clone(),
    });

    // An attacker hijacks the vector table at t = 1 s.
    let entry = satin::kernel::vector::VectorTable::new(&layout)
        .unwrap()
        .entry_range(satin::kernel::vector::VectorSlot::IrqCurrentElSpx);
    let t = sys.spawn(
        "vector-hijacker",
        SchedClass::cfs(),
        Affinity::any(8),
        move |ctx: &mut RunCtx<'_>| {
            ctx.exploit_ap_bits(entry.start());
            ctx.write_kernel(entry.start(), &[0x14u8; 16]).unwrap();
            RunOutcome::exit_after(SimDuration::from_micros(5))
        },
    );
    sys.wake_at(t, SimTime::from_secs(1));

    sys.run_until(SimTime::from_secs(4));

    let alarms = alarms.borrow();
    println!("watchdog alarms: {}", alarms.len());
    for (at, target) in alarms.iter().take(3) {
        let name = if *target == 0 {
            "syscall table"
        } else {
            "vector table"
        };
        println!("  t={at:.3}s  target: {name}");
    }
    assert!(
        alarms.iter().all(|(_, t)| *t == 1),
        "only the vector table was hijacked"
    );
    assert!(!alarms.is_empty(), "watchdog missed the hijack");
    println!("custom platform + custom service OK");
}
