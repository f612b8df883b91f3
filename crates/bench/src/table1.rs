//! Table I — secure-world introspection time per byte.
//!
//! The paper measures the time for the secure world to introspect one byte
//! under two strategies (direct hash vs snapshot-then-hash) on each core
//! kind, 50 rounds each. We regenerate the measurement *through the
//! simulated machine*: a fixed-core service scans the whole kernel once per
//! round; the per-byte time is the TSP residency minus the two world
//! switches, divided by the byte count. (The underlying rates are the
//! calibrated inputs from DESIGN.md §2; this experiment verifies the whole
//! pipeline reproduces them end to end, including the snapshot strategy's
//! secure-memory cost.)

use satin_hw::timing::ScanStrategy;
use satin_hw::{CoreId, CoreKind};
use satin_mem::PAPER_KERNEL_SIZE;
use satin_scenario::Scenario;
use satin_sim::{SimDuration, SimTime};
use satin_stats::Summary;
use satin_system::{BootCtx, ScanRequest, SecureCtx, SecureService, SystemBuilder};
use std::cell::RefCell;
use std::rc::Rc;

/// One Table I row: per-byte introspection times for a (core kind,
/// strategy) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Core kind.
    pub kind: CoreKind,
    /// Scan strategy.
    pub strategy: ScanStrategy,
    /// Per-byte time summary over rounds, in seconds.
    pub per_byte: Summary,
    /// Secure memory consumed per round, bytes (0 for direct hash).
    pub secure_memory_bytes: u64,
}

struct FullScanService {
    core: CoreId,
    strategy: ScanStrategy,
    period: SimDuration,
    durations: Rc<RefCell<Vec<f64>>>,
}

impl SecureService for FullScanService {
    fn on_boot(&mut self, ctx: &mut BootCtx<'_>) -> Result<(), satin_system::SatinError> {
        ctx.arm_core(self.core, SimTime::ZERO + self.period)?;
        Ok(())
    }

    fn on_secure_timer(&mut self, _core: CoreId, ctx: &mut SecureCtx<'_>) -> Option<ScanRequest> {
        let layout = satin_mem::KernelLayout::paper();
        let _ = ctx;
        Some(ScanRequest {
            area_id: 0,
            range: layout.range(),
            strategy: self.strategy,
        })
    }

    fn on_scan_result(
        &mut self,
        _core: CoreId,
        request: &ScanRequest,
        _observed: &[u8],
        ctx: &mut SecureCtx<'_>,
    ) {
        // Scan duration = now − fired − entry switch; we record the pure scan
        // time per byte (the paper likewise excludes the dispatcher latency,
        // which it reports separately as Ts_switch).
        let total = ctx.now().since(ctx.fired()).as_secs_f64();
        // Subtract a nominal entry switch (mid-range of §IV-B1).
        let scan = total - 3.0e-6;
        self.durations
            .borrow_mut()
            .push(scan / request.range.len() as f64);
        ctx.arm_self(ctx.now() + self.period);
    }
}

/// Measures one (kind, strategy) cell over `rounds` full-kernel scans on
/// `scenario`'s platform.
///
/// # Panics
///
/// Panics if the scenario's platform has no core of `kind` — iterate
/// `scenario.platform.kinds_present()` to stay safe.
pub fn measure_cell(
    scenario: &Scenario,
    kind: CoreKind,
    strategy: ScanStrategy,
    rounds: usize,
    seed: u64,
) -> Table1Row {
    // First core of the requested kind — on Juno that is core 0 for A57 and
    // core 2 for A53, matching the original hard-coded picks.
    let core = CoreId::new(
        scenario
            .platform
            .nth_core_of_kind(kind, 0)
            .expect("scenario platform has no core of the requested kind"),
    );
    let durations = Rc::new(RefCell::new(Vec::new()));
    let mut sys = SystemBuilder::new()
        .seed(seed)
        .scenario(scenario)
        .trace(false)
        .build();
    let period = SimDuration::from_millis(200);
    sys.install_secure_service(FullScanService {
        core,
        strategy,
        period,
        durations: durations.clone(),
    });
    // Each scan takes ≤ 130 ms; rounds are 200 ms apart plus scan time.
    let horizon = SimTime::ZERO + SimDuration::from_millis(400) * (rounds as u64 + 1);
    while durations.borrow().len() < rounds && sys.now() < horizon {
        sys.run_for(SimDuration::from_millis(100));
    }
    let d = durations.borrow();
    let per_byte = Summary::of(&d[..rounds.min(d.len())]).expect("at least one round");
    Table1Row {
        kind,
        strategy,
        per_byte,
        secure_memory_bytes: match strategy {
            ScanStrategy::DirectHash => 0,
            ScanStrategy::SnapshotThenHash => PAPER_KERNEL_SIZE,
        },
    }
}

/// Table I on `scenario`'s platform: one row per (present core kind,
/// strategy) pair — all four cells on the paper's platform, two on a
/// homogeneous one.
pub fn run(scenario: &Scenario, rounds: usize, seed: u64) -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for kind in scenario.platform.kinds_present() {
        for strategy in ScanStrategy::ALL {
            rows.push(measure_cell(scenario, kind, strategy, rounds, seed));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a53_hash_rate_matches_paper() {
        let row = measure_cell(
            &Scenario::paper(),
            CoreKind::A53,
            ScanStrategy::DirectHash,
            10,
            3,
        );
        // Paper: avg 1.07e-8, min 9.23e-9, max 1.14e-8.
        assert!(
            (0.95e-8..1.2e-8).contains(&row.per_byte.mean),
            "mean {:.3e}",
            row.per_byte.mean
        );
        assert!(row.per_byte.min >= 9.0e-9, "min {:.3e}", row.per_byte.min);
        assert!(row.per_byte.max <= 1.2e-8, "max {:.3e}", row.per_byte.max);
    }

    #[test]
    fn a57_faster_than_a53_and_hash_cheaper_than_snapshot() {
        let rows = run(&Scenario::paper(), 6, 4);
        let get = |k: CoreKind, s: ScanStrategy| {
            rows.iter()
                .find(|r| r.kind == k && r.strategy == s)
                .unwrap()
                .per_byte
                .mean
        };
        let a53h = get(CoreKind::A53, ScanStrategy::DirectHash);
        let a57h = get(CoreKind::A57, ScanStrategy::DirectHash);
        let a53s = get(CoreKind::A53, ScanStrategy::SnapshotThenHash);
        let a57s = get(CoreKind::A57, ScanStrategy::SnapshotThenHash);
        assert!(a57h < a53h, "A57 {a57h:.3e} vs A53 {a53h:.3e}");
        assert!(a57s < a53s);
        // Direct hash is not slower on average (Table I's conclusion)…
        assert!(a53h <= a53s * 1.02);
        // …and uses no secure memory.
        assert_eq!(
            rows.iter()
                .find(|r| r.strategy == ScanStrategy::DirectHash)
                .unwrap()
                .secure_memory_bytes,
            0
        );
    }
}
