//! The three prober deployments the paper evaluates.
//!
//! - **User-level prober** (§III-B1): one CFS thread per core — stealthy (no
//!   kernel modification) but its accuracy degrades under CPU contention.
//! - **KProber-I** (§III-C1): the Time Reporter/Comparer injected into the
//!   timer-interrupt handler, found via the exception vector table. Runs at
//!   HZ on every non-idle core — so it keeps a spinner on each core — and
//!   leaves the hijacked vector entry as an extra detectable trace.
//! - **KProber-II** (§III-C2): `SCHED_FIFO` threads at
//!   `sched_get_priority_max(SCHED_FIFO)` — no kernel-text modification and
//!   reliable scheduling under load.

use crate::prober::{deploy_prober_threads, ProberConfig, ProberShared};
use satin_hw::CoreId;
use satin_kernel::vector::{VectorSlot, VectorTable};
use satin_kernel::{Affinity, SchedClass, TaskId};
use satin_scenario::ProberKind;
use satin_sim::{MarkTag, SimDuration, SimTime, TraceCategory};
use satin_system::{RunCtx, RunOutcome, System, TickHook};

/// Deploys the prober implementation `kind` names.
pub fn deploy_prober(
    sys: &mut System,
    kind: ProberKind,
    config: ProberConfig,
    shared: &ProberShared,
    start: SimTime,
) -> Vec<TaskId> {
    match kind {
        ProberKind::UserLevel => deploy_user_prober(sys, config, shared, start),
        ProberKind::KProberI => deploy_kprober_i(sys, config, shared, start),
        ProberKind::KProberII => deploy_kprober_ii(sys, config, shared, start),
    }
}

/// Deploys the user-level prober (CFS threads).
pub fn deploy_user_prober(
    sys: &mut System,
    config: ProberConfig,
    shared: &ProberShared,
    start: SimTime,
) -> Vec<TaskId> {
    deploy_prober_threads(sys, SchedClass::cfs(), config, shared, start)
}

/// Deploys KProber-II (`SCHED_FIFO` priority 99 threads).
pub fn deploy_kprober_ii(
    sys: &mut System,
    config: ProberConfig,
    shared: &ProberShared,
    start: SimTime,
) -> Vec<TaskId> {
    deploy_prober_threads(sys, SchedClass::rt_max(), config, shared, start)
}

/// The KProber-I tick hook: reporter + comparer in IRQ context.
pub struct KProberIHook {
    shared: ProberShared,
    config: ProberConfig,
    num_cores: usize,
}

impl TickHook for KProberIHook {
    fn on_tick(&mut self, ctx: &mut RunCtx<'_>) {
        let now = ctx.now();
        let me = ctx.core();
        ctx.publish_time_report();
        for i in 0..self.num_cores {
            let x = CoreId::new(i);
            if x == me {
                continue;
            }
            if let Some(tx) = ctx.read_time_report(x) {
                let diff = now.saturating_since(tx);
                if self.shared.record(now, x, diff, self.config.threshold) {
                    ctx.mark_args(MarkTag::AttackObserve, x.index() as u64, 0);
                }
            }
        }
    }
}

/// Deploys KProber-I: hijacks the IRQ exception vector (leaving modified
/// bytes in the monitored kernel image — the extra trace §III-C1 warns
/// about), installs the tick hook, and spawns one low-priority spinner per
/// core so `NO_HZ_IDLE` never silences the tick.
///
/// Returns the spinner task ids.
///
/// # Panics
///
/// Panics if the kernel layout has no vector table.
pub fn deploy_kprober_i(
    sys: &mut System,
    mut config: ProberConfig,
    shared: &ProberShared,
    start: SimTime,
) -> Vec<TaskId> {
    let n = sys.num_cores();

    // KProber-I observes at tick granularity: reports from other cores are
    // up to one tick (1/HZ) old even in quiet operation, so the staleness
    // threshold must absorb the tick period or it would misfire on every
    // comparison (the paper's prototype pairs a KProber-I reporter with a
    // KProber-II comparer for exactly this reason, §IV-A1).
    let tick = sys.sched().config().tick_period();
    config.threshold = config.threshold.map(|t| t + tick);

    // Hijack the timer IRQ vector entry: a setup task exploits the AP bits
    // and overwrites the entry with redirect code.
    let vt = VectorTable::new(sys.layout()).expect("kernel layout has a vector table");
    let entry = vt.entry_range(VectorSlot::IrqCurrentElSpx);
    let setup = sys.spawn(
        "kprober1-setup",
        SchedClass::rt_max(),
        Affinity::pinned(CoreId::new(0)),
        move |ctx: &mut RunCtx<'_>| {
            ctx.exploit_ap_bits(entry.start());
            // 32 bytes of redirect stub in place of the original handler.
            let stub = [0x14u8; 32];
            ctx.write_kernel(entry.start(), &stub)
                .expect("vector table inside memory");
            ctx.trace(TraceCategory::AttackKprober, "IRQ vector hijacked");
            RunOutcome::exit_after(SimDuration::from_micros(10))
        },
    );
    sys.wake_at(setup, start);

    sys.install_tick_hook(KProberIHook {
        shared: shared.clone(),
        config,
        num_cores: n,
    });

    // Spinners keep every core out of NO_HZ idle.
    let mut spinners = Vec::new();
    for i in 0..n {
        let t = sys.spawn(
            format!("spinner-{i}"),
            SchedClass::Cfs { nice: 19 },
            Affinity::pinned(CoreId::new(i)),
            |_: &mut RunCtx<'_>| RunOutcome::yield_after(SimDuration::from_millis(1)),
        );
        sys.wake_at(t, start);
        spinners.push(t);
    }
    spinners
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prober::ProbeTargets;
    use satin_system::SystemBuilder;

    #[test]
    fn kprober_i_reports_at_tick_rate() {
        let mut sys = SystemBuilder::new().seed(3).trace(false).build();
        let shared = ProberShared::new();
        let cfg = ProberConfig::measurement(SimDuration::from_micros(200), ProbeTargets::AllCores);
        deploy_kprober_i(&mut sys, cfg, &shared, SimTime::ZERO);
        sys.run_until(SimTime::from_secs(1));
        // 6 cores × HZ=250 ≈ 1500 ticks/s; each publishes a report.
        let reports = sys.stats().time_reports;
        assert!(
            (1200..2000).contains(&reports),
            "tick-rate reports: {reports}"
        );
        assert!(shared.observations() > 0);
        // The hijack left a trace in the kernel image.
        let vt = VectorTable::new(sys.layout()).unwrap();
        let entry = vt.entry_range(VectorSlot::IrqCurrentElSpx);
        let bytes = sys.mem().read(entry).unwrap();
        assert_eq!(&bytes[..32], &[0x14u8; 32]);
    }

    #[test]
    fn kprober_i_vs_ii_probing_granularity() {
        // KProber-II probes every 200µs; KProber-I only at the 4ms tick.
        // Over the same second, KProber-II must make far more observations.
        let run = |variant: ProberKind| {
            let mut sys = SystemBuilder::new().seed(4).trace(false).build();
            let shared = ProberShared::new();
            let cfg =
                ProberConfig::measurement(SimDuration::from_micros(200), ProbeTargets::AllCores);
            deploy_prober(&mut sys, variant, cfg, &shared, SimTime::ZERO);
            sys.run_until(SimTime::from_millis(500));
            shared.observations()
        };
        let i = run(ProberKind::KProberI);
        let ii = run(ProberKind::KProberII);
        assert!(ii > 5 * i, "KProber-II {ii} vs KProber-I {i}");
    }

    #[test]
    fn user_prober_works_without_kernel_changes() {
        let mut sys = SystemBuilder::new().seed(6).trace(false).build();
        let shared = ProberShared::new();
        let cfg = ProberConfig::measurement(SimDuration::from_micros(200), ProbeTargets::AllCores);
        deploy_user_prober(&mut sys, cfg, &shared, SimTime::ZERO);
        sys.run_until(SimTime::from_millis(100));
        assert!(shared.observations() > 0);
        // No kernel writes: stealthy.
        assert_eq!(sys.stats().kernel_writes, 0);
    }
}
