//! The persistent kernel rootkit: GETTID syscall-table hijack with trace
//! recovery (§IV-A2).
//!
//! The attack modifies one 8-byte entry of the system call table, GETTID's.
//! It is an Advanced Persistent Threat (§III-A): while no introspection is
//! suspected it stays in the attacking phase; when the prober raises the
//! hide signal it spends `Tns_recover` cleaning (restoring the genuine
//! pointer), and once the coast is clear it re-installs the hijack.

use crate::channel::EvaderChannel;
use satin_hw::CoreId;
use satin_kernel::{Affinity, SchedClass, TaskId};
use satin_mem::layout::GETTID_NR;
use satin_sim::{MarkTag, SimDuration, SimTime, TraceCategory};
use satin_system::{RunCtx, RunOutcome, System, ThreadBody};
use std::cell::RefCell;
use std::rc::Rc;

/// Polling cadence of the recovery threads.
const POLL: SimDuration = SimDuration::from_micros(50);

/// Rootkit configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootkitConfig {
    /// Quiet time after the last detection before re-installing.
    pub quiet_before_reinstall: SimDuration,
    /// Spawn a recovery helper on every core (a kernel module reacts from
    /// whichever core is still running — crucial when the introspection
    /// happens to land on the leader's own core and freezes it). Disable to
    /// pin recovery to one core for per-core-kind measurements.
    pub multi_core_recovery: bool,
}

impl Default for RootkitConfig {
    fn default() -> Self {
        RootkitConfig {
            quiet_before_reinstall: SimDuration::from_millis(20),
            multi_core_recovery: true,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    NotInstalled,
    Active,
    Recovering,
    Hidden,
}

/// One lifecycle event of the rootkit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LifecycleEvent {
    /// The hijack was written at this instant.
    Installed(SimTime),
    /// The traces were restored at this instant.
    Restored(SimTime),
}

#[derive(Debug, Default)]
struct Inner {
    installs: u64,
    restores: u64,
    active_since: Option<SimTime>,
    active_total: SimDuration,
    genuine: Option<[u8; 8]>,
    last_restore_at: Option<SimTime>,
    events: Vec<LifecycleEvent>,
    /// A recovery has been claimed and is in flight (prevents two helper
    /// threads from double-recovering one hide).
    recovery_in_progress: bool,
}

/// Handle for inspecting the rootkit's lifecycle from experiment code.
#[derive(Debug, Clone, Default)]
pub struct RootkitHandle {
    inner: Rc<RefCell<Inner>>,
}

impl RootkitHandle {
    /// `true` while the hijack is in place.
    pub fn is_active(&self) -> bool {
        self.inner.borrow().active_since.is_some()
    }

    /// Total time the hijack has been in place up to `now`.
    pub fn active_time(&self, now: SimTime) -> SimDuration {
        let i = self.inner.borrow();
        let mut total = i.active_total;
        if let Some(since) = i.active_since {
            total += now.saturating_since(since);
        }
        total
    }

    /// When the traces were last fully restored.
    pub fn last_restore_at(&self) -> Option<SimTime> {
        self.inner.borrow().last_restore_at
    }

    /// `true` if the hijack was in place at instant `t` (the bytes written
    /// at an install remain malicious until the matching restore).
    pub fn was_active_at(&self, t: SimTime) -> bool {
        let mut active = false;
        for e in self.inner.borrow().events.iter() {
            match e {
                LifecycleEvent::Installed(at) if *at <= t => active = true,
                LifecycleEvent::Restored(at) if *at <= t => active = false,
                _ => break,
            }
        }
        active
    }
}

/// The thread's role in the rootkit's distributed recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RootkitRole {
    /// Installs/reinstalls the hijack and participates in recovery.
    Leader,
    /// Only participates in recovery (reacts when the leader's core is the
    /// one frozen in the secure world).
    Helper,
}

/// The rootkit's recovery thread body.
pub(crate) struct RootkitBody {
    config: RootkitConfig,
    channel: EvaderChannel,
    handle: RootkitHandle,
    phase: Phase,
    role: RootkitRole,
}

impl RootkitBody {
    /// Creates the body (the leader installs on its first activation).
    pub(crate) fn new(
        config: RootkitConfig,
        channel: EvaderChannel,
        handle: RootkitHandle,
        role: RootkitRole,
    ) -> Self {
        RootkitBody {
            config,
            channel,
            handle,
            phase: match role {
                RootkitRole::Leader => Phase::NotInstalled,
                RootkitRole::Helper => Phase::Hidden,
            },
            role,
        }
    }

    fn install(&mut self, ctx: &mut RunCtx<'_>) {
        let addr = ctx.layout().syscall_entry_addr(GETTID_NR);
        // Undo any synchronous-introspection page protection first (§VII-A).
        ctx.exploit_ap_bits(addr);
        let evil = satin_mem::image::hijacked_entry_bytes(ctx.layout(), 0xE711_u64);
        let rec = ctx.write_kernel(addr, &evil).expect("table inside memory");
        let mut i = self.handle.inner.borrow_mut();
        if i.genuine.is_none() {
            i.genuine = Some(rec.old.as_slice().try_into().expect("8 bytes"));
        }
        i.installs += 1;
        i.active_since = Some(ctx.now());
        i.events.push(LifecycleEvent::Installed(ctx.now()));
        drop(i);
        ctx.mark_args(MarkTag::AttackInstall, addr.value(), 0);
        ctx.trace(
            TraceCategory::AttackInstall,
            format!("hijacked syscall {GETTID_NR}"),
        );
    }

    fn restore(&mut self, ctx: &mut RunCtx<'_>) {
        let addr = ctx.layout().syscall_entry_addr(GETTID_NR);
        let genuine = self
            .handle
            .inner
            .borrow()
            .genuine
            .expect("restore before install");
        ctx.write_kernel(addr, &genuine)
            .expect("table inside memory");
        let now = ctx.now();
        let mut i = self.handle.inner.borrow_mut();
        if let Some(since) = i.active_since.take() {
            i.active_total += now.saturating_since(since);
        }
        i.restores += 1;
        i.last_restore_at = Some(now);
        i.events.push(LifecycleEvent::Restored(now));
        drop(i);
        ctx.mark_args(MarkTag::AttackRestore, addr.value(), 0);
        ctx.trace(TraceCategory::AttackRestore, "traces cleaned");
    }
}

impl RootkitBody {
    /// Claims a pending hide if the hijack is live and nobody else is
    /// already recovering.
    fn try_claim_recovery(&mut self, ctx: &mut RunCtx<'_>) -> Option<RunOutcome> {
        if !self.channel.hide_requested() {
            return None;
        }
        {
            let mut i = self.handle.inner.borrow_mut();
            if i.active_since.is_none() || i.recovery_in_progress {
                return None;
            }
            i.recovery_in_progress = true;
        }
        self.channel.begin_hide();
        self.phase = Phase::Recovering;
        ctx.mark(MarkTag::RecoveryBegin);
        ctx.trace(
            TraceCategory::AttackHide,
            format!("recovery started on {}", ctx.core()),
        );
        // The recovery work occupies the CPU for Tns_recover; the actual
        // restore write lands when it completes.
        let recover = ctx.recovery_cost();
        Some(RunOutcome::yield_after(recover))
    }
}

impl ThreadBody for RootkitBody {
    fn on_run(&mut self, ctx: &mut RunCtx<'_>) -> RunOutcome {
        match self.phase {
            Phase::NotInstalled => {
                self.install(ctx);
                self.phase = Phase::Active;
                RunOutcome::sleep_aligned(SimDuration::from_micros(5), POLL)
            }
            Phase::Active => {
                if !self.handle.is_active() {
                    // Another thread already recovered this hide.
                    self.phase = Phase::Hidden;
                    return RunOutcome::sleep_aligned(SimDuration::from_micros(2), POLL);
                }
                self.try_claim_recovery(ctx)
                    .unwrap_or_else(|| RunOutcome::sleep_aligned(SimDuration::from_micros(2), POLL))
            }
            Phase::Recovering => {
                self.restore(ctx);
                self.handle.inner.borrow_mut().recovery_in_progress = false;
                self.channel.hide_completed();
                self.phase = Phase::Hidden;
                RunOutcome::sleep_aligned(SimDuration::from_micros(2), POLL)
            }
            Phase::Hidden => {
                // Helpers may claim a recovery from here too (the hijack can
                // be live while *this* thread has never recovered anything).
                if let Some(out) = self.try_claim_recovery(ctx) {
                    return out;
                }
                if self.role == RootkitRole::Leader
                    && !self.handle.is_active()
                    && self
                        .channel
                        .all_clear(ctx.now(), self.config.quiet_before_reinstall)
                {
                    self.channel.clear_hide_request();
                    self.install(ctx);
                    self.channel.record_reinstall();
                    self.phase = Phase::Active;
                }
                RunOutcome::sleep_aligned(SimDuration::from_micros(2), POLL)
            }
        }
    }
}

/// Deploys the rootkit onto `sys`: the leader thread on `core` plus (with
/// [`RootkitConfig::multi_core_recovery`]) a helper on every other core, all
/// waking at once.
///
/// Uses RT priority 98 — right below the probers — so recovery starts within
/// one poll period of the hide signal regardless of CFS load.
pub fn deploy_rootkit(
    sys: &mut System,
    core: CoreId,
    config: RootkitConfig,
    channel: &EvaderChannel,
) -> (TaskId, RootkitHandle) {
    let handle = RootkitHandle::default();
    let leader = RootkitBody::new(config, channel.clone(), handle.clone(), RootkitRole::Leader);
    let t = sys.spawn(
        "rootkit",
        SchedClass::RtFifo { priority: 98 },
        Affinity::pinned(core),
        leader,
    );
    sys.wake_at(t, SimTime::ZERO);
    if config.multi_core_recovery {
        for i in 0..sys.num_cores() {
            let c = CoreId::new(i);
            if c == core {
                continue;
            }
            let helper =
                RootkitBody::new(config, channel.clone(), handle.clone(), RootkitRole::Helper);
            let h = sys.spawn(
                format!("rootkit-helper-{i}"),
                SchedClass::RtFifo { priority: 98 },
                Affinity::pinned(c),
                helper,
            );
            sys.wake_at(h, SimTime::ZERO);
        }
    }
    (t, handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use satin_kernel::syscall::SyscallTable;
    use satin_system::SystemBuilder;

    fn sys() -> System {
        SystemBuilder::new().seed(21).trace(false).build()
    }

    #[test]
    fn installs_on_first_run() {
        let mut s = sys();
        let ch = EvaderChannel::new();
        let (_, handle) = deploy_rootkit(&mut s, CoreId::new(3), RootkitConfig::default(), &ch);
        s.run_until(SimTime::from_millis(2));
        assert_eq!(handle.inner.borrow().installs, 1);
        assert!(handle.is_active());
        // The table entry now differs from the genuine pointer.
        let table = SyscallTable::new(s.layout());
        let ptr = s.mem().read_u64(table.entry_addr(GETTID_NR)).unwrap();
        assert_ne!(Some(ptr), s.stats().genuine_syscall(GETTID_NR));
    }

    #[test]
    fn hide_restores_after_recovery_time() {
        let mut s = sys();
        let ch = EvaderChannel::new();
        let cfg = RootkitConfig {
            // Pin recovery to the A53 leader so the latency is per-kind.
            multi_core_recovery: false,
            ..RootkitConfig::default()
        };
        let (_, handle) = deploy_rootkit(&mut s, CoreId::new(3), cfg, &ch);
        s.run_until(SimTime::from_millis(5));
        assert!(handle.is_active());
        // The prober "detects" an introspection at t=5ms.
        let detect_at = s.now();
        ch.report_detection(detect_at, CoreId::new(0), SimDuration::from_millis(2));
        // Stop before the reinstall window opens at detection + 20 ms.
        s.run_until(SimTime::from_millis(20));
        assert_eq!(handle.inner.borrow().restores, 1);
        assert!(!handle.is_active());
        // Restore happened ≈ Tns_recover (A53 ≈ 5.2–6.13 ms) after detection,
        // plus at most one 50µs poll.
        let restored = handle.last_restore_at().unwrap();
        let latency = restored.since(detect_at).as_secs_f64();
        assert!(
            (5.0e-3..6.6e-3).contains(&latency),
            "recovery latency {latency}s"
        );
        // Memory is byte-identical to the genuine entry again.
        let table = SyscallTable::new(s.layout());
        let ptr = s.mem().read_u64(table.entry_addr(GETTID_NR)).unwrap();
        assert_eq!(Some(ptr), s.stats().genuine_syscall(GETTID_NR));
    }

    #[test]
    fn reinstalls_after_quiet_period() {
        let mut s = sys();
        let ch = EvaderChannel::new();
        let (_, handle) = deploy_rootkit(&mut s, CoreId::new(2), RootkitConfig::default(), &ch);
        s.run_until(SimTime::from_millis(2));
        ch.report_detection(s.now(), CoreId::new(0), SimDuration::from_millis(2));
        // Recovery (~5-6ms) + quiet period (20ms) + margin.
        s.run_until(SimTime::from_millis(60));
        assert_eq!(handle.inner.borrow().installs, 2, "expected a reinstall");
        assert!(handle.is_active());
        let (started, completed, reinstalls) = ch.lifecycle_counts();
        assert_eq!((started, completed, reinstalls), (1, 1, 1));
    }

    #[test]
    fn active_time_accumulates() {
        let mut s = sys();
        let ch = EvaderChannel::new();
        let (_, handle) = deploy_rootkit(&mut s, CoreId::new(3), RootkitConfig::default(), &ch);
        s.run_until(SimTime::from_millis(10));
        let t1 = handle.active_time(s.now());
        assert!(t1 > SimDuration::from_millis(9));
        ch.report_detection(s.now(), CoreId::new(1), SimDuration::ZERO);
        // Stop before the reinstall window opens at detection + 20 ms.
        s.run_until(SimTime::from_millis(28));
        let t2 = handle.active_time(s.now());
        // Active time stops growing once hidden.
        assert!(t2 < SimDuration::from_millis(17), "active {t2}");
    }
}
