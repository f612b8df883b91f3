//! The [`System`]: event loop over both worlds.
//!
//! The machine is decomposed by subsystem, one file per concern:
//!
//! - [`mod@self`] — the `System` struct, construction-time API, and
//!   read-only accessors;
//! - `dispatch` — the run loop and the event-to-handler dispatch table;
//! - `normal_path` — the rich OS: ticks, wakes, runqueue dispatch, task
//!   completion, and work accounting;
//! - `secure_path` — the world boundary: secure timer fires, scan-window
//!   lifecycle, and world-switch exit effects;
//! - `cores` — the per-core state records shared by both paths.
//!
//! All handlers are `impl System` blocks over the same private state, so the
//! split changes nothing observable: event order, RNG draw order, and every
//! counter are byte-identical to the former single-file machine (pinned by
//! the `golden_trace` snapshot test).

mod cores;
mod dispatch;
mod normal_path;
#[cfg(test)]
mod offset_tests;
mod secure_path;
#[cfg(test)]
mod tests;

use crate::body::{RunCtx, Then, ThreadBody};
use crate::event::SysEvent;
use crate::metrics::SysMetrics;
use crate::service::{BootCtx, ScanRequest, SecureService};
use crate::stats::{SysStats, TaskWork};
use crate::timebuf::SharedTimeBuffer;
use cores::CoreStates;
use satin_faults::{FaultInjector, FaultStats, SatinError};
use satin_hw::{CoreId, Platform};
use satin_kernel::syscall::SyscallTable;
use satin_kernel::{tick, Affinity, SchedClass, Scheduler, TaskId};
use satin_mem::{KernelLayout, PhysMemory, ScanWindow};
use satin_secure::TestSecurePayload;
use satin_sim::{SimDuration, SimObserver, SimRng, SimTime, Simulator, TraceLog};
use satin_telemetry::{Timeline, TrackId};

/// A hook invoked on every delivered scheduler tick — the injection point
/// KProber-I uses after hijacking the timer-interrupt vector (§III-C1).
pub trait TickHook {
    /// Runs in (simulated) IRQ context on the ticking core.
    fn on_tick(&mut self, ctx: &mut RunCtx<'_>);
}

/// A scan in flight on some core.
pub struct ActiveScan {
    /// The core performing the scan.
    pub core: CoreId,
    /// What the secure service asked for.
    pub request: ScanRequest,
    /// The in-flight observation window.
    pub window: ScanWindow,
}

/// The assembled machine: hardware platform, rich OS, secure payload, and the
/// event loop that advances them in virtual time.
///
/// Construct via [`crate::SystemBuilder`].
///
/// # Example
///
/// ```
/// use satin_system::{SystemBuilder, RunOutcome};
/// use satin_kernel::{SchedClass, Affinity};
/// use satin_sim::{SimDuration, SimTime};
///
/// let mut sys = SystemBuilder::new().seed(7).build();
/// let n = sys.num_cores();
/// let t = sys.spawn("hello", SchedClass::cfs(), Affinity::any(n), |ctx: &mut satin_system::RunCtx<'_>| {
///     ctx.trace("example", "ran once");
///     RunOutcome::exit_after(SimDuration::from_micros(10))
/// });
/// sys.wake_at(t, SimTime::ZERO);
/// sys.run_until(SimTime::from_millis(1));
/// assert!(sys.task(t).cpu_time() >= SimDuration::from_micros(10));
/// ```
pub struct System {
    sim: Simulator<SysEvent>,
    platform: Platform,
    sched: Scheduler,
    mem: PhysMemory,
    layout: KernelLayout,
    syscalls: SyscallTable,
    bodies: Vec<Option<Box<dyn ThreadBody>>>,
    resume: Vec<Option<(SimDuration, Then)>>,
    work: Vec<TaskWork>,
    service: Option<Box<dyn SecureService>>,
    tick_hook: Option<Box<dyn TickHook>>,
    tsp: TestSecurePayload,
    time_buffer: SharedTimeBuffer,
    trace: TraceLog,
    telemetry: Timeline,
    stats: SysStats,
    cores: CoreStates,
    scans: Vec<ActiveScan>,
    rng_sched: SimRng,
    rng_timing: SimRng,
    rng_secure: SimRng,
    rng_body: SimRng,
    /// Marks queued by task bodies during an activation, flushed to the sim
    /// observer when the activation returns (bodies can't borrow the
    /// simulator while the dispatch loop holds it).
    mark_buf: Vec<satin_sim::Mark>,
    /// Deterministic adversarial fault injector — `None` for clean runs.
    /// A pure function of (plan, seed, attempt), so faulted runs stay as
    /// reproducible as clean ones.
    faults: Option<FaultInjector>,
    /// Fraction of CPU time consumed by normal-world interrupt handling
    /// while the secure world runs in *preemptive* mode (GIC with
    /// `SCR_EL3.IRQ = 1`, §II-B). An attacker can drive this up with an
    /// interrupt storm; SATIN's non-preemptive configuration ignores it.
    ns_interrupt_load: f64,
}

impl System {
    pub(crate) fn assemble(
        platform: Platform,
        layout: KernelLayout,
        image_seed: u64,
        rngs: [SimRng; 4],
        trace: TraceLog,
        mut telemetry: Timeline,
        faults: Option<FaultInjector>,
    ) -> Self {
        let n = platform.topology().num_cores();
        let mem = PhysMemory::with_image(&layout, image_seed);
        let syscalls = SyscallTable::new(&layout);
        let mut stats = SysStats::new();
        stats.metrics = SysMetrics::new(n);
        // Record every genuine syscall pointer at boot, in syscall-number
        // order, for hijack accounting.
        for nr in 0..syscalls.entries() {
            let ptr = mem
                .read_u64(syscalls.entry_addr(nr))
                .expect("syscall table inside memory");
            stats.push_genuine_syscall(ptr);
        }
        let cores = CoreStates::new(n);
        let [rng_sched, rng_timing, rng_secure, rng_body] = rngs;
        if telemetry.is_enabled() {
            for i in 0..n {
                telemetry.set_track_name(TrackId(i as u32), format!("core {i}"));
            }
        }
        let mut sys = System {
            sim: Simulator::new(),
            platform,
            sched: Scheduler::new(n),
            mem,
            layout,
            syscalls,
            bodies: Vec::new(),
            resume: Vec::new(),
            work: Vec::new(),
            service: None,
            tick_hook: None,
            tsp: TestSecurePayload::new(n),
            time_buffer: SharedTimeBuffer::new(n),
            trace,
            telemetry,
            stats,
            cores,
            scans: Vec::new(),
            rng_sched,
            rng_timing,
            rng_secure,
            rng_body,
            mark_buf: Vec::new(),
            faults,
            ns_interrupt_load: 0.0,
        };
        // Warm-up reserve for campaign fan-out: every per-seed run (the
        // CampaignRunner builds one System per seed) starts with queue
        // capacity for the steady-state in-flight event population, so the
        // wheel never re-grows mid-run. Sized generously — a core carries a
        // handful of in-flight events (tick, task-done, secure timer, wake).
        sys.sim.reserve_events(64 + 16 * n);
        // Arm the periodic scheduler tick on every core.
        for i in 0..n {
            let core = CoreId::new(i);
            let at = tick::next_boundary(SimTime::ZERO);
            sys.sim.schedule_at(at, SysEvent::TickBoundary { core });
        }
        sys
    }

    // ------------------------------------------------------------------
    // Construction-time API
    // ------------------------------------------------------------------

    /// Spawns a normal-world task with the given behaviour. The task starts
    /// blocked; use [`System::wake_at`] to start it.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        class: SchedClass,
        affinity: Affinity,
        body: impl ThreadBody + 'static,
    ) -> TaskId {
        let tid = self.sched.spawn(name, class, affinity);
        debug_assert_eq!(tid.value() as usize, self.bodies.len());
        self.bodies.push(Some(Box::new(body)));
        self.resume.push(None);
        self.work.push(TaskWork::default());
        tid
    }

    /// Sets a task's cache-pollution sensitivity (see
    /// `crate::stats::TaskWork`).
    pub fn set_sensitivity(&mut self, task: TaskId, sensitivity: f64) {
        assert!(
            (0.0..=1.0).contains(&sensitivity),
            "sensitivity {sensitivity} out of range"
        );
        self.work[task.value() as usize].sensitivity = sensitivity;
    }

    /// Schedules a wake for `task` at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn wake_at(&mut self, task: TaskId, at: SimTime) {
        let at = at.max_of(self.sim.now());
        self.sim.schedule_at(at, SysEvent::TaskWake { task });
    }

    /// Installs the secure service and runs its trusted-boot hook, arming
    /// the initial secure timers.
    ///
    /// # Panics
    ///
    /// Panics if boot fails; [`System::try_install_secure_service`] is the
    /// fallible form campaign runners use.
    pub fn install_secure_service(&mut self, service: impl SecureService + 'static) {
        self.try_install_secure_service(service)
            .expect("secure service boot failed");
    }

    /// Installs the secure service and runs its trusted-boot hook, arming
    /// the initial secure timers.
    ///
    /// # Errors
    ///
    /// Propagates the boot hook's [`SatinError`]. On error no service is
    /// installed and no timer events are scheduled; the partially-armed
    /// system should be discarded (the campaign layer reports the seed as
    /// failed and moves on).
    pub fn try_install_secure_service(
        &mut self,
        mut service: impl SecureService + 'static,
    ) -> Result<(), SatinError> {
        assert!(self.service.is_none(), "secure service already installed");
        let mut armed = Vec::new();
        {
            let mut ctx = BootCtx {
                platform: &mut self.platform,
                mem: &self.mem,
                layout: &self.layout,
                rng: &mut self.rng_secure,
                armed: &mut armed,
            };
            service.on_boot(&mut ctx)?;
        }
        for (core, at) in armed {
            let gen = self.cores.timer_gen(core);
            self.sim.schedule_at(
                at,
                SysEvent::SecureTimerFire {
                    core,
                    generation: gen,
                },
            );
        }
        self.service = Some(Box::new(service));
        Ok(())
    }

    /// Installs a tick hook (KProber-I's injection point).
    pub fn install_tick_hook(&mut self, hook: impl TickHook + 'static) {
        assert!(self.tick_hook.is_none(), "tick hook already installed");
        self.tick_hook = Some(Box::new(hook));
    }

    /// Sets the normal-world interrupt pressure (fraction of CPU time spent
    /// in NS interrupt handlers). Only matters while the secure world runs
    /// with a *preemptive* GIC configuration (`SCR_EL3.IRQ = 1`): each NS
    /// interrupt then preempts the introspection, stretching the scan by
    /// `1 / (1 − load)` — the attack vector SATIN's non-preemptive
    /// configuration (§V-B) closes.
    ///
    /// # Panics
    ///
    /// Panics unless `load` is in `[0, 0.9]`.
    pub fn set_ns_interrupt_load(&mut self, load: f64) {
        assert!(
            (0.0..=0.9).contains(&load),
            "interrupt load {load} out of range"
        );
        self.ns_interrupt_load = load;
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.platform.topology().num_cores()
    }

    /// The hardware platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The monitored kernel layout.
    pub fn layout(&self) -> &KernelLayout {
        &self.layout
    }

    /// Normal-world physical memory.
    pub fn mem(&self) -> &PhysMemory {
        &self.mem
    }

    /// Mutable memory access (test setup; experiments use task bodies).
    pub fn mem_mut(&mut self) -> &mut PhysMemory {
        &mut self.mem
    }

    /// The rich OS scheduler.
    pub fn sched(&self) -> &Scheduler {
        &self.sched
    }

    /// A task's bookkeeping record.
    pub fn task(&self, task: TaskId) -> &satin_kernel::Task {
        self.sched.task(task)
    }

    /// A task's accumulated effective work, in effective seconds.
    pub fn work_secs(&self, task: TaskId) -> f64 {
        self.work[task.value() as usize].effective_secs
    }

    /// System counters.
    pub fn stats(&self) -> &SysStats {
        &self.stats
    }

    /// Per-core, per-subsystem counters (shorthand for
    /// `stats().metrics`).
    pub fn metrics(&self) -> &SysMetrics {
        &self.stats.metrics
    }

    /// Secure payload statistics.
    pub fn tsp(&self) -> &TestSecurePayload {
        &self.tsp
    }

    /// The trace log.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// The recorded telemetry timeline (disabled and empty unless built with
    /// [`crate::SystemBuilder::telemetry`]).
    pub fn telemetry(&self) -> &Timeline {
        &self.telemetry
    }

    /// Mutable timeline (e.g. to clear between experiment phases).
    pub fn telemetry_mut(&mut self) -> &mut Timeline {
        &mut self.telemetry
    }

    /// Installs a [`SimObserver`] (e.g. the happens-before recorder of
    /// `satin_analyze::attach`) on the underlying event engine. Observers
    /// are read-only, so this never perturbs a run.
    pub fn set_sim_observer(&mut self, observer: Box<dyn SimObserver<SysEvent>>) {
        self.sim.set_observer(observer);
    }

    /// `true` if `core` is currently in the secure world.
    pub fn core_in_secure_world(&self, core: CoreId) -> bool {
        self.cores.in_secure(core)
    }

    /// Events dispatched so far (diagnostics).
    pub fn events_dispatched(&self) -> u64 {
        self.sim.dispatched()
    }

    /// What the fault injector has done so far — `None` when no fault plan
    /// is active.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    /// Checks whether a scheduled worker abort is due at the current sim
    /// time. Campaign drivers call this between run slices so an injected
    /// abort surfaces as a structured error, never a panic.
    ///
    /// # Errors
    ///
    /// [`satin_faults::FaultError::WorkerAbort`] (wrapped in
    /// [`SatinError::Fault`]) once the abort instant has passed and the
    /// current attempt is still within the abort's attempt budget.
    pub fn check_fault_abort(&self) -> Result<(), SatinError> {
        if let Some(f) = &self.faults {
            f.check_abort(self.sim.now())?;
        }
        Ok(())
    }
}
