//! The benchmark's two measuring seams, both public in the program:
//!
//! - [`Tracer`], a [`SimObserver`] installed with `System::set_sim_observer`,
//!   counts each dispatched event kind, tracks the queue high-water mark and
//!   reads the host clock at every dispatch. The host time from one dispatch
//!   to the next is charged to the earlier event's kind, so the per-kind
//!   times tile the simulated part of a cell.
//! - [`TimedService`], a [`SecureService`] wrapper around the defense, times
//!   its boot, timer and scan-result handlers and counts the bytes scanned.
//!
//! Both write into shared [`Rc<RefCell<_>>`] cells, because the system takes
//! ownership of the boxed observer and service.

use satin_hw::CoreId;
use satin_obs::HostClock;
use satin_sim::{Mark, MarkTag, SimObserver, SimTime};
use satin_system::{BootCtx, SatinError, ScanRequest, SecureCtx, SecureService, SysEvent};
use std::cell::RefCell;
use std::rc::Rc;

/// Event kinds in report order; [`kind_index`] maps a [`SysEvent`] here.
pub const KINDS: [&str; 6] = [
    "tick",
    "task_wake",
    "dispatch",
    "task_done",
    "secure_fire",
    "secure_done",
];

/// The [`KINDS`] slot of an event.
fn kind_index(event: &SysEvent) -> usize {
    match event {
        SysEvent::TickBoundary { .. } => 0,
        SysEvent::TaskWake { .. } => 1,
        SysEvent::Dispatch { .. } => 2,
        SysEvent::TaskDone { .. } => 3,
        SysEvent::SecureTimerFire { .. } => 4,
        SysEvent::SecureDone { .. } => 5,
    }
}

/// What a [`Tracer`] saw over one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimProfile {
    /// Dispatched events per kind.
    pub events: [u64; 6],
    /// Host ns charged per kind (dispatch to next dispatch).
    pub host_ns: [u64; 6],
    /// Highest pending-event count seen.
    pub queue_depth_max: usize,
    /// `attack.observe` marks: prober observations of an introspection.
    pub observations: u64,
    last: Option<(usize, u64)>,
}

impl SimProfile {
    /// Total events dispatched.
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }

    /// Total host ns charged to event kinds.
    pub fn total_host_ns(&self) -> u64 {
        self.host_ns.iter().sum()
    }

    /// Charges the interval since the last dispatch to its kind and closes
    /// the run; call once the simulation loop returns.
    pub fn finish(&mut self, now_ns: u64) {
        if let Some((kind, at)) = self.last.take() {
            self.host_ns[kind] += now_ns.saturating_sub(at);
        }
    }

    /// Adds another run's profile (counts and times sum, depth maxes).
    pub fn add(&mut self, other: &SimProfile) {
        for k in 0..KINDS.len() {
            self.events[k] += other.events[k];
            self.host_ns[k] += other.host_ns[k];
        }
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.observations += other.observations;
    }
}

/// The benchmark's sim observer (see module docs).
pub struct Tracer {
    clock: HostClock,
    profile: Rc<RefCell<SimProfile>>,
}

impl Tracer {
    /// An observer timing with `clock` into `profile`.
    pub fn new(clock: HostClock, profile: Rc<RefCell<SimProfile>>) -> Self {
        Tracer { clock, profile }
    }
}

impl SimObserver<SysEvent> for Tracer {
    fn on_scheduled(&mut self, _: SimTime, _: u64, _: &SysEvent, queue_depth: usize) {
        let mut p = self.profile.borrow_mut();
        p.queue_depth_max = p.queue_depth_max.max(queue_depth);
    }

    fn on_dispatched(&mut self, _: SimTime, _: u64, event: &SysEvent, _: usize) {
        let now = self.clock.now_ns();
        let kind = kind_index(event);
        let mut p = self.profile.borrow_mut();
        p.events[kind] += 1;
        if let Some((prev, at)) = p.last {
            p.host_ns[prev] += now.saturating_sub(at);
        }
        p.last = Some((kind, now));
    }

    fn on_mark(&mut self, _: SimTime, mark: &Mark) {
        if mark.tag == MarkTag::AttackObserve {
            self.profile.borrow_mut().observations += 1;
        }
    }
}

/// What a [`TimedService`] saw over one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SecureProfile {
    /// Host ns in `on_boot`.
    pub boot_ns: u64,
    /// `on_secure_timer` calls.
    pub timer_calls: u64,
    /// Host ns in `on_secure_timer`.
    pub timer_ns: u64,
    /// `on_scan_result` calls: one per completed round.
    pub rounds: u64,
    /// Host ns in `on_scan_result`.
    pub scan_result_ns: u64,
    /// Bytes handed to `on_scan_result`.
    pub bytes_scanned: u64,
}

impl SecureProfile {
    /// Adds another run's profile.
    pub fn add(&mut self, other: &SecureProfile) {
        self.boot_ns += other.boot_ns;
        self.timer_calls += other.timer_calls;
        self.timer_ns += other.timer_ns;
        self.rounds += other.rounds;
        self.scan_result_ns += other.scan_result_ns;
        self.bytes_scanned += other.bytes_scanned;
    }
}

/// Times a [`SecureService`]'s handlers (see module docs).
pub struct TimedService<S> {
    inner: S,
    clock: HostClock,
    profile: Rc<RefCell<SecureProfile>>,
}

impl<S> TimedService<S> {
    /// Wraps `inner`, timing with `clock` into `profile`.
    pub fn new(inner: S, clock: HostClock, profile: Rc<RefCell<SecureProfile>>) -> Self {
        TimedService {
            inner,
            clock,
            profile,
        }
    }
}

impl<S: SecureService> SecureService for TimedService<S> {
    fn on_boot(&mut self, ctx: &mut BootCtx<'_>) -> Result<(), SatinError> {
        let t0 = self.clock.now_ns();
        let out = self.inner.on_boot(ctx);
        self.profile.borrow_mut().boot_ns += self.clock.now_ns() - t0;
        out
    }

    fn on_secure_timer(&mut self, core: CoreId, ctx: &mut SecureCtx<'_>) -> Option<ScanRequest> {
        let t0 = self.clock.now_ns();
        let out = self.inner.on_secure_timer(core, ctx);
        let mut p = self.profile.borrow_mut();
        p.timer_calls += 1;
        p.timer_ns += self.clock.now_ns() - t0;
        out
    }

    fn on_scan_result(
        &mut self,
        core: CoreId,
        request: &ScanRequest,
        observed: &[u8],
        ctx: &mut SecureCtx<'_>,
    ) {
        let t0 = self.clock.now_ns();
        self.inner.on_scan_result(core, request, observed, ctx);
        let mut p = self.profile.borrow_mut();
        p.rounds += 1;
        p.scan_result_ns += self.clock.now_ns() - t0;
        p.bytes_scanned += observed.len() as u64;
    }
}
