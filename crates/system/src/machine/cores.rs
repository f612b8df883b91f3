//! Per-core state shared by the normal and secure paths, laid out as a
//! struct-of-arrays.
//!
//! The event loop touches few field families per event — `try_dispatch`
//! reads running/token, the secure exit sweeps the two pollution arrays
//! machine-wide — so each family lives in its own dense array indexed by
//! [`CoreId`]. The machine-wide pollution sweep is then two contiguous
//! array passes instead of a stride across full per-core records
//! (DESIGN.md §13).

use crate::body::Then;
use satin_hw::CoreId;
use satin_kernel::TaskId;
use satin_sim::SimTime;
use satin_telemetry::SpanId;

/// The busy period currently executing on a core.
#[derive(Debug, Clone, Copy)]
pub(super) struct Running {
    pub(super) task: TaskId,
    pub(super) started: SimTime,
    pub(super) busy_end: SimTime,
    pub(super) then: Then,
    /// Stale-completion guard: a `TaskDone` event only lands if its token
    /// matches the period that scheduled it (preemption invalidates it).
    pub(super) token: u64,
}

/// A core's residency in the secure world.
#[derive(Debug, Clone, Copy)]
pub(super) struct SecureSession {
    pub(super) fired: SimTime,
    pub(super) scan_end: SimTime,
    /// The session's root telemetry span ([`SpanId::DETACHED`] when
    /// telemetry is off), closed at world-switch out.
    pub(super) span: SpanId,
}

/// Everything the event loop tracks per core, one array per field family.
/// All arrays have the same length (the core count), so `CoreId::index`
/// is valid in every one of them.
pub(super) struct CoreStates {
    running: Vec<Option<Running>>,
    next_token: Vec<u64>,
    /// Generation guard for `SecureTimerFire`: re-arming bumps it, so a
    /// superseded (already-queued) fire is ignored on delivery.
    timer_gen: Vec<u64>,
    secure: Vec<Option<SecureSession>>,
    pollution_until: Vec<SimTime>,
    /// Strength multiplier of the current interference window (scaled by
    /// how loaded the machine was when the window opened — interrupting a
    /// busy machine disturbs more state, which is why the paper's 6-task
    /// overhead exceeds the 1-task overhead).
    pollution_strength: Vec<f64>,
}

impl CoreStates {
    pub(super) fn new(n: usize) -> Self {
        CoreStates {
            running: vec![None; n],
            next_token: vec![0; n],
            timer_gen: vec![0; n],
            secure: vec![None; n],
            pollution_until: vec![SimTime::ZERO; n],
            pollution_strength: vec![1.0; n],
        }
    }

    pub(super) fn len(&self) -> usize {
        self.running.len()
    }

    /// The busy period running on `core` (copied out; `Running` is small).
    pub(super) fn running(&self, core: CoreId) -> Option<Running> {
        self.running[core.index()]
    }

    pub(super) fn running_mut(&mut self, core: CoreId) -> &mut Option<Running> {
        &mut self.running[core.index()]
    }

    /// Returns the next stale-completion token for `core` and advances it.
    pub(super) fn take_token(&mut self, core: CoreId) -> u64 {
        let token = self.next_token[core.index()];
        self.next_token[core.index()] += 1;
        token
    }

    pub(super) fn timer_gen(&self, core: CoreId) -> u64 {
        self.timer_gen[core.index()]
    }

    pub(super) fn bump_timer_gen(&mut self, core: CoreId) {
        self.timer_gen[core.index()] += 1;
    }

    pub(super) fn secure(&self, core: CoreId) -> Option<SecureSession> {
        self.secure[core.index()]
    }

    pub(super) fn in_secure(&self, core: CoreId) -> bool {
        self.secure[core.index()].is_some()
    }

    pub(super) fn set_secure(&mut self, core: CoreId, session: Option<SecureSession>) {
        self.secure[core.index()] = session;
    }

    /// The interference window affecting `core`: `(until, strength)`.
    pub(super) fn pollution(&self, core: CoreId) -> (SimTime, f64) {
        (
            self.pollution_until[core.index()],
            self.pollution_strength[core.index()],
        )
    }

    /// Opens a machine-wide interference window: every core's deadline is
    /// pushed to at least `until`, and the strength is replaced. Two dense
    /// array sweeps — the SoA layout's best case.
    pub(super) fn open_pollution_window(&mut self, until: SimTime, strength: f64) {
        for u in &mut self.pollution_until {
            *u = u.max_of(until);
        }
        for s in &mut self.pollution_strength {
            *s = strength;
        }
    }
}
