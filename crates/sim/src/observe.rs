//! Passive instrumentation hooks on the simulation engine.
//!
//! A [`SimObserver`] sees every event the [`Simulator`] schedules and
//! dispatches, together with the queue sequence number that determines FIFO
//! tie-breaking and the queue depth at that instant. Observers are strictly
//! read-only with respect to the simulation: they cannot schedule, cancel, or
//! reorder events, so installing one can never change an experiment's
//! outcome — only record it. The engine runs with no observer by default and
//! pays nothing for the feature beyond an `Option` check.
//!
//! [`Simulator`]: crate::Simulator

use crate::time::SimTime;

/// The semantic tag of a [`Mark`].
///
/// Marks describe *what the machine meant* at an instant — a secure-timer
/// fire, a scan-window boundary, a publication — in a typed vocabulary that
/// analysis observers (e.g. a happens-before race detector) can consume
/// without parsing trace strings. The vocabulary is deliberately small: one
/// variant per causally interesting boundary in the SATIN two-world race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MarkTag {
    /// A secure timer fired and the core is entering the secure world.
    SecureFire,
    /// An introspection scan window opened (`a` = window base address,
    /// `b` = window length in bytes).
    ScanBegin,
    /// The scan window closed (hashing finished; results not yet visible).
    ScanEnd,
    /// The round's results became visible to the normal world (`a` = the
    /// visibility instant in nanoseconds — the world-switch-out completion,
    /// which can lie *after* the instant the mark was emitted).
    Publish,
    /// The round raised an integrity alarm (`a` = visibility instant in
    /// nanoseconds, `b` = number of alarms raised this round).
    Detection,
    /// A prober thread observed evidence of an introspection (stale time
    /// report over threshold; `a` = index of the watched core).
    AttackObserve,
    /// The rootkit wrote its hijack (`a` = hijacked address).
    AttackInstall,
    /// The rootkit claimed a pending hide and began recovering.
    RecoveryBegin,
    /// The rootkit finished recovery and restored genuine bytes
    /// (`a` = restored address).
    AttackRestore,
}

impl MarkTag {
    /// Stable lowercase name, e.g. `"secure.fire"`.
    pub const fn as_str(self) -> &'static str {
        match self {
            MarkTag::SecureFire => "secure.fire",
            MarkTag::ScanBegin => "scan.begin",
            MarkTag::ScanEnd => "scan.end",
            MarkTag::Publish => "publish",
            MarkTag::Detection => "detection",
            MarkTag::AttackObserve => "attack.observe",
            MarkTag::AttackInstall => "attack.install",
            MarkTag::RecoveryBegin => "recovery.begin",
            MarkTag::AttackRestore => "attack.restore",
        }
    }
}

impl std::fmt::Display for MarkTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.as_str())
    }
}

/// A typed semantic annotation forwarded to the installed [`SimObserver`].
///
/// Unlike events, marks are never queued: [`Simulator::mark`] forwards them
/// to the observer immediately at the current simulated time, interleaved
/// with the dispatch stream in emission order. With no observer installed a
/// mark is a no-op, so emitting them can never perturb a run.
///
/// [`Simulator::mark`]: crate::Simulator::mark
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mark {
    /// What happened.
    pub tag: MarkTag,
    /// The core the event is attributed to.
    pub core: usize,
    /// First tag-specific argument (see [`MarkTag`] docs).
    pub a: u64,
    /// Second tag-specific argument (see [`MarkTag`] docs).
    pub b: u64,
}

impl Mark {
    /// A mark with both arguments zero.
    pub const fn new(tag: MarkTag, core: usize) -> Self {
        Mark {
            tag,
            core,
            a: 0,
            b: 0,
        }
    }

    /// A mark with explicit arguments.
    pub const fn with_args(tag: MarkTag, core: usize, a: u64, b: u64) -> Self {
        Mark { tag, core, a, b }
    }
}

/// Hooks invoked by the [`Simulator`](crate::Simulator) engine loop.
///
/// All methods have empty default bodies so an observer only implements the
/// hooks it cares about.
///
/// # Example
///
/// ```
/// use satin_sim::{SimObserver, SimTime, Simulator, SimDuration};
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// #[derive(Default)]
/// struct SeqRecorder(Rc<RefCell<Vec<u64>>>);
///
/// impl SimObserver<&'static str> for SeqRecorder {
///     fn on_dispatched(&mut self, _: SimTime, seq: u64, _: &&'static str, _: usize) {
///         self.0.borrow_mut().push(seq);
///     }
/// }
///
/// let seen = Rc::new(RefCell::new(Vec::new()));
/// let mut sim = Simulator::new();
/// sim.set_observer(Box::new(SeqRecorder(Rc::clone(&seen))));
/// sim.schedule_after(SimDuration::from_nanos(5), "b");
/// sim.schedule_after(SimDuration::from_nanos(5), "c");
/// sim.schedule_after(SimDuration::from_nanos(1), "a");
/// while sim.pop().is_some() {}
/// assert_eq!(*seen.borrow(), vec![2, 0, 1]); // "a" first, then FIFO ties
/// ```
pub trait SimObserver<E> {
    /// Called when an event is accepted into the queue.
    ///
    /// `seq` is the queue sequence number assigned to the event (the FIFO
    /// tie-breaker among equal times) and `queue_depth` is the number of
    /// pending events *including* this one.
    fn on_scheduled(&mut self, at: SimTime, seq: u64, event: &E, queue_depth: usize) {
        let _ = (at, seq, event, queue_depth);
    }

    /// Called when an event is popped for dispatch, after the clock has
    /// advanced to its timestamp.
    ///
    /// `queue_depth` is the number of events still pending *after* this one
    /// was removed.
    fn on_dispatched(&mut self, time: SimTime, seq: u64, event: &E, queue_depth: usize) {
        let _ = (time, seq, event, queue_depth);
    }

    /// Called when a component emits a semantic [`Mark`] via
    /// [`Simulator::mark`](crate::Simulator::mark), at the current simulated
    /// time. Marks interleave with dispatches in emission order: a mark
    /// emitted while handling event `e` arrives after `on_dispatched(e)` and
    /// before the next dispatch.
    fn on_mark(&mut self, at: SimTime, mark: &Mark) {
        let _ = (at, mark);
    }
}
