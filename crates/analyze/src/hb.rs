//! The happens-before race detector over the machine's semantic mark stream.
//!
//! [`AnalyzeProbe`] installs as the engine's [`SimObserver`]: every dispatched
//! event advances the owning core's [`VectorClock`] slot (program order), and
//! every [`Mark`] both advances the clock and, for cross-core communication
//! marks, merges the sender's clock into the receiver's:
//!
//! - `secure.fire` on core *c* snapshots *c*'s clock; a later
//!   `attack.observe` of *c* joins that snapshot into the observer's clock
//!   (the prober learned of the freeze through the stale time report);
//! - every `attack.observe` joins the observer's clock into a shared
//!   observation channel (slot `num_cores` of every clock); `recovery.begin`
//!   joins the channel back in (the rootkit reacted to the hide signal).
//!
//! Three invariants of the SATIN two-world race are checked on this causal
//! order, each reported as a [`Violation`] naming the offending event pair
//! with sim timestamps and core ids:
//!
//! 1. **Detection-before-publication** ([`ViolationKind::DetectionBeforePublish`]):
//!    a `detection` mark whose introspection session has no `publish` in its
//!    causal past — the normal world would be told of an alarm before the
//!    round's results exist.
//! 2. **Overlapping scan windows** ([`ViolationKind::OverlappingScanWindows`]):
//!    a `scan.begin` on a core whose previous window never closed — one
//!    secure world cannot run two scans at once.
//! 3. **Acausal recovery** ([`ViolationKind::AcausalRecovery`]): an
//!    `attack.restore` landing inside an open scan window with *no*
//!    `attack.observe` anywhere in its causal past — the rootkit cleaned up
//!    during an introspection it could not have known about. (Deliberately
//!    conservative: a restore caused by an *earlier* round's observation may
//!    legitimately land inside a closely-following window, so only a restore
//!    with no observation at all in its past is flagged.)

use crate::vclock::VectorClock;
use satin_sim::{Mark, MarkTag, SimObserver, SimTime};
use satin_system::SysEvent;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// A mark together with the instant it was emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkRecord {
    /// Emission instant.
    pub at: SimTime,
    /// The mark.
    pub mark: Mark,
}

/// The class of a detected happens-before violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A detection published before the round's results were.
    DetectionBeforePublish,
    /// Two scan windows open at once on one core.
    OverlappingScanWindows,
    /// A restore inside a scan window with no observation in its causal past.
    AcausalRecovery,
}

impl ViolationKind {
    /// Stable lowercase name.
    pub(crate) const fn as_str(self) -> &'static str {
        match self {
            ViolationKind::DetectionBeforePublish => "detection-before-publish",
            ViolationKind::OverlappingScanWindows => "overlapping-scan-windows",
            ViolationKind::AcausalRecovery => "acausal-recovery",
        }
    }
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.as_str())
    }
}

/// One detected violation: the offending event, and when available the other
/// half of the offending pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// What was violated.
    pub kind: ViolationKind,
    /// The core the offending event ran on.
    pub core: usize,
    /// The offending event's instant.
    pub at: SimTime,
    /// The paired event's core, if the violation names a pair.
    pub related_core: Option<usize>,
    /// The paired event's instant, if the violation names a pair.
    pub related_at: Option<SimTime>,
    /// Human-readable elaboration.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} core={} t={}ns",
            self.kind,
            self.core,
            self.at.as_nanos()
        )?;
        if let (Some(c), Some(t)) = (self.related_core, self.related_at) {
            write!(f, " paired-with core={c} t={}ns", t.as_nanos())?;
        }
        write!(f, " ({})", self.detail)
    }
}

/// Where a core is within its current introspection session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionPhase {
    Idle,
    Fired,
    Scanning,
    Scanned,
    Published,
}

#[derive(Debug, Clone)]
struct OpenWindow {
    begin: SimTime,
    base: u64,
    len: u64,
}

#[derive(Debug)]
struct Detector {
    num_cores: usize,
    /// Per-core clocks; slot `num_cores` is the shared observation channel.
    clocks: Vec<VectorClock>,
    /// Clock snapshot at each core's most recent `secure.fire`.
    fire_clocks: Vec<Option<VectorClock>>,
    fire_times: Vec<Option<SimTime>>,
    /// Join of every observer's clock at its `attack.observe` marks.
    observe_channel: VectorClock,
    observe_seq: u64,
    /// Clock snapshot at each core's most recent `publish`.
    publish_clocks: Vec<Option<VectorClock>>,
    publish_times: Vec<Option<SimTime>>,
    sessions: Vec<SessionPhase>,
    open_windows: Vec<Option<OpenWindow>>,
    events: u64,
    marks: Vec<MarkRecord>,
    violations: Vec<Violation>,
}

impl Detector {
    fn new(num_cores: usize) -> Self {
        let width = num_cores + 1;
        Detector {
            num_cores,
            clocks: vec![VectorClock::new(width); num_cores],
            fire_clocks: vec![None; num_cores],
            fire_times: vec![None; num_cores],
            observe_channel: VectorClock::new(width),
            observe_seq: 0,
            publish_clocks: vec![None; num_cores],
            publish_times: vec![None; num_cores],
            sessions: vec![SessionPhase::Idle; num_cores],
            open_windows: vec![None; num_cores],
            events: 0,
            marks: Vec::new(),
            violations: Vec::new(),
        }
    }

    fn on_event(&mut self, event: &SysEvent) {
        self.events += 1;
        if let Some(core) = event_core(event) {
            if core < self.num_cores {
                self.clocks[core].tick(core);
            }
        }
    }

    fn on_mark(&mut self, at: SimTime, mark: &Mark) {
        self.marks.push(MarkRecord { at, mark: *mark });
        let core = mark.core;
        if core >= self.num_cores {
            return; // malformed core id: nothing to attribute the clock to
        }
        self.clocks[core].tick(core);
        match mark.tag {
            MarkTag::SecureFire => {
                self.fire_clocks[core] = Some(self.clocks[core].clone());
                self.fire_times[core] = Some(at);
                self.sessions[core] = SessionPhase::Fired;
            }
            MarkTag::ScanBegin => {
                if let Some(open) = &self.open_windows[core] {
                    self.violations.push(Violation {
                        kind: ViolationKind::OverlappingScanWindows,
                        core,
                        at,
                        related_core: Some(core),
                        related_at: Some(open.begin),
                        detail: format!(
                            "scan.begin base={:#x} len={} while the window opened at \
                             t={}ns (base={:#x} len={}) is still open",
                            mark.a,
                            mark.b,
                            open.begin.as_nanos(),
                            open.base,
                            open.len
                        ),
                    });
                }
                self.open_windows[core] = Some(OpenWindow {
                    begin: at,
                    base: mark.a,
                    len: mark.b,
                });
                self.sessions[core] = SessionPhase::Scanning;
            }
            MarkTag::ScanEnd => {
                self.open_windows[core] = None;
                self.sessions[core] = SessionPhase::Scanned;
            }
            MarkTag::Publish => {
                self.publish_clocks[core] = Some(self.clocks[core].clone());
                self.publish_times[core] = Some(at);
                self.sessions[core] = SessionPhase::Published;
            }
            MarkTag::Detection => {
                let published = self.sessions[core] == SessionPhase::Published
                    && self.publish_clocks[core]
                        .as_ref()
                        .is_some_and(|p| p.leq(&self.clocks[core]));
                if !published {
                    self.violations.push(Violation {
                        kind: ViolationKind::DetectionBeforePublish,
                        core,
                        at,
                        related_core: self.fire_times[core].map(|_| core),
                        related_at: self.fire_times[core],
                        detail: format!(
                            "detection (alarms={}) with no publish in the session's \
                             causal past (phase {:?})",
                            mark.b, self.sessions[core]
                        ),
                    });
                }
            }
            MarkTag::AttackObserve => {
                // The observer learned of the watched core's freeze: the
                // watched core's fire happens-before this observation.
                let watched = mark.a as usize;
                if watched < self.num_cores {
                    if let Some(fire) = self.fire_clocks[watched].clone() {
                        self.clocks[core].merge(&fire);
                    }
                }
                self.observe_seq += 1;
                let seq = self.observe_seq;
                self.clocks[core].raise(self.num_cores, seq);
                let snapshot = self.clocks[core].clone();
                self.observe_channel.merge(&snapshot);
            }
            MarkTag::AttackInstall => {}
            MarkTag::RecoveryBegin => {
                // The rootkit reacted to the hide signal: every observation
                // so far happens-before this recovery.
                let channel = self.observe_channel.clone();
                self.clocks[core].merge(&channel);
            }
            MarkTag::AttackRestore => {
                let observed = self.clocks[core].get(self.num_cores) > 0;
                if !observed {
                    let inside: Vec<(usize, &OpenWindow)> = self
                        .open_windows
                        .iter()
                        .enumerate()
                        .filter_map(|(c, w)| w.as_ref().map(|w| (c, w)))
                        .collect();
                    if let Some((wcore, w)) = inside.first() {
                        self.violations.push(Violation {
                            kind: ViolationKind::AcausalRecovery,
                            core,
                            at,
                            related_core: Some(*wcore),
                            related_at: Some(w.begin),
                            detail: format!(
                                "attack.restore addr={:#x} inside the scan window open \
                                 since t={}ns with no attack.observe in its causal past",
                                mark.a,
                                w.begin.as_nanos()
                            ),
                        });
                    }
                }
            }
        }
    }

    fn report(&self) -> RaceReport {
        let mut mark_counts = BTreeMap::new();
        for m in &self.marks {
            *mark_counts
                .entry(m.mark.tag.as_str().to_string())
                .or_insert(0u64) += 1;
        }
        RaceReport {
            num_cores: self.num_cores,
            events: self.events,
            mark_counts,
            marks: self.marks.clone(),
            violations: self.violations.clone(),
        }
    }
}

/// The core a [`SysEvent`] is attributed to (`TaskWake` carries none).
fn event_core(event: &SysEvent) -> Option<usize> {
    match event {
        SysEvent::TickBoundary { core }
        | SysEvent::Dispatch { core }
        | SysEvent::TaskDone { core, .. }
        | SysEvent::SecureTimerFire { core, .. }
        | SysEvent::SecureDone { core } => Some(core.index()),
        SysEvent::TaskWake { .. } => None,
    }
}

/// Everything the detector saw, cloned out of the shared state: plain data,
/// safe to move across threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// Cores the probe was built for.
    pub num_cores: usize,
    /// Engine events dispatched while the probe was installed.
    pub events: u64,
    /// Marks seen, keyed by tag name (name order, deterministic).
    pub mark_counts: BTreeMap<String, u64>,
    /// The full mark log in emission order (input to the invariant audit).
    pub marks: Vec<MarkRecord>,
    /// Detected violations, in detection order.
    pub violations: Vec<Violation>,
}

impl RaceReport {
    /// `true` when no happens-before violation was detected.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Deterministic one-line-per-violation rendering (the golden-fixture
    /// snapshots pin this format).
    pub fn render_violations(&self) -> String {
        if self.violations.is_empty() {
            return "no violations\n".to_string();
        }
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }
}

/// The [`SimObserver`] half: install with
/// [`satin_system::System::set_sim_observer`].
#[derive(Debug)]
pub struct AnalyzeProbe {
    state: Rc<RefCell<Detector>>,
}

/// The caller-side handle onto the probe's findings.
#[derive(Debug, Clone)]
pub struct AnalyzeHandle {
    state: Rc<RefCell<Detector>>,
}

impl AnalyzeProbe {
    /// A probe for a `num_cores`-core machine plus the handle reading it.
    pub fn shared(num_cores: usize) -> (AnalyzeProbe, AnalyzeHandle) {
        let state = Rc::new(RefCell::new(Detector::new(num_cores)));
        (
            AnalyzeProbe {
                state: Rc::clone(&state),
            },
            AnalyzeHandle { state },
        )
    }
}

impl AnalyzeHandle {
    /// A snapshot of everything the detector has seen so far.
    pub fn report(&self) -> RaceReport {
        self.state.borrow().report()
    }
}

impl SimObserver<SysEvent> for AnalyzeProbe {
    fn on_dispatched(&mut self, _time: SimTime, _seq: u64, event: &SysEvent, _depth: usize) {
        self.state.borrow_mut().on_event(event);
    }

    fn on_mark(&mut self, at: SimTime, mark: &Mark) {
        self.state.borrow_mut().on_mark(at, mark);
    }
}

/// Builds a probe sized to `sys`, installs it as the machine's sim observer,
/// and returns the reading handle.
pub fn attach(sys: &mut satin_system::System) -> AnalyzeHandle {
    let (probe, handle) = AnalyzeProbe::shared(sys.num_cores());
    sys.set_sim_observer(Box::new(probe));
    handle
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(probe: &mut AnalyzeProbe, t_ns: u64, mark: Mark) {
        probe.on_mark(SimTime::from_nanos(t_ns), &mark);
    }

    fn session(probe: &mut AnalyzeProbe, core: usize, t_ns: u64, detect: bool) {
        feed(probe, t_ns, Mark::new(MarkTag::SecureFire, core));
        feed(
            probe,
            t_ns + 10,
            Mark::with_args(MarkTag::ScanBegin, core, 0x8000_0000, 4096),
        );
        feed(probe, t_ns + 1_000, Mark::new(MarkTag::ScanEnd, core));
        feed(
            probe,
            t_ns + 1_100,
            Mark::with_args(MarkTag::Publish, core, t_ns + 1_100, 0),
        );
        if detect {
            feed(
                probe,
                t_ns + 1_100,
                Mark::with_args(MarkTag::Detection, core, t_ns + 1_100, 1),
            );
        }
    }

    #[test]
    fn clean_session_has_no_violations() {
        let (mut probe, handle) = AnalyzeProbe::shared(2);
        session(&mut probe, 0, 1_000, true);
        session(&mut probe, 1, 10_000, false);
        let r = handle.report();
        assert!(r.is_clean(), "{}", r.render_violations());
        assert_eq!(r.mark_counts["secure.fire"], 2);
        assert_eq!(r.mark_counts["detection"], 1);
        assert_eq!(r.render_violations(), "no violations\n");
    }

    #[test]
    fn detection_without_publish_is_flagged() {
        let (mut probe, handle) = AnalyzeProbe::shared(2);
        feed(&mut probe, 100, Mark::new(MarkTag::SecureFire, 0));
        feed(
            &mut probe,
            110,
            Mark::with_args(MarkTag::ScanBegin, 0, 0, 64),
        );
        feed(&mut probe, 200, Mark::new(MarkTag::ScanEnd, 0));
        // Publish never arrives; the detection is acausal.
        feed(
            &mut probe,
            250,
            Mark::with_args(MarkTag::Detection, 0, 250, 1),
        );
        let r = handle.report();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].kind, ViolationKind::DetectionBeforePublish);
        assert_eq!(r.violations[0].core, 0);
        assert_eq!(r.violations[0].at, SimTime::from_nanos(250));
    }

    #[test]
    fn overlapping_windows_are_flagged() {
        let (mut probe, handle) = AnalyzeProbe::shared(1);
        feed(&mut probe, 100, Mark::new(MarkTag::SecureFire, 0));
        feed(
            &mut probe,
            110,
            Mark::with_args(MarkTag::ScanBegin, 0, 0, 64),
        );
        // Second begin before the first window closed.
        feed(
            &mut probe,
            150,
            Mark::with_args(MarkTag::ScanBegin, 0, 64, 64),
        );
        let r = handle.report();
        assert_eq!(r.violations.len(), 1);
        let v = &r.violations[0];
        assert_eq!(v.kind, ViolationKind::OverlappingScanWindows);
        assert_eq!(v.related_at, Some(SimTime::from_nanos(110)));
    }

    #[test]
    fn acausal_restore_is_flagged_but_observed_restore_is_not() {
        // Acausal: restore inside an open window, no observe anywhere.
        let (mut probe, handle) = AnalyzeProbe::shared(2);
        feed(&mut probe, 100, Mark::new(MarkTag::SecureFire, 0));
        feed(
            &mut probe,
            110,
            Mark::with_args(MarkTag::ScanBegin, 0, 0, 1 << 20),
        );
        feed(
            &mut probe,
            500,
            Mark::with_args(MarkTag::AttackRestore, 1, 0xBAD, 0),
        );
        let r = handle.report();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].kind, ViolationKind::AcausalRecovery);

        // Causal: the same restore after an observation of the frozen core.
        let (mut probe, handle) = AnalyzeProbe::shared(2);
        feed(&mut probe, 100, Mark::new(MarkTag::SecureFire, 0));
        feed(
            &mut probe,
            110,
            Mark::with_args(MarkTag::ScanBegin, 0, 0, 1 << 20),
        );
        feed(
            &mut probe,
            300,
            Mark::with_args(MarkTag::AttackObserve, 1, 0, 0),
        );
        feed(&mut probe, 320, Mark::new(MarkTag::RecoveryBegin, 1));
        feed(
            &mut probe,
            500,
            Mark::with_args(MarkTag::AttackRestore, 1, 0xBAD, 0),
        );
        assert!(handle.report().is_clean());
    }

    #[test]
    fn recovery_on_helper_core_inherits_observation_through_channel() {
        // Observer on core 1, recovery claimed on core 2: the observation
        // channel must carry the edge across cores.
        let (mut probe, handle) = AnalyzeProbe::shared(3);
        feed(&mut probe, 100, Mark::new(MarkTag::SecureFire, 0));
        feed(
            &mut probe,
            110,
            Mark::with_args(MarkTag::ScanBegin, 0, 0, 1 << 20),
        );
        feed(
            &mut probe,
            300,
            Mark::with_args(MarkTag::AttackObserve, 1, 0, 0),
        );
        feed(&mut probe, 350, Mark::new(MarkTag::RecoveryBegin, 2));
        feed(
            &mut probe,
            900,
            Mark::with_args(MarkTag::AttackRestore, 2, 0xBAD, 0),
        );
        assert!(handle.report().is_clean());
    }

    #[test]
    fn event_core_attribution() {
        use satin_hw::CoreId;
        use satin_kernel::TaskId;
        assert_eq!(
            event_core(&SysEvent::Dispatch {
                core: CoreId::new(3)
            }),
            Some(3)
        );
        assert_eq!(
            event_core(&SysEvent::TaskWake {
                task: TaskId::new(0)
            }),
            None
        );
    }
}
