//! Tasks: the unit of normal-world scheduling.

use satin_hw::CoreId;
use satin_sim::SimDuration;
use std::fmt;

/// Identifier of a kernel task (thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(u64);

impl TaskId {
    /// Wraps a raw id.
    pub const fn new(id: u64) -> Self {
        TaskId(id)
    }

    /// The raw id.
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Scheduling class, mirroring Linux's class hierarchy: the RT class always
/// preempts the fair (CFS) class; within RT FIFO, higher priority wins and
/// equal priorities run to completion in FIFO order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedClass {
    /// Completely Fair Scheduler with a nice value in `[-20, 19]`.
    Cfs {
        /// Nice value: lower is more CPU share.
        nice: i8,
    },
    /// `SCHED_FIFO` real-time class with priority `1..=99` (higher wins).
    /// KProber-II uses `sched_get_priority_max(SCHED_FIFO)` = 99 (§IV-A1).
    RtFifo {
        /// Real-time priority, 1..=99.
        priority: u8,
    },
}

impl SchedClass {
    /// The default CFS class (nice 0).
    pub const fn cfs() -> Self {
        SchedClass::Cfs { nice: 0 }
    }

    /// The maximum-priority `SCHED_FIFO` class KProber-II requests.
    pub const fn rt_max() -> Self {
        SchedClass::RtFifo { priority: 99 }
    }

    /// Validates class parameters.
    ///
    /// # Panics
    ///
    /// Panics if nice is outside `[-20, 19]` or RT priority outside `[1, 99]`.
    pub(crate) fn validate(self) {
        match self {
            SchedClass::Cfs { nice } => {
                assert!((-20..=19).contains(&nice), "nice {nice} out of range")
            }
            SchedClass::RtFifo { priority } => assert!(
                (1..=99).contains(&priority),
                "RT priority {priority} out of range"
            ),
        }
    }
}

/// CPU affinity mask.
///
/// The paper's probers pin one thread per core precisely so the OS cannot
/// migrate a paused thread off a core that entered the secure world
/// (§III-B1) — migration would destroy the side channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Affinity {
    mask: u64,
}

impl Affinity {
    /// Allows all of the first `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is 0 or greater than 64.
    pub fn any(num_cores: usize) -> Self {
        assert!((1..=64).contains(&num_cores), "bad core count {num_cores}");
        Affinity {
            mask: if num_cores == 64 {
                u64::MAX
            } else {
                (1u64 << num_cores) - 1
            },
        }
    }

    /// Pins to a single core.
    ///
    /// # Panics
    ///
    /// Panics if the core index is ≥ 64.
    pub fn pinned(core: CoreId) -> Self {
        assert!(core.index() < 64, "core index too large");
        Affinity {
            mask: 1u64 << core.index(),
        }
    }

    /// Iterates allowed core indices (ascending).
    ///
    /// Walks only the set bits (lowest first, then clear it), so a pinned
    /// task's wake costs one step rather than a 64-bit scan.
    pub(crate) fn cores(self) -> impl Iterator<Item = CoreId> {
        let mut rest = self.mask;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            Some(CoreId::new(i))
        })
    }
}

/// Lifecycle state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskState {
    /// Waiting on a runqueue.
    Runnable,
    /// Currently on a CPU.
    Running,
    /// Sleeping until a timer wake.
    Sleeping,
    /// Blocked on an event (no timer).
    Blocked,
    /// Finished.
    Exited,
}

/// A kernel task: bookkeeping only — the *behaviour* of a task is a
/// `ThreadBody` plugged in at the `satin-system` layer.
#[derive(Debug, Clone)]
pub struct Task {
    class: SchedClass,
    affinity: Affinity,
    state: TaskState,
    /// CFS virtual runtime, weighted nanoseconds.
    vruntime: u64,
    /// Core the task last ran on (dirty-cache heuristic for wake placement).
    last_core: Option<CoreId>,
    /// Total CPU time consumed.
    cpu_time: SimDuration,
}

impl Task {
    /// Creates a task in the [`TaskState::Blocked`] state (it becomes
    /// runnable when the scheduler wakes it).
    ///
    /// # Panics
    ///
    /// Panics if the scheduling class parameters are invalid.
    pub(crate) fn new(class: SchedClass, affinity: Affinity) -> Self {
        class.validate();
        Task {
            class,
            affinity,
            state: TaskState::Blocked,
            vruntime: 0,
            last_core: None,
            cpu_time: SimDuration::ZERO,
        }
    }

    /// Scheduling class.
    pub fn class(&self) -> SchedClass {
        self.class
    }

    /// Affinity mask.
    pub(crate) fn affinity(&self) -> Affinity {
        self.affinity
    }

    /// Current state.
    pub(crate) fn state(&self) -> TaskState {
        self.state
    }

    /// CFS virtual runtime.
    pub(crate) fn vruntime(&self) -> u64 {
        self.vruntime
    }

    /// Core the task last ran on.
    pub(crate) fn last_core(&self) -> Option<CoreId> {
        self.last_core
    }

    /// Total CPU time consumed.
    pub fn cpu_time(&self) -> SimDuration {
        self.cpu_time
    }

    pub(crate) fn set_state(&mut self, state: TaskState) {
        self.state = state;
    }

    pub(crate) fn set_last_core(&mut self, core: CoreId) {
        self.last_core = Some(core);
    }

    pub(crate) fn add_vruntime(&mut self, delta: u64) {
        self.vruntime = self.vruntime.saturating_add(delta);
    }

    pub(crate) fn set_vruntime(&mut self, v: u64) {
        self.vruntime = v;
    }

    pub(crate) fn add_cpu_time(&mut self, d: SimDuration) {
        self.cpu_time += d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn affinity_any_and_pinned() {
        let a = Affinity::any(6);
        assert_eq!(
            a.cores().collect::<Vec<_>>(),
            (0..6).map(CoreId::new).collect::<Vec<_>>()
        );
        let p = Affinity::pinned(CoreId::new(3));
        assert_eq!(p.cores().collect::<Vec<_>>(), vec![CoreId::new(3)]);
    }

    #[test]
    fn affinity_64_cores() {
        let a = Affinity::any(64);
        assert_eq!(a.cores().count(), 64);
    }

    /// The naive reference for [`Affinity::cores`]: test all 64 bits.
    fn cores_by_scan(mask: u64) -> Vec<CoreId> {
        (0..64)
            .filter(|i| mask & (1 << i) != 0)
            .map(CoreId::new)
            .collect()
    }

    #[test]
    fn cores_walk_matches_the_scan_at_the_edges() {
        for mask in [
            0,
            1,
            1 << 63,
            u64::MAX,
            u64::MAX >> 1,
            0x8000_0000_0000_0001,
        ] {
            let got: Vec<_> = Affinity { mask }.cores().collect();
            assert_eq!(got, cores_by_scan(mask), "mask {mask:#x}");
        }
    }

    proptest! {
        /// The set-bit walk yields exactly the scan's cores, ascending.
        #[test]
        fn prop_cores_walk_matches_the_scan(
            dense in any::<u64>(),
            bits in proptest::collection::vec(0u32..64, 0..8),
        ) {
            // A uniform mask is about half ones; the OR of a few chosen
            // bits gives the sparse masks real affinities have.
            let sparse = bits.iter().fold(0u64, |m, b| m | 1 << b);
            for mask in [dense, sparse, dense & sparse, !sparse] {
                let got: Vec<_> = Affinity { mask }.cores().collect();
                prop_assert_eq!(got, cores_by_scan(mask));
            }
        }
    }

    #[test]
    #[should_panic(expected = "bad core count")]
    fn affinity_zero_rejected() {
        Affinity::any(0);
    }

    #[test]
    fn class_validation() {
        SchedClass::Cfs { nice: -20 }.validate();
        SchedClass::RtFifo { priority: 99 }.validate();
        assert_eq!(SchedClass::rt_max(), SchedClass::RtFifo { priority: 99 });
        assert_eq!(SchedClass::cfs(), SchedClass::Cfs { nice: 0 });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_rt_priority() {
        SchedClass::RtFifo { priority: 0 }.validate();
    }

    #[test]
    fn task_bookkeeping() {
        let mut t = Task::new(SchedClass::rt_max(), Affinity::pinned(CoreId::new(2)));
        assert_eq!(t.state(), TaskState::Blocked);
        t.set_state(TaskState::Runnable);
        t.add_cpu_time(SimDuration::from_micros(5));
        t.add_vruntime(100);
        t.set_last_core(CoreId::new(2));
        assert_eq!(t.state(), TaskState::Runnable);
        assert_eq!(t.cpu_time(), SimDuration::from_micros(5));
        assert_eq!(t.vruntime(), 100);
        assert_eq!(t.last_core(), Some(CoreId::new(2)));
        assert_eq!(TaskId::new(1).to_string(), "task1");
    }
}
