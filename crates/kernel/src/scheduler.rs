//! The cross-core scheduler: task table, wake placement, preemption policy.

use crate::config::cfs_timeslice;
use crate::runqueue::CoreRunQueue;
use crate::task::{Affinity, SchedClass, Task, TaskId, TaskState};
use crate::weight;
use satin_hw::CoreId;
use satin_sim::SimDuration;

/// The rich OS scheduler over `n` cores.
///
/// This is a pure state machine: it decides *which* task runs *where*; the
/// `satin-system` event loop decides *when* by sampling dispatch latencies
/// and driving ticks. The semantics mirror what the paper's probers rely on:
///
/// - affinity-pinned tasks are never migrated (§III-B1: "we fix the CPU
///   affinity of each thread. Thus, when one core enters the secure world,
///   the attached thread will be paused and cannot be migrated");
/// - `SCHED_FIFO` tasks preempt CFS tasks immediately on wake (§III-C2);
/// - CFS picks the smallest-vruntime task and round-robins via timeslices.
///
/// # Example
///
/// ```
/// use satin_kernel::{Scheduler, SchedClass, Affinity};
/// use satin_hw::CoreId;
///
/// let mut s = Scheduler::new(2);
/// let t = s.spawn("worker", SchedClass::cfs(), Affinity::any(2));
/// let core = s.wake(t).unwrap();
/// assert!(core.index() < 2);
/// let picked = s.pick_next(core).unwrap();
/// assert_eq!(picked, t);
/// s.start_running(core, t);
/// assert_eq!(s.current(core), Some(t));
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler {
    tasks: Vec<Task>,
    queues: Vec<CoreRunQueue>,
    current: Vec<Option<TaskId>>,
}

impl Scheduler {
    /// A scheduler for `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores == 0`.
    pub fn new(num_cores: usize) -> Self {
        assert!(num_cores > 0, "scheduler needs at least one core");
        Scheduler {
            tasks: Vec::new(),
            queues: vec![CoreRunQueue::new(); num_cores],
            current: vec![None; num_cores],
        }
    }

    /// Creates a task (initially [`TaskState::Blocked`]; wake it to run).
    /// The name labels the call site only: tasks are known by their id.
    pub fn spawn(
        &mut self,
        _name: impl Into<String>,
        class: SchedClass,
        affinity: Affinity,
    ) -> TaskId {
        let id = TaskId::new(self.tasks.len() as u64);
        self.tasks.push(Task::new(class, affinity));
        id
    }

    /// The task with id `tid`.
    ///
    /// # Panics
    ///
    /// Panics if `tid` was not spawned by this scheduler.
    pub fn task(&self, tid: TaskId) -> &Task {
        &self.tasks[tid.value() as usize]
    }

    fn task_mut(&mut self, tid: TaskId) -> &mut Task {
        &mut self.tasks[tid.value() as usize]
    }

    /// All tasks.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The task currently running on `core` (if any).
    pub fn current(&self, core: CoreId) -> Option<TaskId> {
        self.current[core.index()]
    }

    /// Queued-runnable count on `core` (excludes the running task).
    pub fn queue_len(&self, core: CoreId) -> usize {
        self.queues[core.index()].len()
    }

    /// Total load on `core`: queued + running.
    pub(crate) fn load(&self, core: CoreId) -> usize {
        self.queue_len(core) + usize::from(self.current(core).is_some())
    }

    /// CFS timeslice for the current contention on `core`.
    pub fn timeslice(&self, core: CoreId) -> SimDuration {
        cfs_timeslice(self.load(core))
    }

    /// Wakes `tid`: places it on a runqueue and returns the chosen core.
    ///
    /// Placement: the least-loaded allowed core, preferring the task's last
    /// core on ties (cache warmth). Pinned tasks always land on their core —
    /// even if that core is currently unavailable to the normal world, which
    /// is exactly the property the prober's side channel needs.
    ///
    /// Returns `None` if the task is already runnable/running or has exited.
    pub fn wake(&mut self, tid: TaskId) -> Option<CoreId> {
        let (state, affinity, class, last) = {
            let t = self.task(tid);
            (t.state(), t.affinity(), t.class(), t.last_core())
        };
        match state {
            TaskState::Blocked | TaskState::Sleeping => {}
            _ => return None,
        }
        let core = self.place(affinity, last);
        // Floor a woken CFS task's vruntime at the queue minimum so sleepers
        // do not monopolise the CPU on wake.
        if let SchedClass::Cfs { .. } = class {
            let floor = self.queues[core.index()].min_vruntime();
            if self.task(tid).vruntime() < floor {
                self.task_mut(tid).set_vruntime(floor);
            }
        }
        self.enqueue(core, tid);
        self.task_mut(tid).set_state(TaskState::Runnable);
        Some(core)
    }

    /// Whether the task just woken on `core` should preempt the running task:
    /// RT beats CFS; higher RT priority beats lower; CFS never preempts on
    /// wake (it waits for the tick).
    pub fn should_preempt(&self, core: CoreId, woken: TaskId) -> bool {
        let Some(cur) = self.current(core) else {
            return true; // idle core: "preempt" the idle loop
        };
        match (self.task(woken).class(), self.task(cur).class()) {
            (SchedClass::RtFifo { priority: wp }, SchedClass::RtFifo { priority: cp }) => wp > cp,
            (SchedClass::RtFifo { .. }, SchedClass::Cfs { .. }) => true,
            (SchedClass::Cfs { .. }, _) => false,
        }
    }

    /// Picks (and dequeues) the next task to run on `core`.
    pub fn pick_next(&mut self, core: CoreId) -> Option<TaskId> {
        self.queues[core.index()].pick_next()
    }

    /// The task `pick_next` would choose, without dequeuing.
    pub fn peek_next(&self, core: CoreId) -> Option<TaskId> {
        self.queues[core.index()].peek_next()
    }

    /// Marks `tid` as running on `core`.
    ///
    /// # Panics
    ///
    /// Panics if another task is already running on `core`.
    pub fn start_running(&mut self, core: CoreId, tid: TaskId) {
        assert!(
            self.current[core.index()].is_none(),
            "{core} already has a running task"
        );
        self.current[core.index()] = Some(tid);
        let t = self.task_mut(tid);
        t.set_state(TaskState::Running);
        t.set_last_core(core);
    }

    /// Accounts `ran_for` of execution to the running task on `core` and
    /// removes it from the CPU, transitioning it to `next_state`.
    ///
    /// If `next_state` is [`TaskState::Runnable`] the task is re-enqueued
    /// (yield/preemption); otherwise it leaves the scheduler's runnable set.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is not the task running on `core`, or if
    /// `next_state` is [`TaskState::Running`].
    pub fn stop_running(
        &mut self,
        core: CoreId,
        tid: TaskId,
        ran_for: SimDuration,
        next_state: TaskState,
    ) {
        assert_eq!(
            self.current[core.index()],
            Some(tid),
            "{tid} is not running on {core}"
        );
        assert!(
            next_state != TaskState::Running,
            "stop_running cannot leave the task Running"
        );
        self.current[core.index()] = None;
        let class = self.task(tid).class();
        {
            let t = self.task_mut(tid);
            t.add_cpu_time(ran_for);
            if let SchedClass::Cfs { nice } = class {
                t.add_vruntime(weight::vruntime_delta(ran_for.as_nanos(), nice));
            }
            t.set_state(next_state);
        }
        if let SchedClass::Cfs { .. } = class {
            let v = self.task(tid).vruntime();
            self.queues[core.index()].advance_min_vruntime(v);
        }
        if next_state == TaskState::Runnable {
            self.enqueue(core, tid);
        }
    }

    fn enqueue(&mut self, core: CoreId, tid: TaskId) {
        debug_assert!(
            !self.queues.iter().any(|q| q.contains(tid)),
            "{tid} is already queued"
        );
        let (class, vruntime) = {
            let t = self.task(tid);
            (t.class(), t.vruntime())
        };
        let q = &mut self.queues[core.index()];
        match class {
            SchedClass::RtFifo { priority } => q.enqueue_rt(priority, tid),
            SchedClass::Cfs { .. } => q.enqueue_cfs(vruntime, tid),
        }
    }

    fn place(&self, affinity: Affinity, last: Option<CoreId>) -> CoreId {
        let mut best: Option<(usize, CoreId)> = None;
        for core in affinity.cores() {
            if core.index() >= self.queues.len() {
                break;
            }
            let load = self.load(core);
            let better = match best {
                None => true,
                Some((bl, bc)) => {
                    load < bl || (load == bl && Some(core) == last && Some(bc) != last)
                }
            };
            if better {
                best = Some((load, core));
            }
        }
        best.expect("affinity allows no core on this machine").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sched(cores: usize) -> Scheduler {
        Scheduler::new(cores)
    }

    #[test]
    fn pinned_task_lands_on_its_core() {
        let mut s = sched(4);
        let t = s.spawn("p", SchedClass::rt_max(), Affinity::pinned(CoreId::new(3)));
        assert_eq!(s.wake(t), Some(CoreId::new(3)));
        assert_eq!(s.pick_next(CoreId::new(3)), Some(t));
        assert_eq!(s.pick_next(CoreId::new(0)), None);
    }

    #[test]
    fn wake_prefers_least_loaded_core() {
        let mut s = sched(2);
        // Load core 0 with a running task.
        let a = s.spawn("a", SchedClass::cfs(), Affinity::pinned(CoreId::new(0)));
        s.wake(a);
        let a = s.pick_next(CoreId::new(0)).unwrap();
        s.start_running(CoreId::new(0), a);
        // An any-core task should now go to core 1.
        let b = s.spawn("b", SchedClass::cfs(), Affinity::any(2));
        assert_eq!(s.wake(b), Some(CoreId::new(1)));
    }

    #[test]
    fn rt_preempts_cfs_only() {
        let mut s = sched(1);
        let cfs = s.spawn("cfs", SchedClass::cfs(), Affinity::any(1));
        let rt = s.spawn("rt", SchedClass::rt_max(), Affinity::any(1));
        s.wake(cfs);
        let c = s.pick_next(CoreId::new(0)).unwrap();
        s.start_running(CoreId::new(0), c);
        s.wake(rt);
        assert!(s.should_preempt(CoreId::new(0), rt));
        // A CFS wake never preempts.
        let cfs2 = s.spawn("cfs2", SchedClass::cfs(), Affinity::any(1));
        s.wake(cfs2);
        assert!(!s.should_preempt(CoreId::new(0), cfs2));
    }

    #[test]
    fn rt_priority_preemption() {
        let mut s = sched(1);
        let low = s.spawn("low", SchedClass::RtFifo { priority: 10 }, Affinity::any(1));
        let high = s.spawn(
            "high",
            SchedClass::RtFifo { priority: 90 },
            Affinity::any(1),
        );
        s.wake(low);
        let l = s.pick_next(CoreId::new(0)).unwrap();
        s.start_running(CoreId::new(0), l);
        s.wake(high);
        assert!(s.should_preempt(CoreId::new(0), high));
        // Equal priority does not preempt (FIFO runs to completion).
        let equal = s.spawn("eq", SchedClass::RtFifo { priority: 90 }, Affinity::any(1));
        s.stop_running(
            CoreId::new(0),
            l,
            SimDuration::from_micros(1),
            TaskState::Blocked,
        );
        let h = s.pick_next(CoreId::new(0)).unwrap();
        assert_eq!(h, high);
        s.start_running(CoreId::new(0), h);
        s.wake(equal);
        assert!(!s.should_preempt(CoreId::new(0), equal));
    }

    #[test]
    fn vruntime_accrues_for_cfs_only() {
        let mut s = sched(1);
        let c = s.spawn("c", SchedClass::cfs(), Affinity::any(1));
        let r = s.spawn("r", SchedClass::rt_max(), Affinity::any(1));
        for (tid, expect_vruntime) in [(c, true), (r, false)] {
            s.wake(tid);
            // The RT task is picked first even though woken second; handle both.
            let picked = s.pick_next(CoreId::new(0)).unwrap();
            s.start_running(CoreId::new(0), picked);
            s.stop_running(
                CoreId::new(0),
                picked,
                SimDuration::from_micros(100),
                TaskState::Blocked,
            );
            let _ = (tid, expect_vruntime);
        }
        assert!(s.task(c).vruntime() > 0);
        assert_eq!(s.task(r).vruntime(), 0);
        assert_eq!(s.task(c).cpu_time(), SimDuration::from_micros(100));
    }

    #[test]
    fn double_wake_is_noop() {
        let mut s = sched(1);
        let t = s.spawn("t", SchedClass::cfs(), Affinity::any(1));
        assert!(s.wake(t).is_some());
        assert!(s.wake(t).is_none());
        assert_eq!(s.queue_len(CoreId::new(0)), 1);
    }

    #[test]
    fn sleeping_task_can_wake() {
        let mut s = sched(1);
        let t = s.spawn("t", SchedClass::cfs(), Affinity::any(1));
        s.wake(t);
        let t2 = s.pick_next(CoreId::new(0)).unwrap();
        s.start_running(CoreId::new(0), t2);
        s.stop_running(CoreId::new(0), t2, SimDuration::ZERO, TaskState::Sleeping);
        assert_eq!(s.task(t).state(), TaskState::Sleeping);
        assert!(s.wake(t).is_some());
    }

    #[test]
    fn woken_cfs_task_floored_at_min_vruntime() {
        let mut s = sched(1);
        let hog = s.spawn("hog", SchedClass::cfs(), Affinity::any(1));
        let sleeper = s.spawn("sleeper", SchedClass::cfs(), Affinity::any(1));
        s.wake(hog);
        let h = s.pick_next(CoreId::new(0)).unwrap();
        s.start_running(CoreId::new(0), h);
        s.stop_running(
            CoreId::new(0),
            h,
            SimDuration::from_millis(50),
            TaskState::Runnable,
        );
        // Sleeper wakes with vruntime 0 but must be floored to the queue min.
        s.wake(sleeper);
        assert!(s.task(sleeper).vruntime() >= s.task(hog).vruntime() / 2);
    }

    #[test]
    #[should_panic(expected = "already has a running task")]
    fn double_start_running_panics() {
        let mut s = sched(1);
        let a = s.spawn("a", SchedClass::cfs(), Affinity::any(1));
        let b = s.spawn("b", SchedClass::cfs(), Affinity::any(1));
        s.wake(a);
        s.wake(b);
        s.start_running(CoreId::new(0), a);
        s.start_running(CoreId::new(0), b);
    }

    proptest! {
        /// Invariant 2 (DESIGN.md): pinned tasks always wake on their core,
        /// regardless of system load.
        #[test]
        fn prop_pinned_never_migrates(
            pin_core in 0usize..4,
            load in proptest::collection::vec(0usize..4, 0..12),
        ) {
            let mut s = sched(4);
            // Create load on various cores.
            for (i, c) in load.iter().enumerate() {
                let t = s.spawn(format!("load{i}"), SchedClass::cfs(), Affinity::pinned(CoreId::new(*c)));
                s.wake(t);
            }
            let p = s.spawn("pinned", SchedClass::rt_max(), Affinity::pinned(CoreId::new(pin_core)));
            prop_assert_eq!(s.wake(p), Some(CoreId::new(pin_core)));
        }

        /// At most one task runs per core, ever.
        #[test]
        fn prop_one_running_per_core(ops in proptest::collection::vec(0u8..3, 1..60)) {
            let mut s = sched(2);
            let mut spawned = Vec::new();
            for op in ops {
                match op {
                    0 => {
                        let t = s.spawn("t", SchedClass::cfs(), Affinity::any(2));
                        spawned.push(t);
                        s.wake(t);
                    }
                    1 => {
                        for core in [CoreId::new(0), CoreId::new(1)] {
                            if s.current(core).is_none() {
                                if let Some(t) = s.pick_next(core) {
                                    s.start_running(core, t);
                                }
                            }
                        }
                    }
                    _ => {
                        for core in [CoreId::new(0), CoreId::new(1)] {
                            if let Some(t) = s.current(core) {
                                s.stop_running(core, t, SimDuration::from_micros(10), TaskState::Runnable);
                            }
                        }
                    }
                }
                // Invariant: running tasks are exactly the per-core currents.
                let running = s.tasks().iter().filter(|t| t.state() == TaskState::Running).count();
                let currents = (0..2).filter(|i| s.current(CoreId::new(*i)).is_some()).count();
                prop_assert_eq!(running, currents);
            }
        }
    }
}
