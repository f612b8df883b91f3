//! Per-core runqueues: an RT FIFO class over a CFS class.

use crate::task::TaskId;

/// One core's runqueue pair.
///
/// The RT queue is ordered by `(99 - priority, arrival)`: highest priority
/// first, FIFO within a priority — `SCHED_FIFO` semantics. The CFS queue
/// is ordered by `(vruntime, id)`, so the smallest-vruntime task is picked
/// first, like Linux CFS's leftmost task.
///
/// Both are small `Vec`s kept sorted *descending* by those keys, so the
/// next pick is the last element and `pick_next` is a `pop`. A core rarely
/// holds more than two queued tasks, where a shifted insert beats any tree.
///
/// A task may be queued at most once; enqueueing one that is already
/// queued is a scheduler bug and fails a debug assertion.
///
/// # Example
///
/// ```
/// use satin_kernel::runqueue::CoreRunQueue;
/// use satin_kernel::TaskId;
///
/// let mut rq = CoreRunQueue::new();
/// rq.enqueue_cfs(100, TaskId::new(1));
/// rq.enqueue_rt(50, TaskId::new(2));
/// // RT always beats CFS:
/// assert_eq!(rq.pick_next(), Some(TaskId::new(2)));
/// assert_eq!(rq.pick_next(), Some(TaskId::new(1)));
/// assert_eq!(rq.pick_next(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CoreRunQueue {
    /// `((99 - priority, arrival), task)`, sorted descending.
    rt: Vec<((u8, u64), TaskId)>,
    /// `(vruntime, task)`, sorted descending.
    cfs: Vec<(u64, TaskId)>,
    arrival: u64,
    min_vruntime: u64,
}

/// Inserts `entry` into `queue`, which is sorted descending, keeping it so.
/// Entries are unique, so there are no ties to place.
fn insert_descending<T: Ord>(queue: &mut Vec<T>, entry: T) {
    let at = queue.partition_point(|e| *e > entry);
    queue.insert(at, entry);
}

impl CoreRunQueue {
    /// An empty runqueue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues an RT task at `priority` (1..=99, higher wins).
    ///
    /// # Panics
    ///
    /// Panics if `priority` is outside `1..=99`.
    pub fn enqueue_rt(&mut self, priority: u8, task: TaskId) {
        assert!((1..=99).contains(&priority), "bad RT priority {priority}");
        debug_assert!(!self.contains(task), "{task} is already queued");
        let key = (99 - priority, self.arrival);
        self.arrival += 1;
        insert_descending(&mut self.rt, (key, task));
    }

    /// Enqueues a CFS task at `vruntime`.
    pub fn enqueue_cfs(&mut self, vruntime: u64, task: TaskId) {
        debug_assert!(!self.contains(task), "{task} is already queued");
        insert_descending(&mut self.cfs, (vruntime, task));
    }

    /// Picks (and removes) the next task: the highest-priority RT task if
    /// any, else the smallest-vruntime CFS task.
    pub fn pick_next(&mut self) -> Option<TaskId> {
        if let Some((_, tid)) = self.rt.pop() {
            return Some(tid);
        }
        let (v, tid) = self.cfs.pop()?;
        self.min_vruntime = self.min_vruntime.max(v);
        Some(tid)
    }

    /// The task `pick_next` would return, without removing it.
    pub(crate) fn peek_next(&self) -> Option<TaskId> {
        self.rt
            .last()
            .map(|&(_, t)| t)
            .or_else(|| self.cfs.last().map(|&(_, t)| t))
    }

    /// `true` if `task` is queued here.
    pub(crate) fn contains(&self, task: TaskId) -> bool {
        self.rt.iter().any(|&(_, t)| t == task) || self.cfs.iter().any(|&(_, t)| t == task)
    }

    /// Number of queued (runnable, not running) tasks.
    pub(crate) fn len(&self) -> usize {
        self.rt.len() + self.cfs.len()
    }

    /// The queue's monotone minimum vruntime — new arrivals are floored here
    /// so long sleepers cannot starve everyone on wake.
    pub(crate) fn min_vruntime(&self) -> u64 {
        self.min_vruntime
    }

    /// Raises the queue's minimum vruntime (called as tasks execute).
    pub(crate) fn advance_min_vruntime(&mut self, v: u64) {
        self.min_vruntime = self.min_vruntime.max(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn rt_priority_order() {
        let mut rq = CoreRunQueue::new();
        rq.enqueue_rt(10, TaskId::new(1));
        rq.enqueue_rt(99, TaskId::new(2));
        rq.enqueue_rt(50, TaskId::new(3));
        assert_eq!(rq.pick_next(), Some(TaskId::new(2)));
        assert_eq!(rq.pick_next(), Some(TaskId::new(3)));
        assert_eq!(rq.pick_next(), Some(TaskId::new(1)));
    }

    #[test]
    fn rt_fifo_within_priority() {
        let mut rq = CoreRunQueue::new();
        for i in 0..5 {
            rq.enqueue_rt(40, TaskId::new(i));
        }
        for i in 0..5 {
            assert_eq!(rq.pick_next(), Some(TaskId::new(i)));
        }
    }

    #[test]
    fn cfs_vruntime_order() {
        let mut rq = CoreRunQueue::new();
        rq.enqueue_cfs(300, TaskId::new(1));
        rq.enqueue_cfs(100, TaskId::new(2));
        rq.enqueue_cfs(200, TaskId::new(3));
        assert_eq!(rq.pick_next(), Some(TaskId::new(2)));
        assert_eq!(rq.pick_next(), Some(TaskId::new(3)));
        assert_eq!(rq.pick_next(), Some(TaskId::new(1)));
    }

    #[test]
    fn min_vruntime_advances_with_picks() {
        let mut rq = CoreRunQueue::new();
        rq.enqueue_cfs(500, TaskId::new(1));
        assert_eq!(rq.min_vruntime(), 0);
        rq.pick_next();
        assert_eq!(rq.min_vruntime(), 500);
        rq.advance_min_vruntime(300); // cannot regress
        assert_eq!(rq.min_vruntime(), 500);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "task7 is already queued")]
    fn double_enqueue_is_loud() {
        let mut rq = CoreRunQueue::new();
        rq.enqueue_cfs(5, TaskId::new(7));
        rq.enqueue_cfs(5, TaskId::new(7));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "task7 is already queued")]
    fn enqueue_across_classes_is_loud() {
        let mut rq = CoreRunQueue::new();
        rq.enqueue_cfs(5, TaskId::new(7));
        rq.enqueue_rt(50, TaskId::new(7));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut rq = CoreRunQueue::new();
        rq.enqueue_cfs(1, TaskId::new(7));
        assert_eq!(rq.peek_next(), Some(TaskId::new(7)));
        assert_eq!(rq.len(), 1);
    }

    /// The tree-map runqueue the sorted `Vec`s replaced, kept as the
    /// reference model for [`prop_matches_the_tree_model`].
    #[derive(Default)]
    struct TreeModel {
        rt: BTreeMap<(u8, u64), TaskId>,
        cfs: BTreeSet<(u64, TaskId)>,
        arrival: u64,
        min_vruntime: u64,
    }

    impl TreeModel {
        fn enqueue_rt(&mut self, priority: u8, task: TaskId) {
            self.rt.insert((99 - priority, self.arrival), task);
            self.arrival += 1;
        }

        fn enqueue_cfs(&mut self, vruntime: u64, task: TaskId) {
            self.cfs.insert((vruntime, task));
        }

        fn pick_next(&mut self) -> Option<TaskId> {
            if let Some((_, tid)) = self.rt.pop_first() {
                return Some(tid);
            }
            let (v, tid) = self.cfs.pop_first()?;
            self.min_vruntime = self.min_vruntime.max(v);
            Some(tid)
        }

        fn peek_next(&self) -> Option<TaskId> {
            let cfs = self.cfs.first().map(|&(_, t)| t);
            self.rt.values().next().copied().or(cfs)
        }

        fn queued(&self, task: TaskId) -> bool {
            self.rt.values().any(|t| *t == task) || self.cfs.iter().any(|(_, t)| *t == task)
        }
    }

    proptest! {
        /// Any interleaving of runqueue operations gives the same answers
        /// as the tree-map model. Task ids come from a pool of 8 and
        /// vruntimes from a narrow range, so ties on vruntime and
        /// re-enqueues after a pick occur.
        #[test]
        fn prop_matches_the_tree_model(
            ops in proptest::collection::vec((0u8..5, 1u8..=99, 0u64..16, 0u64..8), 0..200),
        ) {
            let mut rq = CoreRunQueue::new();
            let mut model = TreeModel::default();
            for (op, priority, vruntime, id) in ops {
                let task = TaskId::new(id);
                match op {
                    // A double enqueue is a caller bug, so skip queued tasks.
                    0 if !model.queued(task) => {
                        rq.enqueue_rt(priority, task);
                        model.enqueue_rt(priority, task);
                    }
                    1 if !model.queued(task) => {
                        rq.enqueue_cfs(vruntime, task);
                        model.enqueue_cfs(vruntime, task);
                    }
                    2 => prop_assert_eq!(rq.pick_next(), model.pick_next()),
                    3 => {
                        rq.advance_min_vruntime(vruntime);
                        model.min_vruntime = model.min_vruntime.max(vruntime);
                    }
                    _ => {}
                }
                prop_assert_eq!(rq.peek_next(), model.peek_next());
                prop_assert_eq!(rq.rt.len(), model.rt.len());
                prop_assert_eq!(rq.cfs.len(), model.cfs.len());
                prop_assert_eq!(rq.len(), model.rt.len() + model.cfs.len());
                prop_assert_eq!(rq.min_vruntime(), model.min_vruntime);
                prop_assert_eq!(rq.contains(task), model.queued(task));
            }
        }

        /// Invariant 2 (DESIGN.md): an RT task is never picked after a CFS
        /// task that was enqueued at the same time.
        #[test]
        fn prop_rt_always_beats_cfs(
            rt in proptest::collection::vec(1u8..=99, 0..20),
            cfs in proptest::collection::vec(0u64..1000, 0..20),
        ) {
            let mut rq = CoreRunQueue::new();
            let rt_count = rt.len();
            for (i, p) in rt.iter().enumerate() {
                rq.enqueue_rt(*p, TaskId::new(i as u64));
            }
            for (i, v) in cfs.iter().enumerate() {
                rq.enqueue_cfs(*v, TaskId::new(1000 + i as u64));
            }
            let mut picked = Vec::new();
            while let Some(t) = rq.pick_next() {
                picked.push(t);
            }
            prop_assert_eq!(picked.len(), rt.len() + cfs.len());
            // All RT ids (< 1000) come before all CFS ids (>= 1000).
            let first_cfs = picked.iter().position(|t| t.value() >= 1000);
            if let Some(pos) = first_cfs {
                prop_assert!(picked[pos..].iter().all(|t| t.value() >= 1000));
                prop_assert_eq!(pos, rt_count);
            }
        }

        /// RT picks are sorted by descending priority.
        #[test]
        fn prop_rt_sorted_by_priority(prios in proptest::collection::vec(1u8..=99, 1..30)) {
            let mut rq = CoreRunQueue::new();
            for (i, p) in prios.iter().enumerate() {
                rq.enqueue_rt(*p, TaskId::new(i as u64));
            }
            let mut last = 100u8;
            while !rq.rt.is_empty() {
                let ((inverted, _), _) = *rq.rt.last().unwrap();
                let best = 99 - inverted;
                prop_assert!(best <= last);
                last = best;
                rq.pick_next();
            }
        }
    }
}
