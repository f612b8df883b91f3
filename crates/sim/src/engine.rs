//! The simulation driver: a clock plus an event queue.

use crate::observe::{Mark, SimObserver};
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// A discrete-event simulator over events of type `E`.
///
/// The simulator owns the virtual clock and the pending-event queue. Higher
/// layers (the `satin-system` machine) pop events, advance state, and push
/// follow-up events. Keeping the engine generic and dumb makes its invariants
/// (time monotonicity, FIFO ties) easy to test in isolation. A read-only
/// [`SimObserver`] can be installed with [`Simulator::set_observer`] to watch
/// every schedule and dispatch without perturbing them.
///
/// # Example
///
/// ```
/// use satin_sim::{Simulator, SimDuration};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Ping, Pong }
///
/// let mut sim = Simulator::new();
/// sim.schedule_after(SimDuration::from_nanos(10), Ev::Ping);
/// let (t, ev) = sim.pop().unwrap();
/// assert_eq!(ev, Ev::Ping);
/// assert_eq!(sim.now(), t);
/// sim.schedule_after(SimDuration::from_nanos(5), Ev::Pong);
/// assert_eq!(sim.pop().unwrap().1, Ev::Pong);
/// ```
pub struct Simulator<E> {
    now: SimTime,
    queue: EventQueue<E>,
    dispatched: u64,
    observer: Option<Box<dyn SimObserver<E>>>,
}

impl<E> fmt::Debug for Simulator<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("queue", &self.queue)
            .field("dispatched", &self.dispatched)
            .field("observer", &self.observer.as_ref().map(|_| "installed"))
            .finish()
    }
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Creates a simulator at time zero.
    pub fn new() -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            dispatched: 0,
            observer: None,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Pre-sizes the event queue for about `n` in-flight events. A sizing
    /// hint only — purely an allocation optimization, never observable in
    /// event order or timing.
    pub fn reserve_events(&mut self, n: usize) {
        self.queue.reserve(n);
    }

    /// Installs an [`SimObserver`] notified on every schedule and dispatch.
    ///
    /// Observers are read-only instrumentation: installing (or removing) one
    /// never changes event order, timing, or any other simulation outcome.
    /// Any previously installed observer is returned.
    pub fn set_observer(
        &mut self,
        observer: Box<dyn SimObserver<E>>,
    ) -> Option<Box<dyn SimObserver<E>>> {
        self.observer.replace(observer)
    }

    /// Forwards a semantic [`Mark`] to the installed observer at the current
    /// simulated time. With no observer installed this is a no-op, so
    /// components can mark unconditionally without perturbing (or paying
    /// for) anything.
    pub fn mark(&mut self, mark: Mark) {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_mark(self.now, &mark);
        }
    }

    /// Schedules `event` at absolute time `at`. Scheduling *at* the current
    /// time is allowed (the event dispatches after already-queued events for
    /// this instant).
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current simulated time.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "event scheduled in the past");
        self.enqueue(at, event);
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.enqueue(at, event);
    }

    /// Notifies the observer (if any) and pushes onto the queue.
    fn enqueue(&mut self, at: SimTime, event: E) {
        if let Some(obs) = self.observer.as_deref_mut() {
            // Depth counts the event about to be inserted.
            obs.on_scheduled(at, self.queue.next_seq(), &event, self.queue.len() + 1);
        }
        self.queue.push(at, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when no events are pending.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (t, seq, ev) = self.queue.pop_entry()?;
        debug_assert!(t >= self.now, "event queue returned a past event");
        self.now = t;
        self.dispatched += 1;
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_dispatched(t, seq, &ev, self.queue.len());
        }
        Some((t, ev))
    }

    /// Pops the next event only if it fires at or before `deadline`.
    ///
    /// The clock never advances past `deadline`: if the next event is later
    /// (or the queue is empty), the clock is set to `deadline` and `None` is
    /// returned. This is how experiments run "for 8 simulated seconds".
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.queue.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => {
                if deadline > self.now {
                    self.now = deadline;
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn clock_advances_with_pop() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(SimTime::from_nanos(50), 1);
        sim.schedule_at(SimTime::from_nanos(20), 2);
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.pop(), Some((SimTime::from_nanos(20), 2)));
        assert_eq!(sim.now(), SimTime::from_nanos(20));
        assert_eq!(sim.pop(), Some((SimTime::from_nanos(50), 1)));
        assert_eq!(sim.now(), SimTime::from_nanos(50));
        assert_eq!(sim.pop(), None);
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn schedule_in_past_rejected() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(SimTime::from_nanos(100), 1);
        sim.pop();
        // Scheduling at exactly `now` is fine.
        sim.schedule_at(SimTime::from_nanos(100), 3);
        assert_eq!(sim.pending(), 1);
        sim.schedule_at(SimTime::from_nanos(10), 2);
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut sim: Simulator<u32> = Simulator::new();
        sim.schedule_at(SimTime::from_nanos(10), 1);
        sim.schedule_at(SimTime::from_nanos(30), 2);
        let deadline = SimTime::from_nanos(20);
        assert_eq!(sim.pop_until(deadline), Some((SimTime::from_nanos(10), 1)));
        assert_eq!(sim.pop_until(deadline), None);
        assert_eq!(sim.now(), deadline);
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn pop_until_on_empty_queue_advances_clock() {
        let mut sim: Simulator<u32> = Simulator::new();
        assert_eq!(sim.pop_until(SimTime::from_secs(1)), None);
        assert_eq!(sim.now(), SimTime::from_secs(1));
    }

    #[test]
    fn pop_drains_and_counts() {
        let mut sim: Simulator<u32> = Simulator::new();
        for i in 0..10 {
            sim.schedule_at(SimTime::from_nanos(i), i as u32);
        }
        let seen: Vec<u32> = std::iter::from_fn(|| sim.pop().map(|(_, ev)| ev)).collect();
        assert_eq!(seen, (0..10).collect::<Vec<u32>>());
        assert_eq!(sim.dispatched(), 10);
        assert_eq!(sim.pending(), 0);
    }

    proptest! {
        /// The observer sees dispatches in strict `(time, seq)` order, and
        /// every scheduled event is dispatched exactly once — installing the
        /// observer reveals the queue's order without changing it.
        #[test]
        fn prop_observer_sees_dispatch_order(
            times in proptest::collection::vec(0u64..500, 1..200),
        ) {
            use crate::observe::SimObserver;
            use std::cell::RefCell;
            use std::rc::Rc;

            #[derive(Default)]
            struct Recorder {
                scheduled: Rc<RefCell<Vec<(SimTime, u64)>>>,
                dispatched: Rc<RefCell<Vec<(SimTime, u64)>>>,
            }
            impl SimObserver<usize> for Recorder {
                fn on_scheduled(&mut self, at: SimTime, seq: u64, _: &usize, _: usize) {
                    self.scheduled.borrow_mut().push((at, seq));
                }
                fn on_dispatched(&mut self, time: SimTime, seq: u64, _: &usize, _: usize) {
                    self.dispatched.borrow_mut().push((time, seq));
                }
            }

            let rec = Recorder::default();
            let (scheduled, dispatched) =
                (Rc::clone(&rec.scheduled), Rc::clone(&rec.dispatched));
            let mut sim: Simulator<usize> = Simulator::new();
            sim.set_observer(Box::new(rec));
            for (i, t) in times.iter().enumerate() {
                sim.schedule_at(SimTime::from_nanos(*t), i);
            }
            while sim.pop().is_some() {}

            let disp = dispatched.borrow();
            prop_assert_eq!(disp.len(), times.len());
            // Strict (time, seq) order: seq breaks every time tie uniquely.
            for pair in disp.windows(2) {
                prop_assert!(pair[0] < pair[1], "out of order: {:?}", pair);
            }
            // Dispatches are exactly the scheduled set.
            let mut sched = scheduled.borrow().clone();
            sched.sort_unstable();
            prop_assert_eq!(&*disp, &sched[..]);
        }
    }

    proptest! {
        /// Invariant 1: the clock observed at each pop never decreases.
        #[test]
        fn prop_clock_monotone(times in proptest::collection::vec(0u64..10_000, 1..300)) {
            let mut sim: Simulator<usize> = Simulator::new();
            for (i, t) in times.iter().enumerate() {
                sim.schedule_at(SimTime::from_nanos(*t), i);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = sim.pop() {
                assert!(t >= last);
                assert_eq!(sim.now(), t);
                last = t;
            }
        }
    }
}
