//! Time-ordered event queue with stable FIFO tie-breaking.
//!
//! [`EventQueue`] pops in nondecreasing `(time, seq)` order, FIFO among
//! equal times. It is a hierarchical timing wheel: near-term events live in
//! a small sorted run popped from the back in O(1); mid-term events hash
//! into a circular bucket wheel (one `Vec` per ~4 µs slot) and are sorted
//! only when their slot becomes current; far-future events beyond the wheel
//! window sit in a sorted overflow level that drains into the wheel as time
//! advances. The property tests check it against a plain `BinaryHeap`
//! reference model.
//!
//! Because every entry carries a unique `(time, seq)` key, the pop order is
//! a *total* order — any correct implementation produces byte-identical
//! dispatch sequences, which is why the queue's internals cannot perturb a
//! golden trace (DESIGN.md §13).

use crate::time::SimTime;

/// Nanoseconds per wheel slot, as a shift: 2^12 = 4096 ns ≈ 4 µs. Chosen so
/// the dense tick/dispatch traffic (tens of µs apart) spreads over a few
/// slots instead of piling into one.
const BUCKET_SHIFT: u32 = 12;

/// Slots in the wheel window. Power of two so the slot→bucket map is a mask.
/// 256 × 4096 ns ≈ 1.05 ms of look-ahead; anything further goes to overflow.
const NUM_BUCKETS: u64 = 256;

/// The wheel slot an instant falls in.
#[inline]
fn slot_of(time: SimTime) -> u64 {
    time.as_nanos() >> BUCKET_SHIFT
}

/// An entry in the queue, keyed by `(time, seq)`; the payload does not
/// participate in ordering, so `E` needs no `Ord` bound.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// Inserts `entry` into `run`, which is sorted *descending* by `(time, seq)`
/// (earliest at the back, so the earliest pops in O(1)).
fn insert_desc<E>(run: &mut Vec<Entry<E>>, entry: Entry<E>) {
    let key = entry.key();
    let pos = run.partition_point(|e| e.key() > key);
    run.insert(pos, entry);
}

/// A priority queue of `(SimTime, E)` pairs that pops events in nondecreasing
/// time order, breaking ties in insertion (FIFO) order.
///
/// FIFO tie-breaking is what makes the whole simulation deterministic: two
/// events scheduled for the same nanosecond always dispatch in the order they
/// were scheduled, independent of queue internals.
pub(crate) struct EventQueue<E> {
    /// Current-slot run, sorted descending by `(time, seq)`: the earliest
    /// entry is at the back, so `pop` is a `Vec::pop`. Also absorbs pushes
    /// at or before the wheel base (same-instant reschedules).
    near: Vec<Entry<E>>,
    /// Wheel base: every entry in `near` has `slot < near_slot`; the wheel
    /// window covers `[near_slot, near_slot + NUM_BUCKETS)`.
    near_slot: u64,
    /// The circular wheel. Bucket `slot & (NUM_BUCKETS - 1)` holds the
    /// entries for `slot`; within the window the map is injective, so a
    /// bucket never mixes slots. Unsorted until drained.
    buckets: Vec<Vec<Entry<E>>>,
    /// Entries currently in `buckets`.
    wheel_len: usize,
    /// Far-future entries (`slot >= near_slot + NUM_BUCKETS`), sorted
    /// descending; pulled into the wheel as the window advances.
    overflow: Vec<Entry<E>>,
    len: usize,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            near: Vec::new(),
            near_slot: 0,
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            wheel_len: 0,
            overflow: Vec::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Pre-sizes the near run for about `n` in-flight events, so a fresh
    /// per-seed queue doesn't re-grow during warm-up.
    pub fn reserve(&mut self, n: usize) {
        self.near.reserve(n);
    }

    /// Enqueues `payload` to fire at `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.route(Entry { time, seq, payload });
        self.len += 1;
    }

    /// Places an entry in the level its slot belongs to.
    #[inline]
    fn route(&mut self, entry: Entry<E>) {
        let slot = slot_of(entry.time);
        if slot < self.near_slot {
            insert_desc(&mut self.near, entry);
        } else if slot - self.near_slot < NUM_BUCKETS {
            // Masked to NUM_BUCKETS - 1, so the cast is lossless.
            let idx = (slot & (NUM_BUCKETS - 1)) as usize;
            self.buckets
                .get_mut(idx)
                .expect("bucket index is masked to wheel size")
                .push(entry);
            self.wheel_len += 1;
        } else {
            insert_desc(&mut self.overflow, entry);
        }
    }

    /// Refills `near` from the wheel (and the wheel from overflow) until the
    /// earliest pending entry sits at the back of `near`. Caller guarantees
    /// the queue is non-empty.
    fn advance(&mut self) {
        while self.near.is_empty() {
            // Pull every overflow entry that now fits the window *before*
            // scanning: the window may have moved far enough that an
            // overflow entry is earlier than anything already in the wheel.
            while let Some(e) = self.overflow.last() {
                if slot_of(e.time) - self.near_slot < NUM_BUCKETS {
                    let entry = self.overflow.pop().expect("just peeked");
                    self.route(entry);
                } else {
                    break;
                }
            }
            if self.wheel_len == 0 {
                // Nothing within a window of the base: jump straight to the
                // earliest far-future slot and pull again.
                let earliest = self.overflow.last().expect("queue is non-empty");
                self.near_slot = slot_of(earliest.time);
                continue;
            }
            // Scan the window for the first non-empty bucket and promote it.
            for off in 0..NUM_BUCKETS {
                let slot = self.near_slot + off;
                // Masked to NUM_BUCKETS - 1, so the cast is lossless.
                let idx = (slot & (NUM_BUCKETS - 1)) as usize;
                let bucket = self
                    .buckets
                    .get_mut(idx)
                    .expect("bucket index is masked to wheel size");
                if bucket.is_empty() {
                    continue;
                }
                self.wheel_len -= bucket.len();
                // Sort descending so the earliest (smallest key) is last;
                // `sort_unstable` is fine because `(time, seq)` keys are
                // unique — FIFO order is already encoded in `seq`.
                bucket.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                // `append` leaves the bucket's capacity in place for reuse.
                self.near.append(bucket);
                self.near_slot = slot + 1;
                break;
            }
        }
    }

    /// Removes and returns the earliest event with its sequence number (the
    /// FIFO tie-breaker assigned at push time), or `None` if empty.
    #[must_use = "popping discards the event if the result is unused"]
    pub fn pop_entry(&mut self) -> Option<(SimTime, u64, E)> {
        if self.len == 0 {
            return None;
        }
        self.advance();
        let e = self.near.pop().expect("advance leaves near non-empty");
        self.len -= 1;
        Some((e.time, e.seq, e.payload))
    }

    /// The sequence number the *next* pushed event will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The time of the earliest pending event, if any.
    ///
    /// Takes `&mut self` because answering may promote a wheel bucket into
    /// the sorted near run (the earliest entry's position isn't known until
    /// its slot is sorted).
    #[must_use]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        self.advance();
        self.near.last().map(|e| e.time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("next_seq", &self.next_seq)
            .field("near_slot", &self.near_slot)
            .field("wheel_len", &self.wheel_len)
            .field("overflow_len", &self.overflow.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The executable reference model for [`EventQueue`]: a plain
    /// `BinaryHeap` over `(time, seq, payload)`, popped through `Reverse` so
    /// the earliest key comes first.
    #[derive(Default)]
    struct BaselineHeapQueue {
        heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
        next_seq: u64,
    }

    impl BaselineHeapQueue {
        fn push(&mut self, time: SimTime, payload: usize) {
            self.heap.push(Reverse((time, self.next_seq, payload)));
            self.next_seq += 1;
        }

        fn pop_entry(&mut self) -> Option<(SimTime, u64, usize)> {
            self.heap.pop().map(|Reverse(e)| e)
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|Reverse((t, _, _))| *t)
        }
    }

    /// Pops the earliest `(time, payload)`, dropping the sequence number.
    fn pop<E>(q: &mut EventQueue<E>) -> Option<(SimTime, E)> {
        q.pop_entry().map(|(t, _, e)| (t, e))
    }

    #[test]
    fn example_orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5), 'b');
        q.push(SimTime::from_nanos(5), 'c');
        q.push(SimTime::from_nanos(1), 'a');
        let order: Vec<char> = std::iter::from_fn(|| pop(&mut q).map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        assert_eq!(pop(&mut q), Some((SimTime::from_nanos(10), 1)));
        assert_eq!(pop(&mut q), Some((SimTime::from_nanos(20), 2)));
        assert_eq!(pop(&mut q), Some((SimTime::from_nanos(30), 3)));
        assert_eq!(pop(&mut q), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_nanos(7), i);
        }
        for i in 0..100 {
            assert_eq!(pop(&mut q).unwrap().1, i);
        }
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_nanos(4), ());
        q.push(SimTime::from_nanos(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(2)));
        // Drained clear: the queue reports empty again.
        while pop(&mut q).is_some() {}
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn next_seq_survives_clear() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(1), 'a');
        q.push(SimTime::from_nanos(2), 'b');
        assert_eq!(q.next_seq(), 2);
        while pop(&mut q).is_some() {}
        assert_eq!(
            q.next_seq(),
            2,
            "draining must not recycle sequence numbers"
        );
        q.push(SimTime::from_nanos(3), 'c');
        assert_eq!(q.pop_entry(), Some((SimTime::from_nanos(3), 2, 'c')));
    }

    #[test]
    fn far_future_overflow_round_trips() {
        let mut q = EventQueue::new();
        // Far beyond the wheel window (256 × 4096 ns ≈ 1.05 ms).
        q.push(SimTime::from_secs(10), 'z');
        q.push(SimTime::from_nanos(5), 'a');
        q.push(SimTime::from_millis(2), 'm');
        assert_eq!(pop(&mut q), Some((SimTime::from_nanos(5), 'a')));
        assert_eq!(pop(&mut q), Some((SimTime::from_millis(2), 'm')));
        assert_eq!(pop(&mut q), Some((SimTime::from_secs(10), 'z')));
        assert_eq!(pop(&mut q), None);
    }

    #[test]
    fn wheel_entry_does_not_overtake_promoted_overflow() {
        // Regression shape: an overflow entry whose slot enters the window
        // only after the base advances must still pop before a later-pushed,
        // later-timed wheel entry.
        let mut q = EventQueue::new();
        let window = 1u64 << BUCKET_SHIFT << 8; // NUM_BUCKETS slots in ns
        q.push(SimTime::from_nanos(window + 100), 'b'); // overflow at push
        q.push(SimTime::from_nanos(10), 'a');
        assert_eq!(pop(&mut q), Some((SimTime::from_nanos(10), 'a')));
        // Lands inside the advanced window, *later* than the overflow entry.
        q.push(SimTime::from_nanos(window + 200), 'c');
        assert_eq!(pop(&mut q), Some((SimTime::from_nanos(window + 100), 'b')));
        assert_eq!(pop(&mut q), Some((SimTime::from_nanos(window + 200), 'c')));
    }

    /// One step of an interleaved push/pop program (satellite: wheel vs.
    /// reference model).
    #[derive(Debug, Clone)]
    enum Op {
        Push(u64),
        Pop,
        Drain,
    }

    struct OpStrategy;

    impl Strategy for OpStrategy {
        type Value = Op;
        fn sample(&self, rng: &mut proptest::TestRng) -> Op {
            match rng.below(10) {
                // Near-term: lands in the current slot or the wheel window.
                0..=3 => Op::Push(rng.below(2_000_000)),
                // Far-future: guaranteed past the wheel window (> ~1.05 ms),
                // up to seconds out — exercises the overflow level.
                4..=5 => Op::Push(2_000_000 + rng.below(10_000_000_000)),
                6..=8 => Op::Pop,
                // Rare: exercises reuse of a drained queue mid-program.
                _ => Op::Drain,
            }
        }
    }

    proptest! {
        /// Invariant 1 (DESIGN.md): events dispatch in nondecreasing time
        /// order, FIFO among equal times.
        #[test]
        fn prop_dispatch_order(times in proptest::collection::vec(0u64..1_000, 0..200)) {
            let mut q = EventQueue::new();
            for (idx, t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(*t), idx);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, idx)) = pop(&mut q) {
                if let Some((lt, lidx)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(idx > lidx, "FIFO violated at time {t}");
                    }
                }
                last = Some((t, idx));
            }
        }

        /// The timing wheel is observationally identical to the reference
        /// heap: same `(time, seq, payload)` at every pop, same `len` and
        /// `next_seq` after every step, for arbitrary interleaved programs
        /// including far-future overflow and reuse after a full drain.
        #[test]
        fn prop_wheel_matches_reference_model(
            ops in proptest::collection::vec(OpStrategy, 0..400)
        ) {
            let mut wheel = EventQueue::new();
            let mut model = BaselineHeapQueue::default();
            for (step, op) in ops.iter().enumerate() {
                match op {
                    Op::Push(t) => {
                        wheel.push(SimTime::from_nanos(*t), step);
                        model.push(SimTime::from_nanos(*t), step);
                    }
                    Op::Pop => {
                        prop_assert_eq!(wheel.pop_entry(), model.pop_entry());
                    }
                    Op::Drain => {
                        while let Some(w) = wheel.pop_entry() {
                            prop_assert_eq!(Some(w), model.pop_entry());
                        }
                        prop_assert_eq!(model.pop_entry(), None);
                    }
                }
                prop_assert_eq!(wheel.len(), model.heap.len());
                prop_assert_eq!(wheel.next_seq(), model.next_seq);
                prop_assert_eq!(wheel.peek_time(), model.peek_time());
            }
            // Drain: the tails must match exactly too.
            loop {
                let (w, m) = (wheel.pop_entry(), model.pop_entry());
                prop_assert_eq!(&w, &m);
                if w.is_none() {
                    break;
                }
            }
        }
    }
}
