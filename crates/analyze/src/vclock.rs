//! Fixed-width vector clocks for the happens-before race detector.
//!
//! Each clock has one slot per simulated core plus (by the detector's
//! convention) one extra slot for cross-core communication channels. A
//! clock `a` happens-before `b` iff `a ≤ b` pointwise and `a ≠ b`;
//! incomparable clocks are concurrent. The merge operation is pointwise
//! max — a bounded join-semilattice, which is what makes merges
//! commutative, associative, and idempotent (the property tests pin all
//! three, plus monotonicity).

/// A fixed-width vector clock.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct VectorClock {
    slots: Vec<u64>,
}

impl VectorClock {
    /// The zero clock with `width` slots.
    pub(crate) fn new(width: usize) -> Self {
        VectorClock {
            slots: vec![0; width],
        }
    }

    /// The value of slot `i` (0 for out-of-range slots, so clocks of
    /// different widths compare sensibly).
    pub(crate) fn get(&self, i: usize) -> u64 {
        self.slots.get(i).copied().unwrap_or(0)
    }

    /// Advances slot `i` by one — the local step of the process that owns
    /// the slot.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn tick(&mut self, i: usize) {
        self.slots[i] += 1;
    }

    /// Raises slot `i` to at least `v` (used for channel slots driven by a
    /// global monotone sequence).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn raise(&mut self, i: usize, v: u64) {
        if self.slots[i] < v {
            self.slots[i] = v;
        }
    }

    /// Pointwise-max join of `other` into `self`.
    pub(crate) fn merge(&mut self, other: &VectorClock) {
        if other.slots.len() > self.slots.len() {
            self.slots.resize(other.slots.len(), 0);
        }
        for (s, o) in self.slots.iter_mut().zip(&other.slots) {
            if *o > *s {
                *s = *o;
            }
        }
    }

    /// The join of `self` and `other`, leaving both untouched.
    #[cfg(test)]
    pub(crate) fn merged(&self, other: &VectorClock) -> VectorClock {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// `true` iff `self ≤ other` pointwise — `self` is in `other`'s causal
    /// past (or equal to it).
    pub(crate) fn leq(&self, other: &VectorClock) -> bool {
        let width = self.slots.len().max(other.slots.len());
        (0..width).all(|i| self.get(i) <= other.get(i))
    }

    /// `true` iff `self` happens-before `other` (`≤` and not equal).
    #[cfg(test)]
    pub(crate) fn happens_before(&self, other: &VectorClock) -> bool {
        self.leq(other) && self != other
    }

    /// `true` iff neither clock is in the other's causal past.
    #[cfg(test)]
    pub(crate) fn concurrent_with(&self, other: &VectorClock) -> bool {
        !self.leq(other) && !other.leq(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(slots: &[u64]) -> VectorClock {
        let mut c = VectorClock::new(slots.len());
        for (i, &v) in slots.iter().enumerate() {
            c.raise(i, v);
        }
        c
    }

    #[test]
    fn tick_and_order() {
        let mut a = VectorClock::new(3);
        let b = a.clone();
        a.tick(1);
        assert!(b.happens_before(&a));
        assert!(!a.happens_before(&b));
        assert!(b.leq(&a));
    }

    #[test]
    fn concurrent_clocks_are_incomparable() {
        let a = vc(&[1, 0]);
        let b = vc(&[0, 1]);
        assert!(a.concurrent_with(&b));
        assert!(b.concurrent_with(&a));
        let j = a.merged(&b);
        assert!(a.leq(&j));
        assert!(b.leq(&j));
    }

    #[test]
    fn merge_handles_width_mismatch() {
        let a = vc(&[1, 2]);
        let b = vc(&[0, 0, 5]);
        let j = a.merged(&b);
        assert_eq!((j.get(0), j.get(1), j.get(2)), (1, 2, 5));
        assert!(a.leq(&j) && b.leq(&j));
    }

    mod merge_laws {
        use super::*;
        use proptest::prelude::*;

        fn clock(slots: &[u64]) -> VectorClock {
            let mut c = VectorClock::new(slots.len());
            for (i, &v) in slots.iter().enumerate() {
                c.raise(i, v);
            }
            c
        }

        fn slots() -> collection::VecStrategy<std::ops::Range<u64>> {
            collection::vec(0u64..64, 1..8)
        }

        proptest! {
            #[test]
            fn merge_is_commutative(a in slots(), b in slots()) {
                let (a, b) = (clock(&a), clock(&b));
                prop_assert_eq!(a.merged(&b), b.merged(&a));
            }

            #[test]
            fn merge_is_associative(a in slots(), b in slots(), c in slots()) {
                let (a, b, c) = (clock(&a), clock(&b), clock(&c));
                prop_assert_eq!(a.merged(&b).merged(&c), a.merged(&b.merged(&c)));
            }

            #[test]
            fn merge_is_idempotent(a in slots(), b in slots()) {
                let (a, b) = (clock(&a), clock(&b));
                let j = a.merged(&b);
                prop_assert_eq!(j.merged(&b), j.clone());
                prop_assert_eq!(j.merged(&a), j);
            }

            #[test]
            fn merge_is_monotone(a in slots(), b in slots()) {
                let (a, b) = (clock(&a), clock(&b));
                let j = a.merged(&b);
                prop_assert!(a.leq(&j));
                prop_assert!(b.leq(&j));
                // And it is the LEAST upper bound: every slot of the join
                // equals one of the inputs' slots.
                for i in 0..j.slots.len() {
                    prop_assert!(j.get(i) == a.get(i) || j.get(i) == b.get(i));
                }
            }

            #[test]
            fn leq_is_a_partial_order(a in slots(), b in slots()) {
                let (a, b) = (clock(&a), clock(&b));
                prop_assert!(a.leq(&a));
                if a.leq(&b) && b.leq(&a) {
                    // Antisymmetry up to trailing-zero padding.
                    let w = a.slots.len().max(b.slots.len());
                    for i in 0..w {
                        prop_assert_eq!(a.get(i), b.get(i));
                    }
                }
            }
        }
    }
}
