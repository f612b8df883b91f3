//! Secure memory cells: data the normal world structurally cannot reach.
//!
//! SATIN's security argument leans on two pieces of state living in secure
//! memory: the authorized hash table (§VI-A2) and the wake-up time queue
//! (§V-D — "SATIN stores the wake-up time of each core in the wake-up time
//! queue", protected so the normal world cannot learn the wake-up pattern).
//! [`SecureStorage`] enforces that with the type system: every access takes a
//! [`World`] witness, and normal-world accesses get an error, never data.

use satin_hw::{HwError, World};
use std::collections::VecDeque;
use std::num::NonZeroUsize;

/// A privilege-checked container for secure-world data.
///
/// # Example
///
/// ```
/// use satin_secure::SecureStorage;
/// use satin_hw::World;
///
/// let mut cell = SecureStorage::new("wake-up queue", vec![1u64, 2, 3]);
/// assert!(cell.read(World::Normal).is_err());     // attacker sees nothing
/// assert_eq!(cell.read(World::Secure).unwrap()[0], 1);
/// cell.write(World::Secure).unwrap().push(4);
/// assert_eq!(cell.read(World::Secure).unwrap().len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct SecureStorage<T> {
    /// Human-readable resource name used in access-denied errors.
    resource: &'static str,
    value: T,
}

impl<T> SecureStorage<T> {
    /// Wraps `value` in secure storage labelled `resource`.
    pub fn new(resource: &'static str, value: T) -> Self {
        SecureStorage { resource, value }
    }

    /// Reads the value.
    ///
    /// # Errors
    ///
    /// [`HwError::SecureAccessDenied`] if `from` is the normal world.
    pub fn read(&self, from: World) -> Result<&T, HwError> {
        if from.is_secure() {
            Ok(&self.value)
        } else {
            Err(HwError::SecureAccessDenied {
                from,
                resource: self.resource,
            })
        }
    }

    /// Mutable access to the value.
    ///
    /// # Errors
    ///
    /// [`HwError::SecureAccessDenied`] if `from` is the normal world.
    pub fn write(&mut self, from: World) -> Result<&mut T, HwError> {
        if from.is_secure() {
            Ok(&mut self.value)
        } else {
            Err(HwError::SecureAccessDenied {
                from,
                resource: self.resource,
            })
        }
    }
}

/// The outcome of storing a measurement into a bounded slot set.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "an eviction may need to be audited"]
pub enum SlotWrite<T> {
    /// The measurement took a free slot.
    Stored,
    /// All slots were full; the oldest measurement was evicted to make
    /// room. Overflow used to be a panic — it is now this typed outcome,
    /// so long campaigns degrade to a sliding window instead of aborting.
    Evicted(T),
}

/// A bounded, secure-world-only set of measurement slots.
///
/// Models the fixed-size region of secure memory the TSP reserves for
/// recent measurement records: capacity is set once (non-zero by type),
/// writes past capacity evict the oldest entry and report it, and every
/// access takes a [`World`] witness exactly like [`SecureStorage`].
///
/// # Example
///
/// ```
/// use satin_secure::storage::{MeasurementSlots, SlotWrite};
/// use satin_hw::World;
/// use std::num::NonZeroUsize;
///
/// let mut slots = MeasurementSlots::new("recent digests", NonZeroUsize::new(2).unwrap());
/// assert_eq!(slots.push(World::Secure, 10u64).unwrap(), SlotWrite::Stored);
/// assert_eq!(slots.push(World::Secure, 11).unwrap(), SlotWrite::Stored);
/// // A third measurement evicts the oldest instead of panicking.
/// assert_eq!(slots.push(World::Secure, 12).unwrap(), SlotWrite::Evicted(10));
/// assert!(slots.push(World::Normal, 13).is_err()); // attacker writes nothing
/// ```
#[derive(Debug, Clone)]
pub struct MeasurementSlots<T> {
    resource: &'static str,
    capacity: NonZeroUsize,
    slots: VecDeque<T>,
    evictions: u64,
    denied_accesses: u64,
}

impl<T> MeasurementSlots<T> {
    /// Empty slots labelled `resource` holding at most `capacity` entries.
    pub fn new(resource: &'static str, capacity: NonZeroUsize) -> Self {
        MeasurementSlots {
            resource,
            capacity,
            slots: VecDeque::with_capacity(capacity.get()),
            evictions: 0,
            denied_accesses: 0,
        }
    }

    fn denied(&mut self, from: World) -> HwError {
        self.denied_accesses += 1;
        HwError::SecureAccessDenied {
            from,
            resource: self.resource,
        }
    }

    /// Stores `value`, evicting the oldest entry if all slots are full.
    ///
    /// # Errors
    ///
    /// [`HwError::SecureAccessDenied`] if `from` is the normal world
    /// (nothing is stored and nothing is evicted).
    pub fn push(&mut self, from: World, value: T) -> Result<SlotWrite<T>, HwError> {
        if !from.is_secure() {
            return Err(self.denied(from));
        }
        let outcome = if self.slots.len() == self.capacity.get() {
            self.evictions += 1;
            // Non-panicking even if the invariant above ever broke:
            // an empty deque simply yields `Stored`.
            match self.slots.pop_front() {
                Some(old) => SlotWrite::Evicted(old),
                None => SlotWrite::Stored,
            }
        } else {
            SlotWrite::Stored
        };
        self.slots.push_back(value);
        Ok(outcome)
    }

    /// Reads the retained measurements, oldest first.
    ///
    /// # Errors
    ///
    /// [`HwError::SecureAccessDenied`] if `from` is the normal world.
    #[cfg(test)]
    pub(crate) fn read(&self, from: World) -> Result<impl Iterator<Item = &T>, HwError> {
        if from.is_secure() {
            Ok(self.slots.iter())
        } else {
            Err(HwError::SecureAccessDenied {
                from,
                resource: self.resource,
            })
        }
    }

    /// Number of retained measurements (not secret: the attacker knows
    /// the TSP's slot count from its binary).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The fixed slot capacity.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> NonZeroUsize {
        self.capacity
    }

    /// How many measurements have been evicted to make room.
    #[cfg(test)]
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// How many normal-world accesses were denied.
    #[cfg(test)]
    pub(crate) fn denied_accesses(&self) -> u64 {
        self.denied_accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normal_world_denied() {
        let mut cell = SecureStorage::new("hash table", 42u64);
        assert!(cell.read(World::Normal).is_err());
        assert!(cell.write(World::Normal).is_err());
    }

    #[test]
    fn secure_world_full_access() {
        let mut cell = SecureStorage::new("queue", vec![0u8]);
        cell.write(World::Secure).unwrap().push(1);
        assert_eq!(cell.read(World::Secure).unwrap(), &vec![0, 1]);
    }

    #[test]
    fn error_names_resource() {
        let cell = SecureStorage::new("wake-up queue", ());
        let err = cell.read(World::Normal).unwrap_err();
        assert!(err.to_string().contains("wake-up queue"));
    }

    #[test]
    fn slots_evict_oldest_on_overflow() {
        let mut slots = MeasurementSlots::new("digests", NonZeroUsize::new(3).unwrap());
        for v in 0..3u32 {
            assert_eq!(slots.push(World::Secure, v).unwrap(), SlotWrite::Stored);
        }
        assert_eq!(slots.push(World::Secure, 3).unwrap(), SlotWrite::Evicted(0));
        assert_eq!(slots.push(World::Secure, 4).unwrap(), SlotWrite::Evicted(1));
        let kept: Vec<u32> = slots.read(World::Secure).unwrap().copied().collect();
        assert_eq!(kept, vec![2, 3, 4]);
        assert_eq!(slots.evictions(), 2);
        assert_eq!(slots.len(), 3);
    }

    #[test]
    fn slots_deny_normal_world() {
        let mut slots = MeasurementSlots::new("digests", NonZeroUsize::new(2).unwrap());
        assert_eq!(slots.push(World::Secure, 1u8).unwrap(), SlotWrite::Stored);
        assert!(slots.push(World::Normal, 2).is_err());
        assert!(slots.read(World::Normal).is_err());
        assert_eq!(slots.denied_accesses(), 1);
        let kept: Vec<u8> = slots.read(World::Secure).unwrap().copied().collect();
        assert_eq!(kept, vec![1], "denied push must store nothing");
    }

    proptest! {
        /// Whatever the capacity and push count, the slot set never
        /// overflows, never panics, retains exactly the most recent
        /// pushes in order, and accounts for every eviction.
        #[test]
        fn prop_slots_bounded_and_fifo(cap in 1usize..64, pushes in 0usize..256) {
            let capacity = NonZeroUsize::new(cap).unwrap();
            let mut slots = MeasurementSlots::new("prop", capacity);
            for v in 0..pushes {
                match slots.push(World::Secure, v).unwrap() {
                    SlotWrite::Evicted(old) => {
                        prop_assert_eq!(old, v - cap, "FIFO eviction order");
                    }
                    SlotWrite::Stored => prop_assert!(v < cap, "free slot implies under capacity"),
                }
                prop_assert!(slots.len() <= cap);
            }
            prop_assert_eq!(slots.len(), pushes.min(cap));
            prop_assert_eq!(slots.evictions(), pushes.saturating_sub(cap) as u64);
            let kept: Vec<usize> = slots.read(World::Secure).unwrap().copied().collect();
            let expect: Vec<usize> = (pushes.saturating_sub(cap)..pushes).collect();
            prop_assert_eq!(kept, expect, "retained = most recent pushes, oldest first");
        }
    }
}
