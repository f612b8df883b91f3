//! Physical addresses and byte ranges.

use std::fmt;

/// A physical address in the simulated machine.
///
/// # Example
///
/// ```
/// use satin_mem::PhysAddr;
/// let a = PhysAddr::new(0x8000_0000);
/// assert_eq!((a + 16).value() - a.value(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Wraps a raw address.
    pub const fn new(addr: u64) -> Self {
        PhysAddr(addr)
    }

    /// The raw address value.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Byte offset from `base`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `self < base`.
    pub fn offset_from(self, base: PhysAddr) -> u64 {
        debug_assert!(self.0 >= base.0, "address below base");
        self.0 - base.0
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl std::ops::Add<u64> for PhysAddr {
    type Output = PhysAddr;
    fn add(self, rhs: u64) -> PhysAddr {
        PhysAddr(self.0.checked_add(rhs).expect("address overflow"))
    }
}

impl std::ops::Sub<PhysAddr> for PhysAddr {
    type Output = u64;
    fn sub(self, rhs: PhysAddr) -> u64 {
        self.offset_from(rhs)
    }
}

/// A half-open byte range `[start, start + len)`.
///
/// # Example
///
/// ```
/// use satin_mem::{MemRange, PhysAddr};
/// let r = MemRange::new(PhysAddr::new(100), 10);
/// assert!(r.contains(PhysAddr::new(109)));
/// assert!(!r.contains(PhysAddr::new(110)));
/// assert!(r.overlaps(&MemRange::new(PhysAddr::new(105), 100)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRange {
    start: PhysAddr,
    len: u64,
}

impl MemRange {
    /// A range of `len` bytes starting at `start`.
    pub const fn new(start: PhysAddr, len: u64) -> Self {
        MemRange { start, len }
    }

    /// First address in the range.
    pub const fn start(&self) -> PhysAddr {
        self.start
    }

    /// One past the last address.
    ///
    /// # Panics
    ///
    /// Panics if `start + len` overflows the address space. Bounds
    /// checks use the overflow-safe containment predicates below, so an
    /// adversarial range surfaces as `MemError::OutOfBounds` instead of
    /// reaching this panic.
    pub fn end(&self) -> PhysAddr {
        self.start + self.len
    }

    /// One past the last address, in arithmetic wide enough that a range
    /// reaching past the top of the address space cannot overflow.
    fn end_wide(&self) -> u128 {
        self.start.0 as u128 + self.len as u128
    }

    /// Length in bytes.
    pub const fn len(&self) -> u64 {
        self.len
    }

    /// `true` if the range is empty.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if `addr` lies within the range.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        addr >= self.start && (addr.0 as u128) < self.end_wide()
    }

    /// `true` if `other` lies entirely within this range.
    ///
    /// Overflow-safe: a range reaching past the top of the address space
    /// is simply not contained, so bounds checks on adversarial ranges
    /// report an error instead of panicking on `start + len`.
    pub(crate) fn contains_range(&self, other: &MemRange) -> bool {
        other.is_empty() || (other.start >= self.start && other.end_wide() <= self.end_wide())
    }

    /// `true` if the two ranges share at least one byte (overflow-safe).
    pub fn overlaps(&self, other: &MemRange) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && (self.start.0 as u128) < other.end_wide()
            && (other.start.0 as u128) < self.end_wide()
    }

    /// The intersection of the two ranges, if non-empty (overflow-safe;
    /// clamped to the addressable space).
    // A range's length is at most u64::MAX, so an end of 2^64 implies a
    // start >= 1: the difference always fits a u64.
    #[allow(clippy::cast_possible_truncation)]
    pub fn intersection(&self, other: &MemRange) -> Option<MemRange> {
        let start = self.start.max(other.start);
        let end = self
            .end_wide()
            .min(other.end_wide())
            .min(u64::MAX as u128 + 1);
        ((start.0 as u128) < end).then(|| MemRange::new(start, (end - start.0 as u128) as u64))
    }
}

impl fmt::Display for MemRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `end_wide`, not `end`: error messages quote adversarial ranges,
        // and formatting an error must never panic.
        write!(f, "[{}, {:#x})", self.start, self.end_wide())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn addr_arithmetic() {
        let a = PhysAddr::new(0x1000);
        assert_eq!((a + 0x10).value(), 0x1010);
        assert_eq!((a + 0x10) - a, 0x10);
        assert_eq!(a.offset_from(PhysAddr::new(0x800)), 0x800);
        assert_eq!(a.to_string(), "0x1000");
    }

    #[test]
    fn range_basics() {
        let r = MemRange::new(PhysAddr::new(10), 5);
        assert_eq!(r.end(), PhysAddr::new(15));
        assert_eq!(r.len(), 5);
        assert!(!r.is_empty());
        assert!(r.contains(PhysAddr::new(10)));
        assert!(r.contains(PhysAddr::new(14)));
        assert!(!r.contains(PhysAddr::new(15)));
        assert_eq!(r.to_string(), "[0xa, 0xf)");
    }

    #[test]
    fn empty_range() {
        let e = MemRange::new(PhysAddr::new(10), 0);
        assert!(e.is_empty());
        assert!(!e.contains(PhysAddr::new(10)));
        assert!(!e.overlaps(&MemRange::new(PhysAddr::new(0), 100)));
        // An empty range is vacuously contained anywhere.
        assert!(MemRange::new(PhysAddr::new(0), 5).contains_range(&e));
    }

    #[test]
    fn overlap_and_intersection() {
        let a = MemRange::new(PhysAddr::new(0), 10);
        let b = MemRange::new(PhysAddr::new(5), 10);
        let c = MemRange::new(PhysAddr::new(10), 10);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c)); // half-open: touching is not overlapping
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, MemRange::new(PhysAddr::new(5), 5));
        assert!(a.intersection(&c).is_none());
    }

    #[test]
    fn contains_range() {
        let outer = MemRange::new(PhysAddr::new(0), 100);
        assert!(outer.contains_range(&MemRange::new(PhysAddr::new(0), 100)));
        assert!(outer.contains_range(&MemRange::new(PhysAddr::new(50), 50)));
        assert!(!outer.contains_range(&MemRange::new(PhysAddr::new(50), 51)));
    }

    #[test]
    fn overflowing_ranges_never_panic() {
        // Regression: a range reaching past the top of the address space
        // used to panic with "address overflow" inside the containment
        // math instead of failing the bounds check.
        let wild = MemRange::new(PhysAddr::new(u64::MAX - 4), 100);
        let sane = MemRange::new(PhysAddr::new(0x1000), 16);
        assert!(!sane.contains_range(&wild));
        assert!(!wild.contains_range(&sane));
        assert!(!sane.overlaps(&wild));
        assert!(sane.intersection(&wild).is_none());
        assert!(wild.contains(PhysAddr::new(u64::MAX)));
        // Two wild ranges still compare without panicking.
        let wild2 = MemRange::new(PhysAddr::new(u64::MAX - 8), 100);
        assert!(wild.overlaps(&wild2));
        assert!(!wild2.contains_range(&wild), "wild ends later than wild2");
        assert!(wild.contains_range(&MemRange::new(PhysAddr::new(u64::MAX - 4), 90)));
        let i = wild.intersection(&wild2).unwrap();
        assert_eq!(i.start(), PhysAddr::new(u64::MAX - 4));
        // Clamped to the addressable space.
        assert_eq!(i.len(), 5);
        // Displaying a wild range (as error messages do) must not panic.
        assert!(wild.to_string().contains("0x1000000000000005f"));
    }

    proptest! {
        #[test]
        fn prop_overlap_symmetric(s1 in 0u64..1000, l1 in 0u64..100, s2 in 0u64..1000, l2 in 0u64..100) {
            let a = MemRange::new(PhysAddr::new(s1), l1);
            let b = MemRange::new(PhysAddr::new(s2), l2);
            prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
            prop_assert_eq!(a.intersection(&b), b.intersection(&a));
        }

        #[test]
        fn prop_intersection_iff_overlap(s1 in 0u64..1000, l1 in 0u64..100, s2 in 0u64..1000, l2 in 0u64..100) {
            let a = MemRange::new(PhysAddr::new(s1), l1);
            let b = MemRange::new(PhysAddr::new(s2), l2);
            prop_assert_eq!(a.overlaps(&b), a.intersection(&b).is_some());
            if let Some(i) = a.intersection(&b) {
                prop_assert!(a.contains_range(&i));
                prop_assert!(b.contains_range(&i));
            }
        }
    }
}
