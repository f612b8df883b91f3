//! Page access permissions and the write-what-where bypass.
//!
//! Paper §VII-A: synchronous introspection mechanisms (SPROBES, TZ-RKP) mark
//! the kernel's invariant pages non-writable so a write traps into the secure
//! world. But "after getting the root privilege, the attack can utilize a
//! write-what-where vulnerability \[26\] to change the Access Permissions (AP)
//! bits of the related page table entry from non-writable to writable. After
//! that, the attacker can freely modify the vector table without triggering
//! the corresponding synchronous introspection." We model exactly that: a
//! per-page AP bit, a checked-write path that faults, and the exploit
//! primitive that flips the bit.

use crate::addr::{MemRange, PhysAddr};

/// Page size of the simulated MMU.
pub const PAGE_SIZE: u64 = 4096;

/// Per-page writability for a physical range.
///
/// # Example
///
/// ```
/// use satin_mem::perms::PagePermissions;
/// use satin_mem::{MemRange, PhysAddr};
///
/// let r = MemRange::new(PhysAddr::new(0), 4096 * 4);
/// let mut perms = PagePermissions::all_writable(r);
/// perms.protect(MemRange::new(PhysAddr::new(0), 4096));
/// assert!(!perms.is_writable(PhysAddr::new(100)));
/// assert!(perms.is_writable(PhysAddr::new(4096)));
/// // The write-what-where exploit flips the AP bits back:
/// perms.exploit_write_what_where(PhysAddr::new(100));
/// assert!(perms.is_writable(PhysAddr::new(100)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PagePermissions {
    covered: MemRange,
    writable: Vec<bool>,
}

impl PagePermissions {
    /// All pages of `covered` writable.
    ///
    /// # Panics
    ///
    /// Panics if `covered` is empty.
    pub fn all_writable(covered: MemRange) -> Self {
        assert!(!covered.is_empty(), "empty permission range");
        // The page count is bounded by the covered range, itself limited to
        // the simulated image size.
        #[allow(clippy::cast_possible_truncation)]
        let pages = covered.len().div_ceil(PAGE_SIZE) as usize;
        PagePermissions {
            covered,
            writable: vec![true; pages],
        }
    }

    /// Marks every page overlapping `range` read-only (what TZ-RKP/SPROBES
    /// do to the kernel's invariant pages).
    ///
    /// # Panics
    ///
    /// Panics if `range` is not inside the covered range.
    pub fn protect(&mut self, range: MemRange) {
        self.set(range, false);
    }

    /// Marks every page overlapping `range` writable.
    ///
    /// # Panics
    ///
    /// Panics if `range` is not inside the covered range.
    #[cfg(test)]
    pub(crate) fn unprotect(&mut self, range: MemRange) {
        self.set(range, true);
    }

    /// `true` if the page containing `addr` is writable.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the covered range.
    pub fn is_writable(&self, addr: PhysAddr) -> bool {
        self.writable
            .get(self.page_of(addr))
            .copied()
            .expect("page index derived from a covered address")
    }

    /// `true` if every page overlapping `range` is writable.
    ///
    /// # Panics
    ///
    /// Panics if `range` is not inside the covered range.
    pub(crate) fn is_range_writable(&self, range: MemRange) -> bool {
        if range.is_empty() {
            return true;
        }
        let first = self.page_of(range.start());
        let last = self.page_of(PhysAddr::new(range.end().value() - 1));
        (first..=last).all(|p| {
            self.writable
                .get(p)
                .copied()
                .expect("page index derived from a covered address")
        })
    }

    /// The write-what-where exploit: flips the AP bit of the page containing
    /// `addr` to writable, without any trap the synchronous introspection
    /// could observe (models the KNOX bypass the paper cites as \[26\]).
    ///
    /// Returns `true` if the page was previously protected.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the covered range.
    pub fn exploit_write_what_where(&mut self, addr: PhysAddr) -> bool {
        let page = self.page_of(addr);
        let slot = self
            .writable
            .get_mut(page)
            .expect("page index derived from a covered address");
        let was_protected = !*slot;
        *slot = true;
        was_protected
    }

    fn page_of(&self, addr: PhysAddr) -> usize {
        assert!(
            self.covered.contains(addr),
            "address {addr} outside permission range {}",
            self.covered
        );
        // Bounded by the page count, a usize.
        (addr.offset_from(self.covered.start()) / PAGE_SIZE) as usize
    }

    fn set(&mut self, range: MemRange, value: bool) {
        assert!(
            self.covered.contains_range(&range),
            "range {range} outside permission range {}",
            self.covered
        );
        if range.is_empty() {
            return;
        }
        let first = self.page_of(range.start());
        let last = self.page_of(PhysAddr::new(range.end().value() - 1));
        for p in first..=last {
            *self
                .writable
                .get_mut(p)
                .expect("page index derived from a covered address") = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perms() -> PagePermissions {
        PagePermissions::all_writable(MemRange::new(PhysAddr::new(0x10000), PAGE_SIZE * 8))
    }

    #[test]
    fn protect_rounds_to_pages() {
        let mut p = perms();
        // Protecting a single byte protects its whole page.
        p.protect(MemRange::new(PhysAddr::new(0x10000 + 100), 1));
        assert!(!p.is_writable(PhysAddr::new(0x10000)));
        assert!(!p.is_writable(PhysAddr::new(0x10000 + PAGE_SIZE - 1)));
        assert!(p.is_writable(PhysAddr::new(0x10000 + PAGE_SIZE)));
    }

    #[test]
    fn protect_spanning_pages() {
        let mut p = perms();
        p.protect(MemRange::new(PhysAddr::new(0x10000 + PAGE_SIZE - 1), 2));
        assert!(!p.is_writable(PhysAddr::new(0x10000)));
        assert!(!p.is_writable(PhysAddr::new(0x10000 + PAGE_SIZE)));
        assert!(p.is_writable(PhysAddr::new(0x10000 + 2 * PAGE_SIZE)));
    }

    #[test]
    fn exploit_flips_ap_bits() {
        let mut p = perms();
        let target = PhysAddr::new(0x10000 + 2 * PAGE_SIZE + 7);
        p.protect(MemRange::new(
            PhysAddr::new(0x10000 + 2 * PAGE_SIZE),
            PAGE_SIZE,
        ));
        assert!(!p.is_writable(target));
        assert!(p.exploit_write_what_where(target));
        assert!(p.is_writable(target));
        // Flipping an already-writable page reports false.
        assert!(!p.exploit_write_what_where(target));
    }

    #[test]
    fn range_writable_check() {
        let mut p = perms();
        let prot = MemRange::new(PhysAddr::new(0x10000 + PAGE_SIZE), PAGE_SIZE);
        p.protect(prot);
        assert!(p.is_range_writable(MemRange::new(PhysAddr::new(0x10000), PAGE_SIZE)));
        assert!(!p.is_range_writable(MemRange::new(PhysAddr::new(0x10000), PAGE_SIZE + 1)));
        assert!(p.is_range_writable(MemRange::new(PhysAddr::new(0x10000), 0)));
    }

    #[test]
    #[should_panic(expected = "outside permission range")]
    fn out_of_range_panics() {
        perms().is_writable(PhysAddr::new(0));
    }

    #[test]
    fn unprotect_restores() {
        let mut p = perms();
        let r = MemRange::new(PhysAddr::new(0x10000), PAGE_SIZE * 2);
        p.protect(r);
        p.unprotect(r);
        assert!(p.is_range_writable(r));
    }
}
