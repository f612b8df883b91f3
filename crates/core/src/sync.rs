//! Synchronous introspection (§VII-A, §VII-C): the TZ-RKP/SPROBES layer that
//! SATIN complements.
//!
//! "Samsung TIMA deploys a synchronous introspection mechanism called
//! Real-time Kernel Protection (RKP) … and deploys an asynchronous
//! introspection mechanism called Periodical Kernel Measurement (PKM) in
//! TrustZone" (§VII-C). Synchronous protection marks invariant kernel pages
//! non-writable so every write traps to the secure world for inspection —
//! but §VII-A explains the two ways attackers get past it: hooking is
//! incomplete (some state is never protected, e.g. the RT scheduler's
//! configuration), and write-what-where bugs let the attacker flip the AP
//! bits without a trap.
//!
//! [`SyncProtection`] models the deployed layer: it protects configured
//! ranges at boot and records every trapped write attempt. Together with
//! SATIN it demonstrates the paper's layered-defense argument: the
//! synchronous layer blocks naive writes, the exploit bypasses it silently,
//! and the asynchronous layer is what ultimately catches the persistent
//! modification.

use satin_mem::{KernelLayout, MemRange, PhysAddr, PhysMemory, SectionKind};
use satin_sim::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// A write attempt that faulted on a protected page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrappedWrite {
    /// When the trap fired.
    pub at: SimTime,
    /// The faulting address.
    pub addr: PhysAddr,
    /// Length of the attempted write.
    pub len: u64,
}

#[derive(Debug, Default)]
struct Inner {
    traps: Vec<TrappedWrite>,
    protected: Vec<MemRange>,
}

/// The deployed synchronous-protection layer.
///
/// # Example
///
/// ```
/// use satin_core::sync::SyncProtection;
/// use satin_mem::{KernelLayout, PhysMemory};
///
/// let layout = KernelLayout::paper();
/// let mut mem = PhysMemory::with_image(&layout, 1);
/// let sync = SyncProtection::deploy_invariant(&layout, &mut mem);
/// // A naive write to the syscall table now faults…
/// let addr = layout.syscall_entry_addr(178);
/// let err = mem.write(addr, &[0u8; 8]).unwrap_err();
/// sync.record_trap(satin_sim::SimTime::ZERO, addr, 8);
/// assert_eq!(sync.trap_count(), 1);
/// # let _ = err;
/// ```
#[derive(Debug, Clone, Default)]
pub struct SyncProtection {
    inner: Rc<RefCell<Inner>>,
}

impl SyncProtection {
    /// Deploys protection over the kernel's invariant sections (text,
    /// read-only data, the vector table, and the syscall table) — the
    /// TZ-RKP/SPROBES coverage the paper describes.
    pub fn deploy_invariant(layout: &KernelLayout, mem: &mut PhysMemory) -> SyncProtection {
        let p = SyncProtection::default();
        for s in layout.sections() {
            let invariant = matches!(
                s.kind(),
                SectionKind::Text
                    | SectionKind::RoData
                    | SectionKind::VectorTable
                    | SectionKind::SyscallTable
            );
            if invariant {
                mem.perms_mut().protect(s.range());
                p.inner.borrow_mut().protected.push(s.range());
            }
        }
        p
    }

    /// Records a trapped (blocked) write — called by whoever observed the
    /// [`satin_mem::MemError::WriteProtected`] fault.
    pub fn record_trap(&self, at: SimTime, addr: PhysAddr, len: u64) {
        self.inner
            .borrow_mut()
            .traps
            .push(TrappedWrite { at, addr, len });
    }

    /// All trapped writes so far.
    pub fn traps(&self) -> Vec<TrappedWrite> {
        self.inner.borrow().traps.clone()
    }

    /// Number of trapped writes.
    pub fn trap_count(&self) -> usize {
        self.inner.borrow().traps.len()
    }

    /// `true` if `addr` falls inside a protected range — i.e. a write there
    /// *should* trap, so a successful silent write indicates the AP bits
    /// were flipped behind the layer's back (the §VII-A bypass).
    pub fn covers(&self, addr: PhysAddr) -> bool {
        self.inner
            .borrow()
            .protected
            .iter()
            .any(|r| r.contains(addr))
    }

    /// Audit: verify that every protected range is still non-writable in
    /// the page tables. Returns the addresses whose AP bits no longer match
    /// the deployed policy — the tell-tale residue of a write-what-where
    /// bypass (something a more thorough asynchronous checker could scan
    /// for, as §III-C1 suggests for KProber-I's traces).
    pub fn audit_ap_bits(&self, mem: &PhysMemory) -> Vec<PhysAddr> {
        let mut violations = Vec::new();
        for r in self.inner.borrow().protected.iter() {
            let mut a = r.start();
            while a < r.end() {
                if mem.perms().is_writable(a) {
                    violations.push(a);
                }
                a = a + satin_mem::perms::PAGE_SIZE;
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satin_mem::layout::GETTID_NR;

    fn setup() -> (KernelLayout, PhysMemory, SyncProtection) {
        let layout = KernelLayout::paper();
        let mut mem = PhysMemory::with_image(&layout, 4);
        let sync = SyncProtection::deploy_invariant(&layout, &mut mem);
        (layout, mem, sync)
    }

    #[test]
    fn invariant_sections_protected_data_still_writable() {
        let (layout, mut mem, sync) = setup();
        // Writes to text fault…
        let text = layout.section(".text").unwrap().range().start();
        assert!(mem.write(text, &[0]).is_err());
        assert!(sync.covers(text));
        // …writes to mutable data do not (synchronous protection cannot
        // cover everything — §VII-A's "incomplete hooking").
        let data = layout.section(".data.part0").unwrap().range().start();
        assert!(mem.write(data, &[0]).is_ok());
        assert!(!sync.covers(data));
    }

    #[test]
    fn naive_rootkit_blocked_and_logged() {
        let (layout, mut mem, sync) = setup();
        let addr = layout.syscall_entry_addr(GETTID_NR);
        let evil = satin_mem::image::hijacked_entry_bytes(&layout, 9);
        let err = mem.write(addr, &evil);
        assert!(err.is_err(), "synchronous layer must block the naive write");
        sync.record_trap(SimTime::from_millis(5), addr, 8);
        assert_eq!(sync.trap_count(), 1);
        assert_eq!(sync.traps()[0].addr, addr);
    }

    #[test]
    fn write_what_where_bypasses_silently_but_leaves_ap_residue() {
        let (layout, mut mem, sync) = setup();
        let addr = layout.syscall_entry_addr(GETTID_NR);
        // Before the exploit: clean audit.
        assert!(sync.audit_ap_bits(&mem).is_empty());
        // The §VII-A bypass: flip AP bits, then write without any trap.
        assert!(mem.perms_mut().exploit_write_what_where(addr));
        let evil = satin_mem::image::hijacked_entry_bytes(&layout, 9);
        assert!(mem.write(addr, &evil).is_ok());
        assert_eq!(sync.trap_count(), 0, "the bypass must be silent");
        // But the flipped page is auditable after the fact.
        let residue = sync.audit_ap_bits(&mem);
        assert_eq!(residue.len(), 1);
        assert!(sync.covers(residue[0]));
    }

    #[test]
    fn layered_defense_catches_what_sync_missed() {
        use crate::integrity::IntegrityChecker;
        use satin_hash::HashAlgorithm;
        use satin_hw::CoreId;

        let (layout, mut mem, sync) = setup();
        let plan = crate::areas::AreaPlan::from_segments(&layout);
        let mut checker =
            IntegrityChecker::measure_at_boot(&mem, &plan, HashAlgorithm::Djb2).unwrap();
        // The attacker bypasses the synchronous layer…
        let addr = layout.syscall_entry_addr(GETTID_NR);
        mem.perms_mut().exploit_write_what_where(addr);
        let evil = satin_mem::image::hijacked_entry_bytes(&layout, 9);
        mem.write(addr, &evil).unwrap();
        assert_eq!(sync.trap_count(), 0);
        // …but the asynchronous layer (SATIN's checker) still catches it.
        let area = satin_mem::PAPER_SYSCALL_AREA;
        let bytes = mem.read(plan.area(area).range).unwrap().to_vec();
        let out = checker.check_round(SimTime::from_secs(8), CoreId::new(0), area, &bytes);
        assert!(out.is_tampered(), "the asynchronous layer is the backstop");
    }
}
