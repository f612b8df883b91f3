//! The AArch64 exception vector table: KProber-I's hijack point.
//!
//! Paper §IV-A1: "In ARMv8-A architecture, the address of the original timer
//! interrupt address is saved in the IRQ Exception Vector, which can be
//! located in the AArch64 Exception Vector Table. The table's starting
//! address is saved in the Vector Based Address Registers `VBAR_ELi`. After
//! locating the timer interrupt, we modify its corresponding table entry to
//! redirect it to our hijacking code." The vector table lives in the
//! monitored kernel image, so the redirect leaves 128 modified bytes for the
//! introspection to find — the extra attack surface the paper notes makes
//! KProber-I easier to detect than KProber-II (§III-C1).

use satin_mem::{KernelLayout, MemRange, PhysAddr};
#[cfg(test)]
use satin_mem::{MemError, PhysMemory};

/// Size of one vector table entry (0x80 bytes of instructions).
pub(crate) const VECTOR_ENTRY_SIZE: u64 = 0x80;

/// Number of entries in the AArch64 table (4 exception types × 4 sources).
#[cfg(test)]
pub(crate) const VECTOR_ENTRIES: u64 = 16;

/// The exception vector slots relevant to the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum VectorSlot {
    /// IRQ from current EL with SPx — the timer-interrupt path KProber-I
    /// redirects (index 6 in the AArch64 layout).
    IrqCurrentElSpx,
    /// Synchronous exception from current EL with SPx (index 4).
    SyncCurrentElSpx,
    /// IRQ from lower EL, AArch64 (index 10).
    IrqLowerEl,
}

impl VectorSlot {
    /// The entry index in the table.
    pub(crate) fn index(self) -> u64 {
        match self {
            VectorSlot::SyncCurrentElSpx => 4,
            VectorSlot::IrqCurrentElSpx => 6,
            VectorSlot::IrqLowerEl => 10,
        }
    }
}

/// A view of the in-memory exception vector table (the address `VBAR_EL1`
/// points to).
///
/// # Example
///
/// ```
/// use satin_kernel::vector::{VectorSlot, VectorTable};
/// use satin_mem::{KernelLayout, PhysMemory};
///
/// let layout = KernelLayout::paper();
/// let mem = PhysMemory::with_image(&layout, 42);
/// let vbar = VectorTable::new(&layout).unwrap();
/// let entry = vbar.entry_range(VectorSlot::IrqCurrentElSpx);
/// assert_eq!(entry.len(), 0x80);
/// let _code = mem.read(entry).unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VectorTable {
    vbar: PhysAddr,
}

impl VectorTable {
    /// Locates the vector table in `layout`, or `None` if the layout has no
    /// vector section.
    pub fn new(layout: &KernelLayout) -> Option<Self> {
        layout.vector_table().map(|s| VectorTable {
            vbar: s.range().start(),
        })
    }

    /// The byte range of one vector entry.
    pub fn entry_range(&self, slot: VectorSlot) -> MemRange {
        MemRange::new(
            self.vbar + slot.index() * VECTOR_ENTRY_SIZE,
            VECTOR_ENTRY_SIZE,
        )
    }

    /// The whole table's range.
    #[cfg(test)]
    pub(crate) fn range(&self) -> MemRange {
        MemRange::new(self.vbar, VECTOR_ENTRIES * VECTOR_ENTRY_SIZE)
    }

    /// Overwrites a vector entry with redirect code — KProber-I's hijack.
    /// Returns the replaced bytes so the attacker can restore them.
    ///
    /// # Errors
    ///
    /// Propagates [`MemError`] (including [`MemError::WriteProtected`] if
    /// the AP bits still protect the page — the attacker must run the
    /// write-what-where exploit first, §VII-A).
    #[cfg(test)]
    pub(crate) fn hijack(
        &self,
        mem: &mut PhysMemory,
        slot: VectorSlot,
        redirect_code: &[u8],
    ) -> Result<Vec<u8>, MemError> {
        assert!(
            redirect_code.len() as u64 <= VECTOR_ENTRY_SIZE,
            "redirect code larger than a vector entry"
        );
        let range = self.entry_range(slot);
        let rec = mem.write(range.start(), redirect_code)?;
        Ok(rec.old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (KernelLayout, PhysMemory, VectorTable) {
        let layout = KernelLayout::paper();
        let mem = PhysMemory::with_image(&layout, 9);
        let vt = VectorTable::new(&layout).unwrap();
        (layout, mem, vt)
    }

    #[test]
    fn geometry() {
        let (layout, _, vt) = setup();
        assert_eq!(vt.range().len(), 2048);
        assert_eq!(vt.vbar, layout.section("vectors").unwrap().range().start());
        let irq = vt.entry_range(VectorSlot::IrqCurrentElSpx);
        assert_eq!(irq.start(), vt.vbar + 6 * 0x80);
    }

    #[test]
    fn hijack_and_restore() {
        let (_, mut mem, vt) = setup();
        let redirect = vec![0x14u8; 16]; // a branch-looking stub
        let old = vt
            .hijack(&mut mem, VectorSlot::IrqCurrentElSpx, &redirect)
            .unwrap();
        assert_eq!(old.len(), 16);
        let now = mem
            .read(MemRange::new(
                vt.entry_range(VectorSlot::IrqCurrentElSpx).start(),
                16,
            ))
            .unwrap();
        assert_eq!(now, &redirect[..]);
        // Restore.
        mem.write_unchecked(vt.entry_range(VectorSlot::IrqCurrentElSpx).start(), &old)
            .unwrap();
    }

    #[test]
    fn hijack_respects_write_protection() {
        let (_, mut mem, vt) = setup();
        mem.perms_mut().protect(vt.range());
        let err = vt
            .hijack(&mut mem, VectorSlot::IrqCurrentElSpx, &[0u8; 8])
            .unwrap_err();
        assert!(matches!(err, MemError::WriteProtected { .. }));
        // After the write-what-where exploit the hijack goes through.
        mem.perms_mut()
            .exploit_write_what_where(vt.entry_range(VectorSlot::IrqCurrentElSpx).start());
        assert!(vt
            .hijack(&mut mem, VectorSlot::IrqCurrentElSpx, &[0u8; 8])
            .is_ok());
    }

    #[test]
    fn missing_vector_table() {
        let layout = KernelLayout::from_segments(
            PhysAddr::new(0),
            &[vec![("only", satin_mem::SectionKind::Text, 4096)]],
        );
        assert!(VectorTable::new(&layout).is_none());
    }

    #[test]
    #[should_panic(expected = "larger than a vector entry")]
    fn oversized_redirect_rejected() {
        let (_, mut mem, vt) = setup();
        let _ = vt.hijack(&mut mem, VectorSlot::IrqLowerEl, &[0u8; 0x81]);
    }
}
