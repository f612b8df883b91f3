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

/// Size of one vector table entry (0x80 bytes of instructions).
pub(crate) const VECTOR_ENTRY_SIZE: u64 = 0x80;

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let layout = KernelLayout::paper();
        let vt = VectorTable::new(&layout).unwrap();
        assert_eq!(vt.vbar, layout.section("vectors").unwrap().range().start());
        let irq = vt.entry_range(VectorSlot::IrqCurrentElSpx);
        assert_eq!(irq.start(), vt.vbar + 6 * 0x80);
    }

    #[test]
    fn missing_vector_table() {
        let layout = KernelLayout::from_segments(
            PhysAddr::new(0),
            &[vec![("only", satin_mem::SectionKind::Text, 4096)]],
        );
        assert!(VectorTable::new(&layout).is_none());
    }
}
