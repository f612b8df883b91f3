//! Golden copies of invariant kernel sections, for alarm remediation.
//!
//! The paper's SATIN stops at raising an alarm (§V-B); deployed systems in
//! the same family (Samsung's RKP) go further and *repair* the violated
//! state from the secure world. This module adds that extension: at trusted
//! boot the secure world keeps byte-exact copies of the kernel's invariant
//! sections (text, read-only data, vector table, syscall table — the same
//! set the synchronous layer protects); on an alarm, SATIN writes the golden
//! bytes back over the tampered area. Mutable sections are never repaired
//! (overwriting live kernel data would crash the rich OS), so an alarm on a
//! purely mutable area remains report-only.
//!
//! Cost: the golden copies occupy secure memory — about 3.5 MB for the
//! paper's layout — which is the classic remediation trade-off.

use satin_hw::World;
use satin_mem::{KernelLayout, MemError, MemRange, PhysMemory, SectionKind};
use satin_secure::SecureStorage;

/// A boot-time golden copy of the invariant sections.
#[derive(Debug)]
pub(crate) struct GoldenStore {
    sections: SecureStorage<Vec<(MemRange, Vec<u8>)>>,
}

impl GoldenStore {
    /// Captures golden copies of `layout`'s invariant sections from the
    /// pristine boot-time memory.
    ///
    /// # Errors
    ///
    /// Propagates [`MemError`] if the layout lies outside memory.
    pub(crate) fn capture_at_boot(
        layout: &KernelLayout,
        mem: &PhysMemory,
    ) -> Result<Self, MemError> {
        let mut sections = Vec::new();
        for s in layout.sections() {
            let invariant = matches!(
                s.kind(),
                SectionKind::Text
                    | SectionKind::RoData
                    | SectionKind::VectorTable
                    | SectionKind::SyscallTable
            );
            if invariant {
                let bytes = mem.read(s.range())?.to_vec();
                sections.push((s.range(), bytes));
            }
        }
        Ok(GoldenStore {
            sections: SecureStorage::new("golden section store", sections),
        })
    }

    /// The golden `(range, bytes)` pairs overlapping `area` — what a repair
    /// of that area should write back. Secure world only.
    ///
    /// The returned slices are clipped to the intersection with `area`.
    pub(crate) fn repairs_for(&self, area: MemRange) -> Vec<(MemRange, Vec<u8>)> {
        let sections = self
            .sections
            .read(World::Secure)
            .expect("golden store is accessed from the secure world");
        let mut out = Vec::new();
        for (range, bytes) in sections.iter() {
            if let Some(hit) = range.intersection(&area) {
                let off = hit.start().offset_from(range.start()) as usize;
                let len = hit.len() as usize;
                out.push((hit, bytes[off..off + len].to_vec()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satin_mem::layout::GETTID_NR;

    fn setup() -> (KernelLayout, PhysMemory, GoldenStore) {
        let layout = KernelLayout::paper();
        let mem = PhysMemory::with_image(&layout, 6);
        let store = GoldenStore::capture_at_boot(&layout, &mem).unwrap();
        (layout, mem, store)
    }

    #[test]
    fn captures_invariant_sections_only() {
        let (layout, _, store) = setup();
        // Invariant bytes: all text + rodata + vectors + syscall table.
        let expected: u64 = layout
            .sections()
            .iter()
            .filter(|s| {
                matches!(
                    s.kind(),
                    SectionKind::Text
                        | SectionKind::RoData
                        | SectionKind::VectorTable
                        | SectionKind::SyscallTable
                )
            })
            .map(|s| s.range().len())
            .sum();
        let stored: u64 = store
            .sections
            .read(World::Secure)
            .unwrap()
            .iter()
            .map(|(r, _)| r.len())
            .sum();
        assert_eq!(stored, expected);
        assert!(expected > 3_000_000, "footprint {expected}");
    }

    #[test]
    fn repairs_cover_the_syscall_table_area() {
        let (layout, mem, store) = setup();
        let area = layout.segment_range(satin_mem::PAPER_SYSCALL_AREA);
        let repairs = store.repairs_for(area);
        // Area 14 = mutable .data.part5 + the syscall table: exactly the
        // table is repairable.
        assert_eq!(repairs.len(), 1);
        let (range, bytes) = &repairs[0];
        assert_eq!(*range, layout.syscall_table().range());
        assert_eq!(bytes.as_slice(), mem.read(*range).unwrap());
    }

    #[test]
    fn repairs_clip_to_the_area() {
        let (layout, _, store) = setup();
        // Half of the vector table only.
        let v = layout.vector_table().unwrap().range();
        let half = MemRange::new(v.start(), v.len() / 2);
        let repairs = store.repairs_for(half);
        assert_eq!(repairs.len(), 1);
        assert_eq!(repairs[0].0, half);
        assert_eq!(repairs[0].1.len() as u64, v.len() / 2);
    }

    #[test]
    fn mutable_area_has_no_repairs() {
        let (layout, _, store) = setup();
        // Segment 16 is pure .bss.
        let area = layout.segment_range(16);
        assert!(store.repairs_for(area).is_empty());
    }

    #[test]
    fn golden_bytes_restore_a_hijack() {
        let (layout, mut mem, store) = setup();
        let addr = layout.syscall_entry_addr(GETTID_NR);
        let genuine = mem.read(MemRange::new(addr, 8)).unwrap().to_vec();
        let evil = satin_mem::image::hijacked_entry_bytes(&layout, 2);
        mem.write_unchecked(addr, &evil).unwrap();
        for (range, bytes) in store.repairs_for(layout.segment_range(satin_mem::PAPER_SYSCALL_AREA))
        {
            mem.write_unchecked(range.start(), &bytes).unwrap();
        }
        assert_eq!(mem.read(MemRange::new(addr, 8)).unwrap(), &genuine[..]);
    }
}
