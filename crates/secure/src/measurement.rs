//! Boot-time measurement: enrolling the authorized hash table.
//!
//! Paper §VI-A2: "During the booting time, SATIN hashes these 19 areas and
//! then saves these hash values into an authorized hash table stored in the
//! secure world." Measurement happens during trusted boot, before any
//! normal-world code has run, so the digests describe the pristine kernel.

use satin_hash::{AuthorizedHashTable, HashAlgorithm};
use satin_mem::{MemError, MemRange, PhysMemory};

use crate::storage::SecureStorage;

/// Measures `areas` of `mem` and returns the authorized table wrapped in
/// secure storage.
///
/// # Errors
///
/// Propagates [`MemError`] if an area lies outside memory.
///
/// # Example
///
/// ```
/// use satin_hash::HashAlgorithm;
/// use satin_hw::World;
/// use satin_mem::{KernelLayout, PhysMemory};
/// use satin_secure::measurement::measure_at_boot;
///
/// let layout = KernelLayout::paper();
/// let mem = PhysMemory::with_image(&layout, 42);
/// let table = measure_at_boot(&mem, &layout.segment_ranges(), HashAlgorithm::Djb2).unwrap();
/// assert_eq!(table.read(World::Secure).unwrap().len(), 19);
/// assert!(table.read(World::Normal).is_err());
/// ```
pub fn measure_at_boot(
    mem: &PhysMemory,
    areas: &[MemRange],
    algorithm: HashAlgorithm,
) -> Result<SecureStorage<AuthorizedHashTable>, MemError> {
    let mut table = AuthorizedHashTable::new(algorithm);
    for (idx, area) in areas.iter().enumerate() {
        // One bounds check per area, then a slice-batched digest.
        table.enroll(idx, mem.view(*area)?.digest(algorithm));
    }
    Ok(SecureStorage::new("authorized hash table", table))
}

#[cfg(test)]
mod tests {
    use super::*;
    use satin_hash::VerifyOutcome;
    use satin_hw::World;
    use satin_mem::KernelLayout;

    /// Re-measures one area against the enrolled digest (the *runtime* check
    /// goes through the scan-window path because it must model the race).
    fn verify_area_now(
        mem: &PhysMemory,
        area: MemRange,
        idx: usize,
        table: &SecureStorage<AuthorizedHashTable>,
    ) -> Result<satin_hash::VerifyOutcome, MemError> {
        let t = table
            .read(World::Secure)
            .expect("verify_area_now runs in the secure world");
        let digest = mem.view(area)?.digest(t.algorithm());
        Ok(t.verify(idx, digest))
    }

    fn setup() -> (KernelLayout, PhysMemory, SecureStorage<AuthorizedHashTable>) {
        let layout = KernelLayout::paper();
        let mem = PhysMemory::with_image(&layout, 11);
        let table = measure_at_boot(&mem, &layout.segment_ranges(), HashAlgorithm::Djb2).unwrap();
        (layout, mem, table)
    }

    #[test]
    fn pristine_kernel_verifies_clean() {
        let (layout, mem, table) = setup();
        for (idx, area) in layout.segment_ranges().iter().enumerate() {
            assert_eq!(
                verify_area_now(&mem, *area, idx, &table).unwrap(),
                VerifyOutcome::Clean,
                "area {idx}"
            );
        }
    }

    #[test]
    fn tampering_detected_in_exactly_one_area() {
        let (layout, mut mem, table) = setup();
        let addr = layout.syscall_entry_addr(satin_mem::layout::GETTID_NR);
        let evil = satin_mem::image::hijacked_entry_bytes(&layout, 5);
        mem.write_unchecked(addr, &evil).unwrap();
        let mut tampered = Vec::new();
        for (idx, area) in layout.segment_ranges().iter().enumerate() {
            if verify_area_now(&mem, *area, idx, &table)
                .unwrap()
                .is_tampered()
            {
                tampered.push(idx);
            }
        }
        assert_eq!(tampered, vec![satin_mem::PAPER_SYSCALL_AREA]);
    }

    #[test]
    fn restore_returns_to_clean() {
        let (layout, mut mem, table) = setup();
        let addr = layout.syscall_entry_addr(satin_mem::layout::GETTID_NR);
        let area = layout.segment_range(satin_mem::PAPER_SYSCALL_AREA);
        let original = mem.read(MemRange::new(addr, 8)).unwrap().to_vec();
        let evil = satin_mem::image::hijacked_entry_bytes(&layout, 5);
        mem.write_unchecked(addr, &evil).unwrap();
        assert!(
            verify_area_now(&mem, area, satin_mem::PAPER_SYSCALL_AREA, &table)
                .unwrap()
                .is_tampered()
        );
        mem.write_unchecked(addr, &original).unwrap();
        assert_eq!(
            verify_area_now(&mem, area, satin_mem::PAPER_SYSCALL_AREA, &table).unwrap(),
            VerifyOutcome::Clean
        );
    }

    #[test]
    fn table_is_secure_only() {
        let (_, _, table) = setup();
        assert!(table.read(World::Normal).is_err());
    }
}
