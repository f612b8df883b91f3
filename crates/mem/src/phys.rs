//! The physical memory backing the normal-world kernel image.

use crate::addr::{MemRange, PhysAddr};
use crate::error::MemError;
use crate::image;
use crate::layout::KernelLayout;
use crate::perms::PagePermissions;
use satin_hash::{HashAlgorithm, HasherKind};

/// A record of one memory write, kept so in-flight scans can resolve what a
/// sequential scanner observed (see [`crate::ScanWindow`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteRecord {
    /// First address written.
    pub addr: PhysAddr,
    /// The bytes that were replaced.
    pub old: Vec<u8>,
    /// The bytes written.
    pub new: Vec<u8>,
}

/// Byte-addressable physical memory holding the kernel image.
///
/// Reads are unrestricted (the secure world may read anything; the normal
/// world reading its own kernel is equally fine). Writes go through the
/// page-permission check unless performed with
/// [`PhysMemory::write_unchecked`], which models a write executed after the
/// attacker has flipped the AP bits.
///
/// # Example
///
/// ```
/// use satin_mem::{KernelLayout, PhysMemory};
/// let layout = KernelLayout::paper();
/// let mem = PhysMemory::with_image(&layout, 42);
/// let text = layout.section(".text").unwrap().range();
/// assert_eq!(mem.read(text).unwrap().len() as u64, text.len());
/// ```
#[derive(Debug, Clone)]
pub struct PhysMemory {
    base: PhysAddr,
    bytes: Vec<u8>,
    perms: PagePermissions,
}

impl PhysMemory {
    /// Allocates memory covering `range`, zero-filled, all pages writable.
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty; `PhysMemory::try_zeroed` is the
    /// fallible form.
    pub fn zeroed(range: MemRange) -> Self {
        Self::try_zeroed(range).expect("non-empty memory range")
    }

    /// Allocates memory covering `range`, zero-filled, all pages writable.
    ///
    /// # Errors
    ///
    /// [`MemError::EmptyRange`] if `range` is empty.
    pub(crate) fn try_zeroed(range: MemRange) -> Result<Self, MemError> {
        if range.is_empty() {
            return Err(MemError::EmptyRange);
        }
        // A range too large for usize could not be backed by host memory
        // anyway.
        #[allow(clippy::cast_possible_truncation)]
        let len = range.len() as usize;
        Ok(PhysMemory {
            base: range.start(),
            bytes: vec![0; len],
            perms: PagePermissions::all_writable(range),
        })
    }

    /// Allocates memory for `layout` and fills it with the deterministic
    /// synthetic image for `seed`.
    pub fn with_image(layout: &KernelLayout, seed: u64) -> Self {
        let mut mem = Self::zeroed(layout.range());
        image::fill(layout, seed, &mut mem.bytes);
        mem
    }

    /// The covered range.
    pub(crate) fn range(&self) -> MemRange {
        MemRange::new(self.base, self.bytes.len() as u64)
    }

    /// Mutable page permissions — used by the synchronous-introspection setup
    /// (protecting invariant pages) and by the exploit that undoes it.
    pub fn perms_mut(&mut self) -> &mut PagePermissions {
        &mut self.perms
    }

    /// Reads `range`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if `range` is not inside memory.
    pub fn read(&self, range: MemRange) -> Result<&[u8], MemError> {
        self.check(range)?;
        // check() bounds both values by self.bytes.len(), a usize.
        #[allow(clippy::cast_possible_truncation)]
        let start = range.start().offset_from(self.base) as usize;
        #[allow(clippy::cast_possible_truncation)]
        let len = range.len() as usize;
        Ok(self
            .bytes
            .get(start..start + len)
            .expect("range validated by check()"))
    }

    /// Reads exactly 8 bytes at `addr` as a little-endian u64 (a pointer).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if the 8 bytes are not inside memory.
    pub fn read_u64(&self, addr: PhysAddr) -> Result<u64, MemError> {
        let bytes: [u8; 8] =
            self.read(MemRange::new(addr, 8))?
                .try_into()
                .map_err(|_| MemError::OutOfBounds {
                    requested: MemRange::new(addr, 8),
                    valid: self.range(),
                })?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Writes `new` at `addr`, honouring page permissions.
    ///
    /// Returns a [`WriteRecord`] with the replaced bytes.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if outside memory;
    /// [`MemError::WriteProtected`] if any touched page is read-only (this is
    /// the fault a synchronous introspection hook would trap on).
    pub fn write(&mut self, addr: PhysAddr, new: &[u8]) -> Result<WriteRecord, MemError> {
        let range = MemRange::new(addr, new.len() as u64);
        self.check(range)?;
        if !self.perms.is_range_writable(range) {
            return Err(MemError::WriteProtected { addr });
        }
        Ok(self.write_raw(addr, new))
    }

    /// Writes `new` at `addr` ignoring page permissions — the attacker's
    /// path after flipping AP bits, or firmware writes at boot.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if outside memory.
    pub fn write_unchecked(&mut self, addr: PhysAddr, new: &[u8]) -> Result<WriteRecord, MemError> {
        self.check(MemRange::new(addr, new.len() as u64))?;
        Ok(self.write_raw(addr, new))
    }

    fn write_raw(&mut self, addr: PhysAddr, new: &[u8]) -> WriteRecord {
        // Both callers check() the range against self.bytes.len() first.
        #[allow(clippy::cast_possible_truncation)]
        let start = addr.offset_from(self.base) as usize;
        let dst = self
            .bytes
            .get_mut(start..start + new.len())
            .expect("range validated by check() in both callers");
        let old = dst.to_vec();
        dst.copy_from_slice(new);
        WriteRecord {
            addr,
            old,
            new: new.to_vec(),
        }
    }

    fn check(&self, range: MemRange) -> Result<(), MemError> {
        // `contains_range` holds for an empty range anywhere; an access
        // still needs its start in [base, base + len] to index the bytes.
        let start_ok = range.start() >= self.base
            && range.start().offset_from(self.base) <= self.bytes.len() as u64;
        if start_ok && self.range().contains_range(&range) {
            Ok(())
        } else {
            Err(MemError::OutOfBounds {
                requested: range,
                valid: self.range(),
            })
        }
    }

    /// Borrows `range` as a [`MemView`]: one bounds check here, then every
    /// access through the view — including its slice-batched [`MemView::digest`]
    /// — is straight contiguous-slice work with no further checks.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] if `range` is not inside memory.
    pub fn view(&self, range: MemRange) -> Result<MemView<'_>, MemError> {
        Ok(MemView {
            range,
            bytes: self.read(range)?,
        })
    }
}

/// A borrowed, bounds-checked-once window over [`PhysMemory`].
///
/// This is the secure path's unit of work: a view is bounds-checked once
/// when the window opens, then digests or copies the backing slice directly.
#[derive(Debug, Clone, Copy)]
pub struct MemView<'a> {
    range: MemRange,
    bytes: &'a [u8],
}

impl<'a> MemView<'a> {
    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.range.len()
    }

    /// `true` if the view covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// One-shot digest of the viewed bytes: enum-dispatched, slice-batched,
    /// allocation-free.
    pub fn digest(&self, algorithm: HashAlgorithm) -> u64 {
        let mut h = HasherKind::new(algorithm);
        h.update(self.bytes);
        h.finish()
    }

    /// Copies the viewed bytes out (the scan window's snapshot).
    pub fn to_vec(&self) -> Vec<u8> {
        self.bytes.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::GETTID_NR;

    #[test]
    fn read_write_round_trip() {
        let mut mem = PhysMemory::zeroed(MemRange::new(PhysAddr::new(0x1000), 64));
        let rec = mem.write(PhysAddr::new(0x1008), &[1, 2, 3]).unwrap();
        assert_eq!(rec.old, vec![0, 0, 0]);
        assert_eq!(rec.new, vec![1, 2, 3]);
        assert_eq!(
            mem.read(MemRange::new(PhysAddr::new(0x1008), 3)).unwrap(),
            &[1, 2, 3]
        );
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mem = PhysMemory::zeroed(MemRange::new(PhysAddr::new(0x1000), 16));
        assert!(mem.read(MemRange::new(PhysAddr::new(0x1010), 1)).is_err());
        assert!(mem.read(MemRange::new(PhysAddr::new(0xfff), 1)).is_err());
        assert!(mem.read(MemRange::new(PhysAddr::new(0x100f), 2)).is_err());
        // Exactly at the end is fine.
        assert!(mem.read(MemRange::new(PhysAddr::new(0x100f), 1)).is_ok());
    }

    #[test]
    fn adversarial_reads_return_bounds_error() {
        // Regression: reads whose range overflows the address space used
        // to panic ("address overflow") inside the bounds check instead
        // of returning OutOfBounds; the error must also format cleanly.
        let mut mem = PhysMemory::zeroed(MemRange::new(PhysAddr::new(0x1000), 16));
        for range in [
            MemRange::new(PhysAddr::new(u64::MAX - 4), 100),
            MemRange::new(PhysAddr::new(u64::MAX), 1),
            MemRange::new(PhysAddr::new(0x1000), u64::MAX),
        ] {
            let err = mem.read(range).unwrap_err();
            assert!(matches!(err, MemError::OutOfBounds { .. }), "{range}");
            assert!(err.to_string().contains("outside"), "{range}");
        }
        assert!(mem.read_u64(PhysAddr::new(u64::MAX - 3)).is_err());
        assert!(mem.write(PhysAddr::new(u64::MAX - 3), &[1; 8]).is_err());
        assert!(mem
            .write_unchecked(PhysAddr::new(u64::MAX - 3), &[1; 8])
            .is_err());
    }

    #[test]
    fn try_zeroed_rejects_empty_range() {
        let err = PhysMemory::try_zeroed(MemRange::new(PhysAddr::new(0x1000), 0)).unwrap_err();
        assert_eq!(err, MemError::EmptyRange);
        assert!(PhysMemory::try_zeroed(MemRange::new(PhysAddr::new(0x1000), 1)).is_ok());
    }

    #[test]
    fn write_protection_faults() {
        let mut mem = PhysMemory::zeroed(MemRange::new(PhysAddr::new(0), 8192));
        mem.perms_mut()
            .protect(MemRange::new(PhysAddr::new(0), 4096));
        let err = mem.write(PhysAddr::new(100), &[1]).unwrap_err();
        assert!(matches!(err, MemError::WriteProtected { .. }));
        // The unchecked path (post-exploit) succeeds.
        mem.write_unchecked(PhysAddr::new(100), &[1]).unwrap();
        assert_eq!(
            mem.read(MemRange::new(PhysAddr::new(100), 1)).unwrap(),
            &[1]
        );
    }

    #[test]
    fn image_backed_memory_matches_generator() {
        let layout = KernelLayout::paper();
        let mem = PhysMemory::with_image(&layout, 5);
        let expected = image::generate(&layout, 5);
        assert_eq!(mem.read(layout.range()).unwrap(), &expected[..]);
    }

    #[test]
    fn read_u64_syscall_entry() {
        let layout = KernelLayout::paper();
        let mem = PhysMemory::with_image(&layout, 5);
        let addr = layout.syscall_entry_addr(GETTID_NR);
        let ptr = mem.read_u64(addr).unwrap();
        let text = layout.section(".text").unwrap().range();
        assert!(text.contains(PhysAddr::new(ptr)));
    }

    #[test]
    fn view_borrows_and_digests_like_read() {
        use satin_hash::hash_bytes;
        let layout = KernelLayout::paper();
        let mem = PhysMemory::with_image(&layout, 9);
        let text = layout.section(".text").unwrap().range();
        let view = mem.view(text).unwrap();
        assert_eq!(view.range, text);
        assert_eq!(view.len(), text.len());
        assert!(!view.is_empty());
        assert_eq!(view.bytes, mem.read(text).unwrap());
        for alg in HashAlgorithm::ALL {
            assert_eq!(view.digest(alg), hash_bytes(alg, mem.read(text).unwrap()));
        }
        assert_eq!(view.to_vec(), mem.read(text).unwrap().to_vec());
        // Out-of-bounds views fail at creation, not at use.
        assert!(mem
            .view(MemRange::new(PhysAddr::new(u64::MAX - 4), 100))
            .is_err());
    }

    #[test]
    fn write_record_captures_old_bytes() {
        let layout = KernelLayout::paper();
        let mut mem = PhysMemory::with_image(&layout, 5);
        let addr = layout.syscall_entry_addr(GETTID_NR);
        let genuine = mem.read(MemRange::new(addr, 8)).unwrap().to_vec();
        let hijack = image::hijacked_entry_bytes(&layout, 11);
        let rec = mem.write_unchecked(addr, &hijack).unwrap();
        assert_eq!(rec.old, genuine);
        assert_eq!(rec.new, hijack.to_vec());
        // Restore and verify round trip.
        mem.write_unchecked(addr, &rec.old).unwrap();
        assert_eq!(mem.read(MemRange::new(addr, 8)).unwrap(), &genuine[..]);
    }
}
