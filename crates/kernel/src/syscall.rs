//! The system call table: the sample rootkit's hijack target.
//!
//! Paper §IV-A2: "we implement a kernel-level attack that can hijack the
//! GETTID system call. Successful system hijacking requires modifying an
//! entry of the system call table, and this attack modifies one 8-bytes
//! address of the system call table. Since the system call table is defined
//! as text kernel data, TrustZone-based introspection can detect the GETTID
//! system call is hijacked if the introspection scans and detects any of
//! these 8 bytes is modified."

use satin_mem::layout::SYSCALL_ENTRY_SIZE;
use satin_mem::{KernelLayout, PhysAddr};

/// A view of the in-memory syscall table.
///
/// # Example
///
/// ```
/// use satin_kernel::syscall::SyscallTable;
/// use satin_mem::layout::GETTID_NR;
/// use satin_mem::{KernelLayout, PhysMemory};
///
/// let layout = KernelLayout::paper();
/// let mem = PhysMemory::with_image(&layout, 42);
/// let table = SyscallTable::new(&layout);
/// let handler = mem.read_u64(table.entry_addr(GETTID_NR)).unwrap();
/// assert!(handler != 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyscallTable {
    base: PhysAddr,
    entries: u64,
}

impl SyscallTable {
    /// Locates the syscall table in `layout`.
    ///
    /// # Panics
    ///
    /// Panics if the layout has no syscall-table section.
    pub fn new(layout: &KernelLayout) -> Self {
        let s = layout.syscall_table();
        SyscallTable {
            base: s.range().start(),
            entries: s.range().len() / SYSCALL_ENTRY_SIZE,
        }
    }

    /// Number of entries.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Address of entry `nr`.
    ///
    /// # Panics
    ///
    /// Panics if `nr` is beyond the table.
    pub fn entry_addr(&self, nr: u64) -> PhysAddr {
        assert!(nr < self.entries, "syscall {nr} beyond table");
        self.base + nr * SYSCALL_ENTRY_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satin_mem::layout::GETTID_NR;
    use satin_mem::{MemError, MemRange, PhysMemory};

    /// Well-known AArch64 syscall numbers the tests resolve.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Syscall {
        /// `gettid` (178) — the paper's sample hijack target.
        Gettid,
        /// `getpid` (172) — used as a control in tests.
        Getpid,
        /// `read` (63).
        Read,
        /// `write` (64).
        Write,
    }

    impl Syscall {
        /// The AArch64 syscall number.
        fn nr(self) -> u64 {
            match self {
                Syscall::Gettid => GETTID_NR,
                Syscall::Getpid => 172,
                Syscall::Read => 63,
                Syscall::Write => 64,
            }
        }
    }

    impl SyscallTable {
        /// Reads the handler pointer for `syscall` from memory — this is what
        /// the kernel "executes" on a syscall, so a hijacked entry means a
        /// hijacked syscall.
        ///
        /// # Errors
        ///
        /// Propagates `MemError` if the table lies outside memory.
        fn handler(&self, mem: &PhysMemory, syscall: Syscall) -> Result<u64, MemError> {
            mem.read_u64(self.entry_addr(syscall.nr()))
        }
    }

    fn setup() -> (KernelLayout, PhysMemory, SyscallTable) {
        let layout = KernelLayout::paper();
        let mem = PhysMemory::with_image(&layout, 3);
        let table = SyscallTable::new(&layout);
        (layout, mem, table)
    }

    #[test]
    fn table_geometry() {
        let (layout, _, table) = setup();
        assert_eq!(table.entries(), 450);
        assert_eq!(table.entries() * SYSCALL_ENTRY_SIZE, 3_600);
        assert_eq!(
            table.entry_addr(Syscall::Gettid.nr()),
            layout.syscall_entry_addr(GETTID_NR)
        );
    }

    #[test]
    fn handler_matches_entry_bytes() {
        let (_, mem, table) = setup();
        let h = table.handler(&mem, Syscall::Gettid).unwrap();
        let entry = MemRange::new(table.entry_addr(Syscall::Gettid.nr()), SYSCALL_ENTRY_SIZE);
        let b: [u8; 8] = mem.read(entry).unwrap().try_into().unwrap();
        assert_eq!(h, u64::from_le_bytes(b));
    }

    #[test]
    fn hijack_changes_handler() {
        let (layout, mut mem, table) = setup();
        let before = table.handler(&mem, Syscall::Gettid).unwrap();
        let getpid_before = table.handler(&mem, Syscall::Getpid).unwrap();
        let evil = satin_mem::image::hijacked_entry_bytes(&layout, 7);
        mem.write_unchecked(table.entry_addr(GETTID_NR), &evil)
            .unwrap();
        let after = table.handler(&mem, Syscall::Gettid).unwrap();
        assert_ne!(before, after);
        assert_eq!(after, u64::from_le_bytes(evil));
        // Other syscalls untouched.
        let getpid = table.handler(&mem, Syscall::Getpid).unwrap();
        assert_eq!(getpid, getpid_before);
    }

    #[test]
    #[should_panic(expected = "beyond table")]
    fn out_of_table_entry() {
        let (_, _, table) = setup();
        table.entry_addr(450);
    }

    #[test]
    fn syscall_numbers() {
        assert_eq!(Syscall::Gettid.nr(), 178);
        assert_eq!(Syscall::Getpid.nr(), 172);
        assert_eq!(Syscall::Read.nr(), 63);
        assert_eq!(Syscall::Write.nr(), 64);
    }
}
