//! Never-panics fuzzing of the `PhysMemory` accessors: every read, view and
//! write on a small fixed memory returns `Ok` or `Err(MemError)`, whatever
//! the requested start and length, up to the top of the address space.
//!
//! `try_zeroed` is deliberately not fuzzed with arbitrary lengths: a huge
//! length asks the host for that much memory.

use proptest::prelude::*;
use satin_mem::perms::PAGE_SIZE;
use satin_mem::{MemRange, PhysAddr, PhysMemory};

const BASE: u64 = 0x8000_0000;
const PAGES: u64 = 3;
const SIZE: u64 = PAGES * PAGE_SIZE;

/// Three pages at `BASE`, the middle one write-protected, so writes reach
/// both the permission check and the bounds check.
fn memory() -> PhysMemory {
    let mut mem = PhysMemory::zeroed(MemRange::new(PhysAddr::new(BASE), SIZE));
    mem.perms_mut()
        .protect(MemRange::new(PhysAddr::new(BASE + PAGE_SIZE), PAGE_SIZE));
    mem
}

/// A value near one of the edges that matter: 0, the memory's start, its
/// end, `u64::MAX`, or anywhere (`pick` selects, `off` jitters, `raw` is
/// the unconstrained draw).
fn edge(pick: u8, off: u64, raw: u64) -> u64 {
    match pick % 5 {
        0 => off,
        1 => (BASE + off).wrapping_sub(64),
        2 => (BASE + SIZE + off).wrapping_sub(64),
        3 => u64::MAX - off,
        _ => raw,
    }
}

/// A length: short (often empty), around the memory's size, near
/// `u64::MAX`, or anything.
fn length(pick: u8, off: u64, raw: u64) -> u64 {
    match pick % 4 {
        0 => off % 9,
        1 => (SIZE + off).wrapping_sub(64),
        2 => u64::MAX - off,
        _ => raw,
    }
}

/// The oracle: `range` starts in `[BASE, BASE + SIZE]` and fits before
/// the end (an empty range at the end is in bounds, one past it is not).
fn in_bounds(range: MemRange) -> bool {
    let start = range.start().value();
    start >= BASE && start - BASE <= SIZE && range.len() <= SIZE - (start - BASE)
}

proptest! {
    #[test]
    fn reads_and_views_never_panic(
        sp in 0u8..5, so in 0u64..128, sr: u64,
        lp in 0u8..4, lo in 0u64..128, lr: u64,
    ) {
        let mem = memory();
        let range = MemRange::new(PhysAddr::new(edge(sp, so, sr)), length(lp, lo, lr));
        let inside = in_bounds(range);
        match mem.read(range) {
            Ok(bytes) => {
                prop_assert!(inside, "out-of-bounds read {range} succeeded");
                prop_assert_eq!(bytes.len() as u64, range.len());
            }
            Err(_) => prop_assert!(!inside, "in-bounds read {range} failed"),
        }
        match mem.view(range) {
            Ok(view) => {
                prop_assert!(inside, "out-of-bounds view {range} succeeded");
                prop_assert_eq!(view.len(), range.len());
            }
            Err(_) => prop_assert!(!inside, "in-bounds view {range} failed"),
        }
        let _ = mem.read_u64(range.start());
    }

    #[test]
    fn writes_never_panic(
        sp in 0u8..5, so in 0u64..128, sr: u64,
        data in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut mem = memory();
        let addr = PhysAddr::new(edge(sp, so, sr));
        if let Ok(rec) = mem.write(addr, &data) {
            prop_assert_eq!(rec.new, data.clone());
            prop_assert_eq!(mem.read(MemRange::new(addr, data.len() as u64)), Ok(&data[..]));
        }
        let _ = mem.write_unchecked(addr, &data);
    }
}
