//! Deterministic synthetic kernel content.
//!
//! Section content is generated from a per-section seed (derived from the
//! image seed and the section name) so that the same layout + seed always
//! yields the same bytes — and therefore the same authorized digests —
//! across runs, processes, and machines. Syscall-table sections get
//! plausible-looking 8-byte function pointers into the text section rather
//! than noise, so the sample rootkit's hijack looks like the real thing
//! (swap one pointer for another).

use crate::layout::{KernelLayout, SectionKind, SYSCALL_ENTRY_SIZE};

/// Fills a buffer with the synthetic image for `layout`.
///
/// The buffer length must equal `layout.total_size()`.
///
/// # Panics
///
/// Panics if `buf.len() != layout.total_size()`.
///
/// # Example
///
/// ```
/// use satin_mem::{KernelLayout, PhysMemory};
/// let layout = KernelLayout::paper();
/// let image = |seed| PhysMemory::with_image(&layout, seed).read(layout.range()).unwrap().to_vec();
/// assert_eq!(image(42), image(42)); // fully deterministic
/// assert_ne!(image(42), image(43));
/// ```
pub(crate) fn fill(layout: &KernelLayout, seed: u64, buf: &mut [u8]) {
    assert_eq!(
        buf.len() as u64,
        layout.total_size(),
        "buffer size mismatch"
    );
    let base = layout.base();
    for section in layout.sections() {
        // Section offsets/lengths fit the image buffer, whose length is a
        // usize by construction.
        #[allow(clippy::cast_possible_truncation)]
        let start = section.range().start().offset_from(base) as usize;
        #[allow(clippy::cast_possible_truncation)]
        let len = section.range().len() as usize;
        let chunk = buf
            .get_mut(start..start + len)
            .expect("section range within layout buffer (asserted above)");
        let sseed = mix(seed, hash_name(section.name()));
        match section.kind() {
            SectionKind::Bss => chunk.fill(0),
            SectionKind::SyscallTable => fill_syscall_table(layout, sseed, chunk),
            _ => fill_noise(sseed, chunk),
        }
    }
}

/// Allocates and fills a fresh image buffer.
#[cfg(test)]
pub(crate) fn generate(layout: &KernelLayout, seed: u64) -> Vec<u8> {
    // The paper layout is a few MiB; a u64 size that overflows usize could
    // not be allocated anyway.
    #[allow(clippy::cast_possible_truncation)]
    let mut buf = vec![0u8; layout.total_size() as usize];
    fill(layout, seed, &mut buf);
    buf
}

/// A plausible replacement pointer for a hijacked syscall entry: an address
/// inside the text section that differs from the genuine entry.
pub fn hijacked_entry_bytes(layout: &KernelLayout, seed: u64) -> [u8; 8] {
    let text = layout
        .sections()
        .iter()
        .filter(|s| s.kind() == SectionKind::Text)
        .max_by_key(|s| s.range().len())
        .expect("layout has a text section");
    let off = mix(seed, 0x6a61_636b) % text.range().len().max(1);
    let addr = text.range().start().value() + (off & !0x3); // 4-byte aligned
    addr.to_le_bytes()
}

fn fill_syscall_table(layout: &KernelLayout, seed: u64, chunk: &mut [u8]) {
    // Entries point into the text section at deterministic offsets.
    let text = layout
        .sections()
        .iter()
        .filter(|s| s.kind() == SectionKind::Text)
        .max_by_key(|s| s.range().len());
    let (text_base, text_len) = match text {
        Some(t) => (t.range().start().value(), t.range().len()),
        None => (layout.base().value(), layout.total_size()),
    };
    // SYSCALL_ENTRY_SIZE is 8.
    #[allow(clippy::cast_possible_truncation)]
    let entry_size = SYSCALL_ENTRY_SIZE as usize;
    for (i, entry) in chunk.chunks_exact_mut(entry_size).enumerate() {
        let off = mix(seed, i as u64) % text_len.max(1);
        let addr = text_base + (off & !0x3);
        entry.copy_from_slice(&addr.to_le_bytes());
    }
    // Tail bytes (if the section size is not a multiple of 8) are zero.
    let tail = chunk.len() - chunk.len() % entry_size;
    for b in chunk
        .get_mut(tail..)
        .expect("tail <= len: it is len minus a remainder")
    {
        *b = 0;
    }
}

fn fill_noise(seed: u64, chunk: &mut [u8]) {
    // SplitMix64 stream, one little-endian word per 8 bytes: fast and fully
    // deterministic. A short tail takes the leading bytes of the next word.
    let mut state = seed;
    let mut next_word = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(state, 0).to_le_bytes()
    };
    let mut words = chunk.chunks_exact_mut(8);
    for word in &mut words {
        word.copy_from_slice(&next_word());
    }
    for (b, s) in words.into_remainder().iter_mut().zip(next_word()) {
        *b = s;
    }
}

fn hash_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(31);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::GETTID_NR;

    #[test]
    fn deterministic_per_seed() {
        let l = KernelLayout::paper();
        assert_eq!(generate(&l, 7), generate(&l, 7));
        assert_ne!(generate(&l, 7), generate(&l, 8));
    }

    #[test]
    fn bss_is_zero() {
        let l = KernelLayout::paper();
        let img = generate(&l, 1);
        let bss = l.section(".bss.part0").unwrap();
        let start = bss.range().start().offset_from(l.base()) as usize;
        let len = bss.range().len() as usize;
        assert!(img[start..start + len].iter().all(|b| *b == 0));
    }

    #[test]
    fn text_is_not_zero() {
        let l = KernelLayout::paper();
        let img = generate(&l, 1);
        let text = l.section(".text").unwrap();
        let start = text.range().start().offset_from(l.base()) as usize;
        assert!(img[start..start + 64].iter().any(|b| *b != 0));
    }

    #[test]
    fn syscall_entries_point_into_text() {
        let l = KernelLayout::paper();
        let img = generate(&l, 1);
        let text = l.section(".text").unwrap().range();
        let addr = l.syscall_entry_addr(GETTID_NR);
        let off = addr.offset_from(l.base()) as usize;
        let ptr = u64::from_le_bytes(img[off..off + 8].try_into().unwrap());
        assert!(
            text.contains(crate::PhysAddr::new(ptr)),
            "{ptr:#x} not in {text}"
        );
    }

    #[test]
    fn hijacked_entry_differs_from_genuine() {
        let l = KernelLayout::paper();
        let img = generate(&l, 1);
        let addr = l.syscall_entry_addr(GETTID_NR);
        let off = addr.offset_from(l.base()) as usize;
        let genuine: [u8; 8] = img[off..off + 8].try_into().unwrap();
        let hijacked = hijacked_entry_bytes(&l, 99);
        assert_ne!(genuine, hijacked);
        // Still a text address — stealthy to a naive pointer-range check.
        let text = l.section(".text").unwrap().range();
        let ptr = u64::from_le_bytes(hijacked);
        assert!(text.contains(crate::PhysAddr::new(ptr)));
    }

    /// The word-wide fill writes exactly the bytes of the byte-at-a-time
    /// SplitMix64 loop it replaced, tails included.
    #[test]
    fn noise_matches_bytewise_reference() {
        fn reference(seed: u64, chunk: &mut [u8]) {
            let mut state = seed;
            for block in chunk.chunks_mut(8) {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                for (b, s) in block.iter_mut().zip(mix(state, 0).to_le_bytes()) {
                    *b = s;
                }
            }
        }
        for len in [0, 1, 7, 8, 9, 63, 64, 4099] {
            let (mut got, mut want) = (vec![0xa5; len], vec![0x5a; len]);
            fill_noise(42, &mut got);
            reference(42, &mut want);
            assert_eq!(got, want, "len {len}");
        }
    }

    #[test]
    fn different_sections_get_different_content() {
        let l = KernelLayout::paper();
        let img = generate(&l, 1);
        let a = l.section(".data.part0").unwrap();
        let b = l.section(".data.part1").unwrap();
        let ao = a.range().start().offset_from(l.base()) as usize;
        let bo = b.range().start().offset_from(l.base()) as usize;
        assert_ne!(&img[ao..ao + 256], &img[bo..bo + 256]);
    }
}
