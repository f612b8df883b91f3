//! The synthetic kernel layout: a `System.map` stand-in.
//!
//! The paper's prototype introspects an OpenEmbedded lsk-4.4 kernel of
//! 11,916,240 bytes, divided into 19 areas along `System.map` segment
//! boundaries so that "each section of the normal world OS's System.map only
//! belongs to one area" (§VI-A2). That kernel image is not redistributable,
//! so [`KernelLayout::paper`] builds a deterministic stand-in with the same
//! *segment structure*: 19 contiguous segments whose sizes match the paper's
//! published bounds (largest 876,616 B, smallest 431,360 B, total
//! 11,916,240 B), with the syscall table placed in segment 14 — where the
//! paper's GETTID-hijack experiment puts its target.

use crate::addr::{MemRange, PhysAddr};
use crate::error::MemError;

/// Size of one syscall table entry (a 64-bit function pointer; the paper's
/// sample attack "modifies one 8-bytes address of the system call table").
pub const SYSCALL_ENTRY_SIZE: u64 = 8;

/// AArch64 syscall number of `gettid` — the entry the paper's sample
/// kernel-level attack hijacks (§IV-A2).
pub const GETTID_NR: u64 = 178;

/// What a section holds; determines the synthetic content generator and
/// whether the rich OS is expected to write to it at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SectionKind {
    /// Executable kernel text (invariant after boot).
    Text,
    /// Read-only data (invariant after boot).
    RoData,
    /// The exception vector table (invariant; KProber-I's hijack target).
    VectorTable,
    /// The system call table (invariant; the sample rootkit's target).
    SyscallTable,
    /// Mutable kernel data (still monitored: the paper's experiment treats
    /// the whole mapped kernel as the introspection target).
    Data,
    /// Zero-initialized data.
    Bss,
}

/// One named section of the kernel image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelSection {
    name: String,
    kind: SectionKind,
    range: MemRange,
    segment: usize,
}

impl KernelSection {
    /// Section name as it would appear in `System.map`.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// What the section holds.
    pub fn kind(&self) -> SectionKind {
        self.kind
    }

    /// The section's byte range.
    pub fn range(&self) -> MemRange {
        self.range
    }

    /// The `System.map` segment (introspection area) this section belongs to.
    pub fn segment(&self) -> usize {
        self.segment
    }
}

/// The full kernel layout: contiguous named sections grouped into segments.
///
/// # Example
///
/// ```
/// use satin_mem::KernelLayout;
/// let l = KernelLayout::paper();
/// assert_eq!(l.total_size(), satin_mem::PAPER_KERNEL_SIZE);
/// assert_eq!(l.num_segments(), satin_mem::PAPER_AREA_COUNT);
/// let sys = l.section("sys_call_table").unwrap();
/// assert_eq!(sys.segment(), satin_mem::PAPER_SYSCALL_AREA);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelLayout {
    base: PhysAddr,
    sections: Vec<KernelSection>,
    num_segments: usize,
}

impl KernelLayout {
    /// Default load address of the synthetic kernel image.
    pub(crate) const DEFAULT_BASE: PhysAddr = PhysAddr::new(0x8008_0000);

    /// Builds a layout from per-segment section lists:
    /// `segments[i]` is the ordered list of `(name, kind, size)` for segment
    /// `i`. Sections are laid out contiguously from `base`.
    ///
    /// # Panics
    ///
    /// Panics if any segment is empty, any section has zero size, or two
    /// sections share a name.
    pub fn from_segments(base: PhysAddr, segments: &[Vec<(&str, SectionKind, u64)>]) -> Self {
        assert!(!segments.is_empty(), "layout needs at least one segment");
        let mut sections = Vec::new();
        let mut cursor = base;
        // Membership test only, never iterated, so its order cannot leak.
        #[allow(clippy::disallowed_types)]
        let mut seen = std::collections::HashSet::new();
        for (seg_idx, seg) in segments.iter().enumerate() {
            assert!(!seg.is_empty(), "segment {seg_idx} has no sections");
            for (name, kind, size) in seg {
                assert!(*size > 0, "section {name} has zero size");
                assert!(seen.insert(name.to_string()), "duplicate section {name}");
                sections.push(KernelSection {
                    name: name.to_string(),
                    kind: *kind,
                    range: MemRange::new(cursor, *size),
                    segment: seg_idx,
                });
                cursor = cursor + *size;
            }
        }
        KernelLayout {
            base,
            sections,
            num_segments: segments.len(),
        }
    }

    /// The 19-segment layout matching the paper's published numbers.
    pub fn paper() -> Self {
        use SectionKind::*;
        // Segment sizes: 19 values summing to 11,916,240 with the paper's
        // max (876,616) and min (431,360).
        let segments: Vec<Vec<(&str, SectionKind, u64)>> = vec![
            vec![
                (".head.text", Text, 63_488),
                ("vectors", VectorTable, 2_048),
                (".text", Text, 811_080),
            ], // 876,616 (paper's largest)
            vec![(".text.fixup", Text, 431_360)], // paper's smallest
            vec![(".rodata", RoData, 520_000)],
            vec![
                ("__ksymtab", RoData, 280_000),
                ("__ksymtab_gpl", RoData, 280_000),
            ], // 560,000
            vec![("__param", RoData, 100_000), (".init.text", Text, 500_000)], // 600,000
            vec![(".init.data", Data, 640_000)],
            vec![
                (".exit.text", Text, 80_000),
                (".altinstructions", RoData, 600_000),
            ], // 680,000
            vec![(".data..percpu", Data, 720_000)],
            vec![(".data..read_mostly", Data, 760_000)],
            vec![(".data.part0", Data, 800_000)],
            vec![(".data.part1", Data, 840_000)],
            vec![(".data.part2", Data, 500_000)],
            vec![(".data.part3", Data, 520_000)],
            vec![(".data.part4", Data, 540_000)],
            vec![
                (".data.part5", Data, 556_400),
                ("sys_call_table", SyscallTable, 3_600),
            ], // 560,000 — segment 14, the paper's attack target area
            vec![(".data.part6", Data, 580_000)],
            vec![(".bss.part0", Bss, 600_000)],
            vec![(".bss.part1", Bss, 620_000)],
            vec![(".bss.part2", Bss, 568_264)],
        ];
        Self::from_segments(Self::DEFAULT_BASE, &segments)
    }

    /// Base (load) address.
    pub fn base(&self) -> PhysAddr {
        self.base
    }

    /// Total image size in bytes.
    pub fn total_size(&self) -> u64 {
        self.sections.iter().map(|s| s.range.len()).sum()
    }

    /// The whole image as one range.
    pub fn range(&self) -> MemRange {
        MemRange::new(self.base, self.total_size())
    }

    /// Number of `System.map` segments (introspection areas).
    pub fn num_segments(&self) -> usize {
        self.num_segments
    }

    /// All sections, in address order.
    pub fn sections(&self) -> &[KernelSection] {
        &self.sections
    }

    /// Looks up a section by name.
    ///
    /// # Errors
    ///
    /// [`MemError::NoSuchSection`] if no section has that name.
    pub fn section(&self, name: &str) -> Result<&KernelSection, MemError> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| MemError::NoSuchSection { name: name.into() })
    }

    /// The contiguous byte range of segment `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_segments()`.
    pub fn segment_range(&self, idx: usize) -> MemRange {
        assert!(idx < self.num_segments, "segment {idx} out of range");
        let mut iter = self.sections.iter().filter(|s| s.segment == idx);
        let first = iter.next().expect("segment has sections by construction");
        let last = self
            .sections
            .iter()
            .rfind(|s| s.segment == idx)
            .expect("nonempty");
        MemRange::new(first.range.start(), last.range.end() - first.range.start())
    }

    /// All segment ranges, in order.
    pub fn segment_ranges(&self) -> Vec<MemRange> {
        (0..self.num_segments)
            .map(|i| self.segment_range(i))
            .collect()
    }

    /// The segment containing `addr`, if any.
    #[cfg(test)]
    pub(crate) fn segment_of(&self, addr: PhysAddr) -> Option<usize> {
        self.sections
            .iter()
            .find(|s| s.range.contains(addr))
            .map(|s| s.segment)
    }

    /// The syscall-table section.
    ///
    /// # Panics
    ///
    /// Panics if the layout has no syscall table (custom layouts may not).
    pub fn syscall_table(&self) -> &KernelSection {
        self.sections
            .iter()
            .find(|s| s.kind == SectionKind::SyscallTable)
            .expect("layout has no syscall table section")
    }

    /// Address of syscall table entry `nr`.
    ///
    /// # Panics
    ///
    /// Panics if `nr` is beyond the table.
    pub fn syscall_entry_addr(&self, nr: u64) -> PhysAddr {
        let table = self.syscall_table();
        let off = nr * SYSCALL_ENTRY_SIZE;
        assert!(
            off + SYSCALL_ENTRY_SIZE <= table.range().len(),
            "syscall {nr} beyond table"
        );
        table.range().start() + off
    }

    /// The exception vector table section, if present.
    pub fn vector_table(&self) -> Option<&KernelSection> {
        self.sections
            .iter()
            .find(|s| s.kind == SectionKind::VectorTable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PAPER_AREA_COUNT, PAPER_KERNEL_SIZE, PAPER_LARGEST_AREA, PAPER_SMALLEST_AREA};

    #[test]
    fn paper_layout_matches_published_numbers() {
        let l = KernelLayout::paper();
        assert_eq!(l.total_size(), PAPER_KERNEL_SIZE);
        assert_eq!(l.num_segments(), PAPER_AREA_COUNT);
        let sizes: Vec<u64> = l.segment_ranges().iter().map(|r| r.len()).collect();
        assert_eq!(sizes.iter().copied().max().unwrap(), PAPER_LARGEST_AREA);
        assert_eq!(sizes.iter().copied().min().unwrap(), PAPER_SMALLEST_AREA);
        assert_eq!(sizes.iter().sum::<u64>(), PAPER_KERNEL_SIZE);
    }

    #[test]
    fn sections_contiguous_and_cover_image() {
        let l = KernelLayout::paper();
        let mut cursor = l.base();
        for s in l.sections() {
            assert_eq!(s.range().start(), cursor, "gap before {}", s.name());
            cursor = s.range().end();
        }
        assert_eq!(cursor, l.range().end());
    }

    #[test]
    fn segments_are_contiguous_runs() {
        let l = KernelLayout::paper();
        let mut last_seg = 0;
        for s in l.sections() {
            assert!(s.segment() >= last_seg, "segment indices must not regress");
            assert!(s.segment() <= last_seg + 1, "segment indices must not skip");
            last_seg = s.segment();
        }
        assert_eq!(last_seg, l.num_segments() - 1);
    }

    #[test]
    fn syscall_table_in_area_14() {
        let l = KernelLayout::paper();
        let t = l.syscall_table();
        assert_eq!(t.segment(), crate::PAPER_SYSCALL_AREA);
        assert_eq!(t.range().len() % SYSCALL_ENTRY_SIZE, 0);
        let gettid = l.syscall_entry_addr(GETTID_NR);
        assert!(t.range().contains(gettid));
        assert_eq!(l.segment_of(gettid), Some(crate::PAPER_SYSCALL_AREA));
    }

    #[test]
    fn vector_table_present_and_sized() {
        let l = KernelLayout::paper();
        let v = l.vector_table().unwrap();
        assert_eq!(v.range().len(), 2048); // AArch64 vector table is 0x800
        assert_eq!(v.segment(), 0);
    }

    #[test]
    fn section_lookup() {
        let l = KernelLayout::paper();
        assert!(l.section(".text").is_ok());
        assert!(matches!(
            l.section("nope"),
            Err(MemError::NoSuchSection { .. })
        ));
    }

    #[test]
    fn segment_of_boundaries() {
        let l = KernelLayout::paper();
        assert_eq!(l.segment_of(l.base()), Some(0));
        let end = l.range().end();
        assert_eq!(l.segment_of(end), None);
        let last = l.segment_range(PAPER_AREA_COUNT - 1);
        assert_eq!(l.segment_of(last.start()), Some(PAPER_AREA_COUNT - 1));
    }

    #[test]
    #[should_panic(expected = "duplicate section")]
    fn duplicate_names_rejected() {
        KernelLayout::from_segments(
            PhysAddr::new(0),
            &[vec![
                ("a", SectionKind::Text, 10),
                ("a", SectionKind::Data, 10),
            ]],
        );
    }

    #[test]
    #[should_panic(expected = "zero size")]
    fn zero_size_rejected() {
        KernelLayout::from_segments(PhysAddr::new(0), &[vec![("a", SectionKind::Text, 0)]]);
    }

    #[test]
    fn custom_layout_segment_ranges() {
        let l = KernelLayout::from_segments(
            PhysAddr::new(100),
            &[
                vec![("a", SectionKind::Text, 10), ("b", SectionKind::Data, 20)],
                vec![("c", SectionKind::Bss, 30)],
            ],
        );
        assert_eq!(l.segment_range(0), MemRange::new(PhysAddr::new(100), 30));
        assert_eq!(l.segment_range(1), MemRange::new(PhysAddr::new(130), 30));
        assert!(l.vector_table().is_none());
    }
}
