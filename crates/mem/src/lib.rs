#![warn(missing_docs)]
//! Physical memory, synthetic kernel image, and the TOCTTOU scan-window model.
//!
//! The paper's rich OS kernel (OpenEmbedded, lsk-4.4) occupies 11,916,240
//! bytes which SATIN divides into 19 areas along `System.map` segment
//! boundaries (largest 876,616 B, smallest 431,360 B, §VI-A2). We cannot ship
//! that kernel image, so [`layout::KernelLayout::paper`] synthesizes a
//! deterministic stand-in with the same segment structure and byte sizes, and
//! [`image`] fills it with seeded pseudo-random content so digests are stable
//! across runs.
//!
//! The crate's most load-bearing piece is [`scan::ScanWindow`]: a secure-world
//! scan reads bytes *sequentially over simulated time*, so a normal-world
//! write racing the scan is observed only for bytes the scanner had not yet
//! reached. This makes the paper's Equation 1 an emergent property of the
//! simulation rather than an assumed formula.

pub(crate) mod addr;
pub(crate) mod error;
pub mod image;
pub mod layout;
pub mod perms;
pub mod phys;
pub(crate) mod scan;

pub use addr::{MemRange, PhysAddr};
pub use error::MemError;
pub use layout::{KernelLayout, KernelSection, SectionKind};
pub use phys::{MemView, PhysMemory};
pub use scan::ScanWindow;

/// Total size of the paper's monitored kernel, in bytes (§IV-C).
pub const PAPER_KERNEL_SIZE: u64 = 11_916_240;

/// Number of introspection areas in the paper's prototype (§VI-A2).
pub const PAPER_AREA_COUNT: usize = 19;

/// Size of the largest paper area, bytes (§VI-A2).
pub const PAPER_LARGEST_AREA: u64 = 876_616;

/// Size of the smallest paper area, bytes (§VI-A2).
pub const PAPER_SMALLEST_AREA: u64 = 431_360;

/// The area index holding the syscall table in the paper's experiment
/// (§VI-B1: "one system call handler which resides in the area 14").
pub const PAPER_SYSCALL_AREA: usize = 14;
