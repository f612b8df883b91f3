//! Core identifiers and the big.LITTLE topology.

use std::fmt;

/// Index of a CPU core within the platform.
///
/// # Example
///
/// ```
/// use satin_hw::CoreId;
/// let c = CoreId::new(3);
/// assert_eq!(c.index(), 3);
/// assert_eq!(c.to_string(), "core3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(usize);

impl CoreId {
    /// Wraps a raw core index.
    pub const fn new(index: usize) -> Self {
        CoreId(index)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl From<usize> for CoreId {
    fn from(index: usize) -> Self {
        CoreId(index)
    }
}

/// The microarchitecture of a core, which determines its timing profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// Cortex-A53 "LITTLE": power-efficient, slower per-byte rates.
    A53,
    /// Cortex-A57 "big": performant, faster per-byte rates.
    A57,
}

impl CoreKind {
    /// Both kinds, in LITTLE-to-big order.
    pub(crate) const ALL: [CoreKind; 2] = [CoreKind::A53, CoreKind::A57];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            CoreKind::A53 => "A53",
            CoreKind::A57 => "A57",
        }
    }

    /// Parses a display name (case-insensitive, so scenario files may write
    /// `a53` or `A53`).
    pub fn from_name(name: &str) -> Option<Self> {
        CoreKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
    }
}

// Relative throughput is a *calibration*, not an architectural fact, so it
// lives in the timing model (`CoreCalibration::relative_speed`), where
// platform specs can override it, not on `CoreKind`.

impl fmt::Display for CoreKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The set of cores on the platform and their kinds.
///
/// # Example
///
/// ```
/// use satin_hw::{Topology, CoreKind};
/// let t = Topology::juno_r1();
/// assert_eq!(t.num_cores(), 6);
/// assert_eq!(t.cores_of_kind(CoreKind::A57).count(), 2);
/// assert_eq!(t.cores_of_kind(CoreKind::A53).count(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    kinds: Vec<CoreKind>,
}

impl Topology {
    /// The ARM Juno r1 board the paper used: a 2-core Cortex-A57 "big"
    /// cluster (cores 0–1 here) and a 4-core Cortex-A53 "LITTLE" cluster
    /// (cores 2–5).
    pub fn juno_r1() -> Self {
        crate::profile::PlatformSpec::juno_r1().topology()
    }

    /// A custom topology.
    ///
    /// # Panics
    ///
    /// Panics if `kinds` is empty — a platform needs at least one core.
    pub(crate) fn new(kinds: Vec<CoreKind>) -> Self {
        assert!(!kinds.is_empty(), "topology needs at least one core");
        Topology { kinds }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.kinds.len()
    }

    /// The kind of `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub(crate) fn kind(&self, core: CoreId) -> CoreKind {
        self.kinds
            .get(core.index())
            .copied()
            .expect("core id within topology")
    }

    /// Iterates over all core ids.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..self.kinds.len()).map(CoreId::new)
    }

    /// Iterates over the ids of cores with the given kind.
    pub fn cores_of_kind(&self, kind: CoreKind) -> impl Iterator<Item = CoreId> + '_ {
        self.kinds
            .iter()
            .enumerate()
            .filter(move |(_, k)| **k == kind)
            .map(|(i, _)| CoreId::new(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn juno_layout() {
        let t = Topology::juno_r1();
        assert_eq!(t.num_cores(), 6);
        assert_eq!(t.kind(CoreId::new(0)), CoreKind::A57);
        assert_eq!(t.kind(CoreId::new(1)), CoreKind::A57);
        for i in 2..6 {
            assert_eq!(t.kind(CoreId::new(i)), CoreKind::A53);
        }
    }

    #[test]
    fn contains_bounds() {
        let t = Topology::juno_r1();
        assert_eq!(t.cores().last(), Some(CoreId::new(5)));
    }

    #[test]
    fn homogeneous_topology() {
        let t = Topology::new(vec![CoreKind::A53; 4]);
        assert_eq!(t.num_cores(), 4);
        assert!(t.cores().all(|c| t.kind(c) == CoreKind::A53));
        assert_eq!(t.cores_of_kind(CoreKind::A57).count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_topology_rejected() {
        Topology::new(vec![]);
    }

    #[test]
    fn display_impls() {
        assert_eq!(CoreId::new(2).to_string(), "core2");
        assert_eq!(CoreKind::A57.to_string(), "A57");
        assert_eq!(CoreId::from(4).index(), 4);
    }
}
