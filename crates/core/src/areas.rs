//! Kernel area division and the runtime Kernel Area Set (§V-B).
//!
//! "To improve the detection rate, we propose to reduce the introspection
//! time for each round by dividing the entire OS kernel into smaller areas
//! and taking turns to check one area in each round. … the size of each
//! small area should be smaller than
//! `(Tns_delay + Tns_recover − Ts_switch) / Ts_1byte` bytes."

use crate::error::PlanError;
use satin_hw::TimingModel;
use satin_mem::{KernelLayout, MemRange};
use satin_sim::SimRng;

/// One introspection area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Area {
    /// Area id (index in the plan).
    pub id: usize,
    /// The byte range the area covers.
    pub range: MemRange,
}

/// The maximum safe area size (§V-B), in bytes: an area this small is always
/// fully scanned before the attacker can finish recovering, even at the
/// fastest probe and slowest scan the attacker can hope for.
///
/// # Example
///
/// ```
/// use satin_core::areas::max_safe_area_size;
/// use satin_hw::TimingModel;
/// // With the paper's constants this is the §IV-C bound of 1,218,351 bytes.
/// let bound = max_safe_area_size(&TimingModel::paper_calibrated(), 2e-4 + 1.8e-3);
/// assert!((1_218_000..=1_218_700).contains(&bound));
/// ```
pub fn max_safe_area_size(timing: &TimingModel, tns_delay_secs: f64) -> u64 {
    let margin = tns_delay_secs + timing.slowest_recover_secs() - timing.max_ts_switch_secs();
    if margin <= 0.0 {
        return 0;
    }
    (margin / timing.fastest_hash_rate().secs_per_byte()).floor() as u64
}

/// A static division of the kernel into areas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AreaPlan {
    areas: Vec<Area>,
}

impl AreaPlan {
    /// The paper's division: one area per `System.map` segment (§VI-A2's 19
    /// areas on the paper layout).
    pub fn from_segments(layout: &KernelLayout) -> Self {
        let areas = layout
            .segment_ranges()
            .into_iter()
            .enumerate()
            .map(|(id, range)| Area { id, range })
            .collect();
        AreaPlan { areas }
    }

    /// A single monolithic area covering the whole kernel — the naive
    /// baseline the paper's §IV-C analysis defeats. Useful for ablation.
    pub(crate) fn monolithic(layout: &KernelLayout) -> Self {
        AreaPlan {
            areas: vec![Area {
                id: 0,
                range: layout.range(),
            }],
        }
    }

    /// Greedy packing ablation: groups contiguous *sections* (never splitting
    /// one) into the fewest areas whose sizes stay at or below `max_size`.
    ///
    /// # Errors
    ///
    /// [`PlanError::AreaTooLarge`] if a single section already exceeds
    /// `max_size` (sections are indivisible by the paper's rule).
    pub(crate) fn greedy(layout: &KernelLayout, max_size: u64) -> Result<Self, PlanError> {
        let mut areas: Vec<Area> = Vec::new();
        let mut current: Option<MemRange> = None;
        for s in layout.sections() {
            let r = s.range();
            if r.len() > max_size {
                return Err(PlanError::AreaTooLarge {
                    area: areas.len(),
                    size: r.len(),
                    bound: max_size,
                });
            }
            current = match current {
                None => Some(r),
                Some(c) if c.len() + r.len() <= max_size => {
                    Some(MemRange::new(c.start(), c.len() + r.len()))
                }
                Some(c) => {
                    areas.push(Area {
                        id: areas.len(),
                        range: c,
                    });
                    Some(r)
                }
            };
        }
        if let Some(c) = current {
            areas.push(Area {
                id: areas.len(),
                range: c,
            });
        }
        Ok(AreaPlan { areas })
    }

    /// The areas, in address order.
    pub fn areas(&self) -> &[Area] {
        &self.areas
    }

    /// Number of areas (`m` in the paper).
    pub(crate) fn len(&self) -> usize {
        self.areas.len()
    }

    /// `true` if the plan has no areas.
    pub(crate) fn is_empty(&self) -> bool {
        self.areas.is_empty()
    }

    /// The area by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub(crate) fn area(&self, id: usize) -> Area {
        self.areas[id]
    }

    /// Total bytes covered.
    pub fn total_bytes(&self) -> u64 {
        self.areas.iter().map(|a| a.range.len()).sum()
    }

    /// The largest area size.
    pub fn largest(&self) -> u64 {
        self.areas.iter().map(|a| a.range.len()).max().unwrap_or(0)
    }

    /// The smallest area size.
    pub fn smallest(&self) -> u64 {
        self.areas.iter().map(|a| a.range.len()).min().unwrap_or(0)
    }

    /// The area containing `addr`, if any.
    pub fn area_of(&self, addr: satin_mem::PhysAddr) -> Option<usize> {
        self.areas
            .iter()
            .find(|a| a.range.contains(addr))
            .map(|a| a.id)
    }

    /// Validates every area against the safety bound.
    ///
    /// # Errors
    ///
    /// [`PlanError::EmptyPlan`] or [`PlanError::AreaTooLarge`].
    pub fn validate(&self, bound: u64) -> Result<(), PlanError> {
        if self.areas.is_empty() {
            return Err(PlanError::EmptyPlan);
        }
        for a in &self.areas {
            if a.range.len() > bound {
                return Err(PlanError::AreaTooLarge {
                    area: a.id,
                    size: a.range.len(),
                    bound,
                });
            }
        }
        Ok(())
    }
}

/// The runtime Kernel Area Set: random selection without replacement, with
/// refills (§V-B's pseudo-random method).
///
/// "the module randomly picks one area from the set and then applies
/// `set = set − area`. If the set is empty, SATIN resets it" — guaranteeing
/// every `m` rounds scan the whole kernel exactly once, in an order the
/// normal world cannot predict.
///
/// # Example
///
/// ```
/// use satin_core::KernelAreaSet;
/// use satin_sim::SimRng;
/// let mut set = KernelAreaSet::new(4);
/// let mut rng = SimRng::seed_from(1);
/// let mut first_epoch: Vec<usize> = (0..4).map(|_| set.pick(&mut rng)).collect();
/// first_epoch.sort_unstable();
/// assert_eq!(first_epoch, vec![0, 1, 2, 3]); // full coverage per epoch
/// assert_eq!(set.remaining(), 0);
/// let _ = set.pick(&mut rng);                // next pick refills lazily
/// assert_eq!(set.epoch(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelAreaSet {
    num_areas: usize,
    remaining: Vec<usize>,
    epoch: u64,
}

impl KernelAreaSet {
    /// A set over `num_areas` areas.
    ///
    /// # Panics
    ///
    /// Panics if `num_areas == 0`.
    pub fn new(num_areas: usize) -> Self {
        assert!(num_areas > 0, "area set needs at least one area");
        KernelAreaSet {
            num_areas,
            remaining: (0..num_areas).collect(),
            epoch: 0,
        }
    }

    /// Picks (and removes) a uniformly random remaining area; refills the
    /// set first if it is empty.
    pub fn pick(&mut self, rng: &mut SimRng) -> usize {
        if self.remaining.is_empty() {
            self.remaining = (0..self.num_areas).collect();
            self.epoch += 1;
        }
        let idx = rng.pick_index(&self.remaining);
        self.remaining.swap_remove(idx)
    }

    /// Areas not yet scanned in the current epoch.
    pub fn remaining(&self) -> usize {
        self.remaining.len()
    }

    /// Completed full-coverage epochs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use satin_mem::{PAPER_AREA_COUNT, PAPER_KERNEL_SIZE, PAPER_LARGEST_AREA, PAPER_SMALLEST_AREA};

    #[test]
    fn paper_plan_matches_section_6a2() {
        let plan = AreaPlan::from_segments(&KernelLayout::paper());
        assert_eq!(plan.len(), PAPER_AREA_COUNT);
        assert_eq!(plan.total_bytes(), PAPER_KERNEL_SIZE);
        assert_eq!(plan.largest(), PAPER_LARGEST_AREA);
        assert_eq!(plan.smallest(), PAPER_SMALLEST_AREA);
    }

    #[test]
    fn paper_plan_passes_safety_bound() {
        let plan = AreaPlan::from_segments(&KernelLayout::paper());
        let bound = max_safe_area_size(&TimingModel::paper_calibrated(), 2e-4 + 1.8e-3);
        plan.validate(bound).unwrap();
    }

    #[test]
    fn monolithic_plan_fails_safety_bound() {
        let plan = AreaPlan::monolithic(&KernelLayout::paper());
        let bound = max_safe_area_size(&TimingModel::paper_calibrated(), 2e-4 + 1.8e-3);
        let err = plan.validate(bound).unwrap_err();
        assert!(matches!(err, PlanError::AreaTooLarge { area: 0, .. }));
    }

    #[test]
    fn areas_are_disjoint_and_cover() {
        let layout = KernelLayout::paper();
        let plan = AreaPlan::from_segments(&layout);
        let mut cursor = layout.base();
        for a in plan.areas() {
            assert_eq!(a.range.start(), cursor, "gap before area {}", a.id);
            cursor = a.range.end();
        }
        assert_eq!(cursor, layout.range().end());
    }

    #[test]
    fn greedy_respects_bound_and_covers() {
        let layout = KernelLayout::paper();
        let bound = 1_218_351;
        let plan = AreaPlan::greedy(&layout, bound).unwrap();
        plan.validate(bound).unwrap();
        assert_eq!(plan.total_bytes(), PAPER_KERNEL_SIZE);
        // Greedy packs tighter than one-per-segment.
        assert!(plan.len() < PAPER_AREA_COUNT);
    }

    #[test]
    fn greedy_rejects_oversized_section() {
        let layout = KernelLayout::paper();
        // .text alone is 811,080 bytes.
        assert!(AreaPlan::greedy(&layout, 100_000).is_err());
    }

    #[test]
    fn area_of_addr() {
        let layout = KernelLayout::paper();
        let plan = AreaPlan::from_segments(&layout);
        let gettid = layout.syscall_entry_addr(satin_mem::layout::GETTID_NR);
        assert_eq!(plan.area_of(gettid), Some(satin_mem::PAPER_SYSCALL_AREA));
        assert_eq!(plan.area_of(layout.range().end()), None);
    }

    #[test]
    fn empty_validation() {
        let plan = AreaPlan { areas: vec![] };
        assert_eq!(plan.validate(100), Err(PlanError::EmptyPlan));
        assert!(plan.is_empty());
    }

    #[test]
    fn bound_degenerate() {
        let mut t = TimingModel::paper_calibrated();
        // A pathological platform where switching costs more than the whole
        // evasion latency: nothing is safe.
        t.ts_switch = satin_sim::dist::UniformSecs::new(0.9, 1.0);
        assert_eq!(max_safe_area_size(&t, 1e-3), 0);
    }

    proptest! {
        /// Invariant 4 (DESIGN.md): every epoch scans every area exactly once.
        #[test]
        fn prop_epoch_coverage(num_areas in 1usize..40, seed: u64, epochs in 1usize..4) {
            let mut set = KernelAreaSet::new(num_areas);
            let mut rng = SimRng::seed_from(seed);
            for _ in 0..epochs {
                let mut seen: Vec<usize> = (0..num_areas).map(|_| set.pick(&mut rng)).collect();
                seen.sort_unstable();
                prop_assert_eq!(seen, (0..num_areas).collect::<Vec<_>>());
            }
            // Refills are lazy: after draining `epochs` full rounds the set
            // has performed `epochs - 1` refills and sits empty.
            prop_assert_eq!(set.epoch(), epochs as u64 - 1);
            prop_assert_eq!(set.remaining(), 0);
        }

        /// Greedy plans always cover the kernel exactly, whatever the bound.
        #[test]
        fn prop_greedy_covers(bound in 880_000u64..5_000_000) {
            let layout = KernelLayout::paper();
            let plan = AreaPlan::greedy(&layout, bound).unwrap();
            prop_assert_eq!(plan.total_bytes(), PAPER_KERNEL_SIZE);
            prop_assert!(plan.largest() <= bound);
            let mut cursor = layout.base();
            for a in plan.areas() {
                prop_assert_eq!(a.range.start(), cursor);
                cursor = a.range.end();
            }
        }
    }
}
