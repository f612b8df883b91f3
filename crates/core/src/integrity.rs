//! The Integrity Checking Module (§V-B): per-round hash verification,
//! alarms, and coverage accounting.

use crate::areas::AreaPlan;
use satin_hash::{hash_bytes, AuthorizedHashTable, HashAlgorithm, VerifyOutcome};
use satin_hw::{CoreId, World};
use satin_mem::{MemError, PhysMemory};
use satin_secure::SecureStorage;
use satin_sim::SimTime;

/// One raised alarm: an area whose observed digest did not match the
/// authorized value. "If the integrity checking module finds any abnormal
/// small area, it can raise an alarm to the server side or the device user."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alarm {
    /// When the mismatch was found.
    pub at: SimTime,
    /// The core that performed the round.
    pub core: CoreId,
    /// The tampered area.
    pub area: usize,
    /// Authorized digest.
    pub expected: u64,
    /// Observed digest.
    pub observed: u64,
}

/// Per-area coverage record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AreaCoverage {
    /// Times this area has been checked.
    pub checks: u64,
    /// Last check instant.
    pub last_checked: Option<SimTime>,
    /// Times this area was found tampered.
    pub tampered: u64,
}

/// The integrity checking module.
#[derive(Debug)]
pub(crate) struct IntegrityChecker {
    algorithm: HashAlgorithm,
    table: SecureStorage<AuthorizedHashTable>,
    coverage: Vec<AreaCoverage>,
    alarms: Vec<Alarm>,
    rounds: u64,
    /// Sum over areas of inter-check gaps, for mean-gap reporting.
    gap_sums: Vec<f64>,
    gap_counts: Vec<u64>,
}

impl IntegrityChecker {
    /// Boot-time measurement: hashes every area of the pristine `mem` into
    /// the authorized table.
    ///
    /// # Errors
    ///
    /// Propagates [`MemError`] if the plan lies outside memory.
    pub(crate) fn measure_at_boot(
        mem: &PhysMemory,
        plan: &AreaPlan,
        algorithm: HashAlgorithm,
    ) -> Result<Self, MemError> {
        let ranges: Vec<_> = plan.areas().iter().map(|a| a.range).collect();
        let table = satin_secure::measurement::measure_at_boot(mem, &ranges, algorithm)?;
        Ok(IntegrityChecker {
            algorithm,
            table,
            coverage: vec![AreaCoverage::default(); plan.len()],
            alarms: Vec::new(),
            rounds: 0,
            gap_sums: vec![0.0; plan.len()],
            gap_counts: vec![0; plan.len()],
        })
    }

    /// Verifies the observed bytes of one round against the authorized
    /// digest, recording coverage and raising an alarm on mismatch.
    ///
    /// Returns the verification outcome.
    ///
    /// # Panics
    ///
    /// Panics if `area` was never enrolled (a plan/checker mismatch).
    pub(crate) fn check_round(
        &mut self,
        at: SimTime,
        core: CoreId,
        area: usize,
        observed_bytes: &[u8],
    ) -> VerifyOutcome {
        // Enum-dispatched, slice-batched digest (no boxed hasher per round).
        let digest = hash_bytes(self.algorithm, observed_bytes);
        let outcome = self
            .table
            .read(World::Secure)
            .expect("checker runs in the secure world")
            .verify(area, digest);
        assert!(
            !matches!(outcome, VerifyOutcome::Unknown),
            "area {area} not enrolled"
        );
        self.rounds += 1;
        let cov = &mut self.coverage[area];
        if let Some(prev) = cov.last_checked {
            self.gap_sums[area] += at.since(prev).as_secs_f64();
            self.gap_counts[area] += 1;
        }
        cov.checks += 1;
        cov.last_checked = Some(at);
        if let VerifyOutcome::Tampered { expected, observed } = outcome {
            cov.tampered += 1;
            self.alarms.push(Alarm {
                at,
                core,
                area,
                expected,
                observed,
            });
        }
        outcome
    }

    /// All raised alarms.
    pub(crate) fn alarms(&self) -> &[Alarm] {
        &self.alarms
    }

    /// Coverage record of `area`.
    ///
    /// # Panics
    ///
    /// Panics if `area` is out of range.
    pub(crate) fn coverage(&self, area: usize) -> AreaCoverage {
        self.coverage[area]
    }

    /// Number of complete kernel sweeps (the minimum per-area check count).
    pub(crate) fn full_sweeps(&self) -> u64 {
        self.coverage.iter().map(|c| c.checks).min().unwrap_or(0)
    }

    /// Mean gap between consecutive checks of `area`, seconds
    /// (§VI-B1 reports ≈141 s for area 14 at tp = 8 s).
    pub(crate) fn mean_check_gap_secs(&self, area: usize) -> Option<f64> {
        let n = self.gap_counts[area];
        (n > 0).then(|| self.gap_sums[area] / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satin_mem::KernelLayout;

    fn setup() -> (KernelLayout, PhysMemory, AreaPlan, IntegrityChecker) {
        let layout = KernelLayout::paper();
        let mem = PhysMemory::with_image(&layout, 8);
        let plan = AreaPlan::from_segments(&layout);
        let checker = IntegrityChecker::measure_at_boot(&mem, &plan, HashAlgorithm::Djb2).unwrap();
        (layout, mem, plan, checker)
    }

    #[test]
    fn clean_round() {
        let (_, mem, plan, mut checker) = setup();
        let a = plan.area(2);
        let bytes = mem.read(a.range).unwrap();
        let out = checker.check_round(SimTime::from_secs(8), CoreId::new(1), 2, bytes);
        assert_eq!(out, VerifyOutcome::Clean);
        assert_eq!(checker.rounds, 1);
        assert_eq!(checker.coverage(2).checks, 1);
        assert!(checker.alarms().is_empty());
    }

    #[test]
    fn tampered_round_raises_alarm() {
        let (layout, mut mem, plan, mut checker) = setup();
        let addr = layout.syscall_entry_addr(satin_mem::layout::GETTID_NR);
        let evil = satin_mem::image::hijacked_entry_bytes(&layout, 3);
        mem.write_unchecked(addr, &evil).unwrap();
        let area = satin_mem::PAPER_SYSCALL_AREA;
        let bytes = mem.read(plan.area(area).range).unwrap();
        let out = checker.check_round(SimTime::from_secs(16), CoreId::new(0), area, bytes);
        assert!(out.is_tampered());
        assert_eq!(checker.alarms().len(), 1);
        let alarm = checker.alarms()[0];
        assert_eq!(alarm.area, area);
        assert_eq!(alarm.core, CoreId::new(0));
        assert_eq!(checker.coverage(area).tampered, 1);
    }

    #[test]
    fn mean_gap_tracks_checks() {
        let (_, mem, plan, mut checker) = setup();
        let bytes = mem.read(plan.area(5).range).unwrap().to_vec();
        for secs in [10u64, 160, 290] {
            checker.check_round(SimTime::from_secs(secs), CoreId::new(0), 5, &bytes);
        }
        // Gaps: 150s and 130s → mean 140s.
        let gap = checker.mean_check_gap_secs(5).unwrap();
        assert!((gap - 140.0).abs() < 1e-9, "gap {gap}");
        assert_eq!(checker.mean_check_gap_secs(6), None);
    }

    #[test]
    fn full_sweeps_counts_minimum() {
        let (_, mem, plan, mut checker) = setup();
        assert_eq!(checker.full_sweeps(), 0);
        for round in 0..2 {
            for a in 0..plan.len() {
                let bytes = mem.read(plan.area(a).range).unwrap().to_vec();
                checker.check_round(
                    SimTime::from_secs((round * 19 + a as u64) + 1),
                    CoreId::new(0),
                    a,
                    &bytes,
                );
            }
        }
        assert_eq!(checker.full_sweeps(), 2);
        assert_eq!(checker.rounds, 38);
    }

    #[test]
    #[should_panic(expected = "not enrolled")]
    fn unknown_area_panics() {
        let (_, mem, plan, mut checker) = setup();
        let bytes = mem.read(plan.area(0).range).unwrap().to_vec();
        checker.check_round(SimTime::ZERO, CoreId::new(0), 99, &bytes);
    }

    #[test]
    fn table_not_readable_from_normal_world() {
        let (_, _, _, checker) = setup();
        assert!(checker.table.read(World::Normal).is_err());
    }
}
