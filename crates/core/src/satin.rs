//! The assembled SATIN secure service.

use crate::activation::WakePolicy;
use crate::areas::{max_safe_area_size, AreaPlan, KernelAreaSet};
use crate::error::PlanError;
use crate::integrity::{Alarm, AreaCoverage, IntegrityChecker};
use crate::queue::WakeQueue;
use satin_hw::{CoreId, TimingModel, World};
use satin_mem::KernelLayout;
use satin_secure::SecureStorage;
use satin_sim::SimTime;
use satin_system::{BootCtx, SatinError, ScanRequest, SecureCtx, SecureService};
use std::cell::RefCell;
use std::rc::Rc;

pub use satin_scenario::{AreaPolicy, CorePolicy, SatinConfig};

/// Builds the area plan `config` implies for `layout`.
///
/// # Errors
///
/// Propagates [`PlanError`] from greedy packing.
pub fn build_plan(config: &SatinConfig, layout: &KernelLayout) -> Result<AreaPlan, PlanError> {
    match config.area_policy {
        AreaPolicy::Segments => Ok(AreaPlan::from_segments(layout)),
        AreaPolicy::Greedy { max_size } => AreaPlan::greedy(layout, max_size),
        AreaPolicy::Monolithic => Ok(AreaPlan::monolithic(layout)),
    }
}

/// Validates `config` against a layout and timing model without building
/// the service.
///
/// # Errors
///
/// [`PlanError`] describing the violated constraint.
pub fn validate(
    config: &SatinConfig,
    layout: &KernelLayout,
    timing: &TimingModel,
) -> Result<(), PlanError> {
    let plan = build_plan(config, layout)?;
    if config.enforce_safety {
        let bound = max_safe_area_size(timing, config.tns_delay_secs);
        plan.validate(bound)?;
    } else if plan.is_empty() {
        return Err(PlanError::EmptyPlan);
    }
    Ok(())
}

/// One completed introspection round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundRecord {
    /// When the round's secure timer fired (round start).
    pub fired: SimTime,
    /// When the round's verification completed.
    pub at: SimTime,
    /// The core that performed it.
    pub core: CoreId,
    /// The scanned area.
    pub area: usize,
    /// Whether the area was found tampered.
    pub tampered: bool,
}

#[derive(Debug)]
struct Inner {
    plan: Option<AreaPlan>,
    checker: Option<IntegrityChecker>,
    set: Option<KernelAreaSet>,
    queue: Option<SecureStorage<WakeQueue>>,
    policy: Option<WakePolicy>,
    rounds: Vec<RoundRecord>,
    golden: Option<crate::golden::GoldenStore>,
    repairs: u64,
}

/// Inspection handle shared with experiment code.
#[derive(Debug, Clone)]
pub struct SatinHandle {
    inner: Rc<RefCell<Inner>>,
}

impl SatinHandle {
    /// All completed rounds, in time order.
    pub fn rounds(&self) -> Vec<RoundRecord> {
        self.inner.borrow().rounds.clone()
    }

    /// Number of completed rounds.
    pub fn round_count(&self) -> usize {
        self.inner.borrow().rounds.len()
    }

    /// All raised alarms.
    pub fn alarms(&self) -> Vec<Alarm> {
        self.inner
            .borrow()
            .checker
            .as_ref()
            .map(|c| c.alarms().to_vec())
            .unwrap_or_default()
    }

    /// Complete kernel sweeps so far.
    pub fn full_sweeps(&self) -> u64 {
        self.inner
            .borrow()
            .checker
            .as_ref()
            .map(|c| c.full_sweeps())
            .unwrap_or(0)
    }

    /// Coverage of one area.
    ///
    /// # Panics
    ///
    /// Panics if SATIN has not booted or `area` is out of range.
    pub fn coverage(&self, area: usize) -> AreaCoverage {
        self.inner
            .borrow()
            .checker
            .as_ref()
            .expect("SATIN booted")
            .coverage(area)
    }

    /// Mean gap between consecutive checks of `area`, seconds.
    pub fn mean_check_gap_secs(&self, area: usize) -> Option<f64> {
        self.inner
            .borrow()
            .checker
            .as_ref()
            .and_then(|c| c.mean_check_gap_secs(area))
    }

    /// Remediation writes performed (0 unless `remediate` is enabled).
    pub fn repairs(&self) -> u64 {
        self.inner.borrow().repairs
    }

    /// Number of areas in the plan.
    ///
    /// # Panics
    ///
    /// Panics if SATIN has not booted.
    pub fn num_areas(&self) -> usize {
        self.inner
            .borrow()
            .plan
            .as_ref()
            .expect("SATIN booted")
            .len()
    }
}

/// The SATIN secure service. Install with
/// [`satin_system::System::install_secure_service`].
#[derive(Debug)]
pub struct Satin {
    config: SatinConfig,
    inner: Rc<RefCell<Inner>>,
}

impl Satin {
    /// Creates the service and its inspection handle.
    pub fn new(config: SatinConfig) -> (Satin, SatinHandle) {
        let inner = Rc::new(RefCell::new(Inner {
            plan: None,
            checker: None,
            set: None,
            queue: None,
            policy: None,
            rounds: Vec::new(),
            golden: None,
            repairs: 0,
        }));
        (
            Satin {
                config,
                inner: inner.clone(),
            },
            SatinHandle { inner },
        )
    }
}

impl SecureService for Satin {
    fn on_boot(&mut self, ctx: &mut BootCtx<'_>) -> Result<(), SatinError> {
        // Every boot failure surfaces as a structured SatinError so a
        // misconfigured or fault-injected campaign seed reports a failed
        // row instead of aborting the whole batch.
        let plan = build_plan(&self.config, ctx.layout())?;
        if self.config.enforce_safety {
            let bound = max_safe_area_size(ctx.timing(), self.config.tns_delay_secs);
            plan.validate(bound)?;
        }
        let checker = IntegrityChecker::measure_at_boot(ctx.mem(), &plan, self.config.algorithm)?;
        let policy =
            WakePolicy::from_goal(self.config.tgoal, plan.len(), self.config.randomize_wake);

        // Initial wake sequence (trusted boot): one slot per participating
        // core, assigned in a random order the normal world never sees.
        let participants: Vec<CoreId> = match self.config.core_policy {
            CorePolicy::AllRandom => (0..ctx.num_cores()).map(CoreId::new).collect(),
            CorePolicy::Fixed(core) => vec![core],
        };
        let mut queue = WakeQueue::new(SimTime::ZERO, participants.len(), &policy, ctx.rng());
        let mut order = participants.clone();
        ctx.rng().shuffle(&mut order);
        for core in order {
            let at = queue.extract(SimTime::ZERO, &policy, ctx.rng());
            ctx.arm_core(core, at)?;
        }

        let golden = if self.config.remediate {
            Some(crate::golden::GoldenStore::capture_at_boot(
                ctx.layout(),
                ctx.mem(),
            )?)
        } else {
            None
        };

        let mut inner = self.inner.borrow_mut();
        inner.set = Some(KernelAreaSet::new(plan.len()));
        inner.plan = Some(plan);
        inner.checker = Some(checker);
        inner.policy = Some(policy);
        inner.queue = Some(SecureStorage::new("wake-up time queue", queue));
        inner.golden = golden;
        Ok(())
    }

    fn on_secure_timer(&mut self, _core: CoreId, ctx: &mut SecureCtx<'_>) -> Option<ScanRequest> {
        let mut inner = self.inner.borrow_mut();
        let Inner {
            plan: Some(plan),
            set: Some(set),
            ..
        } = &mut *inner
        else {
            return None;
        };
        let area_id = set.pick(ctx.rng());
        let range = plan.area(area_id).range;
        Some(ScanRequest {
            area_id,
            range,
            strategy: self.config.strategy,
        })
    }

    fn on_scan_result(
        &mut self,
        core: CoreId,
        request: &ScanRequest,
        observed: &[u8],
        ctx: &mut SecureCtx<'_>,
    ) {
        let mut inner = self.inner.borrow_mut();
        let now = ctx.now();
        let outcome = inner.checker.as_mut().expect("SATIN booted").check_round(
            now,
            core,
            request.area_id,
            observed,
        );
        if outcome.is_tampered() {
            ctx.raise_alarm(format!("area {} tampered on {core}", request.area_id));
            // Remediation (extension): write the golden invariant bytes back
            // over the tampered area, from the secure world.
            if let Some(golden) = inner.golden.as_ref() {
                let mut n = 0u64;
                for (range, bytes) in golden.repairs_for(request.range) {
                    ctx.repair_normal_memory(range.start(), &bytes)
                        .expect("repair range inside memory");
                    n += 1;
                }
                inner.repairs += n;
            }
        }
        inner.rounds.push(RoundRecord {
            fired: ctx.fired(),
            at: now,
            core,
            area: request.area_id,
            tampered: outcome.is_tampered(),
        });
        // Self activation: take the next wake time from the secure queue and
        // arm this core's own timer.
        let policy = *inner.policy.as_ref().expect("SATIN booted");
        let queue = inner
            .queue
            .as_mut()
            .expect("SATIN booted")
            .write(World::Secure)
            .expect("secure world access");
        let next = queue.extract(now, &policy, ctx.rng());
        drop(inner);
        ctx.arm_self(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satin_sim::SimDuration;
    use satin_system::SystemBuilder;

    #[test]
    fn profile_policies_map_through() {
        // Descriptor policies reach the plan SATIN boots with.
        let sc = satin_scenario::parse_scenario(
            "[scenario]\nname = x\n[defense]\ncore-policy = fixed:2\narea-policy = greedy:1000000\n",
        )
        .expect("valid descriptor");
        let cfg = sc.defense;
        assert_eq!(cfg.core_policy, CorePolicy::Fixed(CoreId::new(2)));
        assert_eq!(
            cfg.area_policy,
            AreaPolicy::Greedy {
                max_size: 1_000_000
            }
        );
        let plan = build_plan(&cfg, &KernelLayout::paper()).expect("greedy plan");
        assert!(plan.largest() <= 1_000_000);
    }

    #[test]
    fn validates_paper_config() {
        let layout = KernelLayout::paper();
        let timing = TimingModel::paper_calibrated();
        validate(&SatinConfig::paper(), &layout, &timing).unwrap();
        // The monolithic ablation must fail the safety check.
        let mut bad = SatinConfig::paper();
        bad.area_policy = AreaPolicy::Monolithic;
        assert!(matches!(
            validate(&bad, &layout, &timing),
            Err(PlanError::AreaTooLarge { .. })
        ));
        // …unless safety enforcement is disabled (for ablation runs).
        bad.enforce_safety = false;
        validate(&bad, &layout, &timing).unwrap();
    }

    #[test]
    fn boots_and_runs_rounds() {
        // Short Tgoal so a few rounds fit in a short test run.
        let mut config = SatinConfig::paper();
        config.tgoal = SimDuration::from_millis(1900); // tp = 100 ms
        let mut sys = SystemBuilder::new().seed(31).trace(false).build();
        let (satin, handle) = Satin::new(config);
        sys.install_secure_service(satin);
        sys.run_until(SimTime::from_secs(2));
        let rounds = handle.round_count();
        // ≈ 2s / 100ms = 20 rounds expected.
        assert!((10..=35).contains(&rounds), "rounds = {rounds}");
        // No tampering: no alarms.
        assert!(handle.alarms().is_empty());
        assert!(handle.rounds().iter().all(|r| !r.tampered));
        assert_eq!(handle.num_areas(), 19);
    }

    #[test]
    fn rounds_rotate_cores_and_areas() {
        let mut config = SatinConfig::paper();
        config.tgoal = SimDuration::from_millis(950); // tp = 50 ms
        let mut sys = SystemBuilder::new().seed(33).trace(false).build();
        let (satin, handle) = Satin::new(config);
        sys.install_secure_service(satin);
        sys.run_until(SimTime::from_secs(4));
        let rounds = handle.rounds();
        assert!(rounds.len() >= 19, "{} rounds", rounds.len());
        // Multiple distinct cores participate.
        let mut cores: Vec<usize> = rounds.iter().map(|r| r.core.index()).collect();
        cores.sort_unstable();
        cores.dedup();
        assert!(cores.len() >= 3, "only cores {cores:?} participated");
        // The first 19 rounds cover all 19 areas exactly once (epoch).
        let mut first: Vec<usize> = rounds.iter().take(19).map(|r| r.area).collect();
        first.sort_unstable();
        assert_eq!(first, (0..19).collect::<Vec<_>>());
    }

    #[test]
    fn fixed_core_policy_stays_on_one_core() {
        let mut config = SatinConfig::paper();
        config.tgoal = SimDuration::from_millis(950);
        config.core_policy = CorePolicy::Fixed(CoreId::new(1));
        let mut sys = SystemBuilder::new().seed(35).trace(false).build();
        let (satin, handle) = Satin::new(satin_cfg(config));
        sys.install_secure_service(satin);
        sys.run_until(SimTime::from_secs(2));
        let rounds = handle.rounds();
        assert!(!rounds.is_empty());
        assert!(rounds.iter().all(|r| r.core == CoreId::new(1)));
    }

    fn satin_cfg(c: SatinConfig) -> SatinConfig {
        c
    }

    #[test]
    fn detects_boot_time_tampering_installed_later() {
        // A hijack installed after boot is caught on the next area-14 round.
        let mut config = SatinConfig::paper();
        config.tgoal = SimDuration::from_millis(1900);
        let mut sys = SystemBuilder::new().seed(37).trace(false).build();
        let (satin, handle) = Satin::new(config);
        sys.install_secure_service(satin);
        // Tamper directly (no evader: the write persists).
        let addr = sys
            .layout()
            .syscall_entry_addr(satin_mem::layout::GETTID_NR);
        let evil = satin_mem::image::hijacked_entry_bytes(sys.layout(), 2);
        sys.mem_mut().write_unchecked(addr, &evil).unwrap();
        sys.run_until(SimTime::from_secs(3));
        let alarms = handle.alarms();
        assert!(!alarms.is_empty(), "persistent hijack not detected");
        assert!(alarms
            .iter()
            .all(|a| a.area == satin_mem::PAPER_SYSCALL_AREA));
        assert!(handle.coverage(satin_mem::PAPER_SYSCALL_AREA).tampered >= 1);
    }
}

#[cfg(test)]
mod remediation_tests {
    use super::*;
    use satin_sim::SimDuration;
    use satin_system::SystemBuilder;

    #[test]
    fn remediation_repairs_a_persistent_hijack() {
        let mut config = SatinConfig::paper();
        config.tgoal = SimDuration::from_millis(1900); // tp = 100 ms
        config.remediate = true;
        let mut sys = SystemBuilder::new().seed(55).trace(false).build();
        let (satin, handle) = Satin::new(config);
        sys.install_secure_service(satin);
        // A dumb persistent hijack (no evasion, never restored by the
        // attacker).
        let addr = sys
            .layout()
            .syscall_entry_addr(satin_mem::layout::GETTID_NR);
        let evil = satin_mem::image::hijacked_entry_bytes(sys.layout(), 4);
        sys.mem_mut().write_unchecked(addr, &evil).unwrap();
        sys.run_until(SimTime::from_secs(6));

        // The first area-14 round raised an alarm AND repaired the table…
        assert!(!handle.alarms().is_empty());
        assert!(handle.repairs() >= 1, "no repair happened");
        assert!(sys.stats().secure_repairs >= 1);
        let ptr = sys.mem().read_u64(addr).unwrap();
        assert_eq!(
            Some(ptr),
            sys.stats().genuine_syscall(satin_mem::layout::GETTID_NR),
            "table not restored"
        );
        // …and subsequent area-14 rounds are clean (exactly one alarm).
        assert_eq!(
            handle.alarms().len(),
            1,
            "repair should stop repeated alarms for a non-reinstalling attack"
        );
    }

    #[test]
    fn report_only_mode_keeps_alarming() {
        let mut config = SatinConfig::paper();
        config.tgoal = SimDuration::from_millis(1900);
        config.remediate = false; // the paper's SATIN
        let mut sys = SystemBuilder::new().seed(55).trace(false).build();
        let (satin, handle) = Satin::new(config);
        sys.install_secure_service(satin);
        let addr = sys
            .layout()
            .syscall_entry_addr(satin_mem::layout::GETTID_NR);
        let evil = satin_mem::image::hijacked_entry_bytes(sys.layout(), 4);
        sys.mem_mut().write_unchecked(addr, &evil).unwrap();
        sys.run_until(SimTime::from_secs(6));
        assert!(
            handle.alarms().len() >= 2,
            "persistent hijack alarms repeat"
        );
        assert_eq!(handle.repairs(), 0);
        // The hijack is still in place: report-only.
        let ptr = sys.mem().read_u64(addr).unwrap();
        assert_ne!(
            Some(ptr),
            sys.stats().genuine_syscall(satin_mem::layout::GETTID_NR)
        );
    }
}
