//! Baseline introspection services the paper compares against.
//!
//! The pre-SATIN state of the art (§I, §IV-C): asynchronous introspection
//! that wakes periodically — possibly at random times, possibly on a random
//! core — but scans the kernel as **one monolithic pass**. §IV-C shows
//! TZ-Evader defeats all of these because ≈90% of the kernel is scanned
//! more than `Tns_delay + Tns_recover` after the world switch.

use crate::activation::WakePolicy;
use crate::areas::AreaPlan;
use crate::integrity::IntegrityChecker;
use satin_hash::HashAlgorithm;
use satin_hw::timing::ScanStrategy;
use satin_hw::CoreId;
use satin_sim::{SimDuration, SimTime};
use satin_system::{BootCtx, SatinError, ScanRequest, SecureCtx, SecureService};
use std::cell::RefCell;
use std::rc::Rc;

/// Baseline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineConfig {
    /// Mean period between full-kernel scans.
    pub period: SimDuration,
    /// Randomize the period (`± period`, like SATIN's deviation)?
    pub randomize_wake: bool,
    /// Rotate among all cores randomly (vs always core 0)?
    pub randomize_core: bool,
    /// Scan strategy.
    pub strategy: ScanStrategy,
}

impl BaselineConfig {
    /// A Samsung-PKM-like periodic checker: fixed period, fixed core.
    pub fn periodic_fixed(period: SimDuration) -> Self {
        BaselineConfig {
            period,
            randomize_wake: false,
            randomize_core: false,
            strategy: ScanStrategy::DirectHash,
        }
    }

    /// The strongest pre-SATIN defense: random time *and* random core, but
    /// still a monolithic scan (defeated in §IV-C).
    pub fn randomized(period: SimDuration) -> Self {
        BaselineConfig {
            period,
            randomize_wake: true,
            randomize_core: true,
            strategy: ScanStrategy::DirectHash,
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    checker: Option<IntegrityChecker>,
    rounds: u64,
    tampered_rounds: u64,
}

/// Inspection handle for a deployed baseline.
#[derive(Debug, Clone, Default)]
pub struct BaselineHandle {
    inner: Rc<RefCell<Inner>>,
}

impl BaselineHandle {
    /// Completed full-kernel rounds.
    pub fn rounds(&self) -> u64 {
        self.inner.borrow().rounds
    }

    /// Rounds that observed tampering.
    pub fn tampered_rounds(&self) -> u64 {
        self.inner.borrow().tampered_rounds
    }
}

/// The monolithic-scan baseline service.
#[derive(Debug)]
pub struct NaiveIntrospection {
    config: BaselineConfig,
    inner: Rc<RefCell<Inner>>,
    num_cores: usize,
    plan: Option<AreaPlan>,
}

impl NaiveIntrospection {
    /// Creates the service and its handle.
    pub fn new(config: BaselineConfig) -> (NaiveIntrospection, BaselineHandle) {
        let inner = Rc::new(RefCell::new(Inner::default()));
        (
            NaiveIntrospection {
                config,
                inner: inner.clone(),
                num_cores: 0,
                plan: None,
            },
            BaselineHandle { inner },
        )
    }

    fn wake_policy(&self) -> WakePolicy {
        WakePolicy {
            tp: self.config.period,
            randomize: self.config.randomize_wake,
        }
    }

    fn pick_core(&self, ctx: &mut SecureCtx<'_>) -> CoreId {
        if self.config.randomize_core {
            CoreId::new(ctx.rng().below(self.num_cores as u64) as usize)
        } else {
            CoreId::new(0)
        }
    }
}

impl SecureService for NaiveIntrospection {
    fn on_boot(&mut self, ctx: &mut BootCtx<'_>) -> Result<(), SatinError> {
        let plan = AreaPlan::monolithic(ctx.layout());
        let checker = IntegrityChecker::measure_at_boot(ctx.mem(), &plan, HashAlgorithm::Djb2)?;
        self.num_cores = ctx.num_cores();
        self.inner.borrow_mut().checker = Some(checker);
        let policy = self.wake_policy();
        let first = SimTime::ZERO + policy.next_interval(ctx.rng());
        let core = if self.config.randomize_core {
            CoreId::new(ctx.rng().below(self.num_cores as u64) as usize)
        } else {
            CoreId::new(0)
        };
        let first = first.max_of(SimTime::from_micros(1));
        ctx.arm_core(core, first)?;
        self.plan = Some(plan);
        Ok(())
    }

    fn on_secure_timer(&mut self, _core: CoreId, _ctx: &mut SecureCtx<'_>) -> Option<ScanRequest> {
        let plan = self.plan.as_ref().expect("booted");
        Some(ScanRequest {
            area_id: 0,
            range: plan.area(0).range,
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
        {
            let mut inner = self.inner.borrow_mut();
            let outcome = inner.checker.as_mut().expect("booted").check_round(
                ctx.now(),
                core,
                request.area_id,
                observed,
            );
            inner.rounds += 1;
            if outcome.is_tampered() {
                inner.tampered_rounds += 1;
            }
        }
        // Baselines cannot hand off to another core mid-flight (that would
        // need the leaky cross-core interrupt, §V-D), so on a multi-core
        // rotation the *next* round's core is only honoured approximately:
        // we re-arm self, which matches a PKM-style implementation.
        let policy = self.wake_policy();
        let mut next = ctx.now() + policy.next_interval(ctx.rng());
        if next <= ctx.now() {
            next = ctx.now() + SimDuration::from_micros(1);
        }
        let _ = self.pick_core(ctx);
        ctx.arm_self(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satin_system::SystemBuilder;

    #[test]
    fn baseline_detects_persistent_unhidden_tampering() {
        let mut sys = SystemBuilder::new().seed(41).trace(false).build();
        let (svc, handle) = NaiveIntrospection::new(BaselineConfig::periodic_fixed(
            SimDuration::from_millis(200),
        ));
        sys.install_secure_service(svc);
        // A dumb rootkit that never hides.
        let addr = sys
            .layout()
            .syscall_entry_addr(satin_mem::layout::GETTID_NR);
        let evil = satin_mem::image::hijacked_entry_bytes(sys.layout(), 1);
        sys.mem_mut().write_unchecked(addr, &evil).unwrap();
        sys.run_until(SimTime::from_millis(900));
        assert!(handle.rounds() >= 2, "{} rounds", handle.rounds());
        assert_eq!(handle.rounds(), handle.tampered_rounds());
        let inner = handle.inner.borrow();
        assert!(inner
            .checker
            .as_ref()
            .is_some_and(|c| !c.alarms().is_empty()));
    }

    #[test]
    fn randomized_baseline_varies_period() {
        let mut sys = SystemBuilder::new().seed(43).trace(false).build();
        let (svc, handle) =
            NaiveIntrospection::new(BaselineConfig::randomized(SimDuration::from_millis(300)));
        sys.install_secure_service(svc);
        sys.run_until(SimTime::from_secs(3));
        assert!(handle.rounds() >= 3);
        assert_eq!(handle.tampered_rounds(), 0);
    }
}
