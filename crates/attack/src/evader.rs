//! Full TZ-Evader deployment: prober + rootkit, wired through the channel.

use crate::channel::EvaderChannel;
use crate::kprober::deploy_prober;
use crate::prober::{ProberConfig, ProberShared};
use crate::rootkit::{deploy_rootkit, RootkitConfig, RootkitHandle};
use satin_hw::CoreId;
use satin_scenario::{AttackProfile, ProberKind, Scenario};
use satin_system::System;

/// TZ-Evader deployment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TzEvaderConfig {
    /// Which prober implementation carries the side channel.
    pub prober: ProberKind,
    /// Prober cadence/threshold/targets.
    pub prober_config: ProberConfig,
    /// The core the rootkit's recovery thread is pinned to (§IV-C analyzes
    /// the worst case of recovering on an A53 core).
    pub recovery_core: CoreId,
    /// Rootkit behaviour.
    pub rootkit: RootkitConfig,
}

impl TzEvaderConfig {
    /// The paper's strongest configuration, the `juno-r1` attacker:
    /// KProber-II at 200 µs with the 1.8 ms learned threshold, recovery on
    /// A53 core 3.
    pub fn paper_default() -> Self {
        Self::from_profile(&Scenario::paper().attack)
    }

    /// The configuration a scenario's attack profile describes: all-cores
    /// probing and default rootkit behaviour, like the paper's evaluation.
    pub fn from_profile(profile: &AttackProfile) -> Self {
        TzEvaderConfig {
            prober: profile.prober,
            prober_config: ProberConfig::from_profile(profile),
            recovery_core: CoreId::new(profile.recovery_core),
            rootkit: RootkitConfig::default(),
        }
    }
}

/// Handles to a deployed TZ-Evader.
#[derive(Debug, Clone)]
pub struct TzEvader {
    /// The prober↔rootkit channel (detections, lifecycle counts).
    pub channel: EvaderChannel,
    /// The prober's shared observation state.
    pub prober: ProberShared,
    /// The rootkit lifecycle handle.
    pub rootkit: RootkitHandle,
}

impl TzEvader {
    /// Deploys TZ-Evader onto `sys`, live from time zero.
    pub fn deploy(sys: &mut System, config: TzEvaderConfig) -> TzEvader {
        let channel = EvaderChannel::new();
        let prober = ProberShared::with_channel(channel.clone());
        deploy_prober(sys, config.prober, config.prober_config, &prober);
        let (_, rootkit) = deploy_rootkit(sys, config.recovery_core, config.rootkit, &channel);
        TzEvader {
            channel,
            prober,
            rootkit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satin_hw::timing::ScanStrategy;
    use satin_kernel::syscall::SyscallTable;
    use satin_mem::layout::GETTID_NR;
    use satin_mem::MemRange;
    use satin_sim::{SimDuration, SimTime};
    use satin_system::{BootCtx, ScanRequest, SecureCtx, SecureService, SystemBuilder};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn profile_variants_map_through() {
        let mut profile = Scenario::paper().attack;
        profile.prober = ProberKind::UserLevel;
        profile.threshold = None;
        profile.recovery_core = 5;
        let cfg = TzEvaderConfig::from_profile(&profile);
        assert_eq!(cfg.prober, ProberKind::UserLevel);
        assert_eq!(cfg.prober_config.threshold, None);
        assert_eq!(cfg.recovery_core, CoreId::new(5));
    }

    /// A naive full-kernel asynchronous introspection: fixed period, random
    /// core, one monolithic scan — the baseline TZ-Evader defeats (§IV-C).
    struct NaiveIntrospection {
        period: SimDuration,
        tampered_rounds: Rc<RefCell<u64>>,
        rounds: Rc<RefCell<u64>>,
        table: Option<satin_hash::AuthorizedHashTable>,
    }

    impl SecureService for NaiveIntrospection {
        fn on_boot(&mut self, ctx: &mut BootCtx<'_>) -> Result<(), satin_system::SatinError> {
            let mem = ctx.mem();
            let range = ctx.layout().range();
            let mut table = satin_hash::AuthorizedHashTable::new(satin_hash::HashAlgorithm::Djb2);
            table.enroll(
                0,
                satin_hash::hash_bytes(satin_hash::HashAlgorithm::Djb2, mem.read(range).unwrap()),
            );
            self.table = Some(table);
            // Random core for the first round.
            let n = ctx.num_cores() as u64;
            let core = CoreId::new(ctx.rng().below(n) as usize);
            ctx.arm_core(core, SimTime::ZERO + self.period).unwrap();
            Ok(())
        }

        fn on_secure_timer(
            &mut self,
            _core: CoreId,
            ctx: &mut SecureCtx<'_>,
        ) -> Option<ScanRequest> {
            let range = MemRange::new(satin_mem::KernelLayout::paper().base(), {
                satin_mem::PAPER_KERNEL_SIZE
            });
            let _ = ctx;
            Some(ScanRequest {
                area_id: 0,
                range,
                strategy: ScanStrategy::DirectHash,
            })
        }

        fn on_scan_result(
            &mut self,
            _core: CoreId,
            request: &ScanRequest,
            observed: &[u8],
            ctx: &mut SecureCtx<'_>,
        ) {
            let digest = satin_hash::hash_bytes(satin_hash::HashAlgorithm::Djb2, observed);
            let table = self.table.as_ref().expect("booted");
            *self.rounds.borrow_mut() += 1;
            if table.verify(request.area_id, digest).is_tampered() {
                *self.tampered_rounds.borrow_mut() += 1;
            }
            let next = ctx.now() + self.period;
            ctx.arm_self(next);
        }
    }

    #[test]
    fn tz_evader_defeats_naive_introspection() {
        // The headline attack result: with a monolithic full-kernel scan the
        // rootkit hides its syscall hijack before the scanner reaches area 14
        // (~7.4 MB into an 11.9 MB kernel; the scanner needs ~50-80 ms to get
        // there while the evader cleans up within ~8 ms of the world switch).
        let mut sys = SystemBuilder::new().seed(77).trace(false).build();
        let tampered = Rc::new(RefCell::new(0u64));
        let rounds = Rc::new(RefCell::new(0u64));
        sys.install_secure_service(NaiveIntrospection {
            period: SimDuration::from_millis(300),
            tampered_rounds: tampered.clone(),
            rounds: rounds.clone(),
            table: None,
        });
        let evader = TzEvader::deploy(&mut sys, TzEvaderConfig::paper_default());
        sys.run_until(SimTime::from_millis(1400));

        assert!(
            *rounds.borrow() >= 3,
            "introspection ran {} rounds",
            *rounds.borrow()
        );
        assert_eq!(
            *tampered.borrow(),
            0,
            "naive introspection caught the rootkit — evasion failed"
        );
        // The prober detected every round…
        assert!(evader.channel.detection_count() > 0);
        // …and the attack was active most of the time.
        let active = evader.rootkit.active_time(sys.now()).as_secs_f64();
        assert!(active > 0.8, "attack active only {active}s of 1.4s");
        let (hides, completed, reinstalls) = evader.channel.lifecycle_counts();
        assert!(hides >= 3);
        assert_eq!(hides, completed);
        assert!(reinstalls >= 2);
    }

    #[test]
    fn evader_leaves_no_trace_when_hidden() {
        let mut sys = SystemBuilder::new().seed(78).trace(false).build();
        let evader = TzEvader::deploy(&mut sys, TzEvaderConfig::paper_default());
        sys.run_until(SimTime::from_millis(5));
        assert!(evader.rootkit.is_active());
        // Simulate a detection; after recovery the syscall table is pristine.
        evader
            .channel
            .report_detection(sys.now(), CoreId::new(0), SimDuration::from_millis(2));
        let quiet_cfg = RootkitConfig::default().quiet_before_reinstall;
        sys.run_for(SimDuration::from_millis(12));
        let table = SyscallTable::new(sys.layout());
        let ptr = sys.mem().read_u64(table.entry_addr(GETTID_NR)).unwrap();
        assert_eq!(Some(ptr), sys.stats().genuine_syscall(GETTID_NR));
        let _ = quiet_cfg;
    }
}
