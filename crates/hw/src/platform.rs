//! The assembled hardware platform.

use crate::gic::Gic;
use crate::monitor::SecureMonitor;
use crate::profile::PlatformSpec;
use crate::timers::SecureTimer;
use crate::timing::TimingModel;
use crate::topology::{CoreId, CoreKind, Topology};
use crate::HwError;

/// The simulated ARM Juno r1-like machine: topology + timing + monitor +
/// GIC + timers.
///
/// # Example
///
/// ```
/// use satin_hw::{Platform, CoreId, World};
/// use satin_sim::SimTime;
///
/// let mut p = Platform::juno_r1();
/// assert_eq!(p.topology().num_cores(), 6);
/// // Arm core 0's secure timer from the secure world.
/// p.secure_timer_mut(CoreId::new(0))
///     .write_cval(World::Secure, SimTime::from_secs(8))
///     .unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct Platform {
    topology: Topology,
    timing: TimingModel,
    monitor: SecureMonitor,
    gic: Gic,
    secure_timers: Vec<SecureTimer>,
}

impl Platform {
    /// The paper's evaluation platform: Juno r1 with the calibrated timing
    /// model and SATIN's non-preemptive interrupt routing. Equivalent to
    /// `Platform::from_profile(&PlatformSpec::juno_r1())` — the built-in
    /// profile is the single source of truth for this platform.
    pub fn juno_r1() -> Self {
        Self::from_profile(&PlatformSpec::juno_r1())
    }

    /// Assembles a platform from its declarative spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec declares no cores.
    pub fn from_profile(spec: &PlatformSpec) -> Self {
        let topology = spec.topology();
        let n = topology.num_cores();
        Platform {
            topology,
            timing: spec.timing_model(),
            monitor: SecureMonitor::new(n),
            gic: Gic::new(spec.routing),
            secure_timers: vec![SecureTimer::new(); n],
        }
    }

    /// The core topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The kind of `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_kind(&self, core: CoreId) -> CoreKind {
        self.topology.kind(core)
    }

    /// The calibrated timing model.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// The secure monitor.
    pub fn monitor(&self) -> &SecureMonitor {
        &self.monitor
    }

    /// Mutable access to the secure monitor.
    pub fn monitor_mut(&mut self) -> &mut SecureMonitor {
        &mut self.monitor
    }

    /// The interrupt controller.
    pub fn gic(&self) -> &Gic {
        &self.gic
    }

    /// `core`'s secure timer.
    ///
    /// # Errors
    ///
    /// [`HwError::NoSuchCore`] if `core` is out of range.
    pub fn secure_timer(&self, core: CoreId) -> Result<&SecureTimer, HwError> {
        self.secure_timers
            .get(core.index())
            .ok_or(HwError::NoSuchCore { core })
    }

    /// Mutable access to `core`'s secure timer.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range (use [`Platform::secure_timer`] for a
    /// fallible lookup first if the id is untrusted).
    pub fn secure_timer_mut(&mut self, core: CoreId) -> &mut SecureTimer {
        self.secure_timers
            .get_mut(core.index())
            .expect("core id within platform topology")
    }

    /// The earliest pending secure-timer fire across all cores, if any.
    #[cfg(test)]
    pub(crate) fn next_secure_timer_fire(&self) -> Option<(CoreId, satin_sim::SimTime)> {
        self.secure_timers
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.next_fire().map(|at| (CoreId::new(i), at)))
            .min_by_key(|(_, at)| *at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;
    use satin_sim::SimTime;

    #[test]
    fn juno_construction() {
        let p = Platform::juno_r1();
        assert_eq!(p.topology().num_cores(), 6);
        assert_eq!(p.core_kind(CoreId::new(0)), CoreKind::A57);
        assert_eq!(p.core_kind(CoreId::new(5)), CoreKind::A53);
        assert!(!p.gic().config().irq_to_el3());
        assert_eq!(p.monitor().world(CoreId::new(0)), World::Normal);
    }

    #[test]
    fn secure_timer_per_core() {
        let mut p = Platform::juno_r1();
        p.secure_timer_mut(CoreId::new(1))
            .write_cval(World::Secure, SimTime::from_secs(2))
            .unwrap();
        p.secure_timer_mut(CoreId::new(1))
            .set_enabled(World::Secure, true)
            .unwrap();
        // Other cores unaffected.
        assert!(p
            .secure_timer(CoreId::new(0))
            .unwrap()
            .next_fire()
            .is_none());
        assert_eq!(
            p.secure_timer(CoreId::new(1)).unwrap().next_fire(),
            Some(SimTime::from_secs(2))
        );
    }

    #[test]
    fn next_fire_picks_earliest() {
        let mut p = Platform::juno_r1();
        for (i, secs) in [(0usize, 9u64), (3, 4), (5, 7)] {
            let t = p.secure_timer_mut(CoreId::new(i));
            t.write_cval(World::Secure, SimTime::from_secs(secs))
                .unwrap();
            t.set_enabled(World::Secure, true).unwrap();
        }
        let (core, at) = p.next_secure_timer_fire().unwrap();
        assert_eq!(core, CoreId::new(3));
        assert_eq!(at, SimTime::from_secs(4));
    }

    #[test]
    fn bad_core_lookup() {
        let p = Platform::juno_r1();
        assert!(p.secure_timer(CoreId::new(99)).is_err());
    }
}
