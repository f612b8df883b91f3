//! The EL3 secure monitor: per-core world switching.
//!
//! Paper §IV-B1 measures the dispatcher latency — saving the normal-world
//! context and jumping to the secure timer handler — at 2.38–3.60 µs
//! (`Ts_switch`), similar on A53 and A57 cores. The monitor here is a pure
//! state machine: the caller (the system event loop) samples the switch cost
//! from [`crate::TimingModel`] and passes it in, and the monitor returns the
//! instant the target world starts executing.

use crate::error::HwError;
use crate::topology::CoreId;
use crate::world::World;
use satin_sim::{SimDuration, SimTime};

/// Per-core world-switch state machine.
///
/// # Example
///
/// ```
/// use satin_hw::monitor::SecureMonitor;
/// use satin_hw::{CoreId, World};
/// use satin_sim::{SimDuration, SimTime};
///
/// let mut mon = SecureMonitor::new(6);
/// let c = CoreId::new(2);
/// assert_eq!(mon.world(c), World::Normal);
/// let t0 = SimTime::from_millis(1);
/// let entered = mon.enter_secure(c, t0, SimDuration::from_micros(3)).unwrap();
/// assert_eq!(entered, t0 + SimDuration::from_micros(3));
/// assert_eq!(mon.world(c), World::Secure);
/// ```
#[derive(Debug, Clone)]
pub struct SecureMonitor {
    worlds: Vec<World>,
}

impl SecureMonitor {
    /// A monitor for `num_cores` cores, all starting in the normal world.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores == 0`.
    pub fn new(num_cores: usize) -> Self {
        assert!(num_cores > 0, "monitor needs at least one core");
        SecureMonitor {
            worlds: vec![World::Normal; num_cores],
        }
    }

    /// The world `core` currently executes in.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn world(&self, core: CoreId) -> World {
        self.worlds
            .get(core.index())
            .copied()
            .expect("core id within monitor range")
    }

    /// Switches `core` into the secure world: saves the normal-world context
    /// and jumps to the secure handler. Returns the instant the secure
    /// payload begins executing (`now + switch_cost`).
    ///
    /// # Errors
    ///
    /// [`HwError::NoSuchCore`] for an out-of-range core;
    /// [`HwError::InvalidWorldSwitch`] if the core is already secure.
    pub fn enter_secure(
        &mut self,
        core: CoreId,
        now: SimTime,
        switch_cost: SimDuration,
    ) -> Result<SimTime, HwError> {
        let w = self.world_checked(core)?;
        if w.is_secure() {
            return Err(HwError::InvalidWorldSwitch {
                core,
                current: w,
                requested: World::Secure,
            });
        }
        *self
            .worlds
            .get_mut(core.index())
            .expect("core validated by world_checked") = World::Secure;
        Ok(now + switch_cost)
    }

    /// Switches `core` back to the normal world: restores the saved context.
    /// Returns the instant normal-world execution resumes.
    ///
    /// # Errors
    ///
    /// [`HwError::NoSuchCore`] for an out-of-range core;
    /// [`HwError::InvalidWorldSwitch`] if the core is not in the secure world.
    pub fn exit_secure(
        &mut self,
        core: CoreId,
        now: SimTime,
        switch_cost: SimDuration,
    ) -> Result<SimTime, HwError> {
        let w = self.world_checked(core)?;
        if !w.is_secure() {
            return Err(HwError::InvalidWorldSwitch {
                core,
                current: w,
                requested: World::Normal,
            });
        }
        *self
            .worlds
            .get_mut(core.index())
            .expect("core validated by world_checked") = World::Normal;
        Ok(now + switch_cost)
    }

    fn world_checked(&self, core: CoreId) -> Result<World, HwError> {
        self.worlds
            .get(core.index())
            .copied()
            .ok_or(HwError::NoSuchCore { core })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut mon = SecureMonitor::new(2);
        let c = CoreId::new(0);
        let t0 = SimTime::from_micros(100);
        let cost = SimDuration::from_micros(3);
        let enter_done = mon.enter_secure(c, t0, cost).unwrap();
        assert_eq!(enter_done, SimTime::from_micros(103));
        assert_eq!(mon.world(c), World::Secure);
        let exit_done = mon.exit_secure(c, enter_done, cost).unwrap();
        assert_eq!(exit_done, SimTime::from_micros(106));
        assert_eq!(mon.world(c), World::Normal);
    }

    #[test]
    fn double_entry_rejected() {
        let mut mon = SecureMonitor::new(1);
        let c = CoreId::new(0);
        mon.enter_secure(c, SimTime::ZERO, SimDuration::ZERO)
            .unwrap();
        let err = mon
            .enter_secure(c, SimTime::ZERO, SimDuration::ZERO)
            .unwrap_err();
        assert!(matches!(err, HwError::InvalidWorldSwitch { .. }));
    }

    #[test]
    fn exit_without_entry_rejected() {
        let mut mon = SecureMonitor::new(1);
        let err = mon
            .exit_secure(CoreId::new(0), SimTime::ZERO, SimDuration::ZERO)
            .unwrap_err();
        assert!(matches!(err, HwError::InvalidWorldSwitch { .. }));
    }

    #[test]
    fn bad_core_rejected() {
        let mut mon = SecureMonitor::new(2);
        let err = mon
            .enter_secure(CoreId::new(5), SimTime::ZERO, SimDuration::ZERO)
            .unwrap_err();
        assert!(matches!(err, HwError::NoSuchCore { .. }));
    }

    #[test]
    fn independent_cores() {
        // The heart of the paper's multi-core observation: one core entering
        // the secure world leaves the others running the normal world.
        let mut mon = SecureMonitor::new(6);
        mon.enter_secure(CoreId::new(3), SimTime::ZERO, SimDuration::ZERO)
            .unwrap();
        assert_eq!(mon.world(CoreId::new(3)), World::Secure);
        for i in [0usize, 1, 2, 4, 5] {
            assert_eq!(mon.world(CoreId::new(i)), World::Normal);
        }
    }
}
