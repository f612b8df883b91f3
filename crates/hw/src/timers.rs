//! The ARM generic timer's per-core secure timers.
//!
//! Paper §V-C / §VI-A1: each TrustZone-enabled core has an individual secure
//! timer that can only be read or written with secure-world privilege. SATIN's
//! self activation module programs `CNTPS_CVAL_EL1` (the compare value) and
//! `CNTPS_CTL_EL1` (the enable bit); when the shared physical counter
//! `CNTPCT_EL0` reaches the compare value, the core raises a secure timer
//! interrupt. The simulation enforces the privilege check: any write from the
//! normal world returns [`HwError::SecureAccessDenied`].

use crate::error::HwError;
use crate::world::World;
use satin_sim::SimTime;

/// One core's secure physical timer (`CNTPS_*_EL1`).
///
/// # Example
///
/// ```
/// use satin_hw::timers::SecureTimer;
/// use satin_hw::World;
/// use satin_sim::SimTime;
///
/// let mut t = SecureTimer::new();
/// // The normal world cannot arm the secure timer…
/// assert!(t.write_cval(World::Normal, SimTime::from_secs(1)).is_err());
/// // …but the secure world can.
/// t.write_cval(World::Secure, SimTime::from_secs(1)).unwrap();
/// t.set_enabled(World::Secure, true).unwrap();
/// assert!(!t.should_fire(SimTime::from_millis(999)));
/// assert!(t.should_fire(SimTime::from_secs(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecureTimer {
    /// Compare value (`CNTPS_CVAL_EL1`): fire when the counter reaches this.
    cval: SimTime,
    /// Enable bit of `CNTPS_CTL_EL1`.
    enabled: bool,
}

impl Default for SecureTimer {
    fn default() -> Self {
        Self::new()
    }
}

impl SecureTimer {
    /// A disarmed timer.
    pub fn new() -> Self {
        SecureTimer {
            cval: SimTime::MAX,
            enabled: false,
        }
    }

    /// Writes the compare value register.
    ///
    /// # Errors
    ///
    /// [`HwError::SecureAccessDenied`] if `from` is the normal world — the
    /// register is secure-only (paper §V-C: "an individual secure timer that
    /// can only be read or written with the secure world privilege").
    pub fn write_cval(&mut self, from: World, cval: SimTime) -> Result<(), HwError> {
        self.check(from, "CNTPS_CVAL_EL1")?;
        self.cval = cval;
        Ok(())
    }

    /// Reads the compare value register.
    ///
    /// # Errors
    ///
    /// [`HwError::SecureAccessDenied`] if `from` is the normal world.
    pub fn read_cval(&self, from: World) -> Result<SimTime, HwError> {
        self.check(from, "CNTPS_CVAL_EL1")?;
        Ok(self.cval)
    }

    /// Sets or clears the enable bit (`CNTPS_CTL_EL1.ENABLE`).
    ///
    /// # Errors
    ///
    /// [`HwError::SecureAccessDenied`] if `from` is the normal world.
    pub fn set_enabled(&mut self, from: World, enabled: bool) -> Result<(), HwError> {
        self.check(from, "CNTPS_CTL_EL1")?;
        self.enabled = enabled;
        Ok(())
    }

    /// `true` when the timer is armed and the shared counter `now` has
    /// reached the compare value ("becomes equal to or greater than",
    /// §VI-A1).
    pub fn should_fire(&self, now: SimTime) -> bool {
        self.enabled && now >= self.cval
    }

    /// The instant at which the timer will fire, if armed.
    pub fn next_fire(&self) -> Option<SimTime> {
        self.enabled.then_some(self.cval)
    }

    fn check(&self, from: World, resource: &'static str) -> Result<(), HwError> {
        if from.is_secure() {
            Ok(())
        } else {
            Err(HwError::SecureAccessDenied { from, resource })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_world_cannot_touch_secure_timer() {
        let mut t = SecureTimer::new();
        assert!(matches!(
            t.write_cval(World::Normal, SimTime::ZERO),
            Err(HwError::SecureAccessDenied { .. })
        ));
        assert!(t.read_cval(World::Normal).is_err());
        assert!(t.set_enabled(World::Normal, true).is_err());
        // The failed writes must not have armed anything.
        assert!(!t.should_fire(SimTime::MAX));
    }

    #[test]
    fn secure_world_arms_and_fires() {
        let mut t = SecureTimer::new();
        t.write_cval(World::Secure, SimTime::from_millis(10))
            .unwrap();
        t.set_enabled(World::Secure, true).unwrap();
        assert_eq!(t.next_fire(), Some(SimTime::from_millis(10)));
        assert!(!t.should_fire(SimTime::from_millis(9)));
        assert!(t.should_fire(SimTime::from_millis(10)));
        assert!(t.should_fire(SimTime::from_millis(11)));
    }

    #[test]
    fn disabled_timer_never_fires() {
        let mut t = SecureTimer::new();
        t.write_cval(World::Secure, SimTime::ZERO).unwrap();
        assert!(!t.should_fire(SimTime::from_secs(100)));
        assert_eq!(t.next_fire(), None);
    }

    #[test]
    fn disarm_after_fire() {
        let mut t = SecureTimer::new();
        t.write_cval(World::Secure, SimTime::from_nanos(5)).unwrap();
        t.set_enabled(World::Secure, true).unwrap();
        assert!(t.should_fire(SimTime::from_nanos(5)));
        t.set_enabled(World::Secure, false).unwrap();
        assert!(!t.should_fire(SimTime::from_nanos(6)));
    }
}
