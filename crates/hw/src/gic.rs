//! Generic Interrupt Controller: the routing configuration.
//!
//! Paper §II-B: the ARM interrupt management framework guarantees (1) secure
//! interrupts are always handled by the secure world, even when execution is
//! in the normal world, and (2) non-secure interrupts can be routed to the
//! normal world or, while the secure world runs, either preempt it or wait
//! (non-preemptive secure mode). SATIN configures `SCR_EL3.IRQ = 0` and runs
//! its integrity checking inside the secure timer handler so normal-world
//! interrupts cannot preempt a round (§V-B).

use std::fmt;

/// How non-secure interrupts are routed while a core is in the secure world:
/// the `SCR_EL3.IRQ` bit the paper manipulates, with the stable names
/// scenario descriptors use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingKind {
    /// SATIN's non-preemptive secure world (`SCR_EL3.IRQ = 0`): a round of
    /// introspection cannot be preempted (§V-B).
    #[default]
    Satin,
    /// Normal-world interrupts trap to EL3 and preempt the secure world
    /// (OP-TEE-style, §II-B; the ablation).
    Preemptive,
}

impl RoutingKind {
    /// Both kinds, in display order.
    pub(crate) const ALL: [RoutingKind; 2] = [RoutingKind::Satin, RoutingKind::Preemptive];

    /// `SCR_EL3.IRQ`: when set, non-secure interrupts trap to EL3 even while
    /// the secure world runs.
    pub const fn irq_to_el3(self) -> bool {
        matches!(self, RoutingKind::Preemptive)
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            RoutingKind::Satin => "satin",
            RoutingKind::Preemptive => "preemptive",
        }
    }

    /// Parses a display name.
    pub fn from_name(name: &str) -> Option<Self> {
        RoutingKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for RoutingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The distributor's routing configuration. The machine reads
/// [`RoutingKind::irq_to_el3`] when a secure session starts: secure timer
/// interrupts always enter the secure world, and normal-world interrupts
/// either pend until it exits or preempt it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Gic {
    config: RoutingKind,
}

impl Gic {
    /// Creates a GIC with the given routing configuration.
    pub(crate) const fn new(config: RoutingKind) -> Self {
        Gic { config }
    }

    /// Current routing configuration.
    pub const fn config(&self) -> RoutingKind {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn satin_config_pends_ns_interrupts_during_introspection() {
        // `SCR_EL3.IRQ = 0`: a normal-world interrupt that arrives while a
        // core introspects waits for the secure world to exit.
        assert!(!Gic::new(RoutingKind::Satin).config().irq_to_el3());
    }

    #[test]
    fn preemptive_config_delivers_ns_interrupts_immediately() {
        assert!(Gic::new(RoutingKind::Preemptive).config().irq_to_el3());
    }

    #[test]
    fn default_is_satin_nonpreemptive() {
        assert_eq!(Gic::default().config(), RoutingKind::Satin);
        assert!(!RoutingKind::default().irq_to_el3());
    }

    #[test]
    fn display() {
        assert_eq!(RoutingKind::Satin.to_string(), "satin");
        assert_eq!(RoutingKind::Preemptive.to_string(), "preemptive");
    }
}
