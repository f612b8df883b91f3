//! Generic Interrupt Controller model: secure/non-secure grouping and routing.
//!
//! Paper §II-B: the ARM interrupt management framework guarantees (1) secure
//! interrupts are always handled by the secure world, even when execution is
//! in the normal world, and (2) non-secure interrupts can be routed to the
//! normal world or, while the secure world runs, either preempt it or wait
//! (non-preemptive secure mode). SATIN configures `SCR_EL3.IRQ = 0` and runs
//! its integrity checking inside the secure timer handler so normal-world
//! interrupts cannot preempt a round (§V-B).

use std::fmt;

/// Interrupt group — TrustZone's security classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterruptGroup {
    /// Group 0: secure interrupts (e.g. the per-core secure timer).
    Secure,
    /// Group 1: non-secure interrupts (rich OS timer tick, devices).
    NonSecure,
}

/// A platform interrupt line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interrupt {
    /// Interrupt id.
    pub id: u32,
    /// Security group.
    pub group: InterruptGroup,
}

impl Interrupt {
    /// The per-core secure physical timer interrupt (id 29 on the Juno GIC).
    pub const SECURE_TIMER: Interrupt = Interrupt {
        id: 29,
        group: InterruptGroup::Secure,
    };

    /// The non-secure per-core timer tick (id 30).
    pub const NS_TIMER: Interrupt = Interrupt {
        id: 30,
        group: InterruptGroup::NonSecure,
    };
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = match self.group {
            InterruptGroup::Secure => "S",
            InterruptGroup::NonSecure => "NS",
        };
        write!(f, "irq{}({g})", self.id)
    }
}

/// Where the interrupt controller delivers an interrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingDecision {
    /// Deliver to the normal-world handler (EL1 vector table).
    ToNormalWorld,
    /// Deliver to the secure world (secure timer handler at S-EL1).
    ToSecureWorld,
    /// Hold pending until the secure world finishes its current task
    /// (non-preemptive secure mode — SATIN's configuration).
    PendUntilSecureExit,
}

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
    pub const ALL: [RoutingKind; 2] = [RoutingKind::Satin, RoutingKind::Preemptive];

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

/// The distributor: decides where an interrupt goes given the current world
/// of the target core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Gic {
    config: RoutingKind,
}

impl Gic {
    /// Creates a GIC with the given routing configuration.
    pub const fn new(config: RoutingKind) -> Self {
        Gic { config }
    }

    /// Current routing configuration.
    pub const fn config(&self) -> RoutingKind {
        self.config
    }

    /// Routes `interrupt` arriving while the target core is (or is not) in
    /// the secure world.
    ///
    /// Requirement 1 of §II-B: secure interrupts always reach the secure
    /// world. Requirement 2: non-secure interrupts reach the normal world,
    /// except that with `SCR_EL3.IRQ = 0` they pend while the core is in the
    /// secure world.
    pub fn route(&self, interrupt: Interrupt, core_in_secure_world: bool) -> RoutingDecision {
        match interrupt.group {
            InterruptGroup::Secure => RoutingDecision::ToSecureWorld,
            InterruptGroup::NonSecure => {
                if core_in_secure_world && !self.config.irq_to_el3() {
                    RoutingDecision::PendUntilSecureExit
                } else {
                    RoutingDecision::ToNormalWorld
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secure_interrupts_always_reach_secure_world() {
        for cfg in RoutingKind::ALL {
            let gic = Gic::new(cfg);
            for in_secure in [false, true] {
                assert_eq!(
                    gic.route(Interrupt::SECURE_TIMER, in_secure),
                    RoutingDecision::ToSecureWorld
                );
            }
        }
    }

    #[test]
    fn satin_config_pends_ns_interrupts_during_introspection() {
        let gic = Gic::new(RoutingKind::Satin);
        assert_eq!(
            gic.route(Interrupt::NS_TIMER, true),
            RoutingDecision::PendUntilSecureExit
        );
        assert_eq!(
            gic.route(Interrupt::NS_TIMER, false),
            RoutingDecision::ToNormalWorld
        );
    }

    #[test]
    fn preemptive_config_delivers_ns_interrupts_immediately() {
        let gic = Gic::new(RoutingKind::Preemptive);
        assert_eq!(
            gic.route(Interrupt::NS_TIMER, true),
            RoutingDecision::ToNormalWorld
        );
    }

    #[test]
    fn default_is_satin_nonpreemptive() {
        assert_eq!(Gic::default().config(), RoutingKind::Satin);
        assert!(!RoutingKind::default().irq_to_el3());
    }

    #[test]
    fn display() {
        assert_eq!(Interrupt::SECURE_TIMER.to_string(), "irq29(S)");
        assert_eq!(Interrupt::NS_TIMER.to_string(), "irq30(NS)");
    }
}
