//! The TrustZone two-world model and ARMv8-A exception levels (paper §II-A).

use std::fmt;

/// The two TrustZone worlds.
///
/// The secure world has higher privilege: it can read normal-world memory and
/// registers, but not vice versa. In the simulation this asymmetry is enforced
/// structurally — secure-world state (secure timers, secure storage) rejects
/// accesses tagged with [`World::Normal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum World {
    /// The rich OS world (potentially compromised).
    Normal,
    /// The trusted world (assumed uncompromised, per the paper's threat model).
    Secure,
}

impl World {
    /// `true` for [`World::Secure`].
    pub fn is_secure(self) -> bool {
        matches!(self, World::Secure)
    }
}

impl fmt::Display for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            World::Normal => f.write_str("normal"),
            World::Secure => f.write_str("secure"),
        }
    }
}

/// ARMv8-A (AArch64) exception levels, Figure 1 of the paper.
///
/// There is no S-EL2: the secure world has no hypervisor layer. SATIN's
/// introspection modules live at S-EL1 (inside the Test Secure Payload);
/// the secure monitor lives at EL3.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ExceptionLevel {
    /// Normal-world user applications.
    El0,
    /// Normal-world guest OS kernel (the rich OS).
    El1,
    /// Normal-world hypervisor.
    El2,
    /// Secure monitor (world switching).
    El3,
    /// Secure-world applications.
    SEl0,
    /// Secure OS (Test Secure Payload in the paper's prototype).
    SEl1,
}

#[cfg(test)]
impl ExceptionLevel {
    /// The world this level belongs to. EL3 belongs to the secure world.
    pub(crate) fn world(self) -> World {
        match self {
            ExceptionLevel::El0 | ExceptionLevel::El1 | ExceptionLevel::El2 => World::Normal,
            ExceptionLevel::El3 | ExceptionLevel::SEl0 | ExceptionLevel::SEl1 => World::Secure,
        }
    }

    /// Numeric privilege rank within its world (higher = more privileged).
    pub(crate) fn privilege_rank(self) -> u8 {
        match self {
            ExceptionLevel::El0 | ExceptionLevel::SEl0 => 0,
            ExceptionLevel::El1 | ExceptionLevel::SEl1 => 1,
            ExceptionLevel::El2 => 2,
            ExceptionLevel::El3 => 3,
        }
    }
}

#[cfg(test)]
impl fmt::Display for ExceptionLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExceptionLevel::El0 => "EL0",
            ExceptionLevel::El1 => "EL1",
            ExceptionLevel::El2 => "EL2",
            ExceptionLevel::El3 => "EL3",
            ExceptionLevel::SEl0 => "S-EL0",
            ExceptionLevel::SEl1 => "S-EL1",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_mapping() {
        assert_eq!(ExceptionLevel::El0.world(), World::Normal);
        assert_eq!(ExceptionLevel::El1.world(), World::Normal);
        assert_eq!(ExceptionLevel::El2.world(), World::Normal);
        assert_eq!(ExceptionLevel::El3.world(), World::Secure);
        assert_eq!(ExceptionLevel::SEl0.world(), World::Secure);
        assert_eq!(ExceptionLevel::SEl1.world(), World::Secure);
    }

    #[test]
    fn privilege_ordering() {
        assert!(ExceptionLevel::El3.privilege_rank() > ExceptionLevel::El2.privilege_rank());
        assert!(ExceptionLevel::El1.privilege_rank() > ExceptionLevel::El0.privilege_rank());
        assert_eq!(
            ExceptionLevel::SEl1.privilege_rank(),
            ExceptionLevel::El1.privilege_rank()
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(World::Normal.to_string(), "normal");
        assert_eq!(World::Secure.to_string(), "secure");
        assert_eq!(ExceptionLevel::SEl1.to_string(), "S-EL1");
        assert!(World::Secure.is_secure());
        assert!(!World::Normal.is_secure());
    }
}
