//! The TrustZone two-world model (paper §II-A).

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(World::Normal.to_string(), "normal");
        assert_eq!(World::Secure.to_string(), "secure");
        assert!(World::Secure.is_secure());
        assert!(!World::Normal.is_secure());
    }
}
