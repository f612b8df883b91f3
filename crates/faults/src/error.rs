//! The shared error hierarchy for panic-free campaigns.
//!
//! Every layer already has a typed error (`MemError`, `HwError`,
//! `ParseError`); [`SatinError`] aggregates them so fallible
//! paths — service boot, campaign workers, injected faults — can return
//! one structured error instead of aborting the process. The campaign
//! runner renders these into `SeedOutcome::Failed` rows.

use crate::inject::FaultError;
use satin_hw::HwError;
use satin_mem::MemError;
use satin_scenario::ParseError;
use std::error::Error;
use std::fmt;

/// The workspace-wide error: any structured failure a campaign path can
/// surface instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SatinError {
    /// A physical-memory access failed.
    Mem(MemError),
    /// A hardware/world-switch operation failed.
    Hw(HwError),
    /// A scenario or fault-plan descriptor failed to parse.
    Scenario(ParseError),
    /// An injected fault fired (the *expected* failure mode under a
    /// fault plan — campaigns salvage these as structured rows).
    Fault(FaultError),
    /// A secure service failed to boot.
    Boot {
        /// Which boot stage failed (e.g. `"plan"`, `"measure"`, `"arm"`).
        stage: &'static str,
        /// Human-readable description of the failure.
        detail: String,
    },
}

impl fmt::Display for SatinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SatinError::Mem(e) => write!(f, "memory: {e}"),
            SatinError::Hw(e) => write!(f, "hardware: {e}"),
            SatinError::Scenario(e) => write!(f, "scenario: {e}"),
            SatinError::Fault(e) => write!(f, "injected fault: {e}"),
            SatinError::Boot { stage, detail } => write!(f, "boot ({stage}): {detail}"),
        }
    }
}

impl Error for SatinError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SatinError::Mem(e) => Some(e),
            SatinError::Hw(e) => Some(e),
            SatinError::Scenario(e) => Some(e),
            SatinError::Fault(e) => Some(e),
            SatinError::Boot { .. } => None,
        }
    }
}

impl From<MemError> for SatinError {
    fn from(e: MemError) -> Self {
        SatinError::Mem(e)
    }
}

impl From<HwError> for SatinError {
    fn from(e: HwError) -> Self {
        SatinError::Hw(e)
    }
}

impl From<ParseError> for SatinError {
    fn from(e: ParseError) -> Self {
        SatinError::Scenario(e)
    }
}

impl From<FaultError> for SatinError {
    fn from(e: FaultError) -> Self {
        SatinError::Fault(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satin_sim::SimTime;

    #[test]
    fn display_prefixes_layer() {
        let e: SatinError = FaultError::WorkerAbort {
            at: SimTime::from_secs(6),
            attempt: 1,
        }
        .into();
        assert!(e.to_string().starts_with("injected fault:"), "{e}");
        let e = SatinError::Boot {
            stage: "plan",
            detail: "area too large".to_string(),
        };
        assert!(e.to_string().contains("boot (plan)"), "{e}");
    }

    #[test]
    fn source_chains_to_layer_error() {
        let e: SatinError = FaultError::WorkerAbort {
            at: SimTime::from_secs(6),
            attempt: 1,
        }
        .into();
        assert!(e.source().is_some());
        let e = SatinError::Boot {
            stage: "arm",
            detail: "x".to_string(),
        };
        assert!(e.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SatinError>();
    }
}
