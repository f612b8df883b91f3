#![warn(missing_docs)]
//! Simulated ARM big.LITTLE TrustZone platform.
//!
//! Models the hardware the SATIN paper's prototype ran on — the ARM Juno r1
//! development board — at the level of detail the paper's race condition
//! requires:
//!
//! - `topology`: 2× Cortex-A57 ("big") + 4× Cortex-A53 ("LITTLE") cores;
//! - [`timing`]: per-core-kind timing distributions calibrated to the paper's
//!   Table I and §IV-B measurements;
//! - `world`: the TrustZone two-world model;
//! - [`timers`]: per-core secure timers `CNTPS_CTL_EL1`/`CNTPS_CVAL_EL1`,
//!   writable only from the secure world (the shared counter `CNTPCT_EL0`
//!   they compare against is simulated time itself);
//! - `gic`: the `SCR_EL3.IRQ` routing configuration SATIN uses to stay
//!   non-preemptible;
//! - [`monitor`]: the EL3 secure monitor's world-switch state machine;
//! - `platform`: the assembled machine.
//!
//! Everything here is a *passive state machine*: the `satin-system` crate owns
//! the event loop and drives these models with simulated time.

pub(crate) mod error;
pub(crate) mod gic;
pub mod monitor;
pub(crate) mod platform;
pub mod profile;
pub mod timers;
pub mod timing;
pub(crate) mod topology;
pub(crate) mod world;

pub use error::HwError;
pub use gic::RoutingKind;
pub use platform::Platform;
pub use timing::{CoreCalibration, TimingModel, TriSpec};
pub use topology::{CoreId, CoreKind, Topology};
pub use world::World;
