#![warn(missing_docs)]
//! Simulated ARM big.LITTLE TrustZone platform.
//!
//! Models the hardware the SATIN paper's prototype ran on — the ARM Juno r1
//! development board — at the level of detail the paper's race condition
//! requires:
//!
//! - [`topology`]: 2× Cortex-A57 ("big") + 4× Cortex-A53 ("LITTLE") cores;
//! - [`timing`]: per-core-kind timing distributions calibrated to the paper's
//!   Table I and §IV-B measurements;
//! - [`world`]: the TrustZone two-world model and ARMv8-A exception levels;
//! - [`timers`]: the shared physical counter `CNTPCT_EL0` and per-core secure
//!   timers `CNTPS_CTL_EL1`/`CNTPS_CVAL_EL1`, writable only from the secure
//!   world;
//! - [`gic`]: secure/non-secure interrupt grouping and routing, including the
//!   `SCR_EL3.IRQ` configuration SATIN uses to stay non-preemptible;
//! - [`monitor`]: the EL3 secure monitor's world-switch state machine;
//! - [`platform`]: the assembled machine.
//!
//! Everything here is a *passive state machine*: the `satin-system` crate owns
//! the event loop and drives these models with simulated time.

pub mod error;
pub mod gic;
pub mod monitor;
pub mod platform;
pub mod profile;
pub mod timers;
pub mod timing;
pub mod topology;
pub mod world;

pub use error::HwError;
pub use gic::RoutingKind;
pub use platform::Platform;
pub use profile::PlatformSpec;
pub use timing::{CoreCalibration, TimingModel, TriSpec};
pub use topology::{CoreId, CoreKind, Topology};
pub use world::{ExceptionLevel, World};
