#![warn(missing_docs)]
//! SATIN: Secure and Trustworthy Asynchronous Introspection (the paper's
//! contribution, §V–VI).
//!
//! SATIN defeats TZ-Evader by winning the race condition: it minimizes the
//! running time of each introspection round and maximizes the attacker's
//! probing delay. Three techniques combine (§V):
//!
//! 1. **Divide and conquer** ([`areas`]): the kernel is divided along
//!    `System.map` segment boundaries into areas, each smaller than the
//!    safety bound `(Tns_delay + Tns_recover − Ts_switch) / Ts_1byte`, so a
//!    round always finishes before the attacker can finish cleaning.
//! 2. **Random self-activation** ([`activation`]): a secure timer the normal
//!    world cannot touch wakes the secure world at `tp ± td` with `td`
//!    uniform in `[−tp, tp]`, so the next round can start at any moment.
//! 3. **Multi-core collaboration** ([`queue`]): a wake-up time queue in
//!    secure memory hands each waking core a randomly assigned next wake
//!    time, so neither the next core nor the next time leaks to the normal
//!    world.
//!
//! [`satin::Satin`] packages the three as a
//! [`satin_system::SecureService`]; [`baseline`] provides the naive
//! introspection services the paper attacks, for comparison.

pub mod activation;
pub mod areas;
pub mod baseline;
pub(crate) mod error;
pub(crate) mod golden;
pub(crate) mod integrity;
pub mod queue;
pub mod satin;

pub use areas::{Area, AreaPlan, KernelAreaSet};
pub use error::PlanError;
pub use integrity::Alarm;
pub use satin::{CorePolicy, Satin, SatinConfig, SatinHandle};
