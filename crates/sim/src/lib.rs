#![warn(missing_docs)]
//! Deterministic discrete-event simulation engine for the SATIN reproduction.
//!
//! The SATIN paper (DSN 2019) studies a *timing race* between the ARM
//! TrustZone secure world (performing asynchronous introspection) and a
//! compromised rich OS (removing attack traces). Reproducing that race without
//! the ARM Juno r1 board requires a simulator whose only notion of time is
//! virtual: this crate provides nanosecond-resolution [`SimTime`], an ordered
//! timing-wheel event queue with stable FIFO tie-breaking, seeded and stream-split
//! deterministic randomness ([`rng::SimRng`]), calibrated probability
//! distributions ([`dist`]), a bounded [`trace::TraceLog`] with typed
//! [`trace::TraceCategory`] labels, and a read-only [`observe::SimObserver`]
//! hook for instrumenting the engine without perturbing it.
//!
//! # Example
//!
//! ```
//! use satin_sim::{Simulator, SimDuration};
//!
//! let mut sim: Simulator<&'static str> = Simulator::new();
//! sim.schedule_after(SimDuration::from_micros(3), "later");
//! sim.schedule_after(SimDuration::from_micros(1), "sooner");
//! let mut order = Vec::new();
//! while let Some((t, ev)) = sim.pop() {
//!     order.push((t.as_nanos(), ev));
//! }
//! assert_eq!(order, vec![(1_000, "sooner"), (3_000, "later")]);
//! ```

pub mod dist;
pub mod engine;
pub mod observe;
mod queue;
pub mod rng;
pub mod time;
pub mod trace;

pub use engine::Simulator;
pub use observe::{Mark, MarkTag, SimObserver};
pub use rng::{RngFactory, SimRng};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceCategory, TraceEvent, TraceLog};
