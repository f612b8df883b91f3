#![warn(missing_docs)]
//! Deterministic fault injection and the shared error hierarchy.
//!
//! SATIN's claim is that its non-deterministic scheduler wins the
//! introspection race *even under perturbation* (DSN 2019, §V–VI); this
//! crate supplies the perturbation. A `FaultPlan` (data, defined in
//! `satin-scenario` so every layer that speaks `Scenario` can carry it)
//! is armed here as a [`FaultInjector`] for one `(seed, attempt)` run:
//!
//! - `inject`: the injector — scheduler-jitter spikes, dropped or
//!   delayed cross-core publications, corrupted hash windows, and
//!   scheduled worker aborts, all RNG-free so runs stay byte-identical
//!   across `--jobs` values;
//! - `error`: [`SatinError`], the workspace-wide aggregate every
//!   fallible campaign path returns instead of panicking — injected
//!   faults surface as structured `SeedOutcome::Failed` rows, never as
//!   process aborts.
//!
//! Layering: sits between `satin-scenario` and `satin-system`; the
//! system threads an injector through its tick/publication/scan paths,
//! and `satin-bench`'s campaign runner retries failed seeds under the
//! plan's `max_attempts`/`backoff_ms` policy.
//!
//! # Example
//!
//! ```
//! use satin_faults::{FaultInjector, PublicationFate};
//! use satin_scenario::FaultPlan;
//! use satin_sim::SimTime;
//!
//! let mut inj = FaultInjector::new(FaultPlan::smoke(), 7, 1);
//! // The smoke plan drops the first publication after 3 s on every seed…
//! assert_eq!(inj.publication_fate(SimTime::from_secs(4)), PublicationFate::Drop);
//! // …but only aborts the worker on seed 42.
//! assert!(inj.check_abort(SimTime::from_secs(7)).is_ok());
//! assert!(FaultInjector::new(FaultPlan::smoke(), 42, 1)
//!     .check_abort(SimTime::from_secs(7))
//!     .is_err());
//! ```

pub(crate) mod error;
pub(crate) mod inject;

pub use error::SatinError;
pub use inject::{
    armed_kinds, FaultError, FaultInjector, FaultStats, PublicationFate, FAULT_ABORT,
    FAULT_CORRUPT_WINDOW, FAULT_DELAYED_PUB, FAULT_DROPPED_PUB, FAULT_JITTER,
};
