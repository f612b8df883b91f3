#![warn(missing_docs)]
//! Secure-world substrate: the Test Secure Payload environment SATIN runs in.
//!
//! The paper's prototype modifies ARM Trusted Firmware's Test Secure Payload
//! (TSP) at S-EL1 to host the introspection modules (§IV-A, §VI-A). This
//! crate models the pieces the defense builds on:
//!
//! - [`storage::SecureStorage`] — secure memory the normal world structurally
//!   cannot read (the authorized hash table and wake-up time queue live in
//!   such cells);
//! - [`measurement`] — boot-time measurement: hashing the pristine kernel
//!   areas into an authorized table (§VI-A2);
//! - `tsp` — the secure payload bookkeeping: per-core invocation counts and
//!   handler registration.

pub mod measurement;
pub mod storage;
pub(crate) mod tsp;

pub use storage::SecureStorage;
pub use tsp::TestSecurePayload;
