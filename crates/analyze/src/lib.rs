#![warn(missing_docs)]
//! Trace analysis for the SATIN reproduction.
//!
//! The simulation layers (`satin-sim` → `satin-system` → `satin-core`) are
//! deterministic by construction, but determinism alone doesn't prove the
//! *ordering* claims the paper rests on: that a detection is published
//! before anyone reads it, that secure scans never overlap on a core, that
//! TZ-Evader's recovery only fires after its prober actually observed a
//! world switch. This crate checks those claims after (and outside of)
//! every run, two ways:
//!
//! - `hb` — a vector-clock **happens-before race detector**. An
//!   [`AnalyzeProbe`] rides the engine's [`satin_sim::SimObserver`] seat,
//!   assigns each core a `VectorClock`, derives causal edges from the
//!   cross-core mark stream (timer fire → prober observation → recovery,
//!   scan publish → detection), and flags three violation classes with the
//!   offending event pairs, sim timestamps, and core IDs.
//! - `invariant` — an **Eq.1/Eq.2 audit** that re-derives the paper's
//!   closed-form race equations from the recorded mark log and asserts the
//!   simulated outcome matches: every fair-race window the closed form says
//!   the introspection wins must carry a detection, every scan window must
//!   fit the §V-B safe-area bound, and a `ScanWindow` micro-simulation must
//!   place the escape boundary on the closed form to the byte.
//!
//! The crate checks *traces*, not source: the workspace's source rules
//! (determinism, panic freedom, the `unsafe` audit) are clippy lints, set in
//! the root `clippy.toml` and `ci.sh` (DESIGN.md §15).
//!
//! Both are pure observers: they never mutate simulation state,
//! never consume randomness, and the golden-trace snapshots pin that
//! attaching them changes nothing.

pub(crate) mod hb;
pub(crate) mod invariant;
pub(crate) mod vclock;

pub use hb::{
    attach, AnalyzeHandle, AnalyzeProbe, MarkRecord, RaceReport, Violation, ViolationKind,
};
pub use invariant::{audit, InvariantReport};
