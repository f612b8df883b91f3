#![warn(missing_docs)]
//! TZ-Evader: the paper's normal-world evasion attack (§III–IV).
//!
//! TZ-Evader combines a *prober* that detects, via the CPU-availability side
//! channel, that some core entered the secure world, with a *rootkit* that
//! removes its attacking traces before the introspection can read them:
//!
//! - [`prober`]: the Time Reporter / Time Comparer machinery (Figure 2) and
//!   the probing-threshold measurement campaign behind Table II and Figure 4;
//! - [`kprober`]: the two kernel-level prober deployments — KProber-I
//!   (timer-interrupt hijack) and KProber-II (`SCHED_FIFO` real-time
//!   scheduling) — plus the user-level CFS prober;
//! - [`rootkit`]: the GETTID syscall-table hijack with trace recovery
//!   (§IV-A2);
//! - [`channel`]: the in-normal-world coordination between prober and
//!   rootkit;
//! - `evader`: full TZ-Evader deployment onto a [`satin_system::System`];
//! - [`predictor`]: the schedule-predicting evader that random wake-up
//!   (§V-C) defends against;
//! - [`race`]: the paper's Equation 1/2 race-condition analytics (§IV-C).

pub mod channel;
pub(crate) mod evader;
pub mod kprober;
pub mod predictor;
pub mod prober;
pub mod race;
pub mod rootkit;

pub use evader::{TzEvader, TzEvaderConfig};
