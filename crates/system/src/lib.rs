#![warn(missing_docs)]
//! Full-machine composition: the event loop that runs both worlds.
//!
//! This crate wires the substrates together — the discrete-event engine
//! (`satin-sim`), the hardware platform (`satin-hw`), physical memory and the
//! kernel image (`satin-mem`), the rich OS scheduler (`satin-kernel`), and
//! the secure payload (`satin-secure`) — into a [`System`] that higher layers
//! program with two plug-in points:
//!
//! - [`ThreadBody`]: the behaviour of a normal-world task (the TZ-Evader
//!   probers and rootkit, the UnixBench-like workloads);
//! - [`SecureService`]: the behaviour of the secure world's timer handler
//!   (SATIN, and the naive-introspection baselines).
//!
//! The event loop owns the phenomena the paper's race depends on:
//! world switches that freeze a core's normal runqueue (the prober's side
//! channel), sequential scans resolved through [`satin_mem::ScanWindow`]
//! (the TOCTTOU race), cross-core report publication delays, scheduler
//! dispatch jitter, periodic ticks with `NO_HZ_IDLE`, and post-secure-world
//! cache-pollution windows (the Figure 7 overhead mechanism).

pub(crate) mod body;
pub(crate) mod builder;
pub(crate) mod event;
pub(crate) mod machine;
pub(crate) mod metrics;
pub(crate) mod service;
pub(crate) mod stats;
pub(crate) mod timebuf;

pub use body::{RunCtx, RunOutcome, Then, ThreadBody};
pub use builder::SystemBuilder;
pub use event::SysEvent;
pub use machine::{ActiveScan, System, TickHook};
pub use metrics::{CoreMetrics, SysMetrics};
pub use satin_faults::{FaultError, FaultStats, SatinError};
pub use service::{BootCtx, ScanRequest, SecureCtx, SecureService};
pub use timebuf::SharedTimeBuffer;
