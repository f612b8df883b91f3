#![warn(missing_docs)]
//! Rich OS substrate: the normal-world kernel the paper's attack lives in.
//!
//! The TZ-Evader attack is built from scheduler and interrupt artifacts of
//! the Linux kernel running in EL1 (paper §III–IV): a user-level prober
//! scheduled by CFS, KProber-II riding the `SCHED_FIFO` real-time class, and
//! KProber-I injected into the timer-interrupt path found through the
//! exception vector table. This crate reproduces those semantics:
//!
//! - `task`: tasks with CPU affinity, scheduling class, and state;
//! - [`weight`]: Linux's nice-to-weight table for CFS vruntime accounting;
//! - [`runqueue`] / `scheduler`: per-core runqueues with an RT FIFO class
//!   that always beats the CFS class, affinity-respecting wake placement,
//!   and vruntime-ordered CFS picks;
//! - `config`: the lsk-4.4 kernel's build-time constants (the tick
//!   period, the CFS latency and granularity);
//! - [`tick`]: periodic scheduler ticks at `HZ` with `CONFIG_NO_HZ_IDLE`
//!   semantics (the tick stops on idle cores — which is why KProber-I keeps
//!   a spinner on every core, §III-C1);
//! - [`syscall`]: the syscall table the sample rootkit hijacks (GETTID);
//! - [`vector`]: the AArch64 exception vector table KProber-I redirects.

pub(crate) mod config;
pub mod runqueue;
pub(crate) mod scheduler;
pub mod syscall;
pub(crate) mod task;
pub mod tick;
pub mod vector;
pub mod weight;

pub use config::TICK_PERIOD;
pub use scheduler::Scheduler;
pub use task::{Affinity, SchedClass, Task, TaskId, TaskState};
