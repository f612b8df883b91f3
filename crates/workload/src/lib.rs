#![warn(missing_docs)]
//! UnixBench-like simulated workload suite: the Figure 7 overhead study.
//!
//! The paper evaluates SATIN's overhead with UnixBench (§VI-B2), running
//! each benchmark once (1-task) and in six simultaneous copies (6-task),
//! with and without SATIN's self-activation enabled. The reported
//! degradations are 0.711% (1-task mean) and 0.848% (6-task mean), with
//! `file copy 256B` (3.556%) and `pipe-based context switching` (3.912%)
//! worst — the workloads most sensitive to cache disturbance.
//!
//! Here each benchmark is a CPU-occupying task whose *effective work* is
//! accounted by the system layer: work accrues at the core's speed, scaled
//! down inside post-introspection interference windows by the workload's
//! cache sensitivity. A workload's score is effective seconds × its nominal
//! operation rate, and the Figure 7 bar is `1 − score_on / score_off`.

pub(crate) mod report;
pub mod runner;
pub mod suite;

pub use report::{OverheadReport, OverheadRow};
pub use runner::{run_overhead_study, OverheadConfig};
pub use suite::{unixbench_suite, Workload};
