//! Experiment harness regenerating every table and figure of the SATIN
//! paper (DSN 2019).
//!
//! Each module regenerates one published result; the `repro` binary prints
//! them in the paper's format. See `DESIGN.md`'s per-experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured numbers.
//!
//! | Module | Paper result |
//! |---|---|
//! | [`table1`] | Table I — secure-world introspection time per byte |
//! | [`switch`] | §IV-B1 — world-switch latency `Ts_switch` |
//! | [`recover`] | §IV-B2 — trace-recovery time `Tns_recover` |
//! | [`table2`] | Table II / Figure 4 — probing thresholds vs period |
//! | [`race`] | §IV-C / Figure 3 — race-condition bound and timeline |
//! | [`detection`] | §VI-B1 — SATIN vs TZ-Evader detection campaign |
//! | [`fig7`] | Figure 7 — UnixBench overhead, 1-task and 6-task |
//! | [`ablation`] | Baseline comparisons and design-choice sweeps |
//! | [`userprober`] | §III-B1 — user-level prober capability and load sensitivity |
//! | [`analysis`] | `--analyze` — happens-before race detection + Eq.1/Eq.2 audit |
//! | `scenario_grid` | `grid` — the detection campaign swept over scenario profiles |
//!
//! `runner` is the shared harness: a [`CampaignRunner`] fans independent
//! seeded campaigns across threads (results in input order, so aggregates
//! don't depend on the job count), and a [`MetricsReport`] snapshots a
//! finished system's per-subsystem counters and trace health.
//! [`telemetry_report`] turns those snapshots into the `--metrics-json`
//! aggregate and runs the fully-traced race behind `--trace-out`.

pub mod ablation;
pub mod analysis;
pub mod detection;
pub mod fig7;
pub mod race;
pub mod recover;
pub(crate) mod runner;
pub(crate) mod scenario_grid;
pub mod switch;
pub mod table1;
pub mod table2;
pub mod telemetry_report;
pub mod threshold_sweep;
pub mod userprober;

pub use analysis::{analyze_campaign, AnalysisRun};
pub use runner::{CampaignRunner, MetricsReport, RetryPolicy, SeedOutcome};
pub use scenario_grid::{ScenarioGrid, ScenarioGridReport};
pub use telemetry_report::{run_traced_race_scenario, TelemetryReport, TracedRace};

/// Default master seed for all experiments (override per run for variance
/// studies).
pub const DEFAULT_SEED: u64 = 0x5a71_2019;
