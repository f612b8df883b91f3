#![warn(missing_docs)]
//! Declarative scenarios: the platform, attacker, defense, and campaign
//! shape as data instead of code.
//!
//! The paper evaluates SATIN in exactly one configuration — a Juno r1
//! board, KProber-II at 200 µs with a 1.8 ms threshold, SATIN at
//! `Tgoal = 152 s`. A [`Scenario`] holds that whole tuple as data, in the
//! types the simulator runs, and the `juno-r1` descriptor is the one place
//! its numbers are written:
//!
//! - `scenario`: the [`Scenario`] type — a `PlatformSpec` (from
//!   `satin-hw`) plus [`AttackProfile`], [`SatinConfig`] (the defender,
//!   with its [`CorePolicy`] and [`AreaPolicy`]), and [`CampaignProfile`]
//!   — and its canonical text form;
//! - `parse`: a hand-rolled parser for the small `[section]` /
//!   `key = value` text format, with line-numbered errors;
//! - `registry`: built-in scenarios — `juno-r1` (the paper, and the
//!   source of every default elsewhere in the workspace, including
//!   [`SatinConfig::paper`]) plus platform variants for grid sweeps.
//!
//! Layering: this crate sits *below* `satin-system`, `satin-core`,
//! `satin-attack`, and `satin-bench`, which run its types directly:
//! `SystemBuilder::scenario` builds the platform, `satin-core` re-exports
//! [`SatinConfig`] and boots it, `TzEvaderConfig::from_profile` adds the
//! rootkit to the attack profile, and `ScenarioGrid` sweeps scenarios.
//!
//! # Example
//!
//! ```
//! use satin_scenario::{parse_scenario, Scenario};
//!
//! // Descriptors only spell out what they change from juno-r1.
//! let sc = parse_scenario("[scenario]\nname = mine\n[attack]\nsleep-ns = 100000\n").unwrap();
//! assert_eq!(sc.platform.cores.len(), 6);
//! // The canonical text form round-trips.
//! let again = parse_scenario(&sc.to_text()).unwrap();
//! assert_eq!(again, sc);
//! // The default scenario is the paper's setup.
//! assert_eq!(Scenario::paper().name, "juno-r1");
//! ```

pub(crate) mod faults;
pub(crate) mod parse;
pub(crate) mod registry;
pub(crate) mod scenario;

pub use faults::{
    builtin_fault_plan, AbortSpec, CorruptWindowSpec, DelayPublicationSpec, DropPublicationSpec,
    FaultPlan, JitterSpec, SeedFilter,
};
pub use parse::{parse_fault_plan, parse_scenario, ParseError};
pub use registry::{builtin, builtins};
pub use scenario::{
    AreaPolicy, AttackProfile, CampaignProfile, CorePolicy, ProberKind, SatinConfig, Scenario,
};
