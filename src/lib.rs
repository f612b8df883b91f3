#![warn(missing_docs)]
//! SATIN — a full-system reproduction of *"SATIN: A Secure and Trustworthy
//! Asynchronous Introspection on Multi-Core ARM Processors"* (DSN 2019).
//!
//! The paper's prototype needs an ARM Juno r1 board with TrustZone firmware;
//! this reproduction replaces the hardware with a deterministic
//! discrete-event simulation calibrated to the paper's own measurements
//! (see `DESIGN.md`), and builds everything on top: the rich OS substrate,
//! the secure world, the TZ-Evader attack, and the SATIN defense.
//!
//! # Quickstart
//!
//! Boot the simulated machine, deploy the paper's attack, install SATIN,
//! and watch the defense win the race:
//!
//! ```
//! use satin::attack::{TzEvader, TzEvaderConfig};
//! use satin::core::{Satin, SatinConfig};
//! use satin::system::SystemBuilder;
//! use satin::sim::{SimDuration, SimTime};
//!
//! // A simulated Juno r1 with the paper-calibrated timing model.
//! let mut sys = SystemBuilder::new().seed(42).trace(false).build();
//!
//! // SATIN in the secure world (fast Tgoal so the doctest stays quick).
//! let mut cfg = SatinConfig::paper();
//! cfg.tgoal = SimDuration::from_secs(19); // tp = 1 s over 19 areas
//! let (satin, handle) = Satin::new(cfg);
//! sys.install_secure_service(satin);
//!
//! // TZ-Evader in the normal world: KProber-II + GETTID-hijack rootkit.
//! let evader = TzEvader::deploy(&mut sys, TzEvaderConfig::paper_default());
//!
//! sys.run_until(SimTime::from_secs(30));
//!
//! // The prober saw the introspection rounds...
//! assert!(evader.channel.detection_count() > 0);
//! // ...but every check of the attacked area beat the recovery race.
//! let attacked_area = satin_mem::PAPER_SYSCALL_AREA;
//! let caught = handle
//!     .rounds()
//!     .iter()
//!     .filter(|r| r.area == attacked_area && r.tampered)
//!     .count();
//! assert!(caught > 0, "SATIN detected the hijack");
//! ```
//!
//! # Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`sim`] | `satin-sim` | Discrete-event engine, virtual time, RNG |
//! | [`stats`] | `satin-stats` | Summaries, boxplots, tables, charts |
//! | [`hash`] | `satin-hash` | djb2 & friends, authorized hash tables |
//! | [`hw`] | `satin-hw` | Juno-like platform: cores, timers, GIC, monitor |
//! | [`mem`] | `satin-mem` | Kernel image, System.map layout, scan windows |
//! | [`kernel`] | `satin-kernel` | CFS + RT schedulers, ticks, syscall table |
//! | [`secure`] | `satin-secure` | TSP, secure storage, boot measurement |
//! | [`system`] | `satin-system` | The machine: event loop over both worlds |
//! | [`telemetry`] | `satin-telemetry` | Spans, histograms, Chrome trace exporter |
//! | [`scenario`] | `satin-scenario` | Declarative platform/attack/defense profiles |
//! | [`attack`] | `satin-attack` | TZ-Evader: probers, rootkit, race math |
//! | [`core`] | `satin-core` | **SATIN** (the paper's contribution) |
//! | [`workload`] | `satin-workload` | UnixBench-like overhead suite |
//! | [`serve`] | `satin-serve` | Content-addressed result store + job daemon |

pub use satin_analyze as analyze;
pub use satin_attack as attack;
pub use satin_core as core;
pub use satin_hash as hash;
pub use satin_hw as hw;
pub use satin_kernel as kernel;
pub use satin_mem as mem;
pub use satin_scenario as scenario;
pub use satin_secure as secure;
pub use satin_serve as serve;
pub use satin_sim as sim;
pub use satin_stats as stats;
pub use satin_system as system;
pub use satin_telemetry as telemetry;
pub use satin_workload as workload;

/// The most commonly used items in one import.
pub mod prelude {
    pub use satin_attack::{TzEvader, TzEvaderConfig};
    pub use satin_core::{Satin, SatinConfig, SatinHandle};
    pub use satin_hw::{CoreId, CoreKind, Platform};
    pub use satin_kernel::{Affinity, SchedClass};
    pub use satin_mem::KernelLayout;
    pub use satin_scenario::Scenario;
    pub use satin_sim::{SimDuration, SimTime};
    pub use satin_system::{RunCtx, RunOutcome, System, SystemBuilder, ThreadBody};
}
