#![warn(missing_docs)]
//! Campaign observability for the SATIN reproduction.
//!
//! The campaign runner used to be a black box between "start" and a final
//! report; this crate opens it up without compromising the workspace's
//! central promise — that every result is a pure function of its seed.
//! It does so by keeping two strictly separated domains:
//!
//! - the **sim domain**: the canonical [`ObsEvent`] stream — campaign and
//!   cell lifecycle (started, attempt, fault-armed, retried, salvaged,
//!   finished, worker hand-off). Every field is a pure function of
//!   `(cell, seed, attempt)`, so the merged stream written by
//!   `repro --events-out` is **byte-identical for any `--jobs` count** and
//!   golden snapshots can pin it;
//! - the **host domain**: wall-clock observations of the harness itself —
//!   which OS worker ran a cell, how long it took in real time, how busy
//!   each worker was. These ride on a lossy bounded channel as
//!   [`LiveEvent`] wrappers for the live `--progress` renderer and the
//!   [`HostReport`] utilization summary, and are *never* serialized into
//!   the canonical stream.
//!
//! The two-clocks rule (DESIGN.md §14): a sim-time field and a host-time
//! field never share a struct. [`ObsEvent`] is all sim-domain;
//! [`LiveEvent`], [`PhaseTimer`] and [`HostReport`] are all host-domain.
//!
//! The crate also carries a dependency-free [`json`] reader: the campaign
//! daemon's wire format and the result store's replay reader.

pub(crate) mod event;
pub mod host;
pub mod json;
pub(crate) mod progress;
pub(crate) mod stream;

pub use event::{ObsEvent, EVENT_SCHEMA_VERSION};
pub use host::{HostClock, HostReport, PhaseTimer};
pub use progress::ProgressRenderer;
pub use stream::{CampaignObs, CellEvents, EventStream, LiveEvent};
