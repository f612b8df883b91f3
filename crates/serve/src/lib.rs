#![warn(missing_docs)]
//! Campaign-as-a-service for the SATIN reproduction.
//!
//! Every campaign cell in this workspace is a pure function of
//! `(scenario, seed, fault plan, code)` — so its result never needs
//! to be computed twice. This crate turns that determinism into a service:
//!
//! - [`store`]: an append-only, content-addressed **result store**. Each
//!   finished cell is one JSONL line keyed by [`JobKey`] — the FNV-1a hashes
//!   of the scenario text (faults cleared), the fault-plan text, the seed,
//!   and a [`code_fingerprint`] of the running executable, which changes
//!   with every rebuild. Writes are append + flush,
//!   first-write-wins; reads tolerate exactly one torn trailing line (a
//!   crash mid-append) and reject any other corruption loudly.
//! - `service`: the cache-or-compute fold. [`JobService::run_job`] answers
//!   cached cells without simulating (emitting `job.cache_hit` events),
//!   hands only the missing seeds to a backend closure, persists the fresh
//!   rows, and renders a report that is **byte-identical whether every cell
//!   was a hit or a miss** — warm replays are provably the same bytes.
//! - [`daemon`]: a single-threaded blocking-accept daemon over a Unix domain
//!   socket, plus the matching client calls ([`submit`], [`ping`],
//!   [`shutdown`]). The protocol is JSONL both ways; event lines stream to
//!   the client as the job runs, then one `done` line carries the report.
//!
//! Two-clocks discipline (DESIGN.md §14) applies unchanged: everything in
//! the store and on the wire's event lines is sim-domain; the daemon's own
//! stderr chatter takes host time from [`satin_obs::HostClock`] only.
//!
//! u64 fidelity: the store format and wire protocol carry seeds as decimal
//! *strings* and 64-bit hashes as 16-hex-digit *strings*, because the
//! workspace's JSON parser holds numbers as `f64` and would silently round
//! values above 2^53.

pub mod daemon;
pub(crate) mod key;
pub(crate) mod service;
pub mod store;

pub use daemon::{ping, serve, shutdown, submit, SubmitReply};
pub use key::{code_fingerprint, JobKey};
pub use service::{render_report, JobOutcome, JobService};
pub use store::{CellRecord, ResultStore};
