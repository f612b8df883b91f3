#![warn(missing_docs)]
//! Telemetry layer for the SATIN reproduction.
//!
//! The paper's entire argument is about *time* — world-switch latency,
//! per-byte hash rates, detection latency under the randomized scheduler —
//! yet end-of-run counters can't show *where inside a session* the time
//! went, or why a particular TZ-Evader race was won or lost. This crate
//! turns every simulated introspection race into an inspectable, exportable
//! timeline:
//!
//! - [`Timeline`] records hierarchical **spans** ([`SpanId`], enter/exit in
//!   sim-time, parent links) and instant events on per-core tracks;
//! - [`DurationHistogram`] is a fixed-shape aggregate with **deterministic
//!   merge**: merging per-worker copies in any order yields bit-identical
//!   results, so parallel campaign runners aggregate identically for any
//!   `--jobs` count;
//! - [`export`] renders a timeline as Chrome `trace_event` JSON (loadable
//!   in `chrome://tracing` / [Perfetto](https://ui.perfetto.dev)) or as a
//!   line-delimited JSONL event stream.
//!
//! Everything here is *pure observation*: recording consumes no randomness
//! and schedules no events, so enabling telemetry can never change an
//! experiment's outcome — the golden-trace snapshots pin this.

pub mod export;
pub mod hist;
pub mod span;

pub use export::{chrome_trace, json_escape, jsonl_events};
pub use hist::DurationHistogram;
pub use span::{InstantRecord, SpanId, SpanRecord, Timeline, TrackId};
