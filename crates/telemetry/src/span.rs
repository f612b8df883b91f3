//! Hierarchical sim-time spans and the [`Timeline`] recorder.
//!
//! A span is a named `[start, end)` interval on a *track* (one per core, by
//! convention), optionally linked to a parent span — so one introspection
//! session becomes a small tree: `secure.session` at the root, with
//! `world.switch_in`, `scan.window`, and `world.switch_out` children.
//! Instant events mark zero-width moments (a publication, an alarm).
//!
//! Recording is append-only and ids are assigned sequentially, so the same
//! simulation always produces the same timeline byte for byte.

use satin_sim::SimTime;
use std::collections::BTreeMap;

/// Identifier of a recorded span (an index into the timeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u32);

impl SpanId {
    /// The id handed out by a disabled (or full) timeline; all operations
    /// on it are no-ops.
    pub(crate) const DETACHED: SpanId = SpanId(u32::MAX);

    /// `true` if this id refers to no recorded span.
    pub(crate) fn is_detached(self) -> bool {
        self == Self::DETACHED
    }

    /// The span's index in [`Timeline::spans`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A timeline track — one horizontal lane in the exported trace. By
/// convention the machine uses track *n* for core *n*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TrackId(pub u32);

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The span's id (its index in the timeline).
    pub id: SpanId,
    /// Stable span name, e.g. `"secure.session"`.
    pub name: &'static str,
    /// The track (core) the span lives on.
    pub track: TrackId,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// When the span opened.
    pub start: SimTime,
    /// When the span closed; `None` while still open.
    pub end: Option<SimTime>,
    /// Human-readable details (exported as trace args).
    pub detail: String,
}

/// A zero-width moment on a track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstantRecord {
    /// Stable event name, e.g. `"publish"`.
    pub name: &'static str,
    /// The track the event belongs to.
    pub track: TrackId,
    /// When it happened.
    pub at: SimTime,
    /// Human-readable details.
    pub detail: String,
}

/// An append-only recorder of spans and instants in sim-time.
///
/// A disabled timeline records nothing and hands out
/// `SpanId::DETACHED`; a full one stops accepting *new* spans (counting
/// them as dropped) but still closes already-open ones, so exported traces
/// never contain dangling intervals caused by the capacity bound.
///
/// # Example
///
/// ```
/// use satin_telemetry::{Timeline, TrackId};
/// use satin_sim::SimTime;
///
/// let mut tl = Timeline::new();
/// let s = tl.start("secure.session", TrackId(0), SimTime::from_nanos(10), None, "");
/// let c = tl.start("scan.window", TrackId(0), SimTime::from_nanos(12), Some(s), "area=14");
/// tl.end(c, SimTime::from_nanos(40));
/// tl.end(s, SimTime::from_nanos(45));
/// assert_eq!(tl.len(), 2);
/// assert_eq!(tl.count_by_name("secure.session"), 1);
/// assert_eq!(tl.spans()[c.index()].parent, Some(s));
/// ```
#[derive(Debug, Clone)]
pub struct Timeline {
    spans: Vec<SpanRecord>,
    instants: Vec<InstantRecord>,
    track_names: BTreeMap<u32, String>,
    enabled: bool,
    capacity: usize,
    dropped: u64,
}

impl Timeline {
    /// Default capacity (spans + instants each): enough for hours of
    /// simulated introspection sessions without unbounded growth.
    pub(crate) const DEFAULT_CAPACITY: usize = 262_144;

    /// An enabled timeline with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An enabled timeline with an explicit capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "timeline capacity must be nonzero");
        Timeline {
            spans: Vec::new(),
            instants: Vec::new(),
            track_names: BTreeMap::new(),
            enabled: true,
            capacity,
            dropped: 0,
        }
    }

    /// A timeline that records nothing (for hot benchmark paths).
    pub fn disabled() -> Self {
        Timeline {
            enabled: false,
            ..Self::new()
        }
    }

    /// `true` if recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Names a track for display (`"core 0"`); exported as thread-name
    /// metadata so Perfetto shows labelled lanes.
    pub fn set_track_name(&mut self, track: TrackId, name: impl Into<String>) {
        self.track_names.insert(track.0, name.into());
    }

    /// The named tracks, in track order.
    pub(crate) fn track_names(&self) -> impl Iterator<Item = (TrackId, &str)> {
        self.track_names
            .iter()
            .map(|(id, name)| (TrackId(*id), name.as_str()))
    }

    /// Opens a span. Returns `SpanId::DETACHED` when disabled or full.
    pub fn start(
        &mut self,
        name: &'static str,
        track: TrackId,
        at: SimTime,
        parent: Option<SpanId>,
        detail: impl Into<String>,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::DETACHED;
        }
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return SpanId::DETACHED;
        }
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(SpanRecord {
            id,
            name,
            track,
            parent: parent.filter(|p| !p.is_detached()),
            start: at,
            end: None,
            detail: detail.into(),
        });
        id
    }

    /// Closes a span. No-op for `SpanId::DETACHED` or already-closed
    /// spans.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` precedes the span's start.
    pub fn end(&mut self, id: SpanId, at: SimTime) {
        if id.is_detached() {
            return;
        }
        let span = &mut self.spans[id.index()];
        debug_assert!(at >= span.start, "span {} ends before it starts", span.name);
        if span.end.is_none() {
            span.end = Some(at);
        }
    }

    /// Records a complete `[start, end)` span in one call.
    pub fn complete(
        &mut self,
        name: &'static str,
        track: TrackId,
        start: SimTime,
        end: SimTime,
        parent: Option<SpanId>,
        detail: impl Into<String>,
    ) -> SpanId {
        let id = self.start(name, track, start, parent, detail);
        self.end(id, end);
        id
    }

    /// Records an instant event.
    pub fn instant(
        &mut self,
        name: &'static str,
        track: TrackId,
        at: SimTime,
        detail: impl Into<String>,
    ) {
        if !self.enabled {
            return;
        }
        if self.instants.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.instants.push(InstantRecord {
            name,
            track,
            at,
            detail: detail.into(),
        });
    }

    /// All recorded spans, in id order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// All recorded instants, in record order.
    pub fn instants(&self) -> &[InstantRecord] {
        &self.instants
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` if no spans are recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Records rejected because the timeline was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of spans still open.
    pub fn open_count(&self) -> usize {
        self.spans.iter().filter(|s| s.end.is_none()).count()
    }

    /// Number of spans with the given name.
    pub fn count_by_name(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Span counts keyed by name, in name order (deterministic).
    pub fn span_counts(&self) -> BTreeMap<&'static str, u64> {
        let mut counts = BTreeMap::new();
        for s in &self.spans {
            *counts.entry(s.name).or_insert(0) += 1;
        }
        counts
    }
}

impl Default for Timeline {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_tree_links() {
        let mut tl = Timeline::new();
        let root = tl.start(
            "secure.session",
            TrackId(2),
            SimTime::from_nanos(5),
            None,
            "",
        );
        let a = tl.complete(
            "world.switch_in",
            TrackId(2),
            SimTime::from_nanos(5),
            SimTime::from_nanos(8),
            Some(root),
            "",
        );
        let b = tl.complete(
            "scan.window",
            TrackId(2),
            SimTime::from_nanos(8),
            SimTime::from_nanos(20),
            Some(root),
            "area=14",
        );
        tl.end(root, SimTime::from_nanos(25));
        assert_eq!(tl.len(), 3);
        assert_eq!(tl.open_count(), 0);
        assert_eq!(tl.spans().iter().filter(|s| s.parent.is_none()).count(), 1);
        let kids: Vec<_> = tl
            .spans()
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| s.id)
            .collect();
        assert_eq!(kids, vec![a, b]);
        assert_eq!(tl.spans()[b.index()].detail, "area=14");
    }

    #[test]
    fn disabled_records_nothing_and_keeps_capacity() {
        let mut tl = Timeline::disabled();
        let id = tl.start("x", TrackId(0), SimTime::ZERO, None, "");
        assert!(id.is_detached());
        tl.end(id, SimTime::from_nanos(1)); // no-op, no panic
        tl.instant("y", TrackId(0), SimTime::ZERO, "");
        assert!(tl.is_empty());
        assert_eq!(tl.dropped(), 0);
        // Re-enabling behaves like a fresh timeline.
        tl.enabled = true;
        for i in 0..100 {
            tl.start("s", TrackId(0), SimTime::from_nanos(i), None, "");
        }
        assert_eq!(tl.len(), 100);
        assert_eq!(tl.dropped(), 0);
    }

    #[test]
    fn capacity_drops_new_spans_but_closes_old() {
        let mut tl = Timeline::with_capacity(2);
        let a = tl.start("a", TrackId(0), SimTime::ZERO, None, "");
        let _b = tl.start("b", TrackId(0), SimTime::ZERO, None, "");
        let c = tl.start("c", TrackId(0), SimTime::ZERO, None, "");
        assert!(c.is_detached());
        assert_eq!(tl.dropped(), 1);
        tl.end(a, SimTime::from_nanos(9));
        assert_eq!(tl.spans()[a.index()].end, Some(SimTime::from_nanos(9)));
    }

    #[test]
    fn counts_and_track_names() {
        let mut tl = Timeline::new();
        tl.set_track_name(TrackId(0), "core 0");
        tl.set_track_name(TrackId(1), "core 1");
        tl.complete(
            "s",
            TrackId(0),
            SimTime::ZERO,
            SimTime::from_nanos(1),
            None,
            "",
        );
        tl.complete(
            "s",
            TrackId(1),
            SimTime::ZERO,
            SimTime::from_nanos(2),
            None,
            "",
        );
        tl.complete(
            "t",
            TrackId(0),
            SimTime::ZERO,
            SimTime::from_nanos(3),
            None,
            "",
        );
        assert_eq!(tl.count_by_name("s"), 2);
        let counts = tl.span_counts();
        assert_eq!(counts.get("s"), Some(&2));
        assert_eq!(counts.get("t"), Some(&1));
        let names: Vec<_> = tl.track_names().map(|(_, n)| n.to_string()).collect();
        assert_eq!(names, vec!["core 0", "core 1"]);
    }

    #[test]
    fn end_is_idempotent() {
        let mut tl = Timeline::new();
        let s = tl.start("s", TrackId(0), SimTime::ZERO, None, "");
        tl.end(s, SimTime::from_nanos(5));
        tl.end(s, SimTime::from_nanos(9)); // keeps the first close
        assert_eq!(tl.spans()[s.index()].end, Some(SimTime::from_nanos(5)));
    }
}
