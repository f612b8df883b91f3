//! Bounded, structured event tracing.
//!
//! Experiments (e.g. the Figure 3 race-condition timeline) need a record of
//! *what happened when*. [`TraceLog`] is a bounded ring of timestamped,
//! categorized entries that components append to and reports read back.

use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A typed trace category.
///
/// The recurring categories emitted by the machine, the secure service, and
/// the attack models are named variants, so call sites and filters can't
/// drift apart through typos. Ad-hoc categories (workload bodies, tests,
/// examples) use [`TraceCategory::Custom`]; `From<&'static str>` normalizes
/// known strings to their variant, so legacy string call sites keep working
/// and always compare equal to the typed form.
#[derive(Debug, Clone, Copy, Eq)]
pub enum TraceCategory {
    /// A core entered the secure world (`secure.enter`).
    SecureEnter,
    /// A core left the secure world (`secure.exit`).
    SecureExit,
    /// An introspection scan window opened (`secure.scan`).
    SecureScan,
    /// SATIN restored tampered kernel bytes (`satin.repair`).
    SatinRepair,
    /// SATIN raised an integrity alarm (`satin.alarm`).
    SatinAlarm,
    /// The rootkit installed its hook (`attack.install`).
    AttackInstall,
    /// The rootkit restored clean bytes to dodge a scan (`attack.restore`).
    AttackRestore,
    /// The rootkit re-hid after a scan passed (`attack.hide`).
    AttackHide,
    /// The TZ-Evader predicted the next scan (`attack.predict`).
    AttackPredict,
    /// The KProber-1 probe task observed a timing anomaly
    /// (`attack.kprober1`).
    AttackKprober,
    /// Any other category, by its string name.
    Custom(&'static str),
}

impl TraceCategory {
    /// The category's stable string name, e.g. `"secure.enter"`.
    pub const fn as_str(self) -> &'static str {
        match self {
            TraceCategory::SecureEnter => "secure.enter",
            TraceCategory::SecureExit => "secure.exit",
            TraceCategory::SecureScan => "secure.scan",
            TraceCategory::SatinRepair => "satin.repair",
            TraceCategory::SatinAlarm => "satin.alarm",
            TraceCategory::AttackInstall => "attack.install",
            TraceCategory::AttackRestore => "attack.restore",
            TraceCategory::AttackHide => "attack.hide",
            TraceCategory::AttackPredict => "attack.predict",
            TraceCategory::AttackKprober => "attack.kprober1",
            TraceCategory::Custom(name) => name,
        }
    }
}

impl From<&'static str> for TraceCategory {
    fn from(name: &'static str) -> Self {
        match name {
            "secure.enter" => TraceCategory::SecureEnter,
            "secure.exit" => TraceCategory::SecureExit,
            "secure.scan" => TraceCategory::SecureScan,
            "satin.repair" => TraceCategory::SatinRepair,
            "satin.alarm" => TraceCategory::SatinAlarm,
            "attack.install" => TraceCategory::AttackInstall,
            "attack.restore" => TraceCategory::AttackRestore,
            "attack.hide" => TraceCategory::AttackHide,
            "attack.predict" => TraceCategory::AttackPredict,
            "attack.kprober1" => TraceCategory::AttackKprober,
            other => TraceCategory::Custom(other),
        }
    }
}

// Equality and hashing go through the string name so a hand-built
// `Custom("secure.enter")` still equals `SecureEnter`.
impl PartialEq for TraceCategory {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Hash for TraceCategory {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Display for TraceCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad` honors width/alignment flags, e.g. `{:<18}`.
        f.pad(self.as_str())
    }
}

/// One trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the event happened.
    pub time: SimTime,
    /// Stable machine-readable category, e.g. [`TraceCategory::SecureEnter`].
    pub category: TraceCategory,
    /// Human-readable details.
    pub detail: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {:<18} {}", self.time, self.category, self.detail)
    }
}

/// A bounded in-memory trace.
///
/// When full, the oldest entries are dropped (and counted), so long
/// experiments keep the most recent window without unbounded memory growth.
///
/// # Example
///
/// ```
/// use satin_sim::{TraceLog, SimTime};
/// let mut log = TraceLog::with_capacity(2);
/// log.record(SimTime::from_nanos(1), "a", "first");
/// log.record(SimTime::from_nanos(2), "b", "second");
/// log.record(SimTime::from_nanos(3), "a", "third");
/// assert_eq!(log.len(), 2);        // capacity bound
/// assert_eq!(log.dropped(), 1);    // oldest evicted
/// assert_eq!(log.by_category("a").count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    entries: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    enabled: bool,
}

impl TraceLog {
    /// Default capacity: enough for any single experiment round.
    pub(crate) const DEFAULT_CAPACITY: usize = 65_536;

    /// Creates an enabled log with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates an enabled log with an explicit capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be nonzero");
        TraceLog {
            entries: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
            enabled: true,
        }
    }

    /// A log that records nothing (for hot benchmark paths).
    pub fn disabled() -> Self {
        TraceLog {
            entries: VecDeque::new(),
            capacity: Self::DEFAULT_CAPACITY,
            dropped: 0,
            enabled: false,
        }
    }

    /// `true` if recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends an entry (no-op when disabled).
    ///
    /// `category` accepts either a [`TraceCategory`] or a `&'static str`
    /// (normalized through `From`).
    pub fn record(
        &mut self,
        time: SimTime,
        category: impl Into<TraceCategory>,
        detail: impl Into<String>,
    ) {
        if !self.enabled {
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(TraceEvent {
            time,
            category: category.into(),
            detail: detail.into(),
        });
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates over retained entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.entries.iter()
    }

    /// Iterates over entries in a category.
    pub fn by_category<'a>(
        &'a self,
        category: &'a str,
    ) -> impl Iterator<Item = &'a TraceEvent> + 'a {
        self.entries
            .iter()
            .filter(move |e| e.category.as_str() == category)
    }

    /// Clears all entries and the dropped counter.
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.dropped = 0;
    }

    /// Renders the trace (optionally filtered by category prefix) as text.
    pub fn render(&self, category_prefix: Option<&str>) -> String {
        let mut out = String::new();
        for e in &self.entries {
            if let Some(p) = category_prefix {
                if !e.category.as_str().starts_with(p) {
                    continue;
                }
            }
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut log = TraceLog::new();
        log.record(SimTime::from_nanos(1), "x", "one");
        log.record(SimTime::from_nanos(2), "y", "two");
        let cats: Vec<_> = log.iter().map(|e| e.category.as_str()).collect();
        assert_eq!(cats, vec!["x", "y"]);
    }

    #[test]
    fn category_normalizes_known_strings() {
        assert_eq!(
            TraceCategory::from("secure.enter"),
            TraceCategory::SecureEnter
        );
        assert_eq!(
            TraceCategory::from("golden.rt"),
            TraceCategory::Custom("golden.rt")
        );
        // Equality and Display go through the string name.
        assert_eq!(
            TraceCategory::Custom("secure.enter"),
            TraceCategory::SecureEnter
        );
        assert_eq!(TraceCategory::SecureScan.to_string(), "secure.scan");
        assert_eq!(
            format!("{:<14}", TraceCategory::SecureScan),
            "secure.scan   "
        );
    }

    #[test]
    fn typed_and_string_records_are_interchangeable() {
        let mut log = TraceLog::new();
        log.record(SimTime::from_nanos(1), TraceCategory::SecureEnter, "typed");
        log.record(SimTime::from_nanos(2), "secure.enter", "string");
        assert_eq!(log.by_category("secure.enter").count(), 2);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut log = TraceLog::with_capacity(3);
        for i in 0..5u64 {
            log.record(SimTime::from_nanos(i), "c", i.to_string());
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.iter().next().unwrap().detail, "2");
    }

    #[test]
    fn disabled_records_nothing() {
        let mut log = TraceLog::disabled();
        log.record(SimTime::ZERO, "c", "ignored");
        assert!(log.is_empty());
        assert!(!log.is_enabled());
    }

    #[test]
    fn disabled_then_enabled_keeps_default_capacity() {
        // Regression: `disabled()` used to report `capacity: 1`, so a log
        // re-enabled later silently evicted every record but the last.
        let mut log = TraceLog::disabled();
        log.enabled = true;
        for i in 0..100u64 {
            log.record(SimTime::from_nanos(i), "c", i.to_string());
        }
        assert_eq!(log.len(), 100);
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn toggle_enable() {
        let mut log = TraceLog::new();
        log.enabled = false;
        log.record(SimTime::ZERO, "c", "skipped");
        log.enabled = true;
        log.record(SimTime::ZERO, "c", "kept");
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn category_filter_and_render() {
        let mut log = TraceLog::new();
        log.record(SimTime::from_nanos(1), "secure.enter", "core 0");
        log.record(SimTime::from_nanos(2), "attack.hide", "rootkit");
        log.record(SimTime::from_nanos(3), "secure.exit", "core 0");
        assert_eq!(log.by_category("secure.enter").count(), 1);
        let rendered = log.render(Some("secure."));
        assert!(rendered.contains("secure.enter"));
        assert!(!rendered.contains("attack.hide"));
        assert_eq!(rendered.lines().count(), 2);
    }

    #[test]
    fn clear_resets() {
        let mut log = TraceLog::with_capacity(1);
        log.record(SimTime::ZERO, "a", "1");
        log.record(SimTime::ZERO, "a", "2");
        assert_eq!(log.dropped(), 1);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
    }
}
