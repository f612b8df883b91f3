//! Timeline exporter: Chrome `trace_event` JSON.
//!
//! [`chrome_trace`] renders a [`Timeline`] (optionally merged with a
//! [`TraceLog`]) in the Trace Event Format understood by `chrome://tracing`
//! and [Perfetto](https://ui.perfetto.dev): spans become `ph:"X"` complete
//! events (or `ph:"B"` if still open), instants become `ph:"i"`, and track
//! names become `ph:"M"` thread-name metadata. Timestamps are microseconds
//! with nanosecond precision (`ts` is fractional).
//!
//! The exporter emits records in deterministic order (metadata, then spans
//! by id, then instants, then trace-log entries), so the same simulation
//! always produces byte-identical files.

use crate::span::Timeline;
use satin_sim::TraceLog;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Pseudo-track base for [`TraceLog`] categories merged into a Chrome trace:
/// category prefix group *k* (sorted) renders as `tid` `1000 + k`.
pub(crate) const TRACELOG_TRACK_BASE: u32 = 1000;

/// Escapes a string for embedding inside a JSON string literal (without the
/// surrounding quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Nanoseconds rendered as fractional microseconds, e.g. `1234` → `"1.234"`.
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

/// The category group a [`TraceLog`] entry belongs to: the part of its
/// category name before the first `.` (`"attack.hide"` → `"attack"`).
fn category_group(category: &str) -> &str {
    category.split('.').next().unwrap_or(category)
}

/// Renders a timeline (plus, optionally, a machine [`TraceLog`]) as a Chrome
/// `trace_event` JSON document: `{"traceEvents":[...]}`.
///
/// Spans land on `tid` = their track id (one lane per core); trace-log
/// entries land on pseudo-lanes `tid >= 1000`, one per category prefix
/// (`secure`, `satin`, `attack`, ...), so attack activity reads as its own
/// row under the per-core session trees.
pub fn chrome_trace(timeline: &Timeline, trace: Option<&TraceLog>) -> String {
    let mut events: Vec<String> = Vec::new();

    for (track, name) in timeline.track_names() {
        events.push(format!(
            r#"{{"ph":"M","pid":0,"tid":{},"name":"thread_name","args":{{"name":"{}"}}}}"#,
            track.0,
            json_escape(name)
        ));
    }

    // Pseudo-lanes for trace-log category groups, sorted for determinism.
    let mut group_tids: BTreeMap<&str, u32> = BTreeMap::new();
    if let Some(log) = trace {
        let groups: std::collections::BTreeSet<&str> = log
            .iter()
            .map(|e| category_group(e.category.as_str()))
            .collect();
        for (k, group) in groups.into_iter().enumerate() {
            let tid = TRACELOG_TRACK_BASE + k as u32;
            group_tids.insert(group, tid);
            events.push(format!(
                r#"{{"ph":"M","pid":0,"tid":{tid},"name":"thread_name","args":{{"name":"trace: {}"}}}}"#,
                json_escape(group)
            ));
        }
    }

    for span in timeline.spans() {
        let ts = micros(span.start.as_nanos());
        let args = match span.parent {
            Some(p) => format!(
                r#"{{"detail":"{}","parent":{}}}"#,
                json_escape(&span.detail),
                p.index()
            ),
            None => format!(r#"{{"detail":"{}"}}"#, json_escape(&span.detail)),
        };
        match span.end {
            Some(end) => {
                let dur = micros(end.as_nanos() - span.start.as_nanos());
                events.push(format!(
                    r#"{{"ph":"X","pid":0,"tid":{},"name":"{}","ts":{ts},"dur":{dur},"args":{args}}}"#,
                    span.track.0, span.name
                ));
            }
            None => {
                events.push(format!(
                    r#"{{"ph":"B","pid":0,"tid":{},"name":"{}","ts":{ts},"args":{args}}}"#,
                    span.track.0, span.name
                ));
            }
        }
    }

    for inst in timeline.instants() {
        events.push(format!(
            r#"{{"ph":"i","s":"t","pid":0,"tid":{},"name":"{}","ts":{},"args":{{"detail":"{}"}}}}"#,
            inst.track.0,
            inst.name,
            micros(inst.at.as_nanos()),
            json_escape(&inst.detail)
        ));
    }

    if let Some(log) = trace {
        for e in log.iter() {
            let tid = group_tids[category_group(e.category.as_str())];
            events.push(format!(
                r#"{{"ph":"i","s":"t","pid":0,"tid":{tid},"name":"{}","ts":{},"args":{{"detail":"{}"}}}}"#,
                e.category.as_str(),
                micros(e.time.as_nanos()),
                json_escape(&e.detail)
            ));
        }
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str(e);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::TrackId;
    use satin_sim::SimTime;

    fn sample_timeline() -> Timeline {
        let mut tl = Timeline::new();
        tl.set_track_name(TrackId(0), "core 0");
        let root = tl.start(
            "secure.session",
            TrackId(0),
            SimTime::from_nanos(1_500),
            None,
            "gen=1",
        );
        tl.complete(
            "scan.window",
            TrackId(0),
            SimTime::from_nanos(2_000),
            SimTime::from_nanos(9_000),
            Some(root),
            "area=3",
        );
        tl.end(root, SimTime::from_nanos(10_250));
        tl.instant(
            "publish",
            TrackId(0),
            SimTime::from_nanos(10_250),
            "t=10250",
        );
        tl
    }

    #[test]
    fn escape_specials() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("x\ny\t\u{1}"), "x\\ny\\t\\u0001");
    }

    #[test]
    fn chrome_trace_shape() {
        let tl = sample_timeline();
        let json = chrome_trace(&tl, None);
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.trim_end().ends_with("]}"));
        // Complete span with fractional-µs timestamps and parent link.
        assert!(json.contains(
            r#""ph":"X","pid":0,"tid":0,"name":"secure.session","ts":1.500,"dur":8.750"#
        ));
        assert!(json.contains(
            r#""name":"scan.window","ts":2.000,"dur":7.000,"args":{"detail":"area=3","parent":0}"#
        ));
        assert!(json
            .contains(r#""ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"core 0"}"#));
        assert!(json.contains(r#""ph":"i","s":"t","pid":0,"tid":0,"name":"publish""#));
    }

    #[test]
    fn chrome_trace_merges_tracelog_on_pseudo_tracks() {
        let tl = sample_timeline();
        let mut log = TraceLog::new();
        log.record(SimTime::from_nanos(3_000), "attack.hide", "rootkit rehid");
        log.record(SimTime::from_nanos(4_000), "secure.scan", "window open");
        let json = chrome_trace(&tl, Some(&log));
        // Sorted groups: attack → 1000, secure → 1001.
        assert!(json.contains(r#""tid":1000,"name":"thread_name","args":{"name":"trace: attack"}"#));
        assert!(json.contains(r#""tid":1001,"name":"thread_name","args":{"name":"trace: secure"}"#));
        assert!(json.contains(r#""tid":1000,"name":"attack.hide","ts":3.000"#));
        assert!(json.contains(r#""tid":1001,"name":"secure.scan","ts":4.000"#));
    }

    #[test]
    fn open_spans_export_as_begin() {
        let mut tl = Timeline::new();
        tl.start("hang", TrackId(2), SimTime::from_nanos(77), None, "");
        let json = chrome_trace(&tl, None);
        assert!(json.contains(r#""ph":"B","pid":0,"tid":2,"name":"hang","ts":0.077"#));
    }

    #[test]
    fn exports_are_deterministic() {
        let a = chrome_trace(&sample_timeline(), None);
        let b = chrome_trace(&sample_timeline(), None);
        assert_eq!(a, b);
    }
}
