//! Canonical event assembly and the lossy live channel.
//!
//! Two paths carry every [`ObsEvent`] out of a campaign, with opposite
//! guarantees:
//!
//! 1. **Canonical** — each cell buffers its own events deterministically in
//!    a [`CellEvents`] log; the runner returns the logs *in input order*
//!    with the results, and [`EventStream`] concatenates
//!    `campaign.started` + cell logs + `campaign.finished` and assigns
//!    gapless sequence numbers at serialization. Nothing on this path
//!    depends on scheduling, so the JSONL is byte-identical for any
//!    `--jobs` count. Completeness guaranteed, liveness not (the log is
//!    only visible when the cell returns).
//! 2. **Live** — the same events, wrapped in a host-domain [`LiveEvent`]
//!    (worker id + host timestamp), are `try_send`-pushed onto a bounded
//!    channel for the progress renderer. Liveness guaranteed (a send never
//!    blocks a worker), completeness not: when the channel is full the
//!    event is counted as dropped and the renderer just misses one frame.
//!
//! The canonical stream must therefore never be reconstructed from the
//! live channel, and the live channel must never be awaited by a worker.

use crate::event::ObsEvent;
use crate::host::HostClock;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

/// A host-domain wrapper around one event for the live channel: *which*
/// worker saw it and *when* on the host clock. Never serialized into the
/// canonical stream (two-clocks rule, DESIGN.md §14).
#[derive(Debug, Clone)]
pub struct LiveEvent {
    /// Host nanoseconds since the campaign observer's epoch.
    pub host_ns: u64,
    /// The OS worker that emitted the event; `None` for campaign-scoped
    /// events emitted outside any worker.
    pub worker: Option<usize>,
    /// The sim-domain event itself.
    pub event: ObsEvent,
}

/// The sending half of the bounded live channel. Cloned into every worker;
/// a full channel drops the event (counted) rather than blocking.
#[derive(Debug, Clone)]
pub(crate) struct LiveSink {
    tx: mpsc::SyncSender<LiveEvent>,
    dropped: Arc<AtomicU64>,
}

impl LiveSink {
    /// A bounded live channel with room for `capacity` in-flight events.
    pub(crate) fn bounded(capacity: usize) -> (LiveSink, mpsc::Receiver<LiveEvent>) {
        let (tx, rx) = mpsc::sync_channel(capacity.max(1));
        (
            LiveSink {
                tx,
                dropped: Arc::new(AtomicU64::new(0)),
            },
            rx,
        )
    }

    /// Non-blocking send; a full or disconnected channel counts a drop.
    pub(crate) fn send(&self, ev: LiveEvent) {
        if self.tx.try_send(ev).is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Events dropped so far (progress-only loss; the canonical stream is
    /// unaffected).
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Shared campaign observer handed (by reference) to every worker.
///
/// Holds the campaign label, the host clock epoch, and — optionally — the
/// live sink. All methods take `&self`; the per-cell mutable state lives in
/// the [`CellEvents`] values it mints.
#[derive(Debug)]
pub struct CampaignObs {
    label: String,
    clock: HostClock,
    live: Option<LiveSink>,
}

impl CampaignObs {
    /// An observer with no live channel: canonical stream only.
    pub fn new(label: &str) -> Self {
        CampaignObs {
            label: label.to_string(),
            clock: HostClock::start(),
            live: None,
        }
    }

    /// An observer that also feeds a bounded live channel; hand the
    /// receiver to [`crate::ProgressRenderer`].
    pub fn with_live(label: &str, capacity: usize) -> (Self, mpsc::Receiver<LiveEvent>) {
        let (sink, rx) = LiveSink::bounded(capacity);
        (
            CampaignObs {
                label: label.to_string(),
                clock: HostClock::start(),
                live: Some(sink),
            },
            rx,
        )
    }

    /// The campaign label events are tagged with.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Pushes a campaign-scoped event onto the live channel (no-op without
    /// one). The canonical copy is the caller's to place in its stream.
    pub fn live_send(&self, worker: Option<usize>, event: &ObsEvent) {
        if let Some(sink) = &self.live {
            sink.send(LiveEvent {
                host_ns: self.clock.now_ns(),
                worker,
                event: event.clone(),
            });
        }
    }

    /// Live events dropped so far (0 without a live channel).
    pub fn live_dropped(&self) -> u64 {
        self.live.as_ref().map_or(0, LiveSink::dropped)
    }

    /// Begins a cell log on worker `worker`, emitting `worker.assigned`.
    pub fn begin_cell(&self, worker: usize, cell: usize, seed: u64) -> CellEvents {
        let mut log = CellEvents {
            cell,
            worker,
            events: Vec::new(),
            live: self.live.clone(),
            clock: self.clock,
        };
        log.emit(ObsEvent::WorkerAssigned { cell, seed });
        log
    }
}

/// One cell's deterministic event log, built inside the worker that ran it.
///
/// Everything pushed here is a pure function of `(cell, seed, attempt)`;
/// the worker id and clock are used **only** to decorate the live copies.
#[derive(Debug)]
pub struct CellEvents {
    cell: usize,
    worker: usize,
    events: Vec<ObsEvent>,
    live: Option<LiveSink>,
    clock: HostClock,
}

impl CellEvents {
    /// The cell index this log belongs to.
    pub fn cell(&self) -> usize {
        self.cell
    }

    /// Appends `event` to the canonical log and mirrors it onto the live
    /// channel.
    pub fn emit(&mut self, event: ObsEvent) {
        if let Some(sink) = &self.live {
            sink.send(LiveEvent {
                host_ns: self.clock.now_ns(),
                worker: Some(self.worker),
                event: event.clone(),
            });
        }
        self.events.push(event);
    }

    /// Consumes the log, yielding the canonical events in emission order.
    pub fn into_events(self) -> Vec<ObsEvent> {
        self.events
    }
}

/// The merged canonical stream of one or more campaigns.
///
/// Events are appended in canonical order (campaign start, cell logs in
/// input order, campaign finish — possibly repeated for multi-campaign
/// runs); sequence numbers exist only at serialization time, assigned
/// `0..n` over the whole stream so they are gapless and strictly
/// increasing by construction.
#[derive(Debug, Default)]
pub struct EventStream {
    events: Vec<ObsEvent>,
}

impl EventStream {
    /// An empty stream.
    pub fn new() -> Self {
        EventStream::default()
    }

    /// Appends one event.
    pub fn push(&mut self, event: ObsEvent) {
        self.events.push(event);
    }

    /// Appends a batch of cell logs **in the order given** — callers must
    /// pass them in campaign input order to keep the stream jobs-invariant.
    pub fn extend_cells(&mut self, logs: Vec<Vec<ObsEvent>>) {
        for log in logs {
            self.events.extend(log);
        }
    }

    /// The events, in stream order.
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the stream as JSONL (one event per line, trailing
    /// newline), assigning gapless sequence numbers `0..n`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96);
        for (seq, e) in self.events.iter().enumerate() {
            let _ = writeln!(out, "{}", e.jsonl_line(seq as u64));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use proptest::prelude::*;

    /// Uniform draw over every event kind, with quote/newline-bearing
    /// labels to stress the escaper.
    struct ArbEvent;

    impl Strategy for ArbEvent {
        type Value = ObsEvent;
        fn sample(&self, rng: &mut TestRng) -> ObsEvent {
            let cell = rng.below(100) as usize;
            let seed = rng.next_u64();
            let attempt = rng.below(9) as u32 + 1;
            let label = format!("s{}\"\n{}", seed % 10, cell);
            match rng.below(9) {
                0 => ObsEvent::CampaignStarted { label, cells: cell },
                1 => ObsEvent::WorkerAssigned { cell, seed },
                2 => ObsEvent::CellStarted { cell, seed, label },
                3 => ObsEvent::CellAttempt {
                    cell,
                    seed,
                    attempt,
                },
                4 => ObsEvent::FaultArmed {
                    cell,
                    seed,
                    fault: "fault.abort".into(),
                },
                5 => ObsEvent::CellRetried {
                    cell,
                    seed,
                    attempt,
                    error: label,
                },
                6 => ObsEvent::CellSalvaged {
                    cell,
                    seed,
                    attempts: attempt,
                    error: label,
                },
                7 => ObsEvent::CellFinished {
                    cell,
                    seed,
                    attempts: attempt,
                },
                _ => ObsEvent::CampaignFinished {
                    cells: cell,
                    ok: cell / 2,
                    failed: cell - cell / 2,
                    retries: attempt as usize,
                },
            }
        }
    }

    proptest! {
        /// Serialized sequence numbers are gapless and strictly increasing
        /// from 0 for ANY event mix — the truncation-detection guarantee
        /// `--events-out` consumers rely on.
        #[test]
        fn prop_seq_gapless_strictly_increasing(
            events in collection::vec(ArbEvent, 0..64)
        ) {
            let mut s = EventStream::new();
            for e in events {
                s.push(e);
            }
            let jsonl = s.to_jsonl();
            let mut expected = 0u64;
            let mut prev: Option<u64> = None;
            for line in jsonl.lines() {
                let doc = Json::parse(line).expect("every line is a JSON object");
                let seq = doc.get("seq").and_then(Json::as_u64).expect("seq field");
                prop_assert_eq!(seq, expected, "gapless from zero");
                if let Some(p) = prev {
                    prop_assert!(seq > p, "strictly increasing");
                }
                prop_assert_eq!(
                    doc.get("v").and_then(Json::as_u64),
                    Some(u64::from(crate::EVENT_SCHEMA_VERSION))
                );
                prev = Some(seq);
                expected += 1;
            }
            prop_assert_eq!(expected as usize, s.len());
        }
    }

    #[test]
    fn canonical_log_ignores_live_channel_loss() {
        let (obs, rx) = CampaignObs::with_live("t", 1);
        let mut log = obs.begin_cell(0, 0, 7);
        for a in 1..=5 {
            log.emit(ObsEvent::CellAttempt {
                cell: 0,
                seed: 7,
                attempt: a,
            });
        }
        // Capacity-1 channel with no reader: everything past the first
        // event was dropped live, but the canonical log is complete.
        assert!(obs.live_dropped() >= 4);
        assert_eq!(log.into_events().len(), 6); // assigned + 5 attempts
        drop(rx);
        // After the receiver is gone, sends count as drops, not panics.
        obs.live_send(
            None,
            &ObsEvent::CampaignFinished {
                cells: 1,
                ok: 1,
                failed: 0,
                retries: 0,
            },
        );
    }

    #[test]
    fn live_events_carry_worker_and_host_time() {
        let (obs, rx) = CampaignObs::with_live("t", 16);
        let mut log = obs.begin_cell(3, 1, 42);
        log.emit(ObsEvent::CellFinished {
            cell: 1,
            seed: 42,
            attempts: 1,
        });
        drop(log);
        drop(obs);
        let got: Vec<LiveEvent> = rx.iter().collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].worker, Some(3));
        assert_eq!(got[0].event.name(), "worker.assigned");
        assert_eq!(got[1].event.name(), "cell.finished");
        assert!(got[1].host_ns >= got[0].host_ns);
    }

    #[test]
    fn stream_seq_is_gapless_from_zero() {
        let mut s = EventStream::new();
        s.push(ObsEvent::CampaignStarted {
            label: "t".into(),
            cells: 2,
        });
        s.extend_cells(vec![
            vec![ObsEvent::WorkerAssigned { cell: 0, seed: 7 }],
            vec![ObsEvent::WorkerAssigned { cell: 1, seed: 9 }],
        ]);
        s.push(ObsEvent::CampaignFinished {
            cells: 2,
            ok: 2,
            failed: 0,
            retries: 0,
        });
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        let jsonl = s.to_jsonl();
        for (i, line) in jsonl.lines().enumerate() {
            assert!(line.contains(&format!("\"seq\":{i},")));
        }
        assert!(jsonl.ends_with('\n'));
    }

    #[test]
    fn observer_without_live_channel_is_silent() {
        let obs = CampaignObs::new("plain");
        assert_eq!(obs.label(), "plain");
        assert_eq!(obs.live_dropped(), 0);
        let mut log = obs.begin_cell(0, 0, 1);
        log.emit(ObsEvent::CellFinished {
            cell: 0,
            seed: 1,
            attempts: 1,
        });
        assert_eq!(log.cell(), 0);
        assert_eq!(log.into_events().len(), 2);
    }
}
