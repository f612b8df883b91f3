//! The live progress drain: a reader thread for the bounded channel.
//!
//! [`ProgressRenderer::spawn`] starts one OS thread that drains
//! [`LiveEvent`]s as they arrive, maintains running campaign state (cells
//! done/total, failures, retries, per-worker busy time, cell-latency
//! histogram), and — when rendering is on — prints a throttled one-line
//! status to **stderr**. Stdout is sacred: `ci.sh` byte-compares campaign
//! stdout across `--jobs` counts, and everything this module prints is
//! host-dependent by nature.
//!
//! The thread ends when every sender is gone (the campaign observer and
//! all cell logs dropped); [`ProgressRenderer::finish`] then joins it and
//! returns the accumulated [`HostReport`]. This is the only sanctioned
//! thread spawn outside the campaign runner (see the sanctioned-file list
//! in `ci.sh`): it must be a *reader* thread, never a worker — it does no
//! simulation and its scheduling cannot influence any result.

use crate::host::{fmt_host_ns, HostClock, HostReport, WorkerUse};
use crate::stream::LiveEvent;
use crate::ObsEvent;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::thread;

/// Minimum host nanoseconds between rendered status lines.
const RENDER_PERIOD_NS: u64 = 200_000_000;

/// Owns the drain thread for one campaign run (or several back-to-back
/// campaigns sharing an observer).
#[derive(Debug)]
pub struct ProgressRenderer {
    handle: thread::JoinHandle<HostReport>,
}

impl ProgressRenderer {
    /// Starts the drain thread. With `render` false the thread only
    /// accumulates the [`HostReport`] (useful when `--events-out` is given
    /// without `--progress`, and for deterministic tests).
    pub fn spawn(rx: mpsc::Receiver<LiveEvent>, render: bool) -> Self {
        // The one detached thread: a pure reader of the lossy live channel.
        #[allow(clippy::disallowed_methods)]
        let handle = thread::spawn(move || drain(rx, render));
        ProgressRenderer { handle }
    }

    /// Joins the drain thread and returns the host report, stamping in the
    /// sender-side drop count (capture it from the observer *before*
    /// dropping it — dropping is what lets the thread exit).
    pub fn finish(self, live_dropped: u64) -> HostReport {
        let mut report = self.handle.join().expect("progress drain thread panicked");
        report.live_dropped = live_dropped;
        report
    }
}

/// Running drain state, folded over live events in arrival order.
struct DrainState {
    label: String,
    total: usize,
    done: usize,
    failed: usize,
    retries: usize,
    workers: Vec<WorkerUse>,
    /// Host start time of each in-flight cell (removed on finish/salvage).
    inflight: BTreeMap<usize, u64>,
    first_ns: Option<u64>,
    last_ns: u64,
    report: HostReport,
}

impl DrainState {
    fn new() -> Self {
        DrainState {
            label: String::new(),
            total: 0,
            done: 0,
            failed: 0,
            retries: 0,
            workers: Vec::new(),
            inflight: BTreeMap::new(),
            first_ns: None,
            last_ns: 0,
            report: HostReport::default(),
        }
    }

    fn worker_mut(&mut self, w: usize) -> &mut WorkerUse {
        if self.workers.len() <= w {
            self.workers.resize(w + 1, WorkerUse::default());
        }
        &mut self.workers[w]
    }

    fn fold(&mut self, ev: &LiveEvent) {
        self.first_ns.get_or_insert(ev.host_ns);
        self.last_ns = self.last_ns.max(ev.host_ns);
        match &ev.event {
            ObsEvent::CampaignStarted { label, cells } => {
                // Back-to-back campaigns on one observer accumulate.
                self.label = label.clone();
                self.total += cells;
            }
            ObsEvent::CellStarted { cell, .. } => {
                self.inflight.insert(*cell, ev.host_ns);
            }
            ObsEvent::CellRetried { .. } => {
                self.retries += 1;
            }
            ObsEvent::CellFinished { cell, .. } | ObsEvent::CellSalvaged { cell, .. } => {
                if matches!(ev.event, ObsEvent::CellSalvaged { .. }) {
                    self.failed += 1;
                }
                self.done += 1;
                if let Some(began) = self.inflight.remove(cell) {
                    let latency = ev.host_ns.saturating_sub(began);
                    self.report.cell_latency.record_nanos(latency);
                    if let Some(w) = ev.worker {
                        let u = self.worker_mut(w);
                        u.cells += 1;
                        u.busy_ns += latency;
                    }
                }
            }
            ObsEvent::WorkerAssigned { .. }
            | ObsEvent::CellAttempt { .. }
            | ObsEvent::FaultArmed { .. }
            | ObsEvent::CampaignFinished { .. }
            | ObsEvent::JobAccepted { .. }
            | ObsEvent::JobCacheHit { .. }
            | ObsEvent::JobFinished { .. } => {}
        }
    }

    /// Host nanoseconds between the first and last folded event, or `None`
    /// when no event has arrived yet — a missing first timestamp must read
    /// as "unknown", not as host-boot epoch 0 (which would turn `last_ns`
    /// into an absurd elapsed/ETA).
    fn elapsed_ns(&self) -> Option<u64> {
        self.first_ns
            .map(|first| self.last_ns.saturating_sub(first))
    }

    /// One status line, e.g.
    /// `[faults/smoke] 2/3 cells · 1 failed · 2 retries · 4.1 cells/s · ETA 245.0ms`.
    fn status_line(&self) -> String {
        let mut line = format!(
            "[{}] {}/{} cells · {} failed · {} retries",
            self.label, self.done, self.total, self.failed, self.retries
        );
        let Some(elapsed) = self.elapsed_ns() else {
            line.push_str(" · --:--");
            return line;
        };
        if self.done > 0 && elapsed > 0 {
            let rate = self.done as f64 / (elapsed as f64 / 1e9);
            line.push_str(&format!(" · {rate:.1} cells/s"));
            let remaining = self.total.saturating_sub(self.done);
            if remaining > 0 && rate > 0.0 {
                let eta_ns = (remaining as f64 / rate * 1e9) as u64;
                line.push_str(&format!(" · ETA {}", fmt_host_ns(eta_ns)));
            }
        }
        line
    }

    fn into_report(mut self) -> HostReport {
        self.report.wall_ns = self.elapsed_ns().unwrap_or(0);
        self.report.cells = self.done;
        self.report.failed = self.failed;
        self.report.retries = self.retries;
        self.report.workers = self.workers;
        self.report
    }
}

fn drain(rx: mpsc::Receiver<LiveEvent>, render: bool) -> HostReport {
    let clock = HostClock::start();
    let mut state = DrainState::new();
    let mut last_render = 0u64;
    for ev in rx.iter() {
        state.fold(&ev);
        if render {
            let campaign_edge = matches!(
                ev.event,
                ObsEvent::CampaignStarted { .. } | ObsEvent::CampaignFinished { .. }
            );
            let now = clock.now_ns();
            if campaign_edge || now.saturating_sub(last_render) >= RENDER_PERIOD_NS {
                last_render = now;
                eprintln!("{}", state.status_line());
            }
        }
    }
    state.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::LiveSink;

    fn live(host_ns: u64, worker: Option<usize>, event: ObsEvent) -> LiveEvent {
        LiveEvent {
            host_ns,
            worker,
            event,
        }
    }

    #[test]
    fn drain_accumulates_host_report() {
        let (sink, rx) = LiveSink::bounded(64);
        let renderer = ProgressRenderer::spawn(rx, false);
        sink.send(live(
            0,
            None,
            ObsEvent::CampaignStarted {
                label: "t".into(),
                cells: 2,
            },
        ));
        for (cell, seed, worker, t0, t1) in [(0usize, 7u64, 0usize, 10, 110), (1, 42, 1, 20, 70)] {
            sink.send(live(
                t0,
                Some(worker),
                ObsEvent::CellStarted {
                    cell,
                    seed,
                    label: format!("s{seed}"),
                },
            ));
            sink.send(live(
                t1,
                Some(worker),
                ObsEvent::CellFinished {
                    cell,
                    seed,
                    attempts: 1,
                },
            ));
        }
        sink.send(live(
            120,
            None,
            ObsEvent::CampaignFinished {
                cells: 2,
                ok: 2,
                failed: 0,
                retries: 0,
            },
        ));
        drop(sink);
        let report = renderer.finish(3);
        assert_eq!(report.cells, 2);
        assert_eq!(report.failed, 0);
        assert_eq!(report.wall_ns, 120);
        assert_eq!(report.live_dropped, 3);
        assert_eq!(report.workers.len(), 2);
        assert_eq!(report.workers[0].busy_ns, 100);
        assert_eq!(report.workers[1].busy_ns, 50);
        assert_eq!(report.cell_latency.count(), 2);
    }

    #[test]
    fn salvage_and_retry_counting() {
        let (sink, rx) = LiveSink::bounded(64);
        let renderer = ProgressRenderer::spawn(rx, false);
        sink.send(live(
            0,
            None,
            ObsEvent::CampaignStarted {
                label: "f".into(),
                cells: 1,
            },
        ));
        sink.send(live(
            1,
            Some(0),
            ObsEvent::CellStarted {
                cell: 0,
                seed: 42,
                label: "s42".into(),
            },
        ));
        sink.send(live(
            2,
            Some(0),
            ObsEvent::CellRetried {
                cell: 0,
                seed: 42,
                attempt: 1,
                error: "boom".into(),
            },
        ));
        sink.send(live(
            9,
            Some(0),
            ObsEvent::CellSalvaged {
                cell: 0,
                seed: 42,
                attempts: 2,
                error: "boom".into(),
            },
        ));
        drop(sink);
        let report = renderer.finish(0);
        assert_eq!(report.cells, 1);
        assert_eq!(report.failed, 1);
        assert_eq!(report.retries, 1);
        assert_eq!(report.workers[0].cells, 1);
        assert_eq!(report.workers[0].busy_ns, 8);
    }

    #[test]
    fn no_first_event_renders_unknown_and_zero_wall() {
        // A drain that never saw an event (or lost its first timestamp) must
        // not treat host-epoch 0 as the start: the old
        // `first_ns.unwrap_or(0)` fallback turned `last_ns` into a bogus
        // elapsed, rate, and ETA.
        let mut s = DrainState::new();
        s.total = 4;
        s.last_ns = 5_000_000_000;
        assert_eq!(s.first_ns, None);
        let line = s.status_line();
        assert!(line.ends_with("· --:--"), "line: {line}");
        assert!(!line.contains("cells/s"), "line: {line}");
        assert!(!line.contains("ETA"), "line: {line}");
        let report = s.into_report();
        assert_eq!(report.wall_ns, 0);
    }

    #[test]
    fn status_line_shape() {
        let mut s = DrainState::new();
        s.fold(&live(
            0,
            None,
            ObsEvent::CampaignStarted {
                label: "grid".into(),
                cells: 4,
            },
        ));
        s.fold(&live(
            0,
            Some(0),
            ObsEvent::CellStarted {
                cell: 0,
                seed: 7,
                label: "s7".into(),
            },
        ));
        s.fold(&live(
            1_000_000_000,
            Some(0),
            ObsEvent::CellFinished {
                cell: 0,
                seed: 7,
                attempts: 1,
            },
        ));
        let line = s.status_line();
        assert!(line.starts_with("[grid] 1/4 cells"), "line: {line}");
        assert!(line.contains("1.0 cells/s"), "line: {line}");
        assert!(line.contains("ETA 3.00s"), "line: {line}");
    }
}
