//! Host-domain timing: the harness profiling itself with a real clock.
//!
//! Everything in this module measures the *harness* — how long this machine
//! took to assemble, simulate, analyze, and export — never the simulation.
//! Sim-time lives in `satin_sim::SimTime` and the telemetry timelines; the
//! two must never mix (the two-clocks rule, DESIGN.md §14), which is why
//! this module's types carry `host`/`wall` in their field names and why the
//! only `Instant::now` call in the workspace's non-stub library code is the
//! one in [`HostClock::start`], allowed past `clippy.toml` by name.
//!
//! All output from these types goes to **stderr** in the `repro` binary:
//! stdout carries campaign results that `ci.sh` byte-compares across
//! `--jobs` counts, and host timings are different on every run.

use satin_telemetry::DurationHistogram;
use std::fmt::Write as _;
use std::time::Instant;

/// A monotonic host clock anchored at an epoch, cheap to copy into workers.
///
/// This is the sanctioned doorway to wall-clock time for observability
/// code: everything downstream works with `u64` nanoseconds since the
/// epoch, so the `Instant` never leaks into data structures.
#[derive(Debug, Clone, Copy)]
pub struct HostClock {
    epoch: Instant,
}

impl HostClock {
    /// Starts a clock at "now".
    pub fn start() -> Self {
        // The wall-clock doorway: harness self-profiling, never simulation
        // input.
        #[allow(clippy::disallowed_methods)]
        let epoch = Instant::now();
        HostClock { epoch }
    }

    /// Nanoseconds elapsed since the epoch (saturating at `u64::MAX`).
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Formats host nanoseconds for humans: `850ns`, `3.2µs`, `14.7ms`, `2.31s`.
pub fn fmt_host_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

/// Wall-clock phase timer for the `repro` pipeline
/// (assemble → simulate → analyze → export).
///
/// Phases are sequential: starting one ends the previous. The timer never
/// observes sim-time; it exists so a slow run can be blamed on the right
/// stage of the harness.
#[derive(Debug)]
pub struct PhaseTimer {
    clock: HostClock,
    done: Vec<(&'static str, u64)>,
    current: Option<(&'static str, u64)>,
}

impl PhaseTimer {
    /// Starts the timer (no phase active yet).
    pub fn start() -> Self {
        PhaseTimer {
            clock: HostClock::start(),
            done: Vec::new(),
            current: None,
        }
    }

    /// Ends the current phase (if any) and begins `name`.
    pub fn phase(&mut self, name: &'static str) {
        let now = self.clock.now_ns();
        self.close_current(now);
        self.current = Some((name, now));
    }

    /// Ends the current phase without starting a new one.
    pub fn stop(&mut self) {
        let now = self.clock.now_ns();
        self.close_current(now);
    }

    fn close_current(&mut self, now: u64) {
        if let Some((name, began)) = self.current.take() {
            self.done.push((name, now.saturating_sub(began)));
        }
    }

    /// Total host nanoseconds across completed phases.
    pub(crate) fn total_ns(&self) -> u64 {
        self.done.iter().map(|(_, ns)| ns).sum()
    }

    /// One-line summary, e.g.
    /// `host-phases: assemble 1.2ms · simulate 2.31s · export 14.7ms (total 2.33s)`.
    pub fn render(&self) -> String {
        let mut out = String::from("host-phases:");
        if self.done.is_empty() {
            out.push_str(" (none)");
            return out;
        }
        for (i, (name, ns)) in self.done.iter().enumerate() {
            if i > 0 {
                out.push_str(" ·");
            }
            let _ = write!(out, " {name} {}", fmt_host_ns(*ns));
        }
        let _ = write!(out, " (total {})", fmt_host_ns(self.total_ns()));
        out
    }
}

/// One worker thread's share of a campaign, in host terms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct WorkerUse {
    /// Cells this worker completed.
    pub cells: usize,
    /// Host nanoseconds the worker spent inside cells.
    pub busy_ns: u64,
}

/// Host-side summary of a campaign run: wall time, per-worker utilization,
/// and the cell-latency distribution (reusing the telemetry layer's
/// order-independent [`DurationHistogram`], here fed host nanoseconds).
///
/// Built by the live drain thread from [`crate::LiveEvent`]s; because the
/// live channel is lossy by design, `live_dropped` reports how many events
/// never made it — the *canonical* stream is unaffected either way.
#[derive(Debug, Clone, Default)]
pub struct HostReport {
    /// Wall-clock span of the campaign, first live event to last.
    pub wall_ns: u64,
    /// Cells observed finishing (ok + salvaged).
    pub cells: usize,
    /// Cells salvaged as failed.
    pub failed: usize,
    /// Retry events observed.
    pub retries: usize,
    /// Per-worker usage, indexed by worker id.
    pub(crate) workers: Vec<WorkerUse>,
    /// Host-time latency distribution across cells.
    pub cell_latency: DurationHistogram,
    /// Live events dropped by the bounded channel (progress-only loss).
    pub live_dropped: u64,
}

impl HostReport {
    /// Worker `w`'s busy fraction of the campaign wall time (0.0 when the
    /// wall span is empty).
    pub(crate) fn utilization(&self, w: usize) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.workers
            .get(w)
            .map_or(0.0, |u| u.busy_ns as f64 / self.wall_ns as f64)
    }

    /// Multi-line human summary for stderr.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "host-profile: {} cells in {} ({} failed, {} retries, {} live events dropped)",
            self.cells,
            fmt_host_ns(self.wall_ns),
            self.failed,
            self.retries,
            self.live_dropped
        );
        for (w, u) in self.workers.iter().enumerate() {
            let _ = writeln!(
                out,
                "  worker {w}: {} cells, busy {} ({:.0}% of wall)",
                u.cells,
                fmt_host_ns(u.busy_ns),
                self.utilization(w) * 100.0
            );
        }
        if !self.cell_latency.is_empty() {
            let _ = writeln!(out, "  cell latency (host): {}", self.cell_latency);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let c = HostClock::start();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn phases_accumulate_in_order() {
        let mut t = PhaseTimer::start();
        t.phase("assemble");
        t.phase("simulate");
        t.stop();
        t.stop(); // idempotent
        let names: Vec<_> = t.done.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["assemble", "simulate"]);
        assert_eq!(t.total_ns(), t.done.iter().map(|(_, ns)| ns).sum());
        let line = t.render();
        assert!(line.starts_with("host-phases: assemble "));
        assert!(line.contains("· simulate "));
        assert!(line.contains("(total "));
    }

    #[test]
    fn empty_timer_renders() {
        assert_eq!(PhaseTimer::start().render(), "host-phases: (none)");
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_host_ns(850), "850ns");
        assert_eq!(fmt_host_ns(3_200), "3.2µs");
        assert_eq!(fmt_host_ns(14_700_000), "14.7ms");
        assert_eq!(fmt_host_ns(2_310_000_000), "2.31s");
    }

    #[test]
    fn utilization_and_render() {
        let mut r = HostReport {
            wall_ns: 1_000,
            cells: 3,
            failed: 1,
            retries: 2,
            workers: vec![
                WorkerUse {
                    cells: 2,
                    busy_ns: 500,
                },
                WorkerUse {
                    cells: 1,
                    busy_ns: 250,
                },
            ],
            ..HostReport::default()
        };
        r.cell_latency.record_nanos(100);
        assert!((r.utilization(0) - 0.5).abs() < 1e-12);
        assert!((r.utilization(1) - 0.25).abs() < 1e-12);
        assert_eq!(r.utilization(9), 0.0);
        let text = r.render();
        assert!(text.contains("host-profile: 3 cells"));
        assert!(text.contains("worker 0: 2 cells"));
        assert!(text.contains("cell latency (host):"));
        assert_eq!(HostReport::default().utilization(0), 0.0);
    }
}
