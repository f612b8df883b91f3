//! Parallel campaign fan-out.
//!
//! Every experiment in this crate is a pure function of its seed: a campaign
//! builds its own [`satin_system::System`], runs it, and returns owned
//! results. That makes fanning a batch of campaigns across OS threads
//! trivially safe — no shared simulation state exists. [`CampaignRunner`]
//! does exactly that, with one hard guarantee: **results come back in input
//! order, independent of worker count or scheduling**, so aggregates
//! computed over them are identical for `--jobs 1` and `--jobs N`.

use satin_obs::{CampaignObs, CellEvents, EventStream, ObsEvent};
use satin_scenario::FaultPlan;
use satin_system::System;
use satin_telemetry::DurationHistogram;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Fans independent campaigns across `std::thread` workers.
#[derive(Debug, Clone, Copy)]
pub struct CampaignRunner {
    jobs: usize,
}

impl CampaignRunner {
    /// A runner with `jobs` workers; `0` means one worker per available
    /// hardware thread.
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            jobs
        };
        CampaignRunner { jobs }
    }

    /// A single-worker runner (runs everything on the calling thread).
    pub fn serial() -> Self {
        CampaignRunner { jobs: 1 }
    }

    /// The resolved worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Applies `f` to every item and returns the results **in input order**.
    ///
    /// `f` receives `(worker index, item index, item)`. Workers pull items
    /// off a shared atomic index (so a slow campaign doesn't starve the
    /// rest of a pre-chunked stripe) and tag each result with its index;
    /// the tags restore input order at the end. With one worker — or one
    /// item — everything runs on the calling thread. The worker index is a
    /// scheduling accident: callers must only feed it to host-domain
    /// observability (live events, utilization), never into anything that
    /// shapes a result, or the jobs-invariance guarantee breaks.
    pub(crate) fn run<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, usize, &I) -> T + Sync,
    {
        if self.jobs <= 1 || items.len() <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| f(0, i, item))
                .collect();
        }
        let next = AtomicUsize::new(0);
        let workers = self.jobs.min(items.len());
        // The single sanctioned fan-out point: scoped workers, and results
        // sorted back into input order, keep aggregation seed-pure.
        #[allow(clippy::disallowed_methods)]
        let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
            let next = &next;
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let f = &f;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            out.push((i, f(w, i, &items[i])));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("campaign worker panicked"))
                .collect()
        });
        tagged.sort_by_key(|(i, _)| *i);
        tagged.into_iter().map(|(_, t)| t).collect()
    }

    /// Runs one fallible campaign per seed, each attempted up to
    /// `policy.max_attempts` times (with a bounded wall-clock backoff
    /// between attempts); a seed whose every attempt fails yields a
    /// structured [`SeedOutcome::Failed`] row instead of aborting the
    /// batch. `f` receives the 1-based attempt number so a fault injector
    /// with an attempt budget can stand down on retries. Result order —
    /// and, because injected faults are pure functions of (seed, attempt),
    /// result *content* — is identical for any worker count.
    ///
    /// Each cell logs its lifecycle (worker-assigned, started, per-attempt,
    /// retried, salvaged, finished) into a deterministic [`CellEvents`]
    /// buffer that `f` can extend (e.g. with `cell.fault_armed`), and the
    /// merged [`EventStream`] comes back alongside the outcomes.
    ///
    /// `label` names each cell (`scenario.cell_label(seed)` for grid
    /// identity). The stream is assembled from the *returned* cell logs in
    /// input order — never from live-channel arrival — so its JSONL form
    /// is byte-identical for any worker count.
    pub(crate) fn run_seeds_with_retry_observed<T, E, F, L>(
        &self,
        seeds: &[u64],
        policy: RetryPolicy,
        obs: &CampaignObs,
        label: L,
        f: F,
    ) -> (Vec<SeedOutcome<T>>, EventStream)
    where
        T: Send,
        E: fmt::Display,
        F: Fn(u64, u32, &mut CellEvents) -> Result<T, E> + Sync,
        L: Fn(u64) -> String + Sync,
    {
        let started = ObsEvent::CampaignStarted {
            label: obs.label().to_string(),
            cells: seeds.len(),
        };
        obs.live_send(None, &started);
        let max = policy.max_attempts.max(1);
        let cells = self.run(seeds, |worker, cell, &seed| {
            let mut log = obs.begin_cell(worker, cell, seed);
            log.emit(ObsEvent::CellStarted {
                cell,
                seed,
                label: label(seed),
            });
            let mut attempt = 1u32;
            let outcome = loop {
                log.emit(ObsEvent::CellAttempt {
                    cell,
                    seed,
                    attempt,
                });
                match f(seed, attempt, &mut log) {
                    Ok(value) => {
                        log.emit(ObsEvent::CellFinished {
                            cell,
                            seed,
                            attempts: attempt,
                        });
                        break SeedOutcome::Ok {
                            seed,
                            attempts: attempt,
                            value,
                        };
                    }
                    Err(e) if attempt >= max => {
                        let error = e.to_string();
                        log.emit(ObsEvent::CellSalvaged {
                            cell,
                            seed,
                            attempts: attempt,
                            error: error.clone(),
                        });
                        break SeedOutcome::Failed {
                            seed,
                            attempts: attempt,
                            error,
                        };
                    }
                    Err(e) => {
                        log.emit(ObsEvent::CellRetried {
                            cell,
                            seed,
                            attempt,
                            error: e.to_string(),
                        });
                        let pause = policy.pause_after(attempt);
                        if !pause.is_zero() {
                            std::thread::sleep(pause);
                        }
                        attempt += 1;
                    }
                }
            };
            (outcome, log.into_events())
        });

        let mut stream = EventStream::new();
        stream.push(started);
        let mut outcomes = Vec::with_capacity(cells.len());
        let (mut ok, mut failed, mut retries) = (0usize, 0usize, 0usize);
        for (outcome, events) in cells {
            retries += events
                .iter()
                .filter(|e| matches!(e, ObsEvent::CellRetried { .. }))
                .count();
            if outcome.is_failed() {
                failed += 1;
            } else {
                ok += 1;
            }
            stream.extend_cells(vec![events]);
            outcomes.push(outcome);
        }
        let finished = ObsEvent::CampaignFinished {
            cells: outcomes.len(),
            ok,
            failed,
            retries,
        };
        obs.live_send(None, &finished);
        stream.push(finished);
        (outcomes, stream)
    }
}

/// Bounded retry for fallible (typically fault-injected) campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per seed (at least 1).
    pub max_attempts: u32,
    /// Base wall-clock pause between attempts (grows linearly with the
    /// attempt number, capped at 1 s per pause).
    pub backoff: Duration,
}

impl RetryPolicy {
    /// The retry policy a fault plan asks for (`max-attempts` /
    /// `backoff-ms` keys of the `[faults]` section). The empty plan asks
    /// for one attempt and no backoff: failures surface immediately.
    pub(crate) fn from_plan(plan: &FaultPlan) -> Self {
        RetryPolicy {
            max_attempts: plan.max_attempts.max(1),
            backoff: Duration::from_millis(plan.backoff_ms),
        }
    }

    /// The wall-clock pause after failed attempt `attempt` (1-based):
    /// `backoff × attempt`, saturating on overflow, and never more than
    /// [`MAX_RETRY_PAUSE`]. The retry loop pauses by this alone, so the
    /// documented 1 s per-pause cap holds for any `backoff_ms × attempt`
    /// and a retry storm cannot hang a batch.
    pub(crate) fn pause_after(&self, attempt: u32) -> Duration {
        self.backoff.saturating_mul(attempt).min(MAX_RETRY_PAUSE)
    }
}

/// Hard per-pause ceiling for [`RetryPolicy::pause_after`]: backoff grows
/// linearly with the attempt number but each individual sleep is capped
/// at 1 s.
pub(crate) const MAX_RETRY_PAUSE: Duration = Duration::from_secs(1);

/// One seed's campaign outcome under
/// `CampaignRunner::run_seeds_with_retry_observed`.
#[derive(Debug, Clone, PartialEq)]
pub enum SeedOutcome<T> {
    /// The campaign completed, possibly after retries.
    Ok {
        /// The campaign seed.
        seed: u64,
        /// Attempts used (1 = first try).
        attempts: u32,
        /// The campaign's result.
        value: T,
    },
    /// Every attempt failed; the batch carries the row instead of aborting.
    Failed {
        /// The campaign seed.
        seed: u64,
        /// Attempts used (= the policy's `max_attempts`).
        attempts: u32,
        /// The last attempt's error, rendered.
        error: String,
    },
}

impl<T> SeedOutcome<T> {
    /// The campaign seed.
    pub fn seed(&self) -> u64 {
        match self {
            SeedOutcome::Ok { seed, .. } | SeedOutcome::Failed { seed, .. } => *seed,
        }
    }

    /// Attempts used.
    pub fn attempts(&self) -> u32 {
        match self {
            SeedOutcome::Ok { attempts, .. } | SeedOutcome::Failed { attempts, .. } => *attempts,
        }
    }

    /// The result, if the campaign completed.
    pub fn value(&self) -> Option<&T> {
        match self {
            SeedOutcome::Ok { value, .. } => Some(value),
            SeedOutcome::Failed { .. } => None,
        }
    }

    /// The rendered error, if every attempt failed.
    pub fn error(&self) -> Option<&str> {
        match self {
            SeedOutcome::Ok { .. } => None,
            SeedOutcome::Failed { error, .. } => Some(error),
        }
    }

    /// `true` for a [`SeedOutcome::Failed`] row.
    pub fn is_failed(&self) -> bool {
        matches!(self, SeedOutcome::Failed { .. })
    }
}

/// A campaign-level snapshot of a [`System`]'s observability counters:
/// the per-subsystem [`satin_system::SysMetrics`] totals plus trace-log
/// health. Captured at campaign end so results stay owned (`Send`) and the
/// `System` can be dropped inside the worker.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsReport {
    /// World switches (entries + exits) summed over cores.
    pub world_switches: u64,
    /// Scan windows opened.
    pub scans_started: u64,
    /// Scan windows that ran to completion.
    pub scans_completed: u64,
    /// Completed scans torn by a concurrent write.
    pub scans_torn: u64,
    /// RT tasks preempting a running task at dispatch.
    pub rt_preemptions: u64,
    /// Machine-wide cache-pollution windows opened by secure exits.
    pub pollution_windows: u64,
    /// Scan results published to the normal world.
    pub publications: u64,
    /// Sum of fire-to-resume residencies, seconds (see
    /// `mean_publication_delay_secs`).
    pub publication_delay_total_secs: f64,
    /// World switches per core, indexed by core id.
    pub per_core_world_switches: Vec<u64>,
    /// Trace entries still retained.
    pub trace_retained: usize,
    /// Trace entries evicted by the capacity bound
    /// ([`satin_sim::TraceLog::dropped`]).
    pub trace_dropped: u64,
    /// `satin.alarm` entries retained in the trace.
    pub alarms_traced: u64,
    /// Simulation events dispatched.
    pub events_dispatched: u64,
    /// Integrity alarms the secure service raised
    /// (`satin_system::stats::SysStats::alarms` — counted even when
    /// tracing is off).
    pub alarms: u64,
    /// Distribution of publication delays (secure-timer fire to
    /// normal-world resume).
    pub publication_delay_hist: DurationHistogram,
    /// Distribution of hash-window lengths across completed scans.
    pub hash_window_hist: DurationHistogram,
    /// Distribution of detection latencies (fire to publication, for rounds
    /// that raised an alarm).
    pub detection_latency_hist: DurationHistogram,
    /// Telemetry span counts by name (empty unless the system was built
    /// with telemetry on).
    pub span_counts: BTreeMap<String, u64>,
    /// Injected scheduler-jitter spikes (0 in clean runs).
    pub fault_jitter_spikes: u64,
    /// Injected publication drops.
    pub fault_publications_dropped: u64,
    /// Injected publication delays.
    pub fault_publications_delayed: u64,
    /// Injected hash-window corruptions.
    pub fault_windows_corrupted: u64,
}

impl MetricsReport {
    /// Snapshots `sys`'s counters.
    pub fn capture(sys: &System) -> Self {
        let m = sys.metrics();
        let total = m.total();
        MetricsReport {
            world_switches: total.world_switches,
            scans_started: total.scans_started,
            scans_completed: total.scans_completed,
            scans_torn: total.scans_torn,
            rt_preemptions: total.rt_preemptions,
            pollution_windows: total.pollution_windows,
            publications: m.publications,
            publication_delay_total_secs: m
                .mean_publication_delay()
                .map(|d| d.as_secs_f64() * m.publications as f64)
                .unwrap_or(0.0),
            per_core_world_switches: m.per_core().map(|(_, c)| c.world_switches).collect(),
            trace_retained: sys.trace().len(),
            trace_dropped: sys.trace().dropped(),
            alarms_traced: sys.trace().by_category("satin.alarm").count() as u64,
            events_dispatched: sys.events_dispatched(),
            alarms: sys.stats().alarms,
            publication_delay_hist: m.publication_delay_hist.clone(),
            hash_window_hist: m.hash_window_hist.clone(),
            detection_latency_hist: m.detection_latency_hist.clone(),
            span_counts: sys
                .telemetry()
                .span_counts()
                .into_iter()
                .map(|(name, n)| (name.to_string(), n))
                .collect(),
            fault_jitter_spikes: sys.fault_stats().map_or(0, |s| s.jitter_spikes),
            fault_publications_dropped: sys.fault_stats().map_or(0, |s| s.publications_dropped),
            fault_publications_delayed: sys.fault_stats().map_or(0, |s| s.publications_delayed),
            fault_windows_corrupted: sys.fault_stats().map_or(0, |s| s.windows_corrupted),
        }
    }

    /// Total injected faults that actually fired in this run.
    pub fn faults_injected(&self) -> u64 {
        self.fault_jitter_spikes
            + self.fault_publications_dropped
            + self.fault_publications_delayed
            + self.fault_windows_corrupted
    }

    /// Mean publication delay (secure-timer fire to normal-world resume),
    /// seconds; `None` before the first publication.
    pub(crate) fn mean_publication_delay_secs(&self) -> Option<f64> {
        (self.publications > 0)
            .then(|| self.publication_delay_total_secs / self.publications as f64)
    }

    /// Sums a batch of reports (publication delays stay
    /// publication-weighted; per-core vectors are added elementwise).
    pub(crate) fn merged(reports: &[MetricsReport]) -> Self {
        let mut out = MetricsReport::default();
        for r in reports {
            out.world_switches += r.world_switches;
            out.scans_started += r.scans_started;
            out.scans_completed += r.scans_completed;
            out.scans_torn += r.scans_torn;
            out.rt_preemptions += r.rt_preemptions;
            out.pollution_windows += r.pollution_windows;
            out.publications += r.publications;
            out.publication_delay_total_secs += r.publication_delay_total_secs;
            if out.per_core_world_switches.len() < r.per_core_world_switches.len() {
                out.per_core_world_switches
                    .resize(r.per_core_world_switches.len(), 0);
            }
            for (acc, w) in out
                .per_core_world_switches
                .iter_mut()
                .zip(&r.per_core_world_switches)
            {
                *acc += w;
            }
            out.trace_retained += r.trace_retained;
            out.trace_dropped += r.trace_dropped;
            out.alarms_traced += r.alarms_traced;
            out.events_dispatched += r.events_dispatched;
            out.alarms += r.alarms;
            out.publication_delay_hist.merge(&r.publication_delay_hist);
            out.hash_window_hist.merge(&r.hash_window_hist);
            out.detection_latency_hist.merge(&r.detection_latency_hist);
            for (name, n) in &r.span_counts {
                *out.span_counts.entry(name.clone()).or_insert(0) += n;
            }
            out.fault_jitter_spikes += r.fault_jitter_spikes;
            out.fault_publications_dropped += r.fault_publications_dropped;
            out.fault_publications_delayed += r.fault_publications_delayed;
            out.fault_windows_corrupted += r.fault_windows_corrupted;
        }
        out
    }
}

impl fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "world switches: {} ({} rounds)   per-core: {:?}",
            self.world_switches,
            self.world_switches / 2,
            self.per_core_world_switches
        )?;
        writeln!(
            f,
            "scans: {} started, {} completed, {} torn by concurrent writes",
            self.scans_started, self.scans_completed, self.scans_torn
        )?;
        write!(
            f,
            "rt preemptions: {}   pollution windows: {}   publications: {}",
            self.rt_preemptions, self.pollution_windows, self.publications
        )?;
        if let Some(d) = self.mean_publication_delay_secs() {
            write!(f, " (mean delay {d:.2e} s)")?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "events dispatched: {}   trace: {} retained, {} dropped, {} alarms ({} raised)",
            self.events_dispatched,
            self.trace_retained,
            self.trace_dropped,
            self.alarms_traced,
            self.alarms
        )?;
        if !self.publication_delay_hist.is_empty() {
            writeln!(f, "publication delay: {}", self.publication_delay_hist)?;
        }
        if !self.hash_window_hist.is_empty() {
            writeln!(f, "hash window:       {}", self.hash_window_hist)?;
        }
        if !self.detection_latency_hist.is_empty() {
            writeln!(f, "detection latency: {}", self.detection_latency_hist)?;
        }
        // Clean runs print nothing here, keeping pre-fault reports (and
        // their golden snapshots) byte-identical.
        if self.faults_injected() > 0 {
            writeln!(
                f,
                "injected faults: {} jitter spikes, {} publications dropped, {} delayed, {} windows corrupted",
                self.fault_jitter_spikes,
                self.fault_publications_dropped,
                self.fault_publications_delayed,
                self.fault_windows_corrupted
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..64).collect();
        let serial = CampaignRunner::serial().run(&items, |_, _, &i| i * i + 1);
        let parallel = CampaignRunner::new(4).run(&items, |_, _, &i| i * i + 1);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[10], 101);
    }

    #[test]
    fn zero_jobs_resolves_to_available_parallelism() {
        let r = CampaignRunner::new(0);
        assert!(r.jobs() >= 1);
        assert_eq!(CampaignRunner::new(3).jobs(), 3);
        assert_eq!(CampaignRunner::serial().jobs(), 1);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = CampaignRunner::new(8).run(&[7u64, 9], |_, i, &s| s + i as u64);
        assert_eq!(out, vec![7, 10]);
    }

    #[test]
    fn observed_stream_is_byte_identical_for_any_worker_count() {
        let seeds = [1u64, 2, 3, 4, 5];
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff: Duration::ZERO,
        };
        let run = |runner: &CampaignRunner| {
            let obs = CampaignObs::new("retry-test");
            runner.run_seeds_with_retry_observed(
                &seeds,
                policy,
                &obs,
                |s| format!("t/s{s}"),
                |seed, attempt, log| {
                    log.emit(ObsEvent::FaultArmed {
                        cell: log.cell(),
                        seed,
                        fault: "fault.jitter".to_string(),
                    });
                    if seed == 5 {
                        Err("doomed")
                    } else if seed % 2 == 0 && attempt < 2 {
                        Err("flaky")
                    } else {
                        Ok(seed * 10)
                    }
                },
            )
        };
        let (serial_out, serial_stream) = run(&CampaignRunner::serial());
        let (par_out, par_stream) = run(&CampaignRunner::new(4));
        // The canonical stream carries no worker ids or host times, and is
        // assembled from per-cell logs in input order — byte-identical.
        assert_eq!(serial_out, par_out);
        assert_eq!(serial_stream.to_jsonl(), par_stream.to_jsonl());
        let jsonl = serial_stream.to_jsonl();
        // Seeds 2 and 4 retried once each; seed 5 salvaged after 3 tries.
        assert!(serial_out[4].is_failed());
        assert_eq!(serial_out[4].attempts(), 3);
        assert_eq!(jsonl.matches("\"event\":\"cell.retried\"").count(), 4);
        assert_eq!(jsonl.matches("\"event\":\"cell.salvaged\"").count(), 1);
        assert!(
            jsonl.contains("\"cells\":5,\"ok\":4,\"failed\":1,\"retries\":4"),
            "{jsonl}"
        );
    }

    #[test]
    fn retry_pause_is_linear_then_capped() {
        let policy = RetryPolicy {
            max_attempts: 10,
            backoff: Duration::from_millis(400),
        };
        assert_eq!(policy.pause_after(1), Duration::from_millis(400));
        assert_eq!(policy.pause_after(2), Duration::from_millis(800));
        // 400 ms × 3 = 1.2 s exceeds the cap.
        assert_eq!(policy.pause_after(3), MAX_RETRY_PAUSE);
        assert_eq!(policy.pause_after(u32::MAX), MAX_RETRY_PAUSE);
        let clean = RetryPolicy::from_plan(&FaultPlan::default());
        assert_eq!(clean.max_attempts, 1);
        assert_eq!(clean.pause_after(5), Duration::ZERO);
    }

    #[test]
    fn retry_pause_survives_backoff_ms_u64_max() {
        // A hostile/fat-fingered fault plan with `backoff-ms = u64::MAX`
        // must neither overflow nor produce a pause beyond the cap.
        let plan = FaultPlan {
            max_attempts: 3,
            backoff_ms: u64::MAX,
            ..FaultPlan::default()
        };
        let policy = RetryPolicy::from_plan(&plan);
        assert_eq!(policy.pause_after(1), MAX_RETRY_PAUSE);
        assert_eq!(policy.pause_after(u32::MAX), MAX_RETRY_PAUSE);
    }

    #[test]
    fn merged_report_weights_delays_by_publications() {
        let a = MetricsReport {
            publications: 1,
            publication_delay_total_secs: 0.010,
            per_core_world_switches: vec![2, 0],
            ..MetricsReport::default()
        };
        let b = MetricsReport {
            publications: 3,
            publication_delay_total_secs: 0.006,
            per_core_world_switches: vec![0, 4],
            ..MetricsReport::default()
        };
        let m = MetricsReport::merged(&[a, b]);
        assert_eq!(m.publications, 4);
        assert!((m.mean_publication_delay_secs().unwrap() - 0.004).abs() < 1e-12);
        assert_eq!(m.per_core_world_switches, vec![2, 4]);
        assert!(MetricsReport::default()
            .mean_publication_delay_secs()
            .is_none());
    }
}
