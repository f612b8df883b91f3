//! The per-experiment telemetry section: merged histogram/span aggregates
//! (deterministic for any `--jobs`) and the single fully-traced race behind
//! `repro --trace-out`.
//!
//! Two artifacts come out of here:
//!
//! - [`TelemetryReport`]: campaign-level aggregates built by merging
//!   [`MetricsReport`]s in input order. Every field is a counter, a
//!   fixed-shape histogram, or a name-sorted map, so
//!   [`TelemetryReport::to_json`] is byte-identical for any worker count —
//!   the `--metrics-json` guarantee.
//! - [`TracedRace`]: one instrumented SATIN-vs-TZ-Evader run with the full
//!   span [`Timeline`] and [`TraceLog`], exportable as Chrome `trace_event`
//!   JSON via [`satin_telemetry::chrome_trace`] — the `--trace-out` file.

use crate::detection::Cell;
use crate::runner::{MetricsReport, SeedOutcome};
use satin_attack::TzEvaderConfig;
use satin_scenario::Scenario;
use satin_sim::{SimDuration, SimTime, TraceLog};
use satin_stats::hist::render_count_rows;
use satin_system::SystemBuilder;
use satin_telemetry::{DurationHistogram, Timeline};
use std::fmt;
use std::fmt::Write as _;

/// Merged telemetry aggregates over a batch of campaigns.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Campaigns merged into this report.
    pub campaigns: usize,
    /// Scan results published to the normal world, summed.
    pub publications: u64,
    /// Integrity alarms raised by the secure service, summed.
    pub alarms: u64,
    /// Simulation events dispatched, summed.
    pub events_dispatched: u64,
    /// Retry attempts the salvaging runner spent across the fleet (0 for
    /// fleets run without retry).
    pub retries: u64,
    /// Seeds whose every attempt failed and were salvaged as structured
    /// `Failed` rows instead of killing the batch.
    pub salvaged: u64,
    /// The merged counters and distributions. Salvaged seeds contribute
    /// nothing here — their partial simulations were discarded.
    pub metrics: MetricsReport,
}

impl TelemetryReport {
    /// Merges per-campaign reports (order-independent: histograms add
    /// bucket-wise, span counts add name-wise).
    pub fn of(reports: &[MetricsReport]) -> Self {
        let merged = MetricsReport::merged(reports);
        TelemetryReport {
            campaigns: reports.len(),
            publications: merged.publications,
            alarms: merged.alarms,
            events_dispatched: merged.events_dispatched,
            retries: 0,
            salvaged: 0,
            metrics: merged,
        }
    }

    /// [`of`](TelemetryReport::of) over a salvaging-runner fleet: completed
    /// seeds contribute their metrics (extracted by `metrics_of`), failed
    /// seeds contribute only to the `salvaged` count, and every spent retry
    /// is tallied. Outcome order is runner-guaranteed, so the report — and
    /// its JSON — stays byte-identical for any `--jobs`.
    pub fn of_salvaged<T>(
        outcomes: &[SeedOutcome<T>],
        metrics_of: impl Fn(&T) -> &MetricsReport,
    ) -> Self {
        let reports: Vec<MetricsReport> = outcomes
            .iter()
            .filter_map(|o| o.value().map(|v| metrics_of(v).clone()))
            .collect();
        let mut report = TelemetryReport::of(&reports);
        report.campaigns = outcomes.len();
        report.retries = outcomes
            .iter()
            .map(|o| u64::from(o.attempts().saturating_sub(1)))
            .sum();
        report.salvaged = outcomes.iter().filter(|o| o.is_failed()).count() as u64;
        report
    }

    /// The injected-fault counters under their canonical stream names, in
    /// fixed order. `fault.abort` is the count of campaign attempts an
    /// injected abort (or any other structured failure) killed — aborts
    /// discard the run, so unlike the other four they never reach the
    /// injector's own stats.
    pub fn fault_counters(&self) -> [(&'static str, u64); 5] {
        [
            (satin_faults::FAULT_JITTER, self.metrics.fault_jitter_spikes),
            (
                satin_faults::FAULT_DROPPED_PUB,
                self.metrics.fault_publications_dropped,
            ),
            (
                satin_faults::FAULT_DELAYED_PUB,
                self.metrics.fault_publications_delayed,
            ),
            (
                satin_faults::FAULT_CORRUPT_WINDOW,
                self.metrics.fault_windows_corrupted,
            ),
            (satin_faults::FAULT_ABORT, self.retries + self.salvaged),
        ]
    }

    /// Renders the report as a deterministic JSON document: fixed key
    /// order, integer nanoseconds, histograms as `[bucket, count]` pairs.
    /// Byte-identical for any `--jobs` count over the same campaigns.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"campaigns\": {},", self.campaigns);
        let _ = writeln!(out, "  \"publications\": {},", self.publications);
        let _ = writeln!(out, "  \"alarms\": {},", self.alarms);
        let _ = writeln!(out, "  \"events_dispatched\": {},", self.events_dispatched);
        let _ = writeln!(out, "  \"retries\": {},", self.retries);
        let _ = writeln!(out, "  \"salvaged\": {},", self.salvaged);
        let faults: Vec<String> = self
            .fault_counters()
            .iter()
            .map(|(name, n)| format!("\"{name}\": {n}"))
            .collect();
        let _ = writeln!(out, "  \"faults\": {{{}}},", faults.join(", "));
        let _ = writeln!(
            out,
            "  \"scans_completed\": {},",
            self.metrics.scans_completed
        );
        let _ = writeln!(out, "  \"scans_torn\": {},", self.metrics.scans_torn);
        let _ = writeln!(
            out,
            "  \"world_switches\": {},",
            self.metrics.world_switches
        );
        out.push_str("  \"histograms\": {\n");
        for (i, (name, h)) in self.histograms().iter().enumerate() {
            let _ = write!(out, "    \"{name}\": {}", hist_json(h));
            out.push_str(if i + 1 < self.histograms().len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  },\n");
        out.push_str("  \"span_counts\": {");
        let spans: Vec<String> = self
            .metrics
            .span_counts
            .iter()
            .map(|(name, n)| format!("\"{name}\": {n}"))
            .collect();
        out.push_str(&spans.join(", "));
        out.push_str("}\n}\n");
        out
    }

    /// The report's named histograms, in fixed order.
    pub fn histograms(&self) -> Vec<(&'static str, &DurationHistogram)> {
        vec![
            ("publication_delay_ns", &self.metrics.publication_delay_hist),
            ("hash_window_ns", &self.metrics.hash_window_hist),
            ("detection_latency_ns", &self.metrics.detection_latency_hist),
        ]
    }
}

fn hist_json(h: &DurationHistogram) -> String {
    let buckets: Vec<String> = h
        .nonzero_buckets()
        .map(|(idx, _, _, count)| format!("[{idx}, {count}]"))
        .collect();
    format!(
        "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [{}]}}",
        h.count(),
        h.sum_nanos(),
        h.min().map(|d| d.as_nanos()).unwrap_or(0),
        h.max().map(|d| d.as_nanos()).unwrap_or(0),
        buckets.join(", ")
    )
}

/// Labelled count rows for one histogram (bucket ranges as durations),
/// ready for [`render_count_rows`].
fn bucket_rows(h: &DurationHistogram) -> Vec<(String, u64)> {
    h.nonzero_buckets()
        .map(|(_, lo, hi, count)| {
            (
                format!(
                    "[{}, {})",
                    SimDuration::from_nanos(lo),
                    SimDuration::from_nanos(hi)
                ),
                count,
            )
        })
        .collect()
}

impl fmt::Display for TelemetryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} campaign(s): {} publications, {} alarms, {} events dispatched",
            self.campaigns, self.publications, self.alarms, self.events_dispatched
        )?;
        for (name, h) in self.histograms() {
            if h.is_empty() {
                continue;
            }
            writeln!(f, "{name}: {h}")?;
            write!(f, "{}", render_count_rows(&bucket_rows(h), 40))?;
        }
        if !self.metrics.span_counts.is_empty() {
            let rows: Vec<(String, u64)> = self
                .metrics
                .span_counts
                .iter()
                .map(|(n, c)| (n.clone(), *c))
                .collect();
            writeln!(f, "spans:")?;
            write!(f, "{}", render_count_rows(&rows, 40))?;
        }
        Ok(())
    }
}

/// One fully-instrumented introspection race: SATIN (tp = 1 s) vs the
/// TZ-Evader, with telemetry spans and the trace log both recorded.
pub struct TracedRace {
    /// The recorded span timeline (one `secure.session` tree per round).
    pub timeline: Timeline,
    /// The machine trace (attack/secure/satin events).
    pub trace: TraceLog,
    /// End-of-run counters and distributions.
    pub metrics: MetricsReport,
    /// Simulated horizon the race ran for.
    pub horizon: SimDuration,
}

impl TracedRace {
    /// The race as Chrome `trace_event` JSON (open in Perfetto or
    /// `chrome://tracing`): per-core session span trees plus attack/defense
    /// trace events on their own lanes.
    pub fn chrome_trace(&self) -> String {
        satin_telemetry::chrome_trace(&self.timeline, Some(&self.trace))
    }

    /// The race's spans and instants as line-delimited JSON.
    pub fn jsonl(&self) -> String {
        satin_telemetry::jsonl_events(&self.timeline)
    }
}

/// Runs one instrumented SATIN-vs-TZ-Evader race for `horizon` of simulated
/// time: the platform, attacker and defense configs all come from the
/// descriptor (the accelerated tp = 1 s pace is kept, as the trace is meant
/// to show several rounds). Pure function of `seed` — and telemetry is pure
/// observation — so the exported trace is byte-identical across runs and
/// job counts.
pub fn run_traced_race_scenario(
    scenario: &Scenario,
    seed: u64,
    horizon: SimDuration,
) -> TracedRace {
    let mut cfg = scenario.defense;
    cfg.tgoal = SimDuration::from_secs(19); // tp = 1 s over 19 areas
    let sys = SystemBuilder::new()
        .seed(seed)
        .scenario(scenario)
        .trace(true)
        .telemetry(true)
        .build();
    let mut cell = Cell::new(sys, cfg, TzEvaderConfig::from_profile(&scenario.attack))
        .expect("secure service boot failed");
    cell.sys.run_until(SimTime::ZERO + horizon);
    TracedRace {
        timeline: cell.sys.telemetry().clone(),
        trace: cell.sys.trace().clone(),
        metrics: MetricsReport::capture(&cell.sys),
        horizon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_race_covers_every_session() {
        let race = run_traced_race_scenario(&Scenario::paper(), 42, SimDuration::from_secs(5));
        let tl = &race.timeline;
        assert!(!tl.is_empty(), "no spans recorded");
        assert_eq!(tl.open_count(), 0, "dangling spans at end of run");
        assert_eq!(tl.dropped(), 0, "timeline overflowed");
        // One session root per publication, with switch children.
        assert_eq!(
            tl.count_by_name("secure.session"),
            race.metrics.publications
        );
        assert_eq!(
            tl.count_by_name("world.switch_in"),
            race.metrics.publications
        );
        assert_eq!(
            tl.count_by_name("world.switch_out"),
            race.metrics.publications
        );
        assert_eq!(
            tl.count_by_name("scan.window"),
            race.metrics.scans_completed
        );
        // Every non-root span links into a session tree.
        for span in tl.spans() {
            if span.name != "secure.session" {
                assert!(span.parent.is_some(), "{} has no parent", span.name);
            }
        }
        // The exports are non-trivial and deterministic.
        let json = race.chrome_trace();
        assert!(json.contains("secure.session"));
        let again = run_traced_race_scenario(&Scenario::paper(), 42, SimDuration::from_secs(5));
        assert_eq!(json, again.chrome_trace());
        assert_eq!(race.jsonl(), again.jsonl());
    }

    #[test]
    fn salvaged_report_counts_retries_and_canonical_faults() {
        let m = MetricsReport {
            publications: 4,
            fault_publications_dropped: 2,
            fault_jitter_spikes: 1,
            ..MetricsReport::default()
        };
        let outcomes: Vec<SeedOutcome<MetricsReport>> = vec![
            SeedOutcome::Ok {
                seed: 7,
                attempts: 1,
                value: m.clone(),
            },
            SeedOutcome::Failed {
                seed: 42,
                attempts: 2,
                error: "worker abort".into(),
            },
            SeedOutcome::Ok {
                seed: 1009,
                attempts: 3,
                value: m.clone(),
            },
        ];
        let report = TelemetryReport::of_salvaged(&outcomes, |m| m);
        assert_eq!(report.campaigns, 3);
        assert_eq!(report.retries, 1 + 2);
        assert_eq!(report.salvaged, 1);
        // Only the completed seeds' metrics merge.
        assert_eq!(report.publications, 8);
        assert_eq!(report.metrics.fault_publications_dropped, 4);
        let json = report.to_json();
        assert!(json.contains("\"retries\": 3"), "{json}");
        assert!(json.contains("\"salvaged\": 1"), "{json}");
        assert!(json.contains("\"fault.dropped_pub\": 4"), "{json}");
        assert!(json.contains("\"fault.jitter\": 2"), "{json}");
        // Failed attempts — retried or salvaged — are the abort count.
        assert!(json.contains("\"fault.abort\": 4"), "{json}");
        assert!(json.contains("\"fault.corrupt_window\": 0"), "{json}");
    }

    #[test]
    fn report_json_shape() {
        let race = run_traced_race_scenario(&Scenario::paper(), 7, SimDuration::from_secs(3));
        let report = TelemetryReport::of(&[race.metrics.clone(), race.metrics.clone()]);
        assert_eq!(report.campaigns, 2);
        assert_eq!(report.publications, 2 * race.metrics.publications);
        let json = report.to_json();
        assert!(json.contains("\"publication_delay_ns\""));
        assert!(json.contains("\"span_counts\""));
        assert!(json.contains("\"secure.session\""));
        // Merge order does not matter.
        let swapped = TelemetryReport::of(&[race.metrics.clone(), race.metrics.clone()]);
        assert_eq!(json, swapped.to_json());
    }
}
