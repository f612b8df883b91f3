//! §VI-B1 — the SATIN detection campaign.
//!
//! Paper setup: SATIN with tp = 8 s over 19 areas; TZ-Evader (KProber at the
//! learned 1.8e-3 threshold) hijacking a syscall handler in area 14. Over
//! 190 rounds (the kernel scanned 10 times): KProber faithfully reports all
//! 190 rounds (no false positives/negatives), SATIN checks area 14 ten times
//! and detects the hijack every time, the average gap between area-14 checks
//! is ≈141 s, and a full sweep takes ≈152 s.
//!
//! Checks of the attacked area are classified by whether the hijack was in
//! place *when the round's secure timer fired*: an `attacked` check must end
//! in detection (the §V-B bound makes the in-round race unwinnable), while
//! an `idle` check — the rootkit already hidden because a *previous* round's
//! detection gave it early warning — legitimately observes clean memory.
//! Rounds spaced closer than the evasion latency (possible because intervals
//! are uniform over `[0, 2·tp]`) are the only source of idle checks; at the
//! paper's tp = 8 s they are rare.

use crate::runner::{CampaignRunner, MetricsReport, RetryPolicy, SeedOutcome};
use satin_attack::{TzEvader, TzEvaderConfig};
use satin_core::satin::RoundRecord;
use satin_core::{Satin, SatinConfig, SatinHandle};
use satin_mem::PAPER_SYSCALL_AREA;
use satin_obs::{CampaignObs, EventStream, ObsEvent};
use satin_scenario::Scenario;
use satin_serve::CellRecord;
use satin_sim::{SimDuration, SimTime};
use satin_system::{SatinError, System, SystemBuilder};

/// Campaign configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionConfig {
    /// Rounds to run (paper: 190 = 10 sweeps of 19 areas).
    pub rounds: usize,
    /// Full-coverage goal; the paper's tp = 8 s means `Tgoal = 152 s`.
    /// Quick runs scale this down — gaps scale proportionally.
    pub tgoal: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// Record the system trace (off by default: campaigns only need the
    /// counters, and the trace ring costs memory on long runs). Turn on to
    /// make the [`MetricsReport`] trace-health fields meaningful.
    pub trace: bool,
    /// Record telemetry spans (off by default, same cost reasoning as
    /// `trace`). Turn on to make the [`MetricsReport`] span counts
    /// meaningful.
    pub telemetry: bool,
}

impl DetectionConfig {
    /// The paper's full campaign (≈1520 simulated seconds).
    pub fn paper(seed: u64) -> Self {
        DetectionConfig {
            rounds: 190,
            tgoal: SatinConfig::paper().tgoal,
            seed,
            trace: false,
            telemetry: false,
        }
    }

    /// One sweep of the 19 areas at `Tgoal` 9.5 s: the cell shape of the
    /// golden snapshots, the quick grid and `repro submit`.
    pub fn sweep(seed: u64) -> Self {
        DetectionConfig {
            rounds: 19,
            tgoal: SimDuration::from_millis(9_500),
            seed,
            trace: false,
            telemetry: false,
        }
    }

    /// The campaign shape `scenario` declares (`campaign.rounds` at
    /// `campaign.tgoal`), untraced; per-cell seeds replace `seed`.
    pub fn for_scenario(scenario: &Scenario) -> Self {
        DetectionConfig {
            rounds: scenario.campaign.rounds,
            tgoal: scenario.campaign.tgoal,
            seed: 0,
            trace: false,
            telemetry: false,
        }
    }

    /// A scaled-down campaign (tp = 1 s) for tests and quick runs.
    pub fn quick(seed: u64) -> Self {
        DetectionConfig {
            rounds: 57, // 3 sweeps
            tgoal: SimDuration::from_secs(19),
            seed,
            trace: false,
            telemetry: false,
        }
    }
}

/// Campaign results.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionResult {
    /// Rounds SATIN completed.
    pub rounds: usize,
    /// Full kernel sweeps completed.
    pub sweeps: u64,
    /// Area-14 checks where the hijack was in place at round start and no
    /// recovery was already in flight — a fair in-round race.
    pub area14_attacked_checks: u64,
    /// Of those, how many were detected (the paper's 10/10).
    pub area14_detections: u64,
    /// Area-14 checks where a closely preceding round had already tipped
    /// off the evader (recovery in flight or finished at fire time). These
    /// exist because wake intervals are uniform over `[0, 2·tp]`, so two
    /// rounds can fire within the ~8 ms evasion latency; at the paper's
    /// tp = 8 s this happens to ≈0.1% of rounds.
    pub area14_early_warning_checks: u64,
    /// Of the early-warning checks, how many still detected the hijack.
    pub area14_early_warning_detections: u64,
    /// Distinct introspection sessions the evader's prober reported.
    pub prober_sessions: usize,
    /// Mean gap between consecutive area-14 checks, seconds.
    pub area14_mean_gap_secs: Option<f64>,
    /// Mean time for one full sweep, seconds (paper ≈152 s at tp = 8 s).
    pub sweep_secs: Option<f64>,
    /// Alarms on areas other than 14 (must be 0 — no false positives).
    pub other_area_alarms: u64,
    /// Simulated duration of the campaign, seconds.
    pub simulated_secs: f64,
    /// The machine's per-subsystem counters at campaign end.
    pub metrics: MetricsReport,
}

impl DetectionResult {
    /// Detection rate over attacked checks (1.0 in the paper).
    pub fn detection_rate(&self) -> f64 {
        if self.area14_attacked_checks == 0 {
            return 1.0;
        }
        self.area14_detections as f64 / self.area14_attacked_checks as f64
    }
}

/// One SATIN-vs-TZ-Evader cell: a built [`System`] with SATIN installed
/// and the evader deployed. Every SATIN-vs-TZ-Evader campaign in this
/// crate runs through one.
pub struct Cell {
    /// The machine the cell runs on.
    pub sys: System,
    /// SATIN's round log.
    pub handle: SatinHandle,
    /// The deployed attacker.
    pub evader: TzEvader,
}

impl Cell {
    /// Installs SATIN on an already-built `sys` (observers attached before
    /// this call see the secure boot), then deploys TZ-Evader.
    ///
    /// # Errors
    ///
    /// SATIN's boot error.
    pub fn new(
        mut sys: System,
        satin_cfg: SatinConfig,
        evader_cfg: TzEvaderConfig,
    ) -> Result<Self, SatinError> {
        let (satin, handle) = Satin::new(satin_cfg);
        sys.try_install_secure_service(satin)?;
        let evader = TzEvader::deploy(&mut sys, evader_cfg);
        Ok(Cell {
            sys,
            handle,
            evader,
        })
    }

    /// Runs one tp (`tgoal / 19`) at a time until SATIN has completed
    /// `rounds` rounds, with `40 × tgoal` of simulated time as a safety net.
    ///
    /// # Errors
    ///
    /// A scheduled worker abort: it lands between run slices, and the
    /// partial simulation is discarded.
    pub fn run_rounds(&mut self, rounds: usize, tgoal: SimDuration) -> Result<(), SatinError> {
        let slice = tgoal / 19;
        let hard_stop = SimTime::ZERO + tgoal * 40;
        while self.handle.round_count() < rounds && self.sys.now() < hard_stop {
            self.sys.run_for(slice);
            self.sys.check_fault_abort()?;
        }
        Ok(())
    }
}

/// Runs one campaign cell on `scenario` until SATIN has completed
/// `config.rounds` rounds: platform from the scenario's profile, SATIN from
/// its defense profile (with `config.tgoal` overriding the goal, as quick
/// campaigns always have), TZ-Evader from its attack profile. The rootkit
/// still hijacks GETTID, which lives in area 14 of the paper kernel layout
/// on every platform. `attempt` is the 1-based retry attempt (faults with
/// an attempt budget stand down once it is exceeded).
///
/// # Errors
///
/// Any [`SatinError`] raised during boot or by the fault injector's
/// scheduled worker abort.
pub fn try_run_scenario(
    scenario: &Scenario,
    config: DetectionConfig,
    attempt: u32,
) -> Result<DetectionResult, SatinError> {
    let mut satin_cfg = scenario.defense;
    satin_cfg.tgoal = config.tgoal;
    let sys = SystemBuilder::new()
        .seed(config.seed)
        .scenario(scenario)
        .fault_attempt(attempt)
        .trace(config.trace)
        .telemetry(config.telemetry)
        .build();
    let evader = TzEvaderConfig::from_profile(&scenario.attack);
    let mut cell = Cell::new(sys, satin_cfg, evader)?;
    cell.run_rounds(config.rounds, config.tgoal)?;
    Ok(summarize(&cell, config))
}

/// Runs one cell per seed through `runner` with the scenario's fault plan
/// armed: each seed is retried per the plan's `max-attempts`/`backoff-ms`,
/// and a seed whose every attempt fails (e.g. an injected worker abort
/// with a large attempt budget) comes back as a [`SeedOutcome::Failed`]
/// row — the batch itself never panics. A clean run is the empty plan: one
/// attempt, no backoff.
///
/// Every cell logs its lifecycle plus one `cell.fault_armed` event per
/// fault kind the plan arms for that `(seed, attempt)`. The canonical
/// stream is assembled from the cell logs in seed order, so outcomes and
/// stream are identical for any worker count; `obs`'s live channel (if
/// any) additionally sees the events as they happen, tagged with worker
/// and host time. Callers that want no stream drop it.
pub fn run_many_faulted_observed(
    scenario: &Scenario,
    base: DetectionConfig,
    seeds: &[u64],
    runner: &CampaignRunner,
    obs: &CampaignObs,
) -> (Vec<SeedOutcome<DetectionResult>>, EventStream) {
    let policy = RetryPolicy::from_plan(&scenario.faults);
    runner.run_seeds_with_retry_observed(
        seeds,
        policy,
        obs,
        |seed| scenario.cell_label(seed),
        |seed, attempt, log| {
            let cell = log.cell();
            for kind in satin_faults::armed_kinds(&scenario.faults, seed, attempt) {
                log.emit(ObsEvent::FaultArmed {
                    cell,
                    seed,
                    fault: kind.to_string(),
                });
            }
            try_run_scenario(scenario, DetectionConfig { seed, ..base }, attempt)
        },
    )
}

/// The campaign daemon's backend (`repro serve`): the submitted seeds run
/// through [`run_many_faulted_observed`] in the scenario's own campaign
/// shape, and each outcome becomes the result store's cell record.
pub fn serve_cells(
    scenario: &Scenario,
    seeds: &[u64],
    runner: &CampaignRunner,
) -> (Vec<CellRecord>, EventStream) {
    let obs = CampaignObs::new(&format!("serve/{}", scenario.name));
    let base = DetectionConfig::for_scenario(scenario);
    let (outcomes, stream) = run_many_faulted_observed(scenario, base, seeds, runner, &obs);
    (outcomes.iter().map(cell_record).collect(), stream)
}

/// Shapes one campaign outcome into the store's cell record — the same
/// fields the fault report renders.
fn cell_record(out: &SeedOutcome<DetectionResult>) -> CellRecord {
    match out.value() {
        Some(r) => CellRecord {
            ok: true,
            attempts: out.attempts(),
            rounds: r.rounds as u64,
            detections: r.area14_detections,
            faults_injected: r.metrics.faults_injected(),
            error: String::new(),
        },
        None => CellRecord {
            ok: false,
            attempts: out.attempts(),
            rounds: 0,
            detections: 0,
            faults_injected: 0,
            error: out.error().unwrap_or("campaign failed").to_string(),
        },
    }
}

/// Fleet-level aggregates over a batch of campaigns.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionAggregate {
    /// Campaigns aggregated.
    pub campaigns: usize,
    /// Total rounds across campaigns.
    pub rounds: usize,
    /// Total fair-race area-14 checks.
    pub area14_attacked_checks: u64,
    /// Of those, detections (the paper's 100%).
    pub area14_detections: u64,
    /// Total early-warning checks.
    pub area14_early_warning_checks: u64,
    /// Total alarms on clean areas (must stay 0).
    pub other_area_alarms: u64,
    /// Mean of the per-campaign area-14 gap means, seconds.
    pub mean_gap_secs: Option<f64>,
    /// Summed machine counters across campaigns.
    pub metrics: MetricsReport,
}

impl DetectionAggregate {
    /// Aggregates a batch of campaign results.
    pub fn of(results: &[DetectionResult]) -> Self {
        let gaps: Vec<f64> = results
            .iter()
            .filter_map(|r| r.area14_mean_gap_secs)
            .collect();
        DetectionAggregate {
            campaigns: results.len(),
            rounds: results.iter().map(|r| r.rounds).sum(),
            area14_attacked_checks: results.iter().map(|r| r.area14_attacked_checks).sum(),
            area14_detections: results.iter().map(|r| r.area14_detections).sum(),
            area14_early_warning_checks: results
                .iter()
                .map(|r| r.area14_early_warning_checks)
                .sum(),
            other_area_alarms: results.iter().map(|r| r.other_area_alarms).sum(),
            mean_gap_secs: (!gaps.is_empty()).then(|| gaps.iter().sum::<f64>() / gaps.len() as f64),
            metrics: MetricsReport::merged(
                &results
                    .iter()
                    .map(|r| r.metrics.clone())
                    .collect::<Vec<_>>(),
            ),
        }
    }

    /// Detection rate over all attacked checks.
    pub fn detection_rate(&self) -> f64 {
        if self.area14_attacked_checks == 0 {
            return 1.0;
        }
        self.area14_detections as f64 / self.area14_attacked_checks as f64
    }
}

/// The cell's campaign summary over its first `config.rounds` rounds, with
/// the machine's counters captured now.
pub(crate) fn summarize(cell: &Cell, config: DetectionConfig) -> DetectionResult {
    let Cell {
        sys,
        handle,
        evader,
    } = cell;
    let all_rounds = handle.rounds();
    let rounds: &[RoundRecord] = &all_rounds[..all_rounds.len().min(config.rounds)];
    let mut attacked = 0u64;
    let mut detected = 0u64;
    let mut early = 0u64;
    let mut early_detected = 0u64;
    let mut other_alarms = 0u64;
    // A round is a fair race only if the evader got no head start: no prober
    // detection within the evasion latency before the fire.
    let head_start = SimDuration::from_millis(10);
    let detections = evader.channel.detections();
    for r in rounds {
        if r.area == PAPER_SYSCALL_AREA {
            let tipped_off = detections
                .iter()
                .any(|d| d.at < r.fired && r.fired.saturating_since(d.at) < head_start);
            if evader.rootkit.was_active_at(r.fired) && !tipped_off {
                attacked += 1;
                if r.tampered {
                    detected += 1;
                }
            } else {
                early += 1;
                if r.tampered {
                    early_detected += 1;
                }
            }
        } else if r.tampered {
            other_alarms += 1;
        }
    }
    let sessions = evader
        .channel
        .distinct_sessions(SimDuration::from_millis(100));
    let sessions_in_window = sessions
        .iter()
        .filter(|t| rounds.last().map(|r| **t <= r.at).unwrap_or(false))
        .count();
    let sweep_secs = rounds.last().map(|last| {
        let span = last.at.since(rounds[0].fired).as_secs_f64();
        let sweeps = (rounds.len() as f64 / 19.0).max(1.0);
        span / sweeps
    });
    DetectionResult {
        rounds: rounds.len(),
        sweeps: handle.full_sweeps(),
        area14_attacked_checks: attacked,
        area14_detections: detected,
        area14_early_warning_checks: early,
        area14_early_warning_detections: early_detected,
        prober_sessions: sessions_in_window,
        area14_mean_gap_secs: handle.mean_check_gap_secs(PAPER_SYSCALL_AREA),
        sweep_secs,
        other_area_alarms: other_alarms,
        simulated_secs: sys.now().as_secs_f64(),
        metrics: MetricsReport::capture(sys),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_cell(config: DetectionConfig) -> DetectionResult {
        try_run_scenario(&Scenario::paper(), config, 1).expect("clean campaign")
    }

    #[test]
    fn quick_campaign_detects_every_attacked_check() {
        let r = paper_cell(DetectionConfig::quick(1));
        assert!(r.rounds >= 57, "{} rounds", r.rounds);
        assert!(r.sweeps >= 2, "{} sweeps", r.sweeps);
        let total_area14 = r.area14_attacked_checks + r.area14_early_warning_checks;
        assert!(total_area14 >= 2, "{total_area14} area-14 checks");
        // The paper's headline: every check that races the live hijack wins.
        assert_eq!(
            r.area14_detections, r.area14_attacked_checks,
            "SATIN lost an in-round race: {}/{}",
            r.area14_detections, r.area14_attacked_checks
        );
        assert_eq!(r.other_area_alarms, 0, "false alarms on clean areas");
        // The prober saw (at least) every round — no false negatives. The
        // session count can undercount rounds slightly: at tp = 1 s, two
        // rounds occasionally fire within the 100 ms session-merge window
        // and collapse into one reported session (a quick-mode artifact;
        // at the paper's tp = 8 s rounds never land that close).
        assert!(
            r.prober_sessions as f64 >= 0.85 * r.rounds as f64,
            "prober saw {} of {} rounds",
            r.prober_sessions,
            r.rounds
        );
        // Early-warning checks exist only via the close-round window,
        // which is rare even at tp = 1 s.
        assert!(
            r.area14_early_warning_checks <= 2,
            "{} early-warning checks",
            r.area14_early_warning_checks
        );
    }

    #[test]
    fn clean_fan_out_aggregates_identically_for_any_job_count() {
        let base = DetectionConfig::sweep(0);
        let seeds = [5u64, 6];
        let run = |runner: &CampaignRunner| {
            let obs = CampaignObs::new("clean");
            let (outcomes, _) =
                run_many_faulted_observed(&Scenario::paper(), base, &seeds, runner, &obs);
            outcomes
                .into_iter()
                .map(|o| {
                    // The empty plan: one attempt per seed, no failures.
                    assert_eq!(o.attempts(), 1);
                    o.value().cloned().expect("clean campaign")
                })
                .collect::<Vec<_>>()
        };
        let serial = run(&CampaignRunner::serial());
        let parallel = run(&CampaignRunner::new(2));
        // Campaigns are pure functions of their seed, and the runner returns
        // results in input order — so the whole batch is bitwise identical.
        assert_eq!(serial, parallel);
        let agg = DetectionAggregate::of(&serial);
        assert_eq!(agg.campaigns, 2);
        assert_eq!(agg.rounds, serial[0].rounds + serial[1].rounds);
        assert_eq!(agg.other_area_alarms, 0);
        assert!((agg.detection_rate() - 1.0).abs() < f64::EPSILON);
        // One publication per completed round, summed across the fleet.
        assert!(agg.metrics.publications as usize >= agg.rounds);
        assert_eq!(agg.metrics.world_switches, 2 * agg.metrics.publications);
    }

    #[test]
    fn observed_fault_stream_is_jobs_invariant_and_salvages_seed_42() {
        let mut sc = Scenario::paper();
        sc.faults = satin_scenario::FaultPlan::smoke();
        let base = DetectionConfig::sweep(0);
        let seeds = [7u64, 42, 1009];
        let run = |runner: &CampaignRunner| {
            let obs = CampaignObs::new("faults/smoke");
            run_many_faulted_observed(&sc, base, &seeds, runner, &obs)
        };
        let (serial, serial_stream) = run(&CampaignRunner::serial());
        let (parallel, parallel_stream) = run(&CampaignRunner::new(4));
        assert_eq!(serial, parallel);
        let jsonl = serial_stream.to_jsonl();
        assert_eq!(jsonl, parallel_stream.to_jsonl());
        // Smoke: every seed gets the dropped publication armed; seed 42
        // additionally gets the abort, outlives the 2-attempt budget, and
        // salvages as a Failed row.
        assert!(serial[1].is_failed(), "seed 42 must salvage");
        assert_eq!(
            jsonl.matches("\"event\":\"cell.fault_armed\"").count(),
            // seeds 7/1009: drop on their single attempt; seed 42: drop +
            // abort on each of its 2 attempts.
            2 + 2 * 2
        );
        assert!(jsonl.contains("\"fault\":\"fault.dropped_pub\""), "{jsonl}");
        assert!(jsonl.contains("\"fault\":\"fault.abort\""), "{jsonl}");
        assert!(jsonl.contains("\"label\":\"juno-r1/s42\""), "{jsonl}");
        assert_eq!(jsonl.matches("\"event\":\"cell.salvaged\"").count(), 1);
        assert!(
            jsonl.contains("\"cells\":3,\"ok\":2,\"failed\":1,\"retries\":1"),
            "{jsonl}"
        );
    }

    #[test]
    fn gap_scales_with_tgoal() {
        let r = paper_cell(DetectionConfig::quick(2));
        // At tp = 1 s over 19 areas, the expected mean gap for one area is
        // ≈ 19 s (the paper's 141-152 s scaled by 1/8).
        if let Some(gap) = r.area14_mean_gap_secs {
            assert!((8.0..40.0).contains(&gap), "gap {gap}s");
        }
        if let Some(sweep) = r.sweep_secs {
            assert!((12.0..28.0).contains(&sweep), "sweep {sweep}s");
        }
        assert!((r.detection_rate() - 1.0).abs() < f64::EPSILON);
    }
}
