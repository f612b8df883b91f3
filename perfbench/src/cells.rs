//! The ops the benchmark times, each in two forms:
//!
//! - **untraced**: a call into the program's public entry point
//!   (`detection::try_run_scenario`, `satin_workload::run_single`);
//! - **traced**: the same assembly rebuilt from public parts with the
//!   [`Tracer`] observer installed and the defense wrapped in
//!   [`TimedService`]. The traced form must return the same result as the
//!   untraced one, which the benchmark checks on every traced op.

use crate::trace::{SecureProfile, SimProfile, TimedService, Tracer};
use satin_attack::{TzEvader, TzEvaderConfig};
use satin_bench::detection::{self, DetectionConfig, DetectionResult};
use satin_bench::MetricsReport;
use satin_core::satin::RoundRecord;
use satin_core::{Satin, SatinConfig, SatinHandle};
use satin_kernel::{Affinity, SchedClass, TaskId};
use satin_mem::layout::GETTID_NR;
use satin_mem::PAPER_SYSCALL_AREA;
use satin_obs::HostClock;
use satin_scenario::Scenario;
use satin_sim::{SimDuration, SimTime};
use satin_system::{RunCtx, RunOutcome, SatinError, SystemBuilder, ThreadBody};
use satin_workload::suite::Workload;
use std::cell::RefCell;
use std::rc::Rc;

/// The one-sweep cell shape `repro submit` and the grid use: 19 rounds,
/// `Tgoal` 9.5 s.
fn sweep_config(seed: u64) -> DetectionConfig {
    DetectionConfig {
        rounds: 19,
        tgoal: SimDuration::from_millis(9_500),
        seed,
        trace: false,
        telemetry: false,
    }
}

/// Host-side facts of one traced simulation run.
#[derive(Debug, Clone, Default)]
pub struct RunProfile {
    /// Per-kind counts and host time from the [`Tracer`].
    pub sim: SimProfile,
    /// Secure-world handler times from the [`TimedService`].
    pub secure: SecureProfile,
    /// Host ns from the start of the op until the system is built, the
    /// defense installed and the workload deployed.
    pub build_ns: u64,
    /// Host ns of the whole op.
    pub total_ns: u64,
}

impl RunProfile {
    /// Adds another run's profile.
    pub fn add(&mut self, other: &RunProfile) {
        self.sim.add(&other.sim);
        self.secure.add(&other.secure);
        self.build_ns += other.build_ns;
        self.total_ns += other.total_ns;
    }
}

/// Shared cells the traced form's seams write into.
struct Seams {
    clock: HostClock,
    sim: Rc<RefCell<SimProfile>>,
    secure: Rc<RefCell<SecureProfile>>,
}

impl Seams {
    fn new() -> Self {
        Seams {
            clock: HostClock::start(),
            sim: Rc::default(),
            secure: Rc::default(),
        }
    }

    fn tracer(&self) -> Box<Tracer> {
        Box::new(Tracer::new(self.clock, Rc::clone(&self.sim)))
    }

    fn wrap(&self, satin: Satin) -> TimedService<Satin> {
        TimedService::new(satin, self.clock, Rc::clone(&self.secure))
    }

    fn finish(self, build_ns: u64) -> RunProfile {
        let mut sim = self.sim.borrow().clone();
        let now = self.clock.now_ns();
        sim.finish(now);
        let secure = *self.secure.borrow();
        RunProfile {
            sim,
            secure,
            build_ns,
            total_ns: now,
        }
    }
}

/// One untraced detection cell on the paper scenario.
///
/// # Errors
///
/// Whatever `detection::try_run_scenario` returns.
pub fn detect_cell(scenario: &Scenario, seed: u64) -> Result<DetectionResult, SatinError> {
    detection::try_run_scenario(scenario, sweep_config(seed), 1)
}

/// [`detect_cell`], traced.
///
/// # Errors
///
/// A boot error from the defense.
pub fn detect_cell_traced(
    scenario: &Scenario,
    seed: u64,
) -> Result<(DetectionResult, RunProfile), SatinError> {
    let config = sweep_config(seed);
    let seams = Seams::new();
    let mut satin_cfg = SatinConfig::from_profile(&scenario.defense);
    satin_cfg.tgoal = config.tgoal;
    let mut sys = SystemBuilder::new()
        .seed(config.seed)
        .scenario(scenario)
        .fault_attempt(1)
        .trace(config.trace)
        .telemetry(config.telemetry)
        .build();
    sys.set_sim_observer(seams.tracer());
    let (satin, handle) = Satin::new(satin_cfg);
    sys.try_install_secure_service(seams.wrap(satin))?;
    let evader = TzEvader::deploy(&mut sys, TzEvaderConfig::from_profile(&scenario.attack));
    let build_ns = seams.clock.now_ns();

    let slice = config.tgoal / 19;
    let hard_stop = SimTime::ZERO + config.tgoal * 40;
    while handle.round_count() < config.rounds && sys.now() < hard_stop {
        sys.run_for(slice);
        sys.check_fault_abort()?;
    }
    let metrics = MetricsReport::capture(&sys);
    let result = summarize(&handle, &evader, config, sys.now(), metrics);
    Ok((result, seams.finish(build_ns)))
}

/// The detection campaign's result summary, rebuilt from public parts so a
/// traced cell yields the same [`DetectionResult`] as an untraced one.
fn summarize(
    handle: &SatinHandle,
    evader: &TzEvader,
    config: DetectionConfig,
    now: SimTime,
    metrics: MetricsReport,
) -> DetectionResult {
    let all_rounds = handle.rounds();
    let rounds: &[RoundRecord] = &all_rounds[..all_rounds.len().min(config.rounds)];
    let (mut attacked, mut detected, mut early, mut early_detected, mut other_alarms) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let head_start = SimDuration::from_millis(10);
    let detections = evader.channel.detections();
    for r in rounds {
        if r.area == PAPER_SYSCALL_AREA {
            let tipped_off = detections
                .iter()
                .any(|d| d.at < r.fired && r.fired.saturating_since(d.at) < head_start);
            if evader.rootkit.was_active_at(r.fired) && !tipped_off {
                attacked += 1;
                detected += u64::from(r.tampered);
            } else {
                early += 1;
                early_detected += u64::from(r.tampered);
            }
        } else if r.tampered {
            other_alarms += 1;
        }
    }
    let sessions = evader
        .channel
        .distinct_sessions(SimDuration::from_millis(100));
    let last_at = rounds.last().map(|r| r.at);
    let sweep_secs = rounds.first().zip(rounds.last()).map(|(first, last)| {
        let span = last.at.since(first.fired).as_secs_f64();
        span / (rounds.len() as f64 / 19.0).max(1.0)
    });
    DetectionResult {
        rounds: rounds.len(),
        sweeps: handle.full_sweeps(),
        area14_attacked_checks: attacked,
        area14_detections: detected,
        area14_early_warning_checks: early,
        area14_early_warning_detections: early_detected,
        prober_sessions: sessions
            .iter()
            .filter(|t| last_at.is_some_and(|at| **t <= at))
            .count(),
        area14_mean_gap_secs: handle.mean_check_gap_secs(PAPER_SYSCALL_AREA),
        sweep_secs,
        other_area_alarms: other_alarms,
        simulated_secs: now.as_secs_f64(),
        metrics,
    }
}

/// The canonical text of a detection result for the output digest: every
/// simulated output, without the host-dependent-looking event count (which
/// the per-layer profile reports on its own).
pub fn detect_digest_text(result: &DetectionResult) -> String {
    let mut r = result.clone();
    r.metrics.events_dispatched = 0;
    format!("{r:?}")
}

/// The §VI-B1 check on one cell: every attacked area-14 check detected, no
/// alarm on a clean area, and the full sweep completed.
pub fn detect_ok(result: &DetectionResult) -> bool {
    result.rounds == 19
        && result.area14_detections == result.area14_attacked_checks
        && result.other_area_alarms == 0
}

/// A Fig 7 row: one workload, SATIN off then on.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Row {
    /// The UnixBench-like workload.
    pub workload: Workload,
    /// Parallel copies (1 or 6).
    pub tasks: usize,
    /// Run seed.
    pub seed: u64,
}

/// Scheduler quanta each half of a Fig 7 row simulates: 60 s at the
/// suite's usual 1 ms quantum. Sizing rows by quanta rather than by time
/// keeps the two 0.5 ms-quantum workloads from costing twice a row.
const FIG7_QUANTA: u64 = 60_000;

impl Fig7Row {
    /// Simulated length of each half of the row.
    pub fn duration(&self) -> SimDuration {
        self.workload.quantum * FIG7_QUANTA
    }
}

/// The SATIN configuration of the SATIN-on half: the paper's tp = 8 s.
fn fig7_satin() -> SatinConfig {
    SatinConfig::paper()
}

/// One half of an untraced Fig 7 row: its score.
pub fn fig7_half(row: &Fig7Row, satin: bool) -> f64 {
    satin_workload::runner::run_single(
        &row.workload,
        row.tasks,
        row.duration(),
        satin.then(fig7_satin),
        row.seed,
    )
}

/// The benchmark task of the Fig 7 study, rebuilt for the traced form:
/// occupy the CPU in quanta, exercising the syscall table each time.
struct BenchBody {
    quantum: SimDuration,
    syscalls: u32,
}

impl ThreadBody for BenchBody {
    fn on_run(&mut self, ctx: &mut RunCtx<'_>) -> RunOutcome {
        for _ in 0..self.syscalls {
            let _ = ctx.resolve_syscall(GETTID_NR);
        }
        RunOutcome::yield_after(self.quantum)
    }
}

/// [`fig7_half`], traced.
pub fn fig7_half_traced(row: &Fig7Row, satin: bool) -> (f64, RunProfile) {
    let seams = Seams::new();
    let mut sys = SystemBuilder::new().seed(row.seed).trace(false).build();
    sys.set_sim_observer(seams.tracer());
    let n = sys.num_cores();
    let mut tids: Vec<TaskId> = Vec::new();
    for i in 0..row.tasks {
        let t = sys.spawn(
            format!("{}-{i}", row.workload.name),
            SchedClass::cfs(),
            Affinity::any(n),
            BenchBody {
                quantum: row.workload.quantum,
                syscalls: row.workload.syscalls_per_quantum,
            },
        );
        sys.set_sensitivity(t, row.workload.sensitivity);
        sys.wake_at(t, SimTime::ZERO);
        tids.push(t);
    }
    if satin {
        let (service, _handle) = Satin::new(fig7_satin());
        sys.install_secure_service(seams.wrap(service));
    }
    let build_ns = seams.clock.now_ns();
    sys.run_until(SimTime::ZERO + row.duration());
    let effective: f64 = tids.iter().map(|t| sys.work_secs(*t)).sum();
    (effective * row.workload.ops_per_sec, seams.finish(build_ns))
}

/// The Fig 7 check on one row: SATIN costs the workload at most 1%.
pub fn fig7_ok(off: f64, on: f64) -> bool {
    off > 0.0 && on <= 1.01 * off
}

/// The canonical text of a Fig 7 row's scores for the output digest.
pub fn fig7_digest_text(row: &Fig7Row, off: f64, on: f64) -> String {
    format!(
        "{}|{}|{}|{off:?}|{on:?}",
        row.workload.name, row.tasks, row.seed
    )
}
