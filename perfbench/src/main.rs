//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--inputs <n>]`
//!
//! Runs one workload closed loop (one client, one op at a time) for
//! `--seconds` of host time and prints, as its last stdout line, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` the per-layer ones. Run it
//! from the repository root (the serve workload keeps its store and socket
//! under `perfbench/work/`). See `README.md` for what each number means.

use satin_bench::detection::{self, DetectionConfig, DetectionResult};
use satin_bench::{CampaignRunner, SeedOutcome};
use satin_obs::{CampaignObs, EventStream, HostClock};
use satin_perfbench::cells::{self, Fig7Row, RunProfile};
use satin_perfbench::trace::KINDS;
use satin_perfbench::{
    cell_seed, digest, median, mix, per_layer, percentile, SpeedIndex, END_TO_END,
};
use satin_scenario::Scenario;
use satin_serve::store::record_line;
use satin_serve::{CellRecord, JobKey, ResultStore};
use satin_sim::SimDuration;
use satin_workload::Workload;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Timed setup repetitions; `setup_s` is their median.
const SETUP_REPS: u64 = 3;
/// The warm-up input, the same for every `--seed` so that setup times the
/// same work in every run.
const WARM_UP_SEED: u64 = 0x5a71_2019;
/// Inputs whose results form the output digest and the exact per-op counts.
const DIGEST_INPUTS: usize = 4;
/// Derives the input lists unless `--inputs` names another value.
const INPUT_SEED: u64 = 0x5eed_2019;
/// Detection cells in detect-sweep's list.
const DETECT_CELLS: usize = 12;
/// The per-kind host times plus system build must tile the traced op time
/// to within this share.
const SUM_TOLERANCE: f64 = 0.05;

/// Parsed command line.
struct Args {
    workload: String,
    /// Where each workload starts in its input list, and the serve client's
    /// think times.
    seed: u64,
    /// Derives the input lists themselves: every `--seed` times the same
    /// inputs, in another order. Another value gives held-out inputs.
    inputs: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    /// The `k`-th campaign seed of the input list.
    fn input(&self, k: u64) -> u64 {
        cell_seed(self.inputs, k)
    }

    /// Where this run starts in a list of `n` inputs.
    fn start(&self, n: usize) -> usize {
        (mix(self.seed, 0) % n as u64) as usize
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut inputs = INPUT_SEED;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--inputs" => inputs = number()?,
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        inputs,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run measured.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// A whole-run check failed (setup, digest inputs, the trace sum).
    broken: Vec<String>,
    metrics: BTreeMap<String, f64>,
    /// Canonical texts of the first [`DIGEST_INPUTS`] results.
    digest_texts: Vec<String>,
    /// Wall-clock values of normalized metrics, printed as comments.
    raw: Vec<(String, f64)>,
}

impl Outcome {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn raw(&mut self, name: &str, value: f64) {
        self.raw.push((name.to_string(), value));
    }

    /// Counts one op; `ok` is its check.
    fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// A closed-loop op schedule: keeps going until `seconds` have passed and
/// at least `min_ops` ran, stopping only after a whole lap of `lap` ops so
/// that every run times the same mix of inputs.
struct Deadline {
    clock: HostClock,
    end_ns: u64,
    min_ops: usize,
    lap: usize,
}

impl Deadline {
    fn new(clock: HostClock, seconds: u64, min_ops: usize, lap: usize) -> Self {
        Deadline {
            clock,
            end_ns: clock
                .now_ns()
                .saturating_add(seconds.saturating_mul(1_000_000_000)),
            min_ops,
            lap,
        }
    }

    fn more(&self, done: usize) -> bool {
        done < self.min_ops || !done.is_multiple_of(self.lap) || self.clock.now_ns() < self.end_ns
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn med(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0)
}

/// Latencies of ops split by whether their input was new to the process
/// (cold) or a repeat of one already completed (warm).
#[derive(Default)]
struct Latencies {
    cold: Vec<f64>,
    warm: Vec<f64>,
}

impl Latencies {
    fn push(&mut self, cold: bool, ms: f64) {
        if cold {
            self.cold.push(ms);
        } else {
            self.warm.push(ms);
        }
    }

    /// `op_ms_p50`, `warm_ms_p50`, `warm_ms_p99` and `cold_ms_p50`.
    fn metrics(&self) -> [(&'static str, f64); 4] {
        let all: Vec<f64> = self.cold.iter().chain(&self.warm).copied().collect();
        [
            ("op_ms_p50", med(&all)),
            ("warm_ms_p50", med(&self.warm)),
            ("warm_ms_p99", percentile(&self.warm, 99.0).unwrap_or(0.0)),
            ("cold_ms_p50", med(&self.cold)),
        ]
    }

    fn report(&self, out: &mut Outcome) {
        for (name, value) in self.metrics() {
            out.set(name, value);
        }
    }
}

// ------------------------------------------------------- simulation workloads

/// What one simulation op produced.
struct SimOp {
    /// The op's result check.
    ok: bool,
    /// Canonical text of every simulated output, for the digest and the
    /// warm-repeat check.
    text: String,
    /// Simulated seconds the op completed.
    sim_secs: f64,
}

/// The untraced loop shared by detect-sweep and overhead-fig7, over a list
/// of `n` inputs. Setup runs `warm_up` [`SETUP_REPS`] times. The first lap
/// visits every input once (cold); later laps repeat them (warm). The
/// simulator keeps no cache, so a repeat must cost the same and return the
/// identical output. The run ends after a whole lap, so every run times
/// the same inputs. Every timing is scaled by the [`SpeedIndex`] of the
/// reference runs around it.
fn sim_workload(
    args: &Args,
    n: usize,
    warm_up: impl Fn() -> bool,
    op: impl Fn(usize) -> SimOp,
) -> Outcome {
    let clock = HostClock::start();
    let mut speed = SpeedIndex::new(clock);
    let mut out = Outcome::default();
    let (mut setup, mut setup_raw) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let t0 = clock.now_ns();
        if !warm_up() {
            out.broken.push("a warm-up op failed its check".into());
        }
        let secs = (clock.now_ns() - t0) as f64 / 1e9;
        setup.push(secs * speed.factor());
        setup_raw.push(secs);
    }
    out.set("setup_s", med(&setup));
    out.raw("setup_s", med(&setup_raw));
    let deadline = Deadline::new(clock, args.seconds, 2 * n, n);
    let (mut lat, mut raw) = (Latencies::default(), Latencies::default());
    let (mut rates, mut raw_rates) = (Vec::new(), Vec::new());
    let mut cold_texts = vec![String::new(); n];
    let start = args.start(n);
    let mut i = 0;
    while deadline.more(i) {
        let (input, cold) = ((start + i) % n, i < n);
        let t0 = clock.now_ns();
        let done = op(input);
        let took = clock.now_ns() - t0;
        let factor = speed.factor();
        lat.push(cold, ms(took) * factor);
        raw.push(cold, ms(took));
        let secs = took as f64 / 1e9;
        rates.push(done.sim_secs / (secs * factor));
        raw_rates.push(done.sim_secs / secs);
        let same = cold || done.text == cold_texts[input];
        if cold {
            if i < DIGEST_INPUTS {
                out.digest_texts.push(done.text.clone());
            }
            cold_texts[input] = done.text;
        }
        out.op(done.ok && same);
        i += 1;
    }
    lat.report(&mut out);
    out.set("sim_s_per_host_s", med(&rates));
    for (name, value) in raw.metrics() {
        out.raw(name, value);
    }
    out.raw("sim_s_per_host_s", med(&raw_rates));
    out.raw("reference_ms", speed.median_ms());
    out
}

// ---------------------------------------------------------------- detect-sweep

/// One detection cell per op on `juno-r1` at the one-sweep shape, on the
/// next seed of a list of [`DETECT_CELLS`].
fn detect_sweep(args: &Args) -> Outcome {
    let scenario = Scenario::paper();
    if args.trace {
        return detect_traced(args, &scenario);
    }
    sim_workload(
        args,
        DETECT_CELLS,
        || cells::detect_cell(&Scenario::paper(), WARM_UP_SEED).is_ok_and(|r| cells::detect_ok(&r)),
        |cell| match cells::detect_cell(&scenario, args.input(cell as u64)) {
            Ok(r) => SimOp {
                ok: cells::detect_ok(&r),
                text: cells::detect_digest_text(&r),
                sim_secs: r.simulated_secs,
            },
            Err(e) => SimOp {
                ok: false,
                text: e.to_string(),
                sim_secs: 0.0,
            },
        },
    )
}

/// Per-layer sums over the traced ops of a run.
#[derive(Default)]
struct LayerSums {
    /// Every traced op.
    all: RunProfile,
    traced_ops: u64,
    /// The first [`DIGEST_INPUTS`] inputs only: exact counts.
    fixed: RunProfile,
    fixed_inputs: u64,
    fixed_sim_secs: f64,
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    build_ms: Vec<f64>,
    /// Untraced host ns and events, for ns per event.
    untraced_ns: u64,
    untraced_events: u64,
}

impl LayerSums {
    fn traced(&mut self, profile: &RunProfile, fixed: bool, sim_secs: f64) {
        self.all.add(profile);
        self.traced_ops += 1;
        self.traced_ms.push(ms(profile.total_ns));
        self.build_ms.push(ms(profile.build_ns));
        if fixed {
            self.fixed.add(profile);
            self.fixed_inputs += 1;
            self.fixed_sim_secs += sim_secs;
        }
    }

    fn untraced(&mut self, ns: u64, events: u64) {
        self.untraced_ns += ns;
        self.untraced_events += events;
        self.untraced_ms.push(ms(ns));
    }

    /// Fills the sim, event-kind, secure, setup and trace metrics; flags a
    /// run whose layer times fail to add up.
    fn report(&self, out: &mut Outcome) {
        let n = self.fixed_inputs.max(1) as f64;
        let fixed = &self.fixed;
        out.set("sim.events", fixed.sim.total_events() as f64 / n);
        out.set(
            "sim.events_per_sim_s",
            fixed.sim.total_events() as f64 / self.fixed_sim_secs,
        );
        out.set("sim.queue_depth_max", fixed.sim.queue_depth_max as f64);
        out.set(
            "sim.ns_per_event",
            self.untraced_ns as f64 / self.untraced_events as f64,
        );
        let all = &self.all;
        let kinds_ns = all.sim.total_host_ns();
        for (k, kind) in KINDS.iter().enumerate() {
            out.set(&format!("events.{kind}"), fixed.sim.events[k] as f64 / n);
            out.set(
                &format!("host_ns.{kind}"),
                all.sim.host_ns[k] as f64 / self.traced_ops as f64,
            );
            out.set(
                &format!("host_share.{kind}"),
                all.sim.host_ns[k] as f64 / kinds_ns as f64,
            );
        }
        let sec = &all.secure;
        out.set("secure.boot_ms", ms(sec.boot_ns) / self.traced_ops as f64);
        if sec.timer_calls > 0 {
            out.set(
                "secure.timer_us",
                sec.timer_ns as f64 / 1e3 / sec.timer_calls as f64,
            );
        }
        if sec.rounds > 0 {
            out.set(
                "secure.scan_result_us",
                sec.scan_result_ns as f64 / 1e3 / sec.rounds as f64,
            );
            out.set(
                "secure.ns_per_byte",
                sec.scan_result_ns as f64 / sec.bytes_scanned as f64,
            );
        }
        out.set(
            "secure.bytes_scanned",
            fixed.secure.bytes_scanned as f64 / n,
        );
        out.set("secure.rounds", fixed.secure.rounds as f64 / n);
        out.set("attack.observations", fixed.sim.observations as f64 / n);
        out.set("setup.system_build_ms", med(&self.build_ms));
        out.set(
            "trace.overhead_ratio",
            med(&self.traced_ms) / med(&self.untraced_ms),
        );
        let sum_ratio = (kinds_ns + all.build_ns) as f64 / all.total_ns as f64;
        out.set("trace.sum_ratio", sum_ratio);
        if (sum_ratio - 1.0).abs() > SUM_TOLERANCE {
            out.broken
                .push(format!("layer times sum to {sum_ratio:.3} of the op time"));
        }
        out.set("trace.traced_ops", self.traced_ops as f64);
        out.set("trace.untraced_ops", self.untraced_ms.len() as f64);
    }
}

/// The traced detect-sweep run: each cell runs untraced and then traced,
/// and the two must return the same result.
fn detect_traced(args: &Args, scenario: &Scenario) -> Outcome {
    let clock = HostClock::start();
    let mut out = Outcome::default();
    if !cells::detect_cell(scenario, WARM_UP_SEED).is_ok_and(|r| cells::detect_ok(&r)) {
        out.broken.push("the warm-up cell failed its check".into());
    }
    let deadline = Deadline::new(clock, args.seconds, DIGEST_INPUTS, DETECT_CELLS);
    let mut sums = LayerSums::default();
    let mut sessions = 0;
    let start = args.start(DETECT_CELLS);
    let mut cell = 0;
    while deadline.more(cell) {
        let seed = args.input(((start + cell) % DETECT_CELLS) as u64);
        let t0 = clock.now_ns();
        let plain = cells::detect_cell(scenario, seed);
        let took = clock.now_ns() - t0;
        let traced = cells::detect_cell_traced(scenario, seed);
        let ok = match (plain, traced) {
            (Ok(plain), Ok((result, profile))) => {
                let fixed = cell < DIGEST_INPUTS;
                sums.untraced(took, plain.metrics.events_dispatched);
                sums.traced(&profile, fixed, result.simulated_secs);
                let text = cells::detect_digest_text(&plain);
                if fixed {
                    sessions += result.prober_sessions;
                    out.digest_texts.push(text.clone());
                }
                cells::detect_ok(&plain)
                    && text == cells::detect_digest_text(&result)
                    && profile.sim.total_events() == plain.metrics.events_dispatched
            }
            _ => false,
        };
        out.op(ok);
        out.op(ok);
        cell += 1;
    }
    sums.report(&mut out);
    out.set(
        "attack.prober_sessions",
        sessions as f64 / sums.fixed_inputs.max(1) as f64,
    );
    out
}

// --------------------------------------------------------------- overhead-fig7

/// Input `j` of overhead-fig7's list at `tasks` copies: the suite's
/// workloads in order, [`FIG7_LAPS_OF_SUITE`] times over, with run seed
/// `seed`.
fn fig7_row(suite: &[Workload], seed: u64, j: usize, tasks: usize) -> Fig7Row {
    Fig7Row {
        workload: suite[j % suite.len()],
        tasks,
        seed,
    }
}

/// One Fig 7 row: `row_at(tasks)` at 1 and at 6 tasks, each run with SATIN
/// off and then on.
fn fig7_op(row_at: impl Fn(usize) -> Fig7Row) -> SimOp {
    let mut op = SimOp {
        ok: true,
        text: String::new(),
        sim_secs: 0.0,
    };
    for tasks in [1, 6] {
        let r = row_at(tasks);
        let (off, on) = (cells::fig7_half(&r, false), cells::fig7_half(&r, true));
        op.ok &= cells::fig7_ok(off, on);
        op.text.push_str(&cells::fig7_digest_text(&r, off, on));
        op.sim_secs += 2.0 * r.duration().as_secs_f64();
    }
    op
}

/// Workloads of the suite in overhead-fig7's warm-up.
const FIG7_WARM_UP_ROWS: usize = 3;
/// overhead-fig7's list covers the suite this many times (with other run
/// seeds), so that a run's cold lap holds enough ops for a steady median.
const FIG7_LAPS_OF_SUITE: usize = 2;

/// One Fig 7 row per op; the input list is the UnixBench-like suite.
fn overhead_fig7(args: &Args) -> Outcome {
    let suite = satin_workload::unixbench_suite();
    if args.trace {
        return fig7_traced(args, &suite);
    }
    sim_workload(
        args,
        FIG7_LAPS_OF_SUITE * suite.len(),
        || {
            (0..FIG7_WARM_UP_ROWS)
                .all(|j| fig7_op(|tasks| fig7_row(&suite, WARM_UP_SEED, j, tasks)).ok)
        },
        |j| fig7_op(|tasks| fig7_row(&suite, args.input(j as u64), j, tasks)),
    )
}

/// The traced overhead-fig7 run: each row runs untraced (timing the off
/// and on halves) and then traced, and the scores must match.
fn fig7_traced(args: &Args, suite: &[Workload]) -> Outcome {
    let clock = HostClock::start();
    let mut out = Outcome::default();
    let n = FIG7_LAPS_OF_SUITE * suite.len();
    let start = args.start(n);
    let row = |j: usize, tasks: usize| {
        let j = (start + j) % n;
        fig7_row(suite, args.input(j as u64), j, tasks)
    };
    if !fig7_op(|tasks| fig7_row(suite, WARM_UP_SEED, 0, tasks)).ok {
        out.broken.push("the warm-up row failed its check".into());
    }
    let deadline = Deadline::new(clock, args.seconds, DIGEST_INPUTS, n);
    let mut sums = LayerSums::default();
    let (mut off_ms, mut on_ms) = (Vec::new(), Vec::new());
    let mut j = 0;
    while deadline.more(j) {
        let fixed = j < DIGEST_INPUTS;
        let mut ok = true;
        let (mut off_ns, mut on_ns) = (0, 0);
        let mut op = RunProfile::default();
        let mut text = String::new();
        for tasks in [1, 6] {
            let r = row(j, tasks);
            let t0 = clock.now_ns();
            let off = cells::fig7_half(&r, false);
            let t1 = clock.now_ns();
            let on = cells::fig7_half(&r, true);
            off_ns += t1 - t0;
            on_ns += clock.now_ns() - t1;
            let (traced_off, off_profile) = cells::fig7_half_traced(&r, false);
            let (traced_on, on_profile) = cells::fig7_half_traced(&r, true);
            op.add(&off_profile);
            op.add(&on_profile);
            ok &= cells::fig7_ok(off, on) && off == traced_off && on == traced_on;
            text.push_str(&cells::fig7_digest_text(&r, off, on));
        }
        let events = op.sim.total_events();
        sums.untraced(off_ns + on_ns, events);
        sums.traced(&op, fixed, 4.0 * row(j, 1).duration().as_secs_f64());
        off_ms.push(ms(off_ns));
        on_ms.push(ms(on_ns));
        if fixed {
            out.digest_texts.push(text);
        }
        out.op(ok);
        out.op(ok);
        j += 1;
    }
    sums.report(&mut out);
    let (off, on) = (med(&off_ms), med(&on_ms));
    out.set("fig7.off_ms", off);
    out.set("fig7.on_ms", on);
    out.set("fig7.satin_host_share", (on - off) / on);
    out
}

// ----------------------------------------------------------------- serve-mixed

/// Cells in the pre-built store segment.
const FILLER_CELLS: u64 = 100_000;
/// Cold submits made before the measured loop; warm submits replay them.
const POOL: usize = 24;
/// Timed daemon starts; `setup_s` is their median.
const SERVE_SETUP_REPS: u64 = 7;
/// One submit in this many is cold (a fresh seed).
const COLD_EVERY: usize = 20;
/// Rounds per cold cell: the tiny campaign shape.
const SERVE_ROUNDS: usize = 2;
/// The client's think time before each request is uniform below this. It
/// makes requests arrive at a random phase of the daemon's accept-poll
/// sleep, as separate client processes do; with no think time a closed-loop
/// client mostly reconnects before the daemon goes back to sleep, and the
/// poll sleep would show only in the tail.
const THINK_MAX_US: u64 = 4_000;

/// The scenario every serve-mixed submit names: `juno-r1` at the tiny
/// campaign shape.
fn serve_scenario() -> Scenario {
    let mut sc = Scenario::paper();
    sc.campaign.rounds = SERVE_ROUNDS;
    sc.campaign.tgoal = SimDuration::from_millis(9_500);
    sc
}

/// What the daemon's backend did, shared with the client thread.
#[derive(Default)]
struct BackendLog {
    /// Host ns and simulated seconds of each call.
    ns: Vec<u64>,
    sim: Vec<f64>,
    events: u64,
    sim_secs: f64,
    /// Cells whose detection check failed.
    bad_cells: u64,
}

/// Shapes one campaign outcome into the store's cell record, as the
/// `repro serve` daemon does.
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

/// The benchmark's daemon backend: the library's observed fan-out on one
/// worker, timed and checked.
fn backend(
    log: Arc<Mutex<BackendLog>>,
    clock: HostClock,
) -> impl FnMut(&Scenario, &[u64]) -> (Vec<CellRecord>, EventStream) + Send {
    move |sc, seeds| {
        let t0 = clock.now_ns();
        let base = DetectionConfig {
            rounds: sc.campaign.rounds,
            tgoal: sc.campaign.tgoal,
            seed: 0,
            trace: false,
            telemetry: false,
        };
        let obs = CampaignObs::new(&format!("serve/{}", sc.name));
        let (outcomes, stream) =
            detection::run_many_faulted_observed(sc, base, seeds, &CampaignRunner::serial(), &obs);
        let took = clock.now_ns() - t0;
        let mut log = log
            .lock()
            .expect("backend log poisoned by a panicking client");
        log.ns.push(took);
        let sim_secs: f64 = outcomes
            .iter()
            .filter_map(|r| r.value().map(|r| r.simulated_secs))
            .sum();
        log.sim.push(sim_secs);
        for r in &outcomes {
            match r.value() {
                Some(r) => {
                    log.events += r.metrics.events_dispatched;
                    log.sim_secs += r.simulated_secs;
                    let ok = r.rounds == sc.campaign.rounds
                        && r.area14_detections == r.area14_attacked_checks
                        && r.other_area_alarms == 0;
                    log.bad_cells += u64::from(!ok);
                }
                None => log.bad_cells += 1,
            }
        }
        (outcomes.iter().map(cell_record).collect(), stream)
    }
}

/// Writes the filler segment: real-format cells of the same scenario and
/// code under seeds the workload never submits (top bit set).
fn write_filler(path: &Path, scenario: &Scenario) -> Result<(), String> {
    let code = satin_serve::code_fingerprint();
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    for i in 0..FILLER_CELLS {
        let key = JobKey::of(scenario, (1 << 63) | i, code);
        let rec = CellRecord {
            ok: true,
            attempts: 1,
            rounds: SERVE_ROUNDS as u64,
            detections: i % 2,
            faults_injected: 0,
            error: String::new(),
        };
        writeln!(w, "{}", record_line(&key, &rec)).map_err(|e| e.to_string())?;
    }
    w.flush().map_err(|e| e.to_string())
}

/// Pings until the daemon answers; host seconds waited. Gives up when the
/// daemon thread has ended (`ended` says so) or after 60 s.
fn wait_for_daemon(
    socket: &Path,
    clock: HostClock,
    ended: impl Fn() -> bool,
) -> Result<f64, String> {
    let t0 = clock.now_ns();
    while satin_serve::ping(socket).is_err() {
        if ended() || clock.now_ns() - t0 > 60_000_000_000 {
            return Err("the daemon did not come up".into());
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    Ok((clock.now_ns() - t0) as f64 / 1e9)
}

/// A scratch directory under `perfbench/work/`, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<Self, String> {
        let dir = PathBuf::from(format!("perfbench/work/{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A `satin-serve` daemon on a thread, one closed-loop client on the main
/// thread. Setup pre-builds a large store segment, then starts the daemon
/// (timed until it answers a ping) and makes [`POOL`] cold submits. The
/// measured loop replays those (warm: answered from the store) with one
/// fresh seed in every [`COLD_EVERY`] submits (cold: simulated, appended).
fn serve_mixed(args: &Args) -> Result<Outcome, String> {
    let clock = HostClock::start();
    let mut out = Outcome::default();
    let work = WorkDir::new()?;
    let store = work.0.join("store.jsonl");
    let socket = work.0.join("daemon.sock");
    let scenario = serve_scenario();
    write_filler(&store, &scenario)?;
    if args.trace {
        let t0 = clock.now_ns();
        let opened = ResultStore::open(&store)?;
        out.set("serve.store_open_s", (clock.now_ns() - t0) as f64 / 1e9);
        out.set("serve.store_cells", opened.len() as f64);
    }
    let log = Arc::new(Mutex::new(BackendLog::default()));
    std::thread::scope(|s| -> Result<(), String> {
        let start = || {
            let daemon =
                s.spawn(|| satin_serve::serve(&socket, &store, backend(Arc::clone(&log), clock)));
            match wait_for_daemon(&socket, clock, || daemon.is_finished()) {
                Ok(secs) => Ok((daemon, secs)),
                Err(e) if daemon.is_finished() => Err(match daemon.join() {
                    Ok(Err(daemon_error)) => daemon_error,
                    _ => e,
                }),
                Err(e) => Err(e),
            }
        };
        let stop = |daemon: std::thread::ScopedJoinHandle<'_, Result<(), String>>| {
            satin_serve::shutdown(&socket)?;
            daemon
                .join()
                .map_err(|_| "daemon thread panicked".to_string())?
        };
        // Opening the store is CPU work, so setup is normalized like the
        // simulation workloads' times; the submits below are wall time.
        let mut speed = SpeedIndex::new(clock);
        let reps = if args.trace { 1 } else { SERVE_SETUP_REPS };
        let (mut setup, mut setup_raw) = (Vec::new(), Vec::new());
        let mut daemon = None;
        for _ in 0..reps {
            if let Some(running) = daemon.take() {
                stop(running)?;
                speed.restart();
            }
            let (running, secs) = start()?;
            daemon = Some(running);
            setup.push(secs * speed.factor());
            setup_raw.push(secs);
        }
        out.set("setup_s", med(&setup));
        out.raw("setup_s", med(&setup_raw));
        let daemon = daemon.expect("at least one setup repetition");
        let result = serve_loop(args, &scenario, &socket, &log, &mut speed, &mut out);
        stop(daemon)?;
        result
    })?;
    Ok(out)
}

/// The serve-mixed pool fill and measured loop.
fn serve_loop(
    args: &Args,
    scenario: &Scenario,
    socket: &Path,
    log: &Mutex<BackendLog>,
    speed: &mut SpeedIndex,
    out: &mut Outcome,
) -> Result<(), String> {
    let clock = speed.clock();
    let snapshot = || {
        let log = log
            .lock()
            .expect("backend log poisoned by a panicking daemon");
        (log.ns.len(), log.events, log.sim_secs, log.bad_cells)
    };
    let mut pool: Vec<(u64, String)> = Vec::new();
    // Cold seeds run through the input list in order, so every run
    // simulates the same cells.
    let mut fresh = 0u64;
    // A cold submit passes when the daemon simulated the seed, reported it
    // ok, and the backend's detection check held.
    let mut cold_submit = |pool: &mut Vec<(u64, String)>| -> Result<bool, String> {
        let seed = args.input(fresh);
        fresh += 1;
        let bad_before = snapshot().3;
        let reply = satin_serve::submit(socket, scenario, &[seed], |_| {})?;
        let ok = reply.fresh == 1
            && reply.report.contains("1 cell(s), 1 ok, 0 failed")
            && snapshot().3 == bad_before;
        pool.push((seed, reply.report));
        Ok(ok)
    };
    for _ in 0..POOL {
        if !cold_submit(&mut pool)? {
            out.broken.push("a pool cell failed".into());
        }
    }
    out.digest_texts = pool
        .iter()
        .take(DIGEST_INPUTS)
        .map(|(seed, report)| format!("{seed}\n{report}"))
        .collect();
    let (_, pool_events, pool_sim, _) = snapshot();

    let deadline = Deadline::new(clock, args.seconds, COLD_EVERY, COLD_EVERY);
    let mut lat = Latencies::default();
    let (mut cold_factors, mut cold_wall) = (Vec::new(), Vec::new());
    let (mut ping_ms, mut event_lines) = (Vec::new(), 0usize);
    let (mut hits, mut cells) = (0usize, 0usize);
    let (mut warm_next, mut i) = (args.start(POOL), 0);
    let before = snapshot();
    let mut thinks = 0u64;
    let mut think = || {
        thinks += 1;
        let us = mix(!args.seed, thinks) % THINK_MAX_US;
        std::thread::sleep(std::time::Duration::from_micros(us));
    };
    while deadline.more(i) {
        if args.trace {
            think();
            let t0 = clock.now_ns();
            satin_serve::ping(socket)?;
            ping_ms.push(ms(clock.now_ns() - t0));
        }
        let cold = i % COLD_EVERY == COLD_EVERY - 1;
        think();
        if cold {
            speed.restart();
        }
        let t0 = clock.now_ns();
        let (ok, reply_hits, events) = if cold {
            let ok = cold_submit(&mut pool)?;
            (ok, 0, None)
        } else {
            let (seed, report) = &pool[warm_next % pool.len()];
            warm_next += 1;
            let reply = satin_serve::submit(socket, scenario, &[*seed], |_| {})?;
            let ok = reply.hits == 1 && reply.report == *report;
            (ok, reply.hits, Some(reply.events))
        };
        let took = ms(clock.now_ns() - t0);
        if cold {
            // A cold submit is CPU work on the daemon's thread: normalized.
            let factor = speed.factor();
            cold_factors.push(factor);
            lat.push(cold, took * factor);
            cold_wall.push(took);
        } else {
            lat.push(cold, took);
        }
        if i < COLD_EVERY {
            event_lines += events.unwrap_or(0);
        }
        hits += reply_hits;
        cells += 1;
        out.op(ok);
        i += 1;
    }
    let after = snapshot();
    lat.report(out);
    let log = log
        .lock()
        .expect("backend log poisoned by a panicking daemon");
    // One backend call per cold submit, in order.
    let calls = log.ns[before.0..].iter().zip(&log.sim[before.0..]);
    let (mut sim, mut host, mut wall) = (0.0, 0.0, 0.0);
    for ((&ns, &secs), factor) in calls.zip(&cold_factors) {
        sim += secs;
        host += ns as f64 / 1e9 * factor;
        wall += ns as f64 / 1e9;
    }
    out.set("sim_s_per_host_s", sim / host);
    out.raw("sim_s_per_host_s", sim / wall);
    out.raw("cold_ms_p50", med(&cold_wall));
    if args.trace {
        let backend_ms: Vec<f64> = log.ns[before.0..].iter().map(|&n| ms(n)).collect();
        let ping = med(&ping_ms);
        out.set("serve.ping_ms_p50", ping);
        out.set("serve.warm_job_ms", med(&lat.warm) - ping);
        out.set("serve.backend_ms", med(&backend_ms));
        out.set("serve.cold_overhead_ms", med(&cold_wall) - med(&backend_ms));
        out.set(
            "serve.event_lines",
            event_lines as f64 / (COLD_EVERY - 1) as f64,
        );
        out.set("serve.hit_ratio", hits as f64 / cells as f64);
        out.set("serve.cells", cells as f64);
        out.set("sim.events", pool_events as f64 / POOL as f64);
        out.set("sim.events_per_sim_s", pool_events as f64 / pool_sim);
        out.set(
            "sim.ns_per_event",
            log.ns[before.0..].iter().sum::<u64>() as f64 / (after.1 - before.1) as f64,
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------- output

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host lane: toolchain, CPU model and hardware threads.
fn host_lane() -> (String, String, usize) {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (rustc, cpu, nproc)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", satin_telemetry::json_escape(s))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload detect-sweep|overhead-fig7|serve-mixed \
                 --seed N --seconds S --trace 0|1 [--inputs N]"
            );
            std::process::exit(2);
        }
    };
    let (rustc, cpu, nproc) = host_lane();
    println!("# host rustc={rustc:?} cpu={cpu:?} nproc={nproc}");
    println!(
        "# workload={} seed={} inputs={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.inputs,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = match args.workload.as_str() {
        "detect-sweep" => Ok(detect_sweep(&args)),
        "overhead-fig7" => Ok(overhead_fig7(&args)),
        "serve-mixed" => serve_mixed(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    out.set("peak_rss_mb", peak_rss_mb());
    if out.digest_texts.len() < DIGEST_INPUTS {
        out.broken
            .push("fewer results than the digest covers".into());
    }
    println!(
        "# digest {}={:016x} over the first {} results",
        args.workload,
        digest(out.digest_texts.iter().map(String::as_str)),
        out.digest_texts.len()
    );
    for (name, value) in &out.raw {
        println!("# wall-clock {name} = {value}");
    }
    for why in &out.broken {
        println!("# check failed: {why}");
    }
    let names: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let mut fields = Vec::new();
    for (name, unit) in &names {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        println!("# {name:<26} {value:>16.6} {unit}");
        fields.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    // Measured along the way but reported by the other kind of run.
    for (name, value) in &out.metrics {
        if !names.iter().any(|(n, _)| n == name) {
            println!("# also {name} = {value}");
        }
    }
    let correct = out.failed == 0 && out.broken.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(",")
    );
}
