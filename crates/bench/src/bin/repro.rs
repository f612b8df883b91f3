//! Regenerates every table and figure of the SATIN paper (DSN 2019).
//!
//! ```text
//! repro [--full] [--seed N] [--jobs N] [--metrics]
//!       [--trace-out FILE] [--metrics-json FILE] [experiment ...]
//! ```
//!
//! `repro --help` lists the experiments in run order (the `EXPERIMENTS`
//! table below is the one list); `grid` and `faults` run only by name, the
//! rest also under `all` (the default). The service commands `serve submit
//! ping shutdown` replace the experiments when given. Any other word is an
//! error (exit 2). `--full` runs
//! paper-scale round counts (slow: several minutes of simulation); the
//! default is a quick mode that preserves every shape. `--jobs N` fans
//! independent campaigns across N worker threads (0 = one per hardware
//! thread); every aggregate is identical for any job count. `--metrics`
//! additionally prints the machine's per-subsystem counters and trace-log
//! health.
//!
//! `--trace-out FILE` writes one fully-instrumented SATIN-vs-TZ-Evader race
//! as Chrome `trace_event` JSON (open at `ui.perfetto.dev`);
//! `--metrics-json FILE` writes the merged campaign telemetry (histograms,
//! span counts) as deterministic JSON — byte-identical for any `--jobs`.
//! Either flag implies the `telemetry` experiment when none are listed.
//!
//! `--analyze` (or the `analysis` experiment) re-runs the detection campaign
//! with the `satin-analyze` happens-before race detector attached and audits
//! the recorded mark log against the paper's Eq.1/Eq.2 closed forms; the
//! process exits nonzero if any violation or nonzero residual is found, so
//! CI can gate on it.
//!
//! `--scenario NAME|FILE` swaps the Juno r1 defaults for a named built-in
//! scenario (see `--scenario-list`) or a descriptor file parsed by
//! `satin-scenario`; `table1 switch recover detection telemetry` all run on
//! the selected platform/attack/defense profile. The `grid` experiment
//! sweeps the detection campaign over every built-in scenario (or just the
//! selected one) into a comparative report; it is not part of `all`.
//!
//! `--faults NAME|FILE` attaches a fault plan (built-in `none`/`smoke`/
//! `chaos`, or a `[faults]` descriptor file) to the selected scenario. The
//! `faults` experiment runs the detection campaign over seeds {7, 42, 1009}
//! under each plan of the fault axis (the attached plan, or all built-ins
//! when none was given) through the salvaging runner: an aborted seed is
//! reported as a structured `failed` row — with its error, after its
//! retries — instead of killing the batch, and the report is byte-identical
//! for any `--jobs`. Neither flag nor experiment is part of `all`.
//!
//! The campaign-service commands (`satin-serve`) replace experiments when
//! given: `repro serve --socket S --store F` runs the job daemon (campaigns
//! fold through this process's runner; finished cells persist in the
//! content-addressed store); `repro submit --socket S [--seeds 7,42]`
//! submits the selected scenario + fault plan and prints the report —
//! cached cells replay byte-identically without simulating. `ping` and
//! `shutdown` round out the client. Submit's stdout is exactly the job
//! report, so warm and cold runs can be `cmp`-ed.

use satin_bench::detection::{self, DetectionConfig, DetectionResult};
use satin_bench::{
    ablation, fig7, race, recover, switch, table1, table2, threshold_sweep, userprober,
    CampaignRunner, ScenarioGrid, SeedOutcome, DEFAULT_SEED,
};
use satin_obs::{CampaignObs, EventStream, ObsEvent, PhaseTimer, ProgressRenderer};
use satin_scenario::{FaultPlan, Scenario};
use satin_sim::SimDuration;
use satin_stats::table::{Align, Table};
use satin_stats::{chart, fmt_percent, fmt_sci, FiveNumber};

/// What the experiments hand back to `main`.
#[derive(Default)]
struct Run {
    /// Canonical campaign events of the observed experiments (faults,
    /// telemetry), written as one JSONL stream at exit. Merging at the end
    /// keeps sequence numbers gapless across campaigns.
    events: Vec<ObsEvent>,
    /// A gate failed: the process exits nonzero after the last experiment.
    failed: bool,
}

type Experiment = fn(&Opts, &mut Run);

/// Every experiment, in run order: the words that select it, whether `all`
/// includes it, and its body. `grid` is a cross-scenario sweep and `faults`
/// a fault campaign, not paper artifacts, so `all` skips them.
const EXPERIMENTS: [(&[&str], bool, Experiment); 21] = [
    (&["table1"], true, |o, _| run_table1(o)),
    (&["switch"], true, |o, _| run_switch(o)),
    (&["recover"], true, |o, _| run_recover(o)),
    (&["table2", "fig4"], true, |o, _| run_table2_fig4(o)),
    (&["affinity"], true, |o, _| run_affinity(o)),
    (&["race"], true, |o, _| run_race(o)),
    (&["detection"], true, run_detection),
    (&["fig7"], true, |o, _| run_fig7(o)),
    (&["baseline"], true, |o, _| run_baseline(o)),
    (&["areasweep"], true, |o, _| run_areasweep(o)),
    (&["userprober"], true, |o, _| run_userprober(o)),
    (&["preemption"], true, |o, _| run_preemption(o)),
    (&["portability"], true, |o, _| run_portability(o)),
    (&["threshold"], true, |o, _| run_threshold(o)),
    (&["predictor"], true, |o, _| run_predictor(o)),
    (&["remediation"], true, |o, _| run_remediation(o)),
    (&["kprobertrace"], true, |o, _| run_kprober_trace(o)),
    (&["telemetry"], true, run_telemetry),
    (&["grid"], false, |o, _| run_grid(o)),
    (&["faults"], false, run_faults),
    (&["analysis"], true, run_analysis),
];

/// The campaign-service commands; they replace the experiments when given.
const SERVICE_COMMANDS: [&str; 4] = ["serve", "submit", "ping", "shutdown"];

/// Every word `repro` accepts in place of a flag: the experiments, `all`,
/// and the campaign-service commands. Anything else is rejected by
/// `parse_args`.
fn words() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS
        .iter()
        .flat_map(|(names, _, _)| names.iter().copied())
        .chain(["all"])
        .chain(SERVICE_COMMANDS)
}

/// Capacity of the live event channel behind `--progress`. Overflow drops
/// progress frames (counted), never canonical events.
const LIVE_CHANNEL_CAPACITY: usize = 4096;

struct Opts {
    full: bool,
    seed: u64,
    jobs: usize,
    metrics: bool,
    /// Render a live progress line (stderr) for observed campaigns.
    progress: bool,
    trace_out: Option<String>,
    metrics_json: Option<String>,
    /// `--events-out` target for the merged campaign event stream (JSONL).
    events_out: Option<String>,
    /// The selected scenario (Juno r1 paper defaults unless `--scenario`).
    scenario: Scenario,
    /// True when `--scenario` was given explicitly.
    scenario_set: bool,
    /// True when `--faults` was given explicitly (the plan itself lives in
    /// `scenario.faults`).
    faults_set: bool,
    /// The `--faults` argument as given (plan name or file path), used to
    /// label the campaign's event stream.
    faults_name: Option<String>,
    /// `--socket` path for the campaign-service commands.
    socket: Option<String>,
    /// `--store` path for `repro serve`'s result store segment.
    store: Option<String>,
    /// `--seeds` list for `repro submit` (default: the fault seeds).
    seeds: Option<Vec<u64>>,
    experiments: Vec<String>,
}

impl Opts {
    fn runner(&self) -> CampaignRunner {
        CampaignRunner::new(self.jobs)
    }

    /// The detection campaign's base config at this run's scale.
    fn base(&self) -> DetectionConfig {
        if self.full {
            DetectionConfig::paper(self.seed)
        } else {
            DetectionConfig::quick(self.seed)
        }
    }
}

/// Resolves `--scenario`'s argument: a built-in name first, then a
/// descriptor file.
fn load_scenario(arg: &str) -> Scenario {
    if let Some(sc) = satin_scenario::builtin(arg) {
        return sc;
    }
    let text = std::fs::read_to_string(arg).unwrap_or_else(|e| {
        die(&format!(
            "--scenario {arg}: not a built-in (see --scenario-list) and not a readable file: {e}"
        ))
    });
    satin_scenario::parse_scenario(&text).unwrap_or_else(|e| die(&format!("--scenario {arg}: {e}")))
}

/// Resolves `--faults`'s argument: a built-in plan name first, then a
/// `[faults]` descriptor file.
fn load_fault_plan(arg: &str) -> FaultPlan {
    if let Some(plan) = satin_scenario::builtin_fault_plan(arg) {
        return plan;
    }
    let text = std::fs::read_to_string(arg).unwrap_or_else(|e| {
        die(&format!(
            "--faults {arg}: not a built-in (none, smoke, chaos) and not a readable file: {e}"
        ))
    });
    satin_scenario::parse_fault_plan(&text).unwrap_or_else(|e| die(&format!("--faults {arg}: {e}")))
}

fn print_scenario_list() {
    println!("built-in scenarios (usable as `--scenario NAME`):");
    for sc in satin_scenario::builtins() {
        println!(
            "  {:<16} {:<12} {}",
            sc.name,
            sc.platform.topology_label(),
            sc.summary
        );
    }
}

fn parse_args() -> Opts {
    let mut full = false;
    let mut seed = DEFAULT_SEED;
    let mut jobs = 1;
    let mut metrics = false;
    let mut analyze = false;
    let mut progress = false;
    let mut trace_out = None;
    let mut metrics_json = None;
    let mut events_out = None;
    let mut scenario = None;
    let mut faults: Option<(String, FaultPlan)> = None;
    let mut socket = None;
    let mut store = None;
    let mut seeds = None;
    let mut experiments = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scenario" => {
                let arg = args
                    .next()
                    .unwrap_or_else(|| die("--scenario needs a built-in name or a file path"));
                scenario = Some(load_scenario(&arg));
            }
            "--scenario-list" => {
                print_scenario_list();
                std::process::exit(0);
            }
            "--faults" => {
                let arg = args.next().unwrap_or_else(|| {
                    die("--faults needs a built-in plan name (none, smoke, chaos) or a file path")
                });
                let plan = load_fault_plan(&arg);
                faults = Some((arg, plan));
            }
            "--full" => full = true,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--jobs needs a number (0 = all hardware threads)"));
            }
            "--metrics" => metrics = true,
            "--analyze" => analyze = true,
            "--progress" => progress = true,
            "--trace-out" => {
                trace_out = Some(
                    args.next()
                        .unwrap_or_else(|| die("--trace-out needs a file path")),
                );
            }
            "--events-out" => {
                events_out = Some(
                    args.next()
                        .unwrap_or_else(|| die("--events-out needs a file path")),
                );
            }
            "--metrics-json" => {
                metrics_json = Some(
                    args.next()
                        .unwrap_or_else(|| die("--metrics-json needs a file path")),
                );
            }
            "--socket" => {
                socket = Some(
                    args.next()
                        .unwrap_or_else(|| die("--socket needs a unix socket path")),
                );
            }
            "--store" => {
                store = Some(
                    args.next()
                        .unwrap_or_else(|| die("--store needs a file path")),
                );
            }
            "--seeds" => {
                let list = args
                    .next()
                    .unwrap_or_else(|| die("--seeds needs a comma-separated list of numbers"));
                let parsed: Vec<u64> = list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| die(&format!("--seeds: bad seed {s:?}")))
                    })
                    .collect();
                if parsed.is_empty() {
                    die("--seeds needs at least one seed");
                }
                seeds = Some(parsed);
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--full] [--seed N] [--jobs N] [--metrics] [--analyze] \
                     [--progress] [--scenario NAME|FILE] [--scenario-list] [--faults NAME|FILE] \
                     [--trace-out FILE] [--metrics-json FILE] [--events-out FILE] \
                     [--socket PATH] [--store PATH] [--seeds N,N,...] [EXPERIMENT ...]\n\
                     experiments: {}",
                    words().collect::<Vec<_>>().join(" ")
                );
                std::process::exit(0);
            }
            other if words().any(|w| w == other) => experiments.push(other.to_string()),
            other if !other.starts_with('-') => {
                die(&format!("unknown experiment {other:?} (see --help)"))
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    if analyze {
        // --analyze adds the analysis gate to whatever else runs.
        experiments.push("analysis".to_string());
    }
    if experiments.is_empty() {
        // Bare --trace-out/--metrics-json means "give me the telemetry
        // artifacts", not "run everything"; bare --faults likewise means
        // "run the fault campaign".
        if trace_out.is_some() || metrics_json.is_some() {
            experiments.push("telemetry".to_string());
        } else if faults.is_some() || events_out.is_some() {
            // Bare --events-out means "give me the campaign event stream";
            // the fault campaign is the canonical observed experiment.
            experiments.push("faults".to_string());
        } else {
            experiments.push("all".to_string());
        }
    }
    let scenario_set = scenario.is_some();
    let faults_set = faults.is_some();
    let mut faults_name = None;
    let mut scenario = scenario.unwrap_or_else(Scenario::paper);
    if let Some((name, plan)) = faults {
        scenario.faults = plan;
        faults_name = Some(name);
    }
    Opts {
        full,
        seed,
        jobs,
        metrics,
        progress,
        trace_out,
        metrics_json,
        events_out,
        scenario,
        scenario_set,
        faults_set,
        faults_name,
        socket,
        store,
        seeds,
        experiments,
    }
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

fn main() {
    let opts = parse_args();
    // The campaign-service commands replace the experiments — and skip the
    // banner: `repro submit`'s stdout is exactly the job report, so warm
    // and cold replies can be byte-compared.
    if let Some(cmd) = SERVICE_COMMANDS
        .into_iter()
        .find(|c| opts.experiments.iter().any(|e| e == c))
    {
        std::process::exit(run_service(&opts, cmd));
    }
    println!(
        "SATIN reproduction — seed {} — {} mode — {} worker(s)\n",
        opts.seed,
        if opts.full {
            "full (paper-scale)"
        } else {
            "quick"
        },
        opts.runner().jobs()
    );
    let all = opts.experiments.iter().any(|e| e == "all");
    let mut run = Run::default();
    for (names, in_all, experiment) in EXPERIMENTS {
        if (in_all && all) || opts.experiments.iter().any(|e| names.contains(&e.as_str())) {
            experiment(&opts, &mut run);
        }
    }
    if let Some(path) = &opts.events_out {
        let mut stream = EventStream::new();
        for e in run.events {
            stream.push(e);
        }
        std::fs::write(path, stream.to_jsonl())
            .unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        // Stderr: stdout is byte-compared across --jobs and this line is
        // the only host-facing confirmation.
        eprintln!("wrote {} campaign events to {path}", stream.len());
    }
    if run.failed {
        std::process::exit(1);
    }
}

fn run_grid(o: &Opts) {
    let mut grid = if o.scenario_set {
        ScenarioGrid::new(vec![o.scenario.clone()], o.seed)
    } else {
        ScenarioGrid::builtins(o.seed)
    };
    for sc in &mut grid.scenarios {
        if !sc.faults.is_empty() {
            // The grid's runner has no salvage path; the `faults`
            // experiment is the fault-aware sweep.
            println!("   (note: grid ignores the fault plan; use the `faults` experiment)");
            sc.faults = FaultPlan::default();
        }
    }
    if !o.full {
        // --full honours each scenario's declared shape.
        grid = grid.quick();
    }
    let campaigns: usize = grid.scenarios.iter().map(|s| s.campaign.seeds).sum();
    println!(
        "== Grid sweep: detection campaign across {} scenario(s), {} campaigns ==",
        grid.scenarios.len(),
        campaigns
    );
    print!("{}", grid.run(&o.runner()));
    println!();
}

/// The fault campaign's canonical seeds: 42 is the seed the built-in
/// `smoke`/`chaos` plans abort, 7 and 1009 prove its neighbours survive.
const FAULT_SEEDS: [u64; 3] = [7, 42, 1009];

/// Dispatches one campaign-service command (`serve`, `submit`, `ping`,
/// `shutdown`); the return value is the process exit code.
fn run_service(o: &Opts, cmd: &str) -> i32 {
    let socket = o
        .socket
        .as_deref()
        .unwrap_or_else(|| die(&format!("`{cmd}` needs --socket PATH")));
    let socket = std::path::Path::new(socket);
    let outcome = match cmd {
        "serve" => run_serve(o, socket),
        "submit" => run_submit(o, socket),
        "ping" => satin_serve::ping(socket),
        "shutdown" => satin_serve::shutdown(socket),
        other => die(&format!("unknown service command {other}")),
    };
    match outcome {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("repro {cmd}: {e}");
            1
        }
    }
}

/// `repro serve`: the job daemon. Its backend folds each missing seed
/// through the salvaging campaign runner, exactly like the `faults`
/// experiment — the campaign shape (rounds, tgoal) comes from the submitted
/// scenario itself, so it is part of the cell's content address.
fn run_serve(o: &Opts, socket: &std::path::Path) -> Result<(), String> {
    let store = o
        .store
        .as_deref()
        .unwrap_or_else(|| die("`serve` needs --store PATH"));
    let runner = o.runner();
    satin_serve::serve(socket, std::path::Path::new(store), |sc, seeds| {
        detection::serve_cells(sc, seeds, &runner)
    })
}

/// `repro submit`: sends the selected scenario + fault plan to the daemon
/// and prints the report. Quick mode shrinks the campaign shape
/// client-side (the shape is content-addressed, so client and daemon
/// cannot disagree about what was run).
fn run_submit(o: &Opts, socket: &std::path::Path) -> Result<(), String> {
    let mut sc = o.scenario.clone();
    if !o.full {
        // One sweep of the 19 areas — the same quick shape the grid sweep
        // uses; the smoke plan's sim-6s abort still lands inside it.
        sc.campaign.rounds = 19;
        sc.campaign.tgoal = SimDuration::from_millis(9_500);
    }
    let seeds = o.seeds.clone().unwrap_or_else(|| FAULT_SEEDS.to_vec());
    let progress = o.progress;
    let reply = satin_serve::submit(socket, &sc, &seeds, |line| {
        if progress {
            eprintln!("{line}");
        }
    })?;
    // Stdout carries the report alone; cache telemetry is host-facing.
    print!("{}", reply.report);
    eprintln!(
        "submit: {} cell(s) — {} cache hit(s), {} fresh, {} event line(s)",
        seeds.len(),
        reply.hits,
        reply.fresh,
        reply.events
    );
    Ok(())
}

/// Runs the observed fan-out over `seeds` and adds its canonical events to
/// `run`; with `--progress`, a live progress line renders on stderr.
fn observed(
    o: &Opts,
    label: &str,
    sc: &Scenario,
    base: DetectionConfig,
    seeds: &[u64],
    run: &mut Run,
) -> Vec<SeedOutcome<DetectionResult>> {
    // Canonical events always; the live channel (worker ids, host times)
    // only when someone is watching.
    let (obs, renderer) = if o.progress {
        let (obs, rx) = CampaignObs::with_live(label, LIVE_CHANNEL_CAPACITY);
        (obs, Some(ProgressRenderer::spawn(rx, true)))
    } else {
        (CampaignObs::new(label), None)
    };
    let (outcomes, stream) =
        detection::run_many_faulted_observed(sc, base, seeds, &o.runner(), &obs);
    if let Some(renderer) = renderer {
        // Capture the drop count, then drop the observer — closing the
        // last live sender is what lets the drain thread exit.
        let dropped = obs.live_dropped();
        drop(obs);
        eprint!("{}", renderer.finish(dropped).render());
    }
    run.events.extend(stream.events().iter().cloned());
    outcomes
}

fn run_faults(o: &Opts, run: &mut Run) {
    let mut timer = PhaseTimer::start();
    timer.phase("assemble");
    // The fault axis: the attached plan when `--faults` (or the scenario
    // file) gave one, otherwise every built-in plan. The plan name labels
    // the campaign's event stream (`faults/<name>`).
    let plans: Vec<(String, FaultPlan)> = if o.faults_set || !o.scenario.faults.is_empty() {
        let name = o.faults_name.clone().unwrap_or_else(|| "selected".into());
        vec![(name, o.scenario.faults)]
    } else {
        ["none", "smoke", "chaos"]
            .into_iter()
            .map(|n| {
                let plan = satin_scenario::builtin_fault_plan(n).expect("built-in fault plan");
                (n.to_string(), plan)
            })
            .collect()
    };
    let base = o.base();
    println!(
        "== Fault campaign: detection under injected faults ({} plan(s) x seeds {:?}) ==",
        plans.len(),
        FAULT_SEEDS
    );
    println!("   (failed seeds salvage as rows, not panics; byte-identical for any --jobs)");
    let mut t = Table::new(vec![
        "Plan".into(),
        "Seed".into(),
        "Outcome".into(),
        "Attempts".into(),
        "Rounds".into(),
        "Detected".into(),
        "Faults".into(),
        "Error".into(),
    ]);
    for c in 1..=6 {
        t.align(c, Align::Right);
    }
    timer.phase("simulate");
    let mut salvaged = 0usize;
    for (name, plan) in &plans {
        let mut sc = o.scenario.clone();
        sc.faults = *plan;
        let label = format!("faults/{name}");
        for out in &observed(o, &label, &sc, base, &FAULT_SEEDS, run) {
            salvaged += out.is_failed() as usize;
            let (status, rounds, detected, faults) = match out.value() {
                Some(r) => (
                    "ok",
                    r.rounds.to_string(),
                    r.area14_detections.to_string(),
                    r.metrics.faults_injected().to_string(),
                ),
                None => ("FAILED", "-".into(), "-".into(), "-".into()),
            };
            t.row(vec![
                name.to_string(),
                out.seed().to_string(),
                status.into(),
                out.attempts().to_string(),
                rounds,
                detected,
                faults,
                out.error().unwrap_or("-").to_string(),
            ]);
        }
    }
    timer.phase("analyze");
    println!("{t}");
    println!(
        "{} campaign(s), {} salvaged as failed rows\n",
        plans.len() * FAULT_SEEDS.len(),
        salvaged
    );
    timer.stop();
    if o.progress {
        eprintln!("{}", timer.render());
    }
}

fn run_analysis(o: &Opts, r: &mut Run) {
    use satin_bench::analysis;
    let base = o.base();
    println!(
        "== Analysis: happens-before race detection + Eq.1/Eq.2 audit \
         ({} rounds, seed {}) ==",
        base.rounds, o.seed
    );
    let run = analysis::analyze_campaign(base);
    print!("{}", run.render());
    if run.is_clean() {
        println!("analysis: CLEAN\n");
    } else {
        println!("analysis: FAILED\n");
        r.failed = true;
    }
}

fn run_telemetry(o: &Opts, run: &mut Run) {
    use satin_bench::telemetry_report::{run_traced_race_scenario, TelemetryReport};
    println!("== Telemetry: span timelines and campaign histograms ==");
    let horizon = SimDuration::from_secs(if o.full { 30 } else { 8 });
    let race = run_traced_race_scenario(&o.scenario, o.seed, horizon);
    println!(
        "traced race: seed {}, {:.0} s horizon, {} spans / {} instants, {} publications",
        o.seed,
        horizon.as_secs_f64(),
        race.timeline.len(),
        race.timeline.instants().len(),
        race.metrics.publications
    );
    if let Some(path) = &o.trace_out {
        std::fs::write(path, race.chrome_trace())
            .unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        println!("wrote Chrome trace_event JSON to {path} (open at ui.perfetto.dev)");
    }
    // Campaign aggregates: a small fleet through the shared runner, so the
    // merged report — and its JSON — is byte-identical for any --jobs.
    let mut base = o.base();
    base.telemetry = true;
    let seeds: Vec<u64> = (0..3).map(|i| o.seed.wrapping_add(i)).collect();
    // The fleet keeps the scenario's fault plan: failed seeds salvage as
    // retry/salvage counters instead of killing the merge, and the fault
    // counters surface in the JSON.
    let outcomes = observed(o, "telemetry", &o.scenario, base, &seeds, run);
    let report = TelemetryReport::of_salvaged(&outcomes, |r| &r.metrics);
    print!("{report}");
    if let Some(path) = &o.metrics_json {
        std::fs::write(path, report.to_json())
            .unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        println!("wrote merged telemetry JSON to {path}");
    }
    println!();
}

fn run_kprober_trace(o: &Opts) {
    use satin_scenario::ProberKind;
    let rounds = if o.full { 120 } else { 40 };
    println!("== §III-C1: KProber-I's own traces vs SATIN ==");
    println!("   (the hijacked IRQ vector entry lives in monitored area 0)");
    let mut t = Table::new(vec![
        "Prober".into(),
        "Vector-area alarms".into(),
        "Syscall-area alarms".into(),
    ]);
    for c in 1..=2 {
        t.align(c, Align::Right);
    }
    for (variant, label) in [
        (ProberKind::KProberI, "KProber-I"),
        (ProberKind::KProberII, "KProber-II"),
    ] {
        let (vec_alarms, sys_alarms) =
            ablation::kprober_trace_detection(variant, rounds, SimDuration::from_secs(10), o.seed);
        t.row(vec![
            label.to_string(),
            vec_alarms.to_string(),
            sys_alarms.to_string(),
        ]);
    }
    println!("{t}");
}

fn run_remediation(o: &Opts) {
    use satin_core::{Satin, SatinConfig};
    use satin_sim::SimTime;
    println!("== Extension: alarm remediation (RKP-style golden-copy repair) ==");
    println!("   (a persistent, non-hiding hijack; SATIN report-only vs remediate)");
    let horizon = if o.full { 40 } else { 10 };
    let mut t = Table::new(vec![
        "Mode".into(),
        "Alarms".into(),
        "Repairs".into(),
        "Hijack uptime".into(),
    ]);
    for c in 1..=3 {
        t.align(c, Align::Right);
    }
    for remediate in [false, true] {
        let mut cfg = SatinConfig::paper();
        cfg.tgoal = SimDuration::from_millis(1900); // tp = 100 ms
        cfg.remediate = remediate;
        let mut sys = satin_system::SystemBuilder::new()
            .seed(o.seed)
            .trace(false)
            .build();
        let (satin, handle) = Satin::new(cfg);
        sys.install_secure_service(satin);
        let addr = sys
            .layout()
            .syscall_entry_addr(satin_mem::layout::GETTID_NR);
        let evil = satin_mem::image::hijacked_entry_bytes(sys.layout(), 4);
        sys.mem_mut().write_unchecked(addr, &evil).unwrap();
        sys.run_until(SimTime::from_secs(horizon));
        // Uptime: report-only leaves the hijack forever; remediation kills
        // it at the first area-14 alarm.
        let first_repair = handle
            .alarms()
            .first()
            .map(|a| a.at.as_secs_f64())
            .unwrap_or(horizon as f64);
        let uptime = if remediate {
            first_repair / horizon as f64
        } else {
            1.0
        };
        t.row(vec![
            if remediate {
                "remediate".into()
            } else {
                "report-only (paper)".into()
            },
            handle.alarms().len().to_string(),
            handle.repairs().to_string(),
            fmt_percent(uptime, 1),
        ]);
    }
    println!("{t}");
}

fn run_predictor(o: &Opts) {
    use satin_attack::predictor::{deploy_predictive_evader, PredictorConfig};
    use satin_core::{CorePolicy, Satin, SatinConfig};
    use satin_hw::CoreId;
    use satin_sim::SimTime;
    println!("== Ablation A6: schedule prediction vs random wake-up (§V-C) ==");
    println!("   (oracle attacker knows the exact period and phase)");
    let horizon = if o.full { 60 } else { 25 };
    let mut t = Table::new(vec![
        "Wake policy".into(),
        "Area-14 checks".into(),
        "Detections".into(),
    ]);
    for c in 1..=2 {
        t.align(c, Align::Right);
    }
    for randomize in [false, true] {
        let mut cfg = SatinConfig::paper();
        cfg.tgoal = SimDuration::from_millis(500 * 19);
        cfg.randomize_wake = randomize;
        cfg.core_policy = CorePolicy::Fixed(CoreId::new(0));
        let mut sys = satin_system::SystemBuilder::new()
            .seed(o.seed.wrapping_add(randomize as u64))
            .trace(false)
            .build();
        let (satin, handle) = Satin::new(cfg);
        sys.install_secure_service(satin);
        let predictor = PredictorConfig::oracle(SimDuration::from_millis(500), SimTime::ZERO);
        let _ = deploy_predictive_evader(&mut sys, predictor);
        sys.run_until(SimTime::from_secs(horizon));
        let rounds = handle.rounds();
        let area = satin_mem::PAPER_SYSCALL_AREA;
        let checks = rounds.iter().filter(|r| r.area == area).count();
        let caught = rounds
            .iter()
            .filter(|r| r.area == area && r.tampered)
            .count();
        t.row(vec![
            if randomize {
                "random (tp ± td)".into()
            } else {
                "fixed period".into()
            },
            checks.to_string(),
            caught.to_string(),
        ]);
    }
    println!("{t}");
}

fn run_threshold(o: &Opts) {
    println!("== §VII-B: attacker threshold sensitivity ==");
    println!("   (multiples of the learned 1.8e-3 s threshold)");
    let factors = [0.08, 0.5, 1.0, 2.0, 4.0];
    let pts = threshold_sweep::sweep(&factors, o.seed);
    let mut t = Table::new(vec![
        "Threshold".into(),
        "False sessions/min".into(),
        "Caught rounds".into(),
        "Attack uptime".into(),
    ]);
    for c in 1..=3 {
        t.align(c, Align::Right);
    }
    for p in &pts {
        t.row(vec![
            format!("{} s", fmt_sci(p.threshold_secs, 2)),
            format!("{:.1}", p.false_sessions_per_min),
            format!("{}/{}", p.caught_rounds, p.total_rounds),
            fmt_percent(p.attack_uptime, 1),
        ]);
    }
    println!("{t}");
}

fn run_userprober(o: &Opts) {
    use satin_scenario::ProberKind;
    let trials = if o.full { 20 } else { 5 };
    println!("== §III-B1: user-level prober capability ({trials} scans/config) ==");
    println!("   paper: Tns_delay < 5.97e-3 s while one kernel check takes 8.04e-2 s");
    let mut t = Table::new(vec![
        "Prober / load".into(),
        "Mean delay".into(),
        "Max delay".into(),
        "Missed".into(),
        "Check time".into(),
    ]);
    for c in 1..=4 {
        t.align(c, Align::Right);
    }
    for (variant, label) in [
        (ProberKind::UserLevel, "user-level"),
        (ProberKind::KProberII, "KProber-II"),
    ] {
        for load in [0usize, 18] {
            let r = userprober::measure(userprober::UserProberConfig {
                variant,
                load_tasks: load,
                trials,
                seed: o.seed.wrapping_add(load as u64),
            });
            t.row(vec![
                format!("{label} ({load} load tasks)"),
                if r.delays.count > 0 {
                    format!("{} s", fmt_sci(r.delays.mean, 2))
                } else {
                    "-".into()
                },
                if r.delays.count > 0 {
                    format!("{} s", fmt_sci(r.delays.max, 2))
                } else {
                    "-".into()
                },
                r.missed.to_string(),
                format!("{} s", fmt_sci(r.check_secs, 2)),
            ]);
        }
    }
    println!("{t}");
}

fn run_preemption(o: &Opts) {
    let rounds = if o.full { 120 } else { 40 };
    println!("== Ablation A4: preemptive vs non-preemptive secure world ==");
    println!("   (interrupt storm at 60% CPU; §II-B / §V-B's SCR_EL3.IRQ choice)");
    let (nonpre, pre) =
        ablation::preemption_ablation(0.6, rounds, SimDuration::from_secs(10), o.seed);
    let mut t = Table::new(vec![
        "Configuration".into(),
        "Attacked rounds".into(),
        "Detections".into(),
        "Detection rate".into(),
    ]);
    for c in 1..=3 {
        t.align(c, Align::Right);
    }
    for out in [&nonpre, &pre] {
        t.row(vec![
            out.defense.clone(),
            out.attacked_rounds.to_string(),
            out.detections.to_string(),
            fmt_percent(out.detection_rate(), 0),
        ]);
    }
    println!("{t}");
}

fn run_portability(o: &Opts) {
    let rounds = if o.full { 60 } else { 25 };
    println!("== Ablation A5: SATIN across core counts (§VII-D portability) ==");
    let outcomes =
        ablation::core_count_sweep(&[2, 4, 8], rounds, SimDuration::from_secs(10), o.seed);
    let mut t = Table::new(vec![
        "Topology".into(),
        "Attacked rounds".into(),
        "Detections".into(),
        "Attack uptime".into(),
    ]);
    for c in 1..=3 {
        t.align(c, Align::Right);
    }
    for (_, out) in &outcomes {
        t.row(vec![
            out.defense.clone(),
            out.attacked_rounds.to_string(),
            out.detections.to_string(),
            fmt_percent(out.attack_uptime, 1),
        ]);
    }
    println!("{t}");
}

fn run_table1(o: &Opts) {
    let rounds = if o.full { 50 } else { 10 };
    println!("== TABLE I: Secure World Introspection Time ({rounds} rounds/cell) ==");
    println!("   paper: A53 hash avg 1.07e-8 [9.23e-9, 1.14e-8]; A57 hash avg 6.71e-9 [6.67e-9, 7.50e-9]");
    println!("          A53 snap avg 1.08e-8 [9.24e-9, 1.57e-8]; A57 snap avg 6.75e-9 [6.67e-9, 7.83e-9]");
    let rows = table1::run(&o.scenario, rounds, o.seed);
    let mut t = Table::new(vec![
        "Core-Strategy".into(),
        "Average".into(),
        "Max".into(),
        "Min".into(),
        "Secure mem".into(),
    ]);
    for c in 1..=4 {
        t.align(c, Align::Right);
    }
    for r in &rows {
        t.row(vec![
            format!("{}-{}", r.kind, r.strategy),
            format!("{} s/B", fmt_sci(r.per_byte.mean, 2)),
            format!("{} s/B", fmt_sci(r.per_byte.max, 2)),
            format!("{} s/B", fmt_sci(r.per_byte.min, 2)),
            format!("{} B", r.secure_memory_bytes),
        ]);
    }
    println!("{t}");
}

fn run_switch(o: &Opts) {
    let rounds = if o.full { 50 } else { 30 };
    println!("== §IV-B1: World-switch latency Ts_switch ({rounds} switches/kind) ==");
    println!("   paper: 2.38e-6 .. 3.60e-6 s, similar on A53 and A57");
    let mut t = Table::new(vec!["Core".into(), "Mean".into(), "Model bounds".into()]);
    t.align(1, Align::Right);
    for kind in o.scenario.platform.kinds_present() {
        let s = switch::measure(&o.scenario, kind, rounds, o.seed);
        t.row(vec![
            kind.to_string(),
            format!("{} s", fmt_sci(s.mean, 2)),
            format!("[{}, {}] s", fmt_sci(s.min, 2), fmt_sci(s.max, 2)),
        ]);
    }
    println!("{t}");
}

fn run_recover(o: &Opts) {
    let rounds = if o.full { 50 } else { 20 };
    println!("== §IV-B2: Trace recovery time Tns_recover ({rounds} hides/kind) ==");
    println!("   paper: A53 avg 5.80e-3 s; A57 avg 4.96e-3 s");
    let mut t = Table::new(vec![
        "Core".into(),
        "Average".into(),
        "Max".into(),
        "Min".into(),
    ]);
    for c in 1..=3 {
        t.align(c, Align::Right);
    }
    // kinds_present() lists A53 before A57, so on Juno the per-kind seed
    // offsets match the original hard-coded (A53, 0), (A57, 1) pairs.
    for (seed_off, kind) in o.scenario.platform.kinds_present().into_iter().enumerate() {
        let s = recover::measure(
            &o.scenario,
            kind,
            rounds,
            o.seed.wrapping_add(seed_off as u64),
        );
        t.row(vec![
            kind.to_string(),
            format!("{} s", fmt_sci(s.mean, 2)),
            format!("{} s", fmt_sci(s.max, 2)),
            format!("{} s", fmt_sci(s.min, 2)),
        ]);
    }
    println!("{t}");
}

fn run_table2_fig4(o: &Opts) {
    let (periods, rounds): (&[u64], usize) = if o.full {
        (&table2::PAPER_PERIODS_SECS, 50)
    } else {
        (&[8, 16, 30], 8)
    };
    println!("== TABLE II: Probing Threshold on Multi-Core ({rounds} rounds/period) ==");
    println!("   paper: 8s avg 2.61e-4; 16s 3.54e-4; 30s 4.21e-4; 120s 5.26e-4; 300s 6.61e-4; max ≈1.8e-3");
    let rows = table2::run(periods, rounds, o.seed, &o.runner());
    let mut t = Table::new(vec![
        "Probing Period".into(),
        "Average".into(),
        "Max".into(),
        "Min".into(),
    ]);
    for c in 1..=3 {
        t.align(c, Align::Right);
    }
    for r in &rows {
        t.row(vec![
            format!("{} s", r.period_secs),
            format!("{} s", fmt_sci(r.threshold.mean, 2)),
            format!("{} s", fmt_sci(r.threshold.max, 2)),
            format!("{} s", fmt_sci(r.threshold.min, 2)),
        ]);
    }
    println!("{t}");
    println!("== FIGURE 4: KProber Probing Threshold Stability ==");
    let boxes: Vec<(String, FiveNumber)> = rows
        .iter()
        .map(|r| (format!("{:>4} s", r.period_secs), r.boxplot.clone()))
        .collect();
    println!("{}", chart::boxplot_chart(&boxes, 60));
}

fn run_affinity(o: &Opts) {
    let (period, rounds) = if o.full { (30, 20) } else { (8, 6) };
    println!("== §IV-B2: Fixed-core vs all-core probing ({rounds} rounds @ {period}s) ==");
    println!("   paper: single-core thresholds ≈ 1/4 of all-core");
    let (all, single) = table2::single_vs_all(period, rounds, o.seed);
    println!(
        "all-core mean {} s; single-core mean {} s; ratio {:.2}\n",
        fmt_sci(all, 2),
        fmt_sci(single, 2),
        single / all
    );
}

fn run_race(o: &Opts) {
    println!("== §IV-C: Race condition analysis ==");
    let a = race::analyze();
    println!("   paper: S ≤ 1,218,351 bytes; ≈90% of the kernel unprotected");
    println!(
        "protected prefix S = {} bytes; unprotected fraction = {}",
        a.protected_prefix_bytes,
        fmt_percent(a.unprotected_fraction, 1)
    );
    let bound = a.protected_prefix_bytes;
    let sweep = race::equation1_sweep(
        &[0, bound / 2, bound - 1000, bound + 1000, 4 * bound],
        o.seed,
    );
    println!("Equation 1 sweep (byte offset -> attacker escapes):");
    for (s, escaped) in sweep {
        println!(
            "  offset {s:>9} B -> {}",
            if escaped { "ESCAPES" } else { "caught" }
        );
    }
    println!("\n== FIGURE 3: one-round timeline (naive monolithic scan vs TZ-Evader) ==");
    for e in race::timeline(o.seed).iter().take(14) {
        println!("  {e}");
    }
    println!();
}

fn run_detection(o: &Opts, run: &mut Run) {
    if !o.scenario.faults.is_empty() {
        // A fault plan can abort seeds mid-campaign; the fault report shows
        // those as rows.
        return run_faults(o, run);
    }
    let mut base = o.base();
    base.trace = o.metrics;
    // A small fleet of independent campaigns: the headline detection rate
    // comes from the aggregate, and the per-seed rows show its stability.
    let campaigns = if o.full { 4 } else { 3 };
    let seeds: Vec<u64> = (0..campaigns).map(|i| o.seed.wrapping_add(i)).collect();
    println!(
        "== §VI-B1: SATIN detection campaign ({} x {} rounds, Tgoal {}s) ==",
        campaigns,
        base.rounds,
        base.tgoal.as_secs_f64()
    );
    println!("   paper: 190 rounds, kernel x10, area 14 caught 10/10, prober reports all rounds,");
    println!("          avg area-14 gap ≈141 s, sweep ≈152 s (at tp = 8 s)");
    // The empty plan: one attempt per seed. A failed seed (a boot error)
    // ends the run, as the report has no row shape for it.
    let obs = CampaignObs::new("detection");
    let (outcomes, _) =
        detection::run_many_faulted_observed(&o.scenario, base, &seeds, &o.runner(), &obs);
    let results: Vec<DetectionResult> = outcomes
        .into_iter()
        .map(|out| match out {
            SeedOutcome::Ok { value, .. } => value,
            SeedOutcome::Failed { seed, error, .. } => {
                eprintln!("repro: detection campaign failed on seed {seed}: {error}");
                std::process::exit(1)
            }
        })
        .collect();
    let mut t = Table::new(vec![
        "Seed".into(),
        "Rounds".into(),
        "Attacked".into(),
        "Detected".into(),
        "Early-warn".into(),
        "Prober".into(),
        "Gap (s)".into(),
    ]);
    for c in 1..=6 {
        t.align(c, Align::Right);
    }
    for (seed, r) in seeds.iter().zip(&results) {
        t.row(vec![
            seed.to_string(),
            r.rounds.to_string(),
            r.area14_attacked_checks.to_string(),
            r.area14_detections.to_string(),
            r.area14_early_warning_checks.to_string(),
            r.prober_sessions.to_string(),
            r.area14_mean_gap_secs
                .map(|g| format!("{g:.1}"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("{t}");
    let agg = detection::DetectionAggregate::of(&results);
    println!(
        "aggregate: {} rounds, {} attacked checks, {} detected ({}), {} false alarms",
        agg.rounds,
        agg.area14_attacked_checks,
        agg.area14_detections,
        fmt_percent(agg.detection_rate(), 1),
        agg.other_area_alarms
    );
    if let Some(g) = agg.mean_gap_secs {
        println!("mean gap between area-14 checks: {g:.1} s");
    }
    if let Some(s) = results[0].sweep_secs {
        println!("mean full-sweep time (seed {}): {s:.1} s", seeds[0]);
    }
    if o.metrics {
        println!(
            "-- machine counters (summed over {} campaigns) --",
            agg.campaigns
        );
        print!("{}", agg.metrics);
    }
    println!();
}

fn run_fig7(o: &Opts) {
    let duration = if o.full { 600 } else { 240 };
    println!("== FIGURE 7: SATIN overhead on UnixBench-like workloads ({duration}s/run) ==");
    println!("   paper: 1-task mean 0.711%, 6-task mean 0.848%;");
    println!("          worst: file copy 256B 3.556%, pipe-based context switching 3.912%");
    for tasks in [1usize, 6] {
        let report = fig7::run(tasks, duration, o.seed.wrapping_add(tasks as u64));
        println!("-- {tasks}-task --");
        println!("{}", chart::bar_chart(&report.bars(), 40, "%"));
        println!(
            "mean degradation: {}   worst: {} ({})\n",
            fmt_percent(report.mean_degradation(), 3),
            report.worst().map(|w| w.name.clone()).unwrap_or_default(),
            fmt_percent(report.worst().map(|w| w.degradation()).unwrap_or(0.0), 3),
        );
    }
}

fn run_baseline(o: &Opts) {
    println!("== Ablation A1: baselines vs TZ-Evader vs SATIN ==");
    println!("   paper: monolithic introspection (even randomized) is evaded; SATIN detects");
    let horizon = SimDuration::from_secs(if o.full { 10 } else { 3 });
    let fixed = ablation::baseline_vs_evader(
        satin_core::baseline::BaselineConfig::periodic_fixed(SimDuration::from_millis(400)),
        horizon,
        o.seed,
    );
    let random = ablation::baseline_vs_evader(
        satin_core::baseline::BaselineConfig::randomized(SimDuration::from_millis(400)),
        horizon,
        o.seed.wrapping_add(1),
    );
    let satin = ablation::satin_vs_evader(
        satin_core::SatinConfig::paper(),
        "SATIN",
        if o.full { 190 } else { 57 },
        SimDuration::from_secs(19),
        o.seed.wrapping_add(2),
    );
    let mut t = Table::new(vec![
        "Defense".into(),
        "Attacked rounds".into(),
        "Detections".into(),
        "Attack uptime".into(),
    ]);
    for c in 1..=3 {
        t.align(c, Align::Right);
    }
    for out in [&fixed, &random, &satin] {
        t.row(vec![
            out.defense.clone(),
            out.attacked_rounds.to_string(),
            out.detections.to_string(),
            fmt_percent(out.attack_uptime, 1),
        ]);
    }
    println!("{t}");
}

fn run_areasweep(o: &Opts) {
    println!("== Ablation A2: area-size sweep around the §V-B safety bound ==");
    let factors: &[f64] = if o.full {
        &[0.75, 1.0, 2.0, 4.0, 8.0]
    } else {
        &[0.7, 4.0, 8.0]
    };
    let rounds = if o.full { 120 } else { 40 };
    let pts = ablation::area_size_sweep(factors, rounds, SimDuration::from_secs(10), o.seed);
    let mut t = Table::new(vec![
        "Max area (bytes)".into(),
        "vs bound".into(),
        "Analytic protection".into(),
        "GETTID checks".into(),
        "Detections".into(),
    ]);
    for c in 0..=4 {
        t.align(c, Align::Right);
    }
    for ((size, analytic, out), f) in pts.iter().zip(factors) {
        t.row(vec![
            size.to_string(),
            format!("{f}x"),
            fmt_percent(*analytic, 0),
            out.attacked_rounds.to_string(),
            out.detections.to_string(),
        ]);
    }
    println!("{t}");
}
