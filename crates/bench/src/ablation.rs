//! Ablations: baselines vs SATIN, and the design choices DESIGN.md calls out.
//!
//! - **Baseline comparison** (§IV vs §VI): the monolithic-scan baselines
//!   (fixed-period and fully randomized) lose to TZ-Evader; SATIN wins.
//! - **Area-size sweep** (§V-B): detection survives while areas respect the
//!   safety bound and collapses beyond it.
//! - **Core affinity** (§IV-B2 / §V-D): fixed-core introspection is easier
//!   to probe than random-core.

use crate::detection::Cell;
use satin_attack::race::RaceParams;
use satin_attack::{TzEvader, TzEvaderConfig};
use satin_core::baseline::{BaselineConfig, NaiveIntrospection};
use satin_core::satin::{build_plan, AreaPolicy};
use satin_core::SatinConfig;
use satin_hw::{CoreId, CoreKind, RoutingKind};
use satin_scenario::Scenario;
use satin_sim::{SimDuration, SimTime};
use satin_system::{System, SystemBuilder};

/// Outcome of pitting one defense against TZ-Evader.
#[derive(Debug, Clone, PartialEq)]
pub struct DefenseOutcome {
    /// Defense label.
    pub defense: String,
    /// Introspection rounds that covered the attacked bytes while the
    /// hijack was present at round start.
    pub attacked_rounds: u64,
    /// Of those, rounds that detected the tampering.
    pub detections: u64,
    /// Fraction of simulated time the hijack was in place.
    pub attack_uptime: f64,
}

impl DefenseOutcome {
    /// Detection rate over attacked rounds (0 when never attacked-checked).
    pub fn detection_rate(&self) -> f64 {
        if self.attacked_rounds == 0 {
            0.0
        } else {
            self.detections as f64 / self.attacked_rounds as f64
        }
    }
}

/// Pits a monolithic-scan baseline against TZ-Evader.
pub fn baseline_vs_evader(
    config: BaselineConfig,
    horizon: SimDuration,
    seed: u64,
) -> DefenseOutcome {
    let mut sys = SystemBuilder::new().seed(seed).trace(false).build();
    let (svc, handle) = NaiveIntrospection::new(config);
    sys.install_secure_service(svc);
    let evader = TzEvader::deploy(&mut sys, TzEvaderConfig::paper_default());
    sys.run_until(SimTime::ZERO + horizon);
    let uptime = evader.rootkit.active_time(sys.now()).as_secs_f64() / sys.now().as_secs_f64();
    // Every monolithic round covers the attacked bytes; count rounds where
    // the hijack was live at round start as attacked.
    let label = if config.randomize_wake || config.randomize_core {
        "baseline (random time+core, monolithic)"
    } else {
        "baseline (fixed period, monolithic)"
    };
    DefenseOutcome {
        defense: label.to_string(),
        attacked_rounds: handle.rounds(),
        detections: handle.tampered_rounds(),
        attack_uptime: uptime,
    }
}

/// Pits SATIN (optionally with a custom area policy / wake policy) against
/// TZ-Evader on the paper platform. `tgoal` is scaled down from the paper's
/// 152 s for tractable sweeps; the race inside a round is unaffected by
/// `tgoal`.
pub fn satin_vs_evader(
    satin_cfg: SatinConfig,
    label: &str,
    rounds: usize,
    tgoal: SimDuration,
    seed: u64,
) -> DefenseOutcome {
    let sys = SystemBuilder::new().seed(seed).trace(false).build();
    satin_vs_evader_on(
        sys,
        satin_cfg,
        TzEvaderConfig::paper_default(),
        label.to_string(),
        rounds,
        tgoal,
    )
}

/// [`satin_vs_evader`] on an already-built system: counts the rounds that
/// checked GETTID's area while the hijack was live at fire time, and how
/// many of them detected it.
fn satin_vs_evader_on(
    sys: System,
    mut satin_cfg: SatinConfig,
    evader_cfg: TzEvaderConfig,
    defense: String,
    rounds: usize,
    tgoal: SimDuration,
) -> DefenseOutcome {
    satin_cfg.tgoal = tgoal;
    let layout = satin_mem::KernelLayout::paper();
    let plan = build_plan(&satin_cfg, &layout).expect("plan");
    let target_area = plan
        .area_of(layout.syscall_entry_addr(satin_mem::layout::GETTID_NR))
        .expect("gettid inside plan");
    let mut cell = Cell::new(sys, satin_cfg, evader_cfg).expect("SATIN boots");
    cell.run_rounds(rounds, tgoal).expect("no faults are armed");
    let attacked: Vec<_> = cell
        .handle
        .rounds()
        .iter()
        .take(rounds)
        .filter(|r| r.area == target_area && cell.evader.rootkit.was_active_at(r.fired))
        .map(|r| r.tampered)
        .collect();
    let now = cell.sys.now();
    DefenseOutcome {
        defense,
        attacked_rounds: attacked.len() as u64,
        detections: attacked.iter().filter(|&&t| t).count() as u64,
        attack_uptime: cell.evader.rootkit.active_time(now).as_secs_f64() / now.as_secs_f64(),
    }
}

/// Analytic coverage of a plan: the fraction of kernel bytes whose read
/// instant beats the worst-case evasion latency (i.e. bytes at offsets
/// below Equation 2's protected prefix within their own area). Plans that
/// respect the §V-B bound score 1.0; a monolithic plan scores ≈0.10.
pub(crate) fn protected_fraction(plan: &satin_core::AreaPlan) -> f64 {
    let s = RaceParams::paper_worst_case().protected_prefix_bytes();
    let protected: u64 = plan.areas().iter().map(|a| a.range.len().min(s)).sum();
    protected as f64 / plan.total_bytes() as f64
}

/// The area-size sweep: SATIN with greedy plans at multiples of the §V-B
/// bound. Returns `(max_area_bytes, analytic_protected_fraction, outcome)`
/// per point. The empirical detection column tracks the one attacked target
/// (GETTID), whose fate above the bound depends on its offset within its
/// area; the analytic column is the monotone guarantee.
pub fn area_size_sweep(
    factors: &[f64],
    rounds: usize,
    tgoal: SimDuration,
    seed: u64,
) -> Vec<(u64, f64, DefenseOutcome)> {
    let bound = RaceParams::paper_worst_case().max_safe_area_bytes();
    factors
        .iter()
        .filter_map(|f| {
            let max_size = ((bound as f64) * f) as u64;
            let mut cfg = SatinConfig::paper();
            cfg.area_policy = AreaPolicy::Greedy { max_size };
            cfg.enforce_safety = false; // the sweep intentionally violates it
                                        // Skip infeasible points: greedy cannot split a single section,
                                        // so bounds below the largest section (811,080 B) are unusable.
            let Ok(plan) = build_plan(&cfg, &satin_mem::KernelLayout::paper()) else {
                return None;
            };
            let analytic = protected_fraction(&plan);
            let label = format!("satin greedy ({}x bound)", f);
            let out = satin_vs_evader(cfg, &label, rounds, tgoal, seed.wrapping_add(*f as u64));
            Some((max_size, analytic, out))
        })
        .collect()
}

/// Ablation A4 (§II-B / §V-B): preemptive vs non-preemptive secure world
/// under an attacker-driven interrupt storm. With `SCR_EL3.IRQ = 1` every
/// normal-world interrupt preempts the introspection, stretching rounds
/// past the safety bound; SATIN's `SCR_EL3.IRQ = 0` configuration pends
/// them and keeps the race won. Returns (non-preemptive, preemptive).
pub fn preemption_ablation(
    interrupt_load: f64,
    rounds: usize,
    tgoal: SimDuration,
    seed: u64,
) -> (DefenseOutcome, DefenseOutcome) {
    let run = |preemptive: bool, seed: u64| {
        let mut scenario = Scenario::paper();
        let defense = if preemptive {
            scenario.platform.routing = RoutingKind::Preemptive;
            format!("preemptive secure world (irq load {interrupt_load})")
        } else {
            "non-preemptive (SATIN's SCR_EL3.IRQ=0)".to_string()
        };
        let mut sys = SystemBuilder::new()
            .seed(seed)
            .scenario(&scenario)
            .trace(false)
            .build();
        sys.set_ns_interrupt_load(interrupt_load);
        satin_vs_evader_on(
            sys,
            SatinConfig::paper(),
            TzEvaderConfig::paper_default(),
            defense,
            rounds,
            tgoal,
        )
    };
    (run(false, seed), run(true, seed.wrapping_add(1)))
}

/// Ablation A5 (§VII-D portability): SATIN on other core counts. The
/// defense's guarantees are per-round (area size vs evasion latency), so
/// detection should hold from 2 cores up. Returns one outcome per topology.
pub fn core_count_sweep(
    core_counts: &[usize],
    rounds: usize,
    tgoal: SimDuration,
    seed: u64,
) -> Vec<(usize, DefenseOutcome)> {
    core_counts
        .iter()
        .map(|&n| {
            let mut scenario = Scenario::paper();
            scenario.platform.cores = vec![CoreKind::A53; n];
            let sys = SystemBuilder::new()
                .seed(seed.wrapping_add(n as u64))
                .scenario(&scenario)
                .trace(false)
                .build();
            let mut evader_cfg = TzEvaderConfig::paper_default();
            evader_cfg.recovery_core = CoreId::new(n - 1);
            let out = satin_vs_evader_on(
                sys,
                SatinConfig::paper(),
                evader_cfg,
                format!("satin on {n}x A53"),
                rounds,
                tgoal,
            );
            (n, out)
        })
        .collect()
}

/// §III-C1: "injecting a prober into the interrupt handler … may introduce
/// extra attacking trace for the defender to detect … which gives KProber-I
/// a larger chance to be recovered." KProber-I's hijacked IRQ vector entry
/// lives in the monitored kernel image and can never be restored while the
/// prober needs it — so SATIN flags area 0 (the vector table's area) on
/// every check, on top of any syscall-table alarms. KProber-II leaves no
/// such trace. Returns `(vector_area_alarms, syscall_area_alarms)` per
/// variant.
pub fn kprober_trace_detection(
    variant: satin_scenario::ProberKind,
    rounds: usize,
    tgoal: SimDuration,
    seed: u64,
) -> (u64, u64) {
    let mut cfg = SatinConfig::paper();
    cfg.tgoal = tgoal;
    let sys = SystemBuilder::new().seed(seed).trace(false).build();
    let mut evader_cfg = TzEvaderConfig::paper_default();
    evader_cfg.prober = variant;
    let mut cell = Cell::new(sys, cfg, evader_cfg).expect("SATIN boots");
    cell.run_rounds(rounds, tgoal).expect("no faults are armed");
    let layout = satin_mem::KernelLayout::paper();
    let vector_area = layout
        .vector_table()
        .map(|s| s.segment())
        .expect("paper layout has a vector table");
    let mut vec_alarms = 0;
    let mut sys_alarms = 0;
    for r in cell.handle.rounds().iter().take(rounds) {
        if r.tampered {
            if r.area == vector_area {
                vec_alarms += 1;
            } else if r.area == satin_mem::PAPER_SYSCALL_AREA {
                sys_alarms += 1;
            }
        }
    }
    (vec_alarms, sys_alarms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use satin_attack::prober::{probing_threshold_campaign, ProbeTargets};

    /// §IV-B2 / §V-D affinity ablation: probing threshold when introspection
    /// uses a fixed core vs all cores. Returns `(all_cores_mean, fixed_mean)`.
    fn affinity_probing(period: SimDuration, rounds: usize, seed: u64) -> (f64, f64) {
        let all = probing_threshold_campaign(seed, period, rounds, ProbeTargets::AllCores);
        let single = probing_threshold_campaign(
            seed.wrapping_add(1),
            period,
            rounds,
            ProbeTargets::Single {
                target: CoreId::new(2),
                observer: CoreId::new(1),
            },
        );
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        (mean(&all), mean(&single))
    }

    #[test]
    fn baselines_lose_satin_wins() {
        let horizon = SimDuration::from_secs(3);
        let fixed = baseline_vs_evader(
            BaselineConfig::periodic_fixed(SimDuration::from_millis(400)),
            horizon,
            61,
        );
        let random = baseline_vs_evader(
            BaselineConfig::randomized(SimDuration::from_millis(400)),
            horizon,
            62,
        );
        // The evader defeats both monolithic baselines outright.
        assert_eq!(fixed.detections, 0, "fixed baseline caught the evader?");
        assert_eq!(random.detections, 0, "random baseline caught the evader?");
        assert!(fixed.attack_uptime > 0.5, "uptime {}", fixed.attack_uptime);

        let satin = satin_vs_evader(
            SatinConfig::paper(),
            "satin",
            57,
            SimDuration::from_secs(19),
            63,
        );
        assert!(satin.attacked_rounds >= 1);
        assert_eq!(
            satin.detections, satin.attacked_rounds,
            "SATIN missed: {}/{}",
            satin.detections, satin.attacked_rounds
        );
    }

    #[test]
    fn oversized_areas_reopen_the_window() {
        // 8× the bound ≈ 9.7 MB areas: the greedy plan degenerates toward
        // the monolithic baseline and the evader escapes again.
        let pts = area_size_sweep(&[8.0], 40, SimDuration::from_secs(10), 64);
        let (_, analytic, out) = &pts[0];
        assert!(
            out.detection_rate() < 0.5,
            "oversized areas still detected at {}",
            out.detection_rate()
        );
        // The analytic guarantee degrades monotonically with area size.
        assert!(*analytic < 0.5, "analytic fraction {analytic}");
        let safe = area_size_sweep(&[1.0], 1, SimDuration::from_secs(10), 64);
        assert!(
            (safe[0].1 - 1.0).abs() < 1e-12,
            "at the bound: fully protected"
        );
    }

    #[test]
    fn preemptive_mode_reopens_the_window() {
        // A 60% interrupt storm stretches rounds ~2.5x: beyond the safety
        // bound in preemptive mode, harmless in SATIN's configuration.
        let (nonpre, pre) = preemption_ablation(0.6, 40, SimDuration::from_secs(10), 71);
        assert!(
            nonpre.attacked_rounds >= 1 && nonpre.detection_rate() == 1.0,
            "non-preemptive SATIN must still win: {nonpre:?}"
        );
        assert!(
            pre.detection_rate() < 1.0,
            "preemptive mode under storm should lose rounds: {pre:?}"
        );
    }

    #[test]
    fn satin_ports_across_core_counts() {
        let outcomes = core_count_sweep(&[2, 4], 25, SimDuration::from_secs(10), 72);
        for (n, out) in outcomes {
            assert!(
                out.attacked_rounds == 0 || out.detection_rate() == 1.0,
                "{n}-core SATIN missed: {out:?}"
            );
        }
    }

    #[test]
    fn kprober_i_betrays_itself_to_satin() {
        use satin_scenario::ProberKind;
        // KProber-I: the hijacked vector entry sits in area 0 and is caught
        // on every area-0 round.
        let (vec1, _) =
            kprober_trace_detection(ProberKind::KProberI, 40, SimDuration::from_secs(10), 73);
        assert!(vec1 >= 1, "SATIN missed KProber-I's vector hijack");
        // KProber-II leaves no kernel-text trace: area 0 stays clean.
        let (vec2, _) =
            kprober_trace_detection(ProberKind::KProberII, 40, SimDuration::from_secs(10), 74);
        assert_eq!(vec2, 0, "false alarm on KProber-II");
    }

    #[test]
    fn affinity_ratio_direction() {
        let (all, single) = affinity_probing(SimDuration::from_secs(4), 4, 65);
        assert!(single < all, "single {single} vs all {all}");
    }
}
