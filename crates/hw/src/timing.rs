//! Timing distributions calibrated to the paper's measurements.
//!
//! The silicon half of the calibration (`Ts_switch` and the per-core-kind
//! [`CoreCalibration`]) is data: [`PlatformSpec::juno_r1`] writes the
//! paper's numbers once and [`TimingModel::paper_calibrated`] reads them
//! from there. The Linux-substrate half (dispatch jitter, publication delay,
//! body execution times, cache pollution) is written here, in
//! `TimingModel::new`. Every number traces to the SATIN paper:
//!
//! | Quantity | Paper source | Value |
//! |---|---|---|
//! | `Ts_switch` | §IV-B1 | uniform \[2.38e-6, 3.60e-6\] s |
//! | hash 1 byte, A53 | Table I | avg 1.07e-8, min 9.23e-9, max 1.14e-8 |
//! | hash 1 byte, A57 | Table I | avg 6.71e-9, min 6.67e-9, max 7.50e-9 |
//! | snapshot 1 byte, A53 | Table I | avg 1.08e-8, min 9.24e-9, max 1.57e-8 |
//! | snapshot 1 byte, A57 | Table I | avg 6.75e-9, min 6.67e-9, max 7.83e-9 |
//! | `Tns_recover`, A53 | §IV-B2 | avg 5.80e-3 (worst case §IV-C: 6.13e-3) |
//! | `Tns_recover`, A57 | §IV-B2 | avg 4.96e-3 |
//! | cross-core reading delay | §IV-B2 | rare tail "up to 1.3e-3" |
//! | `Tsleep` / `Tns_sched` | §IV-A1 | 2e-4 s |
//!
//! Scan rates are drawn **once per scan round** (the paper reports per-round
//! per-byte averages), not per byte: a round's duration is
//! `bytes × rate` computed in floating point and rounded up once, so the
//! 6.67 ns/byte A57 rate is not distorted by per-byte integer rounding.

use crate::profile::PlatformSpec;
use crate::topology::CoreKind;
use satin_sim::dist::{Exponential, HeavyTail, SecondsDist, Triangular, TruncPareto, UniformSecs};
use satin_sim::{SimDuration, SimRng};

/// A per-byte scan rate in seconds per byte, drawn once per scan round.
///
/// # Example
///
/// ```
/// use satin_hw::timing::ByteRate;
/// let r = ByteRate::new(6.67e-9);
/// // 876_616 bytes at 6.67 ns/byte ≈ 5.85 ms
/// let d = r.duration_for(876_616);
/// assert!((d.as_secs_f64() - 5.847e-3).abs() < 1e-5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByteRate(f64);

impl ByteRate {
    /// Wraps a rate in seconds per byte.
    ///
    /// # Panics
    ///
    /// Panics unless the rate is finite and positive.
    pub fn new(secs_per_byte: f64) -> Self {
        assert!(
            secs_per_byte.is_finite() && secs_per_byte > 0.0,
            "invalid byte rate {secs_per_byte}"
        );
        ByteRate(secs_per_byte)
    }

    /// The rate in seconds per byte.
    pub fn secs_per_byte(self) -> f64 {
        self.0
    }

    /// Time to scan `bytes` bytes at this rate (rounded up to whole ns).
    pub fn duration_for(self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(self.0 * bytes as f64)
    }
}

/// The introspection strategy whose per-byte cost Table I compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ScanStrategy {
    /// Read and hash normal-world memory directly from the secure world —
    /// the strategy the paper finds faster and adopts for SATIN.
    #[default]
    DirectHash,
    /// Copy a snapshot into secure memory, then hash the copy — the
    /// traditional hardware-assisted approach (HyperCheck/SPECTRE style).
    SnapshotThenHash,
}

impl ScanStrategy {
    /// Both strategies, for sweeps.
    pub const ALL: [ScanStrategy; 2] = [ScanStrategy::DirectHash, ScanStrategy::SnapshotThenHash];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            ScanStrategy::DirectHash => "direct-hash",
            ScanStrategy::SnapshotThenHash => "snapshot",
        }
    }

    /// Parses a display name (scenario descriptors use these).
    pub fn from_name(name: &str) -> Option<Self> {
        ScanStrategy::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl std::fmt::Display for ScanStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A triangular distribution as its three calibration numbers, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriSpec {
    /// Smallest observed value.
    pub min: f64,
    /// Observed mean (the triangular mode is derived from it).
    pub mean: f64,
    /// Largest observed value.
    pub max: f64,
}

impl TriSpec {
    /// A spec from `(min, mean, max)` seconds.
    pub const fn new(min: f64, mean: f64, max: f64) -> Self {
        TriSpec { min, mean, max }
    }

    /// The distribution this spec calibrates.
    pub(crate) fn dist(&self) -> Triangular {
        Triangular::from_min_mean_max(self.min, self.mean, self.max)
    }
}

impl SecondsDist for TriSpec {
    fn sample_secs(&self, rng: &mut SimRng) -> f64 {
        self.dist().sample_secs(rng)
    }

    fn mean_secs(&self) -> f64 {
        self.dist().mean_secs()
    }
}

/// Per-core-kind timing calibration: the Table I per-byte rates, the
/// §IV-B2 recovery time, and the relative single-thread throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreCalibration {
    /// Per-byte direct-hash rate (Table I "Hash 1-Byte"), seconds.
    pub hash_1byte: TriSpec,
    /// Per-byte snapshot-then-hash rate (Table I "Snapshot 1-byte"), seconds.
    pub snapshot_1byte: TriSpec,
    /// Total time for the rootkit to recover one attacking trace
    /// (`Tns_recover`, §IV-B2), seconds.
    pub recover: TriSpec,
    /// Relative single-thread throughput of the core kind, with the fastest
    /// kind = 1.0. Used by the normal-world workload model to scale
    /// executed work per core. The paper calibration derives A53 = 0.63
    /// from Table I's per-byte hash rates (6.71e-9 / 1.07e-8 ≈ 0.63).
    pub relative_speed: f64,
}

/// The complete calibrated timing model for the simulated platform.
///
/// Fields are public so the machine and experiment code can read the
/// calibration. A run builds its model once, from a platform spec
/// (`PlatformSpec::timing_model`), and no experiment changes a field
/// afterwards: a different calibration is a different spec.
#[derive(Debug, Clone)]
pub struct TimingModel {
    /// World-switch cost `Ts_switch` (§IV-B1).
    pub ts_switch: UniformSecs,
    /// Calibration of the Cortex-A53 cores.
    pub a53: CoreCalibration,
    /// Calibration of the Cortex-A57 cores.
    pub a57: CoreCalibration,
    /// Dispatch latency for an RT (SCHED_FIFO) task that wakes on an
    /// otherwise-idle core: interrupt delivery + scheduler pick. The rare
    /// heavy tail models scheduling stalls (interrupt storms, lock
    /// contention): a reporter occasionally publishes up to ~1.3 ms late,
    /// which is what §IV-B2 observed as "abnormal large delay" and what
    /// makes Table II's per-round maximum threshold grow with the probing
    /// period (longer rounds sample more stalls).
    pub rt_dispatch_jitter: HeavyTail<Exponential, TruncPareto>,
    /// Base dispatch latency for a CFS task; scaled by runqueue contention
    /// via [`TimingModel::sample_cfs_dispatch`].
    pub cfs_dispatch_jitter: Exponential,
    /// Cross-core publication delay: the time before a time report written on
    /// one core becomes visible to readers on another core (§IV-B2's
    /// "cross-core reading delay", observed up to 1.3e-3 s).
    pub publication_delay: HeavyTail<Exponential, TruncPareto>,
    /// Execution time of one Time Reporter body (read counter + store).
    pub report_exec: UniformSecs,
    /// Execution time of one Time Comparer pass, per compared core.
    pub compare_exec_per_core: UniformSecs,
    /// Execution time of the hijacked timer-IRQ prologue (KProber-I).
    pub irq_prober_exec: UniformSecs,
    /// Multiplicative slowdown applied to normal-world work while a
    /// post-introspection interference window is open. A secure-world scan
    /// streams hundreds of kilobytes through the shared cache hierarchy and
    /// DRAM; the paper's Figure 7 measures the resulting degradation at
    /// 0.7–3.9% — far more than the direct CPU steal (~0.01%), i.e. the
    /// overhead is dominated by these secondary effects. The window/slowdown
    /// pair is calibrated so a fully sensitive workload (pipe-based context
    /// switching) degrades ≈3.9% at tp = 8 s, matching Figure 7. The
    /// per-workload *sensitivity* lives in `satin-workload`.
    pub post_secure_slowdown: f64,
    /// How long the interference window lasts after the secure world exits
    /// (applied machine-wide: the scan pollutes shared levels).
    pub pollution_window: SimDuration,
}

impl TimingModel {
    /// The model calibrated to the paper's Juno r1 measurements: the
    /// `juno-r1` platform spec's silicon over the Linux substrate.
    pub fn paper_calibrated() -> Self {
        PlatformSpec::juno_r1().timing_model()
    }

    /// A model of the given silicon (`Ts_switch` and per-kind calibration)
    /// over the calibrated Linux substrate. No related platform reports
    /// substrate numbers, so every platform shares them.
    pub(crate) fn new(ts_switch: UniformSecs, a53: CoreCalibration, a57: CoreCalibration) -> Self {
        TimingModel {
            ts_switch,
            a53,
            a57,
            rt_dispatch_jitter: HeavyTail::new(
                Exponential::new(3e-6, 1.5e-5),
                TruncPareto::new(1.3e-4, 3.0, 1.3e-3),
                8e-6,
            ),
            cfs_dispatch_jitter: Exponential::new(5e-5, 4e-3),
            publication_delay: HeavyTail::new(
                Exponential::new(5e-6, 3.0e-5),
                TruncPareto::new(1.5e-4, 1.6, 1.3e-3),
                0.0,
            ),
            report_exec: UniformSecs::new(1.5e-6, 2.5e-6),
            compare_exec_per_core: UniformSecs::new(0.8e-6, 1.4e-6),
            irq_prober_exec: UniformSecs::new(2.0e-6, 4.0e-6),
            post_secure_slowdown: 0.28,
            pollution_window: SimDuration::from_millis(1_200),
        }
    }

    /// The calibration of a core kind.
    pub(crate) fn profile(&self, kind: CoreKind) -> &CoreCalibration {
        match kind {
            CoreKind::A53 => &self.a53,
            CoreKind::A57 => &self.a57,
        }
    }

    /// Relative single-thread throughput of `kind` (fastest kind = 1.0).
    pub fn relative_speed(&self, kind: CoreKind) -> f64 {
        self.profile(kind).relative_speed
    }

    /// Draws a world-switch cost (`Ts_switch`).
    pub fn sample_ts_switch(&self, rng: &mut SimRng) -> SimDuration {
        self.ts_switch.sample(rng)
    }

    /// Draws this round's per-byte scan rate for `kind` and `strategy`.
    pub fn sample_scan_rate(
        &self,
        kind: CoreKind,
        strategy: ScanStrategy,
        rng: &mut SimRng,
    ) -> ByteRate {
        let p = self.profile(kind);
        let d = match strategy {
            ScanStrategy::DirectHash => &p.hash_1byte,
            ScanStrategy::SnapshotThenHash => &p.snapshot_1byte,
        };
        ByteRate::new(d.sample_secs(rng))
    }

    /// Draws a total trace-recovery time (`Tns_recover`) for `kind`.
    pub fn sample_recover(&self, kind: CoreKind, rng: &mut SimRng) -> SimDuration {
        self.profile(kind).recover.sample(rng)
    }

    /// Draws an RT dispatch latency.
    pub fn sample_rt_dispatch(&self, rng: &mut SimRng) -> SimDuration {
        self.rt_dispatch_jitter.sample(rng)
    }

    /// Draws a CFS dispatch latency given the number of other runnable tasks
    /// on the core's queue. Contention stretches the latency linearly — a
    /// deliberately simple model of vruntime fairness: with `q` other
    /// runnable tasks the woken task waits on average `q/2` timeslices of the
    /// others' residual quanta, which we fold into the base jitter scale.
    pub fn sample_cfs_dispatch(&self, queue_len: usize, rng: &mut SimRng) -> SimDuration {
        let base = self.cfs_dispatch_jitter.sample(rng);
        base * (1 + queue_len as u64)
    }

    /// Draws a cross-core publication delay for one time report.
    pub fn sample_publication_delay(&self, rng: &mut SimRng) -> SimDuration {
        self.publication_delay.sample(rng)
    }

    /// Draws one Time Reporter execution time.
    pub fn sample_report_exec(&self, rng: &mut SimRng) -> SimDuration {
        self.report_exec.sample(rng)
    }

    /// Draws one Time Comparer execution time for `cores` compared cores.
    pub fn sample_compare_exec(&self, cores: usize, rng: &mut SimRng) -> SimDuration {
        let per = self.compare_exec_per_core.sample(rng);
        SimDuration::from_secs_f64(per.as_secs_f64() * cores as f64)
    }

    /// Worst-case (fastest) per-byte hash rate across core kinds — the
    /// quantity the paper's Equation 2 divides by when computing the safe
    /// area size (a defender might scan on the fastest core).
    pub fn fastest_hash_rate(&self) -> ByteRate {
        ByteRate::new(self.a53.hash_1byte.min.min(self.a57.hash_1byte.min))
    }

    /// Worst-case (slowest) recovery time across core kinds — `Tns_recover`
    /// as used in the paper's §IV-C worst-case analysis (6.13e-3 s).
    pub fn slowest_recover_secs(&self) -> f64 {
        self.a53.recover.max.max(self.a57.recover.max)
    }

    /// Largest possible world-switch cost.
    pub fn max_ts_switch_secs(&self) -> f64 {
        self.ts_switch.hi()
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TimingModel {
        TimingModel::paper_calibrated()
    }

    #[test]
    fn ts_switch_in_paper_bounds() {
        let m = model();
        let mut rng = SimRng::seed_from(1);
        for _ in 0..1000 {
            let d = m.sample_ts_switch(&mut rng).as_secs_f64();
            assert!((2.38e-6..=3.61e-6).contains(&d), "{d}");
        }
    }

    #[test]
    fn a57_scans_faster_than_a53() {
        let m = model();
        let mut rng = SimRng::seed_from(2);
        let a53: f64 = (0..200)
            .map(|_| {
                m.sample_scan_rate(CoreKind::A53, ScanStrategy::DirectHash, &mut rng)
                    .secs_per_byte()
            })
            .sum::<f64>()
            / 200.0;
        let a57: f64 = (0..200)
            .map(|_| {
                m.sample_scan_rate(CoreKind::A57, ScanStrategy::DirectHash, &mut rng)
                    .secs_per_byte()
            })
            .sum::<f64>()
            / 200.0;
        assert!(a57 < a53, "A57 {a57} should be faster than A53 {a53}");
    }

    #[test]
    fn direct_hash_not_slower_than_snapshot_on_average() {
        let m = model();
        let mut rng = SimRng::seed_from(3);
        for kind in [CoreKind::A53, CoreKind::A57] {
            let avg = |strategy: ScanStrategy, rng: &mut SimRng| {
                (0..500)
                    .map(|_| m.sample_scan_rate(kind, strategy, rng).secs_per_byte())
                    .sum::<f64>()
                    / 500.0
            };
            let hash = avg(ScanStrategy::DirectHash, &mut rng);
            let snap = avg(ScanStrategy::SnapshotThenHash, &mut rng);
            assert!(
                hash <= snap * 1.01,
                "{kind}: hash {hash} vs snapshot {snap}"
            );
        }
    }

    #[test]
    fn recover_means_match_paper() {
        let m = model();
        let mut rng = SimRng::seed_from(4);
        let mean = |kind: CoreKind, rng: &mut SimRng| {
            (0..2000)
                .map(|_| m.sample_recover(kind, rng).as_secs_f64())
                .sum::<f64>()
                / 2000.0
        };
        let a53 = mean(CoreKind::A53, &mut rng);
        let a57 = mean(CoreKind::A57, &mut rng);
        assert!((a53 - 5.80e-3).abs() < 0.3e-3, "A53 recover mean {a53}");
        assert!((a57 - 4.96e-3).abs() < 0.3e-3, "A57 recover mean {a57}");
    }

    #[test]
    fn byte_rate_durations() {
        let r = ByteRate::new(1e-8);
        assert_eq!(r.duration_for(100).as_nanos(), 1_000);
    }

    #[test]
    fn worst_case_constants_match_section_4c() {
        let m = model();
        // Paper §IV-C: fastest scan 6.67e-9, slowest recovery 6.13e-3,
        // max switch 3.60e-6.
        assert_eq!(m.fastest_hash_rate().secs_per_byte(), 6.67e-9);
        assert!((m.slowest_recover_secs() - 6.13e-3).abs() < 1e-12);
        assert!((m.max_ts_switch_secs() - 3.60e-6).abs() < 1e-12);
    }

    #[test]
    fn cfs_dispatch_scales_with_contention() {
        let m = model();
        let mut rng = SimRng::seed_from(5);
        let avg = |q: usize, rng: &mut SimRng| {
            (0..500)
                .map(|_| m.sample_cfs_dispatch(q, rng).as_secs_f64())
                .sum::<f64>()
                / 500.0
        };
        let idle = avg(0, &mut rng);
        let busy = avg(8, &mut rng);
        assert!(busy > 4.0 * idle, "contended {busy} vs idle {idle}");
    }

    #[test]
    fn publication_delay_bounded() {
        let m = model();
        let mut rng = SimRng::seed_from(6);
        for _ in 0..100_000 {
            let d = m.sample_publication_delay(&mut rng).as_secs_f64();
            assert!(d <= 3.0e-5 + 1e-12, "publication delay {d} beyond cap");
        }
    }

    #[test]
    fn rt_dispatch_mostly_fast_with_rare_stalls() {
        // §IV-B2's "abnormal large delay" lives on the dispatch path: mostly
        // microseconds, rarely a stall of up to 1.3e-3 s.
        let m = model();
        let mut rng = SimRng::seed_from(6);
        let n = 2_000_000;
        let mut stalls = 0u32;
        let mut max = 0.0f64;
        for _ in 0..n {
            let d = m.sample_rt_dispatch(&mut rng).as_secs_f64();
            if d > 1.0e-4 {
                stalls += 1;
            }
            max = max.max(d);
        }
        let frac = f64::from(stalls) / n as f64;
        assert!(frac < 5e-5, "stall fraction {frac} too common");
        assert!(frac > 0.0, "stalls never fired in {n} draws");
        assert!(max <= 1.3e-3 + 1e-9, "stall {max} beyond paper's cap");
    }

    #[test]
    fn strategy_names() {
        assert_eq!(ScanStrategy::DirectHash.to_string(), "direct-hash");
        assert_eq!(ScanStrategy::SnapshotThenHash.to_string(), "snapshot");
    }
}
