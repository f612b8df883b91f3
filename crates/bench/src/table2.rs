//! Table II and Figure 4 — probing threshold vs probing period.
//!
//! The paper runs KProber over all cores with probing periods of 8, 16, 30,
//! 120, and 300 s; each round's threshold is the largest difference the Time
//! Comparer observed; 50 rounds per period give the average/max/min of
//! Table II and the boxplots of Figure 4. §IV-B2 additionally finds that
//! probing a single fixed core yields thresholds ≈¼ of the all-core values.

use crate::runner::CampaignRunner;
use satin_attack::prober::{probing_threshold_campaign, ProbeTargets};
use satin_hw::CoreId;
use satin_sim::SimDuration;
use satin_stats::{FiveNumber, Summary};

/// The paper's probing periods, in seconds.
pub const PAPER_PERIODS_SECS: [u64; 5] = [8, 16, 30, 120, 300];

/// One Table II row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Probing period, seconds.
    pub period_secs: u64,
    /// Per-round maxima summary (avg/max/min of Table II), seconds.
    pub threshold: Summary,
    /// Boxplot statistics (Figure 4).
    pub boxplot: FiveNumber,
}

/// Runs the campaign for the given periods with `rounds` rounds each, one
/// period-campaign per `runner` worker. Each period seeds its own
/// independent campaign, so the rows are identical for any job count.
pub fn run(
    periods_secs: &[u64],
    rounds: usize,
    seed: u64,
    runner: &CampaignRunner,
) -> Vec<Table2Row> {
    runner.run(periods_secs, |_, _, &p| {
        let maxima = probing_threshold_campaign(
            seed.wrapping_add(p),
            SimDuration::from_secs(p),
            rounds,
            ProbeTargets::AllCores,
        );
        Table2Row {
            period_secs: p,
            threshold: Summary::of(&maxima).expect("rounds > 0"),
            boxplot: FiveNumber::of(&maxima).expect("rounds > 0"),
        }
    })
}

/// §IV-B2's single-core comparison: mean thresholds for all-core vs
/// single-fixed-core probing at one period. Returns `(all, single)` seconds.
pub fn single_vs_all(period_secs: u64, rounds: usize, seed: u64) -> (f64, f64) {
    let period = SimDuration::from_secs(period_secs);
    let all = probing_threshold_campaign(seed, period, rounds, ProbeTargets::AllCores);
    let single = probing_threshold_campaign(
        seed.wrapping_add(999),
        period,
        rounds,
        ProbeTargets::Single {
            target: CoreId::new(3),
            observer: CoreId::new(0),
        },
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    (mean(&all), mean(&single))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_grows_with_period() {
        // Short periods for test speed; the growth shape is what matters.
        let rows = run(&[2, 8, 30], 4, 11, &CampaignRunner::serial());
        assert_eq!(rows.len(), 3);
        assert!(
            rows[0].threshold.mean < rows[2].threshold.mean,
            "{:.3e} vs {:.3e}",
            rows[0].threshold.mean,
            rows[2].threshold.mean
        );
        // Thresholds live in the paper's band (≈1e-4 .. 1.8e-3).
        for r in &rows {
            assert!(r.threshold.mean > 5e-5, "{:.3e}", r.threshold.mean);
            assert!(r.threshold.max < 2.5e-3, "{:.3e}", r.threshold.max);
        }
    }

    #[test]
    fn single_core_probing_much_cheaper() {
        let (all, single) = single_vs_all(8, 4, 13);
        let ratio = single / all;
        // Paper: ≈1/4. Accept the right direction with generous tolerance.
        assert!(ratio < 0.6, "single/all ratio {ratio}");
    }
}
