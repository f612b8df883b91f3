//! The runtime half of fault injection: a [`FaultInjector`] armed from a
//! [`FaultPlan`] for one `(seed, attempt)` run.
//!
//! The injector is deliberately RNG-free: which faults fire is a pure
//! function of the plan, the campaign seed, the 1-based attempt number,
//! and the sequence of simulated times the system hands it. Two runs of
//! the same seed therefore inject the same faults at the same events, so
//! fault campaigns stay byte-identical across `--jobs` values and golden
//! snapshots can pin them.

use satin_scenario::FaultPlan;
use satin_sim::{SimDuration, SimTime};
use std::error::Error;
use std::fmt;

/// A failure produced by the fault layer itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultError {
    /// An injected worker abort fired mid-campaign.
    WorkerAbort {
        /// Simulated time the abort fired.
        at: SimTime,
        /// 1-based attempt number that aborted.
        attempt: u32,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::WorkerAbort { at, attempt } => {
                write!(f, "worker abort at {at} (attempt {attempt})")
            }
        }
    }
}

impl Error for FaultError {}

/// What the injector decided about one cross-core publication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublicationFate {
    /// Deliver normally.
    Deliver,
    /// Drop it: the normal world never observes this publication.
    Drop,
    /// Deliver it, but this much later.
    Delay(SimDuration),
}

/// Counters of faults that actually fired during one run.
///
/// Zero across the board for clean runs, so reports that print counters
/// only when non-zero stay byte-identical to their pre-fault form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Scheduler-jitter spikes injected.
    pub jitter_spikes: u64,
    /// Cross-core publications dropped.
    pub publications_dropped: u64,
    /// Cross-core publications delayed.
    pub publications_delayed: u64,
    /// Hash windows corrupted.
    pub windows_corrupted: u64,
}

/// Canonical counter name for an injected scheduler-jitter spike.
pub const FAULT_JITTER: &str = "fault.jitter";
/// Canonical counter name for a dropped cross-core publication.
pub const FAULT_DROPPED_PUB: &str = "fault.dropped_pub";
/// Canonical counter name for a delayed cross-core publication.
pub const FAULT_DELAYED_PUB: &str = "fault.delayed_pub";
/// Canonical counter name for a corrupted hash window.
pub const FAULT_CORRUPT_WINDOW: &str = "fault.corrupt_window";
/// Canonical counter name for a scheduled worker abort.
pub const FAULT_ABORT: &str = "fault.abort";

impl FaultStats {
    /// The stats as `(canonical counter name, count)` pairs, in the fixed
    /// name order shared by event streams and `--metrics-json` output.
    /// Worker aborts are not counted here — they surface as campaign
    /// errors, not injector stats.
    #[cfg(test)]
    pub(crate) fn counters(&self) -> [(&'static str, u64); 4] {
        [
            (FAULT_JITTER, self.jitter_spikes),
            (FAULT_DROPPED_PUB, self.publications_dropped),
            (FAULT_DELAYED_PUB, self.publications_delayed),
            (FAULT_CORRUPT_WINDOW, self.windows_corrupted),
        ]
    }
}

/// The canonical names of the fault kinds `plan` arms for `(seed,
/// attempt)`, in fixed declaration order — what a `cell.fault_armed`
/// event stream reports before the attempt runs.
///
/// "Armed" means the spec exists and its seed filter matches; whether a
/// fault actually *fires* still depends on simulated time reaching its
/// schedule. The abort is additionally gated on the attempt being within
/// its failing budget, mirroring [`FaultInjector::check_abort`].
pub fn armed_kinds(plan: &FaultPlan, seed: u64, attempt: u32) -> Vec<&'static str> {
    let mut kinds = Vec::new();
    if plan.jitter.is_some_and(|s| s.seed.matches(seed)) {
        kinds.push(FAULT_JITTER);
    }
    if plan.drop_publication.is_some_and(|s| s.seed.matches(seed)) {
        kinds.push(FAULT_DROPPED_PUB);
    }
    if plan.delay_publication.is_some_and(|s| s.seed.matches(seed)) {
        kinds.push(FAULT_DELAYED_PUB);
    }
    if plan.corrupt_window.is_some_and(|s| s.seed.matches(seed)) {
        kinds.push(FAULT_CORRUPT_WINDOW);
    }
    if plan
        .abort
        .is_some_and(|s| s.seed.matches(seed) && attempt <= s.attempts)
    {
        kinds.push(FAULT_ABORT);
    }
    kinds
}

/// A [`FaultPlan`] armed for one `(seed, attempt)` run.
///
/// Each fault kind is one-shot: the first qualifying event at or after
/// the spec's scheduled time absorbs it, later events pass untouched.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
    attempt: u32,
    jitter_armed: bool,
    drop_armed: bool,
    delay_armed: bool,
    corrupt_armed: bool,
    stats: FaultStats,
}

impl FaultInjector {
    /// Arms `plan` for campaign `seed`, attempt `attempt` (1-based).
    /// Specs whose seed filter does not match `seed` stay disarmed.
    pub fn new(plan: FaultPlan, seed: u64, attempt: u32) -> Self {
        let matches = |f: satin_scenario::SeedFilter| f.matches(seed);
        FaultInjector {
            jitter_armed: plan.jitter.is_some_and(|s| matches(s.seed)),
            drop_armed: plan.drop_publication.is_some_and(|s| matches(s.seed)),
            delay_armed: plan.delay_publication.is_some_and(|s| matches(s.seed)),
            corrupt_armed: plan.corrupt_window.is_some_and(|s| matches(s.seed)),
            plan,
            seed,
            attempt,
            stats: FaultStats::default(),
        }
    }

    /// Counters of faults fired so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Extra delay for the tick boundary being scheduled at `now`, if
    /// the jitter spike fires here (one-shot).
    pub fn tick_jitter(&mut self, now: SimTime) -> Option<SimDuration> {
        let spec = self.plan.jitter?;
        if !self.jitter_armed || now < spec.at {
            return None;
        }
        self.jitter_armed = false;
        self.stats.jitter_spikes += 1;
        Some(spec.extra)
    }

    /// Decides the fate of the publication happening at `now`. A drop
    /// and a delay armed for the same publication resolve to a drop;
    /// the delay stays armed for the next one.
    pub fn publication_fate(&mut self, now: SimTime) -> PublicationFate {
        if let Some(spec) = self.plan.drop_publication {
            if self.drop_armed && now >= spec.at {
                self.drop_armed = false;
                self.stats.publications_dropped += 1;
                return PublicationFate::Drop;
            }
        }
        if let Some(spec) = self.plan.delay_publication {
            if self.delay_armed && now >= spec.at {
                self.delay_armed = false;
                self.stats.publications_delayed += 1;
                return PublicationFate::Delay(spec.by);
            }
        }
        PublicationFate::Deliver
    }

    /// XORs the scan window observed at `now` if the corruption fires
    /// here (one-shot). Returns whether the bytes were touched.
    pub fn corrupt_window(&mut self, now: SimTime, bytes: &mut [u8]) -> bool {
        let Some(spec) = self.plan.corrupt_window else {
            return false;
        };
        if !self.corrupt_armed || now < spec.at || bytes.is_empty() {
            return false;
        }
        self.corrupt_armed = false;
        self.stats.windows_corrupted += 1;
        for b in bytes {
            *b ^= spec.xor;
        }
        true
    }

    /// Checks whether the injected worker abort has fired by `now`.
    ///
    /// # Errors
    ///
    /// [`FaultError::WorkerAbort`] once simulated time reaches the
    /// abort's schedule on a matching seed, while the attempt number is
    /// within the spec's failing range.
    pub fn check_abort(&self, now: SimTime) -> Result<(), FaultError> {
        if let Some(spec) = self.plan.abort {
            if spec.seed.matches(self.seed) && now >= spec.at && self.attempt <= spec.attempts {
                return Err(FaultError::WorkerAbort {
                    at: now,
                    attempt: self.attempt,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satin_scenario::{
        AbortSpec, CorruptWindowSpec, DelayPublicationSpec, DropPublicationSpec, JitterSpec,
        SeedFilter,
    };

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::default(), 42, 1);
        assert_eq!(inj.tick_jitter(at(10)), None);
        assert_eq!(inj.publication_fate(at(10)), PublicationFate::Deliver);
        let mut buf = [1, 2, 3];
        assert!(!inj.corrupt_window(at(10), &mut buf));
        assert_eq!(buf, [1, 2, 3]);
        inj.check_abort(at(10)).unwrap();
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn jitter_is_one_shot_and_time_gated() {
        let plan = FaultPlan {
            jitter: Some(JitterSpec {
                seed: SeedFilter::All,
                at: at(5),
                extra: SimDuration::from_micros(100),
            }),
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, 7, 1);
        assert_eq!(inj.tick_jitter(at(4)), None, "before schedule");
        assert_eq!(inj.tick_jitter(at(5)), Some(SimDuration::from_micros(100)));
        assert_eq!(inj.tick_jitter(at(6)), None, "one-shot");
        assert_eq!(inj.stats().jitter_spikes, 1);
    }

    #[test]
    fn seed_filter_disarms_mismatched_seeds() {
        let plan = FaultPlan {
            drop_publication: Some(DropPublicationSpec {
                seed: SeedFilter::Only(42),
                at: at(1),
            }),
            ..FaultPlan::default()
        };
        let mut hit = FaultInjector::new(plan, 42, 1);
        let mut miss = FaultInjector::new(plan, 7, 1);
        assert_eq!(hit.publication_fate(at(2)), PublicationFate::Drop);
        assert_eq!(miss.publication_fate(at(2)), PublicationFate::Deliver);
    }

    #[test]
    fn drop_wins_over_delay_then_delay_fires_next() {
        let plan = FaultPlan {
            drop_publication: Some(DropPublicationSpec {
                seed: SeedFilter::All,
                at: at(1),
            }),
            delay_publication: Some(DelayPublicationSpec {
                seed: SeedFilter::All,
                at: at(1),
                by: SimDuration::from_micros(5),
            }),
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, 7, 1);
        assert_eq!(inj.publication_fate(at(2)), PublicationFate::Drop);
        assert_eq!(
            inj.publication_fate(at(3)),
            PublicationFate::Delay(SimDuration::from_micros(5))
        );
        assert_eq!(inj.publication_fate(at(4)), PublicationFate::Deliver);
        assert_eq!(inj.stats().publications_dropped, 1);
        assert_eq!(inj.stats().publications_delayed, 1);
    }

    #[test]
    fn corruption_xors_every_byte_once() {
        let plan = FaultPlan {
            corrupt_window: Some(CorruptWindowSpec {
                seed: SeedFilter::All,
                at: at(1),
                xor: 0xff,
            }),
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(plan, 7, 1);
        let mut buf = [0x00, 0x0f];
        assert!(inj.corrupt_window(at(2), &mut buf));
        assert_eq!(buf, [0xff, 0xf0]);
        assert!(!inj.corrupt_window(at(3), &mut buf), "one-shot");
        assert_eq!(buf, [0xff, 0xf0]);
    }

    #[test]
    fn abort_respects_attempt_budget() {
        let plan = FaultPlan {
            abort: Some(AbortSpec {
                seed: SeedFilter::All,
                at: at(5),
                attempts: 2,
            }),
            max_attempts: 3,
            ..FaultPlan::default()
        };
        let first = FaultInjector::new(plan, 7, 1);
        first.check_abort(at(4)).unwrap();
        assert_eq!(
            first.check_abort(at(5)),
            Err(FaultError::WorkerAbort {
                at: at(5),
                attempt: 1
            })
        );
        let second = FaultInjector::new(plan, 7, 2);
        assert!(second.check_abort(at(9)).is_err(), "attempt 2 still fails");
        let third = FaultInjector::new(plan, 7, 3);
        third.check_abort(at(9)).unwrap();
    }

    #[test]
    fn armed_kinds_track_seed_filter_and_attempt_budget() {
        assert!(armed_kinds(&FaultPlan::default(), 7, 1).is_empty());
        // Smoke: drop on every seed; abort only on 42, every attempt.
        let smoke = FaultPlan::smoke();
        assert_eq!(armed_kinds(&smoke, 7, 1), vec![FAULT_DROPPED_PUB]);
        assert_eq!(
            armed_kinds(&smoke, 42, 2),
            vec![FAULT_DROPPED_PUB, FAULT_ABORT]
        );
        // Chaos: everything armed on attempt 1; the abort (budget 1)
        // stands down on the retry.
        let chaos = FaultPlan::chaos();
        assert_eq!(
            armed_kinds(&chaos, 7, 1),
            vec![
                FAULT_JITTER,
                FAULT_DROPPED_PUB,
                FAULT_DELAYED_PUB,
                FAULT_CORRUPT_WINDOW,
                FAULT_ABORT
            ]
        );
        assert_eq!(
            armed_kinds(&chaos, 7, 2),
            vec![
                FAULT_JITTER,
                FAULT_DROPPED_PUB,
                FAULT_DELAYED_PUB,
                FAULT_CORRUPT_WINDOW
            ]
        );
    }

    #[test]
    fn stats_counters_use_canonical_names() {
        let stats = FaultStats {
            jitter_spikes: 1,
            publications_dropped: 2,
            publications_delayed: 3,
            windows_corrupted: 4,
        };
        assert_eq!(
            stats.counters(),
            [
                ("fault.jitter", 1),
                ("fault.dropped_pub", 2),
                ("fault.delayed_pub", 3),
                ("fault.corrupt_window", 4),
            ]
        );
    }

    #[test]
    fn same_inputs_same_decisions() {
        let plan = FaultPlan::chaos();
        let run = |seed| {
            let mut inj = FaultInjector::new(plan, seed, 1);
            let mut fates = Vec::new();
            for ms in (0..10_000).step_by(500) {
                if let Some(d) = inj.tick_jitter(at(ms)) {
                    fates.push(format!("jitter+{d}"));
                }
                fates.push(format!("{:?}", inj.publication_fate(at(ms))));
            }
            fates
        };
        assert_eq!(run(7), run(7));
    }
}
