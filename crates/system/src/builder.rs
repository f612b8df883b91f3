//! Construction of a [`System`].

use crate::machine::System;
use satin_faults::FaultInjector;
use satin_hw::Platform;
use satin_mem::KernelLayout;
use satin_scenario::{FaultPlan, Scenario};
use satin_sim::{RngFactory, TraceLog};
use satin_telemetry::Timeline;

/// Builder for a [`System`].
///
/// Defaults reproduce the paper's evaluation platform — the `juno-r1`
/// scenario profile (Juno r1 with the calibrated timing model), the
/// 19-segment kernel layout, and tracing enabled. The kernel's tick and
/// CFS settings are the lsk-4.4 constants of `satin-kernel`, and the
/// hardware is set only through [`SystemBuilder::scenario`].
/// `SystemBuilder::new()` and
/// `SystemBuilder::new().scenario(&Scenario::paper())` build identical
/// systems.
///
/// # Example
///
/// ```
/// use satin_system::SystemBuilder;
/// let sys = SystemBuilder::new().seed(42).trace(false).build();
/// assert_eq!(sys.num_cores(), 6);
/// ```
pub struct SystemBuilder {
    platform: Platform,
    layout: KernelLayout,
    master_seed: u64,
    image_seed: u64,
    trace: bool,
    telemetry: bool,
    fault_plan: FaultPlan,
    fault_attempt: u32,
}

impl SystemBuilder {
    /// A builder with paper defaults.
    pub fn new() -> Self {
        SystemBuilder {
            platform: Platform::juno_r1(),
            layout: KernelLayout::paper(),
            master_seed: 0x5a71_0001,
            image_seed: 0x1_4ee7,
            trace: true,
            telemetry: false,
            fault_plan: FaultPlan::default(),
            fault_attempt: 1,
        }
    }

    /// Sets the master RNG seed (drives every stochastic draw).
    pub fn seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Sets the kernel-image content seed.
    pub fn image_seed(mut self, seed: u64) -> Self {
        self.image_seed = seed;
        self
    }

    /// Applies a scenario: the platform is built from the scenario's
    /// profile and the scenario's fault plan is adopted. A custom platform
    /// is a scenario variant (e.g. `Scenario::paper()` with other
    /// `platform.cores`). An empty plan means a clean run; a non-empty plan
    /// arms a deterministic [`FaultInjector`] keyed by the master seed and
    /// the attempt number. The attacker and defender are deployed above
    /// this crate (`TzEvaderConfig::from_profile`,
    /// `Satin::new(scenario.defense)`); the builder only owns the hardware
    /// and the fault injector.
    pub fn scenario(mut self, scenario: &Scenario) -> Self {
        self.platform = Platform::from_profile(&scenario.platform);
        self.fault_plan = scenario.faults;
        self
    }

    /// Sets the 1-based retry attempt this run represents (faults with an
    /// attempt budget stop firing on later attempts).
    pub fn fault_attempt(mut self, attempt: u32) -> Self {
        self.fault_attempt = attempt.max(1);
        self
    }

    /// Enables or disables tracing (disable for long benchmark runs).
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Enables or disables telemetry span recording (off by default; see
    /// [`System::telemetry`]). Recording is pure observation, so turning it
    /// on never changes a run's outcome — only what gets remembered.
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Assembles the system.
    pub fn build(self) -> System {
        let f = RngFactory::new(self.master_seed);
        let rngs = [
            f.stream("sched"),
            f.stream("timing"),
            f.stream("secure"),
            f.stream("body"),
        ];
        let trace = if self.trace {
            TraceLog::new()
        } else {
            TraceLog::disabled()
        };
        let telemetry = if self.telemetry {
            Timeline::new()
        } else {
            Timeline::disabled()
        };
        let faults = (!self.fault_plan.is_empty())
            .then(|| FaultInjector::new(self.fault_plan, self.master_seed, self.fault_attempt));
        System::assemble(
            self.platform,
            self.layout,
            self.image_seed,
            rngs,
            trace,
            telemetry,
            faults,
        )
    }
}

impl Default for SystemBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satin_hw::CoreKind;

    #[test]
    fn default_is_juno() {
        let s = SystemBuilder::new().build();
        assert_eq!(s.num_cores(), 6);
        assert_eq!(s.layout().num_segments(), 19);
        assert!(s.trace().is_enabled());
    }

    #[test]
    fn custom_platform_from_scenario_profile() {
        // Derive the 2-core A53 variant from the juno-r1 profile instead of
        // assembling a Topology inline: the profile stays the single source
        // of timing/routing truth and only the core list changes.
        let mut sc = Scenario::paper();
        sc.platform.cores = vec![CoreKind::A53; 2];
        let s = SystemBuilder::new().scenario(&sc).trace(false).build();
        assert_eq!(s.num_cores(), 2);
        assert!(s
            .platform()
            .topology()
            .cores()
            .all(|c| s.platform().core_kind(c) == CoreKind::A53));
        assert!(!s.trace().is_enabled());
    }

    #[test]
    fn builder_defaults_equal_juno_profile() {
        // The regression the scenario layer must never break: plain
        // `new()` and the juno-r1 profile describe the same machine,
        // field for field.
        let plain = SystemBuilder::new().build();
        let via_scenario = SystemBuilder::new().scenario(&Scenario::paper()).build();
        let spec = Scenario::paper().platform;
        for (p, label) in [(&plain, "new()"), (&via_scenario, "scenario()")] {
            let p = p.platform();
            assert_eq!(p.topology(), &spec.topology(), "{label}: topology");
            assert_eq!(
                format!("{:?}", p.timing()),
                format!("{:?}", spec.timing_model()),
                "{label}: timing model"
            );
            assert_eq!(p.gic().config(), spec.routing, "{label}: routing");
        }
        assert_eq!(plain.layout().num_segments(), 19);
    }

    #[test]
    fn scenario_build_is_byte_identical_to_default() {
        // Same seed, same workload: the juno-r1 scenario must replay the
        // default build's trace event for event.
        let run = |via_scenario: bool| {
            let b = SystemBuilder::new().seed(7);
            let b = if via_scenario {
                b.scenario(&Scenario::paper())
            } else {
                b
            };
            let mut s = b.build();
            use satin_kernel::{Affinity, SchedClass};
            use satin_sim::{SimDuration, SimTime};
            let t = s.spawn(
                "w",
                SchedClass::cfs(),
                Affinity::any(6),
                |ctx: &mut crate::RunCtx<'_>| {
                    let d = ctx.publish_time_report();
                    crate::RunOutcome::sleep_after(d, SimDuration::from_micros(100))
                },
            );
            s.wake_at(t, SimTime::ZERO);
            s.run_until(SimTime::from_millis(10));
            s.trace().render(None)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn determinism_same_seed() {
        let run = |seed: u64| {
            let mut s = SystemBuilder::new().seed(seed).trace(false).build();
            use satin_kernel::{Affinity, SchedClass};
            use satin_sim::{SimDuration, SimTime};
            let t = s.spawn(
                "w",
                SchedClass::cfs(),
                Affinity::any(6),
                |ctx: &mut crate::RunCtx<'_>| {
                    let d = ctx.publish_time_report();
                    crate::RunOutcome::sleep_after(d, SimDuration::from_micros(100))
                },
            );
            s.wake_at(t, SimTime::ZERO);
            s.run_until(SimTime::from_millis(10));
            (s.task(t).cpu_time(), s.stats().time_reports)
        };
        assert_eq!(run(99), run(99));
    }
}
