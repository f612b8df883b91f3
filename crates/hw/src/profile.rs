//! Declarative platform profiles: the data form of a [`Platform`](crate::Platform).
//!
//! The paper evaluates SATIN on exactly one machine — an ARM Juno r1. A
//! [`PlatformSpec`] is that board as data: a named topology plus the
//! per-core-kind timing calibration, from which
//! [`Platform::from_profile`](crate::Platform::from_profile) assembles the
//! simulated hardware. [`PlatformSpec::juno_r1`] is the one
//! place the paper's silicon numbers are written; `Platform::juno_r1`,
//! `Topology::juno_r1` and `TimingModel::paper_calibrated` are built from
//! it. Related work shows both why this
//! matters: TrustZone world-switch costs vary widely across ARM parts
//! (Amacher & Schiavoni, *On The Performance of ARM TrustZone*), and
//! integrity-measurement policy should be configuration, not code
//! (Mao & Chang, *PDRIMA*).
//!
//! The `satin-scenario` crate parses these specs from text and bundles
//! them with attacker/defense parameters; this module owns only the
//! hardware half so that `satin-hw` stays dependency-free.
//!
//! # Example
//!
//! ```
//! use satin_hw::profile::PlatformSpec;
//! use satin_hw::Platform;
//!
//! // The paper's board, as data.
//! let spec = PlatformSpec::juno_r1();
//! assert_eq!(spec.cores.len(), 6);
//! let p = Platform::from_profile(&spec);
//! assert_eq!(p.topology().num_cores(), 6);
//! ```

use crate::gic::RoutingKind;
use crate::timing::{CoreCalibration, TimingModel, TriSpec};
use crate::topology::{CoreKind, Topology};
use satin_sim::dist::UniformSecs;

/// The declarative form of a [`Platform`](crate::Platform): a named
/// topology plus timing calibration. Everything the hardware layer needs,
/// as plain data.
///
/// Fields the spec does not cover (dispatch jitters, publication delay,
/// cache-pollution model) come from `TimingModel::new`: they model the
/// Linux substrate rather than the silicon, and no related platform reports
/// numbers for them.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSpec {
    /// Profile name (e.g. `juno-r1`).
    pub name: String,
    /// Core kinds in core-id order.
    pub cores: Vec<CoreKind>,
    /// Interrupt routing.
    pub routing: RoutingKind,
    /// World-switch cost bounds `Ts_switch` as `(lo, hi)` seconds.
    pub ts_switch_secs: (f64, f64),
    /// Cortex-A53 calibration (used by any A53 core in `cores`).
    pub a53: CoreCalibration,
    /// Cortex-A57 calibration (used by any A57 core in `cores`).
    pub a57: CoreCalibration,
}

impl PlatformSpec {
    /// The paper's evaluation platform: Juno r1 (2×A57 + 4×A53) with the
    /// calibrated timing model and SATIN's non-preemptive routing. This is
    /// the one place the paper's silicon numbers are written: `Ts_switch`
    /// (§IV-B1), the Table I per-byte rates and `Tns_recover` (§IV-B2).
    pub fn juno_r1() -> Self {
        PlatformSpec {
            name: "juno-r1".to_string(),
            cores: vec![
                CoreKind::A57,
                CoreKind::A57,
                CoreKind::A53,
                CoreKind::A53,
                CoreKind::A53,
                CoreKind::A53,
            ],
            routing: RoutingKind::Satin,
            ts_switch_secs: (2.38e-6, 3.60e-6),
            a53: CoreCalibration {
                hash_1byte: TriSpec::new(9.23e-9, 1.07e-8, 1.14e-8),
                snapshot_1byte: TriSpec::new(9.24e-9, 1.08e-8, 1.57e-8),
                recover: TriSpec::new(5.20e-3, 5.80e-3, 6.13e-3),
                relative_speed: 0.63,
            },
            a57: CoreCalibration {
                hash_1byte: TriSpec::new(6.67e-9, 6.71e-9, 7.50e-9),
                snapshot_1byte: TriSpec::new(6.67e-9, 6.75e-9, 7.83e-9),
                recover: TriSpec::new(4.40e-3, 4.96e-3, 5.60e-3),
                relative_speed: 1.0,
            },
        }
    }

    /// The topology this spec declares.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is empty (a platform needs at least one core).
    pub fn topology(&self) -> Topology {
        Topology::new(self.cores.clone())
    }

    /// The calibration of one core kind.
    pub fn calibration(&self, kind: CoreKind) -> &CoreCalibration {
        match kind {
            CoreKind::A53 => &self.a53,
            CoreKind::A57 => &self.a57,
        }
    }

    /// The timing model this spec calibrates: per-kind calibration and
    /// `Ts_switch` from the spec over the shared Linux substrate.
    pub fn timing_model(&self) -> TimingModel {
        TimingModel::new(
            UniformSecs::new(self.ts_switch_secs.0, self.ts_switch_secs.1),
            self.a53,
            self.a57,
        )
    }

    /// The id of the `n`-th (0-based) core of `kind`, if present.
    /// Experiments use this to pick measurement cores declaratively
    /// (e.g. "the second big core") instead of hard-coding Juno ids.
    pub fn nth_core_of_kind(&self, kind: CoreKind, n: usize) -> Option<usize> {
        self.cores
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == kind)
            .map(|(i, _)| i)
            .nth(n)
    }

    /// The core kinds present, in stable `[A53, A57]` order.
    pub fn kinds_present(&self) -> Vec<CoreKind> {
        [CoreKind::A53, CoreKind::A57]
            .into_iter()
            .filter(|k| self.cores.contains(k))
            .collect()
    }

    /// A compact topology label like `2xA57+4xA53` (cluster run-lengths in
    /// core-id order).
    pub fn topology_label(&self) -> String {
        let mut parts: Vec<(CoreKind, usize)> = Vec::new();
        for &k in &self.cores {
            match parts.last_mut() {
                Some((last, n)) if *last == k => *n += 1,
                _ => parts.push((k, 1)),
            }
        }
        parts
            .iter()
            .map(|(k, n)| format!("{n}x{}", k.name()))
            .collect::<Vec<_>>()
            .join("+")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::CoreId;
    use crate::Platform;

    #[test]
    fn nth_core_of_kind_picks_in_id_order() {
        let spec = PlatformSpec::juno_r1();
        assert_eq!(spec.nth_core_of_kind(CoreKind::A57, 0), Some(0));
        assert_eq!(spec.nth_core_of_kind(CoreKind::A57, 1), Some(1));
        assert_eq!(spec.nth_core_of_kind(CoreKind::A57, 2), None);
        assert_eq!(spec.nth_core_of_kind(CoreKind::A53, 0), Some(2));
        assert_eq!(spec.nth_core_of_kind(CoreKind::A53, 2), Some(4));
    }

    #[test]
    fn kinds_present_and_label() {
        let spec = PlatformSpec::juno_r1();
        assert_eq!(spec.kinds_present(), vec![CoreKind::A53, CoreKind::A57]);
        assert_eq!(spec.topology_label(), "2xA57+4xA53");
        let little = PlatformSpec {
            name: "all-little".into(),
            cores: vec![CoreKind::A53; 4],
            ..PlatformSpec::juno_r1()
        };
        assert_eq!(little.kinds_present(), vec![CoreKind::A53]);
        assert_eq!(little.topology_label(), "4xA53");
    }

    #[test]
    fn custom_spec_overrides_switch_cost() {
        let slow = PlatformSpec {
            ts_switch_secs: (5.0e-5, 1.0e-4),
            ..PlatformSpec::juno_r1()
        };
        let t = slow.timing_model();
        assert_eq!(t.ts_switch.lo(), 5.0e-5);
        assert_eq!(t.max_ts_switch_secs(), 1.0e-4);
        // Per-kind calibration still the paper's.
        assert_eq!(t.fastest_hash_rate().secs_per_byte(), 6.67e-9);
    }

    #[test]
    fn routing_kind_round_trips() {
        for k in RoutingKind::ALL {
            assert_eq!(RoutingKind::from_name(k.name()), Some(k));
        }
        assert_eq!(RoutingKind::from_name("nope"), None);
        assert!(!RoutingKind::Satin.irq_to_el3());
        assert!(RoutingKind::Preemptive.irq_to_el3());
    }

    #[test]
    fn profile_platform_is_usable() {
        let spec = PlatformSpec {
            name: "mini".into(),
            cores: vec![CoreKind::A57, CoreKind::A53],
            ..PlatformSpec::juno_r1()
        };
        let p = Platform::from_profile(&spec);
        assert_eq!(p.core_kind(CoreId::new(0)), CoreKind::A57);
        assert_eq!(p.core_kind(CoreId::new(1)), CoreKind::A53);
        assert_eq!(p.timing().relative_speed(CoreKind::A53), 0.63);
    }
}
