//! The [`Scenario`] descriptor and its canonical text form.

use crate::faults::FaultPlan;
use satin_hash::HashAlgorithm;
use satin_hw::profile::PlatformSpec;
use satin_hw::timing::ScanStrategy;
use satin_hw::CoreId;
use satin_sim::SimDuration;
use std::fmt::Write as _;

/// Which prober implementation carries TZ-Evader's side channel. Defined
/// here, below the attack layer, so descriptors can name it;
/// `satin-attack` deploys it (`kprober::deploy_prober`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProberKind {
    /// User-level CFS prober (§III-B1).
    UserLevel,
    /// Timer-interrupt injection (KProber-I).
    KProberI,
    /// Real-time scheduler prober (KProber-II) — the paper's strongest.
    KProberII,
}

impl ProberKind {
    /// All kinds, weakest first.
    pub const ALL: [ProberKind; 3] = [
        ProberKind::UserLevel,
        ProberKind::KProberI,
        ProberKind::KProberII,
    ];

    /// Stable descriptor name.
    pub fn name(self) -> &'static str {
        match self {
            ProberKind::UserLevel => "user-level",
            ProberKind::KProberI => "kprober-i",
            ProberKind::KProberII => "kprober-ii",
        }
    }

    /// Parses a descriptor name.
    pub fn from_name(name: &str) -> Option<Self> {
        ProberKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The attacker half of a scenario: which prober, at what cadence, with
/// what learned threshold, recovering on which core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackProfile {
    /// Prober implementation.
    pub prober: ProberKind,
    /// Reporting cadence `Tsleep` (§IV-A1; the paper uses 200 µs).
    pub sleep: SimDuration,
    /// Learned staleness threshold; `None` = measurement-only mode.
    pub threshold: Option<SimDuration>,
    /// Core index the rootkit's recovery thread is pinned to.
    pub recovery_core: usize,
}

/// Which cores perform introspection rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorePolicy {
    /// Every core takes turns in a random, queue-coordinated order (§V-D) —
    /// the design the paper adopts.
    AllRandom,
    /// Only one fixed core introspects — the predictable-affinity ablation
    /// that §IV-B2 shows is ~4× easier to probe.
    Fixed(CoreId),
}

impl CorePolicy {
    /// Stable descriptor form (`all-random` or `fixed:N`).
    pub fn to_text(self) -> String {
        match self {
            CorePolicy::AllRandom => "all-random".to_string(),
            CorePolicy::Fixed(core) => format!("fixed:{}", core.index()),
        }
    }

    /// Parses the descriptor form.
    pub fn from_text(text: &str) -> Option<Self> {
        if text == "all-random" {
            return Some(CorePolicy::AllRandom);
        }
        let n = text.strip_prefix("fixed:")?;
        n.parse().ok().map(|n| CorePolicy::Fixed(CoreId::new(n)))
    }
}

/// How the kernel is divided into areas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AreaPolicy {
    /// One area per `System.map` segment (the paper's 19 areas).
    Segments,
    /// Greedy packing under an explicit bound (ablation).
    Greedy {
        /// Maximum area size in bytes.
        max_size: u64,
    },
    /// One monolithic area (the insecure baseline; fails safety validation).
    Monolithic,
}

impl AreaPolicy {
    /// Stable descriptor form (`segments`, `greedy:N`, or `monolithic`).
    pub fn to_text(self) -> String {
        match self {
            AreaPolicy::Segments => "segments".to_string(),
            AreaPolicy::Greedy { max_size } => format!("greedy:{max_size}"),
            AreaPolicy::Monolithic => "monolithic".to_string(),
        }
    }

    /// Parses the descriptor form.
    pub fn from_text(text: &str) -> Option<Self> {
        match text {
            "segments" => return Some(AreaPolicy::Segments),
            "monolithic" => return Some(AreaPolicy::Monolithic),
            _ => {}
        }
        let n = text.strip_prefix("greedy:")?;
        n.parse()
            .ok()
            .map(|max_size| AreaPolicy::Greedy { max_size })
    }
}

/// The defender half of a scenario: SATIN's configuration. `satin-core`
/// runs it (`Satin::new`) and re-exports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SatinConfig {
    /// Full-coverage goal `Tgoal`; `tp = Tgoal / m` (§V-C).
    pub tgoal: SimDuration,
    /// Digest algorithm (djb2 in the paper).
    pub algorithm: HashAlgorithm,
    /// Scan strategy (direct hash in the paper; Table I's comparison).
    pub strategy: ScanStrategy,
    /// Randomize wake intervals with `td ∈ [−tp, tp]`?
    pub randomize_wake: bool,
    /// Core selection policy.
    pub core_policy: CorePolicy,
    /// Area division policy.
    pub area_policy: AreaPolicy,
    /// Assumed attacker probing delay `Tns_delay = Tns_sched +
    /// Tns_threshold` for the safety bound.
    pub tns_delay_secs: f64,
    /// Refuse to boot if any area exceeds the safety bound.
    pub enforce_safety: bool,
    /// On an alarm, repair the tampered area's invariant sections from a
    /// boot-time golden copy (an RKP-style extension beyond the paper's
    /// report-only SATIN; costs ~3.5 MB of secure memory).
    pub remediate: bool,
}

impl SatinConfig {
    /// A copy of `profile`. The defense profile *is* the configuration;
    /// only the frozen benchmark (`perfbench/`) still calls this.
    pub fn from_profile(profile: &SatinConfig) -> Self {
        *profile
    }
}

/// The campaign shape: how a grid sweep exercises the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignProfile {
    /// Introspection rounds each campaign runs for.
    pub rounds: usize,
    /// `Tgoal` override for the campaign (shorter than the defense's
    /// configured goal so sweeps stay fast — exactly how the quick
    /// detection campaign compresses the paper's 152 s to 19 s).
    pub tgoal: SimDuration,
    /// Seeds per scenario in a grid sweep (seed, seed+1, …).
    pub seeds: usize,
}

/// A complete declarative scenario: platform + attacker + defense +
/// campaign shape. The unit the registry stores, the text format
/// round-trips, and `repro --scenario` selects.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Unique scenario name (also the registry key).
    pub name: String,
    /// One-line human summary for `--scenario-list`.
    pub summary: String,
    /// The hardware platform.
    pub platform: PlatformSpec,
    /// The attacker.
    pub attack: AttackProfile,
    /// The defender.
    pub defense: SatinConfig,
    /// The campaign shape.
    pub campaign: CampaignProfile,
    /// Injected faults (empty by default: clean runs stay clean).
    pub faults: FaultPlan,
}

impl Scenario {
    /// Checks cross-field invariants the parser cannot express per-line.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario name must not be empty".to_string());
        }
        // The text form is line-oriented with trimmed values; names or
        // summaries that embed newlines or edge whitespace cannot round-trip.
        if self.name != self.name.trim() || self.name.contains('\n') {
            return Err("scenario name must be a single trimmed line".to_string());
        }
        if self.summary != self.summary.trim() || self.summary.contains('\n') {
            return Err("scenario summary must be a single trimmed line".to_string());
        }
        if self.platform.cores.is_empty() {
            return Err("platform must declare at least one core".to_string());
        }
        let (lo, hi) = self.platform.ts_switch_secs;
        if !(lo.is_finite() && hi.is_finite() && 0.0 < lo && lo <= hi) {
            return Err(format!("ts-switch bounds [{lo}, {hi}] invalid"));
        }
        for kind in self.platform.kinds_present() {
            let cal = self.platform.calibration(kind);
            for (what, tri) in [
                ("hash-1byte", cal.hash_1byte),
                ("snapshot-1byte", cal.snapshot_1byte),
                ("recover", cal.recover),
            ] {
                let ok = tri.min.is_finite()
                    && tri.max.is_finite()
                    && 0.0 < tri.min
                    && tri.min <= tri.mean
                    && tri.mean <= tri.max;
                if !ok {
                    return Err(format!(
                        "{kind} {what} calibration ({}, {}, {}) must satisfy 0 < min <= mean <= max",
                        tri.min, tri.mean, tri.max
                    ));
                }
            }
            if !(cal.relative_speed.is_finite() && cal.relative_speed > 0.0) {
                return Err(format!("{kind} relative-speed must be positive"));
            }
        }
        if self.attack.recovery_core >= self.platform.cores.len() {
            return Err(format!(
                "recovery-core {} out of range for {} cores",
                self.attack.recovery_core,
                self.platform.cores.len()
            ));
        }
        if self.attack.sleep == SimDuration::ZERO {
            return Err("attack sleep cadence must be positive".to_string());
        }
        if let CorePolicy::Fixed(core) = self.defense.core_policy {
            if core.index() >= self.platform.cores.len() {
                return Err(format!(
                    "core-policy fixed:{} out of range for {} cores",
                    core.index(),
                    self.platform.cores.len()
                ));
            }
        }
        if self.defense.tgoal == SimDuration::ZERO {
            return Err("defense tgoal must be positive".to_string());
        }
        if !(self.defense.tns_delay_secs.is_finite() && self.defense.tns_delay_secs > 0.0) {
            return Err("tns-delay-secs must be positive".to_string());
        }
        if self.campaign.rounds == 0 {
            return Err("campaign rounds must be at least 1".to_string());
        }
        if self.campaign.tgoal == SimDuration::ZERO {
            return Err("campaign tgoal must be positive".to_string());
        }
        if self.campaign.seeds == 0 {
            return Err("campaign seeds must be at least 1".to_string());
        }
        self.faults.validate()?;
        Ok(())
    }

    /// The grid-cell identity of one campaign of this scenario:
    /// `"<scenario name>/s<seed>"` (e.g. `"juno-r1/s42"`). This is the
    /// `label` carried by `cell.started` events, and — being a pure
    /// function of scenario and seed — is identical for any `--jobs`
    /// count.
    pub fn cell_label(&self, seed: u64) -> String {
        format!("{}/s{seed}", self.name)
    }

    /// Stable 64-bit content hash of the scenario *without* its fault
    /// plan: FNV-1a over the canonical text of a faults-cleared clone.
    /// Two `Scenario` values hash equal exactly when they render to the
    /// same descriptor text modulo `[faults]` — the fault plan is keyed
    /// separately ([`FaultPlan::content_hash`]) so one scenario under
    /// different plans shares a scenario identity. Used as the first
    /// component of `satin-serve`'s content-addressed store key.
    pub fn content_hash(&self) -> u64 {
        let mut clean = self.clone();
        clean.faults = FaultPlan::default();
        satin_hash::hash_bytes(HashAlgorithm::Fnv1a, clean.to_text().as_bytes())
    }

    /// Renders the canonical text form: every section and key, in fixed
    /// order, floats in Rust's shortest round-trip notation. Parsing this
    /// text yields a `Scenario` equal to `self`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        // Infallible: writing to a String cannot fail.
        let _ = writeln!(out, "# SATIN scenario descriptor");
        let _ = writeln!(out, "[scenario]");
        let _ = writeln!(out, "name = {}", self.name);
        let _ = writeln!(out, "summary = {}", self.summary);
        let _ = writeln!(out);
        let _ = writeln!(out, "[platform]");
        let cores: Vec<&str> = self.platform.cores.iter().map(|k| k.name()).collect();
        let _ = writeln!(out, "cores = {}", cores.join(" "));
        let _ = writeln!(out, "routing = {}", self.platform.routing.name());
        let _ = writeln!(
            out,
            "ts-switch-secs = {} {}",
            self.platform.ts_switch_secs.0, self.platform.ts_switch_secs.1
        );
        for (label, cal) in [("a53", &self.platform.a53), ("a57", &self.platform.a57)] {
            let _ = writeln!(out);
            let _ = writeln!(out, "[timing.{label}]");
            let _ = writeln!(
                out,
                "hash-1byte-secs = {} {} {}",
                cal.hash_1byte.min, cal.hash_1byte.mean, cal.hash_1byte.max
            );
            let _ = writeln!(
                out,
                "snapshot-1byte-secs = {} {} {}",
                cal.snapshot_1byte.min, cal.snapshot_1byte.mean, cal.snapshot_1byte.max
            );
            let _ = writeln!(
                out,
                "recover-secs = {} {} {}",
                cal.recover.min, cal.recover.mean, cal.recover.max
            );
            let _ = writeln!(out, "relative-speed = {}", cal.relative_speed);
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "[attack]");
        let _ = writeln!(out, "prober = {}", self.attack.prober.name());
        let _ = writeln!(out, "sleep-ns = {}", self.attack.sleep.as_nanos());
        match self.attack.threshold {
            Some(t) => {
                let _ = writeln!(out, "threshold-ns = {}", t.as_nanos());
            }
            None => {
                let _ = writeln!(out, "threshold-ns = none");
            }
        }
        let _ = writeln!(out, "recovery-core = {}", self.attack.recovery_core);
        let _ = writeln!(out);
        let _ = writeln!(out, "[defense]");
        let _ = writeln!(out, "tgoal-ns = {}", self.defense.tgoal.as_nanos());
        let _ = writeln!(out, "algorithm = {}", self.defense.algorithm.name());
        let _ = writeln!(out, "strategy = {}", self.defense.strategy.name());
        let _ = writeln!(out, "randomize-wake = {}", self.defense.randomize_wake);
        let _ = writeln!(out, "core-policy = {}", self.defense.core_policy.to_text());
        let _ = writeln!(out, "area-policy = {}", self.defense.area_policy.to_text());
        let _ = writeln!(out, "tns-delay-secs = {}", self.defense.tns_delay_secs);
        let _ = writeln!(out, "enforce-safety = {}", self.defense.enforce_safety);
        let _ = writeln!(out, "remediate = {}", self.defense.remediate);
        let _ = writeln!(out);
        let _ = writeln!(out, "[campaign]");
        let _ = writeln!(out, "rounds = {}", self.campaign.rounds);
        let _ = writeln!(out, "tgoal-ns = {}", self.campaign.tgoal.as_nanos());
        let _ = writeln!(out, "seeds = {}", self.campaign.seeds);
        // Fault-free scenarios must render exactly as they did before the
        // fault layer existed, so the section only appears when armed.
        if !self.faults.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "[faults]");
            out.push_str(&self.faults.to_text());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_ignores_fault_plan_but_tracks_everything_else() {
        let base = Scenario::paper();
        let mut faulted = base.clone();
        faulted.faults = FaultPlan::smoke();
        // Same scenario under a different fault plan: same identity — the
        // plan is keyed separately in the store.
        assert_eq!(base.content_hash(), faulted.content_hash());

        let mut renamed = base.clone();
        renamed.name = "juno-r1-prime".to_string();
        assert_ne!(base.content_hash(), renamed.content_hash());

        let mut retuned = base.clone();
        retuned.campaign.rounds += 1;
        assert_ne!(base.content_hash(), retuned.content_hash());

        // Stable across calls and across parse round-trips.
        let reparsed = crate::parse_scenario(&base.to_text()).expect("round-trip");
        assert_eq!(base.content_hash(), reparsed.content_hash());
    }
}
