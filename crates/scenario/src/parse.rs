//! Hand-rolled parser for the scenario text format.
//!
//! The format is a deliberately tiny INI dialect — `[section]` headers,
//! `key = value` pairs, full-line `#` comments — so descriptors stay
//! hand-writable and the parser stays dependency-free (no serde: the
//! registry is unreachable from this environment). Unknown sections,
//! unknown keys, and duplicates are hard errors with line numbers; every
//! section except `[scenario]` is optional and defaults to the `juno-r1`
//! profile, so a descriptor only spells out what it changes.

use crate::faults::{apply_fault_key, FaultPlan};
use crate::registry;
use crate::scenario::{AreaPolicy, CorePolicy, ProberKind, Scenario};
use satin_hash::HashAlgorithm;
use satin_hw::timing::ScanStrategy;
use satin_hw::CoreKind;
use satin_hw::{RoutingKind, TriSpec};
use satin_sim::SimDuration;
use std::collections::BTreeSet;

/// A parse failure, pointing at the offending line (1-based; line 0 means
/// the document as a whole).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number, or 0 for document-level errors.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "scenario: {}", self.msg)
        } else {
            write!(f, "line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Scenario,
    Platform,
    TimingA53,
    TimingA57,
    Attack,
    Defense,
    Campaign,
    Faults,
}

impl Section {
    fn from_header(name: &str) -> Option<Self> {
        match name {
            "scenario" => Some(Section::Scenario),
            "platform" => Some(Section::Platform),
            "timing.a53" => Some(Section::TimingA53),
            "timing.a57" => Some(Section::TimingA57),
            "attack" => Some(Section::Attack),
            "defense" => Some(Section::Defense),
            "campaign" => Some(Section::Campaign),
            "faults" => Some(Section::Faults),
            _ => None,
        }
    }

    fn header(self) -> &'static str {
        match self {
            Section::Scenario => "scenario",
            Section::Platform => "platform",
            Section::TimingA53 => "timing.a53",
            Section::TimingA57 => "timing.a57",
            Section::Attack => "attack",
            Section::Defense => "defense",
            Section::Campaign => "campaign",
            Section::Faults => "faults",
        }
    }
}

/// Extracts a `[header]` section name, rejecting unterminated brackets
/// and stray whitespace inside them (`[attack ]` used to fall through to
/// a misleading "unknown section" report).
fn parse_header(line: &str) -> Result<Option<&str>, String> {
    let Some(header) = line.strip_prefix('[') else {
        return Ok(None);
    };
    let Some(header) = header.strip_suffix(']') else {
        return Err(format!("unterminated section header `{line}`"));
    };
    if header != header.trim() {
        return Err(format!(
            "section header `[{header}]` has stray whitespace inside the brackets"
        ));
    }
    Ok(Some(header))
}

/// Splits a `key = value` line, rejecting empty keys and keys with
/// embedded whitespace (`dro p-publication = …` used to surface as a
/// misleading "unknown key").
fn parse_kv(line: &str) -> Result<(&str, &str), String> {
    let Some((key, value)) = line.split_once('=') else {
        return Err(format!("expected `key = value`, got `{line}`"));
    };
    let (key, value) = (key.trim(), value.trim());
    if key.is_empty() {
        return Err("empty key before `=`".to_string());
    }
    if key.chars().any(char::is_whitespace) {
        return Err(format!("key `{key}` contains whitespace"));
    }
    Ok((key, value))
}

fn parse_floats<const N: usize>(value: &str) -> Result<[f64; N], String> {
    let parts: Vec<&str> = value.split_whitespace().collect();
    if parts.len() != N {
        return Err(format!("expected {N} numbers, got {}", parts.len()));
    }
    let mut out = [0.0; N];
    for (slot, part) in out.iter_mut().zip(&parts) {
        *slot = part
            .parse()
            .map_err(|_| format!("`{part}` is not a number"))?;
    }
    Ok(out)
}

fn parse_tri(value: &str) -> Result<TriSpec, String> {
    let [min, mean, max] = parse_floats::<3>(value)?;
    Ok(TriSpec::new(min, mean, max))
}

fn parse_bool(value: &str) -> Result<bool, String> {
    match value {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(format!("`{other}` is not `true` or `false`")),
    }
}

fn parse_int<T: std::str::FromStr>(value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("`{value}` is not a non-negative integer"))
}

fn parse_nanos(value: &str) -> Result<SimDuration, String> {
    parse_int::<u64>(value).map(SimDuration::from_nanos)
}

/// Parses a scenario descriptor.
///
/// Every section except `[scenario]` (which must provide `name`) is
/// optional; omitted keys keep their `juno-r1` values.
///
/// # Errors
///
/// [`ParseError`] with the 1-based line number of the first offending
/// line, or line 0 for document-level problems (missing name, violated
/// cross-field invariants).
pub fn parse_scenario(text: &str) -> Result<Scenario, ParseError> {
    let mut sc = registry::juno_r1();
    sc.name.clear();
    sc.summary.clear();
    let mut name_set = false;

    let mut section: Option<Section> = None;
    let mut seen_sections: BTreeSet<&'static str> = BTreeSet::new();
    let mut seen_keys: BTreeSet<String> = BTreeSet::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let err = |msg: String| ParseError { line: lineno, msg };
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = parse_header(line).map_err(&err)? {
            let Some(sec) = Section::from_header(header) else {
                return Err(err(format!("unknown section `[{header}]`")));
            };
            if !seen_sections.insert(sec.header()) {
                return Err(err(format!("duplicate section `[{header}]`")));
            }
            section = Some(sec);
            continue;
        }
        let (key, value) = parse_kv(line).map_err(&err)?;
        let Some(sec) = section else {
            return Err(err(format!("key `{key}` before any [section]")));
        };
        if !seen_keys.insert(format!("{}/{key}", sec.header())) {
            return Err(err(format!("duplicate key `{key}` in [{}]", sec.header())));
        }
        let unknown = || err(format!("unknown key `{key}` in [{}]", sec.header()));
        match sec {
            Section::Scenario => match key {
                "name" => {
                    sc.name = value.to_string();
                    name_set = true;
                }
                "summary" => sc.summary = value.to_string(),
                _ => return Err(unknown()),
            },
            Section::Platform => match key {
                "cores" => {
                    let mut cores = Vec::new();
                    for part in value.split_whitespace() {
                        let kind = CoreKind::from_name(part)
                            .ok_or_else(|| err(format!("unknown core kind `{part}`")))?;
                        cores.push(kind);
                    }
                    sc.platform.cores = cores;
                }
                "routing" => {
                    sc.platform.routing = RoutingKind::from_name(value)
                        .ok_or_else(|| err(format!("unknown routing `{value}`")))?;
                }
                "ts-switch-secs" => {
                    let [lo, hi] = parse_floats::<2>(value).map_err(err)?;
                    sc.platform.ts_switch_secs = (lo, hi);
                }
                _ => return Err(unknown()),
            },
            Section::TimingA53 | Section::TimingA57 => {
                let cal = if sec == Section::TimingA53 {
                    &mut sc.platform.a53
                } else {
                    &mut sc.platform.a57
                };
                match key {
                    "hash-1byte-secs" => cal.hash_1byte = parse_tri(value).map_err(err)?,
                    "snapshot-1byte-secs" => cal.snapshot_1byte = parse_tri(value).map_err(err)?,
                    "recover-secs" => cal.recover = parse_tri(value).map_err(err)?,
                    "relative-speed" => {
                        let [speed] = parse_floats::<1>(value).map_err(err)?;
                        cal.relative_speed = speed;
                    }
                    _ => return Err(unknown()),
                }
            }
            Section::Attack => match key {
                "prober" => {
                    sc.attack.prober = ProberKind::from_name(value)
                        .ok_or_else(|| err(format!("unknown prober `{value}`")))?;
                }
                "sleep-ns" => sc.attack.sleep = parse_nanos(value).map_err(err)?,
                "threshold-ns" => {
                    sc.attack.threshold = if value == "none" {
                        None
                    } else {
                        Some(parse_nanos(value).map_err(err)?)
                    };
                }
                "recovery-core" => sc.attack.recovery_core = parse_int(value).map_err(err)?,
                _ => return Err(unknown()),
            },
            Section::Defense => match key {
                "tgoal-ns" => sc.defense.tgoal = parse_nanos(value).map_err(err)?,
                "algorithm" => {
                    sc.defense.algorithm = HashAlgorithm::ALL
                        .into_iter()
                        .find(|a| a.name() == value)
                        .ok_or_else(|| err(format!("unknown algorithm `{value}`")))?;
                }
                "strategy" => {
                    sc.defense.strategy = ScanStrategy::from_name(value)
                        .ok_or_else(|| err(format!("unknown strategy `{value}`")))?;
                }
                "randomize-wake" => sc.defense.randomize_wake = parse_bool(value).map_err(err)?,
                "core-policy" => {
                    sc.defense.core_policy = CorePolicy::from_text(value)
                        .ok_or_else(|| err(format!("unknown core policy `{value}`")))?;
                }
                "area-policy" => {
                    sc.defense.area_policy = AreaPolicy::from_text(value)
                        .ok_or_else(|| err(format!("unknown area policy `{value}`")))?;
                }
                "tns-delay-secs" => {
                    let [secs] = parse_floats::<1>(value).map_err(err)?;
                    sc.defense.tns_delay_secs = secs;
                }
                "enforce-safety" => sc.defense.enforce_safety = parse_bool(value).map_err(err)?,
                "remediate" => sc.defense.remediate = parse_bool(value).map_err(err)?,
                _ => return Err(unknown()),
            },
            Section::Campaign => match key {
                "rounds" => sc.campaign.rounds = parse_int(value).map_err(err)?,
                "tgoal-ns" => sc.campaign.tgoal = parse_nanos(value).map_err(err)?,
                "seeds" => sc.campaign.seeds = parse_int(value).map_err(err)?,
                _ => return Err(unknown()),
            },
            Section::Faults => apply_fault_key(&mut sc.faults, key, value).map_err(err)?,
        }
    }

    if !name_set {
        return Err(ParseError {
            line: 0,
            msg: "missing required key `name` in [scenario]".to_string(),
        });
    }
    sc.platform.name = sc.name.clone();
    sc.validate().map_err(|msg| ParseError { line: 0, msg })?;
    Ok(sc)
}

/// Parses a standalone fault plan: a document holding exactly one
/// `[faults]` section in the same dialect as a scenario descriptor, for
/// `repro --faults FILE`.
///
/// # Errors
///
/// [`ParseError`] with the 1-based offending line, or line 0 for
/// document-level problems (missing section, violated invariants). The
/// strictness rules match [`parse_scenario`]: unknown keys, duplicates,
/// stray header whitespace, and malformed keys are all hard errors.
pub fn parse_fault_plan(text: &str) -> Result<FaultPlan, ParseError> {
    let mut plan = FaultPlan::default();
    let mut in_section = false;
    let mut seen_keys: BTreeSet<String> = BTreeSet::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let err = |msg: String| ParseError { line: lineno, msg };
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = parse_header(line).map_err(&err)? {
            if header != "faults" {
                return Err(err(format!(
                    "unknown section `[{header}]` (fault plans hold only [faults])"
                )));
            }
            if in_section {
                return Err(err("duplicate section `[faults]`".to_string()));
            }
            in_section = true;
            continue;
        }
        let (key, value) = parse_kv(line).map_err(&err)?;
        if !in_section {
            return Err(err(format!("key `{key}` before [faults]")));
        }
        if !seen_keys.insert(key.to_string()) {
            return Err(err(format!("duplicate key `{key}` in [faults]")));
        }
        apply_fault_key(&mut plan, key, value).map_err(err)?;
    }

    if !in_section {
        return Err(ParseError {
            line: 0,
            msg: "missing [faults] section".to_string(),
        });
    }
    plan.validate().map_err(|msg| ParseError { line: 0, msg })?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::proptest;

    #[test]
    fn every_builtin_round_trips() {
        for sc in registry::builtins() {
            let text = sc.to_text();
            let parsed = parse_scenario(&text).unwrap_or_else(|e| panic!("{}: {e}", sc.name));
            assert_eq!(parsed, sc, "{} did not round-trip", sc.name);
            // format → parse → format is a fixed point.
            assert_eq!(parsed.to_text(), text);
        }
    }

    #[test]
    fn minimal_descriptor_defaults_to_juno() {
        let sc = parse_scenario("[scenario]\nname = tiny\n").unwrap();
        assert_eq!(sc.name, "tiny");
        assert_eq!(sc.platform.cores, registry::juno_r1().platform.cores);
        assert_eq!(sc.defense, registry::juno_r1().defense);
    }

    #[test]
    fn partial_override_keeps_other_defaults() {
        let text = "[scenario]\nname = fast\n[attack]\nsleep-ns = 100000\n";
        let sc = parse_scenario(text).unwrap();
        assert_eq!(sc.attack.sleep, SimDuration::from_nanos(100_000));
        assert_eq!(sc.attack.prober, ProberKind::KProberII);
        assert_eq!(sc.attack.recovery_core, 3);
    }

    #[test]
    fn unknown_section_is_line_numbered() {
        let e = parse_scenario("[scenario]\nname = x\n\n[warp-drive]\n").unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.msg.contains("unknown section"), "{e}");
    }

    #[test]
    fn unknown_key_is_line_numbered() {
        let e = parse_scenario("[scenario]\nname = x\nflux = 88\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("unknown key `flux`"), "{e}");
    }

    #[test]
    fn duplicate_section_rejected() {
        let e = parse_scenario("[scenario]\nname = x\n[attack]\n[attack]\n").unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.msg.contains("duplicate section"), "{e}");
    }

    #[test]
    fn duplicate_key_rejected() {
        let e = parse_scenario("[scenario]\nname = x\nname = y\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("duplicate key `name`"), "{e}");
    }

    #[test]
    fn key_outside_section_rejected() {
        let e = parse_scenario("name = x\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("before any [section]"), "{e}");
    }

    #[test]
    fn missing_name_rejected() {
        let e = parse_scenario("[platform]\ncores = A53\n").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.msg.contains("missing required key `name`"), "{e}");
        assert!(e.to_string().starts_with("scenario:"), "{e}");
    }

    #[test]
    fn bad_values_rejected() {
        for (text, needle) in [
            (
                "[scenario]\nname = x\n[platform]\ncores = A99\n",
                "core kind",
            ),
            (
                "[scenario]\nname = x\n[platform]\nts-switch-secs = 1\n",
                "expected 2 numbers",
            ),
            (
                "[scenario]\nname = x\n[attack]\nsleep-ns = soon\n",
                "integer",
            ),
            (
                "[scenario]\nname = x\n[defense]\nremediate = maybe\n",
                "`true` or `false`",
            ),
            (
                "[scenario]\nname = x\n[defense]\nalgorithm = md5\n",
                "unknown algorithm",
            ),
            ("[scenario]\nname = x\nnonsense\n", "key = value"),
            ("[scenario]\nname = x\n[attack\n", "unterminated"),
        ] {
            let e = parse_scenario(text).unwrap_err();
            assert!(e.msg.contains(needle), "`{text}` gave `{e}`");
            assert!(e.line > 0, "`{text}` lost its line number");
        }
    }

    #[test]
    fn cross_field_invariants_enforced() {
        // recovery core beyond a 1-core platform.
        let e = parse_scenario("[scenario]\nname = x\n[platform]\ncores = A53\n").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.msg.contains("recovery-core"), "{e}");
        // non-positive calibration.
        let e = parse_scenario("[scenario]\nname = x\n[timing.a53]\nhash-1byte-secs = 0 0 0\n")
            .unwrap_err();
        assert!(e.msg.contains("min <= mean <= max"), "{e}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\n[scenario]\n# about to name it\nname = x\n\n";
        assert_eq!(parse_scenario(text).unwrap().name, "x");
    }

    #[test]
    fn header_with_stray_whitespace_rejected() {
        // Used to surface as a misleading "unknown section `[attack ]`".
        for text in [
            "[scenario]\nname = x\n[attack ]\n",
            "[scenario]\nname = x\n[ attack]\n",
            "[scenario]\nname = x\n[\tattack\t]\n",
        ] {
            let e = parse_scenario(text).unwrap_err();
            assert_eq!(e.line, 3, "{text:?}");
            assert!(e.msg.contains("stray whitespace"), "{text:?} gave `{e}`");
        }
    }

    #[test]
    fn malformed_keys_rejected() {
        // Empty key, and a key with embedded whitespace: both used to be
        // reported as unknown keys instead of syntax errors.
        let e = parse_scenario("[scenario]\n= x\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("empty key"), "{e}");
        let e = parse_scenario("[scenario]\nna me = x\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("contains whitespace"), "{e}");
    }

    #[test]
    fn faults_section_round_trips_through_scenario() {
        let mut sc = registry::juno_r1();
        sc.faults = crate::faults::FaultPlan::chaos();
        let text = sc.to_text();
        assert!(text.contains("[faults]"), "{text}");
        let parsed = parse_scenario(&text).unwrap();
        assert_eq!(parsed, sc);
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn faultless_scenario_text_has_no_faults_section() {
        // Pre-fault descriptors and golden snapshots must stay byte-stable.
        for sc in registry::builtins() {
            assert!(!sc.to_text().contains("[faults]"), "{}", sc.name);
        }
    }

    #[test]
    fn fault_plan_standalone_parses() {
        let text = "# plan\n[faults]\ndrop-publication = * 3000000000\n\
                    abort = 42 6000000000 2\nmax-attempts = 2\n";
        let plan = parse_fault_plan(text).unwrap();
        assert_eq!(
            plan.drop_publication.map(|d| d.at),
            Some(satin_sim::SimTime::from_secs(3))
        );
        assert_eq!(plan.abort.map(|a| a.attempts), Some(2));
        assert_eq!(plan.max_attempts, 2);
    }

    #[test]
    fn fault_plan_rejects_scenario_sections_and_duplicates() {
        let e = parse_fault_plan("[attack]\nsleep-ns = 1\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("unknown section"), "{e}");
        let e = parse_fault_plan("[faults]\n[faults]\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("duplicate section"), "{e}");
        let e = parse_fault_plan("[faults]\nmax-attempts = 2\nmax-attempts = 3\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("duplicate key"), "{e}");
        let e = parse_fault_plan("jitter = * 1 1\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("before [faults]"), "{e}");
        let e = parse_fault_plan("").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.msg.contains("missing [faults]"), "{e}");
        let e = parse_fault_plan("[faults]\nmax-attempts = 0\n").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.msg.contains("max-attempts"), "{e}");
    }

    proptest! {
        /// Parsing never panics, whatever bytes arrive.
        #[test]
        fn parse_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
            let text = String::from_utf8_lossy(&bytes);
            let _ = parse_scenario(&text);
        }

        /// Mutating one byte of a valid descriptor never panics either
        /// (exercises deep parser states plain random bytes rarely reach).
        #[test]
        fn mutated_valid_descriptor_never_panics(
            pos in 0usize..4096,
            byte in 0u8..=255,
        ) {
            let mut bytes = registry::juno_r1().to_text().into_bytes();
            let idx = pos % bytes.len();
            bytes[idx] = byte;
            let text = String::from_utf8_lossy(&bytes);
            let _ = parse_scenario(&text);
        }

        /// Fault-plan parsing never panics on arbitrary bytes.
        #[test]
        fn fault_plan_parse_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
            let text = String::from_utf8_lossy(&bytes);
            let _ = parse_fault_plan(&text);
        }

        /// Mutating one byte of a valid fault plan never panics, and any
        /// plan that still parses still validates (parse implies valid).
        #[test]
        fn mutated_fault_plan_never_panics(
            pos in 0usize..1024,
            byte in 0u8..=255,
        ) {
            let mut sc = registry::juno_r1();
            sc.faults = crate::faults::FaultPlan::chaos();
            let mut bytes = format!("[faults]\n{}", sc.faults.to_text()).into_bytes();
            let idx = pos % bytes.len();
            bytes[idx] = byte;
            let text = String::from_utf8_lossy(&bytes);
            if let Ok(plan) = parse_fault_plan(&text) {
                plan.validate().expect("parsed plans are valid");
            }
        }
    }
}
